"""Command-line interface: document parsing, report shape, determinism,
exit codes, and the per-command verify oracles."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import cantorsys
from cantorsys import cli
from cantorsys.cli import main, run

PD_DOC = {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "00"}}
FIB_DOC = {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}}
CHACON_DOC = {"alphabet": ["0", "1"], "rules": {"0": "0010", "1": "1"}}
BASE2_DOC = {
    "stationary": True,
    "levels": [
        {"vertices": 1, "edges": [[0, 0, 0], [0, 0, 1]]} for _ in range(6)
    ],
}
GRAPH_DOC = {"left": [0], "right": ["y"], "edges": [[0, "y", 0], [0, "y", 1]]}
XI_WINDOW = "0,1,0,2,0,1,0,3"


@pytest.fixture()
def docs(tmp_path):
    paths = {}
    for name, doc in [
        ("pd.sub", PD_DOC),
        ("fib.sub", FIB_DOC),
        ("chacon.sub", CHACON_DOC),
        ("base2.bv", BASE2_DOC),
        ("pair.graph", GRAPH_DOC),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


class TestSub:
    def test_analyze(self, docs):
        payload, code = run(["sub", "analyze", "--file", docs["pd.sub"], "--verify"])
        assert code == 0
        assert payload["frequencies"] == {"0": "2/3", "1": "1/3"}

    def test_analyze_chacon_fails_primitive(self, docs):
        payload, code = run(["sub", "analyze", "--file", docs["chacon.sub"]])
        assert code == 1
        assert payload["checks"][0]["name"] == "primitive"
        assert payload["checks"][0]["status"] == "fail"

    def test_derive_example(self, docs):
        payload, code = run(
            ["sub", "derive", "--file", docs["pd.sub"], "--letter", "0", "--verify"]
        )
        assert code == 0
        assert payload["rules"] == {"A": "ABB", "B": "A"}
        assert payload["theta"] == {"A": "01", "B": "0"}

    def test_language(self, docs):
        payload, code = run(
            ["sub", "language", "--file", docs["pd.sub"], "--horizon", "8",
             "--length", "2", "--verify"]
        )
        assert code == 0
        assert payload["complexity"][:3] == [2, 3, 5]
        assert payload["words"] == ["00", "01", "10"]

    def test_self_induce(self, docs):
        payload, code = run(
            ["sub", "self-induce", "--file", docs["pd.sub"], "--depth", "50",
             "--samples", "5", "--verify"]
        )
        assert code == 0


class TestOdo:
    def test_self_induced_cycle_2(self):
        payload, code = run(["odo", "self-induced", "--cycle", "2"])
        assert code == 0
        assert payload["checks"][0]["witness"] == 2

    def test_all_primes_profile(self):
        payload, code = run(
            ["odo", "self-induced", "--valuations", "2:1", "--infinite-support"]
        )
        assert code == 1  # a negative decision exits 1

    def test_conjugate(self):
        _, code = run(["odo", "conjugate", "--cycle", "2,3", "--cycle2", "6", "--verify"])
        assert code == 0
        _, code = run(["odo", "conjugate", "--cycle", "2", "--cycle2", "2,3"])
        assert code == 1

    def test_canon(self):
        payload, code = run(["odo", "canon", "--cycle", "6", "--verify"])
        assert code == 0
        assert payload["cycle"] == [2, 3]

    def test_induce(self):
        payload, code = run(
            ["odo", "induce", "--prefix", "2", "--cycle", "3", "--verify"]
        )
        assert code == 0
        assert payload["prefix"] == [] and payload["cycle"] == [3]


class TestBv:
    def test_validate(self, docs):
        _, code = run(["bv", "validate", "--file", docs["base2.bv"]])
        assert code == 0

    def test_vershik_needs_extension(self, docs):
        # an all-maximal prefix has no successor within its own cylinder
        payload, code = run(
            ["bv", "vershik", "--file", docs["base2.bv"], "--prefix", "1,1"]
        )
        assert code == 1
        assert payload["result"] == "NeedsExtension"

    def test_vershik_step(self, docs):
        payload, code = run(
            ["bv", "vershik", "--file", docs["base2.bv"], "--prefix", "1,0", "--verify"]
        )
        assert code == 0
        assert payload["result"] == [[0, 0], [0, 1]]

    def test_contract(self, docs):
        payload, code = run(
            ["bv", "contract", "--file", docs["base2.bv"], "--cuts", "0,2,4,6", "--verify"]
        )
        assert code == 0
        assert payload["diagram"]["levels"][0]["edges"] == [
            [0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3]
        ]

    def test_measure_and_kac(self, docs):
        payload, code = run(["bv", "measure", "--file", docs["base2.bv"], "--verify"])
        assert code == 0
        assert payload["eigenvalue"] == 2
        payload, code = run(["bv", "kac", "--file", docs["base2.bv"], "--paths", "0"])
        assert code == 0
        num, _, den = payload["expected_return_time"].partition("/")
        assert abs(int(num) / int(den or 1) - 2) < 1e-9

    def test_embed(self, docs):
        payload, code = run(
            ["bv", "embed", "--file", docs["base2.bv"], "--graph", docs["pair.graph"],
             "--level", "1"]
        )
        assert code == 0

    def test_emit_dot(self, docs, tmp_path):
        dot = tmp_path / "diagram.dot"
        _, code = run(
            ["bv", "validate", "--file", docs["base2.bv"], "--emit-dot", str(dot)]
        )
        assert code == 0
        assert dot.read_text().startswith("digraph bratteli")


class TestGensub:
    def test_validate_builtin(self):
        _, code = run(["gensub", "validate", "--builtin", "zero-successor",
                       "--resolution", "6"])
        assert code == 0

    def test_primitive(self):
        payload, code = run(
            ["gensub", "primitive", "--builtin", "zero-successor",
             "--resolution", "6"]
        )
        assert code == 0

    def test_language_contains_tail_zero(self):
        payload, code = run(
            ["gensub", "language", "--builtin", "zero-successor", "--resolution", "8",
             "--base", "0", "--length", "2"]
        )
        assert code == 0
        assert "[8,inf] 0" in payload["words"]

    def test_fixedpoint(self):
        payload, code = run(
            ["gensub", "fixedpoint", "--builtin", "zero-successor", "--resolution", "8",
             "--left", "0", "--right", "1", "--radius", "8", "--verify"]
        )
        assert code == 0
        assert payload["window"] == "0 1 0 2 0 1 0 [8,inf] . 0 1 0 2 0 1 0 3"

    def test_decompose(self):
        payload, code = run(
            ["gensub", "decompose", "--builtin", "zero-successor", "--resolution", "8",
             "--cells", XI_WINDOW, "--origin", "4"]
        )
        assert code == 0
        assert payload["cuts"] == [-4, -2, 0, 2, 4]
        assert payload["preimage"] == ["0", "1", "0", "2"]

    def test_from_system(self):
        payload, code = run(
            ["gensub", "from-system", "--system", "2adic", "--resolution", "3"]
        )
        assert code == 0
        assert set(payload["lengths"].values()) == {2}

    def test_power_check(self):
        payload, code = run(
            ["gensub", "power-check", "--system", "2adic", "--resolution", "3",
             "--power", "3", "--samples", "4"]
        )
        assert code == 0


class ReadRecorder(argparse.Namespace):
    """Parsed arguments that record which of them a handler reads."""

    def __getattribute__(self, name):
        if not name.startswith("_") and name in object.__getattribute__(self, "__dict__"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _choices(parser: argparse.ArgumentParser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# one call per subcommand; sub analyze runs an aperiodic rule so that its
# --bound (the recognizability radius bound) is read
FLAG_CALLS = [
    ["sub", "analyze", "--file", "pd.sub", "--verify"],
    ["sub", "language", "--file", "pd.sub", "--horizon", "6", "--length", "3", "--verify"],
    ["sub", "derive", "--file", "pd.sub", "--letter", "0", "--verify"],
    ["sub", "self-induce", "--file", "pd.sub", "--depth", "8", "--samples", "4", "--verify"],
    ["gensub", "validate", "--builtin", "zero-successor", "--resolution", "4"],
    ["gensub", "primitive", "--builtin", "zero-successor", "--resolution", "4"],
    ["gensub", "language", "--builtin", "zero-successor", "--resolution", "4",
     "--base", "0", "--length", "3"],
    ["gensub", "fixedpoint", "--builtin", "zero-successor", "--resolution", "8",
     "--left", "0", "--right", "1", "--radius", "4", "--verify"],
    ["gensub", "decompose", "--builtin", "zero-successor", "--resolution", "8",
     "--cells", XI_WINDOW, "--origin", "4"],
    ["gensub", "from-system", "--system", "2adic", "--resolution", "3"],
    ["gensub", "power-check", "--system", "2adic", "--resolution", "3",
     "--power", "2", "--samples", "2"],
]


class TestDeclaredFlags:
    def test_calls_cover_every_subcommand(self):
        groups = _choices(cli.build_parser())
        declared = {(g, name) for g in ("sub", "gensub") for name in _choices(groups[g])}
        assert {(argv[0], argv[1]) for argv in FLAG_CALLS} == declared

    @pytest.mark.parametrize("argv", FLAG_CALLS, ids=lambda argv: " ".join(argv[:2]))
    def test_every_declared_flag_is_read(self, docs, argv):
        parser = cli.build_parser()
        args = parser.parse_args([docs.get(a, a) for a in argv])
        recorded = ReadRecorder(**vars(args))
        recorded._reads = set()
        cli.HANDLERS[args.command](recorded, cli.Checks(), {})
        subparser = _choices(_choices(parser)[argv[0]])[argv[1]]
        flags = {a.dest for a in subparser._actions if a.option_strings and a.dest != "help"}
        assert flags - recorded._reads == set()

    @pytest.mark.parametrize(
        "argv, flag",
        [(argv, ["--bound", "32"]) for argv in FLAG_CALLS if argv[0] == "gensub"]
        + [
            (FLAG_CALLS[1], ["--bound", "32"]),
            (FLAG_CALLS[0], ["--horizon", "64"]),
            (FLAG_CALLS[2], ["--depth", "12"]),
            (FLAG_CALLS[4], ["--verify"]),
            (FLAG_CALLS[9], ["--builtin", "zero-successor"]),
        ],
    )
    def test_undeclared_flag_exits_2(self, docs, argv, flag):
        payload, code = run([docs.get(a, a) for a in argv] + flag)
        assert code == 2
        assert payload == {"error": "usage"}


class TestProduct:
    def test_verify(self):
        _, code = run(["product", "verify", "--depth", "8", "--samples", "50"])
        assert code == 0

    @pytest.mark.parametrize(
        "kind, check",
        [
            ("commutation", "commutation"),
            ("doubling", "doubling"),
            ("not-in-target", "return-time-two"),
            ("return-time", "return-time-two"),
        ],
    )
    def test_failure_kind_fails_only_its_check(self, monkeypatch, kind, check):
        from cantorsys import product
        from cantorsys.substitution import SelfInductionFailure

        failure = SelfInductionFailure(kind, 17, "forced")
        report = product.ProductReport(8, 50, 1, 50, 50, 50, (failure,))
        monkeypatch.setattr(product, "verify_product_selfinduced", lambda depth, samples: report)
        payload, code = run(["product", "verify", "--depth", "8", "--samples", "50"])
        assert code == 1
        failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
        assert failed == [check, "all-identities"]
        assert payload["checks"][-1]["witness"] == [str(failure)]

    def test_witness_nonexpansive(self):
        payload, code = run(
            ["product", "witness", "--kind", "nonexpansive", "--epsilon", "1/81"]
        )
        assert code == 0

    def test_witness_nonequicontinuous(self):
        payload, code = run(
            ["product", "witness", "--kind", "nonequicontinuous", "--delta", "1/32",
             "--horizon", "12"]
        )
        assert code == 0


class TestReportContract:
    def test_byte_identical_reports(self, docs, capsys):
        argv = ["sub", "analyze", "--file", docs["pd.sub"], "--verify"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_usage_error_exits_2(self):
        _, code = run(["odo", "self-induced"])  # no odometer given
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sub", "self-induce", "--file", "pd.sub", "--samples", "0"],
            ["sub", "self-induce", "--file", "pd.sub", "--depth", "-3"],
            ["sub", "language", "--file", "pd.sub", "--horizon", "0"],
            ["gensub", "from-system", "--system", "2adic", "--resolution", "0"],
            ["product", "verify", "--samples", "0"],
            ["odo", "self-induced", "--cycle", "abc"],
            ["odo", "self-induced", "--cycle", "2,,3"],
            ["odo", "self-induced", "--cycle", "0"],
            ["odo", "self-induced", "--prefix", "1", "--cycle", "2"],
            ["odo", "factor", "--cycle", "2", "--cycle2", "zz"],
            ["bv", "vershik", "--file", "base2.bv", "--prefix", "x"],
            ["bv", "vershik", "--file", "base2.bv", "--prefix", "0:x"],
            ["bv", "kac", "--file", "base2.bv", "--paths", "0;"],
            ["bv", "contract", "--file", "base2.bv", "--cuts", "x"],
            ["product", "witness", "--kind", "nonexpansive", "--epsilon", "abc"],
            ["product", "witness", "--kind", "nonexpansive", "--epsilon", "0"],
            ["product", "witness", "--kind", "nonequicontinuous", "--delta", "1/0"],
            ["gensub", "power-check", "--system", "2adic", "--power", "0"],
            ["bv", "simple", "--file", "base2.bv", "--window", "0"],
            ["bv", "embed", "--file", "base2.bv", "--graph", "pair.graph", "--level", "-1"],
            ["gensub", "fixedpoint", "--builtin", "zero-successor", "--left", "0",
             "--right", "1", "--radius", "-1"],
            ["gensub", "fixedpoint", "--builtin", "zero-successor", "--left", "0",
             "--right", "1", "--radius", "0"],
            ["sub", "language", "--file", "pd.sub", "--length", "-1"],
            ["gensub", "language", "--builtin", "zero-successor", "--base", "0", "--length", "0"],
            ["sub", "analyze", "--file", "pd.sub", "--bound", "-1"],
            ["gensub", "primitive", "--builtin", "zero-successor", "--resolution", "4",
             "--bound", "-1"],
            ["gensub", "decompose", "--builtin", "zero-successor", "--cells", "0,1,0,2",
             "--origin", "-1"],
        ],
    )
    def test_out_of_range_argument_exits_2(self, docs, argv):
        argv = [docs.get(a, a) for a in argv]
        payload, code = run(argv)
        assert code == 2
        assert payload == {"error": "usage"}

    def test_origin_past_the_cells_exits_2(self):
        payload, code = run(["gensub", "decompose", "--builtin", "zero-successor",
                             "--cells", "0,1,0,2", "--origin", "9"])
        assert code == 2
        assert "checks" not in payload and "--origin 9" in payload["error"]

    def test_unknown_file_exits_2(self):
        _, code = run(["sub", "analyze", "--file", "/nonexistent.sub"])
        assert code == 2

    def test_precondition_failure_exits_1(self, docs):
        payload, code = run(
            ["sub", "derive", "--file", docs["chacon.sub"], "--letter", "0"]
        )
        assert code == 1
        assert payload["checks"][0]["name"] == "precondition"

    def test_internal_error_exits_3_with_traceback_on_stderr(self, monkeypatch, capsys):
        def broken(args, checks, payload):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.HANDLERS, "odo", broken)
        code = main(["odo", "self-induced", "--cycle", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {
            "command": ["odo", "self-induced", "--cycle", "2"],
            "error": "internal: RuntimeError: boom",
            "exit": 3,
        }
        assert "Traceback (most recent call last)" in captured.err
        assert "RuntimeError: boom" in captured.err

    def test_exit_zero_iff_all_pass(self, docs):
        payload, code = run(["bv", "simple", "--file", docs["base2.bv"], "--window", "1"])
        assert code == 0
        assert payload["exit"] == 0


class TestMoreCommands:
    def test_odo_large_prime_cycle(self):
        payload, code = run(["odo", "self-induced", "--cycle", "1000000000000000003"])
        assert code == 0
        assert payload["checks"][0]["witness"] == 1000000000000000003

    def test_odo_factoring_budget_is_a_named_failure(self, monkeypatch):
        from cantorsys import odometer

        monkeypatch.setattr(odometer, "_RHO_BUDGET", 1000)
        payload, code = run(["odo", "self-induced", "--cycle", str((10**9 + 7) * (10**9 + 9))])
        assert code == 1
        assert payload["checks"][0]["name"] == "precondition"
        assert "budget" in payload["checks"][0]["witness"]

    def test_odo_factor(self):
        _, code = run(["odo", "factor", "--cycle", "3", "--cycle2", "6"])
        assert code == 0
        _, code = run(["odo", "factor", "--prefix", "4", "--cycle", "3",
                       "--prefix2", "2", "--cycle2", "3"])
        assert code == 1

    def test_gensub_from_system_period_doubling(self):
        payload, code = run(
            ["gensub", "from-system", "--system", "period-doubling",
             "--resolution", "2"]
        )
        assert code == 0
        assert set(payload["lengths"].values()) == {2}

    def test_bv_proper(self, docs):
        payload, code = run(["bv", "proper", "--file", docs["base2.bv"], "--depth", "4"])
        assert code == 0
        assert payload["status"] == "certified"

    def test_bv_induce(self, docs):
        payload, code = run(["bv", "induce", "--file", docs["base2.bv"], "--paths", "0"])
        assert code == 0
        assert payload["diagram"]["levels"][0]["edges"] == [[0, 0, 0]]

    def test_bv_poincare(self, docs, tmp_path):
        import json as json_module

        source = tmp_path / "source.bv"
        source.write_text(
            json_module.dumps(
                {
                    "stationary": True,
                    "levels": [
                        {"vertices": 1, "edges": [[0, 0, 0], [0, 0, 1]]}
                        for _ in range(3)
                    ],
                }
            )
        )
        payload, code = run(
            ["bv", "poincare", "--file", docs["base2.bv"], "--source", str(source),
             "--depth", "2"]
        )
        assert code == 0
        assert len(payload["cuts"]) == 2

    def test_witness_verify_modes(self):
        _, code = run(
            ["product", "witness", "--kind", "nonexpansive", "--epsilon", "1/27",
             "--verify"]
        )
        assert code == 0
        _, code = run(
            ["product", "witness", "--kind", "nonequicontinuous", "--delta", "1/16",
             "--horizon", "12", "--verify"]
        )
        assert code == 0


XI3_DOC = {
    "cells": {
        "name": "[0,inf]",
        "children": [
            {"name": "0", "isolated": True},
            {
                "name": "[1,inf]",
                "children": [
                    {"name": "1", "isolated": True},
                    {
                        "name": "[2,inf]",
                        "children": [
                            {"name": "2", "isolated": True},
                            {"name": "[3,inf]"},
                        ],
                    },
                ],
            },
        ],
    },
    "rules": {
        "0": {"length": 2, "letters": ["0", "1"]},
        "1": {"length": 2, "letters": ["0", "2"]},
        "2": {"length": 2, "letters": ["0", "[3,inf]"]},
        "[3,inf]": {"length": 2, "letters": ["0", "[3,inf]"]},
    },
}


class TestGensubDocuments:
    def test_document_round_trip(self, tmp_path):
        import json as json_module

        path = tmp_path / "xi3.gsub"
        path.write_text(json_module.dumps(XI3_DOC))
        payload, code = run(["gensub", "validate", "--file", str(path)])
        assert code == 0
        payload, code = run(
            ["gensub", "fixedpoint", "--file", str(path), "--resolution", "3",
             "--left", "0", "--right", "1", "--radius", "3"]
        )
        assert code == 0
        assert payload["window"] == "1 0 [3,inf] . 0 1 0"

    def test_document_with_broken_rule(self, tmp_path):
        import copy
        import json as json_module

        doc = copy.deepcopy(XI3_DOC)
        # letters of 2 escape the parent's image cell at the coarser level
        doc["rules"]["2"]["letters"] = ["[3,inf]", "0"]
        doc["rules"]["[3,inf]"]["letters"] = ["0", "0"]
        path = tmp_path / "broken.gsub"
        path.write_text(json_module.dumps(doc))
        payload, code = run(["gensub", "validate", "--file", str(path)])
        assert code == 1
        assert payload["checks"][0]["status"] == "fail"


class TestValuationDocuments:
    def test_infinite_valuation_inline(self):
        payload, code = run(["odo", "self-induced", "--valuations", "3:inf"])
        assert code == 0
        assert payload["checks"][0]["witness"] == 3

    def test_analyze_periodic_substitution_exits_1(self, tmp_path):
        import json as json_module

        path = tmp_path / "periodic.sub"
        path.write_text(
            json_module.dumps({"alphabet": ["0", "1"], "rules": {"0": "01", "1": "01"}})
        )
        payload, code = run(["sub", "analyze", "--file", str(path)])
        assert code == 1
        names = {c["name"]: c["status"] for c in payload["checks"]}
        assert names["primitive"] == "pass"
        assert names["aperiodic"] == "fail"


def _fresh_python(code: str, *argv: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cantorsys.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


LOADED_BY_MAIN = """
import contextlib, io, json, sys
import cantorsys.cli
with contextlib.redirect_stdout(io.StringIO()):
    cantorsys.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "cantorsys")))
"""


class TestColdImports:
    """Each command loads only the modules of its own group."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["odo", "self-induced", "--cycle", "2"], {"odometer"}),
            (["sub", "language", "--horizon", "0"], set()),
            (["odo", "self-induced", "--cycle", "abc"], set()),
            (["gensub", "fixedpoint", "--builtin", "zero-successor",
              "--resolution", "3", "--left", "0", "--right", "1"], {"gensub"}),
            (["gensub", "decompose", "--builtin", "zero-successor",
              "--resolution", "4", "--cells", "0,1,0,2,0,1", "--origin", "2"], {"gensub"}),
        ],
    )
    def test_command_loads_only_its_group(self, argv, loaded):
        modules = json.loads(_fresh_python(LOADED_BY_MAIN, *argv))
        base = {"cantorsys", "cantorsys.cli", "cantorsys.errors", "cantorsys.words"}
        assert set(modules) == base | {f"cantorsys.{m}" for m in loaded}

    def test_package_attributes_load_on_first_use(self):
        out = _fresh_python(
            "import sys, cantorsys\n"
            "print('cantorsys.substitution' in sys.modules)\n"
            "print(cantorsys.substitution.period_doubling().image('0'))\n"
            "print(cantorsys.matrixutil.__name__)\n"
            "from cantorsys import *\n"
            "print(all(name in globals() for name in cantorsys.__all__))\n"
        )
        assert out.split() == ["False", "01", "cantorsys.matrixutil", "True"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            cantorsys.no_such_module
