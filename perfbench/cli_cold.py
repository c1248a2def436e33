"""cli-cold: the command line, one fresh process per call.

A round runs the README examples, six quick subcommands on inputs drawn
for the round, and the three argument checks named in README.md; every
command runs twice back to back, the second call must print the same
bytes, and the command keeps the lesser latency.  This
is the only workload that pays interpreter start, package import and
argparse on every call.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import corpus
import harness
import oracles as O
import tracing
from harness import Op
from oracles import expect

NAME = "cli-cold"
PD = {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "00"}}
BASE2 = {"stationary": True, "levels": [{"vertices": 1, "edges": [[0, 0, 0], [0, 0, 1]]}] * 2}
ZS_RESOLUTION = 6


def _payload(out: tuple) -> dict:
    return json.loads(out[1])


def _checks(out: tuple) -> dict:
    return {c["name"]: c for c in _payload(out).get("checks", [])}


def expect_exit(code: int):
    def check(out, _):
        expect(out[0] == code, f"exit {out[0]} != {code}: {out[1][-200:]!r}")
    return check


def _fraction(text) -> Fraction:
    return Fraction(text) if isinstance(text, str) else Fraction(text).limit_denominator(10**12)


def zs_window(left: str, right: str, resolution: int, radius: int, iterations: int) -> str:
    tail = f"[{resolution},inf]"

    def image(n):
        return ["0", tail if n == tail or int(n) + 1 >= resolution else str(int(n) + 1)]

    keep = radius * 2 + radius + 4
    lw, rw = [left], [right]
    for _ in range(iterations):
        lw = [x for n in lw for x in image(n)][-keep:]
        rw = [x for n in rw for x in image(n)][:keep]
    return " ".join(lw[-radius:]) + " . " + " ".join(rw[:radius])


class Workload:
    name = NAME
    module = "cantorsys.cli"
    rss_of_children = True  # peak_rss_mb is that of the largest child
    setup_repeats = 7
    # every command runs twice back to back: the repeat must print the same
    # bytes, and the command keeps the lesser of the two latencies
    repeats = 2
    min_rounds = 7  # 14 commands, 28 calls a round

    def __init__(self, seed: int):
        self.seed = seed
        self.dir = harness.BENCH_DIR / "out" / f"cli-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.traced = False
        self.summaries: list = []
        self._write("pd.sub", PD)
        self._write("base2.bv", BASE2)

    def _write(self, name: str, doc: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def setup(self):
        """Nothing to build: each call imports cantorsys.cli afresh."""

    def child_summary(self) -> dict:
        """Layer summaries written by the children of a traced run."""
        total: dict = {}
        for path in self.summaries:
            with open(path, encoding="utf-8") as handle:
                tracing.merge(total, json.load(handle))
        return total

    def _call(self, args: list):
        def call():
            env = harness.child_env()
            if self.traced:
                out = self.dir / f"trace-{len(self.summaries)}.json"
                self.summaries.append(out)
                env["PERFBENCH_TRACE_OUT"] = str(out)
                argv = [sys.executable, str(harness.BENCH_DIR / "launcher.py")] + args
            else:
                argv = [sys.executable, "-m", "cantorsys.cli"] + args
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            return done.returncode, done.stdout
        return call

    def _twice(self, name: str, args: list, check, fault=None):
        """The command as a group run twice; the repeat must print the bytes
        the first call printed."""
        printed = []

        def check_same(out, exc):
            printed.append(out[1])
            expect(printed[-1] == printed[0], f"{name}: repeated call printed different bytes")
            check(out, exc)

        return lambda: [Op(name, self._call(args), check_same, fault=fault)]

    def build_round(self, r: int) -> list:
        rng = corpus.rng_for(NAME, self.seed, r)
        pd = str(self.dir / "pd.sub")
        groups = []

        def odo_cycle2(out, _):
            expect(out[0] == 0 and _checks(out)["self-induced"]["witness"] == 2, "odo self-induced --cycle 2")
        groups.append(self._twice("odo self-induced", ["odo", "self-induced", "--cycle", "2"], odo_cycle2))

        pd_text = O.iterate_from(PD["rules"], "0", 4096)

        def derive_pd(out, _):
            p = _payload(out)
            expect(out[0] == 0 and p["power"] == 1, "sub derive exit or power")
            expect(set(p["theta"].values()) == O.return_words(pd_text, "0"), "derived theta words")
        groups.append(self._twice("sub derive", ["sub", "derive", "--file", pd, "--letter", "0", "--verify"], derive_pd))

        def vershik_max(out, _):
            expect(out[0] == 1 and _payload(out)["result"] == "NeedsExtension", "all-maximal prefix")
        groups.append(self._twice("bv vershik", ["bv", "vershik", "--file", str(self.dir / "base2.bv"),
                                                 "--prefix", "1,1"], vershik_max))

        def fixedpoint(out, _):
            p = _payload(out)
            expect(out[0] == 0, "gensub fixedpoint exit")
            expect(p["window"] == zs_window("0", "1", 8, 8, p["iterations"]), "fixed-point window")
        groups.append(self._twice("gensub fixedpoint", [
            "gensub", "fixedpoint", "--builtin", "zero-successor", "--resolution", "8",
            "--left", "0", "--right", "1", "--radius", "8"], fixedpoint))

        def product_verify(out, _):
            expect(out[0] == 0 and all(c["status"] == "pass" for c in _checks(out).values()), "product verify")
        groups.append(self._twice("product verify", ["product", "verify", "--depth", "12", "--samples", "1000"],
                                  product_verify))

        # inputs drawn for the round
        rules, text = corpus.aperiodic_rule(rng, "ab", 1, 3)
        sub = self._write(f"r{r}.sub", corpus.document("ab", rules))

        def analyze(out, _):
            c, p = _checks(out), _payload(out)
            expect(out[0] == 0 and c["primitive"]["status"] == c["aperiodic"]["status"] == "pass", "sub analyze")
            freqs = [_fraction(p["frequencies"][a]) for a in "ab"]
            _, residual = O.eigen_residual(rules, "ab", freqs)
            expect(residual < Fraction(1, 10**9), "frequencies miss the eigen-equation")
        groups.append(self._twice("sub analyze", ["sub", "analyze", "--file", sub], analyze))

        def language(out, _):
            p = _payload(out)
            expect(out[0] == 0, "sub language exit")
            expect(p["complexity"] == [O.factor_count(text, n) for n in range(1, 13)], "complexity")
            expect(p["words"] == sorted({text[i : i + 4] for i in range(len(text) - 3)}), "words of length 4")
        groups.append(self._twice("sub language", ["sub", "language", "--file", sub, "--horizon", "12",
                                                   "--length", "4"], language))

        cycle = [rng.randint(2, 40) for _ in range(rng.randint(1, 3))]
        least = min(p for q in cycle for p in O.prime_factors(q))

        def odo_si(out, _):
            expect(out[0] == 0 and _checks(out)["self-induced"]["witness"] == least, "odo witness prime")
        groups.append(self._twice("odo self-induced", ["odo", "self-induced", "--cycle", ",".join(map(str, cycle))],
                                  odo_si))

        other = [rng.randint(2, 40) for _ in range(rng.randint(1, 3))]
        p1, p2 = O.profile((), tuple(cycle)), O.profile((), tuple(other))
        factor = set(p1) <= set(p2)
        groups.append(self._twice("odo factor", ["odo", "factor", "--cycle", ",".join(map(str, cycle)),
                                                 "--cycle2", ",".join(map(str, other))],
                                  expect_exit(0 if factor else 1)))

        qs = [rng.randint(2, 4) for _ in range(6)]
        ranks = [rng.randrange(q) for q in qs]
        bv = self._write(f"r{r}.bv", {"stationary": False, "levels": [
            {"vertices": 1, "edges": [[0, 0, k] for k in range(q)]} for q in qs]})
        value = sum(x * p for x, p in zip(ranks, O.partial_products(qs)))
        after = value + 1

        def vershik(out, _):
            p = _payload(out)
            if after == O.partial_products(qs)[-1]:
                expect(out[0] == 1 and p["result"] == "NeedsExtension", "maximal prefix")
                return
            digits = [e[1] for e in p["result"]]
            expect(out[0] == 0 and sum(x * q for x, q in zip(digits, O.partial_products(qs))) == after,
                   "vershik step is not +1 in mixed radix")
        groups.append(self._twice("bv vershik", ["bv", "vershik", "--file", bv,
                                                 "--prefix", ",".join(map(str, ranks))], vershik))

        names = self._zs_window(rng)
        origin = rng.randrange(len(names) + 1)

        def decompose(out, _):
            p = _payload(out)
            n = len(names)
            cuts = [i for i in range(n) if names[i] == "0"] + ([n] if names[n - 2] == "0" else [])
            tail = f"[{ZS_RESOLUTION},inf]"
            pre = [f"[{ZS_RESOLUTION - 1},inf]" if names[i + 1] == tail else str(int(names[i + 1]) - 1)
                   for i in range(n - 1) if names[i] == "0"]
            expect(out[0] == 0 and p["cuts"] == [c - origin for c in cuts] and p["preimage"] == pre,
                   "gensub decompose")
        groups.append(self._twice("gensub decompose", [
            "gensub", "decompose", "--builtin", "zero-successor", "--resolution", str(ZS_RESOLUTION),
            "--cells", ",".join(names), "--origin", str(origin)], decompose))

        # argument problems that should be usage errors (exit 2)
        usage = lambda out, exc: out[0] != 2  # noqa: E731
        for name, args in (
            ("sub self-induce --samples 0", ["sub", "self-induce", "--file", pd, "--samples", "0"]),
            ("sub self-induce --depth -3", ["sub", "self-induce", "--file", pd, "--depth", "-3"]),
            ("sub language --horizon 0", ["sub", "language", "--file", pd, "--horizon", "0"]),
        ):
            groups.append(self._twice(name, args, expect_exit(2), fault=usage))
        return groups

    @staticmethod
    def _zs_window(rng) -> list:
        tail = f"[{ZS_RESOLUTION},inf]"
        word = [rng.choice([str(k) for k in range(ZS_RESOLUTION)] + [tail])]
        while len(word) < 40:
            word = [x for n in word for x in
                    ["0", tail if n == tail or int(n) + 1 >= ZS_RESOLUTION else str(int(n) + 1)]]
        start = rng.randrange(len(word) - 12)
        return word[start : start + rng.randint(6, 12)]
