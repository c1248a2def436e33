"""Toy-size self-test of the benchmark's checks; runs in well under a minute.

    python3 perfbench/selftest.py

For every workload it runs one round as is, which must pass its checks
with only the named faults failing, and then the same round once per
mutant: a mutant replaces one package function (or, for cli-cold, one
command's output) by one that returns a deliberately wrong answer, and
the round's checks must reject it.  A check that passed a mutant would be
passing vacuously.  Exits 1 on any such problem.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

from cantorsys import bratteli, gensub, odometer, product, substitution  # noqa: E402
from cantorsys.words import ClopenSet  # noqa: E402

SEED = 7


def _swap_first_two(d: dict) -> dict:
    keys = sorted(d, key=str)
    out = dict(d)
    if len(keys) >= 2 and d[keys[0]] != d[keys[1]]:
        out[keys[0]], out[keys[1]] = d[keys[1]], d[keys[0]]
    else:
        out[keys[0]] = d[keys[0]] + Fraction(1, 97)
    return out


def _bump_complexity(result):
    if result.periodic:
        return dataclasses.replace(result, periodic=False)
    cx = result.certificate.complexity
    cert = dataclasses.replace(result.certificate, complexity=cx[:-1] + (cx[-1] + 1,))
    return dataclasses.replace(result, certificate=cert)


def _drop_cylinder(clopen):
    cyls = clopen.cylinders
    return ClopenSet(cyls[1:]) if len(cyls) > 1 else ClopenSet([dataclasses.replace(cyls[0], past=cyls[0].future[:len(cyls[0].past)])])


def _swap_theta(derived):
    names = sorted(derived.theta)
    theta = dict(derived.theta)
    if len(names) >= 2:
        theta[names[0]], theta[names[1]] = theta[names[1]], theta[names[0]]
    return dataclasses.replace(derived, theta=theta)


def _bad_lengths(g):
    m = max(g.lengths)
    cell = sorted(g.lengths[m])[0]
    g.lengths[m][cell] += 1
    return g


def _shift_window(w):
    cells = w.window.cells
    return dataclasses.replace(w, window=gensub.TwoSidedCellWord(cells[1:] + cells[:1], w.window.origin))


def _shift_cuts(result):
    if isinstance(result, gensub.Decomposition):
        return dataclasses.replace(result, cuts=tuple(c + 1 for c in result.cuts))
    return result


def _same_prefix(original):
    return lambda d, p: p  # the prefix itself instead of its successor


def mutate(target, attribute, change):
    """Patch target.attribute so its results pass through `change`."""
    original = getattr(target, attribute)

    def mutant(*args, **kwargs):
        return change(original(*args, **kwargs))

    return target, attribute, original, mutant


def replace(target, attribute, factory):
    original = getattr(target, attribute)
    return target, attribute, original, factory(original)


S, B, OD, G = substitution, bratteli, odometer, gensub

MUTANTS = {
    "sub-decide": [
        mutate(S, "is_primitive", lambda r: dataclasses.replace(r, witness_exponent=(r.witness_exponent or 0) + 1)),
        mutate(S, "periodicity_cached", _bump_complexity),
        mutate(S, "frequencies", _swap_first_two),
        mutate(S, "recognizability_radius", lambda r: None),
        mutate(S, "image_clopen", _drop_cylinder),
        mutate(S, "derive", _swap_theta),
        mutate(S, "verify_self_induced", lambda r: dataclasses.replace(r, return_times=r.return_times[:-1] + (0,))),
    ],
    "image-queries": [
        mutate(G, "from_self_induced", _bad_lengths),
        mutate(G, "verify_power_formula", lambda r: dataclasses.replace(r, checks=r.checks - 1)),
        mutate(S.SubstitutionShiftHandle, "in_iterated_image", lambda r: not r),
        mutate(S, "word_frequencies", _swap_first_two),
        mutate(G, "omega_fixed_point", _shift_window),
        mutate(G, "recognizability_decompose", _shift_cuts),
    ],
    "orbit-walk": [
        replace(B, "vershik_step", _same_prefix),
        replace(OD, "add_one", lambda original: lambda x, q: original(original(x, q), q)),
        mutate(OD, "is_factor", lambda r: not r),
        mutate(OD, "valuation_profile", lambda r: {**r, 2: 5}),
        mutate(B, "induced_measure", lambda r: (r[0], dataclasses.replace(r[1], defect=r[1].defect + Fraction(1, 2)))),
        mutate(B, "embed_ordered_graph", lambda e: dataclasses.replace(e, vertex_map={y: v + 1 for y, v in e.vertex_map.items()})),
        mutate(product, "verify_product_selfinduced", lambda r: dataclasses.replace(r, failures=("mutant",))),
    ],
}


def one_round(workload):
    return harness.run_rounds(workload.build_round, 0, 1, rounds=1)


def check_workload(name: str, workload) -> list:
    problems = []
    workload.setup()
    clean = one_round(workload)
    if clean.wrong or not clean.attempted:
        problems.append(f"{name}: clean round has {clean.wrong} wrong answers")
    expected_failed = clean.failed
    for target, attribute, original, mutant in MUTANTS[name]:
        setattr(target, attribute, mutant)
        try:
            tally = one_round(workload)
        finally:
            setattr(target, attribute, original)
        label = f"{getattr(target, '__name__', target)}.{attribute}"
        if tally.wrong == 0:
            problems.append(f"{name}: mutant {label} passed every check")
        else:
            print(f"{name}: mutant {label} rejected ({tally.wrong} wrong)")
    print(f"{name}: clean round {clean.attempted} operations, {expected_failed} named faults")
    return problems


def cli_problems() -> list:
    import cli_cold

    problems = []
    workload = cli_cold.Workload(SEED)
    clean = harness.run_rounds(workload.build_round, 0, workload.repeats, rounds=1)
    if clean.wrong:
        problems.append(f"cli-cold: clean round has {clean.wrong} wrong answers")
    print(f"cli-cold: clean round {clean.attempted} operations, {clean.failed} named faults")
    original = workload._call
    calls = [0]

    def second_differs(out):
        calls[0] += 1
        return (out[0], out[1] + " ") if calls[0] % 2 == 0 else out

    # the first six groups are the README examples and one drawn command,
    # two calls each: every call must be refused for a wrong exit code, and
    # every repeat for printing different bytes
    mutants = {"exit code": (lambda out: (out[0] ^ 1, out[1]), 12), "repeat stdout": (second_differs, 6)}
    for label, (change, needed) in mutants.items():
        workload._call = lambda args, change=change: (lambda: change(original(args)()))
        tally = harness.run_rounds(lambda r: workload.build_round(r)[:6], 0, workload.repeats, rounds=1)
        workload._call = original
        if tally.wrong < needed:
            problems.append(f"cli-cold: mutant {label} refused by {tally.wrong} of {needed} calls")
        else:
            print(f"cli-cold: mutant {label} rejected ({tally.wrong} wrong)")
    return problems


def main() -> int:
    os.environ["PYTHONHASHSEED"] = "0"
    import image_queries
    import orbit_walk
    import sub_decide

    queries = image_queries.Workload(SEED)
    queries.kind_a, queries.kind_b = queries.kind_a[:1], queries.kind_b[:1]
    problems = []
    problems += check_workload("sub-decide", sub_decide.Workload(SEED))
    problems += check_workload("image-queries", queries)
    problems += check_workload("orbit-walk", orbit_walk.Workload(SEED))
    problems += cli_problems()
    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
