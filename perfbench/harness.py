"""Timing loop, statistics and set-up measurement shared by the workloads.

A workload hands the harness a function that builds round r as a list of
groups, each a function returning fresh `Op`s.  Every round of a workload
attempts the same operations in the same order, so the share of failed
operations is a property of the round and not of the run length or the
seed.  The loop runs whole rounds until the summed operation time reaches
the requested seconds.

Two measures keep the figures steady on a shared machine, where the speed
of a fixed pure-Python loop swings between two levels about 1.5x apart
for seconds at a time:

- each group runs `repeats` times back to back and each operation keeps
  its least latency, which filters short interference;
- a fixed stdlib-only reference computation is timed about every
  RESCALE_SECONDS of operations, and the latencies in between are scaled by
  REFERENCE_SECONDS / (its time), so every time metric is in seconds of
  a machine on which the reference takes REFERENCE_SECONDS.  The
  reference does not touch the package, so a change to the package moves
  the figures and a change in machine speed does not.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import Wrong

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


REFERENCE_SECONDS = 0.005
RESCALE_SECONDS = 0.25


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


@dataclass
class Op:
    """One call into the package.

    `accepts` lists the exception types that are correct negative answers;
    `check(result, exc)` raises `Wrong` when the answer is refuted.  A fault
    op names a known defect: `fault(result, exc)` is true when the defect
    shows, and that outcome is counted as failed instead of checked."""

    name: str
    call: Callable
    check: Callable
    accepts: tuple = ()
    fault: Callable | None = None


@dataclass
class Tally:
    # doubles, not a list of floats: a long run keeps 10^5 latencies, and a
    # list would add megabytes to peak_rss_mb in proportion to run length
    latencies: array = field(default_factory=lambda: array("d"))
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    rounds: int = 0
    notes: dict = field(default_factory=dict)

    def note(self, kind: str, message: str) -> None:
        key = (kind, message[:160])
        self.notes[key] = self.notes.get(key, 0) + 1


def run_op(op: Op, tally: Tally, tracer=None) -> float:
    if tracer is not None:
        tracer.begin_op(tally.attempted)
    t0 = time.perf_counter()
    try:
        result, exc = op.call(), None
    except Exception as error:  # every outcome is classified below
        result, exc = None, error
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    tally.busy += dt
    tally.attempted += 1
    if op.fault is not None and op.fault(result, exc):
        tally.failed += 1
        tally.note("fault", f"{op.name}: {type(exc).__name__ if exc else repr(result)[:40]}")
    elif exc is not None and not isinstance(exc, op.accepts):
        tally.failed += 1
        tally.note("failed", f"{op.name}: {type(exc).__name__}: {exc}")
    else:
        try:
            op.check(result, exc)
        except Wrong as error:
            tally.wrong += 1
            tally.note("wrong", f"{op.name}: {error}")
    return dt


def run_group(group: Callable[[], list], repeats: int, tally: Tally, tracer=None) -> None:
    """Run a group of operations `repeats` times back to back, each time on
    fresh objects from `group()`, and keep each operation's least latency."""
    best: list[float] = []
    for rep in range(repeats):
        for i, op in enumerate(group()):
            dt = run_op(op, tally, tracer)
            if rep == 0:
                best.append(dt)
            else:
                best[i] = min(best[i], dt)
    tally.latencies.extend(best)


def run_rounds(build_round: Callable[[int], list], seconds: float, repeats: int,
               min_rounds: int = 1, rounds: int | None = None, tracer=None) -> Tally:
    """Whole rounds until `seconds` of operation time (or exactly `rounds`).
    A round is a list of groups; see `run_group`.  Latencies are scaled by
    the reference timed before and after each stretch of about
    RESCALE_SECONDS of operations."""
    tally = Tally()
    r = 0
    before = reference_seconds()
    start, mark = 0, 0.0

    def rescale():
        nonlocal before, start, mark
        after = reference_seconds()
        scale = 2 * REFERENCE_SECONDS / (before + after)
        tally.latencies[start:] = array("d", (dt * scale for dt in tally.latencies[start:]))
        before, start, mark = after, len(tally.latencies), tally.busy

    while (r < rounds) if rounds is not None else (tally.busy < seconds or r < min_rounds):
        for group in build_round(r):
            run_group(group, repeats, tally, tracer)
            if tally.busy - mark >= RESCALE_SECONDS:
                rescale()
        r += 1
    if start < len(tally.latencies):
        rescale()
    tally.rounds = r
    return tally


def _reference_work() -> int:
    text = tuple("abaababaabaababaababaabaababaabab" * 16)
    counts: dict = {}
    for n in range(1, 25):
        seen = set()
        for i in range(len(text) - n + 1):
            seen.add(text[i : i + n])
        for w in seen:
            counts[w] = counts.get(w, 0) + 1
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k, k + 1)
    return len(sorted(counts, key=lambda w: (len(w), w))) + total.numerator % 7


def reference_seconds() -> float:
    """Least of three timings of the reference computation."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_import_seconds(module: str) -> float:
    """Import time of `module` inside a fresh interpreter, timed there."""
    code = (
        "import time; t = time.perf_counter(); import " + module
        + "; print(repr(time.perf_counter() - t))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(module: str, build: Callable[[], object], repeats: int) -> float:
    """Median over `repeats` of (fresh-interpreter import time + in-process
    build time), each scaled by the reference timed around it."""
    child_import_seconds(module)  # writes bytecode caches in a fresh checkout
    samples = []
    before = reference_seconds()
    for _ in range(repeats):
        imported = child_import_seconds(module)
        t0 = time.perf_counter()
        build()
        built = time.perf_counter() - t0
        after = reference_seconds()
        samples.append((imported + built) * 2 * REFERENCE_SECONDS / (before + after))
        before = after
    return statistics.median(samples)


def ops_per_s(tally: Tally) -> float:
    return len(tally.latencies) / sum(tally.latencies)


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    lat = tally.latencies
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s(tally), "unit": "1/s"},
        "op_s_p50": {"value": quantile(lat, 0.5), "unit": "s"},
        "op_s_p90": {"value": quantile(lat, 0.9), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def report_notes(tally: Tally, limit: int = 12) -> None:
    for (kind, message), count in sorted(tally.notes.items())[:limit]:
        print(f"# {kind} x{count}: {message}", file=sys.stderr)
