"""Regenerate the reference figures quoted in README.md (about a minute).

    python3 perfbench/reference.py

Prints, one per line: language generation for period doubling at horizon
64, 128 and 256; 100k Vershik steps at depth 24; 100k odometer add_one
calls at depth 24.  Each is one wall-clock timing in a fresh object, so
quote it with the machine it ran on.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cantorsys import bratteli, odometer, substitution  # noqa: E402


def timed(label, fn):
    t0 = time.perf_counter()
    fn()
    print(f"{label}: {time.perf_counter() - t0:.3f} s", flush=True)


def vershik_steps(n, depth):
    d = bratteli.one_vertex_diagram([2] * depth)
    p = bratteli.PathPrefix(d, bratteli.minimal_path_to(d, depth, 0))
    for _ in range(n):
        p = bratteli.vershik_step(d, p)
        if p is bratteli.NEEDS_EXTENSION:
            p = bratteli.PathPrefix(d, bratteli.minimal_path_to(d, depth, 0))


def add_ones(n, depth):
    q = odometer.EventuallyPeriodic((), (2,))
    x = odometer.OdometerPoint((0,) * depth)
    for _ in range(n):
        x = odometer.add_one(x, q)


for horizon in (64, 128, 256):
    timed(f"language(period_doubling, {horizon})",
          lambda h=horizon: substitution.language(substitution.period_doubling(), h))
timed("100k vershik_step at depth 24", lambda: vershik_steps(100_000, 24))
timed("100k add_one at depth 24", lambda: add_ones(100_000, 24))
