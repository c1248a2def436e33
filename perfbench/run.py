"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload sub-decide --seed 1 --seconds 12 --trace 0

`--workload all` runs every workload in this process, one after the other,
and prints one result line per workload.  With `--trace 1` the per-layer
metrics are printed instead of the end-to-end ones; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("sub-decide", "image-queries", "orbit-walk", "cli-cold")


def _reexec_with_fixed_hash_seed() -> None:
    """Set iteration order, and with it the work done, repeats run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _import_package() -> None:
    if not (SRC / "cantorsys" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cantorsys sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cantorsys

    if Path(cantorsys.__file__).resolve().parent != (SRC / "cantorsys").resolve():
        sys.exit(f"perfbench: imported cantorsys from {cantorsys.__file__}, not {SRC}")


def workload_class(name: str):
    if name == "sub-decide":
        from sub_decide import Workload
    elif name == "image-queries":
        from image_queries import Workload
    elif name == "orbit-walk":
        from orbit_walk import Workload
    else:
        from cli_cold import Workload
    return Workload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _reexec_with_fixed_hash_seed()
    _import_package()
    import measure

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = measure.run_workload(workload_class(name)(args.seed), args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
