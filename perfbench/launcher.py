"""Run the cantorsys command line with the per-layer wrappers installed.

    PERFBENCH_TRACE_OUT=summary.json python3 perfbench/launcher.py odo self-induced --cycle 2

Behaves like `python -m cantorsys.cli`; when it exits it writes the layer
summary of this process, with the import time of cantorsys.cli, to the
file named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

t0 = time.perf_counter()
import cantorsys.cli as cli  # noqa: E402

imported = time.perf_counter() - t0
import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
tracer.begin_op(0)
try:
    code = cli.main(sys.argv[1:])
finally:
    tracer.end_op()
    summary = tracer.summary()
    summary["cli.import"] = {"calls": 1, "self_s": imported, "counted": 0, "points": []}
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
sys.exit(code)
