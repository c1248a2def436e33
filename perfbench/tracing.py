"""Per-layer spans recorded by rebinding public functions of the package.

`install()` replaces each traced function by a wrapper in its defining
module and under every other name a cantorsys module imported it by, so
calls between modules are seen too.  Spans (name, start, end, parent,
operation id, size, count) stay in memory while the run lasts; `summary()`
folds them into per-layer totals, and `write_spans()` writes the first
operations' spans out when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time

# (module, attribute, layer name, size(args), count(args, result) or None)
# A size feeds the layer's log-log slope; a count is summed into `.counted`.


# The two counts below read private fields of the package; where a change
# to the package removes them, the count reads 0 instead of failing.


def _lang_words(lang) -> int:
    return sum(len(ws) for ws in getattr(lang, "_by_length", {}).values())


def _rebuilt(args) -> int:
    s, horizon = args[0], args[1]
    cache = getattr(s, "_lang_cache", {})
    return int(horizon not in cache and any(h > horizon for h in cache))


def _extra_levels(args, result) -> int:
    first = next(iter(args[1]))
    n0 = len(first.edges if hasattr(first, "edges") else first)
    return result[1].level_used - n0


def _float_path(args, result) -> int:
    return int(not result.exact)


TARGETS = [
    ("cantorsys.substitution", "language", "substitution.language",
     lambda a: a[1], lambda a, r: _lang_words(r)),
    ("cantorsys.substitution", "periodicity_check", "substitution.periodicity_check", None, None),
    ("cantorsys.substitution.Substitution", "language_at", "substitution.language_at",
     None, "pre"),
    ("cantorsys.words.Language", "words", "words.Language.words", None, None),
    ("cantorsys.substitution", "image_tilings", "substitution.image_tilings",
     lambda a: len(a[1]), lambda a, r: len(r)),
    ("cantorsys.substitution", "recognizability_radius", "substitution.recognizability_radius", None, None),
    ("cantorsys.substitution", "return_words", "substitution.return_words", None, None),
    ("cantorsys.substitution", "derive", "substitution.derive", None, None),
    ("cantorsys.substitution", "verify_self_induced", "substitution.verify_self_induced", None, None),
    ("cantorsys.words.ClopenSet", "contains_at", "words.ClopenSet.contains_at", None, None),
    ("cantorsys.matrixutil", "perron", "matrixutil.perron", None, _float_path),
    ("cantorsys.matrixutil", "positivity_exponent", "matrixutil.positivity_exponent", None, None),
    ("cantorsys.bratteli", "vershik_step", "bratteli.vershik_step",
     lambda a: len(a[1].edges), None),
    ("cantorsys.bratteli.PathPrefix", "__post_init__", "bratteli.PathPrefix", None, None),
    ("cantorsys.bratteli", "induced_measure", "bratteli.induced_measure", None, _extra_levels),
    ("cantorsys.bratteli", "embed_ordered_graph", "bratteli.embed_ordered_graph",
     lambda a: len(a[2].edges), None),
    ("cantorsys.odometer", "add", "odometer.add", lambda a: a[0].depth, None),
    ("cantorsys.odometer", "valuation_profile", "odometer.valuation_profile", None, None),
    ("cantorsys.product", "verify_product_selfinduced", "product.verify_product_selfinduced", None, None),
    ("cantorsys.gensub", "from_self_induced", "gensub.from_self_induced", None, None),
    ("cantorsys.gensub", "verify_power_formula", "gensub.verify_power_formula", None, None),
    ("cantorsys.gensub", "omega_fixed_point", "gensub.omega_fixed_point", None, None),
    ("cantorsys.gensub", "recognizability_decompose", "gensub.recognizability_decompose", None, None),
    ("cantorsys.cli", "build_parser", "cli.build_parser", None, None),
    ("cantorsys.cli", "run", "cli.run", None, None),
]

# layer -> name of its summed count in the metrics
COUNT_NAMES = {
    "substitution.language": "words_stored",
    "substitution.language_at": "rebuilt",
    "substitution.image_tilings": "tilings",
    "matrixutil.perron": "float_path",
    "bratteli.induced_measure": "extra_levels",
}
SLOPE_NAMES = {
    "substitution.language": "horizon_slope",
    "substitution.image_tilings": "window_slope",
    "bratteli.vershik_step": "depth_slope",
    "bratteli.embed_ordered_graph": "edges_slope",
    "odometer.add": "depth_slope",
}
CALL_COUNTED = (
    "substitution.language", "substitution.language_at", "words.Language.words",
    "substitution.image_tilings", "words.ClopenSet.contains_at", "matrixutil.perron",
    "bratteli.vershik_step", "odometer.add",
)
SPAN_OPS_WRITTEN = 200


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self._restore: list = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def _wrap(self, name, fn, size, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, None, 0]
            tracer.spans.append(span)
            if count == "pre":
                span[6] = _rebuilt(args)
            tracer.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if size is not None:
                span[5] = size(args)
            if callable(count):
                span[6] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "cantorsys" and m]
        for where, attr, name, size, count in TARGETS:
            owner = _resolve(where)
            if owner is None:
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, size, count)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per layer: calls, self seconds, summed count, (size, seconds) points."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict = {}
        for i, (name, start, end, _, _, size, count) in enumerate(self.spans):
            layer = out.setdefault(name, {"calls": 0, "self_s": 0.0, "counted": 0, "points": []})
            layer["calls"] += 1
            layer["self_s"] += (end - start) - child_time[i]
            layer["counted"] += count
            if size is not None:
                layer["points"].append((size, end - start))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span[4] >= SPAN_OPS_WRITTEN:
                    break
                handle.write(json.dumps(span) + "\n")


def _resolve(where: str):
    parts = where.split(".")
    for cut in range(len(parts), 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is not None:
            obj = module
            for attr in parts[cut:]:
                obj = getattr(obj, attr, None)
            return obj
    return None


def merge(into: dict, other: dict) -> dict:
    for name, layer in other.items():
        mine = into.setdefault(name, {"calls": 0, "self_s": 0.0, "counted": 0, "points": []})
        mine["calls"] += layer["calls"]
        mine["self_s"] += layer["self_s"]
        mine["counted"] += layer["counted"]
        mine["points"].extend(tuple(p) for p in layer["points"])
    return into


def loglog_slope(points) -> float:
    """Least-squares slope of log(seconds) on log(size); 0.0 with fewer than
    two distinct sizes."""
    pts = [(math.log(x), math.log(t)) for x, t in points if x > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a summary."""
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for _, _, layer, _, _ in TARGETS:
        if layer.startswith("cli."):
            continue
        data = summary.get(layer, {"calls": 0, "self_s": 0.0, "counted": 0, "points": []})
        if layer in CALL_COUNTED:
            put(f"{layer}.calls", data["calls"], "count")
        put(f"{layer}.self_s", data["self_s"], "s")
        if layer in COUNT_NAMES:
            put(f"{layer}.{COUNT_NAMES[layer]}", data["counted"], "count")
        if layer in SLOPE_NAMES:
            put(f"{layer}.{SLOPE_NAMES[layer]}", loglog_slope(data["points"]), "1")
    for layer in ("cli.build_parser", "cli.run"):
        put(f"{layer}.self_s", summary.get(layer, {}).get("self_s", 0.0), "s")
    put("cli.import_s", summary.get("cli.import", {}).get("self_s", 0.0), "s")
    return metrics
