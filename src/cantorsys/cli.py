"""Command-line front end: JSON documents in, deterministic JSON reports out.

Document schemas
  substitution   {"alphabet": ["0","1"], "rules": {"0": "01", "1": "00"}}
                 (rule strings split per character; lists of symbols are
                 accepted for multi-character alphabets)
  odometer       {"form": "eventually-periodic", "prefix": [...], "cycle": [...]}
                 {"form": "valuation-profile", "valuations": {"2": 1, "3": "inf"},
                  "infinite_support": false}
  diagram        {"stationary": false,
                  "levels": [{"vertices": 1, "edges": [[source,target,rank], ...]}, ...]}
  generalized    {"cells": {"name": "...", "isolated": false, "children": [...]},
   substitution   "rules": {"<finest cell name>": {"length": 2, "letters": ["...", ...]}},
                  "length_resolution": 1}
  bipartite graph{"left": [0, 1], "right": ["y0"], "edges": [[left, right, rank], ...]}

Reports echo the command, digest the inputs, and list one entry per check;
exit status 0 means every check passed, 1 flags a failed or negative check,
2 a usage problem, 3 an internal error.  Identical invocations produce
byte-identical reports: no randomness, no timestamps, sorted collections.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CantorSysError, DocumentError
from .words import Alphabet, Word, factor_complexity

if TYPE_CHECKING:
    from . import bratteli, gensub, substitution

DEFAULT_DEPTH = 12
DEFAULT_HORIZON = 64
DEFAULT_BOUND = 32


# -- document parsing ---------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise DocumentError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from None


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_substitution(doc: dict) -> substitution.Substitution:
    from . import substitution

    try:
        alphabet = Alphabet([str(a) for a in doc["alphabet"]])
        rules = {}
        for letter, image in doc["rules"].items():
            if isinstance(image, str):
                rules[str(letter)] = Word(tuple(image))
            else:
                rules[str(letter)] = Word(tuple(str(x) for x in image))
        return substitution.Substitution(alphabet, rules)
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"bad substitution document: {exc}") from None


def parse_odometer(doc: dict):
    from . import odometer

    try:
        form = doc["form"]
        if form == "eventually-periodic":
            return odometer.EventuallyPeriodic(
                tuple(doc.get("prefix", ())), tuple(doc["cycle"])
            )
        if form == "valuation-profile":
            vals = {}
            for prime, value in doc.get("valuations", {}).items():
                vals[int(prime)] = (
                    odometer.INFINITE if value in ("inf", "infinity") else int(value)
                )
            return odometer.ValuationProfile(
                vals, infinitely_many_primes=bool(doc.get("infinite_support", False))
            )
        raise DocumentError(f"unknown odometer form {form!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad odometer document: {exc}") from None


def parse_diagram(doc: dict) -> bratteli.OrderedBratteliDiagram:
    from . import bratteli

    try:
        return bratteli.OrderedBratteliDiagram.from_document(doc)
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"bad diagram document: {exc}") from None


def parse_graph(doc: dict) -> bratteli.OrderedBipartiteGraph:
    from . import bratteli

    try:
        return bratteli.OrderedBipartiteGraph(
            [int(v) for v in doc["left"]],
            [str(y) for y in doc["right"]],
            [bratteli.KEdge(int(e[0]), str(e[1]), int(e[2])) for e in doc["edges"]],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise DocumentError(f"bad graph document: {exc}") from None


def parse_gensub(doc: dict) -> gensub.GeneralizedSubstitution:
    from . import gensub

    try:
        isolated = []
        root_node = doc["cells"]
        children: dict = {}

        def walk(node, level):
            cell = gensub.Cell(level, str(node["name"]))
            if node.get("isolated"):
                isolated.append(cell)
            kids = tuple(walk(child, level + 1) for child in node.get("children", ()))
            if kids:
                children[cell] = kids
            return cell

        root = walk(root_node, 0)
        space = gensub.AlphabetSpace(root, children, isolated=isolated)
        length_resolution = int(doc.get("length_resolution", 1))
        finest = space.max_resolution
        names = {c.name: c for c in space.frontier(finest)}
        lengths = {finest: {}}
        images = {finest: {}}
        for name, rule in doc["rules"].items():
            cell = names[str(name)]
            lengths[finest][cell] = int(rule["length"])
            for j, target in enumerate(rule["letters"], start=1):
                images[finest][(cell, j)] = names[str(target)]
        for cell in space.frontier(finest):
            if cell not in lengths[finest]:
                raise DocumentError(f"no rule for cell {cell.name!r}")
        for m in range(finest - 1, length_resolution - 1, -1):
            lengths[m] = {}
            images[m] = {}
            for cell in space.frontier(m):
                fine = space.refinement(cell, m + 1)[0]
                lengths[m][cell] = lengths[m + 1][fine]
                for j in range(1, lengths[m][cell] + 1):
                    images[m][(cell, j)] = space.ancestor_at(
                        images[m + 1][(fine, j)], m
                    )
        return gensub.GeneralizedSubstitution(
            space, lengths, images, length_resolution=length_resolution
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad generalized substitution document: {exc}") from None


def _odometer_from_args(args, suffix="") -> tuple:
    path = getattr(args, "file" + suffix, None)
    if path:
        doc = _load_json(path)
        return parse_odometer(doc), doc
    cycle = getattr(args, "cycle" + suffix, None)
    valuations = getattr(args, "valuations" + suffix, None)
    if cycle:
        prefix = getattr(args, "prefix" + suffix, None)
        doc = {"form": "eventually-periodic", "prefix": prefix or [], "cycle": cycle}
        return parse_odometer(doc), doc
    if valuations:
        vals = {}
        for item in valuations.split(","):
            prime, _, value = item.partition(":")
            vals[prime.strip()] = value.strip()
        doc = {
            "form": "valuation-profile",
            "valuations": vals,
            "infinite_support": bool(getattr(args, "infinite_support" + suffix, False)),
        }
        return parse_odometer(doc), doc
    raise DocumentError("no odometer given (use --file, --cycle or --valuations)")


def _parse_prefix_tokens(d: bratteli.OrderedBratteliDiagram, tokens: list) -> bratteli.PathPrefix:
    """Resolve (target or None, rank) tokens from `_path_tokens` to a prefix."""
    from . import bratteli

    edges = []
    source = 0
    for level, (target, rank) in enumerate(tokens, start=1):
        if target is None:
            if d.vertex_counts[level] != 1:
                raise DocumentError(
                    f"level {level} has several vertices; use target:rank tokens"
                )
            target = 0
        matches = [
            e for e in d.edges(level) if e.target == target and e.rank == rank and e.source == source
        ]
        if not matches:
            raise DocumentError(f"no edge target={target} rank={rank} at level {level}")
        edges.append(matches[0])
        source = target
    return bratteli.PathPrefix(d, tuple(edges))


def _parse_paths(d: bratteli.OrderedBratteliDiagram, paths: list) -> list:
    return [_parse_prefix_tokens(d, tokens) for tokens in paths]


# -- report helpers ---------------------------------------------------------------


def _fmt(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(x) for x in value]
    if isinstance(value, dict):
        return {str(_fmt(k)): _fmt(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


class Checks:
    def __init__(self):
        self.entries = []

    def add(self, name: str, status: bool, witness=None, depth=None):
        self.entries.append(
            {
                "name": name,
                "status": "pass" if status else "fail",
                "witness": _fmt(witness),
                "depth": depth,
            }
        )

    @property
    def all_pass(self) -> bool:
        return all(entry["status"] == "pass" for entry in self.entries)


def _emit_dot(d: bratteli.OrderedBratteliDiagram, path: str) -> None:
    lines = ["digraph bratteli {", "  rankdir=TB;", '  root [label="v0"];']
    for k in range(1, d.depth + 1):
        for v in d.vertices(k):
            lines.append(f'  v{k}_{v} [label="({k},{v})"];')
    for e in d.edges(1):
        lines.append(f'  root -> v1_{e.target} [label="{e.rank}"];')
    for k in range(2, d.depth + 1):
        for e in d.edges(k):
            lines.append(
                f'  v{k - 1}_{e.source} -> v{k}_{e.target} [label="{e.rank}"];'
            )
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# -- sub commands ------------------------------------------------------------------


def _cmd_sub(args, checks: Checks, payload: dict) -> None:
    from . import substitution

    doc = _load_json(args.file)
    payload["inputs"] = {"digest": _digest(doc)}
    s = parse_substitution(doc)
    if args.sub_command == "analyze":
        report = substitution.is_primitive(s)
        checks.add(
            "primitive",
            report.primitive,
            witness={"exponent": report.witness_exponent, "pair": report.failing_pair},
        )
        if report.primitive:
            result = substitution.periodicity_cached(s)
            checks.add(
                "aperiodic",
                not result.periodic,
                witness=str(result.word) if result.periodic else None,
            )
            freqs = substitution.frequencies(s)
            payload["frequencies"] = _fmt(freqs)
            if not result.periodic:
                radius = substitution.recognizability_radius(s, args.bound)
                checks.add("recognizable", radius is not None, witness=radius, depth=args.bound)
            if args.verify:
                text = substitution.iterate(s, Word((s.alphabet.letters[0],)), 10)
                for letter, value in freqs.items():
                    empirical = text.letters.count(letter) / len(text)
                    checks.add(
                        f"frequency-empirical-{letter}",
                        abs(float(value) - empirical) < 1e-2,
                        witness=empirical,
                        depth=10,
                    )
    elif args.sub_command == "language":
        lang = s.language_at(args.horizon)
        payload["complexity"] = [
            factor_complexity(lang, n) for n in range(1, args.horizon + 1)
        ]
        if args.length:
            payload["words"] = [str(w) for w in lang.words(args.length)]
        checks.add("language-computed", True, depth=args.horizon)
        if args.verify:
            text = substitution.iterate(s, Word((s.alphabet.letters[0],)), 12)
            top = min(args.horizon, 8)
            sample = set(lang.words(top))
            direct = set(text.factors(top))
            checks.add("language-contains-direct-factors", direct <= sample, depth=top)
    elif args.sub_command == "derive":
        derived = substitution.derive(s, args.letter)
        payload["power"] = derived.power
        payload["rules"] = {
            name: str(derived.tau.image(name)) for name in derived.tau.alphabet
        }
        payload["theta"] = {name: str(w) for name, w in sorted(derived.theta.items())}
        checks.add("derived", True, witness=payload["rules"], depth=derived.power)
        if args.verify:
            ok = True
            for name in derived.tau.alphabet:
                lhs = derived.theta_word(derived.tau.image(name))
                rhs = substitution.iterate(s, derived.theta[name], derived.power)
                ok = ok and lhs == rhs
            checks.add("theta-intertwines", ok)
    elif args.sub_command == "self-induce":
        report = substitution.verify_self_induced(s, args.depth, args.samples)
        checks.add(
            "self-induced",
            report.passed,
            witness={"radius": report.radius, "return_times": sorted(set(report.return_times))},
            depth=args.depth,
        )
        if args.verify:
            checks.add(
                "return-times-match-image-lengths",
                report.return_times == report.image_lengths,
                depth=args.depth,
            )
    else:  # pragma: no cover
        raise DocumentError(f"unknown sub command {args.sub_command}")


# -- odo commands -------------------------------------------------------------------


def _cmd_odo(args, checks: Checks, payload: dict) -> None:
    from . import odometer

    q, doc = _odometer_from_args(args)
    payload["inputs"] = {"digest": _digest(doc)}
    if args.odo_command == "self-induced":
        decision = odometer.is_self_induced(q)
        checks.add("self-induced", decision.self_induced, witness=decision.witness_prime)
        if args.verify and isinstance(q, odometer.EventuallyPeriodic):
            # oracle: valuations of explicit partial products grow unboundedly
            witness = decision.witness_prime
            if decision.self_induced:
                p_n = q.partial_product(len(q.prefix) + 3 * len(q.cycle))
                count = 0
                while p_n % witness == 0:
                    p_n //= witness
                    count += 1
                checks.add("witness-divides-products", count >= 3, witness=count)
    elif args.odo_command == "factor":
        other, doc2 = _odometer_from_args(args, suffix="2")
        payload["inputs"]["digest2"] = _digest(doc2)
        checks.add("factor", odometer.is_factor(q, other))
    elif args.odo_command == "conjugate":
        other, doc2 = _odometer_from_args(args, suffix="2")
        payload["inputs"]["digest2"] = _digest(doc2)
        result = odometer.is_conjugate(q, other)
        checks.add("conjugate", result)
        if args.verify:
            both = odometer.is_factor(q, other) and odometer.is_factor(other, q)
            checks.add("mutual-factor-agrees", both == result)
    elif args.odo_command == "canon":
        canon = odometer.canonical_prime_form(q)
        payload["prefix"] = list(canon.prefix)
        payload["cycle"] = list(canon.cycle)
        checks.add("canonical-form", True, witness=payload["cycle"])
        if args.verify:
            checks.add("conjugate-to-input", odometer.is_conjugate(q, canon))
    elif args.odo_command == "induce":
        induced = odometer.induce_via_diagram(q)
        payload["prefix"] = list(induced.prefix)
        payload["cycle"] = list(induced.cycle)
        checks.add("induced", True, witness=payload["cycle"])
        if args.verify:
            checks.add(
                "self-induction-invariant",
                bool(odometer.is_self_induced(q))
                == bool(odometer.is_self_induced(induced)),
            )
        if args.emit_dot:
            _emit_dot(odometer.to_diagram(q, len(q.prefix) + len(q.cycle) + 2), args.emit_dot)
    else:  # pragma: no cover
        raise DocumentError(f"unknown odo command {args.odo_command}")


# -- bv commands --------------------------------------------------------------------


def _cmd_bv(args, checks: Checks, payload: dict) -> None:
    from . import bratteli, matrixutil

    doc = _load_json(args.file)
    payload["inputs"] = {"digest": _digest(doc)}
    d = parse_diagram(doc)
    if args.emit_dot:
        _emit_dot(d, args.emit_dot)
    if args.bv_command == "validate":
        violations = bratteli.validate(d)
        payload["violations"] = violations
        checks.add("valid", not violations, witness=violations or None)
    elif args.bv_command == "simple":
        checks.add("simple", bratteli.is_simple(d, args.window), depth=args.window)
    elif args.bv_command == "proper":
        result = bratteli.proper_order_certificate(d, args.depth)
        payload["status"] = result.status
        witness = None
        if result.status == "not_proper":
            witness = {"side": result.witness[0], "cycle": list(result.witness[1])}
        elif result.certified:
            witness = {
                "max": [e.rank for e in result.max_prefix],
                "min": [e.rank for e in result.min_prefix],
            }
        checks.add("properly-ordered", result.certified, witness=witness, depth=result.depth)
    elif args.bv_command == "vershik":
        prefix = _parse_prefix_tokens(d, args.prefix)
        image = bratteli.vershik_step(d, prefix)
        if image is bratteli.NEEDS_EXTENSION:
            payload["result"] = "NeedsExtension"
            checks.add("vershik-step", False, witness="NeedsExtension")
        else:
            payload["result"] = [[e.target, e.rank] for e in image.edges]
            checks.add("vershik-step", True, witness=payload["result"])
            if args.verify:
                # successor property: strictly larger, nothing in between at
                # the pivot level
                old_key = prefix.order_key()
                new_key = image.order_key()
                checks.add("successor-is-larger", new_key > old_key)
    elif args.bv_command == "contract":
        cuts = args.cuts
        contracted = bratteli.contract(d, cuts)
        payload["diagram"] = contracted.to_document()
        checks.add("contracted", True, depth=len(cuts) - 1)
        if args.verify:
            counts_ok = True
            for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1):
                product_matrix = d.adjacency_matrix(lo + 1)
                for level in range(lo + 2, hi + 1):
                    product_matrix = matrixutil.mat_mul(
                        d.adjacency_matrix(level), product_matrix
                    )
                total = sum(sum(row) for row in product_matrix)
                counts_ok = counts_ok and total == len(contracted.edges(k))
            checks.add("path-counts-preserved", counts_ok)
    elif args.bv_command == "induce":
        paths = _parse_paths(d, args.paths)
        induced = bratteli.induce_on_paths(d, paths)
        payload["diagram"] = induced.to_document()
        checks.add("induced", True, witness={"paths": len(paths)})
    elif args.bv_command == "measure":
        mu = bratteli.stationary_measure(d)
        payload["eigenvalue"] = _fmt(mu.eigenvalue)
        payload["exact"] = mu.exact
        payload["level1"] = {
            str(v): _fmt(mu.vertex_mass(1, v)) for v in d.vertices(1)
        }
        checks.add("measure", True, witness=payload["eigenvalue"])
        if args.verify:
            defects = [
                mu.additivity_defect(bratteli.PathPrefix(d, (e,))) for e in d.edges(1)
            ]
            checks.add("additivity", max(defects) < 1e-10, witness=max(defects))
    elif args.bv_command == "kac":
        mu = bratteli.stationary_measure(d)
        paths = _parse_paths(d, args.paths)
        _, report = bratteli.induced_measure(mu, paths)
        payload["mass"] = _fmt(report.mass)
        payload["by_return_time"] = {
            str(k): _fmt(v) for k, v in report.by_return_time.items()
        }
        payload["expected_return_time"] = _fmt(report.expected_return_time)
        checks.add(
            "kac-identity",
            abs(float(report.kac_sum) - 1.0) < 1e-10,
            witness=_fmt(report.kac_sum),
            depth=report.level_used,
        )
    elif args.bv_command == "embed":
        graph = parse_graph(_load_json(args.graph))
        emb = bratteli.embed_ordered_graph(d, args.level, graph)
        payload["span"] = emb.span
        payload["vertex_map"] = {str(y): v for y, v in sorted(emb.vertex_map.items(), key=lambda kv: str(kv[0]))}
        work = d.extended(emb.end_level()) if d.stationary and d.depth < emb.end_level() else d
        problems = bratteli.verify_graph_embedding(work, args.level, graph, emb)
        checks.add("order-isomorphism", not problems, witness=problems or None, depth=emb.span)
    elif args.bv_command == "poincare":
        source = parse_diagram(_load_json(args.source))
        certificate = bratteli.poincare_embed(d, source, args.depth)
        payload["cuts"] = list(certificate.cuts)
        checks.add("poincare-section", True, witness=payload["cuts"], depth=args.depth)
    else:  # pragma: no cover
        raise DocumentError(f"unknown bv command {args.bv_command}")


# -- gensub commands ------------------------------------------------------------------


def _gensub_from_args(args) -> tuple:
    builtin, path = args.builtin, args.file
    if builtin:
        if builtin == "zero-successor":
            from . import gensub

            g = gensub.zero_successor_substitution(args.resolution)
            return g, {"builtin": "zero-successor", "resolution": args.resolution}
        raise DocumentError(f"unknown builtin {builtin!r}")
    if path:
        doc = _load_json(path)
        return parse_gensub(doc), doc
    raise DocumentError("no generalized substitution given (--file or --builtin)")


def _find_cell(g: gensub.GeneralizedSubstitution, name: str, resolution: int) -> gensub.Cell:
    for cell in g.space.frontier(resolution):
        if cell.name == name:
            return cell
    raise DocumentError(f"no cell named {name!r} at resolution {resolution}")


def _handle_from_args(args):
    if args.system == "2adic":
        from . import odometer

        return odometer.DyadicOdometerHandle(depth=max(args.resolution + 8, 24))
    if args.system == "period-doubling":
        from . import substitution

        return substitution.SubstitutionShiftHandle(
            substitution.period_doubling(), depth=max(16 * args.resolution, 48)
        )
    raise DocumentError(f"unknown system {args.system!r}")


def _cmd_gensub(args, checks: Checks, payload: dict) -> None:
    from . import gensub

    if args.gensub_command in ("from-system", "power-check"):
        payload["inputs"] = {"system": args.system, "resolution": args.resolution}
        handle = _handle_from_args(args)
        if args.gensub_command == "from-system":
            g = gensub.from_self_induced(handle, args.resolution)
            payload["lengths"] = {
                str(c): g.lengths[args.resolution][c]
                for c in g.space.frontier(args.resolution)
            }
            checks.add("continuity", gensub.validate_continuity(g) is None)
        else:
            report = gensub.verify_power_formula(
                handle, args.power, args.samples, resolution=args.resolution
            )
            checks.add(
                "power-formula",
                report.passed,
                witness={"checks": report.checks, "failures": list(report.failures)},
                depth=args.power,
            )
        return

    g, doc = _gensub_from_args(args)
    payload["inputs"] = {"digest": _digest(doc)}
    if args.gensub_command == "validate":
        violation = gensub.validate_continuity(g)
        checks.add("continuity", violation is None, witness=str(violation) if violation else None)
    elif args.gensub_command == "primitive":
        table = gensub.is_primitive_at_resolution(g, args.resolution)
        payload["exponents"] = {str(c): v for c, v in sorted(table.items())}
        checks.add(
            "primitive-at-resolution",
            all(v is not None for v in table.values()),
            witness=payload["exponents"],
            depth=args.resolution,
        )
    elif args.gensub_command == "language":
        base = _find_cell(g, args.base, args.resolution)
        words = gensub.language(g, base, args.length, args.resolution)
        payload["words"] = sorted(" ".join(c.name for c in w) for w in words)
        checks.add("language", bool(words), depth=args.resolution)
    elif args.gensub_command == "fixedpoint":
        left = _find_cell(g, args.left, args.resolution)
        right = _find_cell(g, args.right, args.resolution)
        window = gensub.omega_fixed_point(g, left, right, args.radius)
        payload["window"] = str(window.window)
        payload["iterations"] = window.iterations
        payload["period"] = window.period
        checks.add("omega-fixed-point", True, witness=payload["window"], depth=args.radius)
        if args.verify:
            again = gensub.omega_fixed_point(g, left, right, args.radius)
            checks.add("deterministic", again.window == window.window)
    elif args.gensub_command == "decompose":
        cells = tuple(
            _find_cell(g, name.strip(), args.resolution) for name in args.cells.split(",")
        )
        if args.origin > len(cells):
            raise DocumentError(f"--origin {args.origin} is past the {len(cells)} cells")
        window = gensub.TwoSidedCellWord(cells, args.origin)
        result = gensub.recognizability_decompose(g, window)
        if isinstance(result, gensub.Decomposition):
            payload["cuts"] = list(result.cuts)
            payload["preimage"] = [c.name for c in result.preimage]
            checks.add("unique-decomposition", True, witness=payload["cuts"])
        elif isinstance(result, gensub.NotUnique):
            payload["witnesses"] = [str(result.first), str(result.second)]
            checks.add("unique-decomposition", False, witness="NotUnique")
        else:
            payload["reason"] = result.reason
            checks.add("unique-decomposition", False, witness="Inconclusive")
    else:  # pragma: no cover
        raise DocumentError(f"unknown gensub command {args.gensub_command}")


# -- product commands ------------------------------------------------------------------


def _cmd_product(args, checks: Checks, payload: dict) -> None:
    from . import product

    payload["inputs"] = {"system": "period-doubling x Z3"}
    if args.product_command == "verify":
        report = product.verify_product_selfinduced(args.depth, args.samples)
        kinds = {f.kind for f in report.failures}
        checks.add("commutation", "commutation" not in kinds, depth=args.depth)
        checks.add("doubling", "doubling" not in kinds)
        checks.add("return-time-two", not kinds & {"not-in-target", "return-time"})
        checks.add("all-identities", report.passed, witness=[str(f) for f in report.failures] or None)
    elif args.product_command == "witness":
        if args.kind == "nonexpansive":
            witness = product.nonexpansive_witness(args.epsilon)
            payload["bound"] = _fmt(witness.bound)
            checks.add(
                "nonexpansive-witness",
                True,
                witness=payload["bound"],
                depth=witness.iterates_checked,
            )
            if args.verify:
                a, b = witness.point_a, witness.point_b
                ok = True
                for _ in range(100):
                    a, b = product.product_step(a), product.product_step(b)
                    if (
                        product.word_distance(a, b) != 0
                        or product.triadic_distance(a.odometer, b.odometer)
                        != witness.bound
                    ):
                        ok = False
                        break
                checks.add("orbit-distance-constant", ok, depth=100)
        else:
            outcome = product.nonequicontinuous_witness(args.delta, args.horizon)
            if isinstance(outcome, product.NotFound):
                payload["reason"] = outcome.reason
                checks.add("nonequicontinuous-witness", False, witness=outcome.reason)
            else:
                payload["separation_time"] = outcome.separation_time
                checks.add(
                    "nonequicontinuous-witness",
                    True,
                    witness=outcome.separation_time,
                    depth=args.horizon,
                )
                if args.verify:
                    a, b = outcome.point_a, outcome.point_b
                    for _ in range(outcome.separation_time):
                        a, b = product.product_step(a), product.product_step(b)
                    checks.add(
                        "separation-reaches-origin",
                        a.text[a.origin] != b.text[b.origin],
                        depth=outcome.separation_time,
                    )
    else:  # pragma: no cover
        raise DocumentError(f"unknown product command {args.product_command}")


# -- parser ---------------------------------------------------------------------------


def _int_at_least(lower: int):
    """argparse type: an integer >= lower, so a bad value is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be >= {lower}, got {value}")
        return value

    return parse


def _int_list(lower: int):
    """argparse type: comma-separated integers, each >= lower."""
    item = _int_at_least(lower)
    return lambda text: [item(x) for x in text.split(",")]


def _path_tokens(text: str) -> list:
    """argparse type: a path prefix as comma-separated 'rank' (one-vertex
    levels) or 'target:rank' tokens, read as (target or None, rank) pairs."""
    index = _int_at_least(0)
    tokens = []
    for token in text.split(","):
        target, colon, rank = token.partition(":")
        tokens.append((index(target), index(rank)) if colon else (None, index(token)))
    return tokens


def _path_list(text: str) -> list:
    """argparse type: semicolon-separated path prefixes."""
    return [_path_tokens(item) for item in text.split(";")]


def _positive_fraction(text: str) -> Fraction:
    """argparse type: a positive fraction such as 1/81."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorsys",
        description="Exact finite-depth toolkit for self-induced minimal Cantor systems",
    )
    top = parser.add_subparsers(dest="command", required=True)

    sub = top.add_parser("sub", help="substitution subshifts")
    sub_sub = sub.add_subparsers(dest="sub_command", required=True)
    for name in ("analyze", "language", "derive", "self-induce"):
        p = sub_sub.add_parser(name)
        p.add_argument("--file", required=True)
        p.add_argument("--verify", action="store_true")
        if name == "analyze":
            p.add_argument("--bound", type=_int_at_least(0), default=DEFAULT_BOUND)
        if name == "language":
            p.add_argument("--horizon", type=_int_at_least(1), default=DEFAULT_HORIZON)
            p.add_argument("--length", type=_int_at_least(0), default=0)
        if name == "derive":
            p.add_argument("--letter", required=True)
        if name == "self-induce":
            p.add_argument("--depth", type=_int_at_least(0), default=DEFAULT_DEPTH)
            p.add_argument("--samples", type=_int_at_least(1), default=20)

    odo = top.add_parser("odo", help="odometers")
    odo_sub = odo.add_subparsers(dest="odo_command", required=True)
    for name in ("self-induced", "factor", "conjugate", "canon", "induce"):
        p = odo_sub.add_parser(name)
        p.add_argument("--file")
        p.add_argument("--prefix", type=_int_list(2))
        p.add_argument("--cycle", type=_int_list(2))
        p.add_argument("--valuations")
        p.add_argument("--infinite-support", dest="infinite_support", action="store_true")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--emit-dot", dest="emit_dot")
        if name in ("factor", "conjugate"):
            p.add_argument("--file2")
            p.add_argument("--prefix2", type=_int_list(2))
            p.add_argument("--cycle2", type=_int_list(2))
            p.add_argument("--valuations2")
            p.add_argument(
                "--infinite-support2", dest="infinite_support2", action="store_true"
            )

    bv = top.add_parser("bv", help="ordered Bratteli-Vershik diagrams")
    bv_sub = bv.add_subparsers(dest="bv_command", required=True)
    for name in (
        "validate",
        "simple",
        "proper",
        "vershik",
        "contract",
        "induce",
        "measure",
        "kac",
        "embed",
        "poincare",
    ):
        p = bv_sub.add_parser(name)
        p.add_argument("--file", required=True)
        p.add_argument("--verify", action="store_true")
        p.add_argument("--emit-dot", dest="emit_dot")
        if name == "simple":
            p.add_argument("--window", type=_int_at_least(1), default=1)
        if name == "proper":
            p.add_argument("--depth", type=_int_at_least(0), default=DEFAULT_DEPTH)
        if name == "vershik":
            p.add_argument("--prefix", type=_path_tokens, required=True)
        if name == "contract":
            p.add_argument("--cuts", type=_int_list(0), required=True)
        if name in ("induce", "kac"):
            p.add_argument("--paths", type=_path_list, required=True)
        if name == "embed":
            p.add_argument("--graph", required=True)
            p.add_argument("--level", type=_int_at_least(0), default=1)
        if name == "poincare":
            p.add_argument("--source", required=True)
            p.add_argument("--depth", type=_int_at_least(0), default=3)

    gsub = top.add_parser("gensub", help="generalized substitutions")
    gsub_sub = gsub.add_subparsers(dest="gensub_command", required=True)
    for name in (
        "validate",
        "primitive",
        "language",
        "fixedpoint",
        "decompose",
        "from-system",
        "power-check",
    ):
        p = gsub_sub.add_parser(name)
        p.add_argument("--resolution", type=_int_at_least(1), default=8)
        if name in ("from-system", "power-check"):
            p.add_argument("--system", required=True)
        else:
            p.add_argument("--file")
            p.add_argument("--builtin")
        if name == "language":
            p.add_argument("--base", required=True)
            p.add_argument("--length", type=_int_at_least(1), default=2)
        if name == "fixedpoint":
            p.add_argument("--left", required=True)
            p.add_argument("--right", required=True)
            p.add_argument("--radius", type=_int_at_least(1), default=8)
            p.add_argument("--verify", action="store_true")
        if name == "decompose":
            p.add_argument("--cells", required=True)
            p.add_argument("--origin", type=_int_at_least(0), required=True)
        if name == "power-check":
            p.add_argument("--power", type=_int_at_least(1), default=3)
            p.add_argument("--samples", type=_int_at_least(1), default=8)

    prod = top.add_parser("product", help="the subshift x odometer example")
    prod_sub = prod.add_subparsers(dest="product_command", required=True)
    p = prod_sub.add_parser("verify")
    p.add_argument("--depth", type=_int_at_least(0), default=DEFAULT_DEPTH)
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--verify", action="store_true")
    p = prod_sub.add_parser("witness")
    p.add_argument("--kind", choices=("nonexpansive", "nonequicontinuous"), required=True)
    p.add_argument("--epsilon", type=_positive_fraction, default="1/81")
    p.add_argument("--delta", type=_positive_fraction, default="1/32")
    p.add_argument("--horizon", type=_int_at_least(1), default=16)
    p.add_argument("--verify", action="store_true")

    return parser


HANDLERS = {
    "sub": _cmd_sub,
    "odo": _cmd_odo,
    "bv": _cmd_bv,
    "gensub": _cmd_gensub,
    "product": _cmd_product,
}


def run(argv) -> tuple[dict, int]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return {"error": "usage"}, 2 if exc.code else 0
    checks = Checks()
    payload: dict = {"command": list(argv)}
    try:
        HANDLERS[args.command](args, checks, payload)
    except DocumentError as exc:
        payload["error"] = str(exc)
        payload["exit"] = 2
        return payload, 2
    except CantorSysError as exc:
        checks.add("precondition", False, witness=str(exc))
        payload["checks"] = checks.entries
        payload["exit"] = 1
        return payload, 1
    except Exception as exc:  # internal errors: report on stdout, trace on stderr
        import traceback

        traceback.print_exc(file=sys.stderr)
        payload["error"] = f"internal: {type(exc).__name__}: {exc}"
        payload["exit"] = 3
        return payload, 3
    payload["checks"] = checks.entries
    exit_code = 0 if checks.all_pass else 1
    payload["exit"] = exit_code
    return payload, exit_code


def main(argv=None) -> int:
    payload, code = run(sys.argv[1:] if argv is None else argv)
    print(json.dumps(payload, indent=2, ensure_ascii=True))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
