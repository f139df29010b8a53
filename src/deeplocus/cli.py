"""Command-line interface: subcommands for each algebra family plus
scenario runners that re-check the headline classifications end to end.

Field selectors: "q" (rationals), "qi" (Gaussian rationals), "fp:P"
(prime field).  All reports are deterministic given --seed, and --json
emits a stable, sorted document with a schema marker.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import DeepLocusError
from .field import FieldContext, QI, QQ, UnparsableValue, prime_field
from . import markov, polygon, rank2, surface


class CliError(DeepLocusError):
    pass


class ParseError(CliError):
    pass


class UnknownScenario(CliError):
    pass


def parse_field(selector: str) -> FieldContext:
    s = selector.strip().lower()
    if s == "q":
        return QQ
    if s == "qi":
        return QI
    if s.startswith("fp:"):
        try:
            return prime_field(int(s[3:]))
        except ValueError as exc:
            raise ParseError(f"bad prime field selector {selector!r}: {exc}")
    raise ParseError(f"unknown field selector {selector!r} (use q, qi, fp:<p>)")


@dataclass
class Report:
    scenario: str
    inputs: Dict[str, object] = field(default_factory=dict)
    assertions: List[Tuple[str, bool, str]] = field(default_factory=list)

    def check(self, description: str, ok: bool, witness: str = "") -> bool:
        self.assertions.append((description, bool(ok), witness))
        return bool(ok)

    @property
    def passed(self) -> int:
        return sum(1 for _, ok, _ in self.assertions if ok)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.assertions if not ok)

    @property
    def exit_code(self) -> int:
        return 0 if self.failed == 0 else 1

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "scenario": self.scenario,
            "inputs": self.inputs,
            "assertions": [
                {"description": d, "pass": ok, "witness": w}
                for d, ok, w in self.assertions
            ],
            "summary": {"passed": self.passed, "failed": self.failed},
        }

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.to_json(), sort_keys=True, indent=2)
        lines = [f"scenario: {self.scenario}"]
        for d, ok, w in self.assertions:
            status = "PASS" if ok else "FAIL"
            suffix = f" -- {w}" if w else ""
            lines.append(f"[{status}] {d}{suffix}")
        lines.append(f"summary: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines)


def ingest_surface(path: str) -> surface.SurfaceTriangulation:
    """Read {"polygon_sides": n, "gluings": [[a, b], ...]} and build."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read surface file {path}: {exc}")
    if not isinstance(data, dict) or "polygon_sides" not in data:
        raise ParseError(f"{path}: expected keys polygon_sides, gluings")
    try:
        sides = int(data["polygon_sides"])
        gluings = [tuple(pair) for pair in data.get("gluings", [])]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed polygon_sides or gluings: {exc}") from None
    if not all(isinstance(v, int) for pair in gluings for v in pair):
        raise ParseError(f"{path}: gluings must be pairs of integer side ids")
    return surface.build_from_gluing(sides, gluings)


def ingest_deep_fixture(
    path: str, t: surface.SurfaceTriangulation
) -> surface.SurfaceDeepPoint:
    """Read {"dissection": [...], "values": {"arc": "str"}, "field": "..."}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read fixture {path}: {exc}")
    if not (
        isinstance(data, dict)
        and isinstance(data.get("dissection"), list)
        and isinstance(data.get("values"), dict)
    ):
        raise ParseError(f"{path}: expected a list dissection and an object values")
    ctx = parse_field(str(data.get("field", "q")))
    try:
        arcs = frozenset(int(a) for a in data["dissection"])
        values = {int(a): ctx.parse(str(s)) for a, s in data["values"].items()}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    d = surface.Dissection(t, arcs)
    missing = sorted({*t.boundary_arcs(), *d.arcs} - set(values))
    if missing:
        raise ParseError(f"{path}: no value for arcs {missing}")
    bvals = {a: values[a] for a in t.boundary_arcs()}
    dvals = {a: values[a] for a in d.arcs}
    return surface.deep_point_from_dissection(d, bvals, dvals)


def _load_surface(args) -> surface.SurfaceTriangulation:
    if getattr(args, "surface", None):
        return ingest_surface(args.surface)
    return surface.named_surface(getattr(args, "name", None) or "annulus22")


# ---------------------------------------------------------------------------
# scenarios


def scenario_polygon_a3(args) -> Report:
    rep = Report("polygon-a3", {"field": "q"})
    point = polygon.unique_deep_point_typeA(3, QQ)
    rep.check(
        "all 15 Ptolemy residuals vanish",
        all(r.is_zero for _, r in polygon.ptolemy_residuals(point)),
    )
    long_diags = [(1, 4), (2, 5), (3, 6)]
    rep.check(
        "long diagonals carry -1",
        all(point.value(*d) == QQ.minus_one() for d in long_diags),
        ", ".join(str(point.value(*d)) for d in long_diags),
    )
    short_diags = [(1, 3), (2, 4), (3, 5), (4, 6), (1, 5), (2, 6)]
    rep.check(
        "even-gap diagonals vanish",
        all(point.value(*d).is_zero for d in short_diags),
    )
    rep.check(
        "certified deep over all 14 triangulations",
        polygon.is_deep_bruteforce(point),
    )
    return rep


def scenario_polygon_uniqueness(args) -> Report:
    rep = Report("polygon-uniqueness", {"ranks": "1..9"})
    f2 = prime_field(2)
    for rank in range(1, 10):
        for ctx, label in ((QQ, "Q"), (f2, "F2")):
            expected = rank % 4 == 3 or (rank % 4 == 1 and ctx.characteristic == 2)
            try:
                point = polygon.unique_deep_point_typeA(rank, ctx)
                exists = True
            except polygon.NoDeepPoint:
                exists = False
            rep.check(
                f"rank {rank} over {label}: deep point {'exists' if expected else 'does not exist'}",
                exists == expected,
            )
            if exists and expected:
                rep.check(
                    f"rank {rank} over {label}: residuals vanish and brute-force certifies",
                    all(r.is_zero for _, r in polygon.ptolemy_residuals(point))
                    and polygon.is_deep_bruteforce(point),
                )
    return rep


def scenario_polygon_scan(args) -> Report:
    rep = Report("polygon-scan", {"field": "fp:3"})
    f3 = prime_field(3)
    res5 = polygon.bruteforce_variety_scan(5, f3, polygon.MODE_TYPE_A)
    rep.check(
        "pentagon over F3: no deep points among all variety points",
        sum(deep for _, deep in res5) == 0,
        f"{len(res5)} variety points scanned",
    )
    res6 = polygon.bruteforce_variety_scan(6, f3, polygon.MODE_TYPE_A)
    deep6 = [p for p, deep in res6 if deep]
    rep.check("hexagon over F3: exactly one deep point", len(deep6) == 1)
    rep.check(
        "the scan's deep point equals the formula point",
        deep6 == [polygon.unique_deep_point_typeA(3, f3)],
    )
    return rep


def scenario_polygon_hexagon(args) -> Report:
    seed = args.seed
    rep = Report("polygon-hexagon", {"seed": seed, "trials": 100})
    rng = random.Random(seed)
    cyc = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    ok_all, cond_all = True, True
    for _ in range(100):
        vals = [QQ.rational(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5)]
        closing = vals[0] * vals[2] * vals[4] / (vals[1] * vals[3])
        edges = dict(zip(cyc, vals))
        edges[(1, 6)] = closing
        point = polygon.deep_point_from_edges(6, edges)
        ok_all &= polygon.is_deep_bruteforce(point)
        bad = dict(edges)
        bad[(2, 3)] = bad[(2, 3)] + QQ.one()
        try:
            polygon.deep_point_from_edges(6, bad)
            cond_all = False
        except polygon.ConditionViolated:
            pass
    rep.check("100 seeded solved-edge hexagons all certify deep", ok_all)
    rep.check("perturbing one edge always violates the product condition", cond_all)
    figure = {
        (1, 6): QQ.one(),
        (1, 2): QQ.from_int(2),
        (2, 3): QQ.from_int(2),
        (3, 4): QQ.one(),
        (4, 5): QQ.from_int(2),
        (5, 6): QQ.from_int(2),
    }
    point = polygon.deep_point_from_edges(6, figure)
    rep.check(
        "figure values (1,2,2,1,2,2) give the long diagonal -4",
        point.value(2, 5) == QQ.from_int(-4),
        str(point.value(2, 5)),
    )
    return rep


def scenario_badcut(args) -> Report:
    rep = Report("badcut", {"a": "3"})
    a = QQ.from_int(3)
    fan = polygon.PolygonTriangulation(6, frozenset({(2, 4), (1, 4), (4, 6)}))
    point = polygon.extend_from_triangulation(
        6,
        fan,
        {(2, 4): a, (1, 4): QQ.minus_one(), (4, 6): -a},
        {e: QQ.one() for e in polygon.polygon_edges(6)},
    )
    rep.check("hexagon point is not deep", not polygon.is_deep_bruteforce(point))
    left, right = polygon.cut_along_diagonal(point, (2, 5))
    rep.check("left quadrilateral stays non-deep", not polygon.is_deep_bruteforce(left))
    rep.check(
        "right quadrilateral becomes deep (both diagonals vanish)",
        polygon.is_deep_bruteforce(right)
        and right.value(1, 3).is_zero
        and right.value(2, 4).is_zero,
    )
    rep.check(
        "gluing the halves reproduces the point",
        polygon.glue_cut_halves(left, right, 6, (2, 5)) == point,
    )
    return rep


def scenario_cut_glue(args) -> Report:
    seed = args.seed
    rep = Report("cut-glue", {"seed": seed, "trials": 100})
    rng = random.Random(seed)
    tris = polygon.enumerate_triangulations(6)
    ok = True
    for _ in range(100):
        tri = rng.choice(tris)
        point = polygon.extend_from_triangulation(
            6,
            tri,
            {d: QQ.rational(rng.randint(1, 9), rng.randint(1, 5)) for d in tri.diagonals},
            {e: QQ.rational(rng.randint(1, 9), rng.randint(1, 5)) for e in polygon.polygon_edges(6)},
        )
        d = rng.choice(sorted(tri.diagonals))
        left, right = polygon.cut_along_diagonal(point, d)
        ok &= polygon.glue_cut_halves(left, right, 6, d) == point
    rep.check("cut then glue is the identity on 100 seeded valid points", ok)
    return rep


def scenario_rank2_counts(args) -> Report:
    rep = Report("rank2-counts", {"depth": 10})
    f5, f2 = prime_field(5), prime_field(2)
    cases = [
        ("(1,1) over Q", rank2.Rank2Spec(1, 1), QQ, 0),
        ("(2,1) over Q", rank2.Rank2Spec(2, 1), QQ, 1),
        ("(2,2) over F5", rank2.Rank2Spec(2, 2), f5, 4),
        ("(2,2) over Q(i)", rank2.Rank2Spec(2, 2), QI, 4),
        ("2-Kronecker over Q", rank2.Rank2Spec(2, 2), QQ, 0),
        ("2-Kronecker over F2", rank2.Rank2Spec(2, 2), f2, 2),
    ]
    for label, spec, ctx, want in cases:
        points = rank2.deep_points(spec, ctx)
        rep.check(f"{label}: {want} deep points", len(points) == want, str(len(points)))
        rep.check(
            f"{label}: all points verify at depth 10",
            all(rank2.verify_deep(p, N=10) for p, _ in points),
        )
    return rep


def scenario_rank2_closed_form(args) -> Report:
    seed = args.seed
    rep = Report("rank2-closed-form", {"seed": seed, "trials": 100})
    rng = random.Random(seed)
    f7 = prime_field(7)
    checked = 0
    agreements = True
    for bc in [(2, 2), (3, 1), (1, 3), (2, 3)]:
        for f in (0, 1):
            b, c = bc
            spec = (
                rank2.Rank2Spec(b, c)
                if f == 0
                else rank2.Rank2Spec(b, c, 1, (rng.choice([-2, -1, 1, 2]),), (rng.choice([-1, 0, 1]),))
            )
            trials = 0
            while trials < 100:
                point = rank2.random_torus_point(spec, f7, rng)
                if point is None:
                    break
                trials += 1
                ev = rank2.extend_evaluation(point, 5)
                evw = rank2.e_vectors(spec, -6, 9)
                for j in list(range(4, 9)) + list(range(-5, 0)):
                    s = -1 if j > 0 else 1
                    div = rank2.division_step(spec, evw, point.ys, ev.values, j, s)
                    if div is None:
                        continue
                    closed = rank2.closed_form_step(spec, evw, point.ys, ev.values, j, s)
                    agreements &= div == closed == ev.values[j]
                    checked += 1
    rep.check(
        "division form and closed form agree wherever both are defined",
        agreements,
        f"{checked} comparisons",
    )
    rep.check("comparison count is meaningful", checked > 500, str(checked))
    return rep


def scenario_markov_enumerate(args) -> Report:
    seed = args.seed
    rep = Report("markov-enumerate", {"seed": seed, "depth": 6})
    f5, f3 = prime_field(5), prime_field(3)
    deep5 = markov.enumerate_deep_upper(f5)
    rep.check("F5 scan finds 29 deep points", len(deep5) == 29, str(len(deep5)))
    tags = [markov.classify_deep_upper(p).tag for p in deep5]
    rep.check(
        "F5 family split is 5 A / 8 X / 8 Y / 8 Z",
        (tags.count("A"), tags.count("X"), tags.count("Y"), tags.count("Z"))
        == (5, 8, 8, 8),
    )
    deep3 = markov.enumerate_deep_upper(f3)
    rep.check("F3 scan finds 3 deep points, all type A", len(deep3) == 3)
    rep.check(
        "explore_and_verify passes for every F5 deep point at depth 6",
        all(markov.explore_and_verify(p, depth=6).passed for p in deep5),
    )
    rng = random.Random(seed)
    ok = True
    for _ in range(50):
        x = f5.from_int(rng.randrange(1, 5))
        y = f5.from_int(rng.randrange(1, 5))
        z = f5.from_int(rng.randrange(1, 5))
        point = markov.MarkovUpperPoint(x, y, z, markov.markov_element(x, y, z))
        ok &= markov.explore_and_verify(point, depth=5).passed
    rep.check("Markov element is mutation-invariant at 50 seeded torus points", ok)
    return rep


def scenario_markov_collapse(args) -> Report:
    rep = Report("markov-collapse", {"field": "fp:5"})
    f5 = prime_field(5)
    deep5 = markov.enumerate_deep_upper(f5)
    reps_a = {
        markov.restrict_to_cluster_algebra(p)
        for p in deep5
        if markov.classify_deep_upper(p).tag == "A"
    }
    rep.check("all 5 type-A points collapse to one representative", len(reps_a) == 1)
    others = [p for p in deep5 if markov.classify_deep_upper(p).tag != "A"]
    reps_xyz = {markov.restrict_to_cluster_algebra(p) for p in others}
    rep.check(
        "restriction is injective on the 24 X/Y/Z points",
        len(reps_xyz) == len(others),
        f"{len(reps_xyz)} representatives",
    )
    return rep


def scenario_surface_components(args) -> Report:
    rep = Report("surface-components", {})
    if getattr(args, "surface", None):
        t = ingest_surface(args.surface)
        rep.inputs["surface"] = args.surface
        g, b, m, arcs = t.invariants()
        classes = surface.solve_classes(t)
        expected = 2 ** (2 * g + b - 1) if m % 2 == 0 else 0
        rep.check(
            f"component count matches 2^(2g+b-1) (g={g}, b={b}, m={m})",
            len(classes) == expected,
            str(len(classes)),
        )
        if m % 2 == 0:
            d = surface.dissection_spanning_tree(t)
            rep.check(
                "dissection size is 2g+b-1",
                len(d.arcs) == 2 * g + b - 1,
            )
            rep.check(
                "cut polygon has 4g+2b+m-2 sides",
                surface.cut_polygon(d).size == 4 * g + 2 * b + m - 2,
            )
        return rep
    expectations = [
        ("annulus22", 2),
        ("annulus21", 0),
        ("genus1", 4),
        ("annulus11", 2),
    ]
    for name, count in expectations:
        t = surface.named_surface(name)
        classes = surface.solve_classes(t)
        rep.check(f"{name}: {count} deep components", len(classes) == count, str(len(classes)))
        g, b, m, arcs = t.invariants()
        d = surface.dissection_spanning_tree(t)
        rep.check(
            f"{name}: dissection size 2g+b-1 and cut polygon 4g+2b+m-2",
            len(d.arcs) == 2 * g + b - 1
            and surface.cut_polygon(d).size == 4 * g + 2 * b + m - 2,
        )
    return rep


def scenario_surface_deep_walk(args) -> Report:
    seed = args.seed
    steps = getattr(args, "steps", None) or 500
    rep = Report("surface-deep-walk", {"seed": seed, "steps": steps})
    t = surface.named_surface("annulus22")
    d = surface.Dissection(t, frozenset([0]))
    bvals = {a: QQ.one() for a in t.boundary_arcs()}
    point = surface.deep_point_from_dissection(d, bvals, {0: QQ.from_int(5)})
    walk = surface.verify_deep_random_walk(point, steps, seed)
    rep.check(
        f"certified walk of {steps} seeded flips has no assertion failures",
        walk.passed,
        "; ".join(walk.failures[:2]),
    )
    other = next(
        a
        for a in t.interior_arcs()
        if a != 0
        and _is_dissection(t, a)
        and not surface.congruent(d, surface.Dissection(t, frozenset([a])))
    )
    d2 = surface.Dissection(t, frozenset([other]))
    rep.check("a non-congruent dissection exists", not surface.congruent(d, d2))
    rep.check(
        "the two dissections' deep points carry distinct classes",
        surface.class_of_dissection(d).labels != surface.class_of_dissection(d2).labels,
    )
    return rep


def _is_dissection(t, aid) -> bool:
    try:
        surface.Dissection(t, frozenset([aid]))
        return True
    except surface.NotADissection:
        return False


def scenario_appendix_bijections(args) -> Report:
    rep = Report("appendix-bijections", {})
    t = surface.named_surface("genus1")
    d = surface.dissection_spanning_tree(t)
    mapping = surface.subset_bijection(d)
    rep.check("genus-1 subset bijection yields 4 distinct classes", len(mapping) == 4)
    rep.check(
        "its image exhausts solve_classes",
        {c.labels for c in mapping.values()}
        == {c.labels for c in surface.solve_classes(t)},
    )
    ok = True
    for name in ["disk6", "annulus22", "annulus11", "genus1"]:
        ts = surface.named_surface(name)
        ds = surface.dissection_spanning_tree(ts)
        cover = surface.alternating_double_cover(ds)
        ok &= cover.indicator_labels() == surface.class_of_dissection(ds).labels
    rep.check("double-cover indicator equals the dissection class on all test surfaces", ok)
    twist = surface.dehn_twist_scenario_11_annulus()
    rep.check(
        "the Dehn twist of the (1,1)-annulus swaps the two deep components",
        twist.swaps and twist.passed,
        f"flip sequence {twist.flip_sequence}",
    )
    rep.check("the twist squared acts trivially", twist.square_is_identity)
    return rep


SCENARIOS: Dict[str, Callable] = {
    "polygon-a3": scenario_polygon_a3,
    "polygon-uniqueness": scenario_polygon_uniqueness,
    "polygon-scan": scenario_polygon_scan,
    "polygon-hexagon": scenario_polygon_hexagon,
    "badcut": scenario_badcut,
    "cut-glue": scenario_cut_glue,
    "rank2-counts": scenario_rank2_counts,
    "rank2-closed-form": scenario_rank2_closed_form,
    "markov-enumerate": scenario_markov_enumerate,
    "markov-collapse": scenario_markov_collapse,
    "surface-components": scenario_surface_components,
    "surface-deep-walk": scenario_surface_deep_walk,
    "appendix-bijections": scenario_appendix_bijections,
}


def run_scenario(name: str, args) -> Report:
    if name not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {name!r}; see `scenario list`")
    return SCENARIOS[name](args)


# ---------------------------------------------------------------------------
# subcommands


def cmd_polygon(args) -> int:
    ctx = parse_field(args.field)
    if args.polygon_cmd == "deep-typea":
        try:
            point = polygon.unique_deep_point_typeA(args.rank, ctx)
        except polygon.NoDeepPoint as exc:
            print(json.dumps({"schema": 1, "deep_point": None, "reason": str(exc)}, sort_keys=True))
            return 0
        doc = {"schema": 1, "deep_point": point.to_json(), "certified_deep": None}
        if args.rank + 3 <= polygon.MAX_ENUMERATION_N:
            doc["certified_deep"] = polygon.is_deep_bruteforce(point)
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.polygon_cmd == "from-edges":
        vals = [ctx.parse(v) for v in args.edges.split(",")]
        n = len(vals)
        edges = dict(zip(polygon.polygon_edges(n), vals))
        point = polygon.deep_point_from_edges(n, edges)
        doc = {"schema": 1, "deep_point": point.to_json()}
        if n <= polygon.MAX_ENUMERATION_N:
            doc["certified_deep"] = polygon.is_deep_bruteforce(point)
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.polygon_cmd == "scan":
        results = polygon.bruteforce_variety_scan(args.n, ctx, args.mode)
        deep = [p for p, is_deep in results if is_deep]
        doc = {
            "schema": 1,
            "n": args.n,
            "mode": args.mode,
            "variety_points": len(results),
            "deep_points": [p.to_json() for p in deep],
        }
        print(json.dumps(doc, sort_keys=True))
        return 0
    raise ParseError(f"unknown polygon subcommand {args.polygon_cmd!r}")


def _int_list(text: str, flag: str) -> Tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ParseError(f"{flag} needs a comma list of integers, got {text!r}") from None


def cmd_rank2(args) -> int:
    ctx = parse_field(args.field)
    e1 = _int_list(args.e1, "--e1")
    e2 = _int_list(args.e2, "--e2")
    spec = rank2.Rank2Spec(args.b, args.c, len(e1), e1, e2)
    points = rank2.deep_points(spec, ctx)
    depth = args.depth
    entries = []
    for point, parity in points:
        ev = rank2.extend_evaluation(point, depth)
        entries.append(
            {
                "x": [str(v) for v in point.xs],
                "y": [str(v) for v in point.ys],
                "kills": parity,
                "verified": rank2.verify_deep(point, N=depth),
                "window": {str(i): str(ev.values[i]) for i in range(-depth, depth + 4)},
            }
        )
    doc = {
        "schema": 1,
        "spec": {"b": spec.b, "c": spec.c, "f": spec.f, "e1": list(e1), "e2": list(e2)},
        "field": args.field,
        "deep_points": entries,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0 if all(e["verified"] for e in entries) else 1


def cmd_markov(args) -> int:
    ctx = parse_field(args.field)
    if args.markov_cmd == "classify":
        x, y, z, M = (ctx.parse(v) for v in args.point.split(","))
        p = markov.MarkovUpperPoint(x, y, z, M)
        t = markov.classify_deep_upper(p)
        doc = {"schema": 1, "point": [str(v) for v in (x, y, z, M)], "deep": t is not None}
        if t is not None:
            doc["type"] = t.tag
            doc["parameters"] = {
                k: str(v)
                for k, v in (("alpha", t.alpha), ("beta", t.beta), ("gamma", t.gamma))
                if v is not None
            }
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.markov_cmd == "enumerate":
        deep = markov.enumerate_deep_upper(ctx)
        doc = {
            "schema": 1,
            "field": args.field,
            "count": len(deep),
            "deep_points": [
                {
                    "point": [str(v) for v in (p.x, p.y, p.z, p.M)],
                    "type": markov.classify_deep_upper(p).tag,
                }
                for p in deep
            ],
        }
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.markov_cmd == "verify":
        x, y, z, M = (ctx.parse(v) for v in args.point.split(","))
        p = markov.MarkovUpperPoint(x, y, z, M)
        report = markov.explore_and_verify(p, depth=args.depth)
        doc = {
            "schema": 1,
            "point": [str(v) for v in (x, y, z, M)],
            "depth": args.depth,
            "nodes_visited": report.nodes_visited,
            "passed": report.passed,
            "failures": report.failures,
        }
        if args.trace:
            doc["markov_element"] = {
                "".join(path): str(v)
                for path, v in sorted(report.markov_element_values.items())
            }
        print(json.dumps(doc, sort_keys=True))
        return 0 if report.passed else 1
    raise ParseError(f"unknown markov subcommand {args.markov_cmd!r}")


def cmd_surface(args) -> int:
    if args.surface_cmd == "invariants":
        t = _load_surface(args)
        g, b, m, arcs = t.invariants()
        doc = {
            "schema": 1,
            "genus": g,
            "boundary_components": b,
            "marked_points": m,
            "arcs": arcs,
            "interior_arcs": t.interior_arcs(),
            "boundary_arcs": t.boundary_arcs(),
        }
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.surface_cmd == "components":
        rep = scenario_surface_components(args)
        print(rep.render(args.json))
        return rep.exit_code
    if args.surface_cmd == "deep":
        t = _load_surface(args)
        point = ingest_deep_fixture(args.fixture, t)
        walk = surface.verify_deep_random_walk(point, args.steps, args.seed)
        doc = {
            "schema": 1,
            "steps": args.steps,
            "seed": args.seed,
            "passed": walk.passed,
            "failures": walk.failures,
            "undetermined_values": walk.undetermined_values,
            "values": {str(a): (str(v) if v is not None else None) for a, v in sorted(point.values.items())},
        }
        print(json.dumps(doc, sort_keys=True))
        return 0 if walk.passed else 1
    raise ParseError(f"unknown surface subcommand {args.surface_cmd!r}")


def cmd_scenario(args) -> int:
    if args.name == "list":
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    rep = run_scenario(args.name, args)
    print(rep.render(args.json))
    return rep.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deeplocus",
        description="construct and certify deep points of cluster varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="q", help="q | qi | fp:<p>")
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("--depth", type=int, default=6, help="tree/window depth")

    p_poly = sub.add_parser("polygon", help="type-A and boundary-coefficient polygons")
    poly_sub = p_poly.add_subparsers(dest="polygon_cmd", required=True)
    p = poly_sub.add_parser("deep-typea")
    p.add_argument("--rank", type=int, required=True)
    p = poly_sub.add_parser("from-edges")
    p.add_argument("--edges", required=True, help="comma list for (1,2),(2,3),...,(1,n)")
    p = poly_sub.add_parser("scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default=polygon.MODE_TYPE_A,
                   choices=[polygon.MODE_TYPE_A, polygon.MODE_BOUNDARY])
    for sp in poly_sub.choices.values():
        common(sp)

    p_rank2 = sub.add_parser("rank2", help="rank-2 deep points and windows")
    common(p_rank2)
    p_rank2.add_argument("--b", type=int, required=True)
    p_rank2.add_argument("--c", type=int, required=True)
    p_rank2.add_argument("--e1", default="", help="comma list of integers")
    p_rank2.add_argument("--e2", default="", help="comma list of integers")

    p_markov = sub.add_parser("markov", help="Markov upper cluster variety")
    markov_sub = p_markov.add_subparsers(dest="markov_cmd", required=True)
    p = markov_sub.add_parser("classify")
    p.add_argument("--point", required=True, help="x,y,z,M")
    p = markov_sub.add_parser("enumerate")
    p = markov_sub.add_parser("verify")
    p.add_argument("--point", required=True, help="x,y,z,M")
    p.add_argument("--trace", action="store_true")
    for sp in markov_sub.choices.values():
        common(sp)

    p_surface = sub.add_parser("surface", help="marked surface triangulations")
    surface_sub = p_surface.add_subparsers(dest="surface_cmd", required=True)
    for cmd in ("invariants", "components", "deep"):
        p = surface_sub.add_parser(cmd)
        p.add_argument("--surface", help="surface description JSON file")
        p.add_argument("--name", help="built-in surface name")
        if cmd == "deep":
            p.add_argument("--fixture", required=True, help="deep point fixture JSON")
            p.add_argument("--steps", type=int, default=200)
        common(p)

    p_scn = sub.add_parser("scenario", help="reproduce a classification end to end")
    common(p_scn)
    p_scn.add_argument("name", help="scenario name, or `list`")
    p_scn.add_argument("--steps", type=int, default=None)
    p_scn.add_argument("--surface", help="surface description JSON (surface scenarios)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "polygon": cmd_polygon,
        "rank2": cmd_rank2,
        "markov": cmd_markov,
        "surface": cmd_surface,
        "scenario": cmd_scenario,
    }
    try:
        return handlers[args.command](args)
    except (UnknownScenario, ParseError, UnparsableValue, polygon.InvalidSearchCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeepLocusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
