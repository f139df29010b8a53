"""Scenario runners: each re-checks one headline classification end to end
and returns a Report of (description, pass, witness) assertions.

The CLI's `scenario` subcommand and the acceptance suite run the same
runners, so each headline check is written once.  A report is
deterministic given its seed, and its JSON form is stable and sorted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import DeepLocusError
from .field import QI, QQ, prime_field
from . import markov, polygon, rank2, surface


class UnknownScenario(DeepLocusError):
    pass


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


# Each runner takes the keywords run_scenario passes and names only the
# ones it uses.


def scenario_polygon_a3(**_) -> Report:
    rep = Report("polygon-a3", {"field": "q"})
    point = polygon.unique_deep_point_typeA(3, QQ)
    rep.check(
        "all 15 Ptolemy residuals vanish",
        polygon.first_ptolemy_failure(point) is None,
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


def scenario_polygon_uniqueness(**_) -> Report:
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
                    polygon.first_ptolemy_failure(point) is None
                    and polygon.is_deep_bruteforce(point),
                )
    return rep


def scenario_polygon_scan(**_) -> Report:
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


def scenario_polygon_hexagon(seed: int, **_) -> Report:
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
        perturbed = rng.choice(cyc + [(1, 6)])
        bad = dict(edges)
        bad[perturbed] = bad[perturbed] + QQ.one()
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
        point.value(2, 5) == QQ.from_int(-4) and polygon.is_deep_bruteforce(point),
        str(point.value(2, 5)),
    )
    return rep


def scenario_badcut(**_) -> Report:
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


def scenario_cut_glue(seed: int, **_) -> Report:
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


def scenario_rank2_counts(**_) -> Report:
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


def scenario_rank2_closed_form(seed: int, **_) -> Report:
    rep = Report("rank2-closed-form", {"seed": seed, "trials": 100})
    rng = random.Random(seed)
    f7 = prime_field(7)
    checked = 0
    agreements = True
    for b, c in [(2, 2), (3, 1), (1, 3), (2, 3)]:
        for f in (0, 1):
            spec = (
                rank2.Rank2Spec(b, c)
                if f == 0
                else rank2.Rank2Spec(b, c, 1, (rng.choice([-2, -1, 1, 2]),), (rng.choice([-1, 0, 1]),))
            )
            trials = 0
            while trials < 100:
                point = rank2.random_torus_point(spec, f7, rng)
                if point is None:
                    agreements = False
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
    rep.check("comparison count is meaningful", checked > 5000, str(checked))
    return rep


def scenario_markov_enumerate(seed: int, **_) -> Report:
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
        x, y, z = (f5.from_int(rng.randrange(1, 5)) for _ in range(3))
        point = markov.MarkovUpperPoint(x, y, z, markov.markov_element(x, y, z))
        ok &= markov.explore_and_verify(point, depth=5).passed
    rep.check("Markov element is mutation-invariant at 50 seeded torus points", ok)
    return rep


def scenario_markov_collapse(**_) -> Report:
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
        len(reps_xyz) == len(others) == 24,
        f"{len(reps_xyz)} representatives",
    )
    return rep


def scenario_surface_components(
    given_surface: Optional[Tuple[str, surface.SurfaceTriangulation]] = None, **_
) -> Report:
    rep = Report("surface-components", {})
    if given_surface is not None:
        path, t = given_surface
        rep.inputs["surface"] = path
        g, b, m, arcs = t.invariants()
        n = surface.count_classes(t)
        expected = 2 ** (2 * g + b - 1) if m % 2 == 0 else 0
        rep.check(
            f"component count matches 2^(2g+b-1) (g={g}, b={b}, m={m})",
            n == expected,
            str(n),
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
        g, b, m, arcs = t.invariants()
        n = surface.count_classes(t)
        rep.check(
            f"{name}: {count} deep components",
            n == count == (2 ** (2 * g + b - 1) if m % 2 == 0 else 0),
            str(n),
        )
        d = surface.dissection_spanning_tree(t)
        rep.check(
            f"{name}: dissection size 2g+b-1 and cut polygon 4g+2b+m-2",
            len(d.arcs) == 2 * g + b - 1
            and surface.cut_polygon(d).size == 4 * g + 2 * b + m - 2,
        )
    return rep


def scenario_surface_deep_walk(seed: int, steps: Optional[int], **_) -> Report:
    steps = 500 if steps is None else steps
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
    d2 = next(
        ds
        for ds in surface._all_dissections(t)
        if ds.arcs != d.arcs and not surface.congruent(d, ds)
    )
    point2 = surface.deep_point_from_dissection(
        d2, bvals, {a: QQ.from_int(3) for a in d2.arcs}
    )
    rep.check("a non-congruent dissection exists", not surface.congruent(d, d2))
    rep.check(
        "the two dissections' deep points carry distinct classes",
        surface.class_of_dissection(d).labels != surface.class_of_dissection(d2).labels
        and point2.z2.labels != point.z2.labels,
    )
    return rep


def scenario_appendix_bijections(**_) -> Report:
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
        for ds in surface._all_dissections(surface.named_surface(name)):
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


SCENARIOS: Dict[str, Callable[..., Report]] = {
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


def run_scenario(
    name: str,
    seed: int = 0,
    steps: Optional[int] = None,
    surface: Optional[Tuple[str, surface.SurfaceTriangulation]] = None,
) -> Report:
    """Run one scenario.  `seed` and `steps` are the CLI's --seed and
    --steps; `surface` is a (path, triangulation) pair read from --surface,
    and its path is recorded in the report's inputs."""
    if name not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {name!r}; see `scenario list`")
    return SCENARIOS[name](seed=seed, steps=steps, given_surface=surface)
