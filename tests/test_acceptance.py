"""Acceptance suite: one test per headline classification result.

Every check is exact (field equality or integer count).  Run with

    pytest tests/test_acceptance.py -v -s

to see one PASS/FAIL line per criterion.
"""

import random
from contextlib import contextmanager

import pytest

from deeplocus import markov, polygon, rank2, surface
from deeplocus.field import QI, QQ, prime_field

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL: {description}")
        raise
    print(f"[criterion {number:02d}] PASS: {description}")


def test_01_polygon_uniqueness():
    with criterion(1, "type-A deep point exists exactly for ranks 3,7 over Q "
                      "and 1,5,9 over F2, residual-checked and brute-force certified"):
        for rank in range(1, 10):
            for ctx in (QQ, F2):
                expected = rank % 4 == 3 or (
                    rank % 4 == 1 and ctx.characteristic == 2
                )
                try:
                    point = polygon.unique_deep_point_typeA(rank, ctx)
                    exists = True
                except polygon.NoDeepPoint:
                    exists = False
                assert exists == expected, (rank, ctx)
                if exists:
                    assert all(
                        r.is_zero for _, r in polygon.ptolemy_residuals(point)
                    )
                    assert polygon.is_deep_bruteforce(point)


def test_02_finite_field_cover_check():
    with criterion(2, "F3 scans: the pentagon has 0 deep points, the hexagon "
                      "exactly 1, equal to the formula point"):
        res5 = polygon.bruteforce_variety_scan(5, F3, polygon.MODE_TYPE_A)
        assert sum(deep for _, deep in res5) == 0
        res6 = polygon.bruteforce_variety_scan(6, F3, polygon.MODE_TYPE_A)
        deep6 = [p for p, deep in res6 if deep]
        assert deep6 == [polygon.unique_deep_point_typeA(3, F3)]


def test_03_boundary_coefficient_deep_points():
    with criterion(3, "100 seeded hexagon edge sets with the solved closing edge "
                      "all extend to certified deep points; any single-edge "
                      "perturbation violates the condition; figure values give "
                      "x_{2,5} = -4"):
        rng = random.Random(20240803)
        cyc = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        for _ in range(100):
            vals = [QQ.rational(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5)]
            closing = vals[0] * vals[2] * vals[4] / (vals[1] * vals[3])
            edges = dict(zip(cyc, vals))
            edges[(1, 6)] = closing
            point = polygon.deep_point_from_edges(6, edges)
            assert polygon.is_deep_bruteforce(point)
            perturbed_edge = rng.choice(cyc + [(1, 6)])
            bad = dict(edges)
            bad[perturbed_edge] = bad[perturbed_edge] + QQ.one()
            with pytest.raises(polygon.ConditionViolated):
                polygon.deep_point_from_edges(6, bad)
        figure = {
            (1, 6): QQ.one(),
            (1, 2): QQ.from_int(2),
            (2, 3): QQ.from_int(2),
            (3, 4): QQ.one(),
            (4, 5): QQ.from_int(2),
            (5, 6): QQ.from_int(2),
        }
        point = polygon.deep_point_from_edges(6, figure)
        assert point.value(2, 5) == QQ.from_int(-4)
        assert polygon.is_deep_bruteforce(point)


def test_04_rank2_counts():
    with criterion(4, "rank-2 deep point counts 0/1/4 for (1,1)/(2,1)/(2,2), "
                      "Kronecker counts 0 over Q and 2 over F2, all verified "
                      "at window depth 10"):
        cases = [
            (rank2.Rank2Spec(1, 1), QQ, 0),
            (rank2.Rank2Spec(2, 1), QQ, 1),
            (rank2.Rank2Spec(2, 2), F5, 4),
            (rank2.Rank2Spec(2, 2), QI, 4),
            (rank2.Rank2Spec(2, 2), QQ, 0),
            (rank2.Rank2Spec(2, 2), F2, 2),
        ]
        for spec, ctx, want in cases:
            points = rank2.deep_points(spec, ctx)
            assert len(points) == want, (spec, ctx, len(points))
            for point, _ in points:
                assert rank2.verify_deep(point, N=10)


def test_05_rank2_closed_form():
    with criterion(5, "division form and g-polynomial closed form agree at 100 "
                      "seeded torus points for (b,c) in {(2,2),(3,1),(1,3),(2,3)}, "
                      "f in {0,1}"):
        rng = random.Random(20240805)
        compared = 0
        for b, c in [(2, 2), (3, 1), (1, 3), (2, 3)]:
            for f in (0, 1):
                if f == 0:
                    spec = rank2.Rank2Spec(b, c)
                else:
                    spec = rank2.Rank2Spec(
                        b, c, 1,
                        (rng.choice([-2, -1, 1, 2]),),
                        (rng.choice([-1, 0, 1]),),
                    )
                points = 0
                while points < 100:
                    point = rank2.random_torus_point(spec, F7, rng)
                    assert point is not None
                    points += 1
                    ev = rank2.extend_evaluation(point, 5)
                    evw = rank2.e_vectors(spec, -6, 9)
                    for j in list(range(4, 9)) + list(range(-5, 0)):
                        s = -1 if j > 0 else 1
                        div = rank2.division_step(spec, evw, point.ys, ev.values, j, s)
                        if div is None:
                            continue
                        closed = rank2.closed_form_step(
                            spec, evw, point.ys, ev.values, j, s
                        )
                        assert div == closed == ev.values[j]
                        compared += 1
        assert compared > 5000


def test_06_markov_enumeration():
    with criterion(6, "F5 scan finds 29 deep points matching the four-type "
                      "classification, F3 finds 3; depth-6 exploration passes "
                      "for all of them and M is invariant at 50 torus points"):
        deep5 = markov.enumerate_deep_upper(F5)
        assert len(deep5) == 29
        tags = [markov.classify_deep_upper(p).tag for p in deep5]
        assert (tags.count("A"), tags.count("X"), tags.count("Y"), tags.count("Z")) == (
            5, 8, 8, 8,
        )
        assert len(markov.enumerate_deep_upper(F3)) == 3
        for p in deep5:
            assert markov.explore_and_verify(p, depth=6).passed
        rng = random.Random(20240806)
        for _ in range(50):
            x, y, z = (F5.from_int(rng.randrange(1, 5)) for _ in range(3))
            M = markov.markov_element(x, y, z)
            point = markov.MarkovUpperPoint(x, y, z, M)
            report = markov.explore_and_verify(point, depth=5)
            assert report.passed
            assert all(v == M for v in report.markov_element_values.values())


def test_07_markov_collapse():
    with criterion(7, "type-A deep points over F5 collapse to a single "
                      "representative; X/Y/Z restriction is injective off the origin"):
        deep5 = markov.enumerate_deep_upper(F5)
        type_a = [p for p in deep5 if markov.classify_deep_upper(p).tag == "A"]
        others = [p for p in deep5 if markov.classify_deep_upper(p).tag != "A"]
        assert len({markov.restrict_to_cluster_algebra(p) for p in type_a}) == 1
        reps = {markov.restrict_to_cluster_algebra(p) for p in others}
        assert len(reps) == len(others) == 24


def test_08_surface_component_counts():
    with criterion(8, "deep component counts 2/0/4/2 for the (2,2)-annulus, "
                      "(2,1)-annulus, genus-1, and (1,1)-annulus; dissection and "
                      "cut-polygon sizes match the formulas"):
        expectations = [
            ("annulus22", 2),
            ("annulus21", 0),
            ("genus1", 4),
            ("annulus11", 2),
        ]
        for name, count in expectations:
            t = surface.named_surface(name)
            assert len(surface.solve_classes(t)) == count, name
            g, b, m, _ = t.invariants()
            assert count == (2 ** (2 * g + b - 1) if m % 2 == 0 else 0)
            d = surface.dissection_spanning_tree(t)
            assert len(d.arcs) == 2 * g + b - 1
            assert surface.cut_polygon(d).size == 4 * g + 2 * b + m - 2


def test_09_surface_deep_certification():
    with criterion(9, "the (2,2)-annulus deep point survives a 500-step seeded "
                      "flip walk with zero failures; the two single-arc dissections "
                      "are non-congruent with distinct classes"):
        t = surface.named_surface("annulus22")
        d1 = surface.Dissection(t, frozenset([0]))
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        point = surface.deep_point_from_dissection(d1, bvals, {0: QQ.from_int(5)})
        walk = surface.verify_deep_random_walk(point, 500, seed=20240809)
        assert walk.passed, walk.failures[:3]
        candidates = []
        for aid in t.interior_arcs():
            if aid == 0:
                continue
            try:
                candidates.append(surface.Dissection(t, frozenset([aid])))
            except surface.NotADissection:
                continue
        non_congruent = [d for d in candidates if not surface.congruent(d1, d)]
        assert non_congruent
        d2 = non_congruent[0]
        assert (
            surface.class_of_dissection(d1).labels
            != surface.class_of_dissection(d2).labels
        )
        bvals2 = {a: QQ.one() for a in t.boundary_arcs()}
        point2 = surface.deep_point_from_dissection(
            d2, bvals2, {a: QQ.from_int(3) for a in d2.arcs}
        )
        assert point2.z2.labels != point.z2.labels


def test_10_appendix_bijections():
    with criterion(10, "genus-1 subset bijection exhausts the 4 classes; double-"
                       "cover indicators equal the dissection classes; the Dehn "
                       "twist swaps the (1,1)-annulus components and squares to "
                       "the identity"):
        t = surface.named_surface("genus1")
        d = surface.dissection_spanning_tree(t)
        mapping = surface.subset_bijection(d)
        assert len(mapping) == 4
        assert {c.labels for c in mapping.values()} == {
            c.labels for c in surface.solve_classes(t)
        }
        for name in ["disk6", "annulus22", "annulus11", "genus1"]:
            ts = surface.named_surface(name)
            from deeplocus.surface import _all_dissections

            for ds in _all_dissections(ts):
                cover = surface.alternating_double_cover(ds)
                assert cover.indicator_labels() == surface.class_of_dissection(ds).labels
        twist = surface.dehn_twist_scenario_11_annulus()
        assert twist.passed and twist.swaps and twist.square_is_identity


def test_11_cut_glue_round_trips():
    with criterion(11, "the bad-cut hexagon reproduces exactly (non-deep point "
                       "with one deep half) and cut-then-glue is the identity on "
                       "100 seeded valid points"):
        a = QQ.from_int(3)
        fan = polygon.PolygonTriangulation(6, frozenset({(2, 4), (1, 4), (4, 6)}))
        point = polygon.extend_from_triangulation(
            6,
            fan,
            {(2, 4): a, (1, 4): QQ.minus_one(), (4, 6): -a},
            {e: QQ.one() for e in polygon.polygon_edges(6)},
        )
        assert not polygon.is_deep_bruteforce(point)
        left, right = polygon.cut_along_diagonal(point, (2, 5))
        assert not polygon.is_deep_bruteforce(left)
        assert polygon.is_deep_bruteforce(right)
        assert right.value(1, 3).is_zero and right.value(2, 4).is_zero
        assert polygon.glue_cut_halves(left, right, 6, (2, 5)) == point

        rng = random.Random(20240811)
        tris = polygon.enumerate_triangulations(6)
        for _ in range(100):
            tri = rng.choice(tris)
            p = polygon.extend_from_triangulation(
                6,
                tri,
                {
                    d: QQ.rational(rng.randint(1, 9), rng.randint(1, 5))
                    for d in tri.diagonals
                },
                {
                    e: QQ.rational(rng.randint(1, 9), rng.randint(1, 5))
                    for e in polygon.polygon_edges(6)
                },
            )
            d = rng.choice(sorted(tri.diagonals))
            l, r = polygon.cut_along_diagonal(p, d)
            assert polygon.glue_cut_halves(l, r, 6, d) == p
