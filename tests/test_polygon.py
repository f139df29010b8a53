import functools
import itertools
import random

import pytest

from deeplocus import polygon
from deeplocus.field import QI, QQ, prime_field, product
from deeplocus.polygon import (
    MODE_BOUNDARY,
    MODE_TYPE_A,
    ConditionViolated,
    InvalidPoint,
    InvalidSearchCap,
    NoDeepPoint,
    NotADiagonal,
    OddPolygon,
    PolygonError,
    PolygonPoint,
    PolygonTriangulation,
    SearchTooLarge,
    SizeOutOfRange,
    ZeroCutValue,
    ZeroEdge,
    bruteforce_variety_scan,
    catalan,
    cut_along_diagonal,
    deep_point_from_edges,
    enumerate_triangulations,
    extend_from_triangulation,
    first_ptolemy_failure,
    glue_cut_halves,
    is_deep_bruteforce,
    max_search_cap,
    polygon_diagonals,
    polygon_edges,
    polygon_segments,
    ptolemy_residuals,
    seg,
    unique_deep_point_typeA,
)

from conftest import F2, F3, F5, F7, random_value


def square_point(ctx, d13, d24, edges):
    e12, e23, e34, e14 = edges
    return PolygonPoint(
        4,
        MODE_BOUNDARY,
        {
            (1, 2): e12,
            (2, 3): e23,
            (3, 4): e34,
            (1, 4): e14,
            (1, 3): d13,
            (2, 4): d24,
        },
    )


class TestTriangulations:
    def test_triangle(self):
        tris = enumerate_triangulations(3)
        assert len(tris) == 1 and tris[0].diagonals == frozenset()

    def test_square(self):
        tris = enumerate_triangulations(4)
        assert [sorted(t.diagonals) for t in tris] == [[(1, 3)], [(2, 4)]]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_catalan_counts_no_duplicates(self, n):
        tris = enumerate_triangulations(n)
        assert len(tris) == catalan(n - 2)
        assert len({t.diagonals for t in tris}) == len(tris)

    def test_hexagon_count(self):
        assert len(enumerate_triangulations(6)) == 14

    def test_size_cap(self):
        with pytest.raises(SizeOutOfRange):
            enumerate_triangulations(15)
        with pytest.raises(SizeOutOfRange):
            enumerate_triangulations(2)

    def test_noncrossing_validation(self):
        with pytest.raises(Exception):
            PolygonTriangulation(6, frozenset({(1, 3), (2, 4), (1, 4)}))

    def test_diagonal_count_validation(self):
        with pytest.raises(SizeOutOfRange, match="a triangulation of an 6-gon has 3 diagonals"):
            PolygonTriangulation(6, frozenset({(1, 3), (1, 4)}))

    @pytest.mark.parametrize("n", [5, 8, 10])
    def test_lexicographic_order_and_fresh_lists(self, n):
        tris = enumerate_triangulations(n)
        keys = [t.sorted_diagonals() for t in tris]
        assert keys == sorted(keys)
        tris.clear()
        assert len(enumerate_triangulations(n)) == catalan(n - 2)


class TestPointConstruction:
    def test_bad_points_are_refused(self):
        values = dict(unique_deep_point_typeA(3, QQ).values)
        with pytest.raises(SizeOutOfRange, match="at least 3 vertices"):
            PolygonPoint(2, MODE_BOUNDARY, {(1, 2): QQ.one()})
        with pytest.raises(PolygonError, match="unknown mode 'torus'"):
            PolygonPoint(6, "torus", values)
        with pytest.raises(PolygonError, match=r"missing values for segments \[\(1, 3\)\]"):
            PolygonPoint(6, MODE_TYPE_A, {s: v for s, v in values.items() if s != (1, 3)})
        with pytest.raises(PolygonError, match="different field contexts"):
            PolygonPoint(6, MODE_TYPE_A, {**values, (1, 3): F5.zero()})

    def test_type_a_mode_needs_unit_edges(self):
        values = dict(unique_deep_point_typeA(3, QQ).values)
        values[(2, 3)] = QQ.from_int(2)
        p = PolygonPoint(6, MODE_TYPE_A, values)
        assert p.mode_violations() == ["edge (2, 3) is 2, expected 1"]
        assert not p.is_valid()
        assert repr(p) == "PolygonPoint(n=6, mode='type-A')"


class TestPtolemyResiduals:
    def test_square_deep_residual(self):
        p = square_point(
            QQ, QQ.zero(), QQ.zero(), [QQ.one(), QQ.one(), QQ.one(), QQ.minus_one()]
        )
        [(quad, r)] = ptolemy_residuals(p)
        assert quad == (1, 2, 3, 4) and r.is_zero

    def test_typeA_hexagon_point_all_residuals_vanish(self):
        p = unique_deep_point_typeA(3, QQ)
        rs = ptolemy_residuals(p)
        assert len(rs) == 15
        assert all(r.is_zero for _, r in rs)

    def test_all_ones_square_is_not_a_point(self):
        p = square_point(QQ, QQ.one(), QQ.one(), [QQ.one()] * 4)
        [(_, r)] = ptolemy_residuals(p)
        assert r == QQ.minus_one()


class TestDeepCertification:
    def test_a3_point_is_deep(self):
        assert is_deep_bruteforce(unique_deep_point_typeA(3, QQ))

    def test_torus_point_is_not_deep(self, rng):
        tri = enumerate_triangulations(6)[0]
        point = extend_from_triangulation(
            6,
            tri,
            {d: QQ.from_int(rng.randint(1, 5)) for d in tri.diagonals},
            {e: QQ.one() for e in polygon_edges(6)},
        )
        assert not is_deep_bruteforce(point)

    def test_square_deep(self):
        p = square_point(
            QQ, QQ.zero(), QQ.zero(), [QQ.one(), QQ.one(), QQ.one(), QQ.minus_one()]
        )
        assert is_deep_bruteforce(p)

    def test_invalid_point_rejected(self):
        p = square_point(QQ, QQ.one(), QQ.one(), [QQ.one()] * 4)
        with pytest.raises(InvalidPoint):
            is_deep_bruteforce(p)

    @pytest.mark.parametrize(
        "ctx, text", [(QQ, "-1"), (prime_field(7), "6 mod 7")], ids=["Q", "F7"]
    )
    def test_invalid_point_names_its_first_residual(self, ctx, text):
        # x13 = 1 keeps the relation at (1, 2, 3, 4) and breaks the next one
        values = dict(unique_deep_point_typeA(3, ctx).values)
        values[(1, 3)] = ctx.one()
        p = PolygonPoint(6, MODE_TYPE_A, values)
        with pytest.raises(InvalidPoint) as err:
            is_deep_bruteforce(p)
        assert str(err.value) == f"Ptolemy residual at (1, 2, 3, 5) is {text}"

    def test_zero_edges_rejected(self):
        # every residual vanishes, but boundary mode needs nonzero edges
        zero, one = QQ.zero(), QQ.one()
        p = square_point(QQ, zero, zero, [zero, one, one, zero])
        assert all(r.is_zero for _, r in ptolemy_residuals(p))
        with pytest.raises(InvalidPoint):
            is_deep_bruteforce(p)


class TestDeepPointFromEdges:
    def test_hexagon_figure_values(self):
        # edge assignment pinning the long diagonal (2,5) to -a2*a6/a1 = -4
        edges = {
            (1, 6): QQ.one(),
            (1, 2): QQ.from_int(2),
            (2, 3): QQ.from_int(2),
            (3, 4): QQ.one(),
            (4, 5): QQ.from_int(2),
            (5, 6): QQ.from_int(2),
        }
        p = deep_point_from_edges(6, edges)
        assert p.value(2, 5) == QQ.from_int(-4)
        assert p.value(1, 3).is_zero and p.value(2, 4).is_zero
        assert is_deep_bruteforce(p)

    def test_hexagon_two_formulas_agree(self, rng):
        # the two edge runs on either side of a long diagonal give the same
        # value once the alternating product condition holds
        for _ in range(20):
            a = [random_value(QQ, rng, nonzero=True) for _ in range(5)]
            a6 = a[0] * a[2] * a[4] / (a[1] * a[3])
            edges = dict(zip([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], a))
            edges[(1, 6)] = a6
            p = deep_point_from_edges(6, edges)
            assert p.value(3, 6) == -a[2] * a[4] / a[3]
            assert p.value(3, 6) == -a[1] * a6 / a[0]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_vertices_is_a_size_error(self, n):
        # refused before the parity and edge-value checks
        for edges in ({}, {e: QQ.one() for e in polygon_edges(n)}):
            with pytest.raises(SizeOutOfRange, match="^polygon needs at least 3 vertices$"):
                deep_point_from_edges(n, edges)

    def test_missing_and_zero_edges_are_refused(self):
        edges = {e: QQ.one() for e in polygon_edges(6)}
        with pytest.raises(PolygonError, match=r"missing edge values \[\(3, 4\)\]"):
            deep_point_from_edges(6, {e: v for e, v in edges.items() if e != (3, 4)})
        with pytest.raises(ZeroEdge, match=r"edge \(3, 4\) must be nonzero"):
            deep_point_from_edges(6, {**edges, (3, 4): QQ.zero()})

    def test_odd_polygon(self):
        with pytest.raises(OddPolygon):
            deep_point_from_edges(5, {e: QQ.one() for e in polygon_edges(5)})

    def test_all_ones_square_violates_condition(self):
        with pytest.raises(ConditionViolated):
            deep_point_from_edges(4, {e: QQ.one() for e in polygon_edges(4)})

    def test_square_with_sign_balanced_edges(self):
        edges = {
            (1, 2): QQ.one(),
            (2, 3): QQ.one(),
            (3, 4): QQ.one(),
            (1, 4): QQ.minus_one(),
        }
        p = deep_point_from_edges(4, edges)
        assert p.value(1, 3).is_zero and p.value(2, 4).is_zero


class TestUniqueTypeAPoint:
    def test_rank3_matches_figure(self):
        p = unique_deep_point_typeA(3, QQ)
        assert p.mode == MODE_TYPE_A
        for i, j in polygon_diagonals(6):
            if (j - i) % 2 == 0:
                assert p.value(i, j).is_zero
            else:
                assert p.value(i, j) == QQ.minus_one()

    @pytest.mark.parametrize("rank", [0, -4])
    def test_rank_must_be_positive(self, rank):
        with pytest.raises(SizeOutOfRange, match="rank must be positive"):
            unique_deep_point_typeA(rank, QQ)

    def test_rank2_has_none(self):
        with pytest.raises(NoDeepPoint):
            unique_deep_point_typeA(2, QQ)

    def test_rank1_and_5_only_in_char_two(self):
        for rank in (1, 5):
            with pytest.raises(NoDeepPoint):
                unique_deep_point_typeA(rank, QQ)
            p = unique_deep_point_typeA(rank, F2)
            for i, j in polygon_diagonals(rank + 3):
                expected = F2.zero() if (j - i) % 2 == 0 else F2.one()
                assert p.value(i, j) == expected
            assert is_deep_bruteforce(p)

    def test_rank7_over_q(self):
        p = unique_deep_point_typeA(7, QQ)
        assert all(r.is_zero for _, r in ptolemy_residuals(p))


class TestVanishingPattern:
    def test_even_rule_and_triangle_parity(self, rng):
        for _ in range(10):
            a = [random_value(QQ, rng, nonzero=True) for _ in range(5)]
            a6 = a[0] * a[2] * a[4] / (a[1] * a[3])
            edges = dict(zip([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], a))
            edges[(1, 6)] = a6
            p = deep_point_from_edges(6, edges)
            for i, j in polygon_segments(6):
                assert p.value(i, j).is_zero == ((j - i) % 2 == 0)
            for i, j, k in itertools.combinations(range(1, 7), 3):
                zeros = sum(
                    p.value(*s).is_zero for s in [(i, j), (i, k), (j, k)]
                )
                assert zeros % 2 == 1

    def test_uniqueness_from_edges(self, rng):
        a = [random_value(QQ, rng, nonzero=True) for _ in range(5)]
        a6 = a[0] * a[2] * a[4] / (a[1] * a[3])
        edges = dict(zip([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], a))
        edges[(1, 6)] = a6
        assert deep_point_from_edges(6, edges) == deep_point_from_edges(6, dict(edges))


def badcut_point(a):
    """Hexagon point with boundary ones and fan values (a, -1, -a) at vertex 4."""
    fan = PolygonTriangulation(6, frozenset({(2, 4), (1, 4), (4, 6)}))
    return extend_from_triangulation(
        6,
        fan,
        {(2, 4): a, (1, 4): QQ.minus_one(), (4, 6): -a},
        {e: QQ.one() for e in polygon_edges(6)},
    )


class TestCutAndGlue:
    def test_badcut(self):
        p = badcut_point(QQ.from_int(3))
        assert not is_deep_bruteforce(p)
        assert p.value(2, 5) == QQ.minus_one()
        left, right = cut_along_diagonal(p, (2, 5))
        # left holds the hull {2..5} which still carries the nonzero fan arc
        assert not is_deep_bruteforce(left)
        # right holds {5,6,1,2}; both of its diagonals vanish
        assert right.value(1, 3).is_zero and right.value(2, 4).is_zero
        assert is_deep_bruteforce(right)

    def test_cut_deep_point_halves_stay_deep(self):
        p = unique_deep_point_typeA(3, QQ)
        left, right = cut_along_diagonal(p, (1, 4))
        assert is_deep_bruteforce(left) and is_deep_bruteforce(right)

    def test_cut_zero_diagonal_rejected(self):
        p = unique_deep_point_typeA(3, QQ)
        with pytest.raises(ZeroCutValue):
            cut_along_diagonal(p, (1, 3))

    def test_cut_edge_rejected(self):
        p = unique_deep_point_typeA(3, QQ)
        with pytest.raises(NotADiagonal):
            cut_along_diagonal(p, (1, 2))

    def test_cut_then_glue_round_trip(self, rng):
        for _ in range(25):
            tri = rng.choice(enumerate_triangulations(6))
            point = extend_from_triangulation(
                6,
                tri,
                {d: random_value(QQ, rng, nonzero=True) for d in tri.diagonals},
                {e: random_value(QQ, rng, nonzero=True) for e in polygon_edges(6)},
            )
            d = rng.choice(sorted(tri.diagonals))
            left, right = cut_along_diagonal(point, d)
            assert glue_cut_halves(left, right, 6, d) == point

    def test_cut_refuses_a_point_off_the_variety(self):
        p = square_point(QQ, QQ.one(), QQ.one(), [QQ.one()] * 4)
        with pytest.raises(InvalidPoint, match="cut requires a valid variety point"):
            cut_along_diagonal(p, (1, 3))

    def test_glue_refuses_halves_that_do_not_fit(self):
        p = unique_deep_point_typeA(3, QQ)
        left, right = cut_along_diagonal(p, (1, 4))
        with pytest.raises(PolygonError, match="halves of sizes 4,4 do not glue to an 7-gon"):
            glue_cut_halves(left, right, 7, (1, 4))
        with pytest.raises(NotADiagonal, match=r"first half does not span the hull of \(1, 5\)"):
            glue_cut_halves(left, right, 6, (1, 5))
        scaled = PolygonPoint(4, MODE_BOUNDARY, {**right.values, (1, 4): QQ.from_int(2)})
        with pytest.raises(PolygonError, match="cut edge values differ"):
            glue_cut_halves(left, scaled, 6, (1, 4))
        # halves of a square point whose diagonal (1, 3) is zero
        zero, one = QQ.zero(), QQ.one()
        half = square_point(QQ, one, one, [one, one, one, zero])
        with pytest.raises(ZeroCutValue, match="cut edge value is zero"):
            glue_cut_halves(half, half, 6, (1, 4))

    def test_glue_refuses_a_half_off_the_variety(self):
        # the glue divides through a crossing relation of each half; a half
        # that breaks its own relation leaves the glued point off the variety
        left, right = cut_along_diagonal(unique_deep_point_typeA(3, QQ), (1, 4))
        bent = PolygonPoint(4, MODE_BOUNDARY, {**left.values, (2, 3): QQ.from_int(2)})
        assert not bent.is_valid()
        with pytest.raises(InvalidPoint, match="glued values are inconsistent"):
            glue_cut_halves(bent, right, 6, (1, 4))

    @pytest.mark.parametrize("d", [(5, 8), (-1, 2)], ids=["5-8", "m1-2"])
    def test_glue_rejects_a_non_diagonal(self, d):
        # the halves of a cut along (2, 5) span three vertex steps, as
        # (5, 8) and (-1, 2) do, but neither is a diagonal of the hexagon
        left, right = cut_along_diagonal(badcut_point(QQ.from_int(3)), (2, 5))
        with pytest.raises(NotADiagonal):
            glue_cut_halves(left, right, 6, d)


class TestVarietyScan:
    def test_pentagon_f3_has_no_deep_points(self):
        results = bruteforce_variety_scan(5, F3, MODE_TYPE_A)
        assert results
        assert sum(deep for _, deep in results) == 0

    def test_hexagon_f3_has_exactly_one(self):
        results = bruteforce_variety_scan(6, F3, MODE_TYPE_A)
        deep = [p for p, d in results if d]
        assert len(deep) == 1
        assert deep[0] == unique_deep_point_typeA(3, F3)

    def test_square_f2_matches_unique_point(self):
        results = bruteforce_variety_scan(4, F2, MODE_TYPE_A)
        deep = [p for p, d in results if d]
        # rank 1 = 1 (mod 4) over characteristic 2: the unique deep point
        assert len(deep) == 1
        assert deep[0] == unique_deep_point_typeA(1, F2)

    def test_cap(self):
        with pytest.raises(SearchTooLarge):
            bruteforce_variety_scan(8, prime_field(11), MODE_TYPE_A, max_search=100)
        with pytest.raises(SearchTooLarge):
            bruteforce_variety_scan(4, QQ, MODE_TYPE_A)

    def test_a_count_too_long_to_print_is_given_as_powers(self):
        # the nominal count is still the one compared with the cap
        cases = [
            (130, F3, MODE_TYPE_A, str(3**8255)),
            (140, F3, MODE_TYPE_A, "3^9590"),
            (140, F3, MODE_BOUNDARY, "3^9590 * 2^140"),
            (200, F2, MODE_BOUNDARY, "2^19700"),
            (256, prime_field(2**31 - 1), MODE_BOUNDARY, f"{2**31 - 1}^32384 * {2**31 - 2}^256"),
        ]
        for n, ctx, mode, count in cases:
            with pytest.raises(SearchTooLarge) as info:
                bruteforce_variety_scan(n, ctx, mode, max_search=100)
            assert str(info.value) == f"{count} assignments exceed the cap 100"
        assert bruteforce_variety_scan(4, F2, MODE_TYPE_A, max_search=2**9590)

    def test_the_size_cap_is_checked_before_any_segment_list(self, monkeypatch):
        from deeplocus import polygon

        def unreached(*args):
            raise AssertionError("a segment list was built")

        for name in ("polygon_diagonals", "polygon_edges", "polygon_segments", "_segments"):
            monkeypatch.setattr(polygon, name, unreached)
        with pytest.raises(SizeOutOfRange, match="the 257-gon exceeds the cap MAX_POLYGON_N = 256"):
            bruteforce_variety_scan(257, F3, MODE_TYPE_A)

    def test_unknown_mode_is_named_before_the_search_is_sized(self):
        # boundary mode over F5 on the octagon is far above the cap; a
        # bogus mode must not be sized as boundary mode
        with pytest.raises(PolygonError, match="unknown mode 'bogus'"):
            bruteforce_variety_scan(8, prime_field(5), "bogus")
        with pytest.raises(PolygonError, match="unknown mode 'bogus'"):
            bruteforce_variety_scan(4, QQ, "bogus")

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("DEEPLOCUS_MAX_SEARCH", "3")
        with pytest.raises(SearchTooLarge):
            bruteforce_variety_scan(4, F2, MODE_TYPE_A)
        monkeypatch.setenv("DEEPLOCUS_MAX_SEARCH", "1000")
        assert bruteforce_variety_scan(4, F2, MODE_TYPE_A)

    def test_bad_env_cap_names_the_value(self, monkeypatch):
        monkeypatch.setenv("DEEPLOCUS_MAX_SEARCH", "abc")
        with pytest.raises(InvalidSearchCap, match="'abc'"):
            max_search_cap()
        with pytest.raises(InvalidSearchCap):
            bruteforce_variety_scan(4, F2, MODE_TYPE_A)
        assert max_search_cap(50) == 50

    def test_boundary_mode_scan(self):
        # nonzero edges are enumerated too; square over F2 forces edges 1,
        # so the deep point count matches the type-A scan
        results = bruteforce_variety_scan(4, F2, MODE_BOUNDARY)
        deep = [p for p, d in results if d]
        assert len(deep) == 1

    def test_boundary_mode_scan_matches_torus_dimension(self):
        # the square's deep locus is a torus of dimension n-1 = 3 in the
        # edge values: over F3 that is 2^3 = 8 points
        results = bruteforce_variety_scan(4, F3, MODE_BOUNDARY)
        deep = [p for p, d in results if d]
        assert len(deep) == (3 - 1) ** 3
        for p in deep:
            assert p.value(1, 3).is_zero and p.value(2, 4).is_zero


@functools.lru_cache(maxsize=None)
def triangulations(n):
    """enumerate_triangulations(n), built once per test process."""
    return tuple(enumerate_triangulations(n))


def naive_is_deep(point):
    return all(
        any(point.values[d].is_zero for d in tri.diagonals)
        for tri in triangulations(point.n)
    )


def naive_variety_scan(n, ctx, mode):
    """The unpruned scan: the full product of edge values, then diagonal
    values, with every Ptolemy residual checked on every assignment."""
    p = ctx.p
    edges, diagonals = polygon_edges(n), polygon_diagonals(n)
    edge_range = [1] if mode == MODE_TYPE_A else range(1, p)
    quads = list(itertools.combinations(range(1, n + 1), 4))
    out = []
    for edge_vals in itertools.product(edge_range, repeat=len(edges)):
        for diag_vals in itertools.product(range(p), repeat=len(diagonals)):
            x = dict(zip(edges, edge_vals))
            x.update(zip(diagonals, diag_vals))
            if all(
                (x[i, k] * x[j, l] - x[i, j] * x[k, l] - x[i, l] * x[j, k]) % p == 0
                for i, j, k, l in quads
            ):
                point = PolygonPoint(n, mode, {s: ctx.from_int(v) for s, v in x.items()})
                out.append((point, naive_is_deep(point)))
    return out


# the naive scan costs a few microseconds per assignment, so the oracle
# covers the cases of n = 4..7 over F2 and F3 up to this many assignments
NAIVE_SCAN_BUDGET = 20_000
ORACLE_SCANS = [
    (n, ctx, mode)
    for n in (4, 5, 6, 7)
    for ctx in (F2, F3)
    for mode in (MODE_TYPE_A, MODE_BOUNDARY)
    if ctx.p ** (n * (n - 3) // 2) * (1 if mode == MODE_TYPE_A else (ctx.p - 1) ** n)
    <= NAIVE_SCAN_BUDGET
]


def seeded_deep_point(ctx, n, rng):
    """deep_point_from_edges on random nonzero edges, the closing edge
    chosen to meet the alternating product condition."""
    edges = polygon_edges(n)
    vals = [random_value(ctx, rng, nonzero=True) for _ in edges[:-1]]
    num = den = ctx.one()
    for k, v in enumerate(vals):
        if k % 2 == 0:
            num = num * v
        else:
            den = den * v
    closing = num / (den * ctx.minus_one() ** ((n + 2) // 2))
    return deep_point_from_edges(n, dict(zip(edges, vals + [closing])))


def seeded_torus_point(ctx, n, rng, type_a=False):
    """extend_from_triangulation from a random triangulation with random
    nonzero seed values, and edges one when type_a.  Nonzero seeds always
    extend to a valid point, so the draw is not retried: a PolygonError
    fails the test."""
    tri = rng.choice(triangulations(n))
    return extend_from_triangulation(
        n,
        tri,
        {d: random_value(ctx, rng, nonzero=True) for d in tri.diagonals},
        {e: ctx.one() if type_a else random_value(ctx, rng, nonzero=True) for e in polygon_edges(n)},
    )


class TestPropagation:
    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("ctx", [QQ, prime_field(101)], ids=["Q", "F101"])
    def test_every_nonzero_triangulation_reseeds_the_point(self, n, ctx, rng):
        # extension from any triangulation that the point keeps nonzero
        # recovers the whole point
        for _ in range(3):
            point = seeded_torus_point(ctx, n, rng)
            edges = {e: point.values[e] for e in polygon_edges(n)}
            seeds = [
                tri
                for tri in enumerate_triangulations(n)
                if not any(point.values[d].is_zero for d in tri.diagonals)
            ]
            assert seeds
            for tri in seeds:
                assert extend_from_triangulation(n, tri, point.values, edges) == point


class TestGluing:
    """extend_from_triangulation and glue_cut_halves, which fill segments
    through the crossing Ptolemy relation."""

    @pytest.mark.parametrize("n, ctx", [(6, F3), (8, F2)], ids=["6-F3", "8-F2"])
    def test_every_nonzero_seed_extends_and_round_trips(self, n, ctx):
        # every nonzero seed on every triangulation: 7168 hexagon seeds over
        # F3, 132 octagon seeds over F2
        nonzero = [ctx.from_int(v) for v in range(1, ctx.p)]
        edges = polygon_edges(n)
        for tri in enumerate_triangulations(n):
            diagonals = tri.sorted_diagonals()
            for draw in itertools.product(nonzero, repeat=n + len(diagonals)):
                seeds = dict(zip(edges + diagonals, draw))
                point = extend_from_triangulation(n, tri, seeds, seeds)
                assert point.is_valid()
                assert all(point.values[s] == v for s, v in seeds.items())
                for d in diagonals:
                    left, right = cut_along_diagonal(point, d)
                    assert glue_cut_halves(left, right, n, d) == point

    @pytest.mark.parametrize("n, m", [(6, 8), (8, 6)])
    def test_extend_rejects_a_triangulation_of_another_size(self, n, m):
        tri = enumerate_triangulations(m)[0]
        values = {s: QQ.one() for s in polygon_segments(max(n, m))}
        with pytest.raises(SizeOutOfRange) as raised:
            extend_from_triangulation(n, tri, values, values)
        assert f"{m}-gon" in str(raised.value) and f"{n}-gon" in str(raised.value)

    def test_extend_refuses_zero_seeds(self):
        tri = PolygonTriangulation(6, frozenset({(1, 3), (1, 4), (1, 5)}))
        ones = {s: QQ.one() for s in polygon_segments(6)}
        with pytest.raises(ZeroEdge, match=r"edge \(2, 3\) must be nonzero"):
            extend_from_triangulation(6, tri, ones, {**ones, (2, 3): QQ.zero()})
        with pytest.raises(ZeroCutValue, match=r"seed diagonal \(1, 4\) must be nonzero"):
            extend_from_triangulation(6, tri, {**ones, (1, 4): QQ.zero()}, ones)

    def test_extend_names_missing_seed_values(self):
        tri = PolygonTriangulation(6, frozenset({(1, 3), (1, 4), (1, 5)}))
        edges = {e: QQ.one() for e in polygon_edges(6) if e != (3, 4)}
        with pytest.raises(PolygonError) as raised:
            extend_from_triangulation(6, tri, {(1, 3): QQ.one()}, edges)
        assert str(raised.value) == "missing values for segments [(3, 4), (1, 4), (1, 5)]"


class TestOracles:
    """The pruned scan and the bitmask certificate against the unpruned
    scan and a per-triangulation `any` over enumerate_triangulations."""

    @pytest.mark.parametrize(
        "n,ctx,mode", ORACLE_SCANS, ids=lambda v: getattr(v, "p", v)
    )
    def test_scan_matches_naive_scan(self, n, ctx, mode):
        # whole lists, order included; the naive side certifies deepness
        # by the per-triangulation any
        assert bruteforce_variety_scan(n, ctx, mode) == naive_variety_scan(n, ctx, mode)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_mask_deepness_matches_enumeration(self, n, rng):
        points = []
        for ctx in (F5, prime_field(101), QQ):
            points += [seeded_torus_point(ctx, n, rng) for _ in range(2)]
            if n % 2 == 0:
                points += [seeded_deep_point(ctx, n, rng) for _ in range(2)]
        for point in points:
            assert is_deep_bruteforce(point) == naive_is_deep(point)
        if n % 2 == 0:
            assert any(is_deep_bruteforce(p) for p in points)
        assert not all(is_deep_bruteforce(p) for p in points)

    def test_size_cap_still_applies(self, rng):
        # a valid 15-gon point: residuals check out, the parity certificate
        # answers, and the triangulation oracles are capped
        fan = PolygonTriangulation(15, frozenset((1, k) for k in range(3, 15)))
        point = extend_from_triangulation(
            15,
            fan,
            {d: QQ.from_int(rng.randint(1, 5)) for d in fan.diagonals},
            {e: QQ.one() for e in polygon_edges(15)},
        )
        assert is_deep_bruteforce(point) is False
        with pytest.raises(SizeOutOfRange):
            enumerate_triangulations(15)
        with pytest.raises(SizeOutOfRange):
            polygon._is_deep(point)


def line_point(ctx, n, rng, lines):
    """x_ij = det(v_i, v_j) for columns v_1..v_n of a 2 x n matrix, each a
    nonzero multiple of one of `lines` pairwise independent vectors, with
    adjacent columns (n and 1 included) on different lines: a valid point
    with nonzero edges, zero exactly on the pairs of parallel columns.
    Returns the point and the number of lines its columns use."""
    palette = []
    while len(palette) < lines:
        v = (random_value(ctx, rng), random_value(ctx, rng))
        if (v[0] or v[1]) and all(v[0] * w[1] - v[1] * w[0] for w in palette):
            palette.append(v)
    colours = [0]
    while len(colours) < n or colours[-1] == colours[0]:
        if len(colours) == n:
            colours.pop()
        colours.append(rng.choice([c for c in range(lines) if c != colours[-1]]))
    columns = []
    for c in colours:
        k = random_value(ctx, rng, nonzero=True)
        columns.append((k * palette[c][0], k * palette[c][1]))
    values = {}
    for i, j in polygon_segments(n):
        (a, b), (c, d) = columns[i - 1], columns[j - 1]
        values[i, j] = a * d - b * c
    return PolygonPoint(n, MODE_BOUNDARY, values), len(set(colours))


# in both modes, these scans hold 39,705 variety points
PARITY_SCANS = [(4, F2), (5, F2), (6, F2), (4, F3), (5, F3), (6, F3), (4, F5), (4, F7), (5, F5)]


def even_segment_rule(point):
    """The lemma read over all O(n^2) segments: n even, and zero on every
    segment (i, j) with j - i even."""
    return point.n % 2 == 0 and all(
        point.value(i, j).is_zero for i, j in polygon_segments(point.n) if (j - i) % 2 == 0
    )


class TestParity:
    """is_deep_bruteforce's O(n) read of the chart's two rows against the
    lemma's even-segment rule, the mask oracle polygon._is_deep and the
    per-triangulation any of naive_is_deep."""

    @pytest.mark.parametrize("mode", [MODE_TYPE_A, MODE_BOUNDARY])
    @pytest.mark.parametrize("n, ctx", PARITY_SCANS, ids=str)
    def test_every_scanned_point(self, n, ctx, mode):
        # the scan's own flag reads the same slots, on its residues
        for point, flag in bruteforce_variety_scan(n, ctx, mode):
            deep = is_deep_bruteforce(point)
            assert deep == flag == even_segment_rule(point)
            assert deep == polygon._is_deep(point) == naive_is_deep(point)

    @pytest.mark.parametrize("n", range(4, 13))
    @pytest.mark.parametrize("ctx", [F5, prime_field(101), QQ, QI], ids=str)
    def test_seeded_points(self, ctx, n):
        rng = random.Random(2600 + 13 * n + ctx.characteristic)
        torus = [seeded_torus_point(ctx, n, rng) for _ in range(2)]
        deep = [seeded_deep_point(ctx, n, rng) for _ in range(2)] if n % 2 == 0 else []
        lined = [line_point(ctx, n, rng, 3) for _ in range(3)]
        if n % 2 == 0:
            lined += [line_point(ctx, n, rng, 2) for _ in range(2)]
        for point in torus + deep + [p for p, _ in lined]:
            assert is_deep_bruteforce(point) == even_segment_rule(point)
            assert is_deep_bruteforce(point) == polygon._is_deep(point) == naive_is_deep(point)
        # a torus point keeps its seed triangulation nonzero
        assert not any(is_deep_bruteforce(p) for p in torus)
        assert all(is_deep_bruteforce(p) for p in deep)
        # the lemma: deep exactly when the columns lie on two lines
        assert [is_deep_bruteforce(p) for p, _ in lined] == [used == 2 for _, used in lined]
        assert any(used >= 3 for _, used in lined)


def witness_text(point):
    """InvalidPoint's text by the rule it had before one identity test
    decided it: every mode violation, else the first Ptolemy failure and its
    residual, taken from the field-value oracle; None for a valid point."""
    bad = point.mode_violations()
    if bad:
        return "; ".join(bad)
    quad = first_ptolemy_failure(point)
    if quad is None:
        return None
    return f"Ptolemy residual at {quad} is {dict(ptolemy_residuals(point))[quad]}"


class TestRowCertificate:
    """A point keeps its values as one row; is_valid and is_deep_bruteforce
    decide it by one identity test on the row, against one table per
    (n, mode)."""

    @pytest.mark.parametrize("n", range(4, 13))
    @pytest.mark.parametrize("ctx", [F5, prime_field(101), QQ, QI], ids=str)
    def test_perturbed_points_keep_their_error_text(self, ctx, n):
        rng = random.Random(2900 + 13 * n + ctx.characteristic)
        points = [seeded_torus_point(ctx, n, rng) for _ in range(2)]
        points += [seeded_torus_point(ctx, n, rng, type_a=True) for _ in range(2)]
        points += [line_point(ctx, n, rng, 3)[0] for _ in range(2)]
        if n % 2 == 0:
            points += [seeded_deep_point(ctx, n, rng) for _ in range(2)]
        diagonals, edges = polygon_diagonals(n), polygon_edges(n)
        drawn = []
        for point in points:
            values = dict(point.values)
            s, e = rng.choice(diagonals), rng.choice(edges)
            for t, v in ((s, values[s] + ctx.one()), (s, ctx.zero()), (e, ctx.zero()),
                         (e, random_value(ctx, rng))):
                drawn.append(PolygonPoint(n, point.mode, {**values, t: v}))
            # the same values read in the other mode
            other = MODE_BOUNDARY if point.mode == MODE_TYPE_A else MODE_TYPE_A
            drawn.append(PolygonPoint(n, other, values))
        kinds = set()
        for point in points + drawn:
            want = witness_text(point)
            assert point.is_valid() == (want is None)
            if want is None:
                assert is_deep_bruteforce(point) == even_segment_rule(point)
                kinds.add("valid")
                continue
            with pytest.raises(InvalidPoint) as raised:
                is_deep_bruteforce(point)
            assert str(raised.value) == want
            kinds.add((point.mode, want.startswith("Ptolemy")))
        assert kinds == {
            "valid",
            (MODE_TYPE_A, True), (MODE_TYPE_A, False),
            (MODE_BOUNDARY, True), (MODE_BOUNDARY, False),
        }

    @pytest.mark.parametrize("ctx", [F5, QQ, QI], ids=str)
    def test_certifying_builds_no_values_mapping(self, ctx, rng):
        points = [seeded_deep_point(ctx, 8, rng), seeded_torus_point(ctx, 7, rng)]
        points.append(unique_deep_point_typeA(7, QQ))
        for point in points:
            assert point.is_valid() and is_deep_bruteforce(point) == (point.n % 2 == 0)
            first_ptolemy_failure(point)
            point.value(2, 5)
            assert point == PolygonPoint(point.n, point.mode, {**point.values})
            # only the last line read point.values
            assert point._values is not None
        fresh = seeded_deep_point(ctx, 6, rng)
        assert is_deep_bruteforce(fresh) and fresh.is_valid()
        assert fresh._values is None

    def test_values_read_the_row_and_cannot_be_changed(self, rng):
        point = seeded_torus_point(QQ, 7, rng)
        assert list(point.values) == polygon_segments(7)
        assert list(point.values.values()) == list(point.row)
        for i, j in polygon_segments(7):
            assert point.value(i, j) is point.value(j, i) is point.values[i, j]
        for bad in [(0, 3), (3, 3), (4, 8)]:
            with pytest.raises(KeyError):
                point.value(*bad)
        with pytest.raises(TypeError):
            point.values[1, 3] = QQ.one()
        with pytest.raises(AttributeError):
            point.colour = 1

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_one_table_per_mode(self, n):
        # type-A puts each edge's x_e - 1 before the chart (1, 2)
        quads, relations = polygon._chart(n, 1, 2)
        assert polygon._certificate(n, MODE_BOUNDARY) == (0, quads, relations)
        ones, typed_quads, typed = polygon._certificate(n, MODE_TYPE_A)
        assert (ones, typed_quads, typed[ones:]) == (n, quads, relations)
        index = {s: t for t, s in enumerate(polygon_segments(n))}
        assert typed[:ones] == tuple(((1, (index[e],)), (-1, ())) for e in polygon_edges(n))


def full_table_failure(point):
    """The oracle: the first failing 4-subset of the full C(n, 4) table."""
    quads, relations = polygon._ptolemy_table(point.n)
    values = [point.values[s] for s in polygon_segments(point.n)]
    r = point.ctx.first_nonzero_relation(values, relations)
    return None if r is None else quads[r]


def chart_of(point):
    """The first segment with a nonzero value, or None."""
    return next((s for s in polygon_segments(point.n) if not point.values[s].is_zero), None)


def minor_point(ctx, n, rng):
    """x_ij = det(v_i, v_j) for random columns v_1..v_n of a 2 x n matrix, a
    point of the variety; some columns are zero or repeat the one before,
    so zeros appear, (1, 2) among them."""
    columns = []
    for _ in range(n):
        kind = rng.randrange(5)
        if kind == 0:
            columns.append((ctx.zero(), ctx.zero()))
        elif kind == 1 and columns:
            c = random_value(ctx, rng)
            columns.append((c * columns[-1][0], c * columns[-1][1]))
        else:
            columns.append((random_value(ctx, rng), random_value(ctx, rng)))
    values = {}
    for i, j in polygon_segments(n):
        (a, b), (c, d) = columns[i - 1], columns[j - 1]
        values[i, j] = a * d - b * c
    return PolygonPoint(n, MODE_BOUNDARY, values)


def with_value(point, s, v):
    return PolygonPoint(point.n, MODE_BOUNDARY, {**point.values, s: v})


class TestChartCertificate:
    """first_ptolemy_failure tests only the C(n-2, 2) relations through the
    first nonzero segment; it must give the full table's answer, witness
    included, also when the chart is not at (1, 2)."""

    @pytest.mark.parametrize("ctx, n", [(F2, 5), (F2, 6), (F3, 4), (F3, 5)], ids=str)
    def test_exhaustive_agreement_with_the_full_table(self, ctx, n):
        segments = polygon_segments(n)
        seen = set()
        for vals in itertools.product(list(ctx.elements()), repeat=len(segments)):
            point = PolygonPoint(n, MODE_BOUNDARY, dict(zip(segments, vals)))
            want = full_table_failure(point)
            assert first_ptolemy_failure(point) == want
            seen.add((chart_of(point), want is None))
        # valid and invalid points charted away from (1, 2), and the zero point
        assert {((1, 3), True), ((1, 3), False), ((2, 3), True), (None, True)} <= seen

    @pytest.mark.parametrize("n", range(5, 11))
    @pytest.mark.parametrize("ctx", [QQ, QI, F5, prime_field(101)], ids=str)
    def test_seeded_agreement_with_the_full_table(self, ctx, n):
        rng = random.Random(2500 + 13 * n + ctx.characteristic)
        points = [minor_point(ctx, n, rng) for _ in range(12)]
        points += [seeded_torus_point(ctx, n, rng) for _ in range(3)]
        if n % 2 == 0:
            points += [seeded_deep_point(ctx, n, rng) for _ in range(3)]
        segments = polygon_segments(n)
        drawn = []
        for point in points:
            s = rng.choice(segments)
            drawn.append(point)
            drawn.append(with_value(point, s, point.values[s] + ctx.one()))
            drawn.append(with_value(point, s, ctx.zero()))
        outcomes = set()
        for point in drawn:
            want = full_table_failure(point)
            assert first_ptolemy_failure(point) == want
            outcomes.add((chart_of(point) == (1, 2), want is None))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize("ctx", [QQ, QI, F2, F5], ids=str)
    def test_the_zero_point_is_valid_but_has_zero_edges(self, ctx, n):
        point = PolygonPoint(n, MODE_BOUNDARY, {s: ctx.zero() for s in polygon_segments(n)})
        assert first_ptolemy_failure(point) is None and full_table_failure(point) is None
        assert not point.is_valid()

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_a_chart_is_the_full_table_through_a_and_b_in_its_order(self, n):
        quads, relations = polygon._ptolemy_table(n)
        for a, b in polygon_segments(n):
            rows = [(q, r) for q, r in zip(quads, relations) if a in q and b in q]
            assert polygon._chart(n, a, b) == tuple(map(tuple, zip(*rows)))
            assert len(rows) == (n - 2) * (n - 3) // 2


def product_formula_values(n, edges):
    """deep_point_from_edges's closed form, each odd-difference value from
    two products over edge runs, O(n^3) multiplies in all: the oracle of
    its row recurrence."""
    ctx = edges[1, 2].ctx
    values = dict(edges)
    for i, j in polygon_segments(n):
        if (i, j) in values:
            continue
        if (j - i) % 2 == 0:
            values[i, j] = ctx.zero()
        else:
            num = product(ctx, (edges[t, t + 1] for t in range(i, j, 2)))
            den = product(ctx, (edges[t, t + 1] for t in range(i + 1, j - 1, 2)))
            values[i, j] = ctx.minus_one() ** ((j - i - 1) // 2) * num / den
    return values


class TestCertificatesRaise:
    # the construction certificates raise the module's error, so they hold
    # under python -O and a caller catching DeepLocusError sees them

    def test_a_chart_failure_stops_the_construction(self, monkeypatch):
        monkeypatch.setattr(polygon, "first_ptolemy_failure", lambda point: (1, 2, 3, 4))
        with pytest.raises(PolygonError, match=r"^constructed point fails Ptolemy at \[\]$"):
            unique_deep_point_typeA(3, QQ)

    def test_a_wrong_triangulation_count_is_refused(self, monkeypatch):
        monkeypatch.setattr(polygon, "catalan", lambda n: 0)
        with pytest.raises(PolygonError, match=r"^14 triangulations of the 6-gon, not catalan\(4\) = 0$"):
            polygon._triangulation_masks.__wrapped__(6)


class TestRowRecurrence:
    @pytest.mark.parametrize("ctx", [QQ, QI, F5, prime_field(101)], ids=str)
    def test_seeded_edges_match_the_product_formula(self, ctx):
        rng = random.Random(2601 + ctx.characteristic)
        for n in range(4, 42, 2):
            point = seeded_deep_point(ctx, n, rng)
            edges = {e: point.values[e] for e in polygon_edges(n)}
            assert point.values == product_formula_values(n, edges)

    @pytest.mark.parametrize("ctx", [QQ, QI, F2], ids=str)
    def test_type_a_points_match_the_product_formula(self, ctx):
        built = 0
        for rank in range(1, 48):
            try:
                point = unique_deep_point_typeA(rank, ctx)
            except NoDeepPoint:
                continue
            built += 1
            edges = {e: point.values[e] for e in polygon_edges(point.n)}
            assert point.values == product_formula_values(point.n, edges)
        assert built == (24 if ctx.characteristic == 2 else 12)


class TestLargePolygons:
    def test_formula_construction_beyond_enumeration_cap(self, rng):
        # n = 16 supports construction and residual checking, not the
        # exhaustive certificate
        n = 16
        cyc = [(i, i + 1) for i in range(1, n)]
        vals = [random_value(QQ, rng, nonzero=True) for _ in cyc]
        edges = dict(zip(cyc, vals))
        num = den = QQ.one()
        for k, e in enumerate(cyc):
            if k % 2 == 0:
                num = num * edges[e]
            else:
                den = den * edges[e]
        sign = QQ.minus_one() ** ((n + 2) // 2)
        edges[(1, n)] = num / (den * sign)
        point = deep_point_from_edges(n, edges)
        assert all(r.is_zero for _, r in ptolemy_residuals(point))
        for i, j in polygon_segments(n):
            assert point.value(i, j).is_zero == ((j - i) % 2 == 0)
        assert is_deep_bruteforce(point) is True
        with pytest.raises(SizeOutOfRange):
            polygon._triangulation_masks(15)

    def test_type_a_construction_rank_15(self):
        # rank 15 = 3 (mod 4): the 18-gon point exists, past the
        # enumeration cap but still residual-checkable
        point = unique_deep_point_typeA(15, QQ)
        assert all(r.is_zero for _, r in ptolemy_residuals(point))
        with pytest.raises(NoDeepPoint):
            unique_deep_point_typeA(13, QQ)


class TestSerialization:
    def test_json_round_trip(self):
        p = unique_deep_point_typeA(3, QQ)
        data = p.to_json()
        assert data["mode"] == MODE_TYPE_A
        assert PolygonPoint.from_json(data, QQ) == p

    def test_json_values_are_canonical_strings(self):
        p = badcut_point(QQ.rational(3, 2))
        strings = {(d["i"], d["j"]): d["value"] for d in p.to_json()["values"]}
        assert strings[(2, 4)] == "3/2"
        assert strings[(1, 4)] == "-1"
