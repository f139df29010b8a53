import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from deeplocus import markov, polygon
from deeplocus.field import (
    CHILD_SLOTS,
    ContextMismatch,
    DivisionByZero,
    FieldContext,
    FieldValue,
    InfiniteField,
    MAX_ROOT_SCAN_PRIME,
    QI,
    QQ,
    RelationTable,
    RootScanTooLarge,
    UnsupportedExponent,
    gaussian_rationals,
    prime_field,
    product,
    rationals,
)

from conftest import F2, F3, F5, random_value

ALL_CONTEXTS = [QQ, QI, F2, F5, prime_field(13)]
OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def test_modular_product():
    assert OPS["mul"](F5.from_int(3), F5.from_int(4)) == F5.from_int(2)


def test_rational_sum():
    assert QQ.rational(1, 2) + QQ.rational(1, 3) == QQ.rational(5, 6)


def test_i_squared_is_minus_one():
    assert QI.i() * QI.i() == QI.minus_one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.one() / QQ.zero()
    with pytest.raises(DivisionByZero):
        F5.zero().inverse()


@pytest.mark.parametrize("ctx", [QQ, QI, F5], ids=["Q", "Q(i)", "F5"])
def test_rational_with_a_zero_denominator_raises_division_by_zero(ctx):
    # over F5 a denominator vanishes mod 5 as well
    for den in (0, 5) if ctx is F5 else (0,):
        with pytest.raises(DivisionByZero):
            ctx.rational(1, den)
    assert issubclass(DivisionByZero, ZeroDivisionError)


def test_contexts_are_interned():
    assert prime_field(5) is prime_field(5)
    assert rationals() is QQ and gaussian_rationals() is QI
    assert prime_field(5) is not prime_field(7)


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        OPS["add"](QQ.one(), F5.one())
    for a, b in [(QQ.one(), F5.one()), (F5.one(), prime_field(7).one()), (QI.i(), QQ.one())]:
        with pytest.raises(ContextMismatch):
            a - b


@pytest.mark.parametrize("ctx", ALL_CONTEXTS)
def test_field_axioms(ctx, rng):
    for _ in range(60):
        a = random_value(ctx, rng)
        b = random_value(ctx, rng)
        c = random_value(ctx, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ctx.zero()
        assert a - b == a + (-b)
        if not a.is_zero:
            assert a * a.inverse() == ctx.one()
        assert a + b == b + a
        assert a * b == b * a


@pytest.mark.parametrize("ctx", ALL_CONTEXTS)
def test_powers(ctx, rng):
    for _ in range(20):
        a = random_value(ctx, rng, nonzero=True)
        assert a**0 == ctx.one()
        assert a**3 == a * a * a
        assert a**-2 == (a * a).inverse()


@pytest.mark.parametrize("ctx", ALL_CONTEXTS)
def test_power_matches_repeated_product(ctx, rng):
    for _ in range(3):
        a = random_value(ctx, rng, nonzero=True)
        prod = ctx.one()
        for n in range(41):
            assert a**n == prod
            prod = prod * a
        for n in range(1, 6):
            assert a**-n == (a**n).inverse()


def test_power_multiply_count(monkeypatch):
    # a power builds no intermediate value: over F_p it is one builtin pow,
    # over Q and Q(i) it works on the payload's integers
    count = [0]
    mul = FieldValue.__mul__

    def counting_mul(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FieldValue, "__mul__", counting_mul)
    for ctx in ALL_CONTEXTS:
        a = ctx.from_int(3)
        for n in range(-130, 131):
            a**n
        assert count[0] == 0, ctx


def square_and_multiply(a, n):
    """a**n by the square-and-multiply rule over field values: the oracle
    of the F_p builtin power and of the Q and Q(i) payload powers."""
    if n < 0:
        return square_and_multiply(a.inverse(), -n)
    result, base = a.ctx.one(), a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


@pytest.mark.parametrize("ctx", [F2, F3, F5, prime_field(13), prime_field(101), prime_field(65521)],
                         ids=["F2", "F3", "F5", "F13", "F101", "F65521"])
def test_prime_field_powers_match_square_and_multiply(ctx):
    rng = random.Random(f"pow/{ctx.p}")
    exponents = [0, 1, 2, ctx.p - 2, ctx.p - 1, ctx.p, ctx.p + 1, 2 * (ctx.p - 1), 10**40, 10**40 + 1]
    exponents += [rng.randrange(10**40) for _ in range(20)]
    exponents += [-n for n in exponents if n]
    for n in exponents:
        for a in [ctx.one(), ctx.minus_one()] + [random_value(ctx, rng, nonzero=True) for _ in range(3)]:
            assert a**n == square_and_multiply(a, n), (a, n)
    # zero to a positive power is zero, to the power 0 is one, and a
    # negative power of zero is refused as its inverse is
    zero = ctx.zero()
    for n in (1, 2, ctx.p - 1, ctx.p, 10**40, 10**40 + 1):
        assert zero**n == zero == square_and_multiply(zero, n)
    assert zero**0 == ctx.one()
    for n in (-1, -(ctx.p - 1), -(10**40)):
        with pytest.raises(DivisionByZero):
            zero**n


@pytest.mark.parametrize("ctx", [QQ, QI], ids=["Q", "Qi"])
def test_rational_and_gaussian_powers_match_square_and_multiply(ctx):
    # the payload powers against the field-value oracle, canonical form
    # included, for n in -130..130 and +-10^3
    rng = random.Random(f"pow/{ctx.kind}")
    exponents = list(range(-130, 131)) + [10**3, -(10**3)]
    values = [ctx.one(), ctx.minus_one(), ctx.from_int(2), ctx.rational(-3, 4)]
    if ctx is QI:
        values += [ctx.i(), ctx.gaussian(Fraction(1, 2), Fraction(-3, 5)), ctx.gaussian(2, 2)]
    values += [random_value(ctx, rng, nonzero=True) for _ in range(3)]
    for a in values:
        for n in exponents:
            got, want = a**n, square_and_multiply(a, n)
            assert got == want and got._v == want._v, (a, n)
    zero = ctx.zero()
    assert zero**0 == ctx.one()
    for n in (1, 2, 3, 130, 10**3):
        assert zero**n == zero == square_and_multiply(zero, n)
        with pytest.raises(DivisionByZero):
            zero**-n


def test_char_two_collapses_signs():
    assert F2.characteristic == 2
    assert F2.one() + F2.one() == F2.zero()
    assert F2.minus_one() == F2.one()


def test_enumeration():
    assert [v._v for v in F2.elements()] == [0, 1]
    assert [v._v for v in F3.elements()] == [0, 1, 2]
    with pytest.raises(InfiniteField):
        list(QQ.elements())


def test_roots_of_minus_one_examples():
    assert {v._v for v in F5.roots_of_minus_one(2)} == {2, 3}
    assert QQ.roots_of_minus_one(3) == [QQ.minus_one()]
    assert QQ.roots_of_minus_one(2) == []
    assert set(QI.roots_of_minus_one(2)) == {QI.i(), QI.gaussian(0, -1)}
    assert QI.roots_of_minus_one(1) == [QI.minus_one()]
    assert QI.roots_of_minus_one(4) == []
    with pytest.raises(UnsupportedExponent):
        QI.roots_of_minus_one(3)


def test_a_wrong_gaussian_root_is_refused(monkeypatch):
    # each Q(i) root is checked against its power, also under python -O
    from deeplocus import field
    from deeplocus.errors import DeepLocusError

    monkeypatch.setattr(field, "_gaussian_sqrt", lambda re, im: [(re + 1, im)])
    with pytest.raises(field.FieldError, match=r"^root 5 of 4 fails: its power 2 is 25$") as raised:
        QI.roots(QI.from_int(4), 2)
    assert isinstance(raised.value, DeepLocusError)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17])
@pytest.mark.parametrize("b", [1, 2, 3, 4, 6])
def test_roots_count_matches_cyclic_group_analysis(p, b):
    # in the cyclic group F_p^*, alpha^b = -1 is solvable iff gcd(b, p-1)
    # divides (p-1)/2, giving gcd(b, p-1) solutions; p = 2 degenerates to 1
    ctx = prime_field(p)
    found = len(ctx.roots_of_minus_one(b))
    if p == 2:
        assert found == 1
        return
    g = math.gcd(b, p - 1)
    expected = g if ((p - 1) // 2) % g == 0 else 0
    assert found == expected


def test_root_scan_is_capped(monkeypatch):
    # past the cap root finding refuses before trying any element
    def no_scan(self):
        raise AssertionError("root scan started")

    monkeypatch.setattr(FieldContext, "elements", no_scan)
    for ctx in (prime_field(65537), prime_field(2**31 - 1)):
        with pytest.raises(RootScanTooLarge, match=f"F_{ctx.p}.*{MAX_ROOT_SCAN_PRIME}"):
            ctx.roots_of_minus_one(2)
        with pytest.raises(RootScanTooLarge):
            ctx.roots(ctx.from_int(4), 2)


@pytest.mark.parametrize(
    "ctx, k", [(QQ, k) for k in range(1, 6)] + [(QI, k) for k in (1, 2, 4, 8)]
)
def test_roots_recover_seeded_powers(ctx, k):
    rng = random.Random(7000 + k)
    for _ in range(40):
        s = random_value(ctx, rng)
        found = ctx.roots(s**k, k)
        assert s in found
        assert all(v**k == s**k for v in found)
        keys = [v.sort_key() for v in found]
        assert keys == sorted(set(keys))


def test_roots_of_huge_exponents_answer_at_once():
    from deeplocus.field import _int_root

    # 2^k > m leaves 0 and 1 as the only candidate k-th roots of m
    big = 10**20
    assert QQ.roots(QQ.one(), big) == [QQ.minus_one(), QQ.one()]
    assert QQ.roots(QQ.minus_one(), big + 1) == [QQ.minus_one()]
    assert QQ.roots(QQ.zero(), big) == [QQ.zero()]
    assert QQ.roots(QQ.rational(1, 2), big) == [] == QQ.roots(QQ.minus_one(), big)
    assert F5.roots(F5.one(), big) == list(F5.nonzero_elements())
    for m in range(300):
        for k in range(1, 12):
            assert _int_root(m, k) == next((r for r in range(m + 1) if r**k == m), None), (m, k)


def test_roots_exponent_errors():
    for k in (3, 5, 6):
        with pytest.raises(UnsupportedExponent):
            QI.roots(QI.i(), k)
    for ctx in (QQ, QI, F5):
        with pytest.raises(ValueError):
            ctx.roots(ctx.one(), 0)


def test_prime_validation():
    for p in (4, 9, 1, 0, -7):
        with pytest.raises(ValueError, match=f"modulus {p} is not a prime"):
            prime_field(p)
    with pytest.raises(ValueError):
        prime_field(2**31 + 11)


@pytest.mark.parametrize("ctx", ALL_CONTEXTS)
def test_string_round_trip(ctx, rng):
    for _ in range(40):
        v = random_value(ctx, rng)
        assert ctx.parse(str(v)) == v


def test_canonical_strings():
    assert str(QQ.rational(3, 2)) == "3/2"
    assert str(QQ.rational(-4, 2)) == "-2"
    assert str(QI.gaussian(1, 2)) == "1+2i"
    assert str(QI.gaussian(0, -1)) == "-i"
    assert str(QI.gaussian("1/2", "-3/4")) == "1/2-3/4i"
    assert str(F5.from_int(9)) == "4 mod 5"
    assert QI.parse("1 + 2i") == QI.gaussian(1, 2)
    assert F5.parse("9") == F5.from_int(4)


def test_bad_constructions_and_operands_are_refused():
    with pytest.raises(ValueError, match="unknown field kind 'reals'"):
        FieldContext("reals")
    with pytest.raises(ContextMismatch, match="has no imaginary unit"):
        QQ.gaussian(1, 2)
    with pytest.raises(ContextMismatch, match="'3 mod 7' is not in F_5"):
        F5.parse("3 mod 7")
    with pytest.raises(TypeError, match="expected FieldValue, got int"):
        F5.one() + 1
    with pytest.raises(TypeError, match="exponent must be an integer"):
        QQ.one() ** Fraction(1, 2)
    with pytest.raises(DivisionByZero, match="cannot invert zero"):
        F5.one() / F5.zero()


def test_contexts_and_values_are_immutable():
    with pytest.raises(AttributeError, match="FieldContext is immutable"):
        QQ.p = 3
    v = F5.one()
    with pytest.raises(AttributeError, match="FieldValue is immutable"):
        v.ctx = QQ
    assert v.ctx is F5


def test_prime_field_rationals_truth_and_sort_keys():
    assert F5.rational(1, 2) == F5.from_int(3)
    assert F5.rational(-3, 4) * F5.from_int(4) == F5.from_int(-3)
    for ctx in ALL_CONTEXTS:
        assert not ctx.zero() and ctx.one() and ctx.minus_one()
    assert [F5.from_int(k).sort_key() for k in (7, -1, 0)] == [2, 4, 0]


def test_context_identity():
    assert prime_field(5) == prime_field(5)
    assert prime_field(5) != prime_field(7)
    assert QQ != QI
    assert QQ.characteristic == 0 and QI.characteristic == 0
    assert prime_field(7).characteristic == 7


# ---------------------------------------------------------------------------
# the exact identity test, against relations evaluated through field values

IDENTITY_FIELDS = [QQ, QI, F2, F3, prime_field(101)]
IDENTITY_IDS = ["Q", "Qi", "F2", "F3", "F101"]


def evaluate(ctx, values, relation):
    total = ctx.zero()
    for c, idx in relation:
        total = total + ctx.from_int(c) * product(ctx, (values[i] for i in idx))
    return total


def first_nonzero_by_field_values(ctx, values, relations):
    return next(
        (t for t, rel in enumerate(relations) if not evaluate(ctx, values, rel).is_zero), None
    )


def identity_draw(ctx, rng, nonzero=False):
    """Zero, a small signed value, or one with 30-digit parts."""
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            v = ctx.zero()
        elif kind == 1:
            v = random_value(ctx, rng)
        elif ctx.p:
            v = ctx.from_int(rng.randrange(-10**30, 10**30))
        else:
            re, im = (Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in "ri")
            v = ctx.gaussian(re, im) if ctx is QI else ctx.rational(re.numerator, re.denominator)
        if not nonzero or not v.is_zero:
            return v


def perturbed(ctx, values, rng):
    t = rng.randrange(len(values))
    return values[:t] + [values[t] + ctx.one()] + values[t + 1:]


def ptolemy_vectors(ctx, n, rng, count):
    """Points of the n-gon's variety extended from random seeds, each with
    a perturbed copy, and vectors drawn at random."""
    tris = polygon.enumerate_triangulations(n)
    segments = polygon.polygon_segments(n)
    for _ in range(count):
        tri = rng.choice(tris)
        seeds = list(polygon.polygon_edges(n)) + sorted(tri.diagonals)
        # nonzero seeds on a triangulation determine every other segment
        drawn = {s: identity_draw(ctx, rng, nonzero=True) for s in seeds}
        filled = polygon.extend_from_triangulation(n, tri, drawn, drawn).values
        values = [filled[s] for s in segments]
        yield values
        yield perturbed(ctx, values, rng)
        yield [identity_draw(ctx, rng) for _ in segments]
    if n % 2 == 0 and ctx.p != 2:
        # deep points: every even-gap diagonal is zero
        point = polygon.deep_point_from_edges(n, _closing_edges(ctx, n, rng))
        values = [point.values[s] for s in segments]
        yield values
        yield perturbed(ctx, values, rng)


def _closing_edges(ctx, n, rng):
    edges = polygon.polygon_edges(n)
    vals = [identity_draw(ctx, rng, nonzero=True) for _ in range(n - 1)]
    sign = ctx.minus_one() ** ((n + 2) // 2)
    out = dict(zip(edges, vals))
    out[(1, n)] = product(ctx, vals[0::2]) / (product(ctx, vals[1::2]) * sign)
    return out


def markov_vectors(ctx, rng, count):
    """(x, y, z, M, x', y', z') with x', y', z' the three mutations: points
    of the Markov variety, each with a perturbed copy, and random vectors."""
    for _ in range(count):
        x, y, z = (identity_draw(ctx, rng, nonzero=True) for _ in range(3))
        M = markov.markov_element(x, y, z)
        values = [x, y, z, M, y * z * M - x, x * z * M - y, x * y * M - z]
        yield values
        yield perturbed(ctx, values, rng)
        yield [identity_draw(ctx, rng) for _ in range(7)]
    zero = ctx.zero()
    yield [zero, zero, zero, identity_draw(ctx, rng)] + [zero] * 3


class TestIdentityOracle:
    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_ptolemy_tables(self, ctx, n):
        rng = random.Random(9100 + 10 * n + ctx.p)
        quads, relations = polygon._ptolemy_table(n)
        outcomes = set()
        for values in ptolemy_vectors(ctx, n, rng, count=4):
            want = first_nonzero_by_field_values(ctx, values, relations)
            assert ctx.first_nonzero_relation(values, relations) == want
            # the table is ptolemy_residuals, in its order
            point = polygon.PolygonPoint(
                n, polygon.MODE_BOUNDARY, dict(zip(polygon.polygon_segments(n), values))
            )
            first = next((q for q, r in polygon.ptolemy_residuals(point) if not r.is_zero), None)
            assert polygon.first_ptolemy_failure(point) == first
            assert first == (None if want is None else quads[want])
            outcomes.add(want is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_markov_node_and_exchange_relations(self, ctx):
        rng = random.Random(9200 + ctx.p)
        tables = [
            markov._node_relations(torus, dirs)
            for torus in (True, False)
            for dirs in (("x", "y", "z"), ("y", "z"), ("x", "z"), ("x", "y"), ())
        ]
        failing_at = set()
        for values in markov_vectors(ctx, rng, count=25):
            for relations in tables:
                want = first_nonzero_by_field_values(ctx, values, relations)
                assert ctx.first_nonzero_relation(values, relations) == want
                failing_at.add(want)
        assert {None, 0, 1} <= failing_at

    def test_constant_and_repeated_indices(self):
        relations = [((3, ()), (-1, (0, 0, 0))), ((1, (0, 1)), (-2, ()))]
        for ctx in IDENTITY_FIELDS:
            values = [ctx.from_int(3), ctx.rational(2, 3) if not ctx.p else ctx.from_int(2)]
            want = first_nonzero_by_field_values(ctx, values, relations)
            assert ctx.first_nonzero_relation(values, relations) == want
        cube_is_one = [((1, ()), (-1, (0, 0, 0)))]
        assert QQ.first_nonzero_relation([QQ.one()], cube_is_one) is None
        assert QQ.first_nonzero_relation([QQ.from_int(2)], cube_is_one) == 0
        assert QI.first_nonzero_relation([QI.i(), QI.rational(-1, 7)], [((1, (0, 0)), (1, ()))]) is None

    def test_values_from_another_field_are_refused(self):
        with pytest.raises(ContextMismatch):
            QQ.first_nonzero_relation([QQ.one(), F5.one()], [((1, (0, 1)),)])


# ---------------------------------------------------------------------------
# prepared relation tables: every table the package caches, against the
# field-value oracle


def fan(n):
    return polygon.PolygonTriangulation(n, frozenset((1, k) for k in range(3, n)))


def certificate(n, mode):
    """(ones, quads, table): the table a point of the n-gon in this mode is
    certified against (see polygon._first_violation), with how many of its
    relations come before the chart's and the chart's quads."""
    if mode == polygon.MODE_TYPE_A:
        return polygon._type_a_certificate(n)
    return (0,) + polygon._chart(n, 1, 2)


def certificate_vectors(ctx, n, mode, rng):
    """Rows of the n-gon: valid points seeded on a fan, with their edges at
    1 in type-A mode, and deep points, each with a perturbed copy; the row
    of ones; then random rows, once as drawn and once with valid edges, so
    that each part of a certificate is reached."""
    edges = polygon.polygon_edges(n)
    segments = polygon.polygon_segments(n)
    one = ctx.one()

    def edge_value():
        return one if mode == polygon.MODE_TYPE_A else identity_draw(ctx, rng, nonzero=True)

    points = []
    for _ in range(2):
        seeds = {d: identity_draw(ctx, rng, nonzero=True) for d in fan(n).diagonals}
        points.append(polygon.extend_from_triangulation(n, fan(n), seeds, {e: edge_value() for e in edges}))
    try:
        if mode == polygon.MODE_TYPE_A:
            points.append(polygon.unique_deep_point_typeA(n - 3, ctx))
        elif n % 2 == 0:
            points.append(polygon.deep_point_from_edges(n, _closing_edges(ctx, n, rng)))
    except polygon.PolygonError:
        pass
    for point in points:
        values = list(point.row)
        yield values
        yield perturbed(ctx, values, rng)
    # valid edges in both modes, and x_13 x_24 - x_12 x_34 - x_14 x_23 = -1
    yield [one] * len(segments)
    for _ in range(2):
        values = [identity_draw(ctx, rng) for _ in segments]
        yield values
        yield [edge_value() if s in edges else v for s, v in zip(segments, values)]


def node_vectors(ctx, dirs, rng):
    """markov_vectors as node rows: x, y, z, M, then the new value of each
    child in dirs."""
    for values in markov_vectors(ctx, rng, count=4):
        new = dict(zip(markov.DIRECTIONS, values[4:]))
        yield values[:4] + [new[d] for d in dirs]


def node_tables():
    for torus in (True, False):
        for k in range(4):
            for dirs in itertools.combinations(markov.DIRECTIONS, k):
                yield dirs, markov._node_relations(torus, dirs)


def check_prepared(ctx, values, table):
    """The first failure of a prepared table, which equals the field-value
    oracle's and that of the same relations prepared on the call."""
    want = first_nonzero_by_field_values(ctx, values, table)
    assert ctx.first_nonzero_relation(values, table) == want
    assert ctx.first_nonzero_relation(values, list(table)) == want
    return want


class TestPreparedTables:
    @pytest.mark.parametrize("mode", [polygon.MODE_BOUNDARY, polygon.MODE_TYPE_A])
    @pytest.mark.parametrize("n", range(4, 15))
    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_certificates(self, ctx, n, mode):
        rng = random.Random(f"certificate/{ctx.p}/{ctx.kind}/{n}/{mode}")
        ones, quads, table = certificate(n, mode)
        reached = set()
        for values in certificate_vectors(ctx, n, mode, rng):
            r = check_prepared(ctx, values, table)
            reached.add("valid" if r is None else "edge" if r < ones else "chart")
        expected = {"valid", "chart", "edge"} if mode == polygon.MODE_TYPE_A else {"valid", "chart"}
        assert reached == expected

    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_charts(self, ctx):
        rng = random.Random(f"chart/{ctx.p}/{ctx.kind}")
        failing = set()
        for n in (5, 8, 11):
            vectors = list(certificate_vectors(ctx, n, polygon.MODE_BOUNDARY, rng))
            for a, b in ((1, 2), (1, n), (2, 5), (n - 2, n - 1), (3, n)):
                quads, table = polygon._chart(n, a, b)
                for values in vectors:
                    failing.add(check_prepared(ctx, values, table) is None)
        assert failing == {True, False}

    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_markov_node_tables(self, ctx):
        rng = random.Random(f"node/{ctx.p}/{ctx.kind}")
        for dirs, table in node_tables():
            failing_at = {check_prepared(ctx, values, table) for values in node_vectors(ctx, dirs, rng)}
            assert None in failing_at and (len(failing_at) > 1 or not table)

    def test_tables_are_unrolled_by_shape(self):
        # each cached table keeps its relations, and flat rows for F_p and
        # Q: the exchange rows unrolled, the type-A edges' x_t - 1 and the
        # Markov torus relation generic
        for n in range(4, 15):
            boundary = polygon._chart(n, 1, 2)[1]
            typed = polygon._type_a_certificate(n)[2]
            assert [run[:2] for run in boundary.runs] == [("exchange", 0)]
            assert [run[:2] for run in typed.runs] == [("generic", 0), ("exchange", n)]
            assert typed.runs[1][2] == boundary.runs[0][2]
            assert typed == tuple(((1, (t,)), (-1, ())) for t in polygon._edge_slots(n)) + boundary
        for dirs, table in node_tables():
            shapes = [shape for shape, _, _ in table.runs]
            assert shapes == ["generic"] * (len(table) > len(dirs)) + ["exchange"] * bool(dirs)
            assert sum(len(rows) for _, _, rows in table.runs) == len(table)

    def test_foreign_values_are_refused(self):
        tables = [(45, polygon._type_a_certificate(10)[2]),
                  (28, polygon._chart(8, 2, 5)[1])]
        tables += [(4 + len(dirs), table) for dirs, table in node_tables()]
        for size, table in tables:
            for ctx, other in ((QQ, QI), (QI, QQ), (F3, prime_field(101)), (prime_field(101), QQ)):
                with pytest.raises(ContextMismatch):
                    ctx.first_nonzero_relation([ctx.one()] * (size - 1) + [other.one()], table)
                with pytest.raises(ContextMismatch):
                    ctx.first_nonzero_relation([other.zero()] * size, table)

    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_count_zeros(self, ctx):
        rng = random.Random(f"zero/{ctx.p}/{ctx.kind}")
        found = set()
        for _ in range(200):
            values = [identity_draw(ctx, rng) for _ in range(6)]
            indices = rng.sample(range(6), 3)
            want = sum(values[t].is_zero for t in indices)
            assert ctx.count_zeros(values, indices) == want
            found.add(want)
        assert {0, 1, 2} <= found
        # only the indexed values are read, and each one's field is checked
        other = QI if ctx is QQ else QQ
        assert ctx.count_zeros([other.zero(), ctx.zero()], [1]) == 1
        with pytest.raises(ContextMismatch):
            ctx.count_zeros([ctx.one(), other.one()], [0, 1])


def as_level(ctx, clusters):
    """Clusters (values, k) as a level of FieldContext.exchange_level."""
    return [(*ctx.exchange_root(values)[0][:3], k) for values, k in clusters]


def as_clusters(ctx, level):
    """A level's clusters as (values, k)."""
    return [(tuple(FieldValue(ctx, v) for v in cluster[:3]), cluster[3]) for cluster in level]


def level_tables(inner):
    """The identities of each cluster of a level, by field arithmetic:
    indexed [torus][k], k the slot of the last letter of the cluster's word,
    3 for the empty word; a cluster of the last level has no children."""
    return tuple(
        tuple(markov._node_relations(torus, child_dirs(k) if inner else ()) for k in range(4))
        for torus in (False, True)
    )


def child_dirs(k):
    """The directions of the children of a cluster whose slot is k."""
    return tuple(markov.DIRECTIONS[s] for s in CHILD_SLOTS[k])


def exchange_by_field_values(ctx, clusters, M, tables, zeros, inner):
    """exchange_level's answer by field arithmetic: the next level as
    (values, k), each cluster's torus flag, and the (index, row) of each
    cluster whose zeros or identities fail."""
    children, torus, failed = [], [], []
    for i, (values, k) in enumerate(clusters):
        row = list(values) + [M]
        for s in ([t for t in range(3) if t != k] if inner else []):
            a, b = (v for t, v in enumerate(values) if t != s)
            new = M * a * b - values[s]
            children.append((values[:s] + (new,) + values[s + 1 :], s))
            row.append(new)
        pattern = tuple(v.is_zero for v in values)
        t = zeros is None and not any(pattern)
        torus.append(t)
        if (zeros is not None and pattern != zeros) or first_nonzero_by_field_values(
            ctx, row, tables[t][k]
        ) is not None:
            failed.append((i, tuple(row)))
    return children, torus, failed


class TestLevelTest:
    """FieldContext.exchange_level, the Markov exchange tree's kernel on
    payloads, against field arithmetic: the next level, the torus flags and
    the failing rows."""

    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_levels_match_field_arithmetic(self, ctx):
        rng = random.Random(f"level/{ctx.p}/{ctx.kind}")
        vectors = list(markov_vectors(ctx, rng, count=6))
        # the points of the variety, and the all-zero one
        valid = vectors[0::3]
        outcomes = set()
        for _ in range(60):
            if rng.random() < 0.5:
                # a point and its three mutations, with the point's M
                v = rng.choice(valid)
                M = v[3]
                triples = [tuple(v[:3])] + [tuple(v[4 + s] if t == s else v[t] for t in range(3))
                                            for s in range(3)]
                clusters = [(rng.choice(triples), rng.randrange(4)) for _ in range(rng.randint(1, 6))]
            else:
                clusters = [(tuple(v[:3]), rng.randrange(4)) for v in rng.sample(vectors, rng.randint(1, 6))]
                M = rng.choice(vectors)[3]
            inner = rng.random() < 0.7
            zeros = rng.choice([None, None, (True, True, True), (False, True, False)])
            want = exchange_by_field_values(ctx, clusters, M, level_tables(inner), zeros, inner)
            children, torus, failed = ctx.exchange_level(as_level(ctx, clusters), M, zeros, inner)
            assert (as_clusters(ctx, children), torus, failed) == want
            assert children == as_level(ctx, want[0])
            assert as_clusters(ctx, ctx.exchange_children(as_level(ctx, clusters), M)) == (
                want[0] if inner else exchange_by_field_values(
                    ctx, clusters, M, level_tables(True), zeros, True)[0])
            outcomes.add((bool(failed), 0 < len(failed) < len(clusters), any(torus)))
        # passing levels with torus clusters, and levels that fail in part
        assert (False, False, True) in outcomes
        assert any(partial for _, partial, _ in outcomes)

    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_explored_levels_hold_and_a_bumped_value_fails_its_own_cluster(self, ctx, monkeypatch):
        # the levels explore_and_verify tests, each with one value of one
        # cluster raised by one: that cluster fails alone, unless its table
        # holds no identity (a leaf off the torus)
        rng = random.Random(f"level-tree/{ctx.p}/{ctx.kind}")
        seen = []
        original = FieldContext.exchange_level

        def spy(self, level, M, zeros, inner):
            seen.append((list(level), M, zeros, inner))
            return original(self, *seen[-1])

        monkeypatch.setattr(FieldContext, "exchange_level", spy)
        x, y, z = (identity_draw(ctx, rng, nonzero=True) for _ in range(3))
        p = markov.MarkovUpperPoint(x, y, z, markov.markov_element(x, y, z))
        assert markov.explore_and_verify(p, depth=4).passed
        monkeypatch.undo()
        assert [len(level) for level, *_ in seen] == [1, 3, 6, 12, 24]
        failed_any = set()
        for level, M, zeros, inner in seen:
            tables = level_tables(inner)
            children, torus, failed = ctx.exchange_level(level, M, zeros, inner)
            assert failed == [] and len(torus) == len(level)
            clusters = as_clusters(ctx, level)
            for _ in range(10):
                i, s = rng.randrange(len(level)), rng.randrange(3)
                values, k = clusters[i]
                bumped = list(clusters)
                bumped[i] = (values[:s] + (values[s] + ctx.one(),) + values[s + 1 :], k)
                want = exchange_by_field_values(ctx, bumped, M, tables, zeros, inner)
                got = ctx.exchange_level(as_level(ctx, bumped), M, zeros, inner)
                assert (as_clusters(ctx, got[0]), *got[1:]) == want
                assert [j for j, _ in want[2]] in ([i], [])
                failed_any.add(bool(want[2]))
        assert True in failed_any

    def test_foreign_values_are_refused(self):
        for ctx, other in ((QQ, QI), (QI, QQ), (F3, prime_field(101)), (prime_field(101), QQ)):
            one = ctx.one()
            with pytest.raises(ContextMismatch):
                ctx.exchange_root([one, one, other.one()])
            level = ctx.exchange_root([one, one, one])
            with pytest.raises(ContextMismatch):
                ctx.exchange_children(level, other.one())
            for inner in (True, False):
                with pytest.raises(ContextMismatch):
                    ctx.exchange_level(level, other.one(), None, inner)
            assert ctx.exchange_level([], one, None, True) == ([], [], [])


def node_rows(ctx, rng):
    """(x, y, z, M) rows for the node test: points of the Markov variety
    with small and 30-digit values, the all-zero cluster with a random M,
    and random rows."""
    for _ in range(4):
        x, y, z = (identity_draw(ctx, rng, nonzero=True) for _ in range(3))
        yield [x, y, z, markov.markov_element(x, y, z)]
    zero = ctx.zero()
    yield [zero, zero, zero, identity_draw(ctx, rng)]
    yield [identity_draw(ctx, rng) for _ in range(4)]


class TestNodeTest:
    """Each field's node test, the node formula of its record (ctx.arith),
    against the node's identities (markov._node_relations) evaluated by
    field arithmetic: for every torus flag, slot k and inner flag, on valid
    rows and on each row with one value raised by one."""

    @pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
    def test_node_test_matches_the_node_relations(self, ctx):
        rng = random.Random(f"node-test/{ctx.p}/{ctx.kind}")
        node = ctx.arith.node
        one = ctx.one()
        for torus, k, inner in itertools.product((True, False), range(4), (True, False)):
            dirs = child_dirs(k) if inner else ()
            table = markov._node_relations(torus, dirs)
            verdicts = set()
            for values in node_rows(ctx, rng):
                x, y, z, M = values
                # each child's new value as exchange_children forms it
                kids = ctx.exchange_children(ctx.exchange_root([x, y, z]), M) if inner else []
                kids = [kid for kid in kids if kid[3] in CHILD_SLOTS[k]]
                row = values + [FieldValue(ctx, kid[kid[3]]) for kid in kids]
                for t in range(-1, len(row)):
                    bumped = list(row)
                    if t >= 0:
                        bumped[t] = bumped[t] + one
                    payloads = [v._v for v in bumped]
                    children = [kid[: kid[3]] + (payloads[4 + j],) + kid[kid[3] + 1 :]
                                for j, kid in enumerate(kids)]
                    want = first_nonzero_by_field_values(ctx, bumped, table) is None
                    assert node(*payloads[:4], torus, children, ctx.p) is want
                    verdicts.add(want)
            # every row of a valid point holds; a bump fails some node that
            # has an identity
            assert verdicts == ({True, False} if table else {True})


def torus_relation(a, b, c, d):
    """x_a^2 + x_b^2 + x_c^2 - x_d x_a x_b x_c, as _node_relations writes it."""
    return ((1, (a, a)), (1, (b, b)), (1, (c, c)), (-1, (d, a, b, c)))


TORUS_FIELDS = [QQ, F2, F3, prime_field(101)]
TORUS_IDS = ["Q", "F2", "F3", "F101"]


class TestTorusRow:
    """The Markov torus relation, which the generic per-monomial loop
    reads, against the field-value oracle."""

    @pytest.mark.parametrize("ctx", TORUS_FIELDS, ids=TORUS_IDS)
    def test_torus_rows_match_the_generic_loop(self, ctx):
        rng = random.Random(f"torus/{ctx.p}/{ctx.kind}")
        outcomes = set()
        for trial in range(60):
            # distinct slots, or slots drawn with repeats
            slots = rng.sample(range(6), 4) if trial % 2 else rng.choices(range(6), k=4)
            table = RelationTable([torus_relation(*slots)])
            x, y, z = (identity_draw(ctx, rng, nonzero=True) for _ in range(3))
            valid = [identity_draw(ctx, rng) for _ in range(6)]
            a, b, c, d = slots
            valid[a], valid[b], valid[c] = x, y, z
            valid[d] = markov.markov_element(valid[a], valid[b], valid[c])
            bumped = list(valid)
            t = rng.choice(slots)
            bumped[t] = bumped[t] + ctx.one()
            for values in (valid, bumped, [identity_draw(ctx, rng) for _ in range(6)]):
                outcomes.add(check_prepared(ctx, values, table))
        assert outcomes == {None, 0}

    @pytest.mark.parametrize("ctx", TORUS_FIELDS + [QI], ids=TORUS_IDS + ["Qi"])
    def test_near_misses_stay_generic(self, ctx):
        near = [
            # a wrong index, or order, in the product
            ((1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 1, 4))),
            ((1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (0, 3, 1, 2))),
            ((1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 2, 1))),
            # a wrong sign or coefficient
            ((1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (1, (3, 0, 1, 2))),
            ((1, (0, 0)), (-1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 1, 2))),
            ((2, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 1, 2))),
            # a square that is not one, a monomial too many or too few
            ((1, (0, 1)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 1, 2))),
            ((1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 1, 2)), (0, ())),
            ((1, (0, 0)), (1, (1, 1)), (-1, (3, 0, 1))),
        ]
        rng = random.Random(f"near/{ctx.p}/{ctx.kind}")
        for relation in near:
            table = RelationTable([relation, torus_relation(0, 1, 2, 3)])
            for values in markov_vectors(ctx, rng, count=3):
                check_prepared(ctx, values, table)


@pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
def test_mul_mul_sub_is_a_product_then_a_difference(ctx):
    rng = random.Random(f"mul-mul-sub/{ctx.p}/{ctx.kind}")
    for _ in range(200):
        m, a, b, c = (identity_draw(ctx, rng) for _ in range(4))
        got = m.mul_mul_sub(a, b, c)
        assert got == m * a * b - c
        assert got._v == (m * a * b - c)._v
    # the Markov exchange of a torus cluster, as the tree forms it
    x, y, z = (identity_draw(ctx, rng, nonzero=True) for _ in range(3))
    M = markov.markov_element(x, y, z)
    assert M.mul_mul_sub(y, z, x) * x == y * y + z * z
    other = QI if ctx is QQ else QQ
    one = ctx.one()
    for args in ((other.one(), one, one), (one, other.one(), one), (one, one, other.one())):
        with pytest.raises(ContextMismatch):
            one.mul_mul_sub(*args)
    for args in ((1, one, one), (one, Fraction(1), one), (one, one, None)):
        with pytest.raises(TypeError):
            one.mul_mul_sub(*args)


@pytest.mark.parametrize("ctx", IDENTITY_FIELDS, ids=IDENTITY_IDS)
def test_ptolemy_rule_matches_field_arithmetic(ctx):
    # the surface walk's two formulas on payloads, the ratio a * b / c and
    # the test a * b + c * d = 0, against field arithmetic, payloads and
    # all; signed and 30-digit values, zeros, and sums made to vanish
    rng = random.Random(f"ptolemy/{ctx.p}/{ctx.kind}")
    ratio, vanishes, zero, p = ctx.ptolemy_rule()
    assert (zero, p) == (ctx.zero()._v, ctx.p)
    seen = set()
    for _ in range(300):
        a, b, d = (identity_draw(ctx, rng) for _ in range(3))
        c = identity_draw(ctx, rng, nonzero=True)
        pa, pb, pc = ctx.ptolemy_payloads([a, b, c])
        assert ratio(pa, pb, pc, p) == (a * b / c)._v
        for x in (d, -(a * b) / c):
            want = (a * b + c * x).is_zero
            assert vanishes(pa, pb, pc, ctx.ptolemy_payloads([x])[0], p) is want
            seen.add(want)
        with pytest.raises(DivisionByZero):
            ratio(pa, pb, zero, p)
    assert seen == {True, False}


def test_ptolemy_payloads_keep_none_and_refuse_foreign_values():
    values = [QQ.rational(-3, 4), None, QQ.zero()]
    payloads = QQ.ptolemy_payloads(values)
    assert payloads[1] is None
    assert QQ.ptolemy_values(payloads) == values
    with pytest.raises(ContextMismatch):
        QQ.ptolemy_payloads([QQ.one(), QI.one()])


class TestLongText:
    """Values whose integers are longer than the interpreter's default limit
    on int-to-text conversion (4,300 digits from Python 3.11) print in full."""

    @pytest.mark.parametrize("digits", [1, 4300, 4301, 9000, 30001])
    def test_decimal_writes_every_digit(self, digits):
        from deeplocus.field import _decimal

        rng = random.Random(digits)
        for n in (10 ** (digits - 1), 10**digits - 1, rng.randrange(10 ** (digits - 1), 10**digits)):
            text = _decimal(n)
            assert len(text) == digits and text[0] != "0"
            assert _decimal(-n) == "-" + text
            # read back 1,000 digits at a time, within int()'s own limit
            back = 0
            for i in range(0, digits, 1000):
                chunk = text[i : i + 1000]
                back = back * 10 ** len(chunk) + int(chunk)
            assert back == n

    def test_long_values_print_in_full(self):
        # 7 * 10^5000 + 3, written out: str(big) itself would be refused
        big, digits = 7 * 10**5000 + 3, "7" + "0" * 4999 + "3"
        cases = [
            (QQ.rational(big, 10**4400 + 1), f"{digits}/1{'0' * 4399}1"),
            (QQ.from_int(-big), f"-{digits}"),
            (QI.gaussian(Fraction(big, 3), Fraction(-1, 10**4400)), f"{digits}/3-1/1{'0' * 4400}i"),
            (QI.gaussian(0, big), f"{digits}i"),
            (QI.gaussian(1, Fraction(big, 2)), f"1+{digits}/2i"),
        ]
        for v, text in cases:
            assert str(v) == text
            assert repr(v) == f"<{text} : {v.ctx!r}>"


# ---------------------------------------------------------------------------
# Q and Q(i) against a fractions.Fraction oracle: a rational is a Fraction,
# an element of Q(i) the pair of Fractions (re, im); F_p against plain ints
# mod p, each inverse by Fermat's little theorem


def gaussian_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gaussian_inverse(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


ORACLES = {
    "Q": {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "neg": lambda a: -a,
        "inverse": lambda a: 1 / a,
        "zero": Fraction(0),
        "one": Fraction(1),
    },
    "Qi": {
        "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
        "sub": lambda a, b: (a[0] - b[0], a[1] - b[1]),
        "mul": gaussian_mul,
        "div": lambda a, b: gaussian_mul(a, gaussian_inverse(b)),
        "neg": lambda a: (-a[0], -a[1]),
        "inverse": gaussian_inverse,
        "zero": (Fraction(0), Fraction(0)),
        "one": (Fraction(1), Fraction(0)),
    },
}


def mod_oracle(p):
    return {
        "add": lambda a, b: (a + b) % p,
        "sub": lambda a, b: (a - b) % p,
        "mul": lambda a, b: a * b % p,
        "div": lambda a, b: a * pow(b, p - 2, p) % p,
        "neg": lambda a: -a % p,
        "inverse": lambda a: pow(a, p - 2, p),
        "zero": 0,
        "one": 1,
    }


ORACLE_PRIMES = {"F2": 2, "F3": 3, "F101": 101}
ORACLES.update({name: mod_oracle(p) for name, p in ORACLE_PRIMES.items()})


def oracle_power(oracle, a, n):
    out = oracle["one"]
    for _ in range(abs(n)):
        out = oracle["mul"](out, a)
    return oracle["inverse"](out) if n < 0 else out


def oracle_part(rng):
    """Zero, a small signed fraction, or one with 30-digit parts."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))


def oracle_draw(ctx, rng):
    """A value of ctx, built from its oracle at the boundary, and the oracle."""
    if ctx.p:
        n = rng.choice((0, rng.randrange(ctx.p), rng.randint(-10**30, 10**30)))
        return ctx.from_int(n), n % ctx.p
    if ctx is QQ:
        q = oracle_part(rng)
        return QQ.rational(q.numerator, q.denominator), q
    re, im = oracle_part(rng), oracle_part(rng)
    return QI.gaussian(re, im), (re, im)


def canonical_oracle(v):
    """v's payload as an oracle value, after checking that it is canonical:
    ints over a positive denominator, with gcd 1, or an int in [0, p)."""
    if v.ctx.p:
        assert type(v._v) is int and 0 <= v._v < v.ctx.p
        return v._v
    if v.ctx is QQ:
        num, den = v._v
        assert type(num) is int and type(den) is int
        assert den > 0 and math.gcd(num, den) == 1
        return Fraction(num, den)
    re, im, den = v._v
    assert type(re) is int and type(im) is int and type(den) is int
    assert den > 0 and math.gcd(re, im, den) == 1
    return (Fraction(re, den), Fraction(im, den))


@pytest.mark.parametrize(
    "ctx, name",
    [(QQ, "Q"), (QI, "Qi")] + [(prime_field(p), name) for name, p in ORACLE_PRIMES.items()],
    ids=["Q", "Qi", *ORACLE_PRIMES],
)
def test_exact_arithmetic_matches_the_fraction_oracle(ctx, name):
    oracle = ORACLES[name]
    rng = random.Random(f"field-oracle/{name}")
    drawn = [oracle_draw(ctx, rng) for _ in range(120)]
    drawn += [(ctx.zero(), oracle["zero"]), (ctx.one(), oracle["one"])]
    for v, x in drawn:
        assert canonical_oracle(v) == x
        assert v.is_zero == (x == oracle["zero"])
        assert v.sort_key() == x
        assert ctx.parse(str(v)) == v and hash(ctx.parse(str(v))) == hash(v)
        if ctx is QQ:
            assert str(v) == str(x)
        assert canonical_oracle(-v) == oracle["neg"](x)
        for n in range(-3, 4):
            if v.is_zero and n < 0:
                with pytest.raises(DivisionByZero):
                    v**n
            else:
                assert canonical_oracle(v**n) == oracle_power(oracle, x, n)
        if v.is_zero:
            with pytest.raises(DivisionByZero):
                v.inverse()
        else:
            assert canonical_oracle(v.inverse()) == oracle["inverse"](x)
    for _ in range(600):
        (a, x), (b, y) = rng.choice(drawn), rng.choice(drawn)
        for op in ("add", "sub", "mul"):
            assert canonical_oracle(OPS[op](a, b)) == oracle[op](x, y)
        if b.is_zero:
            with pytest.raises(DivisionByZero):
                a / b
        else:
            quotient = a / b
            assert canonical_oracle(quotient) == oracle["div"](x, y)
            # an equal value reached another way is equal and hashes equally
            assert quotient * b == a and hash(quotient * b) == hash(a)
        assert (a == b) == (x == y)
        assert hash(a - b + b) == hash(a) and a + b - b == a
    values = [v for v, _ in drawn]
    assert [canonical_oracle(v) for v in sorted(values, key=lambda v: v.sort_key())] == sorted(
        x for _, x in drawn
    )


def test_exact_arithmetic_builds_no_fraction(monkeypatch):
    # Fraction is only for text and numbers coming in and going out
    values = {ctx: [ctx.rational(-3, 4), ctx.rational(5, 6), ctx.from_int(2)] for ctx in (QQ, QI)}
    values[QI].append(QI.gaussian("1/2", "-2/3"))

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    relations = [((1, (0, 1)), (-1, (2, 2))), ((2, ()), (-1, (2,)))]
    for ctx, vals in values.items():
        for a in vals:
            assert not a.is_zero and (-a).inverse() ** -2 == a * a
            for b in vals:
                for op in ("add", "sub", "mul", "div"):
                    OPS[op](a, b)
        assert ctx.first_nonzero_relation(vals, relations) == 0
