import itertools
import random
from fractions import Fraction

import pytest

from deeplocus import rank2
from deeplocus.field import QI, QQ, FieldContext, UnsupportedExponent, _fraction_root, prime_field
from deeplocus.rank2 import (
    EnumerationUnsupported,
    InvalidPoint,
    Rank2Error,
    Rank2Point,
    Rank2Spec,
    StuckPropagation,
    _relation_rhs,
    closed_form_step,
    deep_points,
    division_step,
    e_vectors,
    extend_evaluation,
    g_polynomial,
    is_valid_point,
    presentation_residuals,
    relation_holds,
    negative_part,
    positive_part,
    verify_deep,
    y_monomial,
)

from conftest import F2, F3, F5, F7, random_value


def mk_point(spec, ctx, xs, ys=()):
    return Rank2Point(spec, tuple(ctx.from_int(x) for x in xs), tuple(ys))


class TestConstruction:
    def test_bad_specs_and_points_are_refused(self):
        with pytest.raises(Rank2Error, match="b and c must be positive"):
            Rank2Spec(0, 2)
        with pytest.raises(Rank2Error, match="e1 and e2 must have length f"):
            Rank2Spec(2, 2, 1, (1,), ())
        cap = rank2.MAX_RANK2_EXPONENT
        assert Rank2Spec(cap, cap).degree(1) == cap
        for b, c in ((cap + 1, 1), (1, cap + 1), (10**20, 2), (2, 10**20)):
            with pytest.raises(Rank2Error, match=f"MAX_RANK2_EXPONENT = {cap}"):
                Rank2Spec(b, c)
        spec = Rank2Spec(2, 2, 1, (1,), (0,))
        ones = (QQ.one(),) * 4
        with pytest.raises(Rank2Error, match="exactly the four values"):
            Rank2Point(spec, ones[:3], (QQ.one(),))
        with pytest.raises(Rank2Error, match="y-vector length must equal f"):
            Rank2Point(spec, ones, ())
        with pytest.raises(Rank2Error, match="frozen coefficients must be nonzero"):
            Rank2Point(spec, ones, (QQ.zero(),))

    @pytest.mark.parametrize("ctx", [QQ, F5], ids=["Q", "F5"])
    def test_a_point_built_with_a_list_of_ys_is_the_point_built_with_a_tuple(self, ctx):
        # frozen dataclasses compare and hash by field; a list of ys would
        # make the point unequal to its tuple twin and unhashable
        spec = Rank2Spec(2, 2, 1, (-1,), (-1,))
        for p, _ in deep_points(spec, ctx, [(ctx.from_int(-4),)] if ctx is QQ else None):
            listed = Rank2Point(spec, p.xs, list(p.ys))
            tupled = Rank2Point(spec, p.xs, tuple(p.ys))
            assert listed == tupled and hash(listed) == hash(tupled)
            assert listed.ys == tupled.ys and isinstance(listed.ys, tuple)
            assert len({listed, tupled}) == 1
            assert extend_evaluation(listed, 6).values == extend_evaluation(tupled, 6).values

    def test_a_spec_built_with_lists_is_the_spec_built_with_tuples(self):
        # e1 and e2 are kept as tuples, so a spec hashes and keys a dict
        listed, tupled = Rank2Spec(2, 2, 1, [1], [0]), Rank2Spec(2, 2, 1, (1,), (0,))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert isinstance(listed.e1, tuple) and isinstance(listed.e2, tuple)
        assert len({listed, tupled}) == 1

    @pytest.mark.parametrize("at", range(5))
    def test_a_point_with_values_from_two_fields_is_refused(self, at):
        # one value of Q(i), among the xs or as the y, in a point over Q
        spec = Rank2Spec(2, 2, 1, (1,), (0,))
        values = [QQ.from_int(t) for t in (1, 2, 3, 4, 5)]
        values[at] = QI.from_int(at + 1)
        with pytest.raises(Rank2Error, match="^x and y values come from different field contexts$"):
            Rank2Point(spec, values[:4], values[4:])

    @pytest.mark.parametrize("lo, hi", [(3, 6), (-2, 1)])
    def test_e_vector_window_must_hold_the_seed(self, lo, hi):
        with pytest.raises(Rank2Error, match="window must contain indices 1 and 2"):
            e_vectors(Rank2Spec(2, 2), lo, hi)


class TestEVectors:
    def test_coefficient_free_is_empty(self):
        spec = Rank2Spec(2, 2)
        w = e_vectors(spec, -4, 6)
        assert all(v == () for v in w.values())

    def test_forward_hand_example(self):
        spec = Rank2Spec(1, 1, 1, (1,), (0,))
        w = e_vectors(spec, 1, 3)
        assert w[3] == (-1,)

    def test_backward_hand_example(self):
        spec = Rank2Spec(2, 1, 1, (-1,), (1,))
        w = e_vectors(spec, 0, 2)
        # e_2 + e_0 = -c [e_1]_-  =  (-1,)
        assert w[0] == (-2,)

    def test_recursion_holds_everywhere(self):
        for spec in [
            Rank2Spec(2, 3, 2, (1, -2), (0, 1)),
            Rank2Spec(1, 4, 1, (-3,), (2,)),
        ]:
            w = e_vectors(spec, -6, 8)
            for i in range(-5, 8):
                coef = spec.degree(i + 1)
                left = tuple(
                    x + y for x, y in zip(w[i + 1], w[i - 1])
                )
                right = tuple(-coef * m for m in negative_part(w[i]))
                assert left == right


class TestResiduals:
    def test_kronecker_deep_point_over_qi(self):
        spec = Rank2Spec(2, 2)
        p = Rank2Point(spec, (QI.zero(), QI.i(), QI.zero(), QI.gaussian(0, -1)))
        r1, r2 = presentation_residuals(p)
        assert r1.is_zero and r2.is_zero

    def test_wrong_guess_rejected_for_2_1(self):
        spec = Rank2Spec(2, 1)
        p = mk_point(spec, QQ, [0, -1, 0, -1])
        r1, r2 = presentation_residuals(p)
        assert r1 == QQ.from_int(-2)
        assert r2.is_zero

    def test_all_ones_type_1_1(self):
        spec = Rank2Spec(1, 1)
        p = mk_point(spec, QQ, [1, 1, 1, 1])
        assert presentation_residuals(p) == (QQ.minus_one(), QQ.minus_one())


class TestDeepPointFamilies:
    def test_counts_1_1_2_1_2_2(self):
        assert deep_points(Rank2Spec(1, 1), QQ) == []
        pts_21 = deep_points(Rank2Spec(2, 1), QQ)
        assert len(pts_21) == 1
        point, parity = pts_21[0]
        assert parity == "odd"
        assert point.xs[0] == QQ.minus_one() and point.xs[2] == QQ.minus_one()
        assert point.xs[1].is_zero and point.xs[3].is_zero
        assert len(deep_points(Rank2Spec(2, 2), F5)) == 4

    def test_2_2_over_f5_alphas(self):
        pts = deep_points(Rank2Spec(2, 2), F5)
        even = {p.xs[1]._v for p, parity in pts if parity == "even"}
        odd = {p.xs[2]._v for p, parity in pts if parity == "odd"}
        assert even == {2, 3} and odd == {2, 3}

    def test_kronecker_field_dependence(self):
        spec = Rank2Spec(2, 2)
        assert deep_points(spec, QQ) == []
        assert len(deep_points(spec, QI)) == 4
        assert len(deep_points(spec, F2)) == 2

    def test_2_1_char_2_gains_even_family(self):
        pts = deep_points(Rank2Spec(2, 1), F2)
        assert len(pts) == 2
        assert {parity for _, parity in pts} == {"even", "odd"}

    def test_every_emitted_point_verifies(self):
        for spec, ctx in [
            (Rank2Spec(2, 2), F5),
            (Rank2Spec(2, 1), QQ),
            (Rank2Spec(3, 2), F7),
            (Rank2Spec(2, 2), QI),
        ]:
            for point, _ in deep_points(spec, ctx):
                assert verify_deep(point, N=10)

    def test_count_formula_f0(self):
        # c = 1 contributes no even-killing points unless char | b, etc.
        for b, c in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 4)]:
            for ctx in [F3, F5, F7, prime_field(13)]:
                spec = Rank2Spec(b, c)
                char = ctx.characteristic
                even = (
                    len(ctx.roots_of_minus_one(b))
                    if (c > 1 or b % char == 0)
                    else 0
                )
                odd = (
                    len(ctx.roots_of_minus_one(c))
                    if (b > 1 or c % char == 0)
                    else 0
                )
                assert len(deep_points(spec, ctx)) == even + odd

    def test_frozen_coefficients_over_f5(self):
        # derived fixture: (b, c) = (2, 2) with one frozen, e1=(1), e2=(0)
        spec = Rank2Spec(2, 2, 1, (1,), (0,))
        pts = deep_points(spec, F5)
        even = [(p, t) for p, t in pts if t == "even"]
        odd = [(p, t) for p, t in pts if t == "odd"]
        # beta*alpha^2 + 1 = 0 has solutions for beta in {1, 4} only
        assert len(even) == 4
        # alpha^2 + 1 = 0 has two roots; beta ranges over all of F5*
        assert len(odd) == 8
        for p, _ in pts:
            assert is_valid_point(p)
            assert verify_deep(p, N=8)

    def test_frozen_with_negative_exponent(self):
        spec = Rank2Spec(2, 2, 1, (-1,), (2,))
        for p, _ in deep_points(spec, F7):
            assert is_valid_point(p)
            assert verify_deep(p, N=6)

    def test_infinite_field_with_frozens_needs_betas(self):
        spec = Rank2Spec(2, 2, 1, (1,), (0,))
        with pytest.raises(EnumerationUnsupported):
            deep_points(spec, QQ)
        pts = deep_points(spec, QQ, betas=[(QQ.minus_one(),)])
        # -alpha^2 + ... : beta = -1 makes alpha^2 = 1 solvable over Q
        assert len(pts) >= 2
        for p, _ in pts:
            assert verify_deep(p, N=6)

    def test_supplied_beta_with_a_huge_square_root(self):
        # alpha^2 = -beta^-1 = 1/(3^40+7)^2 is a square past float precision
        m = 3**40 + 7
        spec = Rank2Spec(2, 2, 1, (1,), (0,))
        pts = deep_points(spec, QQ, betas=[(QQ.from_int(-(m**2)),)])
        assert {p.xs[1] for p, _ in pts} == {QQ.rational(1, m), QQ.rational(-1, m)}
        for p, _ in pts:
            assert verify_deep(p, N=6)

    def test_fraction_root_is_exact_beyond_float_range(self):
        assert _fraction_root(Fraction(10**400), 2) == 10**200
        assert _fraction_root(Fraction(10**400 + 1), 2) is None
        assert _fraction_root(Fraction(8, 3**300), 3) == Fraction(2, 3**100)
        assert _fraction_root(Fraction(0), 5) == 0

    def test_supplied_betas_over_gaussian_rationals(self):
        # beta = i: the even family needs alpha^2 = -beta^-2 = 1, the odd
        # family alpha^2 = -1; two points each
        spec = Rank2Spec(2, 2, 1, (2,), (0,))
        pts = deep_points(spec, QI, betas=[(QI.i(),)])
        assert len(pts) == 4
        even = [p for p, parity in pts if parity == "even"]
        assert {p.xs[1] for p in even} == {QI.one(), QI.minus_one()}
        for p, _ in pts:
            assert verify_deep(p, N=6)


class TestGPolynomial:
    def test_b_equals_1_is_constant(self):
        g = g_polynomial(Rank2Spec(1, 3, 1, (2,), (0,)), (2,))
        assert g.terms == ((1, (2,), 0),)

    def test_2_2_expansion(self):
        g = g_polynomial(Rank2Spec(2, 2), ())
        # (x^2 + 1)^2 = x^2 (x^2 + 2) + 1
        assert sorted(g.terms) == [(1, (), 2), (2, (), 0)]

    def test_2_1_expansion_constant_term(self):
        g = g_polynomial(Rank2Spec(2, 1), ())
        assert sorted(g.terms) == [(1, (), 1), (2, (), 0)]
        assert g.terms[0] == (2, (), 0)

    def test_defining_identity_numerically(self, rng):
        # (y^[e]+ x^c + y^[e]-)^b == x^c g(x) + y^(b [e]-) at random inputs
        for b, c, e in [(2, 2, (1,)), (3, 1, (-2,)), (2, 3, (1, -1))]:
            spec = Rank2Spec(b, c, len(e), e, tuple(0 for _ in e))
            g = g_polynomial(spec, e)
            for _ in range(10):
                x = random_value(QQ, rng)
                ys = tuple(random_value(QQ, rng, nonzero=True) for _ in e)
                lhs = (
                    y_monomial(ys, positive_part(e), QQ) * x**c
                    + y_monomial(ys, negative_part(e), QQ)
                ) ** b
                rhs = x**c * g.evaluate(x, ys) + y_monomial(
                    ys, tuple(b * m for m in negative_part(e)), QQ
                )
                assert lhs == rhs


def random_torus_point(spec, ctx, rng, tries=200):
    """A valid point with x0..x3 all nonzero, or None."""
    for _ in range(tries):
        x0 = random_value(ctx, rng, nonzero=True)
        x1 = random_value(ctx, rng, nonzero=True)
        ys = tuple(random_value(ctx, rng, nonzero=True) for _ in range(spec.f))
        x2 = _relation_rhs(spec, spec.e1, ys, x1, 1) / x0
        if x2.is_zero:
            continue
        x3 = _relation_rhs(spec, spec.e2, ys, x2, 2) / x1
        if x3.is_zero:
            continue
        return Rank2Point(spec, (x0, x1, x2, x3), ys)
    return None


class TestRandomTorusPoint:
    @pytest.mark.parametrize("ctx", [F7, QQ], ids=["F7", "Q"])
    @pytest.mark.parametrize(
        "spec", [Rank2Spec(2, 2), Rank2Spec(3, 1), Rank2Spec(2, 3, 1, (1,), (-1,))]
    )
    def test_valid_nonzero_and_seeded(self, spec, ctx):
        for seed in range(20):
            p = rank2.random_torus_point(spec, ctx, random.Random(seed))
            assert p is not None
            assert is_valid_point(p)
            assert not any(x.is_zero for x in p.xs)
            assert p == rank2.random_torus_point(spec, ctx, random.Random(seed))


    def test_none_when_every_draw_has_a_zero(self):
        # over F2 every draw is x0 = x1 = 1, and x2 = (1 + 1) / 1 = 0
        assert rank2.random_torus_point(Rank2Spec(1, 1), F2, random.Random(0)) is None


class TestEvaluationWindows:
    def test_kronecker_window_pattern(self):
        spec = Rank2Spec(2, 2)
        p = Rank2Point(spec, (QI.zero(), QI.i(), QI.zero(), QI.gaussian(0, -1)))
        ev = extend_evaluation(p, 6)
        for i in range(-6, 10):
            if i % 2 == 0:
                assert ev[i].is_zero
            elif i % 4 == 1:
                assert ev[i] == QI.i()
            else:
                assert ev[i] == QI.gaussian(0, -1)

    def test_2_1_odd_killing_window(self):
        [(p, parity)] = deep_points(Rank2Spec(2, 1), QQ)
        assert parity == "odd"
        ev = extend_evaluation(p, 6)
        for i in range(-6, 10):
            if i % 2 == 1:
                assert ev[i].is_zero
            else:
                assert ev[i] == QQ.minus_one()

    def test_type_a2_five_periodicity(self):
        spec = Rank2Spec(1, 1)
        p = mk_point(spec, QQ, [1, 1, 2, 3])
        assert is_valid_point(p)
        ev = extend_evaluation(p, 10)
        for i in range(-10, 9):
            assert ev[i] == ev[i + 5]

    def test_invalid_point_rejected(self):
        spec = Rank2Spec(2, 2)
        p = mk_point(spec, QQ, [0, 0, 1, 1])
        with pytest.raises(InvalidPoint):
            extend_evaluation(p, 4)

    def test_a_step_that_cannot_divide_needs_a_zero_right_side(self, monkeypatch):
        # a division step that gives up at a torus point, where the relation
        # it would divide through has a nonzero right side: no value of the
        # window can make that relation hold
        p = mk_point(Rank2Spec(1, 1), QQ, [1, 1, 2, 3])
        monkeypatch.setattr(rank2, "division_step", lambda *args: None)
        with pytest.raises(StuckPropagation, match="^x_2 = 0 but the relation at 3 has value 4$"):
            extend_evaluation(p, 2)

    def test_adjacent_values_never_both_vanish(self, rng):
        specs = [Rank2Spec(2, 2), Rank2Spec(3, 1), Rank2Spec(2, 3, 1, (1,), (-1,))]
        for spec in specs:
            for ctx in [QQ, F7]:
                p = random_torus_point(spec, ctx, rng)
                if p is None:
                    continue
                ev = extend_evaluation(p, 5)
                for i in range(-5, 8):
                    assert not (ev[i].is_zero and ev[i + 1].is_zero)

    def test_verify_deep_rejects_torus_point(self, rng):
        spec = Rank2Spec(2, 2)
        p = random_torus_point(spec, F7, rng)
        assert p is not None
        assert not verify_deep(p, N=6)


class TestClosedForm:
    @pytest.mark.parametrize("bc", [(2, 2), (3, 1), (1, 3), (2, 3)])
    @pytest.mark.parametrize("f", [0, 1])
    def test_division_and_closed_form_agree(self, bc, f, rng):
        b, c = bc
        spec = (
            Rank2Spec(b, c)
            if f == 0
            else Rank2Spec(b, c, 1, (rng.choice([-2, -1, 1, 2]),), (rng.choice([-1, 0, 1]),))
        )
        checked = 0
        for _ in range(40):
            p = random_torus_point(spec, F7, rng)
            if p is None:
                continue
            ev = extend_evaluation(p, 6)
            evw = e_vectors(spec, -7, 10)
            for j in range(4, 10):
                div = division_step(spec, evw, p.ys, ev.values, j, -1)
                closed = closed_form_step(spec, evw, p.ys, ev.values, j, -1)
                if div is not None:
                    assert div == closed == ev[j]
                    checked += 1
            for j in range(-6, 0):
                div = division_step(spec, evw, p.ys, ev.values, j, +1)
                closed = closed_form_step(spec, evw, p.ys, ev.values, j, +1)
                if div is not None:
                    assert div == closed == ev[j]
                    checked += 1
        assert checked > 50


def stepwise_window(p, N):
    """[-N, N+3] filled one step at a time with the public steps, each on a
    fresh e-vector window, so no step sees another step's tables."""
    lo, hi = -N, N + 3
    w = dict(enumerate(p.xs))
    steps = [(j, -1) for j in range(4, hi + 1)] + [(j, +1) for j in range(-1, lo - 1, -1)]
    for j, s in steps:
        v = division_step(p.spec, e_vectors(p.spec, lo - 1, hi + 1), p.ys, w, j, s)
        if v is None:
            v = closed_form_step(p.spec, e_vectors(p.spec, lo - 1, hi + 1), p.ys, w, j, s)
        w[j] = v
    return w


ORACLE_E = {0: ((), ()), 1: ((1,), (-1,)), 2: ((1, -2), (0, 1))}


class TestWindowOracle:
    @pytest.mark.parametrize("f", [0, 1, 2])
    @pytest.mark.parametrize("bc", list(itertools.product([1, 2, 3], repeat=2)))
    def test_extend_evaluation_matches_stepwise_fill(self, bc, f):
        b, c = bc
        spec = Rank2Spec(b, c, f, *ORACLE_E[f])
        rng = random.Random(1000 * b + 100 * c + f)
        checked = 0
        for ctx in (QQ, QI, prime_field(13)):
            points = [random_torus_point(spec, ctx, rng) for _ in range(2)]
            betas = None
            if f and not ctx.p:
                betas = [(ctx.minus_one(),) * f, (ctx.one(),) * f]
            try:
                deep = [q for q, _ in deep_points(spec, ctx, betas)]
            except UnsupportedExponent:
                # Q(i) roots need a power-of-two exponent
                deep = []
            points += deep[:: max(1, len(deep) // 3)]
            for p in points:
                if p is None:
                    continue
                ev = extend_evaluation(p, 4)
                assert ev.values == stepwise_window(p, 4)
                # the fill makes every relation inside the window hold,
                # which is why is_deep reads only the zero pattern
                evw = e_vectors(spec, ev.lo - 1, ev.hi + 1)
                for i in range(ev.lo + 1, ev.hi):
                    assert relation_holds(spec, evw, p.ys, ev.values, i), (ctx, p, i)
                checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("f", [0, 1])
    def test_one_window_serves_points_of_other_ys_and_fields(self, f):
        # a window's tables belong to one point's ys in one field: steps for
        # the next point, or another field, match steps on a fresh window
        spec = Rank2Spec(2, 3, f, *ORACLE_E[f])
        rng = random.Random(77 + f)
        shared = e_vectors(spec, -6, 9)
        compared = 0
        for _ in range(8):
            for ctx in (F7, QQ, prime_field(13)):
                p = random_torus_point(spec, ctx, rng)
                ev = extend_evaluation(p, 5)
                for j, s in [(4, -1), (6, -1), (-1, +1), (-3, +1)]:
                    for step in (division_step, closed_form_step):
                        fresh = step(spec, e_vectors(spec, -6, 9), p.ys, ev.values, j, s)
                        assert step(spec, shared, p.ys, ev.values, j, s) == fresh
                        compared += 1
        assert compared == 8 * 3 * 4 * 2

    def test_windows_past_the_cache_bound_match_an_uncached_fill(self):
        # 300 torus points and 300 deep points over Q, each with fresh frozen
        # values, overflow both caches; every window, and the closed form at
        # every step of a torus window, computed again after its entries
        # were evicted, still match a fill that builds each y-monomial and
        # g value from scratch
        torus = Rank2Spec(2, 3, 1, *ORACLE_E[1])
        kronecker = Rank2Spec(2, 2, 1, (-1,), (-1,))
        evw = e_vectors(torus, -5, 8)
        steps = [(j, -1) for j in range(4, 8)] + [(j, +1) for j in range(-1, -5, -1)]

        def fill(p):
            window = extend_evaluation(p, 4).values
            closed = [closed_form_step(p.spec, evw, p.ys, window, j, s) for j, s in steps]
            return window, closed if p.spec is torus else []

        points = []
        for k in range(1, 301):
            ys = (QQ.rational(k + 1, 5),)
            x0, x1 = QQ.from_int(k), QQ.rational(3, k + 2)
            x2 = uncached_rhs(torus, torus.e1, ys, x1, 1) / x0
            x3 = uncached_rhs(torus, torus.e2, ys, x2, 2) / x1
            points.append(Rank2Point(torus, (x0, x1, x2, x3), ys))
            # -beta = (k/2)^2, so alpha = +-k/2 is rational
            points += [q for q, _ in deep_points(kronecker, QQ, [(QQ.rational(-k * k, 4),)])][:1]
        assert len(points) == 600
        rank2._y.cache_clear()
        rank2._g_coefs.cache_clear()
        filled = [fill(p) for p in points]
        for cache in (rank2._y, rank2._g_coefs):
            info = cache.cache_info()
            assert info.misses > 256 and info.currsize <= 256 == info.maxsize
        for p, (window, closed) in zip(points, filled):
            expected = uncached_window(p, 4)
            assert window == expected
            if p.spec is torus:
                assert closed == [expected[j] for j, _ in steps]
            assert fill(p) == (window, closed)

    def test_frozen_values_in_a_list_fill_the_window_of_a_tuple(self):
        # Rank2Point keeps xs and ys as tuples, whatever sequences it was given
        cases = [
            (Rank2Spec(2, 3, 1, *ORACLE_E[1]), None),
            (Rank2Spec(3, 1, 2, *ORACLE_E[2]), None),
            (Rank2Spec(2, 2, 1, (-1,), (-1,)), [(QQ.from_int(-4),)]),
        ]
        rng = random.Random(23)
        for spec, betas in cases:
            points = [random_torus_point(spec, QQ, rng) for _ in range(3)]
            points += [q for q, _ in deep_points(spec, QQ, betas)] if betas else []
            for p in points:
                listed = Rank2Point(spec, list(p.xs), list(p.ys))
                assert isinstance(listed.xs, tuple) and isinstance(listed.ys, tuple)
                assert listed == p and hash(listed) == hash(p)
                assert presentation_residuals(listed) == presentation_residuals(p)
                assert extend_evaluation(listed, 5).values == extend_evaluation(p, 5).values
                assert verify_deep(listed, 5) == verify_deep(p, 5)


def uncached_rhs(spec, e, ys, x, i):
    """The relation's right side from y_monomial, bypassing the caches."""
    ctx = x.ctx
    return y_monomial(ys, positive_part(e), ctx) * x ** spec.degree(i) + y_monomial(
        ys, negative_part(e), ctx
    )


def uncached_window(p, N):
    """[-N, N+3] filled one step at a time from y_monomial and
    GPolynomial.evaluate: division where the divisor is nonzero, else the
    closed form of `closed_form_step`, written out."""
    spec, ys, ctx = p.spec, p.ys, p.xs[0].ctx
    lo, hi = -N, N + 3
    e = e_vectors(spec, lo - 1, hi + 1)
    w = dict(enumerate(p.xs))
    steps = [(j, -1) for j in range(4, hi + 1)] + [(j, +1) for j in range(-1, lo - 1, -1)]
    for j, s in steps:
        mid, x_mid = j + s, w[j + 2 * s]
        if not x_mid.is_zero:
            w[j] = uncached_rhs(spec, e[mid], ys, w[mid], mid) / x_mid
            continue
        outer, inner = spec.degree(mid), spec.degree(j)
        g = rank2._binomial_g(outer, inner, e[j + 2 * s]).evaluate(x_mid, ys)
        neg_adj = negative_part(e[mid])
        term1 = -y_monomial(ys, neg_adj, ctx) * x_mid ** (inner - 1) * g
        far = rank2.vsub(neg_adj, positive_part(e[j + 3 * s]))
        term2 = y_monomial(ys, far, ctx) * w[j + 4 * s] * w[mid] ** outer
        scale = rank2.vscale(-outer, negative_part(e[j + 2 * s]))
        w[j] = y_monomial(ys, scale, ctx) * (term1 + term2)
    return w


@pytest.mark.parametrize("ctx", [QI, F5], ids=["Qi", "F5"])
def test_verify_deep_builds_one_window(ctx, monkeypatch):
    # verify_deep reads the zero pattern of the window extend_evaluation filled
    calls = []

    def counted(spec, lo, hi):
        calls.append((lo, hi))
        return e_vectors(spec, lo, hi)

    monkeypatch.setattr(rank2, "e_vectors", counted)
    points = deep_points(Rank2Spec(2, 2), ctx)
    assert points
    for p, _ in points:
        calls.clear()
        assert verify_deep(p, N=6)
        assert calls == [(-7, 10)]


@pytest.mark.parametrize("e1", [(1,), (-1,), (0,)])
def test_zero_beta_is_rejected_before_any_root(e1, monkeypatch):
    def no_roots(self, target, k):
        raise AssertionError("root taken")

    monkeypatch.setattr(FieldContext, "roots", no_roots)
    spec = Rank2Spec(2, 2, 1, e1, (0,))
    with pytest.raises(Rank2Error, match=r"beta \(0\)"):
        deep_points(spec, QQ, betas=[(QQ.zero(),)])
    with pytest.raises(Rank2Error, match=r"beta \(1/2, 0\)"):
        deep_points(
            Rank2Spec(2, 2, 2, e1 * 2, (0, 0)),
            QQ,
            betas=[(QQ.one(), QQ.one()), (QQ.rational(1, 2), QQ.zero())],
        )


def test_an_emitted_point_failing_its_residuals_is_refused(monkeypatch):
    # every emitted point is residual-checked, also under python -O
    monkeypatch.setattr(rank2, "is_valid_point", lambda point: False)
    with pytest.raises(Rank2Error, match=r"^emitted point \(0 mod 5, 2 mod 5, 0 mod 5, 3 mod 5\) fails its residual check$"):
        deep_points(Rank2Spec(2, 2), F5)


def test_negative_window_depth_is_rejected_before_any_work(monkeypatch):
    # [-N, N+3] with N < 0 holds no relation, so a certificate on it would
    # check nothing; N = 0 still checks the relations at 1 and 2
    points = deep_points(Rank2Spec(2, 2), F5)
    assert points and all(verify_deep(p, N=0) for p, _ in points)

    def no_window(spec, lo, hi):
        raise AssertionError("window built")

    monkeypatch.setattr(rank2, "e_vectors", no_window)
    for p, _ in points:
        for N in (-1, -3):
            with pytest.raises(Rank2Error, match=f"at least 0, got {N}"):
                extend_evaluation(p, N)
            with pytest.raises(Rank2Error, match=f"at least 0, got {N}"):
                verify_deep(p, N)


def test_window_deeper_than_the_cap_is_rejected_before_any_work(monkeypatch):
    points = deep_points(Rank2Spec(2, 2), F5)
    assert points

    def no_window(spec, lo, hi):
        raise AssertionError("window built")

    monkeypatch.setattr(rank2, "e_vectors", no_window)
    N = rank2.MAX_WINDOW_DEPTH + 1
    for p, _ in points:
        with pytest.raises(Rank2Error, match=f"at most {rank2.MAX_WINDOW_DEPTH}, got {N}"):
            extend_evaluation(p, N)
        with pytest.raises(Rank2Error, match=f"at most {rank2.MAX_WINDOW_DEPTH}, got {N}"):
            verify_deep(p, N)


@pytest.mark.parametrize("ctx", [QQ, QI, F2, F5, prime_field(13)], ids=["Q", "Qi", "F2", "F5", "F13"])
def test_g_at_zero_is_the_expansion_at_zero(ctx):
    # g's constant term, outer * y^([e]+ + (outer - 1)[e]-), against
    # _binomial_g's expansion evaluated at 0, for every inner
    rng = random.Random(f"g-at-zero/{ctx!r}")
    for outer in (1, 2, 3, 5, 13):
        for e in [(0,), (1,), (-1,), (3,), (-2,), (1, -1), (-1, -1), (0, 2), (-3, 2)]:
            ys = tuple(random_value(ctx, rng, nonzero=True) for _ in e)
            got = rank2._g_at_zero(outer, e, ys, ctx)
            for inner in (1, 2, 4):
                assert got == rank2._binomial_g(outer, inner, e).evaluate(ctx.zero(), ys), (outer, e, inner)


def test_deep_windows_expand_no_g(monkeypatch):
    # a window's closed-form steps meet a zero x_mid only, and read g there
    # as its constant term, with no expansion of g; c = 1000 is
    # MAX_RANK2_EXPONENT
    def no_expansion(*args):
        raise AssertionError("g expanded")

    spec = Rank2Spec(2, 1000, 2, (-1, -1), (-1, -1))
    points = deep_points(spec, prime_field(13))
    assert points
    monkeypatch.setattr(rank2, "_binomial_g", no_expansion)
    rank2._g_coefs.cache_clear()
    for p, _ in points[:8]:
        assert verify_deep(p, N=6)
