"""Cross-family oracles: where two of the paper's families are one cluster
algebra, their deep points must agree.  The families run on independent
code paths that share only `field.py`.

- Kronecker = annulus11.  Rank 2 of type (2, 2) is the annulus with one
  marked point on each boundary.  Its two bridging arcs are the cluster
  variables and its two boundary arcs, with values o and i, are frozen,
  so every flip reads x_j x_{j+2} = x_{j+1}^2 + o*i: `rank2` with
  b = c = 2, e1 = e2 = (-1) and y = o*i, or, with o and i as separate
  frozen values, e1 = e2 = (-1, -1) and y = (o, i).  Over F_p every
  frozen value is tried; over Q(i) the test takes o = i = 1, where the
  deep points have x_odd = +-i.
- (1, 1) = A_2, the pentagon.  Neither side has a deep point.
"""

import json
import random

import pytest

from deeplocus.field import QI, QQ, prime_field
from deeplocus.rank2 import Rank2Spec, deep_points, extend_evaluation
from deeplocus.surface import (
    Dissection,
    deep_point_from_dissection,
    flip_evaluation,
    named_surface,
    solve_closing_value,
)

from conftest import F2, F5
from test_cli import run_cli

KRONECKER = Rank2Spec(2, 2, 1, (-1,), (-1,))
KRONECKER_F2 = Rank2Spec(2, 2, 2, (-1, -1), (-1, -1))
FLIPS = 6


def annulus11_sequence(arc, o, v):
    """x_0..x_7 of the annulus11 deep point on the dissection {arc}, with
    value o on the outer boundary arc and v on arc, closed on the inner
    boundary arc, and that arc's value i.  x_0 and x_1 are the values of
    the two interior arcs, and flipping them alternately gives x_2..x_7.
    The sequence is checked against the Kronecker relation with y = o*i on
    the way."""
    t = named_surface("annulus11")
    first, second = t.interior_arcs()
    outer, inner = t.boundary_arcs()
    d = Dissection(t, frozenset([arc]))
    i = solve_closing_value(d, {outer: o, arc: v}, inner)
    state = deep_point_from_dissection(d, {outer: o, inner: i}, {arc: v})
    xs = [state.values[first], state.values[second]]
    for k in range(FLIPS):
        aid = (first, second)[k % 2]
        state = flip_evaluation(state, aid)
        xs.append(state.values[aid])
    assert None not in xs
    for j in range(len(xs) - 2):
        assert xs[j] * xs[j + 2] == xs[j + 1] * xs[j + 1] + o * i, (xs, j)
    return tuple(xs), i


def annulus11_sequences(ctx):
    """(o, i, x_0..x_7) of every annulus11 deep point over ctx: one per
    dissection arc, outer boundary value and dissection value."""
    return {
        (o, i, xs)
        for arc in named_surface("annulus11").interior_arcs()
        for o in ctx.nonzero_elements()
        for v in ctx.nonzero_elements()
        for xs, i in [annulus11_sequence(arc, o, v)]
    }


def kronecker_windows(spec, ctx, betas=None):
    """(frozen values, x_0..x_7) of every deep point of spec over ctx, with
    the frozen values drawn from betas when given."""
    points = deep_points(spec, ctx, betas)
    windows = set()
    for point, _ in points:
        evaluation = extend_evaluation(point, FLIPS // 2 + 1)
        windows.add((point.ys, tuple(evaluation[j] for j in range(FLIPS + 2))))
    return len(points), windows


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_kronecker_deep_points_are_the_annulus11_deep_points(p):
    # f = 1: the one frozen value is y = o*i
    ctx = prime_field(p)
    count, windows = kronecker_windows(KRONECKER, ctx)
    sequences = {((o * i,), xs) for o, i, xs in annulus11_sequences(ctx)}
    assert count == len(windows) == len(sequences) == 2 * (p - 1)
    assert sequences == windows


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_kronecker_with_two_frozen_values_is_annulus11(p):
    # f = 2: o and i are separate frozen values, y = (o, i)
    ctx = prime_field(p)
    count, windows = kronecker_windows(KRONECKER_F2, ctx)
    sequences = {((o, i), xs) for o, i, xs in annulus11_sequences(ctx)}
    assert count == len(windows) == len(sequences) == 2 * (p - 1) ** 2
    assert sequences == windows


def test_kronecker_over_f101_on_a_seeded_sample():
    # 50 seeded (o, v) pairs per dissection arc: each annulus11 sequence
    # is one of the 200 Kronecker windows
    ctx = prime_field(101)
    count, windows = kronecker_windows(KRONECKER, ctx)
    assert count == len(windows) == 200
    rng = random.Random("kronecker/101")
    for arc in named_surface("annulus11").interior_arcs():
        for _ in range(50):
            o, v = (ctx.from_int(rng.randrange(1, 101)) for _ in range(2))
            xs, i = annulus11_sequence(arc, o, v)
            assert ((o * i,), xs) in windows


@pytest.mark.parametrize("spec", [KRONECKER, KRONECKER_F2], ids=["f1", "f2"])
def test_kronecker_over_qi_with_unit_frozen_values_is_annulus11(spec):
    # o = i = 1, so y = 1 and every surviving value is x_odd = +-i; over
    # Q(i) the frozen values are the caller's, passed as betas
    one, unit = QI.one(), QI.i()
    count, windows = kronecker_windows(spec, QI, [(one,) * spec.f])
    sequences = set()
    draws = [unit, -unit, one, QI.from_int(2), QI.gaussian(1, 1), QI.gaussian(0, 2)]
    for arc in named_surface("annulus11").interior_arcs():
        closing = {v: annulus11_sequence(arc, one, v) for v in draws}
        # the inner boundary value is -v^2, so it is 1 exactly for v = +-i
        assert [v for v, (_, i) in closing.items() if i == one] == [unit, -unit]
        sequences |= {((one,) * spec.f, xs) for v, (xs, _) in closing.items() if v in (unit, -unit)}
    assert all(x in (unit, -unit) for _, xs in sequences for x in xs if x)
    assert count == len(windows) == len(sequences) == 4
    assert sequences == windows


# (f, e1, e2): the pentagon without coefficients and with one or two
COEFFICIENTS = [(0, (), ()), (1, (1,), (-1,)), (1, (-1,), (-1,)), (2, (1, -1), (0, 1))]


@pytest.mark.parametrize("ctx", [QQ, QI, F2, F5], ids=["Q", "QI", "F2", "F5"])
@pytest.mark.parametrize("f, e1, e2", COEFFICIENTS, ids=["f0", "f1+", "f1-", "f2"])
def test_rank2_of_type_1_1_has_no_deep_point(ctx, f, e1, e2):
    spec = Rank2Spec(1, 1, f, e1, e2)
    # over Q and Q(i) the frozen values are the caller's; over F_p every
    # nonzero tuple is tried
    betas = None if ctx.p else [tuple(ctx.from_int(k + j) for j in range(f)) for k in (1, 2, -3)]
    assert deep_points(spec, ctx, betas) == []


def test_the_pentagon_has_no_deep_point():
    code, out = run_cli(["polygon", "deep-typea", "--rank", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["deep_point"] is None
    assert doc["reason"] == "rank 2: polygon size 5 is odd"
