"""Rank-2 cluster algebras of (b,c)-type with frozen coefficients.

The presentation has two relations

    x0*x2 = y^[e1]+ * x1^b + y^[e1]-
    x1*x3 = y^[e2]+ * x2^c + y^[e2]-

where y^v means prod_k y_k^(v_k) and [v]+/[v]- are the componentwise
nonnegative parts with v = [v]+ - [v]- (so [v]- = max(-v, 0); both
exponent vectors are nonnegative).  The doubly infinite cluster
variable sequence obeys x_{i-1} x_{i+1} = y^[e_i]+ x_i^(b|c) + y^[e_i]-
(exponent b at odd i), with exchange-direction vectors e_i defined by the
recursion e_{i+1} + e_{i-1} = -(b|c) [e_i]-.

Deep points kill exactly the even-indexed or exactly the odd-indexed
cluster variables.  Window propagation across a killed neighbor uses a
polynomial identity: writing (y^[e]+ x^c + y^[e]-)^b = x^c g(x) + y^(b[e]-)
defines g, and x_{2i+2} has a closed form in x_{2i-2}, x_{2i}, x_{2i+1}
and g(x_{2i}) that needs no division by cluster values.

`e_vectors` returns a window's e-vectors as a dict by index.  The steps
read y-monomials from `_y`, an lru_cache of `y_monomial` keyed by
(ys, v, ctx), and g's coefficient values from `_g_coefs`, keyed by
(outer, inner, e, ys, ctx); each keeps at most 256 entries, and the
windows of one spec over one field share them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import DeepLocusError
from .field import FieldContext, FieldValue

Vector = Tuple[int, ...]


class Rank2Error(DeepLocusError):
    pass


class InvalidPoint(Rank2Error):
    pass


class EnumerationUnsupported(Rank2Error):
    pass


class StuckPropagation(Rank2Error):
    """Neither the division rule nor the closed form can extend the window."""


class BetaSearchTooLarge(Rank2Error):
    """An F_p frozen-value search above MAX_BETA_SEARCH element tries."""


# element tries of deep_points' own beta search: (p-1)^f betas, each
# scanning all p elements for its alphas
MAX_BETA_SEARCH = 10**7
# the deepest window [-N, N+3] `extend_evaluation` fills: its time and the
# CLI's output grow linearly in N
MAX_WINDOW_DEPTH = 10**5


def positive_part(v: Vector) -> Vector:
    return tuple(max(x, 0) for x in v)


def negative_part(v: Vector) -> Vector:
    """Componentwise, nonnegative: v = positive_part(v) - negative_part(v)."""
    return tuple(max(-x, 0) for x in v)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vscale(k: int, v: Vector) -> Vector:
    return tuple(k * x for x in v)


def y_monomial(ys: Sequence[FieldValue], v: Vector, ctx: FieldContext) -> FieldValue:
    out = None
    for yk, vk in zip(ys, v):
        if vk:
            out = yk**vk if out is None else out * yk**vk
    return ctx.one() if out is None else out


# y_monomial keyed by (ys, v, ctx), ys a tuple: a key holds all its result
# depends on (values compare by field and payload), so no entry goes stale
_y = functools.lru_cache(maxsize=256)(y_monomial)


@dataclass(frozen=True)
class Rank2Spec:
    b: int
    c: int
    f: int = 0
    e1: Vector = ()
    e2: Vector = ()

    def __post_init__(self):
        if self.b < 1 or self.c < 1:
            raise Rank2Error("b and c must be positive")
        if len(self.e1) != self.f or len(self.e2) != self.f:
            raise Rank2Error("e1 and e2 must have length f")

    def degree(self, i: int) -> int:
        """Exponent in the mutation relation at index i."""
        return self.b if i % 2 == 1 else self.c


def e_vectors(spec: Rank2Spec, lo: int, hi: int) -> Dict[int, Vector]:
    """Exchange-direction vectors on [lo, hi], as a dict by index, from
    forward and backward recursion from e_1, e_2.

    Seed mutation of the extended exchange matrix gives
    e_{i+1} + e_{i-1} = -b [e_i]- at even i and -c [e_i]- at odd i: the
    coefficient is the mutation exponent of the adjacent odd/even indices.
    """
    if lo > 1 or hi < 2:
        raise Rank2Error("window must contain indices 1 and 2")
    vecs: Dict[int, Vector] = {1: tuple(spec.e1), 2: tuple(spec.e2)}
    for i in range(2, hi):
        coef = spec.degree(i + 1)
        vecs[i + 1] = vsub(vscale(-coef, negative_part(vecs[i])), vecs[i - 1])
    for i in range(1, lo, -1):
        coef = spec.degree(i + 1)
        vecs[i - 1] = vsub(vscale(-coef, negative_part(vecs[i])), vecs[i + 1])
    return vecs


@dataclass(frozen=True)
class Rank2Point:
    spec: Rank2Spec
    xs: Tuple[FieldValue, FieldValue, FieldValue, FieldValue]
    ys: Tuple[FieldValue, ...] = ()

    def __post_init__(self):
        # xs and ys given as any sequence are kept as tuples, so points
        # compare and hash by their values
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", tuple(self.ys))
        if len(self.xs) != 4:
            raise Rank2Error("need exactly the four values x0..x3")
        if len(self.ys) != self.spec.f:
            raise Rank2Error("y-vector length must equal f")
        for y in self.ys:
            if y.is_zero:
                raise Rank2Error("frozen coefficients must be nonzero")


def _relation_rhs(
    spec: Rank2Spec, e: Vector, ys: Sequence[FieldValue], x: FieldValue, i: int
) -> FieldValue:
    """y^[e]+ x^(b|c) + y^[e]-: the right side of the mutation relation at
    index i, with exchange-direction vector e and middle value x = x_i."""
    ctx = x.ctx
    ys = tuple(ys)
    return _y(ys, positive_part(e), ctx) * x ** spec.degree(i) + _y(ys, negative_part(e), ctx)


def presentation_residuals(p: Rank2Point) -> Tuple[FieldValue, FieldValue]:
    s = p.spec
    x0, x1, x2, x3 = p.xs
    return (
        x0 * x2 - _relation_rhs(s, s.e1, p.ys, x1, 1),
        x1 * x3 - _relation_rhs(s, s.e2, p.ys, x2, 2),
    )


def is_valid_point(p: Rank2Point) -> bool:
    r1, r2 = presentation_residuals(p)
    return r1.is_zero and r2.is_zero


# ---------------------------------------------------------------------------
# the g polynomial


@dataclass(frozen=True)
class GPolynomial:
    """g with Laurent-monomial coefficients: terms (int coef, y-exponent, x-degree)."""

    outer: int
    inner: int
    e: Vector
    terms: Tuple[Tuple[int, Vector, int], ...]

    def evaluate(self, x: FieldValue, ys: Sequence[FieldValue]) -> FieldValue:
        ctx = x.ctx
        out = ctx.zero()
        for coef, yexp, xdeg in self.terms:
            out = out + ctx.from_int(coef) * y_monomial(ys, yexp, ctx) * x**xdeg
        return out


def _binomial_g(outer: int, inner: int, e: Vector) -> GPolynomial:
    """g defined by (y^[e]+ x^inner + y^[e]-)^outer = x^inner * g(x) + y^(outer*[e]-)."""
    ep, em = positive_part(e), negative_part(e)
    terms = []
    for k in range(1, outer + 1):
        coef = math.comb(outer, k)
        yexp = vadd(vscale(k, ep), vscale(outer - k, em))
        terms.append((coef, yexp, (k - 1) * inner))
    return GPolynomial(outer, inner, tuple(e), tuple(terms))


def g_polynomial(spec: Rank2Spec, e_even: Vector) -> GPolynomial:
    return _binomial_g(spec.b, spec.c, tuple(e_even))


@functools.lru_cache(maxsize=256)
def _g_coefs(
    outer: int, inner: int, e: Vector, ys: Tuple[FieldValue, ...], ctx: FieldContext
) -> Tuple[FieldValue, ...]:
    """The coefficient values of _binomial_g(outer, inner, e) at ys, for the
    x-degrees 0, inner, 2*inner, ... of its terms, keyed like _y."""
    return tuple(
        ctx.from_int(coef) * _y(ys, yexp, ctx)
        for coef, yexp, _ in _binomial_g(outer, inner, e).terms
    )


# ---------------------------------------------------------------------------
# window propagation


def division_step(
    spec: Rank2Spec,
    evw: Mapping[int, Vector],
    ys: Sequence[FieldValue],
    window: Dict[int, FieldValue],
    j: int,
    s: int = -1,
) -> Optional[FieldValue]:
    """x_j from the mutation relation at j+s, dividing by x_{j+2s}; None if
    the divisor vanishes."""
    divisor = window[j + 2 * s]
    if divisor.is_zero:
        return None
    mid = j + s
    return _relation_rhs(spec, evw[mid], ys, window[mid], mid) / divisor


def closed_form_step(
    spec: Rank2Spec,
    evw: Mapping[int, Vector],
    ys: Sequence[FieldValue],
    window: Dict[int, FieldValue],
    j: int,
    s: int = -1,
) -> FieldValue:
    """x_j without dividing by any cluster value, via the g identity.

    Uses x_{j+s}, x_{j+2s}, x_{j+4s}; valid at every variety point.
    """
    ctx = window[j + s].ctx
    ys = tuple(ys)
    outer = spec.degree(j + s)
    inner = spec.degree(j)
    e_mid = evw[j + 2 * s]
    e_adj = evw[j + s]
    e_far = evw[j + 3 * s]
    x_mid = window[j + 2 * s]
    # g(x_mid), by Horner's rule in x_mid^inner
    coefs = _g_coefs(outer, inner, e_mid, ys, ctx)
    gval = coefs[-1]
    if len(coefs) > 1:
        t = x_mid**inner
        for c in reversed(coefs[:-1]):
            gval = gval * t + c
    term1 = -_y(ys, negative_part(e_adj), ctx) * x_mid ** (inner - 1) * gval
    term2 = (
        _y(ys, vsub(negative_part(e_adj), positive_part(e_far)), ctx)
        * window[j + 4 * s]
        * window[j + s] ** outer
    )
    return _y(ys, vscale(-outer, negative_part(e_mid)), ctx) * (term1 + term2)


@dataclass(frozen=True)
class Rank2Evaluation:
    point: Rank2Point
    lo: int
    hi: int
    values: Dict[int, FieldValue]

    def __getitem__(self, i: int) -> FieldValue:
        return self.values[i]

    def is_deep(self) -> bool:
        """The zero set is exactly the evens or exactly the odds; the
        relations in [lo+1, hi-1] hold by `extend_evaluation`."""
        zero, nonzero = set(), set()
        for i in range(self.lo, self.hi + 1):
            (zero if self.values[i].is_zero else nonzero).add(i % 2)
        return len(zero) == 1 and not zero & nonzero


def check_window_depth(N: int) -> None:
    """Refuse a window depth N outside 0 <= N <= MAX_WINDOW_DEPTH."""
    if N < 0:
        raise Rank2Error(f"window depth N must be at least 0, got {N}")
    if N > MAX_WINDOW_DEPTH:
        raise Rank2Error(f"window depth N must be at most {MAX_WINDOW_DEPTH}, got {N}")


def extend_evaluation(p: Rank2Point, N: int) -> Rank2Evaluation:
    """Fill the window [-N, N+3], 0 <= N <= MAX_WINDOW_DEPTH, so that every
    relation in [-N+1, N+2] holds: those at 1 and 2 are the input check, and
    each step makes the one at its middle index hold, by division or, where
    the divisor is 0, by the closed form once that relation's rhs is 0."""
    check_window_depth(N)
    if not is_valid_point(p):
        raise InvalidPoint(f"presentation residuals are {presentation_residuals(p)}")
    lo, hi = -N, N + 3
    evw = e_vectors(p.spec, lo - 1, hi + 1)
    w: Dict[int, FieldValue] = {i: p.xs[i] for i in range(4)}

    def advance(j: int, s: int) -> None:
        v = division_step(p.spec, evw, p.ys, w, j, s)
        if v is None:
            # divisor x_{j+2s} vanished: the relation at j+s forces its
            # right side to vanish too, or no valid extension exists
            mid = j + s
            rhs = _relation_rhs(p.spec, evw[mid], p.ys, w[mid], mid)
            if not rhs.is_zero:
                raise StuckPropagation(
                    f"x_{j + 2 * s} = 0 but the relation at {mid} has value {rhs}"
                )
            v = closed_form_step(p.spec, evw, p.ys, w, j, s)
        w[j] = v

    for j in range(4, hi + 1):
        advance(j, -1)
    for j in range(-1, lo - 1, -1):
        advance(j, +1)
    return Rank2Evaluation(p, lo, hi, w)


def relation_holds(
    spec: Rank2Spec,
    evw: Mapping[int, Vector],
    ys: Sequence[FieldValue],
    window: Dict[int, FieldValue],
    i: int,
) -> bool:
    """Exact check of the mutation relation at index i (a test oracle)."""
    return window[i - 1] * window[i + 1] == _relation_rhs(spec, evw[i], ys, window[i], i)


def verify_deep(p: Rank2Point, N: int = 10) -> bool:
    """Certify deepness on [-N, N+3]: extend_evaluation makes the relations
    hold (or raises) and Rank2Evaluation.is_deep reads the zero pattern."""
    return extend_evaluation(p, N).is_deep()


def random_torus_point(
    spec: Rank2Spec, ctx: FieldContext, rng: random.Random
) -> Optional[Rank2Point]:
    """A seeded valid point with x0..x3 all nonzero, or None after 100 draws.

    Each draw takes x0, x1 and then the frozen values from 1..p-1 over F_p
    and from 1..9 otherwise; the relations give x2 and x3."""

    def draw() -> FieldValue:
        return ctx.from_int(rng.randrange(1, ctx.p) if ctx.p else rng.randint(1, 9))

    for _ in range(100):
        x0, x1 = draw(), draw()
        ys = tuple(draw() for _ in range(spec.f))
        x2 = _relation_rhs(spec, spec.e1, ys, x1, 1) / x0
        if x2.is_zero:
            continue
        x3 = _relation_rhs(spec, spec.e2, ys, x2, 2) / x1
        if x3.is_zero:
            continue
        return Rank2Point(spec, (x0, x1, x2, x3), ys)
    return None


# ---------------------------------------------------------------------------
# deep point families


def _beta_candidates(
    spec: Rank2Spec, ctx: FieldContext, betas: Optional[Iterable[Tuple[FieldValue, ...]]]
) -> List[Tuple[FieldValue, ...]]:
    if spec.f == 0:
        return [()]
    if betas is not None:
        out = [tuple(b) for b in betas]
        for beta in out:
            if any(v.is_zero for v in beta):
                raise Rank2Error(
                    f"beta ({', '.join(map(str, beta))}) has a zero entry;"
                    " frozen values must be nonzero"
                )
        return out
    if ctx.p:
        tries = (ctx.p - 1) ** spec.f * ctx.p
        if tries > MAX_BETA_SEARCH:
            raise BetaSearchTooLarge(
                f"f={spec.f} over F_{ctx.p} tries (p-1)^f * p = {tries} elements;"
                f" it exceeds the cap MAX_BETA_SEARCH = {MAX_BETA_SEARCH}"
            )
        return list(itertools.product(list(ctx.nonzero_elements()), repeat=spec.f))
    raise EnumerationUnsupported(
        "f >= 1 over an infinite field requires caller-supplied beta candidates"
    )


def _family_alphas(
    ctx: FieldContext, beta: Tuple[FieldValue, ...], e: Vector, exponent: int
) -> List[FieldValue]:
    """Solutions alpha of  beta^[e]+ * alpha^exponent + beta^[e]- = 0
    (for f = 0 the empty monomial is 1, so alpha^exponent = -1)."""
    target = -y_monomial(beta, vsub(negative_part(e), positive_part(e)), ctx)
    return ctx.roots(target, exponent)


def deep_points(
    spec: Rank2Spec,
    ctx: FieldContext,
    betas: Optional[Iterable[Tuple[FieldValue, ...]]] = None,
) -> List[Tuple[Rank2Point, str]]:
    """All deep points over ctx, each tagged "even" or "odd" by which
    half of the cluster variables it kills.

    The even-killing family exists only when c > 1 or char divides b, and
    consists of (0, alpha, 0, alpha^-1 beta^[e2]-) with
    beta^[e1]+ alpha^b + beta^[e1]- = 0; the odd-killing family is the
    b <-> c mirror.  Every emitted point is residual-checked.
    """
    char = ctx.characteristic
    zero = ctx.zero()
    results: List[Tuple[Rank2Point, str]] = []
    candidates = _beta_candidates(spec, ctx, betas)
    # the even family, then its b <-> c, e1 <-> e2 mirror one index on:
    # (tag, b, e1, c, e2, the index of alpha; its partner is two on)
    families = [
        ("even", spec.b, spec.e1, spec.c, spec.e2, 1),
        ("odd", spec.c, spec.e2, spec.b, spec.e1, 2),
    ]
    for tag, b, e1, c, e2, at in families:
        if not (c > 1 or (char > 0 and b % char == 0)):
            continue
        for beta in candidates:
            for alpha in _family_alphas(ctx, beta, tuple(e1), b):
                xs = [zero] * 4
                xs[at] = alpha
                xs[(at + 2) % 4] = alpha.inverse() * y_monomial(beta, negative_part(tuple(e2)), ctx)
                point = Rank2Point(spec, tuple(xs), beta)
                if not is_valid_point(point):
                    raise Rank2Error(
                        f"emitted point ({', '.join(map(str, xs))}) fails its residual check"
                    )
                results.append((point, tag))

    return results
