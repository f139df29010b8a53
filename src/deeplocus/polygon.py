"""Cluster algebras of convex polygons.

A point assigns a field value to every segment x_{i,j} of a convex n-gon
(1 <= i < j <= n).  Valid points satisfy every Ptolemy relation

    x_{i,k} x_{j,l} = x_{i,j} x_{k,l} + x_{i,l} x_{j,k}      (i<j<k<l)

with edges nonzero ("boundary-coefficients" mode) or equal to one
("type-A" mode).  A point keeps its values once, as a row: a tuple in
polygon_segments(n) order.  The certificates read the row; the
segment-keyed mapping PolygonPoint.values is built only when read.

A point is deep when every triangulation of the polygon contains a
diagonal sent to zero.  On a valid point this is a parity condition,
proved in is_deep_bruteforce: the point is deep exactly when n is even
and x_{i,j} = 0 for every segment with j - i even.  In the chart (1, 2)
that is an O(n) read of two rows: x_{1,k} = 0 for odd k and x_{2,k} = 0
for even k.  The triangulations of each n-gon, enumerated and cached as
bitmasks over its diagonals for n <= MAX_ENUMERATION_N, stay only as the
oracle the tests hold the read to.

Certificates test the Ptolemy relations in a chart: the C(n-2, 2)
relations through the first segment with a nonzero value hold exactly
when all C(n, 4) do, and the first of them to fail is the first failure
in full order (see first_ptolemy_failure).  Each chart is cached as a
field.RelationTable, prepared once, which the field's exact identity test
checks without building field values.  A point is certified by one such
test on its row, against one table per (n, mode): in type-A mode each
edge's x_e - 1, then the chart (1, 2), which is the first chart once the
edges are nonzero.  The full per-n table serves the variety scan and the
tests as an oracle, and ptolemy_residuals stays as the field-value
oracle.

The exhaustive variety scan over F_p prunes: it assigns edges, then
diagonals, as raw residues and rejects a partial assignment as soon as a
Ptolemy relation on its assigned segments fails.  Its cap still counts
the nominal assignments, every edge and diagonal value combined.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DeepLocusError
from .field import FieldContext, FieldValue, Relation, RelationTable, product

Segment = Tuple[int, int]
Quad = Tuple[int, int, int, int]

MODE_BOUNDARY = "boundary-coefficients"
MODE_TYPE_A = "type-A"

MAX_ENUMERATION_N = 14
# deep points are built for n <= MAX_POLYGON_N: one holds O(n^2) values
MAX_POLYGON_N = 256
DEFAULT_MAX_SEARCH = 10**7
# DEEPLOCUS_MAX_SEARCH is refused, by its length alone, above this many
# characters: no scan comes near a cap of 10^100
MAX_SEARCH_CAP_CHARS = 100


class PolygonError(DeepLocusError):
    pass


class SizeOutOfRange(PolygonError):
    pass


class InvalidPoint(PolygonError):
    pass


class OddPolygon(PolygonError):
    pass


class ConditionViolated(PolygonError):
    pass


class ZeroEdge(PolygonError):
    pass


class NoDeepPoint(PolygonError):
    pass


class ZeroCutValue(PolygonError):
    pass


class NotADiagonal(PolygonError):
    pass


class SearchTooLarge(PolygonError):
    pass


class InvalidSearchCap(PolygonError):
    """DEEPLOCUS_MAX_SEARCH does not hold an integer, or is longer than
    MAX_SEARCH_CAP_CHARS."""


def seg(i: int, j: int) -> Segment:
    return (i, j) if i < j else (j, i)


def is_edge(s: Segment, n: int) -> bool:
    i, j = s
    return j == i + 1 or (i, j) == (1, n)


def polygon_edges(n: int) -> List[Segment]:
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


@functools.lru_cache(maxsize=32)
def _edges(n: int) -> Tuple[Segment, ...]:
    """polygon_edges(n), built once."""
    return tuple(polygon_edges(n))


def polygon_segments(n: int) -> List[Segment]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


@functools.lru_cache(maxsize=32)
def _segments(n: int) -> Tuple[Segment, ...]:
    """polygon_segments(n), built once: every point of the n-gon keys its
    values by these same tuples."""
    return tuple(polygon_segments(n))


def polygon_diagonals(n: int) -> List[Segment]:
    return [s for s in polygon_segments(n) if not is_edge(s, n)]


@functools.lru_cache(maxsize=32)
def _diagonal_set(n: int) -> frozenset:
    """The diagonals of the n-gon, as _segments(n) holds them."""
    return frozenset(s for s in _segments(n) if not is_edge(s, n))


def _index(n: int, i: int, j: int) -> int:
    """The position of the segment (i, j), i < j, in _segments(n): row a
    holds the n - a segments (a, a + 1), ..., (a, n)."""
    return (i - 1) * (2 * n - i) // 2 + j - i - 1


@functools.lru_cache(maxsize=32)
def _edge_slots(n: int) -> Tuple[int, ...]:
    """The positions of _edges(n) in _segments(n)."""
    return tuple(_index(n, *e) for e in _edges(n))


def segments_cross(a: Segment, b: Segment) -> bool:
    i, j = a
    k, l = b
    return (i < k < j < l) or (k < i < l < j)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class PolygonTriangulation:
    """A maximal set of pairwise non-crossing diagonals of an n-gon."""

    n: int
    diagonals: frozenset

    def __post_init__(self):
        if len(self.diagonals) != self.n - 3:
            raise SizeOutOfRange(
                f"a triangulation of an {self.n}-gon has {self.n - 3} diagonals"
            )
        allowed = _diagonal_set(self.n)
        if not self.diagonals <= allowed:
            raise NotADiagonal(
                f"{min(self.diagonals - allowed)} is not a diagonal (i, j), i < j, of the {self.n}-gon"
            )
        for a, b in itertools.combinations(sorted(self.diagonals), 2):
            if segments_cross(a, b):
                raise PolygonError(f"diagonals {a} and {b} cross")

    def sorted_diagonals(self) -> List[Segment]:
        return sorted(self.diagonals)


@functools.lru_cache(maxsize=None)
def _triangulation_masks(n: int) -> Tuple[int, ...]:
    """All triangulations of the n-gon as bitmasks over polygon_diagonals(n),
    bit t set when the t-th diagonal is used, in lexicographic order of the
    sorted diagonal lists.  Capped at n <= MAX_ENUMERATION_N."""
    if not (3 <= n <= MAX_ENUMERATION_N):
        raise SizeOutOfRange(f"n={n} outside [3, {MAX_ENUMERATION_N}]")
    bit = {d: 1 << t for t, d in enumerate(polygon_diagonals(n))}
    # masks[i, j]: triangulations of the sub-polygon on vertices i..j; its
    # triangle on (i, j) has apex t, and the sides (i, t), (t, j) are
    # diagonals of the n-gon unless they are edges
    masks: Dict[Segment, List[int]] = {(i, i + 1): [0] for i in range(1, n)}
    for span in range(2, n):
        for i in range(1, n + 1 - span):
            j = i + span
            masks[i, j] = [
                left | right | bit.get((i, t), 0) | bit.get((t, j), 0)
                for t in range(i + 1, j)
                for left in masks[i, t]
                for right in masks[t, j]
            ]
    found = masks[1, n]
    if len(found) != catalan(n - 2):
        raise PolygonError(
            f"{len(found)} triangulations of the {n}-gon, not catalan({n - 2}) = {catalan(n - 2)}"
        )
    # the diagonal lists all have n-3 entries, so the first difference
    # decides the order: the list holding the lower diagonal index comes
    # first, which is the larger mask once the bits are read backwards
    width = len(bit)
    found.sort(key=lambda m: int(f"{m:0{width}b}"[::-1], 2), reverse=True)
    return tuple(found)


def enumerate_triangulations(n: int) -> List[PolygonTriangulation]:
    """All triangulations of the n-gon in lexicographic order.

    Count is Catalan(n-2); capped at n <= 14 (desk scale).
    """
    diagonals = polygon_diagonals(n)
    return [
        PolygonTriangulation(
            n, frozenset(d for t, d in enumerate(diagonals) if mask >> t & 1)
        )
        for mask in _triangulation_masks(n)
    ]


class PolygonPoint:
    """A total assignment of field values to the segments of an n-gon.

    Points are immutable.  A point keeps its values once, as the tuple row
    in polygon_segments(n) order; value(i, j), equality and the
    certificates read the row.  The mapping values, from segment to value,
    is a read-only view built from the row on its first read."""

    __slots__ = ("n", "mode", "ctx", "row", "_values")

    def __init__(self, n: int, mode: str, values: Mapping[Segment, FieldValue]):
        if n < 3:
            raise SizeOutOfRange("polygon needs at least 3 vertices")
        if mode not in (MODE_BOUNDARY, MODE_TYPE_A):
            raise PolygonError(f"unknown mode {mode!r}")
        expected = _segments(n)
        try:
            row = tuple(values[s] for s in expected)
        except KeyError:
            missing = [s for s in expected if s not in values]
            raise PolygonError(f"missing values for segments {missing[:4]}") from None
        ctx = row[0].ctx
        if any(v.ctx is not ctx for v in row):
            raise PolygonError("segment values come from different field contexts")
        self.n = n
        self.mode = mode
        self.ctx: FieldContext = ctx
        self.row: Tuple[FieldValue, ...] = row
        self._values: Optional[Mapping[Segment, FieldValue]] = None

    @property
    def values(self) -> Mapping[Segment, FieldValue]:
        if self._values is None:
            self._values = MappingProxyType(dict(zip(_segments(self.n), self.row)))
        return self._values

    def value(self, i: int, j: int) -> FieldValue:
        if i > j:
            i, j = j, i
        if not 1 <= i < j <= self.n:
            raise KeyError((i, j))
        return self.row[_index(self.n, i, j)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolygonPoint)
            and self.n == other.n
            and self.mode == other.mode
            and self.row == other.row
        )

    def __repr__(self) -> str:
        return f"PolygonPoint(n={self.n}, mode={self.mode!r})"

    def mode_violations(self) -> List[str]:
        edges = zip(_edges(self.n), (self.row[t] for t in _edge_slots(self.n)))
        if self.mode == MODE_TYPE_A:
            one = self.ctx.one()
            return [f"edge {e} is {v}, expected 1" for e, v in edges if v != one]
        return [f"edge {e} is zero" for e, v in edges if v.is_zero]

    def is_valid(self) -> bool:
        return _first_violation(self) is None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "values": [
                {"i": i, "j": j, "value": str(v)} for (i, j), v in zip(_segments(self.n), self.row)
            ],
        }

    @classmethod
    def from_json(cls, data: dict, ctx: FieldContext) -> "PolygonPoint":
        values = {
            seg(item["i"], item["j"]): ctx.parse(item["value"])
            for item in data["values"]
        }
        return cls(data["n"], data["mode"], values)


def _ptolemy_residual(p: PolygonPoint, quad: Quad) -> FieldValue:
    i, j, k, l = quad
    return (
        p.value(i, k) * p.value(j, l)
        - p.value(i, j) * p.value(k, l)
        - p.value(i, l) * p.value(j, k)
    )


def ptolemy_residuals(p: PolygonPoint) -> List[Tuple[Quad, FieldValue]]:
    """One residual x_ik*x_jl - x_ij*x_kl - x_il*x_jk per 4-subset of vertices."""
    return [
        (quad, _ptolemy_residual(p, quad))
        for quad in itertools.combinations(range(1, p.n + 1), 4)
    ]


def _relation(n: int, quad: Quad) -> Relation:
    """The Ptolemy relation x_ik*x_jl - x_ij*x_kl - x_il*x_jk of the 4-subset
    quad = (i, j, k, l) of the n-gon, as signed monomials over the segment
    indices."""
    i, j, k, l = quad
    return (
        (1, (_index(n, i, k), _index(n, j, l))),
        (-1, (_index(n, i, j), _index(n, k, l))),
        (-1, (_index(n, i, l), _index(n, j, k))),
    )


@functools.lru_cache(maxsize=32)
def _ptolemy_table(n: int) -> Tuple[Tuple[Quad, ...], Tuple[Relation, ...]]:
    """The 4-subsets of vertices of the n-gon in combinations order, and
    each one's Ptolemy relation as signed monomials over the indices of
    polygon_segments(n).  The scan's source and the certificates' oracle."""
    quads = tuple(itertools.combinations(range(1, n + 1), 4))
    return quads, tuple(_relation(n, q) for q in quads)


@functools.lru_cache(maxsize=32)
def _chart(n: int, a: int, b: int) -> Tuple[Tuple[Quad, ...], RelationTable]:
    """_ptolemy_table(n) cut down to the C(n-2, 2) 4-subsets that hold both
    a and b, in the same order, built without the full table, with the
    relations prepared for the identity test."""
    others = [v for v in range(1, n + 1) if v != a and v != b]
    # adding {a, b} to each pair keeps combinations order: for two sets of
    # one size, the one holding the least element of their difference is
    # first, and {a, b} changes no difference
    quads = tuple(
        tuple(sorted((a, b, i, j))) for i, j in itertools.combinations(others, 2)
    )
    return quads, RelationTable(_relation(n, q) for q in quads)


def first_ptolemy_failure(p: PolygonPoint) -> Optional[Quad]:
    """The first 4-subset, in ptolemy_residuals order, whose residual does
    not vanish, or None.  Exact, and builds no field values.

    Only the chart is tested: the C(n-2, 2) relations on the 4-subsets that
    hold both ends of the first segment (a, b) with x_ab != 0.  With no
    such segment the all-zero point is valid.

    The chart decides.  Write p_ij for x_ij when i < j and -x_ji when
    i > j.  Put v_a = (1, 0) and v_b = (0, x_ab) in F^2, so
    det(v_a, v_b) = x_ab; as x_ab != 0, each other vertex k has a unique
    v_k with det(v_a, v_k) = p_ak and det(v_b, v_k) = p_bk.  Each monomial
    of a relation pairs up its four vertices, so in the relation on
    {a, b, i, j} x_ab multiplies x_ij and nothing else holds x_ij: the
    relation fixes x_ij, and det(v_i, v_j) satisfies it.  So when the chart
    holds, every x_ij is a 2x2 minor of one 2 x n matrix, and minors
    satisfy every Plucker relation, that is every Ptolemy relation, in
    every characteristic.

    The chart names the witness.  Vertices before a are dead: their
    segments precede (a, b), so are zero, and every relation on them
    vanishes.  Let q = (a', j, k, l) be the first failure in full order,
    so a' >= a.  If a' > a, or a' = a and j > b, every chart relation with
    least vertex a precedes q and holds, so the chart holds and q cannot
    fail.  Otherwise a' = a, and if b is not in q, a < j < b, so x_aj = 0.
    If l < b, x_ak and x_al are zero too and q vanishes.  If k < b < l,
    the chart relation on (a, j, k, b) precedes q and reads x_ab x_jk = 0,
    which kills q's one remaining term x_al x_jk.  If b < k, the chart
    relations on (a, j, b, k) and (a, j, b, l) precede q and give
    x_ab x_jk = x_ak x_jb and x_ab x_jl = x_al x_jb, so x_ab times q's
    residual x_ak x_jl - x_al x_jk is zero.  So q holds a and b, and the
    chart's first failure is q."""
    row = p.row
    first = next((t for t, v in enumerate(row) if not v.is_zero), None)
    if first is None:
        return None
    quads, relations = _chart(p.n, *_segments(p.n)[first])
    r = p.ctx.first_nonzero_relation(row, relations)
    return None if r is None else quads[r]


@functools.lru_cache(maxsize=32)
def _type_a_certificate(n: int) -> Tuple[int, Tuple[Quad, ...], RelationTable]:
    """The one relation table a type-A point of the n-gon is certified
    against, and how many of its relations come before the chart's: each
    edge's x_e - 1, in _edges(n) order, then the relations of the chart
    (1, 2), whose quads follow."""
    quads, relations = _chart(n, 1, 2)
    ones = tuple(((1, (t,)), (-1, ())) for t in _edge_slots(n))
    return len(ones), quads, RelationTable(ones + relations)


def _first_violation(p: PolygonPoint) -> Optional[str]:
    """The InvalidPoint text of p's first failure, or None when p is valid:
    its mode violations when it has any, else its first Ptolemy failure.

    One identity test on the row decides, against the chart (1, 2): once
    the edges are nonzero, (1, 2) is the first nonzero segment, so this
    chart is first_ptolemy_failure's and its first failure is that
    function's.  In type-A mode the edges' x_e - 1 come first, in one table
    (_type_a_certificate); in boundary mode the table is the chart itself,
    read from _chart's cache on every call, so no second copy of it
    outlives its eviction there."""
    if p.mode == MODE_BOUNDARY:
        if p.ctx.count_zeros(p.row, _edge_slots(p.n)):
            return "; ".join(p.mode_violations())
        ones = 0
        quads, relations = _chart(p.n, 1, 2)
    else:
        ones, quads, relations = _type_a_certificate(p.n)
    r = p.ctx.first_nonzero_relation(p.row, relations)
    if r is None:
        return None
    if r < ones:
        return "; ".join(p.mode_violations())
    quad = quads[r - ones]
    return f"Ptolemy residual at {quad} is {_ptolemy_residual(p, quad)}"


@functools.lru_cache(maxsize=32)
def _deep_slots(n: int) -> Tuple[int, ...]:
    """The positions in _segments(n) of the segments (1, k) for odd k >= 3
    and (2, k) for even k >= 4: a valid point of an even n-gon is deep iff
    it is zero on all of them (see is_deep_bruteforce)."""
    segments = [(1, k) for k in range(3, n + 1, 2)] + [(2, k) for k in range(4, n + 1, 2)]
    return tuple(_index(n, *s) for s in segments)


def is_deep_bruteforce(p: PolygonPoint) -> bool:
    """True iff every triangulation contains a zero diagonal.

    p must be valid: InvalidPoint names its mode violations or its first
    Ptolemy failure.  One identity test on the row checks both (see
    _first_violation).  Deepness is then read off the payloads of O(n) values
    of the chart's two rows: a valid point p is deep iff n is even,
    x_1k = 0 for every odd k >= 3 and x_2k = 0 for every even k >= 4.  This
    follows from a lemma, proved below: p is deep iff n is even and
    x_ij = 0 for every segment (i, j) with j - i even.  Both hold in every
    characteristic, and _is_deep, which ANDs the zeros against every
    triangulation, is their oracle in the tests.

    The lemma, if: for even n, parity 2-colours the cycle 1, 2, ..., n, 1
    with adjacent vertices apart.  A triangle has three vertices, so two
    of one parity; they are not adjacent, so the side between them is a
    diagonal of the triangulation, and p sends it to 0.

    The lemma, only if: p's edges are nonzero in both modes.
    first_ptolemy_failure's chart (1, 2) gives v_1 = (1, 0),
    v_2 = (0, x_12), and v_3, ..., v_n in F^2 with x_ij = det(v_i, v_j).
    The edges are nonzero, so every v_k is nonzero; colour vertex k by its
    line [v_k] in P^1(F).  Then x_ij = 0 exactly when i and j have one
    colour, and adjacent vertices have different colours.  With at least
    3 colours some triangulation has no zero diagonal, by induction on n.
    If a colour is used once, the fan from its vertex is one.  If not,
    some vertex k has neighbours of different colours, or else the
    colours at k - 1 and k + 1 agree for every k and at most two are used.
    Its ear's diagonal (k - 1, k + 1) is then nonzero; cutting the ear off
    leaves a polygon with the same colours, still at least 3 and adjacent
    ones apart, whose triangulation with no zero diagonal, plus
    (k - 1, k + 1), is one of the n-gon.  So a deep point uses exactly two
    colours, which alternate around the cycle: n is even, colour is
    parity, and same-parity segments are 0.

    The O(n) read.  The segments (1, k) with k odd and (2, k) with k even
    join vertices of one parity, so a deep point is zero on them.
    Conversely, x_1k = det(v_1, v_k) = 0 puts v_k on the line [v_1], and
    x_2k = det(v_2, v_k) = 0 puts it on [v_2].  So if the read holds, every
    odd vertex is on [v_1] and every even one on [v_2]; two vertices of one
    parity then have parallel vectors, and x_ij = det(v_i, v_j) = 0 on
    every segment with j - i even.  By the lemma, p is deep."""
    bad = _first_violation(p)
    if bad is not None:
        raise InvalidPoint(bad)
    if p.n % 2:
        return False
    slots = _deep_slots(p.n)
    return p.ctx.count_zeros(p.row, slots) == len(slots)


def _is_deep(p: PolygonPoint) -> bool:
    """The oracle of is_deep_bruteforce: whether every triangulation of the
    n-gon uses a diagonal that p sends to zero, one AND of the zeros
    against each cached triangulation mask.  Capped at n <= MAX_ENUMERATION_N."""
    zeros = sum(1 << t for t, d in enumerate(polygon_diagonals(p.n)) if p.value(*d).is_zero)
    return all(mask & zeros for mask in _triangulation_masks(p.n))


def _check_polygon_size(n: int) -> None:
    if n > MAX_POLYGON_N:
        raise SizeOutOfRange(f"the {n}-gon exceeds the cap MAX_POLYGON_N = {MAX_POLYGON_N}")


def alternating_condition(cycle: Sequence[FieldValue]) -> Tuple[FieldValue, FieldValue]:
    """For edge values of an even n-gon in cycle order (1,2),(2,3),...,
    (n-1,n),(1,n): their alternating product, odd slots over even slots,
    and the sign (-1)**((n+2)/2) that it equals when a deep point extends
    them."""
    ctx = cycle[0].ctx
    alt = product(ctx, cycle[0::2]) / product(ctx, cycle[1::2])
    return alt, ctx.minus_one() ** ((len(cycle) + 2) // 2)


def deep_point_from_edges(
    n: int, edge_values: Mapping[Segment, FieldValue]
) -> PolygonPoint:
    """Extend nonzero edge values to the unique deep point, when one exists.

    Requires n even and the alternating product of the edge values around
    the polygon to equal (-1)**((n+2)/2); then diagonals with even index
    difference get 0 and the others are fixed sign-alternating ratios of
    edge runs,

        x_ij = (-1)**((j-i-1)/2) e_i e_{i+2} ... e_{j-1} / (e_{i+1} ... e_{j-2})

    with e_t = x_{t,t+1}.  Along row i, x_{i,j+2} = x_{i,j} r_j with
    r_j = -e_{j+1}/e_j, so after n - 2 divisions each value costs one
    multiply.  n is capped at MAX_POLYGON_N, checked before any value is
    built.
    """
    if n < 3:
        raise SizeOutOfRange("polygon needs at least 3 vertices")
    _check_polygon_size(n)
    if n % 2 == 1:
        raise OddPolygon(f"the {n}-gon has no deep points")
    edges = polygon_edges(n)
    missing = [e for e in edges if e not in edge_values]
    if missing:
        raise PolygonError(f"missing edge values {missing}")
    for e in edges:
        if edge_values[e].is_zero:
            raise ZeroEdge(f"edge {e} must be nonzero")
    ctx = edge_values[edges[0]].ctx
    alt, sign = alternating_condition([edge_values[e] for e in edges])
    if alt != sign:
        raise ConditionViolated(
            f"alternating edge product is {alt}, needed {sign}"
        )

    e = [None] + [edge_values[t, t + 1] for t in range(1, n)]
    r = [None] + [-(e[j + 1] / e[j]) for j in range(1, n - 1)]
    zero = ctx.zero()
    values: Dict[Segment, FieldValue] = {}
    for i in range(1, n):
        x = values[i, i + 1] = e[i]
        # row 1 ends at the closing edge (1, n): the alternating condition
        # says the recurrence gives it its given value
        for j in range(i + 2, n + 1):
            if (j - i) % 2 == 0:
                values[i, j] = zero
            else:
                x = values[i, j] = x * r[j - 2]

    point = PolygonPoint(n, _mode_of(values, n), values)
    if first_ptolemy_failure(point) is not None:
        raise PolygonError(
            "constructed point fails Ptolemy at"
            f" {[q for q, r in ptolemy_residuals(point) if not r.is_zero][:3]}"
        )
    return point


def unique_deep_point_typeA(n_rank: int, ctx: FieldContext) -> PolygonPoint:
    """The unique deep point of the coefficient-free type-A rank n_rank algebra.

    Exists iff n_rank = 3 (mod 4), or n_rank = 1 (mod 4) in characteristic 2.
    """
    if n_rank < 1:
        raise SizeOutOfRange("rank must be positive")
    n = n_rank + 3
    if n % 2 == 1:
        raise NoDeepPoint(f"rank {n_rank}: polygon size {n} is odd")
    _check_polygon_size(n)
    edge_values = {e: ctx.one() for e in polygon_edges(n)}
    alt, sign = alternating_condition(list(edge_values.values()))
    if alt != sign:
        raise NoDeepPoint(f"rank {n_rank}: needs 1 = (-1)^{(n + 2) // 2}, false in this field")
    return deep_point_from_edges(n, edge_values)


def _glue(
    values: Dict[Segment, FieldValue], i: int, j: int, left: Sequence[int], right: Sequence[int]
) -> None:
    """Fill x_ab in place for each a in left and b in right across the known
    nonzero chord (i, j), with i, a, j, b in cyclic order, from the crossing
    Ptolemy relation x_ij x_ab = x_ia x_jb + x_aj x_bi."""
    chord = values[seg(i, j)]
    for a in left:
        ia, aj = values[seg(i, a)], values[seg(a, j)]
        for b in right:
            values[seg(a, b)] = (ia * values[seg(j, b)] + aj * values[seg(b, i)]) / chord


def _mode_of(values: Mapping[Segment, FieldValue], n: int) -> str:
    """Type-A when every edge value is one, boundary-coefficients otherwise."""
    one = values[(1, n)].ctx.one()
    return MODE_TYPE_A if all(values[e] == one for e in _edges(n)) else MODE_BOUNDARY


def _complete(n: int, values: Dict[Segment, FieldValue], message: str) -> PolygonPoint:
    """The point with these values on every segment; raises InvalidPoint
    with message unless it satisfies every Ptolemy relation."""
    point = PolygonPoint(n, _mode_of(values, n), values)
    if not point.is_valid():
        raise InvalidPoint(message)
    return point


def extend_from_triangulation(
    n: int,
    tri: PolygonTriangulation,
    diagonal_values: Mapping[Segment, FieldValue],
    edge_values: Mapping[Segment, FieldValue],
) -> PolygonPoint:
    """The unique point with the given nonzero values on the edges and on
    the diagonals of tri, a triangulation of the n-gon.  Each chord (i, j)
    of tri, and the edge (1, n), has its triangle (i, t, j) inside i..j;
    shortest first, gluing across (t, j) and then (i, t) fills the
    sub-polygon on i..j, dividing only by seed values."""
    if tri.n != n:
        raise SizeOutOfRange(f"a triangulation of the {tri.n}-gon cannot seed the {n}-gon")
    edges, diagonals = polygon_edges(n), tri.sorted_diagonals()
    missing = [e for e in edges if e not in edge_values]
    missing += [d for d in diagonals if d not in diagonal_values]
    if missing:
        raise PolygonError(f"missing values for segments {missing}")
    for e in edges:
        if edge_values[e].is_zero:
            raise ZeroEdge(f"edge {e} must be nonzero")
    for d in tri.diagonals:
        if diagonal_values[d].is_zero:
            raise ZeroCutValue(f"seed diagonal {d} must be nonzero")
    values = {e: edge_values[e] for e in edges}
    values.update((d, diagonal_values[d]) for d in tri.diagonals)
    chords = set(values)
    for i, j in sorted(diagonals + [(1, n)], key=lambda d: d[1] - d[0]):
        t = next(t for t in range(i + 1, j) if (i, t) in chords and (t, j) in chords)
        _glue(values, t, j, range(t + 1, j), [i])
        _glue(values, i, t, range(i + 1, t), range(t + 1, j + 1))
    return _complete(n, values, "seed values are inconsistent with the Ptolemy relations")


def _relabel(p: PolygonPoint, hull: List[int]) -> PolygonPoint:
    """Restrict p to the convex hull of the listed vertices (given in cyclic
    order); vertex hull[t] becomes t+1."""
    m = len(hull)
    index = {v: t + 1 for t, v in enumerate(hull)}
    values = {}
    for a, b in itertools.combinations(hull, 2):
        values[seg(index[a], index[b])] = p.value(a, b)
    return PolygonPoint(m, MODE_BOUNDARY, values)


def cut_along_diagonal(p: PolygonPoint, d: Segment) -> Tuple[PolygonPoint, PolygonPoint]:
    """Split p along a nonzero diagonal (i,j) into its restrictions to the
    hulls {i..j} and {j..n,1..i}; the cut diagonal becomes a boundary edge
    of each half, keeping its value."""
    d = seg(*d)
    if is_edge(d, p.n) or not 1 <= d[0] < d[1] <= p.n:
        raise NotADiagonal(f"{d} is not a diagonal of the {p.n}-gon")
    if p.value(*d).is_zero:
        raise ZeroCutValue(f"cannot cut along {d}: value is zero")
    if not p.is_valid():
        raise InvalidPoint("cut requires a valid variety point")
    i, j = d
    hull_a = list(range(i, j + 1))
    hull_b = list(range(j, p.n + 1)) + list(range(1, i + 1))
    return _relabel(p, hull_a), _relabel(p, hull_b)


def glue_cut_halves(
    pa: PolygonPoint, pb: PolygonPoint, n: int, d: Segment
) -> PolygonPoint:
    """Inverse of cut_along_diagonal(p, d) for a point p of the n-gon.

    The halves carry the cut value on their closing edges (1, m).  Each
    segment (a, b) crossing the reinstated diagonal (i, j) is recovered by
    one division, from x_ij x_ab = x_ia x_jb + x_aj x_bi, whose other terms
    lie in the halves, so the round trip is exact."""
    ma, mb = pa.n, pb.n
    if ma + mb - 2 != n:
        raise PolygonError(f"halves of sizes {ma},{mb} do not glue to an {n}-gon")
    d = seg(*d)
    if is_edge(d, n) or d not in _segments(n):
        raise NotADiagonal(f"{d} is not a diagonal of the {n}-gon")
    i, j = d
    if j - i != ma - 1:
        raise NotADiagonal(f"first half does not span the hull of {d}")
    cut_value = pa.value(1, ma)
    if cut_value != pb.value(1, mb):
        raise PolygonError("halves are not gluable: cut edge values differ")
    if cut_value.is_zero:
        raise ZeroCutValue("cut edge value is zero")

    def wrap(v: int) -> int:
        return (v - 1) % n + 1

    values: Dict[Segment, FieldValue] = {}
    for a, b in itertools.combinations(range(1, ma + 1), 2):
        values[seg(wrap(i + a - 1), wrap(i + b - 1))] = pa.value(a, b)
    for a, b in itertools.combinations(range(1, mb + 1), 2):
        values[seg(wrap(j + a - 1), wrap(j + b - 1))] = pb.value(a, b)
    _glue(values, i, j, range(i + 1, j), [wrap(j + b) for b in range(1, mb - 1)])
    return _complete(n, values, "glued values are inconsistent")


def max_search_cap(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("DEEPLOCUS_MAX_SEARCH")
    if not env:
        return DEFAULT_MAX_SEARCH
    if len(env) > MAX_SEARCH_CAP_CHARS:
        raise InvalidSearchCap(
            f"DEEPLOCUS_MAX_SEARCH holds {len(env)} characters;"
            f" it exceeds the cap MAX_SEARCH_CAP_CHARS = {MAX_SEARCH_CAP_CHARS}"
        )
    try:
        return int(env)
    except ValueError:
        raise InvalidSearchCap(
            f"DEEPLOCUS_MAX_SEARCH={env!r} is not an integer"
        ) from None


def _count_text(size: int, p: int, diagonal_count: int, free_edge_count: int) -> str:
    """The nominal assignment count size = p^diagonal_count *
    (p - 1)^free_edge_count, in full, or in that power form when it is
    too long for the interpreter to print, such as 3^9590."""
    try:
        return str(size)
    except ValueError:
        powers = [f"{p}^{diagonal_count}"]
        if free_edge_count and p > 2:
            powers.append(f"{p - 1}^{free_edge_count}")
        return " * ".join(powers)


@functools.lru_cache(maxsize=32)
def _scan_table(n: int) -> Tuple[Tuple[Segment, ...], Tuple[Tuple[Tuple[int, ...], ...], ...]]:
    """The scan's slots, polygon_edges(n) then polygon_diagonals(n), and
    _ptolemy_table(n) over them: entry t holds each relation whose last
    slot is t, as the slots (a, b, c, d, e, f) of x_a x_b - x_c x_d - x_e x_f."""
    slots = tuple(polygon_edges(n) + polygon_diagonals(n))
    slot_of = [slots.index(s) for s in _segments(n)]
    buckets: List[List[Tuple[int, ...]]] = [[] for _ in slots]
    for relation in _ptolemy_table(n)[1]:
        six = tuple(slot_of[s] for _, idx in relation for s in idx)
        buckets[max(six)].append(six)
    return slots, tuple(map(tuple, buckets))


def bruteforce_variety_scan(
    n: int,
    ctx: FieldContext,
    mode: str = MODE_TYPE_A,
    max_search: Optional[int] = None,
) -> List[Tuple[PolygonPoint, bool]]:
    """Enumerate every assignment over a prime field, keep the variety
    points, and classify each as deep or not.  Type-A mode fixes edges at 1;
    boundary mode ranges edges over nonzero values as well.

    Points come in the order of the full product over edge values, then
    diagonal values, each in residue order.  The scan prunes that product:
    values are assigned as residues one segment at a time, and each Ptolemy
    relation is checked mod p once its last segment is assigned, so a
    failing prefix skips every assignment that extends it.  The cap is
    still checked against the nominal assignment count, and n against
    MAX_POLYGON_N before any segment list is built; a count too long to
    print is named in power form.
    """
    if mode not in (MODE_BOUNDARY, MODE_TYPE_A):
        raise PolygonError(f"unknown mode {mode!r}")
    if not ctx.p:
        raise SearchTooLarge("exhaustive scans need a finite field")
    _check_polygon_size(n)
    diagonals = polygon_diagonals(n)
    edges = polygon_edges(n)
    p = ctx.p
    free_edge_count = 0 if mode == MODE_TYPE_A else len(edges)
    size = p ** len(diagonals) * max(1, (p - 1) ** free_edge_count)
    cap = max_search_cap(max_search)
    if size > cap:
        count = _count_text(size, p, len(diagonals), free_edge_count)
        raise SearchTooLarge(f"{count} assignments exceed the cap {cap}")

    all_elems = list(ctx.elements())
    slots, relations = _scan_table(n)
    segments = _segments(n)
    deep_slots = [slots.index(segments[t]) for t in _deep_slots(n)]
    edge_choices = range(1, 2) if mode == MODE_TYPE_A else range(1, p)
    choices = [edge_choices] * len(edges) + [range(p)] * len(diagonals)
    results: List[Tuple[PolygonPoint, bool]] = []
    vals = [0] * len(slots)
    # a flat depth-first walk: stack[t] iterates the values of slot t
    stack = [iter(choices[0])]
    while stack:
        depth = len(stack) - 1
        for v in stack[-1]:
            vals[depth] = v
            if not any(
                (vals[a] * vals[b] - vals[c] * vals[d] - vals[e] * vals[f]) % p
                for a, b, c, d, e, f in relations[depth]
            ):
                break
        else:
            stack.pop()
            continue
        if len(stack) < len(slots):
            stack.append(iter(choices[len(stack)]))
            continue
        # every relation has been checked mod p and the edges are nonzero,
        # so is_deep_bruteforce's O(n) read decides deepness
        deep = n % 2 == 0 and not any(vals[t] for t in deep_slots)
        point = PolygonPoint(n, mode, {s: all_elems[v] for s, v in zip(slots, vals)})
        results.append((point, deep))
    return results
