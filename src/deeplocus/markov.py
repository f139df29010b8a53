"""The Markov quiver's upper cluster algebra and its deep points.

The upper variety is the hypersurface x*y*z*M = x^2 + y^2 + z^2 in
affine 4-space.  Mutation in any of the three directions is the
division-free involution v -> (product of the other two) * M - v, and the
exchange graph is a 3-regular tree (reduced words over the three
directions).  Deep points fall into four families:

    A: (0, 0, 0, alpha)                      kills every cluster variable
    X: (0, beta, gamma, 0), beta^2+gamma^2=0  kills every x-type variable
    Y: (beta, 0, gamma, 0), beta^2+gamma^2=0  kills every y-type variable
    Z: (beta, gamma, 0, 0), beta^2+gamma^2=0  kills every z-type variable

disjoint except for the common origin, which is classified as type A.
Restriction to the cluster algebra itself collapses all of type A to the
single all-variables-zero point and is injective elsewhere.

``explore_and_verify`` certifies a point along the exchange tree to a
given depth.  Each level is built and tested on payloads by
``FieldContext.exchange_level``: its node test forms a cluster's three
squares once and checks the torus relation (on a torus cluster) and each
child's exchange identity exactly, in the point's own field.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DeepLocusError
from .field import CHILD_SLOTS, FieldContext, FieldValue, Relation, RelationTable

DIRECTIONS = ("x", "y", "z")

MAX_SCAN_PRIME = 101
# explore_and_verify builds 3 * 2^(depth-1) nodes at the last level alone
MAX_EXPLORE_DEPTH = 12


class MarkovError(DeepLocusError):
    pass


class InvalidPoint(MarkovError):
    pass


class ZeroDenominator(MarkovError, ZeroDivisionError):
    pass


class SearchTooLarge(MarkovError):
    pass


class ExploreTooDeep(MarkovError):
    """An exploration depth above MAX_EXPLORE_DEPTH."""


@dataclass(frozen=True)
class MarkovUpperPoint:
    x: FieldValue
    y: FieldValue
    z: FieldValue
    M: FieldValue

    def __post_init__(self):
        ctx = self.x.ctx
        if self.y.ctx is not ctx or self.z.ctx is not ctx or self.M.ctx is not ctx:
            raise MarkovError("x, y, z and M come from different field contexts")

    @property
    def ctx(self) -> FieldContext:
        return self.x.ctx

    def values(self) -> Tuple[FieldValue, FieldValue, FieldValue]:
        return (self.x, self.y, self.z)


def markov_residual(p: MarkovUpperPoint) -> FieldValue:
    return p.x * p.y * p.z * p.M - p.x**2 - p.y**2 - p.z**2


def is_valid_point(p: MarkovUpperPoint) -> bool:
    return markov_residual(p).is_zero


def markov_element(x: FieldValue, y: FieldValue, z: FieldValue) -> FieldValue:
    den = x * y * z
    if den.is_zero:
        raise ZeroDenominator("the Markov element needs x*y*z nonzero")
    return (x**2 + y**2 + z**2) / den


@dataclass(frozen=True)
class TreeNode:
    """A cluster in the 3-regular exchange tree: a reduced mutation word
    and the (x-type, y-type, z-type) values there."""

    path: Tuple[str, ...]
    values: Tuple[FieldValue, FieldValue, FieldValue]

    def __post_init__(self):
        for a, b in zip(self.path, self.path[1:]):
            if a == b:
                raise MarkovError(f"path {self.path} is not reduced")


def mutate_upper(node: TreeNode, M: FieldValue, direction: str) -> TreeNode:
    """Replace the direction-type value v by (other pair product)*M - v.

    Mutating twice in a direction returns to the parent; the path shrinks
    on a backtrack and grows otherwise.  The new value is one fused op
    (FieldValue.mul_mul_sub), the formula explore_and_verify's tree uses."""
    if direction not in DIRECTIONS:
        raise MarkovError(f"unknown direction {direction!r}")
    k = DIRECTIONS.index(direction)
    i, j = _OTHERS[k]
    vals = list(node.values)
    vals[k] = M.mul_mul_sub(vals[i], vals[j], vals[k])
    if node.path and node.path[-1] == direction:
        path = node.path[:-1]
    else:
        path = node.path + (direction,)
    return TreeNode(path, tuple(vals))


@dataclass(frozen=True)
class DeepType:
    tag: str  # one of "A", "X", "Y", "Z"
    alpha: Optional[FieldValue] = None
    beta: Optional[FieldValue] = None
    gamma: Optional[FieldValue] = None

    def __post_init__(self):
        if self.tag not in ("A", "X", "Y", "Z"):
            raise MarkovError(f"unknown deep type {self.tag!r}")
        if self.tag != "A":
            if not (self.beta**2 + self.gamma**2).is_zero:
                raise MarkovError("X/Y/Z types need beta^2 + gamma^2 = 0")


def classify_deep_upper(p: MarkovUpperPoint) -> Optional[DeepType]:
    """The deep family of p, or None when p lies in some cluster torus.

    The all-zero cluster is reported as type A (the four families overlap
    only there)."""
    if not is_valid_point(p):
        raise InvalidPoint(f"residual is {markov_residual(p)}")
    zero = p.ctx.zero()
    if p.x == zero and p.y == zero and p.z == zero:
        return DeepType("A", alpha=p.M)
    if not p.M.is_zero:
        return None
    if p.x == zero and (p.y**2 + p.z**2).is_zero:
        return DeepType("X", beta=p.y, gamma=p.z)
    if p.y == zero and (p.x**2 + p.z**2).is_zero:
        return DeepType("Y", beta=p.x, gamma=p.z)
    if p.z == zero and (p.x**2 + p.y**2).is_zero:
        return DeepType("Z", beta=p.x, gamma=p.y)
    return None


def enumerate_deep_upper(ctx: FieldContext) -> List[MarkovUpperPoint]:
    """Exhaustive scan of the variety over a small prime field, keeping
    the deep points."""
    if not ctx.p:
        raise SearchTooLarge("exhaustive enumeration needs a finite field")
    if ctx.p > MAX_SCAN_PRIME:
        raise SearchTooLarge(f"p={ctx.p} exceeds the p^4 scan cap {MAX_SCAN_PRIME}")
    elems = list(ctx.elements())
    out = []
    for x, y, z, M in itertools.product(elems, repeat=4):
        p = MarkovUpperPoint(x, y, z, M)
        if not markov_residual(p).is_zero:
            continue
        if classify_deep_upper(p) is not None:
            out.append(p)
    return out


@dataclass(frozen=True)
class ClusterRestriction:
    """Image of a deep upper point in the cluster variety: type A points
    all collapse to the all-zero representative."""

    kind: str  # "all-zero" or one of "X", "Y", "Z"
    beta: Optional[FieldValue] = None
    gamma: Optional[FieldValue] = None


def restrict_to_cluster_algebra(p: MarkovUpperPoint) -> ClusterRestriction:
    t = classify_deep_upper(p)
    if t is None:
        raise InvalidPoint("restriction representative is defined for deep points")
    if t.tag == "A":
        return ClusterRestriction("all-zero")
    return ClusterRestriction(t.tag, t.beta, t.gamma)


@dataclass
class ExploreReport:
    point: MarkovUpperPoint
    depth: int
    nodes_visited: int = 0
    failures: List[str] = field(default_factory=list)
    markov_element_values: Dict[Tuple[str, ...], FieldValue] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def explore_and_verify(p: MarkovUpperPoint, depth: int = 6) -> ExploreReport:
    """Walk every reduced mutation word to the given depth and check:

    - the exchange identity v*v' = (sum of squares of the other two) at
      every mutation, division-free;
    - type A points vanish identically, type X/Y/Z points kill exactly
      their own type everywhere;
    - on torus clusters (all three values nonzero) the Markov element is
      constant, equal to M.

    The tree is walked one level at a time, in the order of its reduced
    words, on payloads: FieldContext.exchange_level builds each level's
    children (each new value M*a*b - c, the formula of
    FieldValue.mul_mul_sub) and tests every cluster by its field's node
    test, which forms the squares of x, y and z once and checks each of
    the cluster's identities exactly: the torus relation
    x^2 + y^2 + z^2 = M*x*y*z on a torus cluster, and each child's
    exchange; the torus test and a deep type's pattern of zeros are
    payload zero tests.  So every identity at every node is tested, and no
    FieldValue is built below the root unless a cluster fails.  A failing
    cluster comes back as field values, its x, y, z, M and its children's
    new values, whose identities `_node_relations` states; they rebuild
    the message of each check that fails, so the failures and the Markov
    element values come in the order of a walk that tests each cluster in
    turn.  Refused for depth above MAX_EXPLORE_DEPTH, before any cluster
    is built, as is a negative depth.
    """
    if depth < 0:
        raise MarkovError(f"depth must be at least 0, got {depth}")
    if depth > MAX_EXPLORE_DEPTH:
        raise ExploreTooDeep(
            f"depth {depth} visits 1 + 3 * (2^{depth} - 1) nodes;"
            f" it exceeds the cap MAX_EXPLORE_DEPTH = {MAX_EXPLORE_DEPTH}"
        )
    deep_type = classify_deep_upper(p)
    zeros = None if deep_type is None else _ZEROS[deep_type.tag]
    report = ExploreReport(p, depth)
    ctx, M = p.ctx, p.M
    element_values = report.markov_element_values
    level, paths = ctx.exchange_root(p.values()), [()]
    for n in range(depth + 1):
        inner = n < depth
        children, torus, failed = ctx.exchange_level(level, M, zeros, inner)
        if not failed:
            element_values.update(dict.fromkeys(itertools.compress(paths, torus), M))
        else:
            rows = dict(failed)
            for i, path in enumerate(paths):
                row = rows.get(i)
                if row is None:
                    if torus[i]:
                        element_values[path] = M
                    continue
                # a deep type's cluster may fail by its zeros alone; any
                # other cluster fails by an identity
                if deep_type is not None:
                    _check_zero_pattern(path, row[:3], deep_type, report)
                dirs = _CHILD_DIRS[path[-1:]] if inner else ()
                relations = _node_relations(torus[i], dirs)
                if ctx.first_nonzero_relation(row, relations) is not None:
                    _record_failures(path, row, relations, torus[i], dirs, p, report)
        report.nodes_visited += len(level)
        if inner:
            paths = [path + (d,) for path in paths for d in _CHILD_DIRS[path[-1:]]]
        level = children
    return report


# the other two slots of each slot of a cluster's values (x, y, z)
_OTHERS = ((1, 2), (0, 2), (0, 1))
# the last letter of a word by the slot k of FieldContext.exchange_level's
# clusters: the direction DIRECTIONS[k], and none at the root (k = 3)
_LASTS = tuple((d,) for d in DIRECTIONS) + ((),)
# the directions of a cluster's children, in the tree's order, by the last
# letter of its word: field.CHILD_SLOTS, the order exchange_level builds them
_CHILD_DIRS = {last: tuple(DIRECTIONS[s] for s in slots) for last, slots in zip(_LASTS, CHILD_SLOTS)}
# the zeros of (x, y, z) at every cluster of a deep type's tree
_ZEROS = {"A": (True, True, True), **{d.upper(): tuple(e == d for e in DIRECTIONS) for d in DIRECTIONS}}


@functools.lru_cache(maxsize=None)
def _node_relations(torus: bool, dirs: Tuple[str, ...]) -> RelationTable:
    """The identities of one tree node, over its values (x, y, z, M, then the
    new value of each child, one per direction in dirs): on a torus cluster
    x^2 + y^2 + z^2 - M*x*y*z, which vanishes iff the Markov element is M;
    then each child's exchange identity v*v' - (the other two squares).
    FieldContext.exchange_level tests the same identities by its field's
    node test; this table states them for a cluster that fails, whose
    messages _record_failures writes from it."""
    relations = []
    if torus:
        relations.append(((1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 1, 2))))
    for slot, d in enumerate(dirs, start=4):
        k = DIRECTIONS.index(d)
        relations.append(((1, (k, slot)),) + tuple((-1, (t, t)) for t in range(3) if t != k))
    return RelationTable(relations)


def _record_failures(
    path: Tuple[str, ...],
    values: Sequence[FieldValue],
    relations: Tuple[Relation, ...],
    torus: bool,
    dirs: Tuple[str, ...],
    p: MarkovUpperPoint,
    report: ExploreReport,
) -> None:
    """Report each of a cluster's identities that fails, in order; values
    are the cluster's x, y, z, M and then its children's new values."""
    for t, relation in enumerate(relations):
        holds = p.ctx.first_nonzero_relation(values, (relation,)) is None
        if torus and t == 0:
            m = p.M if holds else markov_element(*values[:3])
            report.markov_element_values[path] = m
            if not holds:
                report.failures.append(f"Markov element {m} differs from M={p.M} at {path}")
        elif not holds:
            report.failures.append(
                f"exchange identity fails mutating {dirs[t - 1 if torus else t]} at {path}"
            )


def _check_zero_pattern(
    path: Tuple[str, ...],
    values: Tuple[FieldValue, FieldValue, FieldValue],
    deep_type: DeepType,
    report: ExploreReport,
) -> None:
    if deep_type.tag == "A":
        if not all(v.is_zero for v in values):
            report.failures.append(f"type A values not all zero at {path}")
        return
    expected_zero = DIRECTIONS.index(deep_type.tag.lower())
    for k, v in enumerate(values):
        if k == expected_zero and not v.is_zero:
            report.failures.append(f"{deep_type.tag}-type value nonzero at {path}")
        if k != expected_zero and v.is_zero:
            report.failures.append(f"unexpected zero of {DIRECTIONS[k]}-type at {path}")
