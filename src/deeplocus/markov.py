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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import DeepLocusError
from .field import FieldContext, FieldValue, Relation

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
    on a backtrack and grows otherwise."""
    if direction not in DIRECTIONS:
        raise MarkovError(f"unknown direction {direction!r}")
    k = DIRECTIONS.index(direction)
    vals = list(node.values)
    others = [v for t, v in enumerate(vals) if t != k]
    vals[k] = others[0] * others[1] * M - vals[k]
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

    The identities of each node and its children are checked together by
    one exact identity test; field values rebuild the message of each one
    that fails.  Refused for depth above MAX_EXPLORE_DEPTH, before any node
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
    report = ExploreReport(p, depth)
    root = TreeNode((), p.values())
    frontier = [root]
    seen = 0
    while frontier:
        next_frontier = []
        for node in frontier:
            seen += 1
            if deep_type is None:
                torus = not any(v.is_zero for v in node.values)
            else:
                torus = False
                _check_zero_pattern(node, deep_type, report)
            dirs: Tuple[str, ...] = ()
            if len(node.path) < depth:
                dirs = tuple(d for d in DIRECTIONS if not node.path or node.path[-1] != d)
            children = [mutate_upper(node, p.M, d) for d in dirs]
            values = node.values + (p.M,) + tuple(
                child.values[DIRECTIONS.index(d)] for d, child in zip(dirs, children)
            )
            relations = _node_relations(torus, dirs)
            if p.ctx.first_nonzero_relation(values, relations) is None:
                if torus:
                    report.markov_element_values[node.path] = p.M
            else:
                _record_failures(node, values, relations, torus, dirs, p, report)
            next_frontier += children
        frontier = next_frontier
    report.nodes_visited = seen
    return report


@functools.lru_cache(maxsize=None)
def _node_relations(torus: bool, dirs: Tuple[str, ...]) -> Tuple[Relation, ...]:
    """The identities of one tree node, over its values (x, y, z, M, then the
    new value of each child, one per direction in dirs): on a torus cluster
    x^2 + y^2 + z^2 - M*x*y*z, which vanishes iff the Markov element is M;
    then each child's exchange identity v*v' - (the other two squares)."""
    relations = []
    if torus:
        relations.append(((1, (0, 0)), (1, (1, 1)), (1, (2, 2)), (-1, (3, 0, 1, 2))))
    for slot, d in enumerate(dirs, start=4):
        k = DIRECTIONS.index(d)
        relations.append(((1, (k, slot)),) + tuple((-1, (t, t)) for t in range(3) if t != k))
    return tuple(relations)


def _record_failures(
    node: TreeNode,
    values: Tuple[FieldValue, ...],
    relations: Tuple[Relation, ...],
    torus: bool,
    dirs: Tuple[str, ...],
    p: MarkovUpperPoint,
    report: ExploreReport,
) -> None:
    """Report each of a node's identities that fails, in order."""
    for t, relation in enumerate(relations):
        holds = p.ctx.first_nonzero_relation(values, (relation,)) is None
        if torus and t == 0:
            m = p.M if holds else markov_element(*node.values)
            report.markov_element_values[node.path] = m
            if not holds:
                report.failures.append(f"Markov element {m} differs from M={p.M} at {node.path}")
        elif not holds:
            report.failures.append(
                f"exchange identity fails mutating {dirs[t - 1 if torus else t]} at {node.path}"
            )


def _check_zero_pattern(node: TreeNode, deep_type: DeepType, report: ExploreReport) -> None:
    if deep_type.tag == "A":
        if not all(v.is_zero for v in node.values):
            report.failures.append(f"type A values not all zero at {node.path}")
        return
    expected_zero = DIRECTIONS.index(deep_type.tag.lower())
    for k, v in enumerate(node.values):
        if k == expected_zero and not v.is_zero:
            report.failures.append(
                f"{deep_type.tag}-type value nonzero at {node.path}"
            )
        if k != expected_zero and v.is_zero:
            report.failures.append(
                f"unexpected zero of {DIRECTIONS[k]}-type at {node.path}"
            )
