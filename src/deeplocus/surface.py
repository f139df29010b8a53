"""Unpunctured marked surfaces as half-edge triangulations.

A surface is a set of oriented triangles (side ids listed
counterclockwise) plus a fixed-point-free involution gluing some sides
in orientation-reversing pairs; unglued sides form the boundary.  Arcs
are the glue-orbits of sides and stay stable under flips, so GF(2)
labels, values, and dissections can be transported along flip paths
recorded against a reference triangulation.

The deep machinery:

- a label class is a GF(2) assignment on arcs, 1 on the boundary, whose
  sum around every triangle is even (so each triangle has an odd number
  of label-0 sides);
- a polygonal dissection is a set of interior arcs whose complement is a
  spanning tree of the triangle adjacency graph; cutting along it opens
  the surface into a single polygon;
- a deep point is built by pushing nonzero values on boundary and
  dissection arcs through the polygon construction, provided the
  alternating product around the cut polygon equals (-1)**(b + m/2).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import DeepLocusError
from .field import FieldContext, FieldValue
from .polygon import ConditionViolated, alternating_condition, deep_point_from_edges, seg


class SurfaceError(DeepLocusError):
    pass


class InvalidPairing(SurfaceError):
    pass


class NonOrientableGluing(SurfaceError):
    pass


class DisconnectedResult(SurfaceError):
    pass


class UnmarkedSurface(SurfaceError):
    """The glued complex has no boundary marked points, so no triangulable
    marked surface (e.g. a closed torus)."""


class BoundaryArc(SurfaceError):
    pass


class NotADissection(SurfaceError):
    pass


class NoClass(SurfaceError):
    pass


class NonUnique(SurfaceError):
    pass


class InconsistentCocycle(SurfaceError):
    pass


class DifferentSurface(SurfaceError):
    pass


class OddMarkedPoints(SurfaceError):
    pass


class ZeroValue(SurfaceError):
    pass


class AvoidanceFailed(SurfaceError):
    pass


class SurfaceTooLarge(SurfaceError):
    """A polygon with more triangles than MAX_SURFACE_TRIANGLES."""


Triangle = Tuple[int, int, int]
Quad = Tuple[int, int, int, int, int, int]
# the longest flip sequence the Dehn twist search tries
MAX_TWIST_FLIPS = 4
# the longest random walk `verify_deep_random_walk` takes
MAX_WALK_STEPS = 10**6
# the most triangles `build_from_gluing` builds: the GF(2) elimination of
# `solve_classes` is O(F^2), about a second at this cap
MAX_SURFACE_TRIANGLES = 4000
# the attributes `_build_vertices` sets
_VERTEX_ATTRS = frozenset({"vertex_of_side", "vertex_fans", "interior_vertices"})


class _Complex:
    """Raw half-edge combinatorics shared by surfaces and their cuttings.
    The sides of F triangles are numbered 0..3F-1, and lists by side number
    hold each side's triangle `tri_of`, its slot there `slot_of`, and its
    arc `_arc_of_side`.  `glue` is a read-only view of the gluing dict
    `_glue`, which this code reads directly: a lookup through the view
    costs about twice as much.  Every complex, built or flipped, builds its
    vertices the first time one of `_VERTEX_ATTRS` is read."""

    def __init__(self, triangles: Sequence[Triangle], glue: Mapping[int, int]):
        triangles = tuple(tuple(t) for t in triangles)
        glue = dict(glue)
        count = 3 * len(triangles)
        tri_of, slot_of = [-1] * count, [0] * count
        for t, tri in enumerate(triangles):
            if len(set(tri)) != 3:
                raise InvalidPairing(f"triangle {t} repeats a side id")
            for k, s in enumerate(tri):
                # 3F distinct ids in 0..3F-1 leave no gap
                if not 0 <= s < count:
                    raise InvalidPairing(f"side {s} is not in the side ids 0..{count - 1}")
                if tri_of[s] >= 0:
                    raise InvalidPairing(f"side {s} used twice")
                tri_of[s], slot_of[s] = t, k
        sides = range(count)
        for a, b in glue.items():
            if a == b:
                raise NonOrientableGluing(f"side {a} glued to itself")
            if glue.get(b) != a:
                raise InvalidPairing(f"gluing of {a} and {b} is not involutive")
            if a not in sides or b not in sides:
                raise InvalidPairing(f"gluing touches unknown side {a} or {b}")
        self._set_tables(triangles, glue, tri_of, slot_of)

    def _set_tables(
        self, triangles: Tuple[Triangle, ...], glue: Dict[int, int], tri_of: List[int], slot_of: List[int]
    ) -> None:
        """Set this complex's tables from checked parts, in the one order
        every complex sets them, and build its boundary sides and arcs: the
        last step of __init__ and of _with_glue."""
        self.triangles: Tuple[Triangle, ...] = triangles
        self._glue: Dict[int, int] = glue
        self.glue: Mapping[int, int] = MappingProxyType(glue)
        self.tri_of: List[int] = tri_of
        self.slot_of: List[int] = slot_of
        self.sides = range(len(tri_of))
        self.boundary_sides = [s for s in self.sides if s not in glue]
        self._build_arcs()

    def _with_glue(self, glue: Dict[int, int]) -> "_Complex":
        """The complex on these triangles glued only by glue, a part of this
        complex's gluing that holds both sides of each pair it holds.  It
        shares the triangles and the position lists tri_of and slot_of,
        which no code writes after a build (flips and walks write copies),
        and builds only its gluing, boundary sides and arcs.  Part of an
        involution with no fixed point is one, so the gluing needs no
        check."""
        out = _Complex.__new__(_Complex)
        out._set_tables(self.triangles, glue, self.tri_of, self.slot_of)
        return out

    # -- arcs -------------------------------------------------------------

    def _build_arcs(self) -> None:
        self.arcs: List[Tuple[int, ...]] = []
        self._arc_of_side: List[int] = [-1] * len(self.sides)
        for s in self.sides:
            if self._arc_of_side[s] >= 0:
                continue
            orbit = (s, self._glue[s]) if s in self._glue else (s,)
            aid = len(self.arcs)
            self.arcs.append(tuple(sorted(orbit)))
            for x in orbit:
                self._arc_of_side[x] = aid

    def arc_of_side(self, s: int) -> int:
        return self._arc_of_side[s]

    def arc_is_boundary(self, aid: int) -> bool:
        return len(self.arcs[aid]) == 1

    def interior_arcs(self) -> List[int]:
        return [a for a in range(len(self.arcs)) if not self.arc_is_boundary(a)]

    def boundary_arcs(self) -> List[int]:
        # arc ids follow sorted side ids, so this is in id order
        return [self._arc_of_side[s] for s in self.boundary_sides]

    # -- triangle navigation ------------------------------------------------

    def next_in_tri(self, s: int) -> int:
        return self.triangles[self.tri_of[s]][(self.slot_of[s] + 1) % 3]

    def prev_in_tri(self, s: int) -> int:
        return self.triangles[self.tri_of[s]][(self.slot_of[s] + 2) % 3]

    def tri_of_side(self, s: int) -> int:
        return self.tri_of[s]

    def _unclosed(self, s0: int) -> SurfaceError:
        # no vertex or boundary walk is longer than the side count, so a
        # longer one means the side positions are inconsistent
        return SurfaceError(f"the walk from side {s0} does not close")

    # -- vertices -----------------------------------------------------------

    def __getattr__(self, name: str):
        # reached only for attributes this instance does not have yet
        if name not in _VERTEX_ATTRS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_vertices()
        return object.__getattribute__(self, name)

    def _build_vertices(self) -> None:
        # sides sharing a tail vertex form an orbit of s -> next(glue(s));
        # each orbit of a boundary vertex is a path ending at a boundary side
        def rot(s: int) -> Optional[int]:
            g = self._glue.get(s)
            return None if g is None else self.next_in_tri(g)

        limit = len(self.sides)
        starts = [s for s in self.sides if self.prev_in_tri(s) not in self._glue]
        # built in locals and set together, so that a walk that does not
        # close leaves no half-built vertices to read
        vertex_of_side: Dict[int, int] = {}
        vertex_fans: List[List[int]] = []
        interior = 0
        for s0 in starts:
            fan = []
            s: Optional[int] = s0
            while s is not None:
                if len(fan) == limit:
                    raise self._unclosed(s0)
                fan.append(s)
                vertex_of_side[s] = len(vertex_fans)
                s = rot(s)
            vertex_fans.append(fan)
        for s0 in self.sides:
            if s0 in vertex_of_side:
                continue
            cycle = [s0]
            vertex_of_side[s0] = len(vertex_fans)
            s = rot(s0)
            while s != s0:
                if s is None or len(cycle) == limit:
                    raise self._unclosed(s0)
                cycle.append(s)
                vertex_of_side[s] = len(vertex_fans)
                s = rot(s)
            vertex_fans.append(cycle)
            interior += 1
        self.vertex_of_side = vertex_of_side
        self.vertex_fans = vertex_fans
        self.interior_vertices = interior

    def tail_vertex(self, s: int) -> int:
        return self.vertex_of_side[s]

    def head_vertex(self, s: int) -> int:
        return self.vertex_of_side[self.next_in_tri(s)]

    # -- boundary and invariants ---------------------------------------------

    def boundary_components(self) -> List[List[int]]:
        # fans of boundary vertices end in their unique boundary side
        terminal = {
            self.vertex_of_side[fan[-1]]: fan[-1]
            for fan in self.vertex_fans
            if fan[-1] not in self._glue
        }
        succ = {s: terminal[self.head_vertex(s)] for s in self.boundary_sides}
        comps = []
        todo = set(self.boundary_sides)
        while todo:
            s0 = min(todo)
            walk = [s0]
            todo.discard(s0)
            s = succ[s0]
            while s != s0:
                if len(walk) == len(self.sides):
                    raise self._unclosed(s0)
                walk.append(s)
                todo.discard(s)
                s = succ[s]
            comps.append(walk)
        return comps

    def connected(self) -> bool:
        if not self.triangles:
            return False
        seen = {0}
        stack = [0]
        while stack:
            t = stack.pop()
            for s in self.triangles[t]:
                g = self._glue.get(s)
                if g is not None:
                    t2 = self.tri_of_side(g)
                    if t2 not in seen:
                        seen.add(t2)
                        stack.append(t2)
        return len(seen) == len(self.triangles)

    def counts(self) -> Tuple[int, int, int]:
        """(V, E, F) with E counting arcs."""
        return (len(self.vertex_fans), len(self.arcs), len(self.triangles))


class SurfaceTriangulation(_Complex):
    """An unpunctured, connected, triangulated marked surface: a half-edge
    complex that passes the surface checks.

    Immutable; flips return a new triangulation sharing the reference and
    extending the flip path, the tuple of arcs flipped from the reference
    to here.  Arc ids are glue-orbits of side ids, hence identical across
    all flips of the same surface.  A build from triangles and gluing runs
    every surface check.  A flip changes only the two triangles of its
    quadrilateral: it shares the gluing and the arcs with its parent,
    carries the genus, boundary count and marked points, which no flip
    changes, checks only its two new triangles, and builds its vertices the
    first time they are read.
    """

    def __init__(self, triangles: Sequence[Triangle], glue: Mapping[int, int]):
        super().__init__(triangles, glue)
        self.reference: Optional["SurfaceTriangulation"] = None
        self.flip_path: Tuple[int, ...] = ()
        self._check_surface()

    def _check_surface(self) -> None:
        """Validate this complex as a connected, unpunctured marked surface
        and record its genus, boundary count and marked points."""
        if not self.connected():
            raise DisconnectedResult("triangle adjacency graph is disconnected")
        if not self.boundary_sides:
            raise UnmarkedSurface("no boundary, hence no marked points")
        if self.interior_vertices:
            raise UnmarkedSurface("gluing creates punctures (interior vertices)")
        v, e, f = self.counts()
        b = len(self.boundary_components())
        chi = v - e + f
        if (2 - b - chi) % 2 != 0:
            raise SurfaceError("non-integral genus; gluing data is inconsistent")
        self.genus = (2 - b - chi) // 2
        self.num_boundary = b
        self.num_marked = v
        if self.genus < 0:
            raise NonOrientableGluing("negative genus; gluing is not orientable")
        if e != 6 * self.genus + 3 * b + 2 * v - 6:
            raise SurfaceError("arc count identity failed; not a triangulation")

    def ref(self) -> "SurfaceTriangulation":
        return self.reference if self.reference is not None else self

    def invariants(self) -> Tuple[int, int, int, int]:
        """(genus, boundary components, marked points, arc count)."""
        return (self.genus, self.num_boundary, self.num_marked, len(self.arcs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurfaceTriangulation)
            and self.triangles == other.triangles
            and self.glue == other.glue
        )

    def __hash__(self) -> int:
        return hash((self.triangles, tuple(sorted(self.glue.items()))))

    def __repr__(self) -> str:
        g, b, m, e = self.invariants()
        return f"SurfaceTriangulation(g={g}, b={b}, m={m}, arcs={e})"

    # -- flips ----------------------------------------------------------------

    def flip_quad(self, aid: int) -> Quad:
        """(a1, p, q, a2, r, s): the flipped arc's sides and the cyclic
        quadrilateral sides around it.  An id outside 0..len(arcs)-1 is
        refused, not read from the end of the arc list."""
        if not 0 <= aid < len(self.arcs):
            raise SurfaceError(f"no arc {aid}: arc ids run 0..{len(self.arcs) - 1}")
        arc = self.arcs[aid]
        if len(arc) == 1:
            raise BoundaryArc(f"arc {aid} is a boundary arc")
        a1, a2 = arc
        i1, i2 = self.slot_of[a1], self.slot_of[a2]
        tri1, tri2 = self.triangles[self.tri_of[a1]], self.triangles[self.tri_of[a2]]
        return a1, tri1[(i1 + 1) % 3], tri1[(i1 + 2) % 3], a2, tri2[(i2 + 1) % 3], tri2[(i2 + 2) % 3]

    def flip(self, aid: int) -> "SurfaceTriangulation":
        """Re-diagonalize the quadrilateral around an interior arc."""
        return self._flip(self.flip_quad(aid))

    def _flip(self, quad: Quad) -> "SurfaceTriangulation":
        """The flip of the arc inside `quad` (its `flip_quad`).  The gluing,
        sides and arcs are shared, the invariants carried and the flip path
        extended by the flipped arc; it checks nothing (`_write_flip`)."""
        out = SurfaceTriangulation.__new__(SurfaceTriangulation)
        triangles, tri_of, slot_of = list(self.triangles), list(self.tri_of), list(self.slot_of)
        _write_flip(triangles, tri_of, slot_of, quad)
        # set in the order __init__ sets them, less the vertices, so that
        # every triangulation shares one instance attribute layout
        out.triangles = tuple(triangles)
        out._glue, out.glue, out.tri_of, out.slot_of = self._glue, self.glue, tri_of, slot_of
        out.sides, out.boundary_sides = self.sides, self.boundary_sides
        out.arcs, out._arc_of_side = self.arcs, self._arc_of_side
        out.reference = self.ref()
        out.flip_path = self.flip_path + (self._arc_of_side[quad[0]],)
        out.genus, out.num_boundary = self.genus, self.num_boundary
        out.num_marked = self.num_marked
        return out

    def replay(self) -> List["SurfaceTriangulation"]:
        """The chain reference -> ... -> self along the recorded flip path.
        Only `_flip` extends a flip path, and a flip is a function of its
        triangulation and arc, so the chain ends at self."""
        chain = [self.ref()]
        for aid in self.flip_path:
            chain.append(chain[-1].flip(aid))
        return chain


def _write_flip(triangles: List[Triangle], tri_of: List[int], slot_of: List[int], quad: Quad) -> None:
    """Flip the arc inside `quad` (its `flip_quad`) in place: write the two
    new triangles (a1, q, r) and (a2, s, p) over the old ones, and the new
    triangle and slot of each side that moves.  Neither repeats a side: an
    arc with both sides in one triangle has them adjacent there, and their
    shared corner would be a puncture, which `_check_surface` refuses, so
    the old triangles share no side."""
    a1, p, q, a2, r, s = quad
    t1, t2 = tri_of[a1], tri_of[a2]
    triangles[t1], triangles[t2] = (a1, q, r), (a2, s, p)
    slot_of[a1] = slot_of[a2] = 0
    slot_of[q] = slot_of[s] = 1
    slot_of[r] = slot_of[p] = 2
    tri_of[r], tri_of[p] = t1, t2


def build_from_gluing(
    polygon_sides: int, gluings: Sequence[Tuple[int, int]]
) -> SurfaceTriangulation:
    """Fan-triangulate a polygon and glue boundary side pairs.

    Polygon sides are 0..n-1 counterclockwise (side i joins vertex i to
    i+1); each gluing [a, b] identifies the sides reversing orientation,
    which keeps the quotient oriented.  The result is the reference
    triangulation of its surface.  A polygon of more than
    MAX_SURFACE_TRIANGLES triangles is refused before anything is built.
    """
    n = polygon_sides
    if n < 3:
        raise SurfaceError("polygon needs at least 3 sides")
    if n - 2 > MAX_SURFACE_TRIANGLES:
        raise SurfaceTooLarge(
            f"a {n}-gon has {n - 2} triangles;"
            f" it exceeds the cap MAX_SURFACE_TRIANGLES = {MAX_SURFACE_TRIANGLES}"
        )
    glue: Dict[int, int] = {}
    # fan diagonals (0, i): lower half n+2(i-2) runs 0->i, upper runs i->0
    for i in range(2, n - 1):
        lo, hi = n + 2 * (i - 2), n + 2 * (i - 2) + 1
        glue[lo] = hi
        glue[hi] = lo
    triangles = []
    for t in range(1, n - 1):
        side_a = 0 if t == 1 else n + 2 * (t - 2)
        side_b = t
        side_c = n - 1 if t == n - 2 else n + 2 * (t - 1) + 1
        triangles.append((side_a, side_b, side_c))
    used = set()
    for pair in gluings:
        if len(pair) != 2:
            raise InvalidPairing(f"gluing {pair} is not a pair")
        a, b = pair
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidPairing(f"gluing {pair} outside polygon sides 0..{n - 1}")
        if a == b:
            raise NonOrientableGluing(f"side {a} glued to itself")
        if a in used or b in used:
            raise InvalidPairing(f"side in {pair} glued twice")
        used.update((a, b))
        glue[a] = b
        glue[b] = a
    return SurfaceTriangulation(triangles, glue)


# the surfaces used throughout the examples and tests: each name's polygon
# and side gluings for `build_from_gluing`
_NAMED_GLUINGS: Dict[str, Tuple[int, Tuple[Tuple[int, int], ...]]] = {
    "disk4": (4, ()),
    "disk6": (6, ()),
    "annulus11": (4, ((0, 2),)),
    "annulus21": (5, ((0, 3),)),
    "annulus22": (6, ((0, 3),)),
    "genus1": (6, ((0, 2), (1, 3))),
    "genus2": (10, ((0, 2), (1, 3), (4, 6), (5, 7))),
    "pants": (10, ((0, 3), (5, 8))),
}
# each named surface's build, made on its first use
_NAMED_TEMPLATES: Dict[str, SurfaceTriangulation] = {}


def named_surface(name: str) -> SurfaceTriangulation:
    """The reference triangulation of a named surface.  Each name is built
    from its gluing, and so checked, once per process.  Each call returns a
    new triangulation that shares every table of that build, as a flip
    shares its parent's gluing and arcs, and has its own attributes.  No
    code changes a table in place: a flip and a walk write to copies."""
    if name not in _NAMED_GLUINGS:
        raise SurfaceError(f"unknown surface {name!r}; try {sorted(_NAMED_GLUINGS)}")
    template = _NAMED_TEMPLATES.get(name)
    if template is None:
        template = _NAMED_TEMPLATES[name] = build_from_gluing(*_NAMED_GLUINGS[name])
    out = SurfaceTriangulation.__new__(SurfaceTriangulation)
    # set in the order __init__ sets them, as `_flip` does
    for attr, value in vars(template).items():
        setattr(out, attr, value)
    return out


# ---------------------------------------------------------------------------
# GF(2) label classes


@dataclass(frozen=True)
class Z2Class:
    """GF(2) labels on the arcs of a carrier triangulation: boundary arcs
    are 1 and the sum around every triangle is even."""

    carrier: SurfaceTriangulation
    labels: Tuple[int, ...]

    def __post_init__(self):
        labels, arc = self.labels, self.carrier._arc_of_side
        if len(labels) != len(self.carrier.arcs):
            raise InconsistentCocycle("one label per arc required")
        for aid, v in enumerate(labels):
            if v != 0 and v != 1:
                raise InconsistentCocycle(f"arc {aid} is labeled {v!r}, not 0 or 1")
        for aid in self.carrier.boundary_arcs():
            if labels[aid] != 1:
                raise InconsistentCocycle(f"boundary arc {aid} must be labeled 1")
        for tri in self.carrier.triangles:
            a, b, c = tri
            if (labels[arc[a]] + labels[arc[b]] + labels[arc[c]]) % 2 != 0:
                raise InconsistentCocycle(f"triangle {tri} violates the cocycle rule")

    def zero_arcs(self) -> FrozenSet[int]:
        return frozenset(a for a, v in enumerate(self.labels) if v == 0)


def _eliminate(
    t: SurfaceTriangulation,
) -> Optional[Tuple[Dict[int, int], Dict[int, Tuple[int, int]]]]:
    """GF(2) elimination of the cocycle rows: each interior arc's column
    and the pivot rows keyed by their lowest column, or None when there is
    no solution."""
    col = {a: i for i, a in enumerate(t.interior_arcs())}
    rows = []
    for tri in t.triangles:
        mask = 0
        rhs = 0
        for s in tri:
            a = t.arc_of_side(s)
            if a in col:
                mask ^= 1 << col[a]
            else:
                rhs ^= 1
        rows.append((mask, rhs))

    pivots: Dict[int, Tuple[int, int]] = {}
    for mask, rhs in rows:
        for pcol, (pmask, prhs) in pivots.items():
            if (mask >> pcol) & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        low = (mask & -mask).bit_length() - 1
        pivots[low] = (mask, rhs)
    return col, pivots


def count_classes(t: SurfaceTriangulation) -> int:
    """The number of label classes, 2^(2g+b-1) when the number of marked
    points is even, else 0: 2^(free columns), with no class built."""
    solved = _eliminate(t)
    if solved is None:
        return 0
    col, pivots = solved
    return 2 ** (len(col) - len(pivots))


def solve_classes(t: SurfaceTriangulation) -> List[Z2Class]:
    """All label classes, sorted.  `count_classes` is the count without
    the list."""
    solved = _eliminate(t)
    if solved is None:
        return []
    col, pivots = solved
    free_cols = [i for i in range(len(col)) if i not in pivots]

    classes = []
    for bits in itertools.product((0, 1), repeat=len(free_cols)):
        sol = 0
        for i, bit in zip(free_cols, bits):
            if bit:
                sol |= 1 << i
        for pcol in sorted(pivots, reverse=True):
            pmask, prhs = pivots[pcol]
            val = prhs ^ (bin(sol & pmask & ~(1 << pcol)).count("1") % 2)
            if val:
                sol |= 1 << pcol
        labels = [1] * len(t.arcs)
        for a, i in col.items():
            labels[a] = (sol >> i) & 1
        classes.append(Z2Class(t, tuple(labels)))
    classes.sort(key=lambda c: c.labels)
    return classes


def _new_label(t: SurfaceTriangulation, labels: Sequence[int], quad: Quad) -> int:
    """The label of the arc inside `quad` (its `flip_quad`) after its flip:
    the cocycle completion in the new triangle (a1, q, r).  The other new
    triangle (a2, s, p) gives the same label, since the old triangles are
    even: l(p) + l(q) = l(a1) = l(r) + l(s) mod 2, so l(q) + l(r) = l(s) + l(p)."""
    _, p, q, _, r, _ = quad
    arc = t._arc_of_side
    return (labels[arc[q]] + labels[arc[r]]) % 2


def _transport_labels(
    t: SurfaceTriangulation, labels: Tuple[int, ...], quad: Quad
) -> Tuple[int, ...]:
    """Labels after flipping the arc inside `quad`; only its label changes."""
    out = list(labels)
    out[t.arc_of_side(quad[0])] = _new_label(t, labels, quad)
    return tuple(out)


def transport_class(cls: Z2Class, aid: int) -> Z2Class:
    """The class carried across one flip (labels on the flipped carrier)."""
    t = cls.carrier
    quad = t.flip_quad(aid)
    return Z2Class(t._flip(quad), _transport_labels(t, cls.labels, quad))


def transport_to_reference(cls: Z2Class) -> Z2Class:
    """Transport back along the carrier's recorded flip path."""
    chain = cls.carrier.replay()
    labels = cls.labels
    for step in range(len(chain) - 1, 0, -1):
        aid = chain[step].flip_path[-1]
        labels = _transport_labels(chain[step], labels, chain[step].flip_quad(aid))
    return Z2Class(chain[0], labels)


# ---------------------------------------------------------------------------
# polygonal dissections


@dataclass(frozen=True)
class Dissection:
    """Interior arcs whose complement is a spanning tree of the triangle
    adjacency graph; cutting along them opens the surface to a polygon.
    The cut is made once, here: `cut_complex`, which `_cut` reads; it
    shares the carrier's triangles and side positions (`_with_glue`).  The
    polygon it opens into is built on the first `cut_polygon` call and
    kept as `polygon`."""

    carrier: SurfaceTriangulation
    arcs: FrozenSet[int]
    cut_complex: _Complex = field(init=False, compare=False, repr=False)
    polygon: Optional[CutPolygon] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        t = self.carrier
        unknown = sorted(a for a in self.arcs if not 0 <= a < len(t.arcs))
        if unknown:
            raise NotADissection(f"no arc {unknown[0]}: arc ids run 0..{len(t.arcs) - 1}")
        for a in self.arcs:
            if t.arc_is_boundary(a):
                raise NotADissection(f"arc {a} is a boundary arc")
        tree_arcs = [a for a in t.interior_arcs() if a not in self.arcs]
        if len(tree_arcs) != len(t.triangles) - 1:
            raise NotADissection("complement has the wrong size for a spanning tree")
        arc = t._arc_of_side
        cx = t._with_glue({a: b for a, b in t._glue.items() if arc[a] not in self.arcs})
        if not cx.connected():
            raise NotADissection("complement does not span the triangles")
        object.__setattr__(self, "cut_complex", cx)

    def sorted_arcs(self) -> List[int]:
        return sorted(self.arcs)


def dissection_spanning_tree(t: SurfaceTriangulation) -> Dissection:
    """Deterministic dissection: BFS the triangle graph from triangle 0
    taking interior arcs in id order; the unused arcs are the dissection."""
    seen = {0}
    tree: Set[int] = set()
    frontier = [0]
    while frontier:
        next_frontier = []
        for tri in frontier:
            # the triangle's own interior arcs, each with its far side
            far = {t.arc_of_side(s): t.glue[s] for s in t.triangles[tri] if s in t.glue}
            for a in sorted(far):
                nb = t.tri_of_side(far[a])
                if nb not in seen:
                    seen.add(nb)
                    tree.add(a)
                    next_frontier.append(nb)
        frontier = next_frontier
    arcs = frozenset(a for a in t.interior_arcs() if a not in tree)
    return Dissection(t, arcs)


def _all_dissections(t: SurfaceTriangulation) -> List[Dissection]:
    interior = t.interior_arcs()
    d = 2 * t.genus + t.num_boundary - 1
    out = []
    for combo in itertools.combinations(sorted(interior), d):
        try:
            out.append(Dissection(t, frozenset(combo)))
        except NotADissection:
            continue
    return out


def dissection_avoiding(t: SurfaceTriangulation, zero_class: Z2Class) -> Dissection:
    """A dissection all of whose arcs are labeled 1 by the class.

    Exchange procedure: each round is a `Dissection`.  While some arc of it
    has label 0, find on its cut polygon's boundary a junction where a copy
    of such an arc meets a label-1 edge, flip every interior arc at the
    shared corner in one pass (a flip removes only its own arc from the
    corner), and swap the bad arc for the exposed ear arc (whose label is
    1 by the odd-per-triangle rule).  The label-0 count drops each round.

    Each step is sure to work.  The cut boundary has label-1 edges (the
    boundary arcs) and label-0 ones, each a copy of a dissection arc, so
    a junction exists.  Flipping every diagonal at the corner leaves the
    corner's two polygon edges in one triangle, an ear.  The flips change
    no label of a polygon edge, so the ear's third arc is labeled 1.
    """
    labels = zero_class.labels
    d = dissection_spanning_tree(t)
    for _ in range(len(d.arcs) + 1):
        if all(labels[a] == 1 for a in d.arcs):
            return d
        tri, cx = d.carrier, d.cut_complex
        walk = cx.boundary_components()[0]
        s_before, s_after = next(
            (s, s2)
            for s, s2 in zip(walk, walk[1:] + walk[:1])
            if labels[tri.arc_of_side(s)] != labels[tri.arc_of_side(s2)]
        )
        alpha = next(a for a in map(tri.arc_of_side, (s_before, s_after)) if labels[a] == 0)

        # the arcs at the corner: the cut polygon's diagonals from it
        fan = cx.vertex_fans[cx.head_vertex(s_before)]
        corner = {tri.arc_of_side(s) for s in fan if s in cx.glue}
        for aid in sorted(corner):
            quad = tri.flip_quad(aid)
            labels = _transport_labels(tri, labels, quad)
            tri = tri._flip(quad)

        ear = tri.triangles[tri.tri_of_side(s_before)]
        gamma = tri.arc_of_side(next(x for x in ear if x not in (s_before, s_after)))
        d = Dissection(tri, (d.arcs - {alpha}) | {gamma})
    raise AvoidanceFailed("exchange procedure failed to terminate")


def class_of_dissection(d: Dissection) -> Z2Class:
    """The unique class labeling every dissection arc (and the boundary) 1,
    read off the cut polygon.  Its edges, the boundary arcs and both copies
    of each dissection arc, get 1; each other arc, a chord (i, j), gets
    (j - i) mod 2, which is 0 where the polygon's deep point vanishes
    (`polygon.is_deep_bruteforce`).  With m marked points the polygon has
    m + 2|d| sides: for m even every triangle (i, j, k) sums to 2(k - i),
    and for m odd no class exists.  A class is fixed by its labels on the
    dissection (`subset_bijection`), so this is the only one."""
    t = d.carrier
    if t.num_marked % 2 != 0:
        raise NoClass("no class exists (odd number of marked points)")
    labels = [1] * len(t.arcs)
    for aid, (i, j) in cut_polygon(d).diagonal_of_arc.items():
        labels[aid] = (j - i) % 2
    return Z2Class(t, tuple(labels))


def subset_bijection(d: Dissection) -> Dict[FrozenSet[int], Z2Class]:
    """For each subset S of the dissection, the unique class vanishing
    exactly on S within the dissection; a bijection onto all classes."""
    classes = solve_classes(d.carrier)
    if not classes:
        raise NoClass("no classes exist (odd number of marked points)")
    out = {c.zero_arcs() & d.arcs: c for c in classes}
    if not len(out) == len(classes) == 2 ** len(d.arcs):
        raise NonUnique(
            f"{len(classes)} classes vanish on {len(out)} distinct subsets"
            f" of the {len(d.arcs)} dissection arcs"
        )
    return out


def congruent(d1: Dissection, d2: Dissection) -> bool:
    """Whether the two dissections bound the same deep component: their
    classes agree after transport to the shared reference triangulation."""
    if d1.carrier.ref() is not d2.carrier.ref():
        raise DifferentSurface("dissections live on different surfaces")
    c1 = transport_to_reference(class_of_dissection(d1))
    c2 = transport_to_reference(class_of_dissection(d2))
    return c1.labels == c2.labels


# ---------------------------------------------------------------------------
# cutting along a dissection


@dataclass(frozen=True)
class CutPolygon:
    """The polygon obtained by unglueing the dissection arcs.

    Boundary slots are numbered so slot t (1-based) runs from polygon
    vertex t to t+1; `arc_of_edge_source[t - 1]` is the arc occupying it.
    `diagonal_of_arc` places every remaining interior arc as a chord."""

    size: int
    arc_of_edge_source: Tuple[int, ...]
    diagonal_of_arc: Dict[int, Tuple[int, int]]

    def polygon_edge(self, t: int) -> Tuple[int, int]:
        return (t, t + 1) if t < self.size else (1, self.size)


def _cut(d: Dissection) -> Tuple[_Complex, List[int], Dict[int, int]]:
    """The dissection's cut complex, its boundary walk, and the 1-based
    polygon vertex number of each of its vertices.  The cut complex is a
    polygon: `Dissection` checked that it glues the triangles along a
    spanning tree, and triangles glued along a tree form a disk."""
    cx = d.cut_complex
    walk = cx.boundary_components()[0]
    vertex_number = {cx.tail_vertex(s): idx + 1 for idx, s in enumerate(walk)}
    return cx, walk, vertex_number


def cut_polygon(d: Dissection) -> CutPolygon:
    """The polygon d opens into, built once per dissection and kept on it."""
    if d.polygon is not None:
        return d.polygon
    t = d.carrier
    cx, walk, vertex_number = _cut(d)
    diagonal_of_arc: Dict[int, Tuple[int, int]] = {}
    for aid in t.interior_arcs():
        if aid in d.arcs:
            continue
        s = t.arcs[aid][0]
        i = vertex_number[cx.tail_vertex(s)]
        j = vertex_number[cx.head_vertex(s)]
        diagonal_of_arc[aid] = seg(i, j)
    cp = CutPolygon(
        size=len(walk),
        arc_of_edge_source=tuple(t.arc_of_side(s) for s in walk),
        diagonal_of_arc=diagonal_of_arc,
    )
    object.__setattr__(d, "polygon", cp)
    return cp


# ---------------------------------------------------------------------------
# deep points


@dataclass
class SurfaceDeepPoint:
    """A deep point: values on every arc of the current triangulation
    (None marks a value the flip walk could not derive), together with the
    label class whose zero set is exactly the vanishing known values, as
    construction checks; the class's carrier is the current triangulation."""

    values: Dict[int, Optional[FieldValue]]
    z2: Z2Class
    ctx: FieldContext

    def __post_init__(self):
        labels = self.z2.labels
        arc_ids = range(len(labels))
        for aid, v in self.values.items():
            if aid not in arc_ids:
                raise SurfaceError(f"no arc {aid}: arc ids run 0..{len(labels) - 1}")
            if v is not None and v.ctx is not self.ctx:
                raise SurfaceError(f"the value on arc {aid} is not in {self.ctx!r}")
            if v is not None and v.is_zero != (labels[aid] == 0):
                raise SurfaceError(f"value/label mismatch on arc {aid}")

    @property
    def triangulation(self) -> SurfaceTriangulation:
        return self.z2.carrier


def deep_point_from_dissection(
    d: Dissection,
    boundary_values: Mapping[int, FieldValue],
    dissection_values: Mapping[int, FieldValue],
) -> SurfaceDeepPoint:
    """Extend nonzero values on boundary and dissection arcs to the deep
    point supported on the dissection, via the cut polygon."""
    t = d.carrier
    if t.num_marked % 2 != 0:
        raise OddMarkedPoints(f"{t.num_marked} marked points; no deep points")
    for aid in t.boundary_arcs():
        if aid not in boundary_values:
            raise SurfaceError(f"missing value for boundary arc {aid}")
        if boundary_values[aid].is_zero:
            raise ZeroValue(f"boundary arc {aid} must be nonzero")
    for aid in d.arcs:
        if aid not in dissection_values:
            raise SurfaceError(f"missing value for dissection arc {aid}")
        if dissection_values[aid].is_zero:
            raise ZeroValue(f"dissection arc {aid} must be nonzero")

    cp = cut_polygon(d)
    value_of_arc = dict(boundary_values)
    value_of_arc.update(dissection_values)
    edges = {}
    for slot, aid in enumerate(cp.arc_of_edge_source, start=1):
        edges[cp.polygon_edge(slot)] = value_of_arc[aid]
    poly_point = deep_point_from_edges(cp.size, edges)

    values: Dict[int, Optional[FieldValue]] = dict(value_of_arc)
    for aid, diag in cp.diagonal_of_arc.items():
        values[aid] = poly_point.value(*diag)
    ctx = next(iter(boundary_values.values())).ctx
    return SurfaceDeepPoint(values, class_of_dissection(d), ctx)


def solve_closing_value(
    d: Dissection, values: Mapping[int, FieldValue], target_arc: int
) -> FieldValue:
    """The unique nonzero value on target_arc (a boundary arc) making the
    alternating product around the cut polygon equal (-1)**(b + m/2),
    given values on every other boundary and dissection arc."""
    t = d.carrier
    if not 0 <= target_arc < len(t.arcs):
        raise SurfaceError(f"no arc {target_arc}: arc ids run 0..{len(t.arcs) - 1}")
    if not t.arc_is_boundary(target_arc):
        raise SurfaceError("the closing arc must be a boundary arc")
    # every boundary arc is an edge of the cut polygon
    sources = cut_polygon(d).arc_of_edge_source
    missing = [a for a in sources if a != target_arc and a not in values]
    if missing:
        raise SurfaceError(f"missing value for arc {missing[0]} of the cut polygon")
    ctx = next(iter(values.values())).ctx
    # with one on the target, the condition reads target**(+-1) * alt == sign
    cycle = [ctx.one() if a == target_arc else values[a] for a in sources]
    alt, sign = alternating_condition(cycle)
    return sign / alt if sources.index(target_arc) % 2 == 0 else alt / sign


def _flip_determined(
    t: SurfaceTriangulation,
    labels: Sequence[int],
    values: Mapping[int, Optional[FieldValue]],
    quad: Quad,
    new_label: int,
) -> bool:
    """Whether flipping the arc inside `quad` (its `flip_quad`) determines
    the new arc's value, given the labels before the flip: its label
    new_label is 0, or the old value is known and nonzero and so are the
    values on the four sides of the quadrilateral.  A known value is 0
    exactly where its label is 0, so the old arc's label answers for the
    value's zero test."""
    if new_label == 0:
        return True
    arc, get = t._arc_of_side, values.get
    a1, p, q, _, r, s = quad
    if labels[arc[a1]] == 0:
        return False
    return (
        get(arc[a1]) is not None
        and get(arc[p]) is not None
        and get(arc[q]) is not None
        and get(arc[r]) is not None
        and get(arc[s]) is not None
    )


def _flip_value(
    arc: Sequence[int],
    labels: Sequence[int],
    values: Sequence[object],
    quad: Quad,
    new_label: int,
    determined: bool,
    rule: tuple,
) -> object:
    """The payload of the arc inside `quad` after its flip, or None, given
    each side's arc, the labels before it, the values as payloads by arc id
    (`FieldContext.ptolemy_payloads`, None where unknown), its new label,
    `_flip_determined` and the field's `ptolemy_rule`, whose formulas are
    the only reads of a payload here.  The rule reads the labels.  A known
    value is 0 exactly where its label is 0, and the old triangles are
    even, so l(p) + l(q) = l(a1) = l(r) + l(s), and the new label is
    l(q) + l(r).

    At label 1 the value is None unless determined, and then the old value
    is nonzero, so l(a1) = 1 and l(p) = l(r) != l(q) = l(s).  In the
    exchange identity old * new = v(p)v(r) + v(q)v(s) the pair with label-0
    sides has product 0, so the value is the other pair's product over the
    old value: the rule's ratio, and nonzero.

    At label 0 the value is the rule's 0, and the identity reads
    v(p)v(r) + v(q)v(s) = 0.  Here l(q) = l(r) and l(p) = l(s), so a
    label-0 side puts a 0 in both products and the identity holds.  It can
    fail only when all four sides are labeled 1, and only then is it
    tested, by the rule's vanishing test, whenever the four values are
    known, the old value or not."""
    if not determined:
        return None
    ratio, vanishes, zero, mod = rule
    a1, p, q, _, r, s = quad
    if new_label == 1:
        if labels[arc[p]] == 1:
            return ratio(values[arc[p]], values[arc[r]], values[arc[a1]], mod)
        return ratio(values[arc[q]], values[arc[s]], values[arc[a1]], mod)
    if labels[arc[p]] == 1 and labels[arc[q]] == 1 and labels[arc[r]] == 1 and labels[arc[s]] == 1:
        vp, vq, vr, vs = values[arc[p]], values[arc[q]], values[arc[r]], values[arc[s]]
        if vp is not None and vq is not None and vr is not None and vs is not None:
            if not vanishes(vp, vr, vq, vs, mod):
                raise SurfaceError(f"exchange identity fails at arc {arc[a1]}")
    return zero


def flip_evaluation(p: SurfaceDeepPoint, aid: int) -> SurfaceDeepPoint:
    """Carry the deep point across one flip: the class always transports,
    the new value is `_flip_value`'s, read on the point's payloads, and the
    result is built through `Z2Class` and `SurfaceDeepPoint`, so it passes
    every check of both."""
    t, ctx = p.triangulation, p.ctx
    quad = t.flip_quad(aid)
    # transport_class, with the quad worked out above
    z2 = Z2Class(t._flip(quad), _transport_labels(t, p.z2.labels, quad))
    new_label = z2.labels[aid]
    determined = _flip_determined(t, p.z2.labels, p.values, quad, new_label)
    payloads = ctx.ptolemy_payloads(p.values.get(a) for a in range(len(t.arcs)))
    new_value = _flip_value(
        t._arc_of_side, p.z2.labels, payloads, quad, new_label, determined, ctx.ptolemy_rule()
    )
    return SurfaceDeepPoint({**p.values, aid: ctx.ptolemy_values([new_value])[0]}, z2, ctx)


@dataclass
class WalkReport:
    steps: int
    flips_taken: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    undetermined_values: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_deep_random_walk(
    p: SurfaceDeepPoint, steps: int, seed: int
) -> WalkReport:
    """Seeded random flip walk certifying deepness along the way.

    The start state is rebuilt through `Z2Class` and `SurfaceDeepPoint`,
    whose checks it must pass.  The walk then owns one mutable state and
    flips it in place, by the rule `flip_evaluation` uses.  From a
    certified state a flip can fail only one check, so a step makes only
    that: the exchange identity at a flip to label 0.  The rest holds by
    the flip itself.  Neither new triangle repeats a side (`_write_flip`),
    and `_new_label` finds the new label the same from either new triangle,
    so both are even.

    The value rule, `_flip_value`, reads the labels.  At a flip to label 0
    it tests the identity v(p)v(r) + v(q)v(s) = 0 only when all four
    sides are labeled 1 and known.  A skipped test cannot fail: the old
    triangles are even, so l(q) = l(r) and l(p) = l(s), and a label-0 side
    puts a 0 value in both products.  A determined label-1 value is the
    product of the label-1 pair, v(p)v(r) or v(q)v(s), over the nonzero
    old value: the old arc and the new one are labeled 1, so
    l(p) = l(r) != l(q) = l(s), and the other pair's product is 0.  So it
    meets the identity and is nonzero.

    The state is flat: copies of the carrier's triangles and of its lists
    of each side's triangle and slot, which `_write_flip` flips in place,
    its list of each side's arc, which no flip changes, and the values as
    payloads in a list by arc id, None where unknown
    (`FieldContext.ptolemy_payloads`), which `_flip_value` reads only
    through the field's `ptolemy_rule`.  No step builds a field value.  A
    flip of an arc changes the label, value and quadrilateral of no arc
    outside that quadrilateral, so only its arc and the arcs of its four
    sides are re-tested.  One inline pass re-tests an arc: its quad,
    its new label (the cocycle completion l(q) + l(r), as `_new_label`
    takes it) and whether its flip determines its value, as
    `_flip_determined` decides it.  While no value is unknown that last
    test reads only the new label and the arc's own.  The determined arcs
    form a sorted pool, and a step flips a seeded choice from it, or from
    every interior arc when it is empty.

    A step changes the state only once its check passes; a failure is
    recorded as `step N: ...` and ends the walk.  A flip carries the
    surface invariants, so the end state is rebuilt from its triangles and
    gluing, which runs every surface check once, and through `Z2Class` and
    `SurfaceDeepPoint`, on field values built once from the payloads; a
    failure there, or invariants other than the carried ones, is recorded
    as `end: ...`.  No flip path is kept."""
    import random as _random

    if steps < 0:
        raise SurfaceError(f"a walk takes a nonnegative number of steps, got {steps}")
    if steps > MAX_WALK_STEPS:
        raise SurfaceError(f"a walk takes at most {MAX_WALK_STEPS} steps, got {steps}")

    rng = _random.Random(seed)
    report = WalkReport(steps)
    try:
        start = SurfaceDeepPoint(p.values, Z2Class(p.z2.carrier, p.z2.labels), p.ctx)
    except SurfaceError as exc:
        report.failures.append(f"start: {exc}")
        return report
    t, ctx = start.triangulation, start.ctx
    arcs, arc_of, rule = t.arcs, t._arc_of_side, ctx.ptolemy_rule()
    triangles, tri_of, slot_of = list(t.triangles), list(t.tri_of), list(t.slot_of)
    interior = [len(a) == 2 for a in arcs]
    candidates = [a for a in range(len(arcs)) if interior[a]]
    labels = list(start.z2.labels)
    values = ctx.ptolemy_payloads(start.values.get(a) for a in range(len(arcs)))
    unknown = values.count(None)
    quads: List[Optional[Quad]] = [None] * len(arcs)
    new_labels = [0] * len(arcs)
    in_pool = [False] * len(arcs)
    pool: List[int] = []
    retest: Iterable[int] = candidates
    value_of, write, choice = _flip_value, _write_flip, rng.choice
    flips_taken = report.flips_taken
    for step in range(steps):
        for x in retest:
            if not interior[x]:
                continue
            # the arc's two sides, in id order as `flip_quad` takes them
            a1, a2 = arcs[x]
            k, tri = slot_of[a1], triangles[tri_of[a1]]
            # slot k - 2 is slot k + 1 and k - 1 is k + 2, mod 3
            sp, sq = tri[k - 2], tri[k - 1]
            k, tri = slot_of[a2], triangles[tri_of[a2]]
            sr, ss = tri[k - 2], tri[k - 1]
            quads[x] = (a1, sp, sq, a2, sr, ss)
            new_labels[x] = new_label = labels[arc_of[sq]] ^ labels[arc_of[sr]]
            if new_label == 0:
                determined = True
            elif unknown == 0:
                determined = labels[x] == 1
            else:
                determined = (
                    labels[x] == 1
                    and values[x] is not None
                    and values[arc_of[sp]] is not None
                    and values[arc_of[sq]] is not None
                    and values[arc_of[sr]] is not None
                    and values[arc_of[ss]] is not None
                )
            if determined != in_pool[x]:
                in_pool[x] = determined
                if determined:
                    insort(pool, x)
                else:
                    del pool[bisect_left(pool, x)]
        if pool:
            aid, determined = choice(pool), True
        else:
            aid, determined = choice(candidates), False
        quad, new_label = quads[aid], new_labels[aid]
        try:
            value = value_of(arc_of, labels, values, quad, new_label, determined, rule)
        except SurfaceError as exc:
            report.failures.append(f"step {step}: {exc}")
            break
        write(triangles, tri_of, slot_of, quad)
        labels[aid] = new_label
        if value is None:
            report.undetermined_values += 1
            if values[aid] is not None:
                unknown += 1
        elif values[aid] is None:
            unknown -= 1
        values[aid] = value
        _, sp, sq, _, sr, ss = quad
        retest = (aid, arc_of[sp], arc_of[sq], arc_of[sr], arc_of[ss])
        flips_taken.append(aid)
    try:
        end = SurfaceTriangulation(triangles, t.glue)
        if end.invariants() != t.invariants():
            raise SurfaceError(
                f"invariants {end.invariants()} differ from the carried {t.invariants()}"
            )
        SurfaceDeepPoint(dict(enumerate(ctx.ptolemy_values(values))), Z2Class(end, tuple(labels)), ctx)
    except SurfaceError as exc:
        report.failures.append(f"end: {exc}")
    return report


# ---------------------------------------------------------------------------
# alternating double covers


@dataclass
class AlternatingDoubleCover:
    """Two copies of the cut polygon with opposite alternating colorings,
    re-glued along the dissection so endpoint colors match."""

    base: SurfaceTriangulation
    projection: Dict[int, int]
    vertex_colors: Dict[int, int]
    complex: _Complex

    def indicator_labels(self) -> Tuple[int, ...]:
        """Label 1 on base arcs whose lifts join opposite colors, 0 on arcs
        whose lifts have same-colored ends (the vanishing class)."""
        out = []
        for sides in self.base.arcs:
            s = sides[0]
            tail = self.complex.tail_vertex(s)
            head = self.complex.head_vertex(s)
            out.append(0 if self.vertex_colors[tail] == self.vertex_colors[head] else 1)
        return tuple(out)


def alternating_double_cover(d: Dissection) -> AlternatingDoubleCover:
    t = d.carrier
    if t.num_marked % 2 != 0:
        raise OddMarkedPoints("alternating covers need an even marked-point count")
    cut_cx, _, vertex_number = _cut(d)

    def color(copy: int, s: int, at_head: bool) -> int:
        vtx = cut_cx.head_vertex(s) if at_head else cut_cx.tail_vertex(s)
        return (vertex_number[vtx] + copy) % 2

    shift = len(cut_cx.sides)
    triangles = list(t.triangles) + [
        tuple(s + shift for s in tri) for tri in t.triangles
    ]
    glue: Dict[int, int] = {}
    for a, b in cut_cx.glue.items():
        glue[a] = b
        glue[a + shift] = b + shift
    for aid in d.sorted_arcs():
        s1, s2 = t.arcs[aid]
        # gluing identifies tail(s1) with head(s2): same copy iff colors agree
        same_copy = color(0, s1, at_head=False) == color(0, s2, at_head=True)
        if same_copy:
            pairs = [(s1, s2), (s1 + shift, s2 + shift)]
        else:
            pairs = [(s1, s2 + shift), (s1 + shift, s2)]
        for a, b in pairs:
            glue[a] = b
            glue[b] = a
    cover_cx = _Complex(triangles, glue)

    projection = {s: (s - shift if s >= shift else s) for s in cover_cx.sides}
    vertex_colors: Dict[int, int] = {}
    for s in cover_cx.sides:
        c = color(int(s >= shift), projection[s], at_head=False)
        vtx = cover_cx.tail_vertex(s)
        if vtx in vertex_colors and vertex_colors[vtx] != c:
            raise SurfaceError("cover coloring is inconsistent around a vertex")
        vertex_colors[vtx] = c

    cover = AlternatingDoubleCover(
        base=t,
        projection=projection,
        vertex_colors=vertex_colors,
        complex=cover_cx,
    )
    _validate_cover(cover)
    return cover


def _validate_cover(cover: AlternatingDoubleCover) -> None:
    cx, base = cover.complex, cover.base
    # adjacent marked points along the cover boundary have opposite colors
    for s in cx.boundary_sides:
        if cover.vertex_colors[cx.tail_vertex(s)] == cover.vertex_colors[cx.head_vertex(s)]:
            raise SurfaceError("adjacent cover marked points share a color")
    # the two preimages of each base marked point have opposite colors
    preimages: Dict[int, Set[int]] = {}
    for s in cx.sides:
        base_vertex = base.tail_vertex(cover.projection[s])
        preimages.setdefault(base_vertex, set()).add(cx.tail_vertex(s))
    for base_vertex, lifted in preimages.items():
        if len(lifted) != 2:
            raise SurfaceError(
                f"marked point {base_vertex} has {len(lifted)} preimages"
            )
        c1, c2 = [cover.vertex_colors[v] for v in sorted(lifted)]
        if c1 == c2:
            raise SurfaceError(f"preimages of marked point {base_vertex} share a color")


# ---------------------------------------------------------------------------
# the Dehn twist scenario on the (1,1)-annulus


def _boundary_pinned_isomorphism(
    t_from: SurfaceTriangulation, t_to: SurfaceTriangulation
) -> Optional[Dict[int, int]]:
    """A side bijection fixing every boundary side, commuting with the
    gluing, and matching triangles with their cyclic order; None if none
    exists."""
    interior_from = sorted(s for tri in t_from.triangles for s in tri if s in t_from.glue)
    interior_to = sorted(s for tri in t_to.triangles for s in tri if s in t_to.glue)
    if len(interior_from) != len(interior_to):
        return None
    to_triangles = set()
    for tri in t_to.triangles:
        for r in range(3):
            to_triangles.add((tri[r], tri[(r + 1) % 3], tri[(r + 2) % 3]))
    for image in itertools.permutations(interior_to):
        phi = {s: s for s in t_from.boundary_sides}
        phi.update(dict(zip(interior_from, image)))
        if any(phi[t_from.glue[s]] != t_to.glue[phi[s]] for s in interior_from):
            continue
        if all(
            (phi[a], phi[b], phi[c]) in to_triangles for a, b, c in t_from.triangles
        ):
            return phi
    return None


@dataclass
class DehnTwistReport:
    flip_sequence: Tuple[int, ...]
    class_map: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    swaps: bool
    square_is_identity: bool
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _twist_action(
    t0: SurfaceTriangulation,
) -> Tuple[Tuple[int, ...], Dict[Tuple[int, ...], Tuple[int, ...]]]:
    """The shortest non-backtracking flip sequence returning to a
    boundary-pinned copy of t0, as a permutation of label classes."""
    sequences = [((), t0)]
    for length in range(1, MAX_TWIST_FLIPS + 1):
        next_sequences = []
        for path, tri in sequences:
            for aid in tri.interior_arcs():
                if path and path[-1] == aid:
                    continue
                t2 = tri.flip(aid)
                new_path = path + (aid,)
                phi = _boundary_pinned_isomorphism(t2, t0)
                if phi is not None:
                    action = {}
                    for cls in solve_classes(t0):
                        labels = functools.reduce(transport_class, new_path, cls).labels
                        relabeled = [0] * len(t0.arcs)
                        for side, image in phi.items():
                            relabeled[t0.arc_of_side(image)] = labels[t2.arc_of_side(side)]
                        action[cls.labels] = tuple(relabeled)
                    return new_path, action
                next_sequences.append((new_path, t2))
        sequences = next_sequences
    raise SurfaceError("no combinatorial return found within the length cap")


def dehn_twist_scenario_11_annulus() -> DehnTwistReport:
    """Realize the Dehn twist of the (1,1)-annulus as the shortest
    non-backtracking flip return and check that it swaps the two label
    classes while its square acts trivially."""
    t0 = named_surface("annulus11")
    classes = solve_classes(t0)
    failures: List[str] = []
    if len(classes) != 2:
        failures.append(f"expected 2 classes on the (1,1)-annulus, got {len(classes)}")
    path, action = _twist_action(t0)
    label_set = {c.labels for c in classes}
    if set(action.values()) != label_set:
        failures.append("twist image is not a permutation of the classes")
    swaps = bool(action) and all(v != k for k, v in action.items())
    square_identity = all(action.get(v) == k for k, v in action.items())
    if not swaps:
        failures.append("twist acts trivially on the deep components")
    if not square_identity:
        failures.append("twist squared is not the identity on the components")
    return DehnTwistReport(
        flip_sequence=path,
        class_map=sorted(action.items()),
        swaps=swaps,
        square_is_identity=square_identity,
        failures=failures,
    )
