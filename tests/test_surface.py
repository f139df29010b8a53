import itertools
import random

import pytest

from deeplocus.field import QI, QQ, prime_field
from deeplocus.polygon import ConditionViolated, is_deep_bruteforce
from deeplocus.surface import (
    AvoidanceFailed,
    BoundaryArc,
    DifferentSurface,
    DisconnectedResult,
    Dissection,
    InconsistentCocycle,
    InvalidPairing,
    NoClass,
    NonOrientableGluing,
    NonUnique,
    NotADissection,
    OddMarkedPoints,
    SurfaceError,
    SurfaceTooLarge,
    SurfaceTriangulation,
    UnmarkedSurface,
    Z2Class,
    ZeroValue,
    alternating_double_cover,
    build_from_gluing,
    class_of_dissection,
    congruent,
    count_classes,
    cut_polygon,
    deep_point_from_dissection,
    dehn_twist_scenario_11_annulus,
    dissection_avoiding,
    dissection_spanning_tree,
    flip_evaluation,
    named_surface,
    solve_classes,
    solve_closing_value,
    subset_bijection,
    transport_class,
    transport_to_reference,
    verify_deep_random_walk,
)

from conftest import F2, F3, F5, random_value

ALL_NAMES = ["disk6", "annulus22", "annulus21", "annulus11", "genus1"]
NAMED_SURFACES = ALL_NAMES + ["disk4", "genus2", "pants"]


def ones_deep_point(t, dissection=None, special=None):
    """Deep point with value 1 on the boundary and on the dissection
    (optionally overriding one dissection arc's value)."""
    d = dissection or dissection_spanning_tree(t)
    bvals = {a: QQ.one() for a in t.boundary_arcs()}
    dvals = {a: QQ.one() for a in d.arcs}
    if special:
        dvals.update(special)
    return deep_point_from_dissection(d, bvals, dvals)


def random_deep_point(t, ctx, rng):
    """Deep point with random nonzero values on the boundary and the
    spanning-tree dissection, closed on the first boundary arc."""
    d = dissection_spanning_tree(t)
    bvals = {a: random_value(ctx, rng, nonzero=True) for a in t.boundary_arcs()}
    dvals = {a: random_value(ctx, rng, nonzero=True) for a in d.arcs}
    target = t.boundary_arcs()[0]
    bvals[target] = solve_closing_value(d, {**bvals, **dvals}, target)
    return deep_point_from_dissection(d, bvals, dvals)


def genus_surface(g):
    """Genus g with one boundary component: a (4g+2)-gon whose first 4g
    sides are glued crosswise in blocks of four, as genus2 is."""
    blocks = [((4 * k, 4 * k + 2), (4 * k + 1, 4 * k + 3)) for k in range(g)]
    return build_from_gluing(4 * g + 2, [pair for block in blocks for pair in block])


class TestBuilding:
    def test_disk(self):
        assert named_surface("disk6").invariants() == (0, 1, 6, 9)

    def test_annulus22_from_hexagon(self):
        assert named_surface("annulus22").invariants() == (0, 2, 4, 8)

    def test_annulus21(self):
        assert named_surface("annulus21").invariants() == (0, 2, 3, 6)

    def test_annulus11(self):
        assert named_surface("annulus11").invariants() == (0, 2, 2, 4)

    def test_genus_one(self):
        assert named_surface("genus1").invariants() == (1, 1, 2, 7)

    def test_torus_rejected(self):
        with pytest.raises(UnmarkedSurface):
            build_from_gluing(4, [(0, 2), (1, 3)])

    def test_self_gluing_rejected(self):
        with pytest.raises(NonOrientableGluing):
            build_from_gluing(4, [(0, 0)])

    def test_double_gluing_rejected(self):
        with pytest.raises(InvalidPairing):
            build_from_gluing(6, [(0, 3), (0, 4)])

    @pytest.mark.parametrize(
        "triangles, glue, error, message",
        [
            ([(0, 0, 1)], {}, InvalidPairing, "triangle 0 repeats a side id"),
            ([(0, 1, 2), (2, 3, 4)], {}, InvalidPairing, "side 2 used twice"),
            ([(0, 1, 2)], {0: 0}, NonOrientableGluing, "side 0 glued to itself"),
            ([(0, 1, 2), (3, 4, 5)], {0: 3}, InvalidPairing, "gluing of 0 and 3 is not involutive"),
            ([(0, 1, 2)], {0: 9, 9: 0}, InvalidPairing, "gluing touches unknown side 0 or 9"),
            ([], {}, DisconnectedResult, "triangle adjacency graph is disconnected"),
            # the sides of F triangles are 0..3F-1: a gap at 1 puts 6 past them
            ([(0, 2, 3), (4, 5, 6)], {}, InvalidPairing, r"side 6 is not in the side ids 0\.\.5"),
            ([(-1, 0, 1)], {}, InvalidPairing, r"side -1 is not in the side ids 0\.\.2"),
            ([(0, 1, 2), (3, 4, 9)], {}, InvalidPairing, r"side 9 is not in the side ids 0\.\.5"),
        ],
        ids=["repeated-side", "shared-side", "self-glued", "one-way", "unknown-side", "empty",
             "gap-in-ids", "negative-id", "id-past-3F"],
    )
    def test_bad_triangles_and_gluings_are_refused(self, triangles, glue, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            SurfaceTriangulation(triangles, glue)

    def test_a_polygon_over_the_triangle_cap_is_refused_before_any_build(self, monkeypatch):
        # every named surface, every fixture (the records of the sweep and
        # the CLI's refusals are not surfaces) and a genus-64 surface with one
        # boundary (258 sides, 4g of them glued) stay under the cap, and a
        # build at the cap answers; one triangle more is refused before any
        # side is glued or any class is solved
        import json
        from pathlib import Path

        from deeplocus import surface

        cap = surface.MAX_SURFACE_TRIANGLES
        sides = [n for n, _ in surface._NAMED_GLUINGS.values()]
        data = Path(__file__).parent / "data"
        sides += [json.loads(f.read_text())["polygon_sides"] for f in data.glob("*.json")
                  if f.name not in ("sweep.json", "bad_inputs.json") and "polygon_sides" in f.read_text()]
        assert genus_surface(64).invariants()[:3] == (64, 1, 2)
        assert max(sides + [258]) - 2 < cap
        assert len(build_from_gluing(cap + 2, []).triangles) == cap

        def no_work(*args):
            raise AssertionError("built")

        monkeypatch.setattr(surface, "SurfaceTriangulation", no_work)
        monkeypatch.setattr(surface, "_eliminate", no_work)
        for n in (cap + 3, 10**30):
            with pytest.raises(SurfaceTooLarge, match=(
                f"^a {n}-gon has {n - 2} triangles; it exceeds the cap MAX_SURFACE_TRIANGLES = {cap}$"
            )):
                build_from_gluing(n, [(0, 1)])

    def test_equal_builds_hash_equal_and_print_their_invariants(self):
        t = named_surface("genus1")
        assert len({t, named_surface("genus1"), t.flip(t.interior_arcs()[0])}) == 2
        d = dissection_spanning_tree(t)
        assert len({d, dissection_spanning_tree(named_surface("genus1"))}) == 1
        assert repr(t) == "SurfaceTriangulation(g=1, b=1, m=2, arcs=7)"
        with pytest.raises(AttributeError, match="object has no attribute 'genus3'"):
            t.genus3

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_arc_count_identity(self, name):
        g, b, m, arcs = named_surface(name).invariants()
        assert arcs == 6 * g + 3 * b + 2 * m - 6

    def test_inconsistent_side_position_raises(self):
        # an interior side placed at a wrong slot breaks the vertex walks,
        # which must stop after the side count instead of looping forever;
        # each corrupted triangulation is a fresh build, whose lists no
        # other triangulation shares
        t0 = build_from_gluing(6, [(0, 3)])
        for s in t0.sides:
            if s not in t0.glue:
                continue
            for slot in itertools.product(range(len(t0.triangles)), range(3)):
                if slot == (t0.tri_of[s], t0.slot_of[s]):
                    continue
                t = build_from_gluing(6, [(0, 3)])
                t.tri_of[s], t.slot_of[s] = slot
                with pytest.raises(SurfaceError, match="does not close"):
                    t._build_vertices()

    def test_boundary_walk_is_bounded(self):
        # with every boundary side followed by the second one, the walk
        # from the first boundary side never returns to it
        t = named_surface("disk6")
        first, other = t.boundary_sides[0], t.boundary_sides[1]
        t.head_vertex = lambda s: t.tail_vertex(other)
        with pytest.raises(SurfaceError, match=f"side {first} does not close"):
            t.boundary_components()

    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_named_surface_is_built_once_and_each_call_is_its_own(self, monkeypatch, name):
        # each name is built and checked once per process; every call equals
        # a fresh build, shares every table of the build, and keeps to
        # itself what callers change: its attributes and its methods
        from deeplocus import surface

        checked = []
        check = SurfaceTriangulation._check_surface

        def counted(t):
            checked.append(t)
            check(t)

        monkeypatch.setattr(SurfaceTriangulation, "_check_surface", counted)
        monkeypatch.setattr(surface, "_NAMED_TEMPLATES", {})
        fresh = build_from_gluing(*surface._NAMED_GLUINGS[name])
        del checked[:]

        def assert_fresh(t):
            assert t == fresh and hash(t) == hash(fresh)
            assert t.triangles == fresh.triangles
            assert (t.tri_of, t.slot_of) == (fresh.tri_of, fresh.slot_of)
            assert t.sides == fresh.sides and t.boundary_sides == fresh.boundary_sides
            assert t.arcs == fresh.arcs and t._arc_of_side == fresh._arc_of_side
            assert t.vertex_of_side == fresh.vertex_of_side
            assert t.vertex_fans == fresh.vertex_fans
            assert t.interior_vertices == fresh.interior_vertices == 0
            assert [t.head_vertex(s) for s in t.sides] == [fresh.head_vertex(s) for s in fresh.sides]
            assert t.invariants() == fresh.invariants()
            assert (t.reference, t.flip_path) == (None, ())

        first, second = named_surface(name), named_surface(name)
        assert len(checked) == 1
        for t in (first, second):
            assert_fresh(t)
        assert first is not second and vars(first) is not vars(second)
        for attr in ("triangles", "_glue", "tri_of", "slot_of", "sides", "boundary_sides", "arcs",
                     "_arc_of_side", "vertex_of_side", "vertex_fans"):
            assert getattr(first, attr) is getattr(second, attr), attr
        first.genus, first.num_marked = 99, 99
        first.head_vertex = lambda side: -1
        assert_fresh(named_surface(name))
        assert_fresh(second)
        assert len(checked) == 1

    @pytest.mark.parametrize("name", ["annulus22", "genus1", "genus2", "pants"])
    def test_the_shared_named_build_is_never_changed(self, name):
        # named_surface hands out the build's own tables, not copies: flips,
        # a walk, avoidance, transport, a cut and a double cover from it
        # write to copies and leave the build's tables as they were
        from deeplocus import surface

        t = named_surface(name)
        build = surface._NAMED_TEMPLATES[name]
        tables = ("triangles", "tri_of", "slot_of", "_arc_of_side")
        before = {attr: list(getattr(build, attr)) for attr in tables}
        assert all(getattr(t, attr) is getattr(build, attr) for attr in tables)
        rng = random.Random(f"shared-build/{name}")
        flipped = t
        for _ in range(20):
            flipped = flipped.flip(rng.choice(flipped.interior_arcs()))
        report = verify_deep_random_walk(random_deep_point(t, prime_field(101), rng), 200, seed=1)
        assert report.passed and len(report.flips_taken) == 200
        for cls in solve_classes(t):
            dissection_avoiding(t, cls)
        for cls in solve_classes(flipped):
            transport_to_reference(cls)
        d = dissection_spanning_tree(t)
        cut_polygon(d)
        alternating_double_cover(d)
        assert {attr: list(getattr(build, attr)) for attr in tables} == before
        assert named_surface(name).tri_of is build.tri_of


class TestFlips:
    def test_square_disk_flip(self):
        t = named_surface("disk4")
        [aid] = t.interior_arcs()
        t2 = t.flip(aid)
        assert t2.invariants() == t.invariants()
        assert t2 != t

    def test_double_flip_is_isomorphic(self):
        t = named_surface("annulus22")
        for aid in t.interior_arcs():
            t2 = t.flip(aid).flip(aid)
            # same triangles up to swapping the two sides of the arc
            tris = {frozenset(tri) for tri in t.triangles}
            tris2 = set()
            a1, a2 = t.arcs[aid]
            swap = {a1: a2, a2: a1}
            for tri in t2.triangles:
                tris2.add(frozenset(swap.get(s, s) for s in tri))
            assert tris == tris2

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_flips_preserve_invariants(self, name, rng):
        t = named_surface(name)
        for _ in range(12):
            aid = rng.choice(t.interior_arcs())
            t = t.flip(aid)
            assert t.invariants() == named_surface(name).invariants()

    def test_boundary_arc_not_flippable(self):
        t = named_surface("disk6")
        with pytest.raises(BoundaryArc):
            t.flip(t.boundary_arcs()[0])

    @pytest.mark.parametrize("aid", [-1, 8, 99])
    def test_flip_refuses_an_unknown_arc(self, aid):
        # annulus22 has arcs 0..7; -1 is not read as the last one, and the
        # flip, its quad, class transport and flip_evaluation all refuse it
        t = named_surface("annulus22")
        p = ones_deep_point(t)
        flips = [
            t.flip,
            t.flip_quad,
            lambda a: transport_class(p.z2, a),
            lambda a: flip_evaluation(p, a),
        ]
        for flip in flips:
            with pytest.raises(SurfaceError, match=f"^no arc {aid}: arc ids run 0..7$"):
                flip(aid)

    def test_replay(self):
        t = named_surface("genus1")
        arcs = t.interior_arcs()
        walked = t
        for aid in [arcs[0], arcs[2], arcs[0], arcs[1]]:
            walked = walked.flip(aid)
        chain = walked.replay()
        assert chain[0] == t and chain[-1] == walked

    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_flip_matches_a_fresh_build(self, name):
        # a flip derives its complex from the parent; a from-scratch build
        # of the same triangles and gluing is the oracle
        rng = random.Random(f"flip-oracle/{name}")
        t = named_surface(name)
        invariants = t.invariants()
        for _ in range(300):
            aid = rng.choice(t.interior_arcs())
            a1, a2 = t.arcs[aid]
            swap = {a1: a2, a2: a1}
            twice = t.flip(aid).flip(aid)
            assert {frozenset(swap.get(x, x) for x in tri) for tri in twice.triangles} == {
                frozenset(tri) for tri in t.triangles
            }
            t = t.flip(aid)
            fresh = SurfaceTriangulation(t.triangles, dict(t.glue))
            assert t.triangles == fresh.triangles
            assert (t.tri_of, t.slot_of) == (fresh.tri_of, fresh.slot_of)
            assert t.arcs == fresh.arcs
            assert {s: t.arc_of_side(s) for s in t.sides} == {
                s: fresh.arc_of_side(s) for s in fresh.sides
            }
            assert t.vertex_of_side == fresh.vertex_of_side
            assert t.vertex_fans == fresh.vertex_fans
            assert t.interior_vertices == fresh.interior_vertices == 0
            assert t.invariants() == fresh.invariants() == invariants
        assert t.replay()[-1] == t
        with pytest.raises(BoundaryArc):
            t.flip(t.boundary_arcs()[0])

    def test_glue_is_read_only(self):
        # every triangulation of a flip chain shares one gluing
        t = named_surface("annulus22")
        flipped = t.flip(t.interior_arcs()[0])
        with pytest.raises(TypeError):
            flipped.glue[0] = 3
        assert flipped.glue == t.glue

    @pytest.mark.parametrize("check", ["connected", "punctures", "genus"])
    def test_a_build_and_a_walk_end_run_every_surface_check(self, monkeypatch, check):
        # a flip carries the surface checks over from its parent; each one a
        # flip result fails must make a build of its triangles raise, and a
        # walk, which builds its end state so, report it as its one failure
        from deeplocus.surface import _Complex

        build_vertices, counts = _Complex._build_vertices, _Complex.counts

        def punctured(cx):
            build_vertices(cx)
            cx.interior_vertices = 1

        def one_more_vertex(cx):
            v, e, f = counts(cx)
            return v + 1, e, f

        method, patched, error = {
            "connected": ("connected", lambda cx: False, DisconnectedResult),
            "punctures": ("_build_vertices", punctured, UnmarkedSurface),
            "genus": ("counts", one_more_vertex, SurfaceError),
        }[check]
        t = named_surface("genus1")
        p = ones_deep_point(t)
        flipped = t.flip(t.interior_arcs()[0])
        monkeypatch.setattr(_Complex, method, patched)
        with pytest.raises(error) as raised:
            SurfaceTriangulation(flipped.triangles, dict(flipped.glue))
        report = verify_deep_random_walk(p, 20, seed=5)
        assert len(report.flips_taken) == 20
        assert report.failures == [f"end: {raised.value}"]

    def test_flip_runs_no_global_surface_check(self, monkeypatch):
        # a flip and a flip evaluation touch only their quadrilateral: they
        # build no vertices and walk neither the triangles nor the boundary
        from deeplocus.surface import _Complex

        t = named_surface("genus2")
        p = ones_deep_point(t)
        invariants = t.invariants()

        def refuse(cx):
            raise AssertionError("a flip ran a global surface check")

        for method in ("_build_vertices", "connected", "boundary_components"):
            monkeypatch.setattr(_Complex, method, refuse)
        rng = random.Random("local-flips")
        for _ in range(50):
            t = t.flip(rng.choice(t.interior_arcs()))
            p = flip_evaluation(p, rng.choice(p.triangulation.interior_arcs()))
        assert t.invariants() == p.triangulation.invariants() == invariants

    def test_flip_path_lists_the_arcs_flipped_in_order(self):
        rng = random.Random("flip-path")
        t = named_surface("pants")
        assert t.flip_path == ()
        flipped = []
        for _ in range(40):
            aid = rng.choice(t.interior_arcs())
            t = t.flip(aid)
            flipped.append(aid)
            assert t.flip_path == tuple(flipped)


class TestClasses:
    @pytest.mark.parametrize(
        "name,count",
        [("disk6", 1), ("annulus22", 2), ("annulus21", 0), ("annulus11", 2), ("genus1", 4)],
    )
    def test_counts(self, name, count):
        t = named_surface(name)
        assert len(solve_classes(t)) == count
        g, b, m, _ = t.invariants()
        expected = 2 ** (2 * g + b - 1) if m % 2 == 0 else 0
        assert count == expected

    def test_disk_class_is_parity(self):
        # on the fan-triangulated hexagon disk, zero arcs are the even-gap
        # diagonals: the fan diagonal (0,2) and (0,4), not (0,3)
        t = named_surface("disk6")
        [cls] = solve_classes(t)
        cp = cut_polygon(dissection_spanning_tree(t))
        for aid, (i, j) in cp.diagonal_of_arc.items():
            assert cls.labels[aid] == ((j - i) % 2)

    @pytest.mark.parametrize("name", ["genus2", "pants"])
    def test_counts_on_larger_surfaces(self, name):
        # genus-2 with one boundary and the three-holed sphere
        t = named_surface(name)
        g, b, m, arcs = t.invariants()
        assert arcs == 6 * g + 3 * b + 2 * m - 6
        assert len(solve_classes(t)) == 2 ** (2 * g + b - 1)
        d = dissection_spanning_tree(t)
        assert len(d.arcs) == 2 * g + b - 1
        assert cut_polygon(d).size == 4 * g + 2 * b + m - 2
        mapping = subset_bijection(d)
        assert len(mapping) == 2 ** len(d.arcs)
        assert {c.labels for c in mapping.values()} == {
            c.labels for c in solve_classes(t)
        }
        p = ones_deep_point(t) if name == "pants" else None
        if p is not None:
            assert verify_deep_random_walk(p, 60, seed=2).passed

    def test_genus2_deep_point(self):
        from deeplocus.surface import solve_closing_value

        t = named_surface("genus2")
        d = dissection_spanning_tree(t)
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        dvals = {a: QQ.from_int(k + 2) for k, a in enumerate(sorted(d.arcs))}
        target = t.boundary_arcs()[0]
        bvals[target] = solve_closing_value(d, {**bvals, **dvals}, target)
        p = deep_point_from_dissection(d, bvals, dvals)
        assert verify_deep_random_walk(p, 60, seed=5).passed

    def test_counts_survive_flips(self, rng):
        for name in ["annulus22", "genus1"]:
            t = named_surface(name)
            n = len(solve_classes(t))
            for _ in range(6):
                t = t.flip(rng.choice(t.interior_arcs()))
                assert len(solve_classes(t)) == n

    def test_transport_round_trip(self):
        t = named_surface("annulus22")
        for cls in solve_classes(t):
            for aid in t.interior_arcs():
                there = transport_class(cls, aid)
                back = transport_to_reference(there)
                assert back.labels == cls.labels

    def test_transport_commutes_on_flip_squares(self):
        # two flips whose quadrilaterals are disjoint commute
        t = named_surface("genus1")
        for cls in solve_classes(t):
            for a, b in itertools.combinations(t.interior_arcs(), 2):
                quad_a = set(t.flip_quad(a))
                quad_b = set(t.flip_quad(b))
                if quad_a & quad_b:
                    continue
                ab = transport_class(transport_class(cls, a), b)
                ba = transport_class(transport_class(cls, b), a)
                assert ab.labels == ba.labels

    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_count_matches_the_listing(self, name):
        for t in flipped_carriers(name):
            assert count_classes(t) == len(solve_classes(t))

    def test_genus8_count_builds_no_class(self, monkeypatch):
        # counting the 2^16 classes of a genus-8 surface builds none of them
        from deeplocus.scenarios import scenario_surface_components

        t = genus_surface(8)
        validated = []
        monkeypatch.setattr(Z2Class, "__post_init__", lambda c: validated.append(c))
        assert count_classes(t) == 2**16
        report = scenario_surface_components(given_surface=("genus8.json", t))
        assert (report.passed, report.failed) == (3, 0)
        assert validated == []

    def test_cocycle_validation(self):
        t = named_surface("disk6")
        [cls] = solve_classes(t)
        bad = list(cls.labels)
        flip_at = t.interior_arcs()[0]
        bad[flip_at] ^= 1
        with pytest.raises(InconsistentCocycle):
            Z2Class(t, tuple(bad))

    def test_a_label_other_than_0_or_1_is_refused_first(self):
        # 2 on an interior arc keeps every triangle's sum even, and 3 on a
        # boundary arc is odd like 1: each is refused as a label before the
        # boundary and cocycle checks read it
        t = named_surface("annulus22")
        cls = solve_classes(t)[0]
        inner, edge = t.interior_arcs()[0], t.boundary_arcs()[0]
        for aid, label in [(inner, 2), (inner, -1), (edge, 3)]:
            bad = list(cls.labels)
            bad[aid] = label
            message = f"^arc {aid} is labeled {label}, not 0 or 1$"
            with pytest.raises(InconsistentCocycle, match=message):
                Z2Class(t, tuple(bad))


    def test_label_count_and_boundary_labels_are_checked(self):
        t = named_surface("annulus22")
        cls = solve_classes(t)[0]
        with pytest.raises(InconsistentCocycle, match="^one label per arc required$"):
            Z2Class(t, cls.labels[:-1])
        edge = t.boundary_arcs()[0]
        bad = list(cls.labels)
        bad[edge] = 0
        with pytest.raises(InconsistentCocycle, match=f"^boundary arc {edge} must be labeled 1$"):
            Z2Class(t, tuple(bad))

    def test_a_second_class_on_a_dissection_is_refused(self, monkeypatch):
        # a dissection's subsets index the classes one to one; a solver that
        # lists a class twice breaks that
        from deeplocus import surface

        t = named_surface("annulus22")
        d = dissection_spanning_tree(t)
        solve = surface.solve_classes
        monkeypatch.setattr(surface, "solve_classes", lambda *args: 2 * solve(*args))
        with pytest.raises(NonUnique, match="^4 classes vanish on 2 distinct subsets of the 1 dissection arcs$"):
            subset_bijection(d)


class TestDissections:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_sizes(self, name):
        t = named_surface(name)
        d = dissection_spanning_tree(t)
        g, b, m, _ = t.invariants()
        assert len(d.arcs) == 2 * g + b - 1
        cp = cut_polygon(d)
        assert cp.size == 4 * g + 2 * b + m - 2

    def test_disk_is_empty(self):
        assert dissection_spanning_tree(named_surface("disk6")).arcs == frozenset()

    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_a_cut_builds_its_vertices_when_first_read(self, name):
        # a complex built from triangles, like a flip, has no vertex
        # tables until one is read, and then has all three
        from deeplocus.surface import _VERTEX_ATTRS

        cx = dissection_spanning_tree(named_surface(name)).cut_complex
        assert not _VERTEX_ATTRS & set(vars(cx))
        assert cx.vertex_fans
        assert _VERTEX_ATTRS <= set(vars(cx))

    @pytest.mark.parametrize("name", NAMED_SURFACES + ["genus8"])
    def test_a_cut_shares_its_carriers_positions(self, name):
        # the cut shares the carrier's triangles and position lists, and
        # everything it builds equals a fresh build; walks and flips write
        # copies, so the shared lists never change
        t = genus_surface(8) if name == "genus8" else named_surface(name)
        rng = random.Random(f"shared/{name}")
        d = dissection_spanning_tree(t)
        cx, fresh = d.cut_complex, _cut_complex(t, d.arcs)
        assert cx.triangles is t.triangles and cx.tri_of is t.tri_of and cx.slot_of is t.slot_of
        for attr in ("triangles", "tri_of", "slot_of", "glue", "sides", "boundary_sides", "arcs",
                     "_arc_of_side", "vertex_fans", "vertex_of_side"):
            assert getattr(cx, attr) == getattr(fresh, attr), attr
        assert cx.boundary_components() == fresh.boundary_components()
        kept = (t.triangles, list(t.tri_of), list(t.slot_of))
        if t.num_marked % 2 == 0:
            p = random_deep_point(t, prime_field(101), rng)
            assert p.z2.carrier is t
            assert verify_deep_random_walk(p, 200, seed=rng.randrange(100)).passed
        if name != "genus8":
            # genus8 has 2^16 classes
            for cls in solve_classes(t)[:4]:
                dissection_avoiding(t, cls)
        t.flip(t.interior_arcs()[0])
        assert (cx.triangles, cx.tri_of, cx.slot_of) == kept
        assert (t.triangles, t.tri_of, t.slot_of) == kept

    def test_not_a_dissection(self):
        t = named_surface("annulus22")
        with pytest.raises(NotADissection):
            Dissection(t, frozenset(t.interior_arcs()[:2]))
        with pytest.raises(NotADissection):
            Dissection(t, frozenset([t.boundary_arcs()[0]]))

    def test_unknown_arc_id_is_rejected_first(self):
        t = named_surface("annulus22")
        boundary = t.boundary_arcs()[0]
        for aid in (999, len(t.arcs), -1):
            # a boundary arc beside it would fail the next check
            for arcs in ([aid], [aid, boundary]):
                with pytest.raises(NotADissection, match=f"no arc {aid}:"):
                    Dissection(t, frozenset(arcs))

    def test_class_of_dissection_unique(self):
        t = named_surface("annulus22")
        d = dissection_spanning_tree(t)
        cls = class_of_dissection(d)
        assert all(cls.labels[a] == 1 for a in d.arcs)
        assert all(cls.labels[a] == 1 for a in t.boundary_arcs())

    def test_odd_marked_points_have_no_class(self):
        t = named_surface("annulus21")
        d = dissection_spanning_tree(t)
        with pytest.raises(NoClass):
            class_of_dissection(d)

    def test_annulus22_congruence_classes(self):
        # the carrier's three dissections split into the two components
        t = named_surface("annulus22")
        dissections = []
        for aid in t.interior_arcs():
            try:
                dissections.append(Dissection(t, frozenset([aid])))
            except NotADissection:
                continue
        assert len(dissections) == 3
        labels = {class_of_dissection(d).labels for d in dissections}
        assert len(labels) == 2
        flags = [
            congruent(dissections[0], other) for other in dissections[1:]
        ]
        assert sorted(flags) == [False, True]

    def test_congruent_is_flip_invariant(self):
        t = named_surface("annulus22")
        d1 = dissection_spanning_tree(t)
        free_arc = next(a for a in t.interior_arcs() if a not in d1.arcs)
        t2 = t.flip(free_arc)
        d2 = Dissection(t2, d1.arcs)
        assert congruent(d1, d2)

    def test_different_surface_rejected(self):
        d1 = dissection_spanning_tree(named_surface("annulus22"))
        d2 = dissection_spanning_tree(named_surface("genus1"))
        with pytest.raises(DifferentSurface):
            congruent(d1, d2)

    def test_avoiding_dissection(self):
        for name in ["disk6", "annulus22", "annulus11", "genus1", "genus2", "pants"]:
            t = named_surface(name)
            for cls in solve_classes(t):
                d = dissection_avoiding(t, cls)
                carried = transport_to_reference(class_of_dissection(d))
                original = transport_to_reference(cls)
                assert carried.labels == original.labels

    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_avoiding_matches_a_per_flip_rebuild(self, name):
        # the procedure reads the corner's arcs once per round and flips
        # them in id order; the reference rebuilds the cut after every
        # flip and flips the corner's lowest arc until none is left
        rng = random.Random(f"avoid/{name}")
        rounds = 0
        for pre_flips in (0, 1, 2, 4, 8):
            t = named_surface(name)
            for _ in range(pre_flips):
                t = t.flip(rng.choice(t.interior_arcs()))
            for cls in solve_classes(t):
                d = dissection_avoiding(t, cls)
                carrier, arcs, ref_rounds = avoiding_reference(cls)
                assert (d.carrier.triangles, d.carrier.flip_path, d.arcs) == (
                    carrier.triangles,
                    carrier.flip_path,
                    arcs,
                )
                rounds += ref_rounds
        if name not in ("annulus21", "disk4", "disk6"):
            assert rounds > 0


def _cut_complex(t, arcs):
    from deeplocus.surface import _Complex

    return _Complex(t.triangles, {a: b for a, b in t.glue.items() if t.arc_of_side(a) not in arcs})


def avoiding_reference(cls):
    """`dissection_avoiding` rebuilding the cut complex for each round and
    after every corner flip: (carrier, arcs, rounds that exchanged an arc)."""
    arcs = set(dissection_spanning_tree(cls.carrier).arcs)
    for rounds in range(len(arcs) + 1):
        labels, tri = cls.labels, cls.carrier
        if all(labels[a] == 1 for a in arcs):
            return tri, frozenset(arcs), rounds
        walk = _cut_complex(tri, arcs).boundary_components()[0]
        s_before, s_after, alpha = next(
            (s, s2, a)
            for s, s2 in zip(walk, walk[1:] + walk[:1])
            for a, b in [
                (tri.arc_of_side(s), tri.arc_of_side(s2)),
                (tri.arc_of_side(s2), tri.arc_of_side(s)),
            ]
            if a in arcs and labels[a] == 0 and labels[b] == 1
        )
        while True:
            tri = cls.carrier
            cx = _cut_complex(tri, arcs)
            v = cx.head_vertex(s_before)
            incident = [
                aid
                for aid in tri.interior_arcs()
                if aid not in arcs
                and any(cx.tail_vertex(x) == v or cx.head_vertex(x) == v for x in tri.arcs[aid])
            ]
            if not incident:
                break
            cls = transport_class(cls, incident[0])
        ear = tri.tri_of_side(s_before)
        assert tri.tri_of_side(s_after) == ear
        [gamma_side] = [x for x in tri.triangles[ear] if x not in (s_before, s_after)]
        arcs.discard(alpha)
        arcs.add(tri.arc_of_side(gamma_side))
    raise AssertionError("the reference procedure did not terminate")


def count_plain_complex_builds(monkeypatch):
    """A list that gains an entry for each `_Complex` built that is not a
    `SurfaceTriangulation`: a cut (`_with_glue`) or a cover."""
    from deeplocus.surface import _Complex

    builds = []
    init, with_glue = _Complex.__init__, _Complex._with_glue

    def counted(self, triangles, glue):
        if type(self) is _Complex:
            builds.append(len(triangles))
        init(self, triangles, glue)

    def counted_cut(self, glue):
        builds.append(len(self.triangles))
        return with_glue(self, glue)

    monkeypatch.setattr(_Complex, "__init__", counted)
    monkeypatch.setattr(_Complex, "_with_glue", counted_cut)
    return builds


class TestCutOnce:
    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_a_deep_point_cuts_its_dissection_once(self, monkeypatch, name):
        # the dissection's construction cuts the surface; closing a value,
        # cutting the polygon and building the deep point read that cut,
        # and the first of them opens it into the polygon the others read
        from deeplocus import surface

        t = named_surface(name)
        builds = count_plain_complex_builds(monkeypatch)
        polygons = []
        make_polygon = surface.CutPolygon

        def counted_polygon(**fields):
            polygons.append(fields["size"])
            return make_polygon(**fields)

        monkeypatch.setattr(surface, "CutPolygon", counted_polygon)
        d = dissection_spanning_tree(t)
        assert len(builds) == 1
        bvals = {a: QQ.from_int(2) for a in t.boundary_arcs()}
        dvals = {a: QQ.from_int(3) for a in d.arcs}
        target = t.boundary_arcs()[0]
        bvals[target] = solve_closing_value(d, {**bvals, **dvals}, target)
        cut_polygon(d)
        if t.num_marked % 2 == 0:
            deep_point_from_dissection(d, bvals, dvals)
        assert len(builds) == 1
        assert len(polygons) == 1

    def test_avoiding_cuts_each_round_once(self, monkeypatch):
        builds = count_plain_complex_builds(monkeypatch)
        post_init = Dissection.__post_init__
        rounds = []

        def counted(d):
            rounds.append(d.arcs)
            post_init(d)

        monkeypatch.setattr(Dissection, "__post_init__", counted)
        exchanged = 0
        for name in NAMED_SURFACES:
            t = named_surface(name)
            for cls in solve_classes(t):
                del builds[:], rounds[:]
                dissection_avoiding(t, cls)
                assert len(builds) == len(rounds)
                exchanged += len(rounds) - 1
        assert exchanged > 0


def flipped_carriers(name, count=3, flips=4):
    """The named surface and `count` seeded carriers `flips` flips away."""
    rng = random.Random(f"carriers/{name}")
    yield named_surface(name)
    for _ in range(count):
        t = named_surface(name)
        for _ in range(flips):
            t = t.flip(rng.choice(t.interior_arcs()))
        yield t


def filtered_bijection(d):
    """subset_bijection's oracle: for each subset S of the dissection,
    filter the full class list for the classes vanishing exactly on S."""
    classes = solve_classes(d.carrier)
    arcs = d.sorted_arcs()
    out = {}
    for bits in itertools.product((0, 1), repeat=len(arcs)):
        s = frozenset(a for a, bit in zip(arcs, bits) if bit == 0)
        [out[s]] = [
            c for c in classes if all(c.labels[a] == (0 if a in s else 1) for a in arcs)
        ]
    return out


class TestPinnedSolve:
    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_class_of_dissection_matches_the_filter(self, monkeypatch, name):
        # the class is read off the cut polygon's chord parity, with no
        # elimination: the filtered list of all classes is its oracle
        from deeplocus import surface
        from deeplocus.surface import _all_dissections

        cases = []
        for t in flipped_carriers(name):
            dissections = _all_dissections(t)
            assert dissections
            for d in dissections:
                want = [
                    c
                    for c in solve_classes(t)
                    if all(c.labels[a] == 1 for a in d.arcs)
                ]
                assert len(want) == (1 if t.num_marked % 2 == 0 else 0)
                cases.append((d, want))

        def refuse(*args):
            raise AssertionError("class_of_dissection ran the elimination")

        monkeypatch.setattr(surface, "_eliminate", refuse)
        monkeypatch.setattr(surface, "solve_classes", refuse)
        for d, want in cases:
            if want:
                assert class_of_dissection(d) == want[0]
            else:
                with pytest.raises(NoClass, match=r"^no class exists \(odd number of marked points\)$"):
                    class_of_dissection(d)

    @pytest.mark.parametrize("name", NAMED_SURFACES)
    def test_subset_bijection_matches_the_filter(self, name):
        from deeplocus.surface import _all_dissections

        for t in flipped_carriers(name):
            for d in _all_dissections(t):
                if t.num_marked % 2:
                    with pytest.raises(NoClass):
                        subset_bijection(d)
                else:
                    assert subset_bijection(d) == filtered_bijection(d)

    def test_genus8_class_of_dissection_validates_one_class(self, monkeypatch):
        # listing every class first would validate 2^16 of them
        t = genus_surface(8)
        assert t.invariants()[:3] == (8, 1, 2)
        d = dissection_spanning_tree(t)
        validated = []
        check = Z2Class.__post_init__

        def counted(cls):
            validated.append(cls.labels)
            check(cls)

        monkeypatch.setattr(Z2Class, "__post_init__", counted)
        cls = class_of_dissection(d)
        assert len(validated) == 1
        assert all(cls.labels[a] == 1 for a in d.arcs)
        assert any(v == 0 for v in cls.labels)


class TestSubsetBijection:
    def test_disk_trivial(self):
        t = named_surface("disk6")
        d = dissection_spanning_tree(t)
        mapping = subset_bijection(d)
        assert set(mapping) == {frozenset()}

    def test_annulus22(self):
        t = named_surface("annulus22")
        d = dissection_spanning_tree(t)
        mapping = subset_bijection(d)
        assert len(mapping) == 2
        assert mapping[frozenset()].labels == class_of_dissection(d).labels

    def test_genus1_exhausts_classes(self):
        t = named_surface("genus1")
        d = dissection_spanning_tree(t)
        mapping = subset_bijection(d)
        assert len(mapping) == 4
        assert {c.labels for c in mapping.values()} == {
            c.labels for c in solve_classes(t)
        }

    def test_odd_marked_points(self):
        t = named_surface("annulus21")
        d = dissection_spanning_tree(t)
        with pytest.raises(NoClass):
            subset_bijection(d)


class TestDeepPoints:
    def test_annulus22_example(self):
        # boundary ones and x = 5 on the glued arc: the balanced-product
        # condition holds and the deep point exists
        t = named_surface("annulus22")
        d = Dissection(t, frozenset([0]))
        p = ones_deep_point(t, d, special={0: QQ.from_int(5)})
        assert p.values[0] == QQ.from_int(5)
        zero_arcs = {a for a, v in p.values.items() if v.is_zero}
        assert zero_arcs == p.z2.zero_arcs()

    def test_condition_violated(self):
        t = named_surface("annulus22")
        d = Dissection(t, frozenset([0]))
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        bvals[t.boundary_arcs()[0]] = QQ.from_int(2)
        with pytest.raises(ConditionViolated):
            deep_point_from_dissection(d, bvals, {0: QQ.one()})

    def test_hexagon_disk_has_all_ones_deep_point(self):
        # m = 6: the sign condition (-1)**(b + m/2) = +1 holds for ones
        p = ones_deep_point(named_surface("disk6"))
        assert sum(1 for v in p.values.values() if v.is_zero) == 2

    def test_octagon_disk_rejects_all_ones(self):
        # m = 8: the sign condition is -1, so the all-ones boundary fails
        t = build_from_gluing(8, [])
        with pytest.raises(ConditionViolated):
            ones_deep_point(t)

    def test_disk_with_balanced_edge(self):
        t = named_surface("disk4")
        d = dissection_spanning_tree(t)
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        bvals[t.boundary_arcs()[-1]] = QQ.minus_one()
        p = deep_point_from_dissection(d, bvals, {})
        assert sum(1 for v in p.values.values() if v.is_zero) == 1

    def test_odd_marked_points_rejected(self):
        t = named_surface("annulus21")
        d = dissection_spanning_tree(t)
        with pytest.raises(OddMarkedPoints):
            deep_point_from_dissection(
                d,
                {a: QQ.one() for a in t.boundary_arcs()},
                {a: QQ.one() for a in d.arcs},
            )

    def test_closing_value_names_a_missing_value(self):
        # the cut polygon of {0} on annulus22 runs over arcs 0, 1, 2, 0, 3, 4
        t = named_surface("annulus22")
        d = Dissection(t, frozenset([0]))
        for values, missing in [({1: QQ.one()}, 0), ({}, 0), ({a: QQ.one() for a in (0, 1, 2, 4)}, 3)]:
            with pytest.raises(
                SurfaceError, match=f"^missing value for arc {missing} of the cut polygon$"
            ):
                solve_closing_value(d, values, 1)

    @pytest.mark.parametrize("target", [-1, 8, 0])
    def test_closing_value_needs_a_boundary_arc(self, target):
        # annulus22 has arcs 0..7, and arc 0 is interior
        d = Dissection(named_surface("annulus22"), frozenset([0]))
        values = {a: QQ.one() for a in range(8)}
        message = "the closing arc must be a boundary arc" if target == 0 else (
            f"no arc {target}: arc ids run 0..7"
        )
        with pytest.raises(SurfaceError, match=f"^{message}$"):
            solve_closing_value(d, values, target)

    def test_missing_and_zero_values_are_named(self):
        t = named_surface("annulus22")
        d = Dissection(t, frozenset([0]))
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        edge = t.boundary_arcs()[0]
        for b, dv, error, message in [
            ({a: v for a, v in bvals.items() if a != edge}, {0: QQ.one()}, SurfaceError,
             f"missing value for boundary arc {edge}"),
            ({**bvals, edge: QQ.zero()}, {0: QQ.one()}, ZeroValue,
             f"boundary arc {edge} must be nonzero"),
            (bvals, {}, SurfaceError, "missing value for dissection arc 0"),
        ]:
            with pytest.raises(error, match=f"^{message}$"):
                deep_point_from_dissection(d, b, dv)

    def test_zero_value_rejected(self):
        t = named_surface("annulus22")
        d = Dissection(t, frozenset([0]))
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        with pytest.raises(ZeroValue):
            deep_point_from_dissection(d, bvals, {0: QQ.zero()})

    def test_genus1_deep_point(self):
        t = named_surface("genus1")
        p = ones_deep_point(t)
        assert any(v.is_zero for v in p.values.values())

    def test_flip_evaluation_keeps_certificate(self):
        t = named_surface("annulus22")
        p = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(3)})
        for aid in t.interior_arcs():
            q = flip_evaluation(p, aid)
            labels = q.z2.labels
            assert any(v == 0 for v in labels)
            for tri in q.triangulation.triangles:
                zeros = sum(
                    1 for s in tri if labels[q.triangulation.arc_of_side(s)] == 0
                )
                assert zeros % 2 == 1

    def test_flip_value_edge_cases(self):
        # zero-valued arc whose replacement keeps label 0: value stays 0
        # without any division; replacement with label 1: underdetermined
        from deeplocus.surface import _transport_labels
        import random as _random

        t = named_surface("annulus22")
        d = Dissection(t, frozenset([0]))
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        state = deep_point_from_dissection(d, bvals, {0: QQ.from_int(5)})
        rng = _random.Random(0)
        seen_zero_to_zero = seen_underdetermined = False
        for _ in range(200):
            tcur = state.triangulation
            for aid in tcur.interior_arcs():
                labels2 = _transport_labels(tcur, state.z2.labels, tcur.flip_quad(aid))
                old = state.values.get(aid)
                if old is None or not old.is_zero:
                    continue
                if labels2[aid] == 0:
                    q = flip_evaluation(state, aid)
                    assert q.values[aid].is_zero
                    seen_zero_to_zero = True
                else:
                    q = flip_evaluation(state, aid)
                    assert q.values[aid] is None
                    seen_underdetermined = True
            if seen_zero_to_zero and seen_underdetermined:
                break
            try:
                state = flip_evaluation(state, rng.choice(tcur.interior_arcs()))
            except SurfaceError:
                pass
        assert seen_zero_to_zero and seen_underdetermined

    @pytest.mark.parametrize("old_known", [True, False], ids=["old", "no-old"])
    def test_label0_flip_tests_the_exchange_sum(self, old_known):
        # a label-0 flip whose four sides are labeled 1: the exchange
        # identity reads v(p)v(r) + v(q)v(s) = 0, with or without the old
        # value, and a perturbed side breaks it
        from deeplocus.surface import SurfaceDeepPoint, _new_label

        t = named_surface("annulus22")
        state = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(5)})
        rng = random.Random(3)
        for _ in range(100):
            tcur = state.triangulation
            arc, labels = tcur.arc_of_side, state.z2.labels
            found = [
                (aid, quad)
                for aid in tcur.interior_arcs()
                for quad in [tcur.flip_quad(aid)]
                if _new_label(tcur, labels, quad) == 0
                and all(
                    labels[arc(x)] == 1 and state.values[arc(x)] is not None
                    for x in (quad[1], quad[2], quad[4], quad[5])
                )
            ]
            if found:
                break
            state = flip_evaluation(state, rng.choice(tcur.interior_arcs()))
        assert found
        aid, quad = found[0]
        values = dict(state.values)
        if not old_known:
            values[aid] = None
        point = SurfaceDeepPoint(values, state.z2, QQ)
        assert flip_evaluation(point, aid).values[aid] == QQ.zero()
        side = arc(quad[1])
        bent = SurfaceDeepPoint({**values, side: values[side] * QQ.from_int(2)}, state.z2, QQ)
        with pytest.raises(SurfaceError, match=f"exchange identity fails at arc {aid}$"):
            flip_evaluation(bent, aid)

    @pytest.mark.parametrize("name", ["annulus22", "genus2"])
    def test_flip_determined_matches_flip_evaluation(self, name):
        from deeplocus.surface import (
            _flip_determined,
            _transport_labels,
            solve_closing_value,
        )
        import random as _random

        t = named_surface(name)
        d = dissection_spanning_tree(t)
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        dvals = {a: QQ.from_int(k + 2) for k, a in enumerate(sorted(d.arcs))}
        target = t.boundary_arcs()[0]
        bvals[target] = solve_closing_value(d, {**bvals, **dvals}, target)
        state = deep_point_from_dissection(d, bvals, dvals)
        rng = _random.Random(7)
        seen = set()
        for _ in range(40):
            tcur = state.triangulation
            for aid in tcur.interior_arcs():
                quad = tcur.flip_quad(aid)
                label = _transport_labels(tcur, state.z2.labels, quad)[aid]
                determined = _flip_determined(tcur, state.z2.labels, state.values, quad, label)
                derived = flip_evaluation(state, aid).values[aid] is not None
                assert determined == derived, (name, aid)
                seen.add(determined)
            state = flip_evaluation(state, rng.choice(tcur.interior_arcs()))
        assert seen == {True, False}

    @pytest.mark.parametrize("ctx", [QQ, prime_field(101), F3], ids=["Q", "F101", "F3"])
    def test_flip_lemma_behind_the_walk_checks(self, ctx):
        # from a state that passes Z2Class and SurfaceDeepPoint, a flip can
        # break only what the walk checks per step: the exchange identity
        # at a flip to label 0.  Neither new triangle repeats a side, and
        # both satisfy the cocycle rule under _new_label's label; a determined
        # label-1 value is nonzero and meets the exchange identity
        # old * new = v(p)v(r) + v(q)v(s); a label-0 value is zero, or
        # raises exactly when the four sides are known and
        # v(p)v(r) + v(q)v(s) is not.  _flip_value reads the labels: at a
        # determined label-1 flip l(p) = l(r) != l(q) = l(s), so the pair
        # with label-0 sides has product 0 and the value is the other
        # pair's product over the old value; at a label-0 flip with a
        # label-0 side both products are 0, so only four label-1 sides can
        # break the identity.  Starts are deep points and deep points with
        # one value perturbed; annulus21 has an odd number of marked
        # points, hence no deep points.
        from deeplocus.surface import (
            SurfaceDeepPoint,
            _flip_determined,
            _flip_value,
            _new_label,
            _write_flip,
        )

        rng = random.Random(f"flip-lemma/{ctx!r}")
        two = ctx.from_int(2)
        seen = set()
        for name in NAMED_SURFACES:
            if name == "annulus21":
                continue
            for _ in range(2):
                t = named_surface(name)
                for _ in range(4):
                    t = t.flip(rng.choice(t.interior_arcs()))
                p = random_deep_point(t, ctx, rng)
                bent = rng.choice(sorted(a for a, v in p.values.items() if not v.is_zero))
                perturbed = SurfaceDeepPoint({**p.values, bent: p.values[bent] * two}, p.z2, ctx)
                for state in (p, perturbed):
                    for _ in range(12):
                        tcur, labels, values = state.triangulation, state.z2.labels, state.values
                        arc = tcur.arc_of_side
                        for aid in tcur.interior_arcs():
                            quad = tcur.flip_quad(aid)
                            label = _new_label(tcur, labels, quad)
                            triangles, tri_of = list(tcur.triangles), list(tcur.tri_of)
                            _write_flip(triangles, tri_of, list(tcur.slot_of), quad)
                            new_labels = {**dict(enumerate(labels)), aid: label}
                            for tri in (triangles[tri_of[quad[0]]], triangles[tri_of[quad[3]]]):
                                assert len(set(tri)) == 3, (name, aid)
                                assert sum(new_labels[arc(x)] for x in tri) % 2 == 0, (name, aid)
                            determined = _flip_determined(tcur, labels, values, quad, label)
                            _, sp, sq, _, sr, ss = quad
                            vp, vq, vr, vs = (values.get(arc(x)) for x in (sp, sq, sr, ss))
                            lp, lq, lr, ls = (labels[arc(x)] for x in (sp, sq, sr, ss))
                            known = None not in (vp, vq, vr, vs)
                            breaks = label == 0 and known and not (vp * vr + vq * vs).is_zero
                            if label == 0 and 0 in (lp, lq, lr, ls) and known:
                                assert (vp * vr).is_zero and (vq * vs).is_zero, (name, aid)
                                seen.add("label 0, a label-0 side")
                            payloads = ctx.ptolemy_payloads(values.get(a) for a in range(len(tcur.arcs)))
                            try:
                                (value,) = ctx.ptolemy_values(
                                    [_flip_value(tcur._arc_of_side, labels, payloads, quad, label, determined,
                                                 ctx.ptolemy_rule())]
                                )
                            except SurfaceError as exc:
                                assert breaks, (name, aid)
                                assert (lp, lq, lr, ls) == (1, 1, 1, 1), (name, aid)
                                assert str(exc) == f"exchange identity fails at arc {aid}"
                                seen.add("exchange fails")
                                continue
                            assert not breaks, (name, aid)
                            if label == 0:
                                assert value is not None and value.is_zero, (name, aid)
                                seen.add("label 0")
                            elif determined:
                                assert value is not None and not value.is_zero, (name, aid)
                                assert values[aid] * value == vp * vr + vq * vs, (name, aid)
                                assert lp == lr != lq == ls, (name, aid)
                                zero_pair = (vq, vs) if lp == 1 else (vp, vr)
                                assert (zero_pair[0] * zero_pair[1]).is_zero, (name, aid)
                                assert value == (vp * vr + vq * vs) / values[aid], (name, aid)
                                seen.add("label 1, p/r pair" if lp == 1 else "label 1, q/s pair")
                            else:
                                assert value is None
                                seen.add("undetermined")
                        try:
                            state = flip_evaluation(state, rng.choice(tcur.interior_arcs()))
                        except SurfaceError:
                            pass
        assert seen == {
            "exchange fails",
            "label 0",
            "label 0, a label-0 side",
            "label 1, p/r pair",
            "label 1, q/s pair",
            "undetermined",
        }

    def test_walks(self):
        t = named_surface("annulus22")
        p = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(5)})
        report = verify_deep_random_walk(p, 200, seed=11)
        assert report.passed, report.failures[:3]

    def test_walk_end_names_invariants_other_than_the_carried_ones(self):
        # a carrier whose carried genus was corrupted: every flip carries it,
        # and the end state, rebuilt from its triangles, has the true genus
        t = named_surface("genus1")
        p = ones_deep_point(t)
        t.genus = 0
        report = verify_deep_random_walk(p, 10, seed=3)
        assert len(report.flips_taken) == 10
        assert report.failures == [
            "end: invariants (1, 1, 2, 7) differ from the carried (0, 1, 2, 7)"
        ]

    def test_walk_refuses_negative_steps_before_any_check(self, monkeypatch):
        import deeplocus.surface as surface_module

        t = named_surface("annulus22")
        p = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(5)})

        def no_check(*args):
            raise AssertionError("walk started checking")

        monkeypatch.setattr(surface_module, "Z2Class", no_check)
        with pytest.raises(SurfaceError, match="-1"):
            verify_deep_random_walk(p, -1, seed=0)

    def test_walk_refuses_more_than_the_cap_before_any_check(self, monkeypatch):
        import deeplocus.surface as surface_module
        from deeplocus.surface import MAX_WALK_STEPS

        t = named_surface("annulus22")
        p = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(5)})

        def no_check(*args):
            raise AssertionError("walk started checking")

        monkeypatch.setattr(surface_module, "Z2Class", no_check)
        with pytest.raises(SurfaceError, match=f"at most {MAX_WALK_STEPS} steps, got {MAX_WALK_STEPS + 1}"):
            verify_deep_random_walk(p, MAX_WALK_STEPS + 1, seed=0)

    @pytest.mark.parametrize("ctx", [QQ, prime_field(101), F3, QI], ids=["Q", "F101", "F3", "Qi"])
    def test_walk_matches_a_full_retest_walk(self, ctx):
        # the walk flips one state in place and re-tests only the arcs a
        # flip touches; the reference carries the point by transport_class
        # and re-tests every interior arc before every step.  Its value is
        # the full exchange formula, (v(p)v(r) + v(q)v(s)) / old at label 1,
        # and at label 0 it tests v(p)v(r) + v(q)v(s) = 0 whenever the four
        # sides are known, whatever their labels, so it does not share the
        # walk's label-aware value rule.  Nor does it share the walk's pool
        # rule, which reads the old arc's label: here a label-1 flip is
        # determined when the old value is known and nonzero and the four
        # sides are known.  Besides each deep start, a start with one arc
        # value perturbed and one with a broken closing value pin the
        # failures and their step numbers.  A start with one interior value
        # unknown has the walk's unknown count above 0 from step 0, so its
        # full determinacy test runs from the first step; and 500-step
        # annulus22 walks from the kind of start the bench draws are as long
        # as its longest walks.
        from deeplocus.surface import (
            SurfaceDeepPoint,
            WalkReport,
            _transport_labels,
        )

        def determined(t, values, quad, label):
            old = values.get(t.arc_of_side(quad[0]))
            sides = [values.get(t.arc_of_side(x)) for x in (quad[1], quad[2], quad[4], quad[5])]
            return label == 0 or (old is not None and not old.is_zero and None not in sides)

        def reference_flip(state, aid):
            t, values = state.triangulation, state.values
            quad = t.flip_quad(aid)
            z2 = transport_class(state.z2, aid)
            label = z2.labels[aid]
            vp, vq, vr, vs = (values.get(t.arc_of_side(x)) for x in (quad[1], quad[2], quad[4], quad[5]))
            if label == 0:
                if None not in (vp, vq, vr, vs) and not (vp * vr + vq * vs).is_zero:
                    raise SurfaceError(f"exchange identity fails at arc {aid}")
                value = state.ctx.zero()
            elif determined(t, values, quad, label):
                value = (vp * vr + vq * vs) / values[aid]
            else:
                value = None
            return SurfaceDeepPoint({**values, aid: value}, z2, state.ctx)

        def reference_walk(p, steps, seed):
            rng = random.Random(seed)
            report = WalkReport(steps)
            try:
                state = SurfaceDeepPoint(p.values, Z2Class(p.z2.carrier, p.z2.labels), p.ctx)
            except SurfaceError as exc:
                report.failures.append(f"start: {exc}")
                return report
            for step in range(steps):
                t = state.triangulation
                candidates = sorted(t.interior_arcs())
                defined = []
                for aid in candidates:
                    quad = t.flip_quad(aid)
                    label = _transport_labels(t, state.z2.labels, quad)[aid]
                    if determined(t, state.values, quad, label):
                        defined.append(aid)
                aid = rng.choice(defined if defined else candidates)
                try:
                    state = reference_flip(state, aid)
                except SurfaceError as exc:
                    report.failures.append(f"step {step}: {exc}")
                    break
                report.flips_taken.append(aid)
                if state.values.get(aid) is None:
                    report.undetermined_values += 1
            return report

        rng = random.Random(f"walk-oracle/{ctx!r}")
        undetermined, failed = {}, {}
        for name in ["disk6", "annulus22", "genus1", "genus2", "pants"]:
            for _ in range(2):
                t = named_surface(name)
                for _ in range(4):
                    t = t.flip(rng.choice(t.interior_arcs()))
                p = random_deep_point(t, ctx, rng)
                target = t.boundary_arcs()[0]
                two = ctx.from_int(2)
                bent = rng.choice(sorted(a for a, v in p.values.items() if not v.is_zero))
                starts = {
                    "deep": p,
                    "perturbed": SurfaceDeepPoint({**p.values, bent: p.values[bent] * two}, p.z2, ctx),
                    "closing": SurfaceDeepPoint({**p.values, target: p.values[target] * two}, p.z2, ctx),
                }
                for kind, start in starts.items():
                    seed = rng.randrange(2**31)
                    got = verify_deep_random_walk(start, 150, seed)
                    want = reference_walk(start, 150, seed)
                    assert got.flips_taken == want.flips_taken, (name, kind, seed)
                    assert got.failures == want.failures, (name, kind, seed)
                    assert got.undetermined_values == want.undetermined_values, (name, kind, seed)
                    undetermined[name] = undetermined.get(name, 0) + got.undetermined_values
                    failed[kind] = failed.get(kind, 0) + (not got.passed)
        assert undetermined["disk6"] > 0
        assert failed["deep"] == 0 and failed["perturbed"] > 0 and failed["closing"] > 0

        # drawn from a stream of their own, so the starts above stay as they were
        rng = random.Random(f"walk-oracle-more/{ctx!r}")
        unknown_starts = []
        for name in ["disk6", "annulus22", "genus1", "genus2", "pants"]:
            t = named_surface(name)
            for _ in range(4):
                t = t.flip(rng.choice(t.interior_arcs()))
            p = random_deep_point(t, ctx, rng)
            hidden = rng.choice(t.interior_arcs())
            unknown_starts.append(
                (name, 150, SurfaceDeepPoint({**p.values, hidden: None}, p.z2, ctx))
            )
        long_starts = []
        for _ in range(3):
            t = named_surface("annulus22")
            for _ in range(4):
                t = t.flip(rng.choice(t.interior_arcs()))
            long_starts.append(("annulus22", 500, random_deep_point(t, ctx, rng)))
        undetermined = 0
        for name, steps, start in unknown_starts + long_starts:
            seed = rng.randrange(2**31)
            got = verify_deep_random_walk(start, steps, seed)
            want = reference_walk(start, steps, seed)
            assert got.flips_taken == want.flips_taken, (name, steps, seed)
            assert got.failures == want.failures, (name, steps, seed)
            assert got.undetermined_values == want.undetermined_values, (name, steps, seed)
            assert got.passed and len(got.flips_taken) == steps, (name, steps, seed)
            undetermined += got.undetermined_values
        assert undetermined > 0

    def test_walk_rejects_fabricated_torus_state(self):
        # all-ones labels violate the vanishing certificate immediately; the
        # class skips its own checks, so the walk's rebuild must catch it
        from deeplocus.surface import SurfaceDeepPoint

        t = named_surface("annulus22")
        d = Dissection(t, frozenset([0]))
        p = ones_deep_point(t, d, {0: QQ.from_int(5)})
        z2 = p.z2.__class__.__new__(p.z2.__class__)
        object.__setattr__(z2, "carrier", t)
        object.__setattr__(z2, "labels", tuple([1] * len(t.arcs)))
        fake = SurfaceDeepPoint(
            values={a: QQ.one() for a in range(len(t.arcs))}, z2=z2, ctx=QQ
        )
        for steps in (0, 1):
            report = verify_deep_random_walk(fake, steps, seed=1)
            assert not report.passed
            assert report.failures[0].startswith("start: ")
            assert report.flips_taken == []

    def test_deep_point_rejects_a_value_against_its_label(self):
        from deeplocus.surface import SurfaceDeepPoint

        t = named_surface("annulus22")
        p = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(5)})
        zero = min(p.z2.zero_arcs())
        one = min(set(p.values) - p.z2.zero_arcs())
        for aid, v in [(zero, QQ.one()), (one, QQ.zero())]:
            with pytest.raises(SurfaceError, match=f"value/label mismatch on arc {aid}$"):
                SurfaceDeepPoint({**p.values, aid: v}, p.z2, p.ctx)
        # an underdetermined value agrees with either label
        SurfaceDeepPoint({**p.values, zero: None, one: None}, p.z2, p.ctx)

    def test_deep_point_refuses_a_value_from_another_field(self):
        # a Q(i) or F_5 value on one arc of a point over Q, whichever arc
        from deeplocus.surface import SurfaceDeepPoint

        t = named_surface("annulus22")
        p = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(5)})
        for aid, v in p.values.items():
            for other in (QI, F5):
                foreign = other.zero() if v.is_zero else other.one()
                with pytest.raises(SurfaceError, match=rf"^the value on arc {aid} is not in FieldContext\(rationals\)$"):
                    SurfaceDeepPoint({**p.values, aid: foreign}, p.z2, p.ctx)

    @pytest.mark.parametrize("aid", [-1, 8, 99])
    def test_deep_point_refuses_a_value_on_an_unknown_arc(self, aid):
        # annulus22 has arcs 0..7; -1 is not read as the last one
        from deeplocus.surface import SurfaceDeepPoint

        t = named_surface("annulus22")
        p = ones_deep_point(t, Dissection(t, frozenset([0])), {0: QQ.from_int(5)})
        message = f"no arc {aid}: arc ids run 0..7"
        for v in (QQ.zero(), QQ.one(), None):
            with pytest.raises(SurfaceError, match=f"^{message}$"):
                SurfaceDeepPoint({**p.values, aid: v}, p.z2, p.ctx)
        # a value set after the point was built is refused at the walk's start
        p.values[aid] = QQ.zero()
        report = verify_deep_random_walk(p, 50, seed=1)
        assert (report.failures, report.flips_taken) == ([f"start: {message}"], [])

    def test_walk_applies_the_value_rule_once_per_step(self, monkeypatch):
        # the walk re-tests arcs inline: it calls none of the per-arc rule
        # functions, and once per step each of `_write_flip`, the one flip
        # writer, and `_flip_value`, the one value rule
        import deeplocus.surface as surface_module

        rng = random.Random("quad-count")
        F101 = prime_field(101)
        starts = []
        for name in ["annulus22", "genus1", "genus2", "pants"]:
            t = named_surface(name)
            for _ in range(4):
                t = t.flip(rng.choice(t.interior_arcs()))
            starts.append((name, random_deep_point(t, F101, rng)))

        def refuse(*args):
            raise AssertionError("the walk called a per-arc rule function")

        for helper in ("_new_label", "_flip_determined"):
            monkeypatch.setattr(surface_module, helper, refuse)
        calls = {"_write_flip": 0, "_flip_value": 0}

        def counter(helper):
            function = getattr(surface_module, helper)

            def counted(*args):
                calls[helper] += 1
                return function(*args)

            return counted

        for helper in calls:
            monkeypatch.setattr(surface_module, helper, counter(helper))
        for name, p in starts:
            calls.update(dict.fromkeys(calls, 0))
            report = verify_deep_random_walk(p, 300, seed=rng.randrange(2**31))
            assert report.passed and len(report.flips_taken) == 300, name
            assert calls == {"_write_flip": 300, "_flip_value": 300}, name

    def test_walk_builds_field_values_only_for_its_end_check(self, monkeypatch):
        # the walk keeps its values as payloads: a 300-step walk builds one
        # FieldValue per known arc, for its end check, and none per step
        from deeplocus.field import FieldValue

        rng = random.Random("walk-field-values")
        init = FieldValue.__init__
        built = []

        def counted(self, *args):
            built.append(args[1])
            init(self, *args)

        for name in ["annulus22", "genus1", "genus2", "pants"]:
            for ctx in (QQ, prime_field(101), QI):
                t = named_surface(name)
                for _ in range(4):
                    t = t.flip(rng.choice(t.interior_arcs()))
                p = random_deep_point(t, ctx, rng)
                built.clear()
                with monkeypatch.context() as m:
                    m.setattr(FieldValue, "__init__", counted)
                    report = verify_deep_random_walk(p, 300, seed=rng.randrange(2**31))
                assert report.passed and len(report.flips_taken) == 300, (name, ctx)
                assert len(built) <= len(t.arcs) < 300, (name, ctx, len(built))

    def test_walk_memory_does_not_keep_its_path(self):
        # the walk flips one state in place and keeps no flip path: a
        # 32k-step walk holds little beyond its list of flipped arcs
        import tracemalloc

        p = random_deep_point(named_surface("annulus22"), prime_field(101), random.Random("walk-memory"))
        tracemalloc.start()
        try:
            report = verify_deep_random_walk(p, 32_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and len(report.flips_taken) == 32_000
        assert peak < 0.6 * 2**20, peak

    def test_disk_walk_agrees_with_polygon_oracle(self):
        t = named_surface("disk4")
        d = dissection_spanning_tree(t)
        bvals = {a: QQ.one() for a in t.boundary_arcs()}
        bvals[t.boundary_arcs()[-1]] = QQ.minus_one()
        p = deep_point_from_dissection(d, bvals, {})
        report = verify_deep_random_walk(p, 100, seed=3)
        assert report.passed
        cp = cut_polygon(d)
        from deeplocus.polygon import deep_point_from_edges

        edges = {}
        for slot in range(1, cp.size + 1):
            edges[cp.polygon_edge(slot)] = bvals[cp.arc_of_edge_source[slot - 1]]
        poly = deep_point_from_edges(cp.size, edges)
        assert is_deep_bruteforce(poly)
        for aid, diag in cp.diagonal_of_arc.items():
            assert p.values[aid] == poly.value(*diag)


class TestCrossChecks:
    def test_congruent_dissections_give_the_same_deep_point(self):
        # build on one dissection, read off the induced values on a
        # congruent one, rebuild, and compare every arc value
        t = named_surface("annulus22")
        singles = []
        for aid in t.interior_arcs():
            try:
                singles.append(Dissection(t, frozenset([aid])))
            except NotADissection:
                continue
        d1 = singles[0]
        partners = [d for d in singles[1:] if congruent(d1, d)]
        assert partners
        d2 = partners[0]
        bvals = {a: QQ.from_int(k + 2) for k, a in enumerate(t.boundary_arcs())}
        from deeplocus.surface import solve_closing_value

        target = t.boundary_arcs()[0]
        dvals = {a: QQ.from_int(7) for a in d1.arcs}
        bvals[target] = solve_closing_value(d1, {**bvals, **dvals}, target)
        p1 = deep_point_from_dissection(d1, bvals, dvals)
        induced = {a: p1.values[a] for a in d2.arcs}
        assert all(not v.is_zero for v in induced.values())
        p2 = deep_point_from_dissection(d2, bvals, induced)
        assert p1.values == p2.values

    def test_disk6_matches_type_a_unique_point(self):
        from deeplocus.polygon import unique_deep_point_typeA

        t = named_surface("disk6")
        d = dissection_spanning_tree(t)
        p = ones_deep_point(t, d)
        cp = cut_polygon(d)
        reference = unique_deep_point_typeA(3, QQ)
        for aid, diag in cp.diagonal_of_arc.items():
            assert p.values[aid] == reference.value(*diag)


class TestFiniteFieldBijection:
    @pytest.mark.parametrize("name", ["annulus22", "annulus11", "genus1"])
    def test_one_deep_point_per_class_over_f2(self, name):
        # over F2 every torus is a single point, so deep points correspond
        # one to one with label classes; build each from an avoiding
        # dissection with all-ones values
        t = named_surface(name)
        points = {}
        for cls in solve_classes(t):
            d = dissection_avoiding(t, cls)
            carrier = d.carrier
            bvals = {a: F2.one() for a in carrier.boundary_arcs()}
            dvals = {a: F2.one() for a in d.arcs}
            p = deep_point_from_dissection(d, bvals, dvals)
            back = transport_to_reference(p.z2)
            assert back.labels == transport_to_reference(cls).labels
            points[cls.labels] = p
        assert len(points) == len(solve_classes(t))
        # distinct classes have distinct zero sets, hence distinct points
        zero_sets = {p.z2.zero_arcs() for p in points.values()}
        assert len(zero_sets) == len(points)


class TestDoubleCovers:
    @pytest.mark.parametrize("name", ["disk6", "annulus22", "annulus11", "genus1"])
    def test_indicator_equals_class(self, name):
        t = named_surface(name)
        d = dissection_spanning_tree(t)
        cover = alternating_double_cover(d)
        assert cover.indicator_labels() == class_of_dissection(d).labels

    def test_annulus11_two_covers_differ(self):
        t = named_surface("annulus11")
        dissections = [Dissection(t, frozenset([a])) for a in t.interior_arcs()]
        indicators = {alternating_double_cover(d).indicator_labels() for d in dissections}
        assert len(indicators) == 2

    def test_disk_trivial_cover_is_disconnected(self):
        t = named_surface("disk6")
        cover = alternating_double_cover(dissection_spanning_tree(t))
        # two disjoint copies of the disk
        assert not cover.complex.connected()
        assert len(cover.complex.triangles) == 2 * len(t.triangles)

    def test_annulus11_covers_are_connected(self):
        t = named_surface("annulus11")
        for aid in t.interior_arcs():
            cover = alternating_double_cover(Dissection(t, frozenset([aid])))
            assert cover.complex.connected()

    def test_odd_marked_points_rejected(self):
        t = named_surface("annulus21")
        with pytest.raises(OddMarkedPoints):
            alternating_double_cover(dissection_spanning_tree(t))

    def test_all_dissection_covers_match_their_class(self):
        t = named_surface("genus1")
        from deeplocus.surface import _all_dissections

        for d in _all_dissections(t):
            cover = alternating_double_cover(d)
            assert cover.indicator_labels() == class_of_dissection(d).labels


    @pytest.mark.parametrize(
        "arcs, message",
        [((5,), "cover coloring is inconsistent around a vertex"),
         ((0,), "adjacent cover marked points share a color")],
        ids=["vertex-colors-disagree", "neighbours-share-a-color"],
    )
    def test_an_odd_cut_polygon_has_no_alternating_cover(self, arcs, message):
        # annulus21 has 3 marked points; with its count corrupted to 4 the
        # odd-count refusal is passed, and its 5-gon cut cannot alternate
        t = named_surface("annulus21")
        d = Dissection(t, frozenset(arcs))
        t.num_marked = 4
        with pytest.raises(SurfaceError, match=f"^{message}$"):
            alternating_double_cover(d)

    def test_a_one_sheeted_cover_is_refused(self):
        # annulus22 colored alternately around each boundary component, as
        # its own cover: every marked point has one preimage, not two
        from deeplocus.surface import AlternatingDoubleCover, _validate_cover

        t = named_surface("annulus22")
        colors = {}
        for comp in t.boundary_components():
            for k, s in enumerate(comp):
                colors[t.tail_vertex(s)] = k % 2
        cover = AlternatingDoubleCover(t, {s: s for s in t.sides}, colors, t)
        with pytest.raises(SurfaceError, match="^marked point 3 has 1 preimages$"):
            _validate_cover(cover)

    def test_a_cover_with_equal_colors_over_a_point_is_refused(self):
        # the disk's cover is two disjoint disks; recoloring the second like
        # the first keeps the boundary alternating, but each marked point's
        # two preimages now share a color
        from deeplocus.surface import _validate_cover

        cover = alternating_double_cover(dissection_spanning_tree(named_surface("disk6")))
        cx = cover.complex
        second = {cx.tail_vertex(s) for s in cx.sides if cover.projection[s] != s}
        cover.vertex_colors = {v: c ^ (v in second) for v, c in cover.vertex_colors.items()}
        with pytest.raises(SurfaceError, match="^preimages of marked point 4 share a color$"):
            _validate_cover(cover)


class TestDehnTwist:
    def test_swap(self):
        report = dehn_twist_scenario_11_annulus()
        assert report.passed
        assert report.swaps and report.square_is_identity

    def test_disk_control_is_identity(self):
        t = named_surface("disk4")
        [cls] = solve_classes(t)
        [aid] = t.interior_arcs()
        back = transport_class(transport_class(cls, aid), aid)
        assert back.labels == cls.labels

    def test_twist_search_is_capped(self, monkeypatch):
        from deeplocus import surface

        monkeypatch.setattr(surface, "_boundary_pinned_isomorphism", lambda t_from, t_to: None)
        with pytest.raises(SurfaceError, match="^no combinatorial return found within the length cap$"):
            surface._twist_action(named_surface("annulus11"))

    def test_pinned_isomorphism_needs_the_same_triangulation(self):
        from deeplocus.surface import _boundary_pinned_isomorphism

        t = named_surface("disk6")
        assert _boundary_pinned_isomorphism(t, named_surface("disk6")) is not None
        assert _boundary_pinned_isomorphism(t.flip(t.interior_arcs()[0]), t) is None
        assert _boundary_pinned_isomorphism(named_surface("annulus11"), named_surface("annulus22")) is None

    @pytest.mark.parametrize(
        "action, failures",
        [
            ("identity", ["twist acts trivially on the deep components"]),
            ("collapse", [
                "twist image is not a permutation of the classes",
                "twist acts trivially on the deep components",
                "twist squared is not the identity on the components",
            ]),
        ],
    )
    def test_twist_failures_are_named(self, monkeypatch, action, failures):
        from deeplocus import surface

        a, b = (c.labels for c in solve_classes(named_surface("annulus11")))
        actions = {"identity": {a: a, b: b}, "collapse": {a: b, b: b}}
        monkeypatch.setattr(surface, "_twist_action", lambda t0: ((0,), actions[action]))
        report = dehn_twist_scenario_11_annulus()
        assert report.failures == failures

    def test_twist_names_a_wrong_class_count(self, monkeypatch):
        from deeplocus import surface

        solve = surface.solve_classes
        monkeypatch.setattr(surface, "solve_classes", lambda t: solve(t)[:1])
        report = dehn_twist_scenario_11_annulus()
        assert report.failures[0] == "expected 2 classes on the (1,1)-annulus, got 1"
