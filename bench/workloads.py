"""Seeded op generators for the three benchmark workloads.

Each workload is a list of rounds; a round is a list of ``Op``s, one
certification each, shuffled by the seed.  Every round holds the same
number of ops of every class, so rounds are interchangeable units of
work and the latency percentiles always fall in the same op class.  The
seed draws the field values, primes, triangulations and walk seeds; it
never changes how many ops of each class a round holds.

Every op looks its entry points up as module attributes at call time,
so the tracer's wrappers catch them.  ``run`` is the timed certification;
``check`` compares its result with the paper's closed form or with a
golden recorded from the seed commit, and is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
FIXTURES = HERE / "fixtures"

# distinct rounds generated per run; the timed loop cycles through them.
# surface-walk rounds are short and walk costs vary with the seeded path,
# so it draws more of them to keep its p95 from resting on a few walks
ROUNDS = {"certify-fp": 4, "construct-q": 4, "surface-walk": 12}

TYPE_A = "type-A"
BOUNDARY = "boundary-coefficients"


class MissingSource(RuntimeError):
    """The checkout holds no deeplocus source tree to benchmark."""


def use_source_tree() -> None:
    """Put the checkout's src/ first on sys.path, so the benchmark measures
    the source next to it and never an installed copy."""
    import sys

    if not (SRC / "deeplocus" / "__init__.py").is_file():
        raise MissingSource(f"no deeplocus package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


@dataclass
class Op:
    tag: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _nonzero(ctx, rng: random.Random, signed: bool = False):
    """A random nonzero value: any residue over F_p, else a small
    rational, positive unless signed."""
    if ctx.kind == "prime-field":
        return ctx.from_int(rng.randrange(1, ctx.p))
    sign = rng.choice((1, -1)) if signed else 1
    return ctx.rational(sign * rng.randint(1, 9), rng.randint(1, 5))


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def run_cli(cli, argv: List[str]):
    """cli.main with stdout captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def cli_golden_key(argv: List[str]) -> str:
    """Golden key of a CLI call: fixture paths are stored relative to
    the benchmark directory, so goldens do not depend on the checkout."""
    return " ".join(a.replace(str(HERE) + "/", "") for a in argv)


def _cli_op(cli, argv: List[str], goldens: dict) -> Op:
    """One CLI call; its output must match the golden byte for byte."""
    want = goldens["cli"][cli_golden_key(argv)]
    return Op(
        "cli",
        lambda: run_cli(cli, argv),
        lambda out: out == (want["rc"], want["stdout"]),
    )


# ---------------------------------------------------------------------------
# certify-fp: exhaustive certification over F_p


SCANS = [(5, 3, TYPE_A), (6, 2, TYPE_A), (6, 2, BOUNDARY), (5, 5, TYPE_A), (4, 5, BOUNDARY)]
DEEP_BF_PRIMES = (101, 103, 107, 109, 113)
# ops per round of each is_deep_bruteforce class, half deep and half not
DEEP_BF_COUNTS = {6: 60, 8: 120, 10: 10}
RANK2_FP_PRIMES = (5, 13, 17, 29)
RANK2_FP_COUNT = 40


def certify_fp_cli() -> List[List[List[str]]]:
    # each costs 5-25 ms, clear of the p50 (n=8) and p95 (n=10) classes
    return [
        [["polygon", "scan", "--n", "5", "--field", "fp:2", "--json"]],
        [["markov", "enumerate", "--field", "fp:3", "--json"]],
        [
            ["rank2", "--b", "2", "--c", "2", "--field", f"fp:{p}", "--depth", "10", "--json"]
            for p in RANK2_FP_PRIMES
        ],
    ]


def scan_key(n: int, p: int, mode: str) -> str:
    return f"{n}/{p}/{mode}"


def _closing_edges(F, n: int, rng: random.Random) -> dict:
    """Random nonzero edges whose alternating product is (-1)^((n+2)/2),
    the condition for a deep point; the edge (1, n) is solved for."""
    from deeplocus import polygon
    from deeplocus.field import product

    cyc = polygon.polygon_edges(n)
    vals = [_nonzero(F, rng) for _ in range(n - 1)]
    sign = F.minus_one() ** ((n + 2) // 2)
    num = product(F, vals[0::2])
    den = product(F, vals[1::2])
    edges = dict(zip(cyc, vals))
    edges[(1, n)] = num / (den * sign)
    return edges


def _torus_point_fp(F, n: int, tris, rng: random.Random):
    """The point extended from nonzero values on a random triangulation;
    it is never deep.  Draws again when propagation meets a zero."""
    from deeplocus import polygon

    while True:
        tri = rng.choice(tris)
        try:
            return polygon.extend_from_triangulation(
                n,
                tri,
                {d: _nonzero(F, rng) for d in tri.diagonals},
                {e: _nonzero(F, rng) for e in polygon.polygon_edges(n)},
            )
        except polygon.PolygonError:
            continue


def _expected_scan_deep(n: int, F, mode: str) -> List[str]:
    """The paper's deep locus of the scan, as sorted value lists: none
    for odd n; the unique type-A point when it exists; in boundary mode,
    every edge assignment meeting the alternating-product condition."""
    import itertools

    from deeplocus import polygon

    if n % 2 == 1:
        return []
    if mode == TYPE_A:
        try:
            points = [polygon.unique_deep_point_typeA(n - 3, F)]
        except polygon.NoDeepPoint:
            points = []
    else:
        points = []
        edges = polygon.polygon_edges(n)
        for vals in itertools.product(list(F.nonzero_elements()), repeat=n):
            try:
                points.append(polygon.deep_point_from_edges(n, dict(zip(edges, vals))))
            except polygon.ConditionViolated:
                continue
    return sorted(_values_key(p) for p in points)


def _values_key(point) -> str:
    # segment values only: a boundary-mode scan tags its all-ones point
    # boundary, while deep_point_from_edges tags it type-A
    return json.dumps(point.to_json()["values"])


def _scan_check(variety_count: int, expected_deep: List[str]):
    def check(results) -> bool:
        deep = sorted(_values_key(p) for p, d in results if d)
        return len(results) == variety_count and deep == expected_deep

    return check


def certify_fp_round(rng: random.Random, goldens: dict) -> List[Op]:
    from deeplocus import cli, markov, polygon, rank2
    from deeplocus.field import prime_field

    ops: List[Op] = []
    for n, p, mode in SCANS:
        F = prime_field(p)
        ops.append(
            Op(
                "scan",
                lambda n=n, F=F, mode=mode: polygon.bruteforce_variety_scan(n, F, mode),
                _scan_check(goldens["scan_variety"][scan_key(n, p, mode)],
                            _expected_scan_deep(n, F, mode)),
            )
        )
    for n, count in DEEP_BF_COUNTS.items():
        tris = polygon.enumerate_triangulations(n)
        for k in range(count):
            F = prime_field(rng.choice(DEEP_BF_PRIMES))
            deep = k % 2 == 0
            if deep:
                point = polygon.deep_point_from_edges(n, _closing_edges(F, n, rng))
            else:
                point = _torus_point_fp(F, n, tris, rng)
            ops.append(
                Op(
                    f"deep_bf.n{n}",
                    lambda point=point: polygon.is_deep_bruteforce(point),
                    lambda out, deep=deep: out is deep,
                )
            )
    for _ in range(RANK2_FP_COUNT):
        F = prime_field(rng.choice(RANK2_FP_PRIMES))

        def rank2_fp(F=F):
            points = rank2.deep_points(rank2.Rank2Spec(2, 2), F)
            return len(points), all(rank2.verify_deep(q, N=10) for q, _ in points)

        # (2,2) over F_p, p = 1 mod 4: two square roots of -1, two families
        ops.append(Op("rank2.deep_fp", rank2_fp, lambda out: out == (4, True)))
    for p, count in ((5, 29), (7, 7)):
        F = prime_field(p)
        ops.append(
            Op(
                "markov.enumerate",
                lambda F=F: markov.enumerate_deep_upper(F),
                lambda out, count=count: len(out) == count,
            )
        )
    for slot in certify_fp_cli():
        ops.append(_cli_op(cli, rng.choice(slot), goldens))
    return ops


# ---------------------------------------------------------------------------
# construct-q: exact construction over Q and Q(i)

RANK2_AGREE_BC = ((2, 2), (3, 1), (1, 3), (2, 3))
RANK2_AGREE_PER_BC = 16
VERIFY_QI_DEPTHS = (10, 20, 30, 40)
VERIFY_QI_PER_DEPTH = 2
MARKOV_EXPLORE_COUNT = 20
MARKOV_DEPTH = 6
CUT_GLUE_COUNTS = {6: 10, 8: 10, 10: 10}
MARKOV_TRIPLES = ("1,1,1,3", "1,1,2,3", "1,2,5,3", "2,5,29,3")


def construct_q_cli() -> List[List[List[str]]]:
    return [
        [["rank2", "--b", "2", "--c", "2", "--field", "qi", "--depth", "10", "--json"]],
        [["polygon", "deep-typea", "--rank", "3", "--field", "q", "--json"]],
        [["polygon", "from-edges", "--edges", "2,2,1,2,2,1", "--json"]],
        [["markov", "verify", "--point", t, "--depth", "6", "--json"] for t in MARKOV_TRIPLES],
    ]


def _rank2_torus_point(spec, QQ, rng: random.Random):
    """x0, x1, y drawn at random, x2 and x3 solved from the presentation;
    drawn again until every value is nonzero."""
    from deeplocus import rank2

    e1, e2 = tuple(spec.e1), tuple(spec.e2)
    while True:
        x0, x1 = _nonzero(QQ, rng, signed=True), _nonzero(QQ, rng, signed=True)
        ys = tuple(_nonzero(QQ, rng, signed=True) for _ in range(spec.f))
        x2 = (
            rank2.y_monomial(ys, rank2.positive_part(e1), QQ) * x1**spec.b
            + rank2.y_monomial(ys, rank2.negative_part(e1), QQ)
        ) / x0
        if x2.is_zero:
            continue
        x3 = (
            rank2.y_monomial(ys, rank2.positive_part(e2), QQ) * x2**spec.c
            + rank2.y_monomial(ys, rank2.negative_part(e2), QQ)
        ) / x1
        if not x3.is_zero:
            return rank2.Rank2Point(spec, (x0, x1, x2, x3), ys)


def _rank2_agree(point):
    """Division form against closed form at every window index where the
    division is defined: (all agree, comparisons made)."""
    from deeplocus import rank2

    spec = point.spec
    ev = rank2.extend_evaluation(point, 5)
    evw = rank2.e_vectors(spec, -6, 9)
    ok, compared = True, 0
    for j in list(range(4, 9)) + list(range(-5, 0)):
        s = -1 if j > 0 else 1
        div = rank2.division_step(spec, evw, point.ys, ev.values, j, s)
        if div is None:
            continue
        closed = rank2.closed_form_step(spec, evw, point.ys, ev.values, j, s)
        ok = ok and div == closed == ev.values[j]
        compared += 1
    return ok, compared


def _markov_explore(point):
    from deeplocus import markov

    report = markov.explore_and_verify(point, depth=MARKOV_DEPTH)
    return (
        report.passed,
        report.nodes_visited,
        all(v == point.M for v in report.markov_element_values.values()),
    )


def _cut_glue(n, tri, diag_values, edge_values, d):
    from deeplocus import polygon

    point = polygon.extend_from_triangulation(n, tri, diag_values, edge_values)
    left, right = polygon.cut_along_diagonal(point, d)
    return polygon.glue_cut_halves(left, right, n, d) == point


def construct_q_round(rng: random.Random, goldens: dict) -> List[Op]:
    from deeplocus import cli, markov, polygon, rank2
    from deeplocus.field import QI, QQ

    ops: List[Op] = []
    for b, c in RANK2_AGREE_BC:
        for k in range(RANK2_AGREE_PER_BC):
            if k % 2 == 0:
                spec = rank2.Rank2Spec(b, c)
            else:
                spec = rank2.Rank2Spec(
                    b, c, 1, (rng.choice([-2, -1, 1, 2]),), (rng.choice([-1, 0, 1]),)
                )
            point = _rank2_torus_point(spec, QQ, rng)
            ops.append(
                Op(
                    "rank2.agree",
                    lambda point=point: _rank2_agree(point),
                    lambda out: out[0] and out[1] > 0,
                )
            )
    qi_points = [q for q, _ in rank2.deep_points(rank2.Rank2Spec(2, 2), QI)]
    for N in VERIFY_QI_DEPTHS:
        for _ in range(VERIFY_QI_PER_DEPTH):
            point = rng.choice(qi_points)
            ops.append(
                Op(
                    "rank2.verify_qi",
                    lambda point=point, N=N: rank2.verify_deep(point, N=N),
                    lambda out: out is True,
                )
            )
    # a reduced word tree of depth d has 1 + 3(2^d - 1) nodes
    nodes = 1 + 3 * (2**MARKOV_DEPTH - 1)
    for _ in range(MARKOV_EXPLORE_COUNT):
        x, y, z = (_nonzero(QQ, rng) for _ in range(3))
        point = markov.MarkovUpperPoint(x, y, z, markov.markov_element(x, y, z))
        ops.append(
            Op(
                "markov.explore",
                lambda point=point: _markov_explore(point),
                lambda out: out == (True, nodes, True),
            )
        )
    for n, count in CUT_GLUE_COUNTS.items():
        tris = polygon.enumerate_triangulations(n)
        for _ in range(count):
            # positive seeds give a totally positive point: no zero appears
            tri = rng.choice(tris)
            diag_values = {d: _nonzero(QQ, rng) for d in tri.diagonals}
            edge_values = {e: _nonzero(QQ, rng) for e in polygon.polygon_edges(n)}
            d = rng.choice(sorted(tri.diagonals))
            ops.append(
                Op(
                    f"polygon.cut_glue.n{n}",
                    lambda a=(n, tri, diag_values, edge_values, d): _cut_glue(*a),
                    lambda out: out is True,
                )
            )
    for slot in construct_q_cli():
        ops.append(_cli_op(cli, rng.choice(slot), goldens))
    return ops


# ---------------------------------------------------------------------------
# surface-walk: flip-graph certification

# walk lengths chosen so that every walk costs about the same
WALK_STEPS = {"annulus22": 300, "genus1": 250, "genus2": 150, "pants": 200}
WALKS_PER_KIND = 6
WALK_PRIME = 101
# the ROADMAP's 500-step annulus22 walk; these sit at the top of the mix,
# so p95 falls inside their class rather than in the tail of the others
LONG_WALK_SURFACE = "annulus22"
LONG_WALK_STEPS = 500
LONG_WALKS = 6
CLASS_SURFACES = ("annulus22", "genus1", "genus2", "pants")
CLASS_OPS_PER_SURFACE = 2
PRE_FLIPS = 4
CLI_WALK_SEEDS = (1, 2, 3, 4)


def surface_walk_cli() -> List[List[List[str]]]:
    fixture = str(FIXTURES / "annulus22_deep.json")
    return [
        [["surface", "components", "--name", "genus1", "--json"]],
        [["surface", "invariants", "--name", "genus2", "--json"]],
        [["scenario", "surface-components", "--json"]],
        [
            ["surface", "deep", "--name", "annulus22", "--fixture", fixture,
             "--steps", "100", "--seed", str(s), "--json"]
            for s in CLI_WALK_SEEDS
        ],
    ]


def _flipped(name: str, rng: random.Random):
    from deeplocus import surface

    t = surface.named_surface(name)
    for _ in range(PRE_FLIPS):
        t = t.flip(rng.choice(t.interior_arcs()))
    return t


def _walk_start(name: str, ctx, rng: random.Random):
    """A deep point on a randomly flipped carrier: random nonzero values on
    the boundary and the dissection, closed by solve_closing_value."""
    from deeplocus import surface

    t = _flipped(name, rng)
    d = surface.dissection_spanning_tree(t)
    bvals = {a: _nonzero(ctx, rng) for a in t.boundary_arcs()}
    dvals = {a: _nonzero(ctx, rng) for a in d.arcs}
    target = t.boundary_arcs()[0]
    bvals[target] = surface.solve_closing_value(d, {**bvals, **dvals}, target)
    return surface.deep_point_from_dissection(d, bvals, dvals)


def _walk(point, steps: int, seed: int):
    from deeplocus import surface

    report = surface.verify_deep_random_walk(point, steps, seed)
    return report.passed, len(report.flips_taken)


def _classes(t):
    """Every label class, a dissection avoiding each, and each class
    transported back to the reference triangulation."""
    from deeplocus import surface

    classes = surface.solve_classes(t)
    sizes = [len(surface.dissection_avoiding(t, c).arcs) for c in classes]
    back = sorted(surface.transport_to_reference(c).labels for c in classes)
    return len(classes), sizes, back


def surface_walk_round(rng: random.Random, goldens: dict) -> List[Op]:
    from deeplocus import cli, surface
    from deeplocus.field import QQ, prime_field

    ops: List[Op] = []
    for name, steps in WALK_STEPS.items():
        for ctx in (QQ, prime_field(WALK_PRIME)):
            for _ in range(WALKS_PER_KIND):
                point = _walk_start(name, ctx, rng)
                seed = rng.randrange(2**31)
                ops.append(
                    Op(
                        "surface.walk",
                        lambda a=(point, steps, seed): _walk(*a),
                        lambda out, steps=steps: out == (True, steps),
                    )
                )
    for _ in range(LONG_WALKS):
        point = _walk_start(LONG_WALK_SURFACE, QQ, rng)
        seed = rng.randrange(2**31)
        ops.append(
            Op(
                "surface.walk500",
                lambda a=(point, LONG_WALK_STEPS, seed): _walk(*a),
                lambda out: out == (True, LONG_WALK_STEPS),
            )
        )
    for name in CLASS_SURFACES:
        ref = surface.named_surface(name)
        g, b, m, _ = ref.invariants()
        count = 2 ** (2 * g + b - 1) if m % 2 == 0 else 0
        # every dissection has 2g+b-1 arcs
        want = (count, [2 * g + b - 1] * count, sorted(c.labels for c in surface.solve_classes(ref)))
        for _ in range(CLASS_OPS_PER_SURFACE):
            t = _flipped(name, rng)
            ops.append(
                Op(
                    "surface.classes",
                    lambda t=t: _classes(t),
                    lambda out, want=want: out == want,
                )
            )
    for slot in surface_walk_cli():
        ops.append(_cli_op(cli, rng.choice(slot), goldens))
    return ops


# each CLI slot lists interchangeable calls; a round makes one per slot
CLI_SLOTS = {
    "certify-fp": certify_fp_cli,
    "construct-q": construct_q_cli,
    "surface-walk": surface_walk_cli,
}

BUILDERS: Dict[str, Callable[[random.Random, dict], List[Op]]] = {
    "certify-fp": certify_fp_round,
    "construct-q": construct_q_round,
    "surface-walk": surface_walk_round,
}


def build(workload: str, seed: int) -> List[List[Op]]:
    """ROUNDS[workload] shuffled rounds of ops, all from one seeded stream."""
    rng = random.Random(f"{workload}/{seed}")
    goldens = load_goldens()
    out = []
    for _ in range(ROUNDS[workload]):
        ops = BUILDERS[workload](rng, goldens)
        rng.shuffle(ops)
        out.append(ops)
    return out
