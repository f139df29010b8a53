"""Time the relation kernels: one identity test against each kind of table
the certifiers cache, in ns per call.

Run from the repository root, with ``deeplocus`` importable (``PYTHONPATH=src``
for this tree, or an installed package):

    python tools/kernels.py                        # best of 7 repeats of 200 calls
    python tools/kernels.py --repeats 1 --number 1

For each field (F_101, Q and Q(i)) and each table, it builds one valid row,
so that every relation of the table is read, and times two paths on it:
``FieldContext.first_nonzero_relation`` on the cached, prepared table, and
the same relations evaluated through ``FieldValue`` arithmetic, the oracle
the tests hold the kernel to. The tables are the polygon certificates
(``polygon._chart(n, 1, 2)`` in boundary mode and
``polygon._type_a_certificate``) of the 8-gon and the 10-gon, and
the identities of an inner Markov node of a torus cluster, with two
children (``markov._node_relations``).

Over F_101 and Q it also times two levels of a depth-6 exchange tree, as
``markov.explore_and_verify`` lays them out: the last inner level (48
clusters, each with its two children) and the leaf level (96 clusters).
Each level is timed as one ``FieldContext.first_nonzero_block`` call on
its row and as one ``first_nonzero_relation`` call per cluster, and both
are checked against the field-value oracle, cluster by cluster. The new
values of the last inner level's 96 children are timed too, each as the
fused ``FieldValue.mul_mul_sub`` (M*a*b - c, the one op the tree uses) and
as a product followed by a difference; both lists are checked against the
oracle, each child's exchange identity v*v' = a^2 + b^2.

Each time is the best of --repeats runs of --number calls. It prints one
JSON line, and exits 1 if a kernel and the oracle disagree.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import timeit
from fractions import Fraction
from typing import List, Tuple

FIELDS = ("fp:101", "q", "qi")
SEED = 31


def oracle(ctx, values, relations):
    """The first relation that does not vanish, evaluated through field values."""
    from deeplocus.field import product

    for t, relation in enumerate(relations):
        total = ctx.zero()
        for c, idx in relation:
            total = total + ctx.from_int(c) * product(ctx, (values[i] for i in idx))
        if not total.is_zero:
            return t
    return None


def _nonzero(ctx, rng: random.Random):
    """A random nonzero value: a residue over F_p, a small rational over Q,
    and a small Gaussian rational over Q(i)."""
    from deeplocus.field import QI

    def small() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    while True:
        if ctx.p:
            v = ctx.from_int(rng.randrange(ctx.p))
        elif ctx is QI:
            v = ctx.gaussian(small(), small())
        else:
            v = ctx.rational(rng.randint(-9, 9), rng.randint(1, 5))
        if not v.is_zero:
            return v


def tables(ctx, rng: random.Random) -> List[Tuple[str, object, list]]:
    """(name, cached table, a valid row it is tested on) for each table."""
    from deeplocus import markov, polygon

    out = []
    for n in (8, 10):
        fan = polygon.PolygonTriangulation(n, frozenset((1, k) for k in range(3, n)))
        for mode in (polygon.MODE_BOUNDARY, polygon.MODE_TYPE_A):
            edges = {e: ctx.one() if mode == polygon.MODE_TYPE_A else _nonzero(ctx, rng)
                     for e in polygon.polygon_edges(n)}
            seeds = {d: _nonzero(ctx, rng) for d in fan.diagonals}
            point = polygon.extend_from_triangulation(n, fan, seeds, edges)
            table = (polygon._type_a_certificate(n)[2] if mode == polygon.MODE_TYPE_A
                     else polygon._chart(n, 1, 2)[1])
            out.append((f"certificate.n{n}.{mode}", table, list(point.row)))
    x, y, z = (_nonzero(ctx, rng) for _ in range(3))
    m = markov.markov_element(x, y, z)
    row = [x, y, z, m, x * z * m - y, x * y * m - z]
    out.append(("markov.node.torus.y,z", markov._node_relations(True, ("y", "z")), row))
    return out


LEVEL_FIELDS = ("fp:101", "q")
LEVEL_DEPTH = 6


# v*v' - a^2 - b^2 over (v, v', a, b): the exchange identity of one child
EXCHANGE = (((1, (0, 1)), (-1, (2, 2)), (-1, (3, 3))),)


def levels(ctx, rng: random.Random) -> Tuple[List[Tuple[str, list, int, list]], list]:
    """(name, row, stride, tables) of the last inner level and the leaf
    level of the exchange tree of a random torus point, to LEVEL_DEPTH: the
    level tests explore_and_verify makes, read off its calls; and the
    (M, a, b, v) of each child of the last inner level, whose new value is
    M*a*b - v."""
    from deeplocus import markov
    from deeplocus.field import FieldContext

    x, y, z = (_nonzero(ctx, rng) for _ in range(3))
    point = markov.MarkovUpperPoint(x, y, z, markov.markov_element(x, y, z))
    seen, exchanges = [], []
    level_test, children = FieldContext.first_nonzero_block, markov._children

    def record(self, row, stride, tables):
        seen.append((list(row), stride, list(tables)))
        return level_test(self, *seen[-1])

    def record_children(path, values, M):
        if len(path) == LEVEL_DEPTH - 1:
            for d in markov._CHILD_DIRS[path[-1:]]:
                k = markov._SLOT[d]
                i, j = markov._OTHERS[k]
                exchanges.append((M, values[i], values[j], values[k]))
        return children(path, values, M)

    FieldContext.first_nonzero_block, markov._children = record, record_children
    try:
        report = markov.explore_and_verify(point, LEVEL_DEPTH)
    finally:
        FieldContext.first_nonzero_block, markov._children = level_test, children
    if not report.passed:
        raise SystemExit(f"the exchange tree of {point} fails: {report.failures[:1]}")
    inner, leaf = seen[LEVEL_DEPTH - 1], seen[LEVEL_DEPTH]
    return ([(f"markov.level.inner.d{LEVEL_DEPTH - 1}", *inner), (f"markov.level.leaf.d{LEVEL_DEPTH}", *leaf)],
            exchanges)


def stretches(row, stride, tables):
    """Each table and its stretch of the row."""
    return [(table, row[k * stride : (k + 1) * stride]) for k, table in enumerate(tables)]


def best_ns(call, repeats: int, number: int) -> float:
    return min(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e9


def main(argv: List[str]) -> int:
    from deeplocus.cli import parse_field

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.number < 1:
        parser.error("--repeats and --number must be at least 1")
    rng = random.Random(SEED)
    report = {}
    disagree = []
    for field in FIELDS:
        ctx = parse_field(field)
        report[field] = {}
        for name, table, row in tables(ctx, rng):
            got, want = ctx.first_nonzero_relation(row, table), oracle(ctx, row, table)
            if got != want:
                disagree.append(f"{field} {name}: kernel {got}, oracle {want}")
            prepared = best_ns(lambda: ctx.first_nonzero_relation(row, table), args.repeats, args.number)
            slow = best_ns(lambda: oracle(ctx, row, table), args.repeats, args.number)
            report[field][name] = {"rows": len(table), "prepared_ns": round(prepared),
                                   "oracle_ns": round(slow), "oracle_x": round(slow / prepared, 2)}
        if field not in LEVEL_FIELDS:
            continue
        level_list, exchanges = levels(ctx, rng)
        for name, row, stride, level_tables in level_list:
            parts = stretches(row, stride, level_tables)
            want = [oracle(ctx, values, table) for table, values in parts]
            per_cluster = [ctx.first_nonzero_relation(values, table) for table, values in parts]
            first = next((k for k, r in enumerate(want) if r is not None), None)
            if per_cluster != want or ctx.first_nonzero_block(row, stride, level_tables) != first:
                disagree.append(f"{field} {name}: the kernels and the oracle disagree")
            level = best_ns(lambda: ctx.first_nonzero_block(row, stride, level_tables), args.repeats, args.number)
            each = best_ns(lambda: [ctx.first_nonzero_relation(v, t) for t, v in parts],
                           args.repeats, args.number)
            report[field][name] = {"clusters": len(level_tables), "level_ns": round(level),
                                   "per_cluster_ns": round(each), "per_cluster_x": round(each / level, 2)}
        name = f"markov.children.inner.d{LEVEL_DEPTH - 1}"

        def fused(exchanges=exchanges):
            return [m.mul_mul_sub(a, b, v) for m, a, b, v in exchanges]

        def split(exchanges=exchanges):
            return [m * a * b - v for m, a, b, v in exchanges]

        for new_values in (fused, split):
            if any(oracle(ctx, [v, w, a, b], EXCHANGE) is not None
                   for (_, a, b, v), w in zip(exchanges, new_values())):
                disagree.append(f"{field} {name}: a child's value fails its exchange identity")
        fused_ns = best_ns(fused, args.repeats, args.number)
        split_ns = best_ns(split, args.repeats, args.number)
        report[field][name] = {"children": len(exchanges), "fused_ns": round(fused_ns),
                               "product_difference_ns": round(split_ns),
                               "product_difference_x": round(split_ns / fused_ns, 2)}
    print(json.dumps({"repeats": args.repeats, "number": args.number, "ns_per_call": report},
                     sort_keys=True))
    for line in disagree:
        print(line, file=sys.stderr)
    return 1 if disagree else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
