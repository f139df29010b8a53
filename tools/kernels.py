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
(``polygon._certificate``) of the 8-gon and the 10-gon in both modes, and
the identities of an inner Markov node of a torus cluster, with two
children (``markov._node_relations``). Each time is the best of --repeats
runs of --number calls. It prints one JSON line, and exits 1 if the two
paths disagree on a row.
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
            out.append((f"certificate.n{n}.{mode}", polygon._certificate(n, mode)[2], list(point.row)))
    x, y, z = (_nonzero(ctx, rng) for _ in range(3))
    m = markov.markov_element(x, y, z)
    row = [x, y, z, m, x * z * m - y, x * y * m - z]
    out.append(("markov.node.torus.y,z", markov._node_relations(True, ("y", "z")), row))
    return out


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
    print(json.dumps({"repeats": args.repeats, "number": args.number, "ns_per_call": report},
                     sort_keys=True))
    for line in disagree:
        print(line, file=sys.stderr)
    return 1 if disagree else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
