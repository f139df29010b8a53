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
``polygon._type_a_certificate``) of the 8-gon and the 10-gon.

For each field it times the Markov node test, the test
``FieldContext.exchange_level`` makes of each cluster (the ``node``
formula of the field's record, ``ctx.arith``), on an inner torus cluster
with two children, against the node's identities
(``markov._node_relations``) evaluated through ``FieldValue`` arithmetic.
The two must agree on the valid cluster, which holds, and on each copy
with one of its values x, y, z, M, y', z' raised by one.

Over F_101 and Q it also times the exchange tree of a random torus point
to depth 6 (190 clusters) two ways: on payloads, one
``FieldContext.exchange_level`` call per level as
``markov.explore_and_verify`` makes them, and as the field-value replay,
each word's values from its parent's by ``markov.mutate_upper`` and each
identity tested by field arithmetic; the two must agree on every cluster's
values, and every identity must hold.  Over Q and Q(i) it times powers
a**n on the payload (``FieldValue.__pow__``) against square-and-multiply
over field values, and checks that they agree.

For each field it times the surface flip walk's value rule
(``FieldContext.ptolemy_rule``) on payloads against the same formula
through ``FieldValue`` arithmetic: the label-1 value a*b/c and the label-0
identity test a*b + c*d = 0, on PTOLEMY_DRAWS seeded draws of nonzero
values, half of them with d made so that the sum vanishes; the two must
agree on every draw.

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
    return out


NODE_DIRS = ("y", "z")


def node_rows(ctx, rng: random.Random) -> List[list]:
    """The row x, y, z, M, y', z' of an inner torus cluster whose children
    are in the slots of y and z, and each copy of it with one value raised
    by one."""
    from deeplocus import markov

    x, y, z = (_nonzero(ctx, rng) for _ in range(3))
    m = markov.markov_element(x, y, z)
    row = [x, y, z, m, x * z * m - y, x * y * m - z]
    return [row] + [row[:t] + [row[t] + ctx.one()] + row[t + 1:] for t in range(len(row))]


def node_args(ctx, row) -> tuple:
    """The node test's arguments for the row: the payloads of x, y, z and M,
    the torus flag, the two children as exchange_children forms them, and
    the modulus."""
    x, y, z, m, y2, z2 = (v._v for v in row)
    return (x, y, z, m, True, [(x, y2, z, 1), (x, y, z2, 2)], ctx.p)


TREE_FIELDS = ("fp:101", "q")
TREE_DEPTH = 6
POWER_FIELDS = ("q", "qi")
POWER_EXPONENTS = (2, 7, 40, 130, 1000)


def tree_point(ctx, rng: random.Random):
    from deeplocus import markov

    x, y, z = (_nonzero(ctx, rng) for _ in range(3))
    return markov.MarkovUpperPoint(x, y, z, markov.markov_element(x, y, z))


def payload_tree(point) -> List[list]:
    """Every level of the exchange tree of point to TREE_DEPTH, as
    explore_and_verify walks it on payloads; refused if a cluster fails."""
    ctx, M = point.ctx, point.M
    level, levels = ctx.exchange_root(point.values()), []
    for n in range(TREE_DEPTH + 1):
        inner = n < TREE_DEPTH
        children, _, failed = ctx.exchange_level(level, M, None, inner)
        if failed:
            raise SystemExit(f"the exchange tree of {point} fails at depth {n}")
        levels.append(level)
        level = children
    return levels


def replayed_tree(point) -> dict:
    """Every reduced word to TREE_DEPTH and its values, each from its
    parent's by mutate_upper, with each identity tested by field arithmetic:
    the torus relation at every torus cluster, and each exchange."""
    from deeplocus import markov

    M, tree = point.M, {(): markov.TreeNode((), point.values())}
    frontier = [()]
    for n in range(TREE_DEPTH + 1):
        nxt = []
        for word in frontier:
            node = tree[word]
            x, y, z = node.values
            if x and y and z and x * x + y * y + z * z != M * x * y * z:
                raise SystemExit(f"the Markov element differs at {word}")
            if n == TREE_DEPTH:
                continue
            for k, d in enumerate(markov.DIRECTIONS):
                if word[-1:] != (d,):
                    child = tree[word + (d,)] = markov.mutate_upper(node, M, d)
                    a, b = (v for t, v in enumerate(node.values) if t != k)
                    if node.values[k] * child.values[k] != a * a + b * b:
                        raise SystemExit(f"the exchange identity fails mutating {d} at {word}")
                    nxt.append(word + (d,))
        frontier = nxt
    return {word: node.values for word, node in tree.items()}


PTOLEMY_DRAWS = 40


def ptolemy_draws(ctx, rng: random.Random) -> List[tuple]:
    """(a, b, c, d) of nonzero values; in every other draw d is
    -a*b/c, so that a*b + c*d vanishes."""
    draws = []
    for k in range(PTOLEMY_DRAWS):
        a, b, c, d = (_nonzero(ctx, rng) for _ in range(4))
        draws.append((a, b, c, -(a * b) / c if k % 2 else d))
    return draws


def ptolemy_by_field_values(draws) -> List[tuple]:
    """Each draw's ratio a*b/c and whether a*b + c*d is 0, through
    FieldValue arithmetic."""
    return [(a * b / c, (a * b + c * d).is_zero) for a, b, c, d in draws]


def ptolemy_on_payloads(ctx, draws) -> List[tuple]:
    """The same through the walk's rule, on payloads."""
    ratio, vanishes, _, p = ctx.ptolemy_rule()
    return [(ratio(a, b, c, p), vanishes(a, b, c, d, p)) for a, b, c, d in draws]


def square_and_multiply(a, n: int):
    """a**n for n >= 0 by square-and-multiply over field values."""
    result, base = a.ctx.one(), a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def best_ns(call, repeats: int, number: int) -> float:
    return min(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e9


def main(argv: List[str]) -> int:
    from deeplocus import markov
    from deeplocus.cli import parse_field
    from deeplocus.field import FieldValue

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
        node, table = ctx.arith.node, markov._node_relations(True, NODE_DIRS)
        rows = node_rows(ctx, rng)
        got, want = [node(*node_args(ctx, r)) for r in rows], [oracle(ctx, r, table) is None for r in rows]
        if got != want or not want[0] or all(want):
            disagree.append(f"{field} markov.node_test: the node test and the oracle disagree")
        row, valid = rows[0], node_args(ctx, rows[0])
        fast = best_ns(lambda: node(*valid), args.repeats, args.number)
        slow = best_ns(lambda: oracle(ctx, row, table), args.repeats, args.number)
        report[field]["markov.node_test.torus.y,z"] = {"node_test_ns": round(fast), "oracle_ns": round(slow),
                                                       "oracle_x": round(slow / fast, 2)}
        if field in TREE_FIELDS:
            point = tree_point(ctx, rng)
            levels, replayed = payload_tree(point), replayed_tree(point)
            words = sorted(replayed, key=lambda w: (len(w), w))
            clusters = [c for level in levels for c in level]
            if [tuple(FieldValue(ctx, v) for v in c[:3]) for c in clusters] != [replayed[w] for w in words]:
                disagree.append(f"{field} markov.tree.d{TREE_DEPTH}: the payload tree and the replay disagree")
            payload = best_ns(lambda: payload_tree(point), args.repeats, args.number)
            replay = best_ns(lambda: replayed_tree(point), args.repeats, args.number)
            report[field][f"markov.tree.d{TREE_DEPTH}"] = {
                "clusters": len(words), "payload_ns": round(payload), "replay_ns": round(replay),
                "replay_x": round(replay / payload, 2)}
        draws = ptolemy_draws(ctx, rng)
        payloads = [tuple(ctx.ptolemy_payloads(draw)) for draw in draws]
        got, want = ptolemy_on_payloads(ctx, payloads), ptolemy_by_field_values(draws)
        if [(FieldValue(ctx, r), z) for r, z in got] != want or {z for _, z in want} != {True, False}:
            disagree.append(f"{field} ptolemy: the payload rule and field arithmetic disagree")
        payload = best_ns(lambda: ptolemy_on_payloads(ctx, payloads), args.repeats, args.number)
        slow = best_ns(lambda: ptolemy_by_field_values(draws), args.repeats, args.number)
        report[field][f"ptolemy.x{PTOLEMY_DRAWS}"] = {"payload_ns": round(payload), "field_value_ns": round(slow),
                                                      "field_value_x": round(slow / payload, 2)}
        if field in POWER_FIELDS:
            a = _nonzero(ctx, rng)
            for n in POWER_EXPONENTS:
                if a**n != square_and_multiply(a, n):
                    disagree.append(f"{field} power.n{n}: the payload power and square-and-multiply disagree")
                payload = best_ns(lambda: a**n, args.repeats, args.number)
                oracle_ns = best_ns(lambda: square_and_multiply(a, n), args.repeats, args.number)
                report[field][f"power.n{n}"] = {"payload_ns": round(payload), "square_and_multiply_ns":
                                                round(oracle_ns), "square_and_multiply_x":
                                                round(oracle_ns / payload, 2)}
    print(json.dumps({"repeats": args.repeats, "number": args.number, "ns_per_call": report},
                     sort_keys=True))
    for line in disagree:
        print(line, file=sys.stderr)
    return 1 if disagree else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
