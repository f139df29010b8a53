import itertools
import random

import pytest

from deeplocus import markov
from deeplocus.field import QI, QQ, prime_field
from deeplocus.markov import (
    ClusterRestriction,
    DeepType,
    InvalidPoint,
    MarkovError,
    MarkovUpperPoint,
    SearchTooLarge,
    TreeNode,
    ZeroDenominator,
    classify_deep_upper,
    enumerate_deep_upper,
    explore_and_verify,
    markov_element,
    markov_residual,
    mutate_upper,
    restrict_to_cluster_algebra,
)

from conftest import F2, F3, F5, F7, random_value


def pt(ctx, x, y, z, M):
    return MarkovUpperPoint(*(ctx.from_int(v) for v in (x, y, z, M)))


class TestResidualAndElement:
    def test_markov_triple_111(self):
        assert markov_residual(pt(QQ, 1, 1, 1, 3)).is_zero

    def test_origin_line(self):
        for a in range(-3, 4):
            assert markov_residual(pt(QQ, 0, 0, 0, a)).is_zero

    def test_non_point(self):
        assert markov_residual(pt(QQ, 1, 1, 1, 1)) == QQ.from_int(-2)

    def test_markov_element(self):
        one = QQ.one()
        assert markov_element(one, one, one) == QQ.from_int(3)
        assert markov_element(one, one, QQ.from_int(2)) == QQ.from_int(3)
        with pytest.raises(ZeroDenominator):
            markov_element(QQ.zero(), one, one)


class TestMutation:
    def test_markov_triples(self):
        three = QQ.from_int(3)
        node = TreeNode((), (QQ.one(), QQ.one(), QQ.one()))
        node = mutate_upper(node, three, "x")
        assert list(node.values) == [QQ.from_int(2), QQ.from_int(1), QQ.from_int(1)]
        node = mutate_upper(node, three, "y")
        assert list(node.values) == [QQ.from_int(2), QQ.from_int(5), QQ.from_int(1)]

    def test_type_x_absorbs(self):
        node = TreeNode((), (F5.zero(), F5.one(), F5.from_int(2)))
        out = mutate_upper(node, F5.zero(), "x")
        assert out.values[0].is_zero

    def test_involution(self, rng):
        for _ in range(20):
            vals = tuple(random_value(QQ, rng) for _ in range(3))
            M = random_value(QQ, rng)
            node = TreeNode((), vals)
            for d in "xyz":
                back = mutate_upper(mutate_upper(node, M, d), M, d)
                assert back.values == vals and back.path == ()

    def test_path_reduction(self):
        three = QQ.from_int(3)
        node = TreeNode((), (QQ.one(), QQ.one(), QQ.one()))
        a = mutate_upper(node, three, "x")
        assert a.path == ("x",)
        b = mutate_upper(a, three, "y")
        assert b.path == ("x", "y")
        c = mutate_upper(b, three, "y")
        assert c.path == ("x",) and c.values == a.values


    def test_bad_nodes_and_directions_are_refused(self):
        values = (QQ.one(), QQ.one(), QQ.one())
        with pytest.raises(MarkovError, match=r"path \('x', 'x'\) is not reduced"):
            TreeNode(("x", "x"), values)
        with pytest.raises(MarkovError, match="unknown direction 'w'"):
            mutate_upper(TreeNode((), values), QQ.from_int(3), "w")


class TestClassification:
    def test_type_a(self):
        t = classify_deep_upper(pt(QQ, 0, 0, 0, 7))
        assert t.tag == "A" and t.alpha == QQ.from_int(7)

    def test_type_x_over_f5(self):
        t = classify_deep_upper(pt(F5, 0, 1, 2, 0))
        assert t.tag == "X" and (t.beta._v, t.gamma._v) == (1, 2)

    def test_torus_point_is_none(self):
        assert classify_deep_upper(pt(QQ, 1, 1, 1, 3)) is None

    def test_m_nonzero_kills_deepness(self):
        # valid point with x = 0 vanishing pair but M != 0: first mutation
        # of x is y*z*M != 0, so some cluster has no zero
        p = pt(F5, 0, 1, 2, 3)
        assert markov_residual(p).is_zero
        assert classify_deep_upper(p) is None

    def test_origin_reported_as_a(self):
        t = classify_deep_upper(pt(QQ, 0, 0, 0, 0))
        assert t.tag == "A"

    def test_invalid_point_rejected(self):
        with pytest.raises(InvalidPoint):
            classify_deep_upper(pt(QQ, 1, 1, 1, 1))

    def test_bad_deep_types_are_refused(self):
        with pytest.raises(MarkovError, match="unknown deep type 'B'"):
            DeepType("B")
        with pytest.raises(MarkovError, match="beta\\^2 \\+ gamma\\^2 = 0"):
            DeepType("X", beta=QQ.one(), gamma=QQ.one())

    def test_types_over_qi(self):
        p = MarkovUpperPoint(QI.zero(), QI.one(), QI.i(), QI.zero())
        t = classify_deep_upper(p)
        assert t.tag == "X"


class TestEnumeration:
    def test_f5_count(self):
        deep = enumerate_deep_upper(F5)
        assert len(deep) == 29
        tags = [classify_deep_upper(p).tag for p in deep]
        assert tags.count("A") == 5
        # 8 nonzero solutions each for X/Y/Z; the origin is counted as A
        assert tags.count("X") == 8 and tags.count("Y") == 8 and tags.count("Z") == 8

    def test_f3_collapses_to_type_a(self):
        deep = enumerate_deep_upper(F3)
        assert len(deep) == 3
        assert all(classify_deep_upper(p).tag == "A" for p in deep)

    def test_f2_count_matches_families(self):
        deep = enumerate_deep_upper(F2)
        # chi^2 + gamma^2 = (chi+gamma)^2 over F2: X/Y/Z give one nonzero
        # point each, plus 2 type-A points
        assert len(deep) == 5

    def test_f7_matches_family_parameterization(self):
        deep = enumerate_deep_upper(F7)
        expected = set()
        for alpha in F7.elements():
            expected.add((0, 0, 0, alpha._v))
        roots = [r for r in F7.elements() if (r * r + F7.one()).is_zero]
        for beta in F7.nonzero_elements():
            for r in roots:
                g = (beta * r)._v
                expected.add((0, beta._v, g, 0))
                expected.add((beta._v, 0, g, 0))
                expected.add((beta._v, g, 0, 0))
        got = {(p.x._v, p.y._v, p.z._v, p.M._v) for p in deep}
        assert got == expected

    def test_scan_guard(self):
        with pytest.raises(SearchTooLarge):
            enumerate_deep_upper(prime_field(103))
        with pytest.raises(SearchTooLarge):
            enumerate_deep_upper(QQ)


class TestOverGaussianRationals:
    def test_seven_line_structure(self):
        # with a square root of -1 the pair condition splits into two
        # lines per killed type, plus the all-zero line: seven total,
        # meeting only at the origin
        i = QI.i()
        zero, one, two = QI.zero(), QI.one(), QI.from_int(2)
        lines = {
            "A": lambda s: MarkovUpperPoint(zero, zero, zero, s),
            "X+": lambda s: MarkovUpperPoint(zero, s, i * s, zero),
            "X-": lambda s: MarkovUpperPoint(zero, s, -(i * s), zero),
            "Y+": lambda s: MarkovUpperPoint(s, zero, i * s, zero),
            "Y-": lambda s: MarkovUpperPoint(s, zero, -(i * s), zero),
            "Z+": lambda s: MarkovUpperPoint(s, i * s, zero, zero),
            "Z-": lambda s: MarkovUpperPoint(s, -(i * s), zero, zero),
        }
        assert len(lines) == 7
        samples = {}
        for name, line in lines.items():
            for s in (one, two):
                p = line(s)
                t = classify_deep_upper(p)
                assert t is not None and t.tag == name[0]
                samples[(name, str(s._v))] = (p.x, p.y, p.z, p.M)
            origin = line(zero)
            assert classify_deep_upper(origin).tag == "A"
        # distinct lines meet only at the origin
        assert len(set(samples.values())) == len(samples)

    def test_multiple_points_over_one_cluster_but_one_deep(self):
        # (x,y,z) = (0,1,i) extends to a valid point for every M, but only
        # M = 0 is deep
        for m_int in range(-2, 3):
            p = MarkovUpperPoint(QI.zero(), QI.one(), QI.i(), QI.from_int(m_int))
            assert markov_residual(p).is_zero
            t = classify_deep_upper(p)
            if m_int == 0:
                assert t is not None and t.tag == "X"
            else:
                assert t is None


class TestRestriction:
    def test_type_a_collapses(self):
        r5 = restrict_to_cluster_algebra(pt(QQ, 0, 0, 0, 5))
        r7 = restrict_to_cluster_algebra(pt(QQ, 0, 0, 0, 7))
        assert r5 == r7 == ClusterRestriction("all-zero")

    def test_xyz_injective_off_origin(self):
        reps = {
            restrict_to_cluster_algebra(p)
            for p in enumerate_deep_upper(F5)
            if classify_deep_upper(p).tag != "A"
        }
        assert len(reps) == 24

    def test_torus_point_has_no_representative(self):
        with pytest.raises(InvalidPoint, match="defined for deep points"):
            restrict_to_cluster_algebra(pt(QQ, 1, 1, 1, 3))

    def test_x_vs_y_distinct(self):
        rx = restrict_to_cluster_algebra(pt(F5, 0, 1, 2, 0))
        ry = restrict_to_cluster_algebra(pt(F5, 1, 0, 2, 0))
        assert rx != ry


class TestExploration:
    def test_torus_point_m_invariance(self):
        report = explore_and_verify(pt(QQ, 1, 1, 1, 3), depth=6)
        assert report.passed
        assert report.nodes_visited == 1 + 3 * (2**6 - 1)
        assert all(m == QQ.from_int(3) for m in report.markov_element_values.values())

    def test_type_x_kills_only_x(self):
        report = explore_and_verify(pt(F5, 0, 1, 2, 0), depth=6)
        assert report.passed

    def test_type_a_absorbs(self):
        report = explore_and_verify(pt(QQ, 0, 0, 0, 4), depth=4)
        assert report.passed

    def test_all_f5_deep_points_verify(self):
        for p in enumerate_deep_upper(F5):
            assert explore_and_verify(p, depth=4).passed

    def test_random_torus_points(self, rng):
        for _ in range(20):
            x = random_value(F7, rng, nonzero=True)
            y = random_value(F7, rng, nonzero=True)
            z = random_value(F7, rng, nonzero=True)
            M = markov_element(x, y, z)
            p = MarkovUpperPoint(x, y, z, M)
            assert markov_residual(p).is_zero
            assert explore_and_verify(p, depth=5).passed

    def test_same_cluster_same_type_agree_everywhere(self):
        # deep points agreeing on one cluster agree everywhere; the
        # finite-depth check retraces a walk from a non-root cluster
        p = pt(F5, 0, 1, 2, 0)
        node = TreeNode((), p.values())
        walked = mutate_upper(mutate_upper(node, p.M, "y"), p.M, "z")
        q = MarkovUpperPoint(*walked.values, p.M)
        back = TreeNode((), q.values())
        back = mutate_upper(mutate_upper(back, q.M, "z"), q.M, "y")
        assert back.values == p.values()

    def test_distinct_parameters_differ(self):
        r1 = explore_and_verify(pt(F5, 0, 1, 2, 0), depth=3)
        r2 = explore_and_verify(pt(F5, 0, 2, 4, 0), depth=3)
        assert r1.passed and r2.passed
        assert r1.point != r2.point


def test_negative_depth_is_rejected_before_any_node(monkeypatch):
    # depth 0 checks the root alone; a negative depth names no tree, so a
    # passing report for it would certify nothing
    p = pt(QQ, 1, 1, 1, 3)
    report = explore_and_verify(p, depth=0)
    assert report.passed and report.nodes_visited == 1

    def no_work(*args):
        raise AssertionError("exploration started")

    monkeypatch.setattr(markov, "classify_deep_upper", no_work)
    monkeypatch.setattr(markov, "_children", no_work)
    for depth in (-1, -3):
        with pytest.raises(markov.MarkovError, match=f"at least 0, got {depth}"):
            explore_and_verify(p, depth=depth)


def reduced_words(depth):
    for n in range(depth + 1):
        for word in itertools.product("xyz", repeat=n):
            if all(a != b for a, b in zip(word, word[1:])):
                yield word


def replay(p, path):
    node = TreeNode((), p.values())
    for d in path:
        node = mutate_upper(node, p.M, d)
    assert node.path == path
    return node.values


def replace_child(monkeypatch, target, replace):
    """Make explore's exchange step give the cluster at target the values
    replace(values, k) in place of its own, k the index of the direction
    that reached it."""
    children = markov._children

    def mutant(path, values, M):
        return [
            (child, replace(vals, markov.DIRECTIONS.index(child[-1])) if child == target else vals)
            for child, vals in children(path, values, M)
        ]

    monkeypatch.setattr(markov, "_children", mutant)


def bump(one):
    """The values with the k-th one raised by one."""
    return lambda vals, k: vals[:k] + (vals[k] + one,) + vals[k + 1 :]


class TestExplorationOracle:
    @pytest.mark.parametrize("ctx", [QQ, F7, prime_field(13)], ids=["Q", "F7", "F13"])
    def test_element_values_match_replayed_paths(self, ctx):
        # every torus cluster of the tree records markov_element of the
        # values that replaying its word reaches, and no other cluster does
        rng = random.Random(20261018)
        depth = 5
        for _ in range(6):
            x, y, z = (random_value(ctx, rng, nonzero=True) for _ in range(3))
            p = MarkovUpperPoint(x, y, z, markov_element(x, y, z))
            report = explore_and_verify(p, depth=depth)
            words = list(reduced_words(depth))
            expected = {}
            for path in words:
                vals = replay(p, path)
                if not any(v.is_zero for v in vals):
                    expected[path] = markov_element(*vals)
            assert report.nodes_visited == len(words)
            assert report.failures == []
            assert report.markov_element_values == expected

    @pytest.mark.parametrize(
        "ctx, root_of_minus_1",
        [
            (QQ, None),
            (QI, QI.gaussian(0, 1)),
            (F7, None),
            (prime_field(13), prime_field(13).from_int(5)),
        ],
        ids=["Q", "Qi", "F7", "F13"],
    )
    def test_report_matches_a_replay_of_every_word(self, ctx, root_of_minus_1):
        # the whole report at depths 0-6 against a replay: every reduced
        # word's values come from mutate_upper one step at a time from the
        # root, and each identity is tested by field arithmetic, on torus
        # points and on A/X/Y/Z deep points (X/Y/Z need a root of -1)
        rng = random.Random(f"markov-replay/{ctx!r}")
        points = []
        for _ in range(3):
            x, y, z = (random_value(ctx, rng, nonzero=True) for _ in range(3))
            points.append(MarkovUpperPoint(x, y, z, markov_element(x, y, z)))
        zero = ctx.zero()
        points.append(MarkovUpperPoint(zero, zero, zero, random_value(ctx, rng)))
        if root_of_minus_1 is not None:
            for k in range(3):
                beta = random_value(ctx, rng, nonzero=True)
                vals = [beta, beta * root_of_minus_1]
                vals.insert(k, zero)
                points.append(MarkovUpperPoint(*vals, zero))
        tags = set()
        for p in points:
            deep = classify_deep_upper(p)
            tags.add(deep.tag if deep else None)
            tree = {(): p.values()}
            for word in reduced_words(6):
                if word:
                    node = mutate_upper(TreeNode(word[:-1], tree[word[:-1]]), p.M, word[-1])
                    assert node.path == word
                    tree[word] = node.values
            for depth in range(7):
                failures, elements = [], []
                words = list(reduced_words(depth))
                for word in words:
                    vals = tree[word]
                    if deep is None and not any(v.is_zero for v in vals):
                        x, y, z = vals
                        m = p.M if x * x + y * y + z * z == p.M * x * y * z else markov_element(*vals)
                        elements.append((word, m))
                        if m != p.M:
                            failures.append(f"Markov element {m} differs from M={p.M} at {word}")
                    elif deep is not None:
                        zeros = [v.is_zero for v in vals]
                        if deep.tag == "A":
                            assert all(zeros)
                        else:
                            assert zeros == [d == deep.tag.lower() for d in markov.DIRECTIONS]
                    for k, d in enumerate(markov.DIRECTIONS):
                        if len(word) < depth and word[-1:] != (d,):
                            new = tree[word + (d,)][k]
                            a, b = (v for t, v in enumerate(vals) if t != k)
                            if vals[k] * new != a * a + b * b:
                                failures.append(f"exchange identity fails mutating {d} at {word}")
                report = explore_and_verify(p, depth=depth)
                assert report.passed and failures == [], (p, depth)
                assert report.nodes_visited == len(words)
                assert report.failures == failures
                assert list(report.markov_element_values.items()) == elements
        assert tags == ({None, "A", "X", "Y", "Z"} if root_of_minus_1 else {None, "A"})

    @pytest.mark.parametrize("ctx", [QQ, F7], ids=["Q", "F7"])
    def test_perturbed_mutation_is_named_with_its_quotient(self, ctx, monkeypatch):
        target = ("x", "y", "z")
        p = pt(ctx, 1, 1, 1, 3)
        x, y, z = replay(p, target)
        quotient = markov_element(x, y, z + ctx.one())
        replace_child(monkeypatch, target, bump(ctx.one()))
        report = explore_and_verify(p, depth=4)
        assert not report.passed
        assert quotient != p.M
        assert report.markov_element_values[target] == quotient
        assert f"Markov element {quotient} differs from M={p.M} at {target}" in report.failures

    @pytest.mark.parametrize(
        "ctx, expected",
        [
            (
                QQ,
                [
                    "exchange identity fails mutating z at ('x', 'y')",
                    "Markov element 929/300 differs from M=3 at ('x', 'y', 'z')",
                    "exchange identity fails mutating x at ('x', 'y', 'z')",
                    "exchange identity fails mutating y at ('x', 'y', 'z')",
                    "Markov element 201629/67200 differs from M=3 at ('x', 'y', 'z', 'x')",
                    "Markov element 31529/10500 differs from M=3 at ('x', 'y', 'z', 'y')",
                ],
            ),
            (
                F7,
                [
                    "exchange identity fails mutating z at ('x', 'y')",
                    "Markov element 2 mod 7 differs from M=3 mod 7 at ('x', 'y', 'z')",
                    "exchange identity fails mutating x at ('x', 'y', 'z')",
                    "exchange identity fails mutating y at ('x', 'y', 'z')",
                ],
            ),
        ],
        ids=["Q", "F7"],
    )
    def test_failure_texts_and_order(self, ctx, expected, monkeypatch):
        # one perturbed cluster breaks its own exchange, its Markov element
        # and its children's exchanges, and the Markov element of each torus
        # cluster below it
        replace_child(monkeypatch, ("x", "y", "z"), bump(ctx.one()))
        report = explore_and_verify(pt(ctx, 1, 1, 1, 3), depth=4)
        assert report.failures == expected


@pytest.mark.parametrize(
    "point, values, failure",
    [
        ((0, 0, 0, 4), (0, 1, 0), "type A values not all zero at ('x', 'y')"),
        ((0, 1, 2, 0), (1, 4, 2), "X-type value nonzero at ('x', 'y')"),
        ((0, 1, 2, 0), (0, 0, 2), "unexpected zero of y-type at ('x', 'y')"),
    ],
    ids=["A-nonzero", "X-nonzero", "X-extra-zero"],
)
def test_a_cluster_with_the_wrong_zero_pattern_is_named(point, values, failure, monkeypatch):
    # a deep point's tree with one cluster's values replaced: the zero
    # pattern check of its type names that cluster
    replaced = tuple(F5.from_int(v) for v in values)
    replace_child(monkeypatch, ("x", "y"), lambda vals, k: replaced)
    report = explore_and_verify(pt(F5, *point), depth=3)
    assert failure in report.failures
