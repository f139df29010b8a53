import hashlib
import io
import json
import random
import os
from contextlib import redirect_stdout

import pytest

from deeplocus.cli import (
    ParseError,
    SCENARIOS,
    UnknownScenario,
    ingest_surface,
    main,
    parse_field,
    run_scenario,
)
from deeplocus.field import FieldContext, QI, QQ
from deeplocus.surface import InvalidPairing

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def genus_deep_argv(tmp_path, genus):
    """`surface deep --steps 20` argv on a one-boundary surface of the given
    genus, with a deep-point fixture solved on its spanning-tree dissection."""
    # the fixture's class is read off its cut polygon; listing
    # all 2^16 label classes first took seconds
    from deeplocus.surface import dissection_spanning_tree, solve_closing_value

    gluings = [[4 * k + i, 4 * k + i + 2] for k in range(genus) for i in (0, 1)]
    surface_file = tmp_path / f"genus{genus}.json"
    surface_file.write_text(json.dumps({"polygon_sides": 4 * genus + 2, "gluings": gluings}))
    t = ingest_surface(str(surface_file))
    assert t.invariants()[:2] == (genus, 1)
    d = dissection_spanning_tree(t)
    arcs = [*t.boundary_arcs(), *sorted(d.arcs)]
    values = {a: QQ.from_int(k + 2) for k, a in enumerate(arcs)}
    target = t.boundary_arcs()[0]
    values[target] = solve_closing_value(d, values, target)
    fixture = tmp_path / f"genus{genus}_deep.json"
    fixture.write_text(
        json.dumps(
            {
                "field": "q",
                "dissection": sorted(d.arcs),
                "values": {str(a): str(v) for a, v in values.items()},
            }
        )
    )
    argv = ["surface", "deep", "--surface", str(surface_file)]
    return argv + ["--fixture", str(fixture), "--steps", "20", "--json"]


class TestFieldSelector:
    def test_selectors(self):
        assert parse_field("q") is not None and parse_field("q") == QQ
        assert parse_field("qi") == QI
        assert parse_field("fp:5").characteristic == 5

    def test_bad_selector(self):
        with pytest.raises(ParseError):
            parse_field("gf256")
        with pytest.raises(ParseError):
            parse_field("fp:nine")


class TestIngestion:
    def test_annulus22(self):
        t = ingest_surface(os.path.join(DATA, "annulus22.json"))
        assert t.invariants() == (0, 2, 4, 8)

    def test_disk6(self):
        t = ingest_surface(os.path.join(DATA, "disk6.json"))
        assert t.invariants() == (0, 1, 6, 9)

    def test_malformed_gluing(self):
        with pytest.raises(InvalidPairing):
            ingest_surface(os.path.join(DATA, "bad_gluing.json"))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            ingest_surface(os.path.join(DATA, "nope.json"))


class TestScenarios:
    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            run_scenario("no-such-thing", None)
        code, _ = run_cli(["scenario", "no-such-thing"])
        assert code == 2

    def test_list(self):
        code, out = run_cli(["scenario", "list"])
        assert code == 0
        assert set(out.split()) == set(SCENARIOS)

    @pytest.mark.parametrize(
        "name", ["polygon-a3", "polygon-scan", "badcut", "markov-collapse"]
    )
    def test_quick_scenarios_pass(self, name):
        code, out = run_cli(["scenario", name])
        assert code == 0
        assert "FAIL" not in out

    def test_scenario_with_surface_file(self):
        path = os.path.join(DATA, "annulus22.json")
        code, out = run_cli(["scenario", "surface-components", "--surface", path])
        assert code == 0 and "FAIL" not in out

    def test_json_output_is_deterministic(self):
        code1, out1 = run_cli(["scenario", "polygon-hexagon", "--json", "--seed", "9"])
        code2, out2 = run_cli(["scenario", "polygon-hexagon", "--json", "--seed", "9"])
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["schema"] == 1
        assert doc["summary"]["failed"] == 0

    def test_polygon_hexagon_fails_when_a_perturbation_is_accepted(self, monkeypatch):
        from deeplocus import polygon

        construct = polygon.deep_point_from_edges

        def lenient(n, edges):
            try:
                return construct(n, edges)
            except polygon.ConditionViolated:
                return None

        monkeypatch.setattr(polygon, "deep_point_from_edges", lenient)
        rep = run_scenario("polygon-hexagon", 3)
        assert [d for d, ok, _ in rep.assertions if not ok] == [
            "perturbing one edge always violates the product condition"
        ]
        assert rep.exit_code == 1

    def test_rank2_closed_form_fails_without_torus_points(self, monkeypatch):
        from deeplocus import rank2

        monkeypatch.setattr(rank2, "random_torus_point", lambda spec, ctx, rng: None)
        rep = run_scenario("rank2-closed-form", 3)
        assert [(d, w) for d, ok, w in rep.assertions if not ok] == [
            ("division form and closed form agree wherever both are defined", "0 comparisons"),
            ("comparison count is meaningful", "0"),
        ]


class TestSubcommands:
    def test_polygon_deep_typea(self):
        code, out = run_cli(["polygon", "deep-typea", "--rank", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["certified_deep"] is True
        values = {(v["i"], v["j"]): v["value"] for v in doc["deep_point"]["values"]}
        assert values[(1, 4)] == "-1" and values[(1, 3)] == "0"

    def test_polygon_deep_typea_missing(self):
        code, out = run_cli(["polygon", "deep-typea", "--rank", "2"])
        assert code == 0
        assert json.loads(out)["deep_point"] is None

    def test_polygon_from_edges(self):
        code, out = run_cli(
            ["polygon", "from-edges", "--edges", "2,2,1,2,2,1", "--field", "q"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certified_deep"] is True
        values = {(v["i"], v["j"]): v["value"] for v in doc["deep_point"]["values"]}
        assert values[(2, 5)] == "-4"

    def test_polygon_scan(self):
        code, out = run_cli(["polygon", "scan", "--n", "6", "--field", "fp:3"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["deep_points"]) == 1

    def test_rank2(self):
        code, out = run_cli(["rank2", "--b", "2", "--c", "2", "--field", "fp:5"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["deep_points"]) == 4
        assert all(e["verified"] for e in doc["deep_points"])
        assert doc["deep_points"][0]["window"]["0"] == "0 mod 5"

    def test_rank2_with_frozens(self):
        code, out = run_cli(
            ["rank2", "--b", "2", "--c", "2", "--e1", "1", "--e2", "0", "--field", "fp:5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"] == {"b": 2, "c": 2, "f": 1, "e1": [1], "e2": [0]}
        assert len(doc["deep_points"]) == 12
        assert all(e["verified"] for e in doc["deep_points"])

    def test_markov_enumerate(self):
        code, out = run_cli(["markov", "enumerate", "--field", "fp:5"])
        assert code == 0
        assert json.loads(out)["count"] == 29

    def test_markov_verify_with_trace(self):
        code, out = run_cli(
            ["markov", "verify", "--point", "1,1,1,3", "--depth", "4", "--trace"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["nodes_visited"] == 1 + 3 * (2**4 - 1)
        assert doc["markov_element"][""] == "3"

    def test_surface_invariants(self):
        path = os.path.join(DATA, "genus1.json")
        code, out = run_cli(["surface", "invariants", "--surface", path])
        assert code == 0
        doc = json.loads(out)
        assert (doc["genus"], doc["boundary_components"], doc["marked_points"]) == (1, 1, 2)

    def test_surface_invariants_of_a_named_surface(self):
        code, out = run_cli(["surface", "invariants", "--name", "genus1", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["genus"], doc["boundary_components"], doc["marked_points"], doc["arcs"]) == (
            1, 1, 2, 7,
        )

    def test_surface_components_from_file(self):
        path = os.path.join(DATA, "annulus21.json")
        code, out = run_cli(["surface", "components", "--surface", path])
        assert code == 0
        assert "0" in out

    def test_surface_components_on_a_genus8_file(self):
        path = os.path.join(DATA, "genus8.json")
        code, out = run_cli(["surface", "components", "--surface", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {"failed": 0, "passed": 3}
        assert doc["assertions"][0]["witness"] == str(2**16)

    def test_surface_deep_fixture(self):
        code, out = run_cli(
            [
                "surface",
                "deep",
                "--surface",
                os.path.join(DATA, "annulus22.json"),
                "--fixture",
                os.path.join(DATA, "annulus22_deep.json"),
                "--steps",
                "60",
                "--seed",
                "4",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["undetermined_values"] == 0

    def test_surface_deep_on_a_genus8_file(self, tmp_path):
        code, out = run_cli(genus_deep_argv(tmp_path, 8))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_error_exit_code(self):
        code, _ = run_cli(["polygon", "from-edges", "--edges", "1,1,1,1"])
        assert code == 1  # all-ones square violates the product condition

    def test_edges_starting_with_a_minus_sign_take_the_equals_form(self, capsys):
        # argparse reads a separate value that starts with "-" as a flag
        code, out = run_cli(["polygon", "from-edges", "--edges=-1,1,1,1", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["certified_deep"] is True
        values = {(v["i"], v["j"]): v["value"] for v in doc["deep_point"]["values"]}
        assert values == {(1, 2): "-1", (1, 3): "0", (1, 4): "1", (2, 3): "1", (2, 4): "0", (3, 4): "1"}
        capsys.readouterr()
        code, out = run_cli(["polygon", "from-edges", "--edges", "-1,1,1,1", "--json"])
        assert (code, out) == (2, "")
        assert "argument --edges: expected one argument" in capsys.readouterr().err

    def test_bad_search_cap_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("DEEPLOCUS_MAX_SEARCH", "abc")
        code, out = run_cli(["polygon", "scan", "--n", "4", "--field", "fp:2"])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'abc'" in err


    def test_a_search_cap_too_long_exits_2_with_its_length(self, monkeypatch, capsys):
        monkeypatch.setenv("DEEPLOCUS_MAX_SEARCH", "9" * 5000)
        code, out = run_cli(["polygon", "scan", "--n", "4", "--field", "fp:2"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: DEEPLOCUS_MAX_SEARCH holds 5000 characters;"
            " it exceeds the cap MAX_SEARCH_CAP_CHARS = 100\n"
        )

    def test_edges_with_a_product_too_long_for_str_exit_1_with_it_in_full(self, capsys):
        # 200 random 60-digit rational edges: the alternating product has
        # about 24,000 digits, past the 4,300 that str() of an int allows
        # from Python 3.11, and is printed in full
        code, out = run_cli(["polygon", "from-edges", f"--edges={LONG_EDGES}", "--json"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        head = "error: ConditionViolated: alternating edge product is "
        assert err.startswith(head)
        value, needed = err[len(head) : -1].split(", needed ")
        assert needed in ("1", "-1")
        assert value.lstrip("-").replace("/", "", 1).isdigit() and len(value) > 20000


def long_edges(count: int, digits: int, seed: int) -> str:
    """count random positive rationals, numerator and denominator of the
    given number of digits, as one --edges value."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10**digits
    return ",".join(f"{rng.randrange(low, high)}/{rng.randrange(low, high)}" for _ in range(count))


LONG_EDGES = long_edges(200, 60, 32)


DEEP_FIXTURE = {
    "field": "q",
    "dissection": [0],
    "values": {"0": "5", "1": "1", "2": "1", "3": "1", "4": "1"},
}
DEEP_ON_ANNULUS22 = ["surface", "deep", "--surface", os.path.join(DATA, "annulus22.json")]

# (argv, JSON written to {file} first or None) by case, from
# tests/data/bad_inputs.json, whose argv write this directory as {data};
# tools/sweep.py reads the same file
with open(os.path.join(DATA, "bad_inputs.json")) as fh:
    BAD_INPUTS = {
        case: ([a.replace("{data}", DATA) for a in entry["argv"]], entry["input"])
        for case, entry in json.load(fh).items()
    }


@pytest.mark.parametrize(
    "argv, count",
    [
        (["--n", "140", "--field", "fp:3"], "3^9590"),
        (["--n", "140", "--field", "fp:3", "--mode", "boundary-coefficients"], "3^9590 * 2^140"),
        (["--n", "200", "--field", "fp:2", "--mode", "boundary-coefficients"], "2^19700"),
        (["--n", "10", "--field", "fp:3"], str(3**35)),
    ],
)
def test_a_scan_over_the_search_cap_exits_1_with_its_count(monkeypatch, capsys, argv, count):
    # a count too long to print in full is given as powers, not a traceback
    monkeypatch.delenv("DEEPLOCUS_MAX_SEARCH", raising=False)
    code, out = run_cli(["polygon", "scan", *argv, "--json"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: SearchTooLarge: {count} assignments exceed the cap 10000000\n"


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    argv, doc = BAD_INPUTS[case]
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, out = run_cli([a.replace("{file}", str(path)) for a in argv])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, doc, error",
    [
        (["surface", "invariants", "--surface", "{file}"],
         {"polygon_sides": 2, "gluings": []},
         "SurfaceError: polygon needs at least 3 sides"),
        (["surface", "invariants", "--surface", "{file}"],
         {"polygon_sides": 6, "gluings": [[0, 2, 4]]},
         "InvalidPairing: gluing (0, 2, 4) is not a pair"),
        (["surface", "invariants", "--surface", "{file}"],
         {"polygon_sides": 6, "gluings": [[0, 6]]},
         "InvalidPairing: gluing (0, 6) outside polygon sides 0..5"),
        (["surface", "invariants", "--name", "genus9"], None,
         "SurfaceError: unknown surface 'genus9'; try "
         "['annulus11', 'annulus21', 'annulus22', 'disk4', 'disk6', 'genus1', 'genus2', 'pants']"),
        (["surface", "components", "--surface", "{file}", "--json"],
         {"polygon_sides": 4003, "gluings": []},
         "SurfaceTooLarge: a 4003-gon has 4001 triangles;"
         " it exceeds the cap MAX_SURFACE_TRIANGLES = 4000"),
    ],
    ids=["two-sides", "gluing-triple", "gluing-outside", "unknown-name", "over-the-triangle-cap"],
)
def test_surface_refusal_exits_1_naming_it(argv, doc, error, tmp_path, capsys):
    path = tmp_path / "surface.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, out = run_cli([a.replace("{file}", str(path)) for a in argv])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["polygon", "scan", "--n", "x"], "deeplocus polygon scan: error: argument --n: invalid int value: 'x'"),
        ([], "deeplocus: error: the following arguments are required: command"),
        (["markov"], "deeplocus markov: error: the following arguments are required: markov_cmd"),
        (["rank2", "--b", "2"], "deeplocus rank2: error: the following arguments are required: --c"),
        (["scenario", "list", "--bogus"], "deeplocus: error: unrecognized arguments: --bogus"),
        (["polygon", "scan", "--n", "4", "--mode", "x"],
         "deeplocus polygon scan: error: argument --mode: invalid choice: 'x'"
         " (choose from 'type-A', 'boundary-coefficients')"),
    ],
    ids=["not-an-int", "no-command", "no-subcommand", "missing-flag", "unknown-flag", "bad-choice"],
)
def test_argparse_refusals_exit_2_with_one_line(argv, err, capsys):
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == err + "\n"


def test_help_still_prints_its_usage_and_exits_0(capsys):
    code, out = run_cli(["polygon", "scan", "--help"])
    assert code == 0 and out.startswith("usage: deeplocus polygon scan")
    assert capsys.readouterr().err == ""


def test_main_builds_its_parser_once(monkeypatch):
    import argparse

    assert run_cli(["scenario", "list"])[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["scenario", "list"], ["markov", "classify", "--point", "1,1,1,3"]):
        assert run_cli(argv)[0] == 0
    assert built == []


@pytest.mark.parametrize("aid", [999, 8, -1])
def test_fixture_with_an_unknown_arc_exits_1_naming_it(aid, tmp_path, capsys):
    # annulus22 has arcs 0..7; -1 is not read as the last one
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({**DEEP_FIXTURE, "dissection": [aid]}))
    code, out = run_cli(DEEP_ON_ANNULUS22 + ["--fixture", str(path), "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == f"error: NotADissection: no arc {aid}: arc ids run 0..7\n"


@pytest.mark.parametrize("extra, named", [({"99": "7"}, 99), ({"7": "2", "5": "123"}, 5)])
def test_fixture_value_off_the_boundary_and_dissection_exits_2_naming_it(extra, named, tmp_path, capsys):
    # annulus22's arc 5 is interior and not in the dissection, and it has
    # no arc 99; the lowest such arc is named
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({**DEEP_FIXTURE, "values": {**DEEP_FIXTURE["values"], **extra}}))
    code, out = run_cli(DEEP_ON_ANNULUS22 + ["--fixture", str(path), "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == f"error: {path}: arc {named} has a value but is not a boundary or dissection arc\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"feild": "fp:5", "dissection": [0], "values": DEEP_FIXTURE["values"]},
         "unknown key 'feild'; expected field, dissection, values"),
        ({**DEEP_FIXTURE, "Values": {}}, "unknown key 'Values'; expected field, dissection, values"),
        ({**DEEP_FIXTURE, "dissection": [0, 0]}, "dissection arc 0 is listed twice"),
        ({**DEEP_FIXTURE, "dissection": [3, 0, 3]}, "dissection arc 3 is listed twice"),
    ],
    ids=["misspelt-field", "capital-values", "repeated-arc", "repeated-later-arc"],
)
def test_fixture_key_or_repeated_arc_exits_2_naming_it(doc, message, tmp_path, capsys):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(DEEP_ON_ANNULUS22 + ["--fixture", str(path), "--json"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_walk_longer_than_the_cap_exits_1(tmp_path, capsys):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(DEEP_FIXTURE))
    code, out = run_cli(DEEP_ON_ANNULUS22 + ["--fixture", str(path), "--steps", "2000000"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == "error: SurfaceError: a walk takes at most 1000000 steps, got 2000000\n"


# each subcommand's argv, and the flags it does not read
UNREAD_FLAGS = [
    (["polygon", "deep-typea", "--rank", "3"], ["--seed", "--depth"]),
    (["polygon", "from-edges", "--edges", "1,1,1,1"], ["--seed", "--depth"]),
    (["polygon", "scan", "--n", "4", "--field", "fp:2"], ["--seed", "--depth"]),
    (["rank2", "--b", "2", "--c", "2"], ["--seed"]),
    (["markov", "classify", "--point", "0,1,2,0"], ["--seed", "--depth"]),
    (["markov", "enumerate", "--field", "fp:2"], ["--seed", "--depth"]),
    (["markov", "verify", "--point", "1,1,1,3"], ["--seed"]),
    (["surface", "invariants", "--name", "disk4"], ["--field", "--seed", "--depth"]),
    (["surface", "components", "--name", "disk4"], ["--field", "--seed", "--depth"]),
    (DEEP_ON_ANNULUS22 + ["--fixture", "x.json"], ["--field", "--depth"]),
    (["scenario", "list"], ["--field", "--depth"]),
]
FLAG_VALUES = {"--field": "q", "--seed": "1", "--depth": "6"}


@pytest.mark.parametrize(
    "argv, flag",
    [(argv, flag) for argv, flags in UNREAD_FLAGS for flag in flags],
    ids=lambda v: " ".join(a for a in v[:2] if a[0] != "-") if isinstance(v, list) else v,
)
def test_unread_flag_exits_2_naming_it(argv, flag, capsys):
    code, out = run_cli(argv + [flag, FLAG_VALUES[flag]])
    assert (code, out) == (2, "")
    assert flag in capsys.readouterr().err


def test_rank2_over_a_huge_prime_exits_1_without_scanning(monkeypatch, capsys):
    from deeplocus.field import FieldContext

    def no_scan(self):
        raise AssertionError("root scan started")

    monkeypatch.setattr(FieldContext, "elements", no_scan)
    code, out = run_cli(["rank2", "--b", "2", "--c", "2", "--field", "fp:2147483647"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: RootScanTooLarge") and err.count("\n") == 1
    assert "2147483647" in err and "65536" in err


@pytest.mark.parametrize("e1, e2", [("1", "0"), ("1,1", "0,0")])
def test_rank2_beta_search_over_a_large_prime_exits_1_without_scanning(
    e1, e2, monkeypatch, capsys
):
    from deeplocus.field import FieldContext

    def no_scan(self):
        raise AssertionError("beta search started")

    monkeypatch.setattr(FieldContext, "elements", no_scan)
    code, out = run_cli(
        ["rank2", "--b", "2", "--c", "2", "--e1", e1, "--e2", e2, "--field", "fp:65521"]
    )
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: BetaSearchTooLarge") and err.count("\n") == 1
    assert "65521" in err and str(10**7) in err


def test_markov_verify_too_deep_exits_1_without_exploring(monkeypatch, capsys):
    from deeplocus import markov

    def no_mutation(*args):
        raise AssertionError("exploration started")

    monkeypatch.setattr(FieldContext, "exchange_root", no_mutation)
    monkeypatch.setattr(FieldContext, "exchange_level", no_mutation)
    depth = markov.MAX_EXPLORE_DEPTH + 1
    code, out = run_cli(["markov", "verify", "--point", "1,1,1,3", "--depth", str(depth)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: ExploreTooDeep") and err.count("\n") == 1
    assert f"depth {depth}" in err


def test_rank2_deeper_than_the_window_cap_exits_1_without_a_window(monkeypatch, capsys):
    from deeplocus import rank2

    def no_window(spec, lo, hi):
        raise AssertionError("window built")

    monkeypatch.setattr(rank2, "e_vectors", no_window)
    depth = rank2.MAX_WINDOW_DEPTH + 1
    code, out = run_cli(["rank2", "--b", "2", "--c", "2", "--field", "fp:5", "--depth", str(depth)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == f"error: Rank2Error: window depth N must be at most 100000, got {depth}\n"


@pytest.mark.parametrize(
    "spec", [["--b", str(10**20), "--c", "2", "--field", "fp:5"], ["--b", "2", "--c", str(10**20), "--field", "q"]]
)
def test_rank2_exponent_over_the_cap_exits_1_with_one_line(monkeypatch, capsys, spec):
    from deeplocus import rank2

    def no_points(*args):
        raise AssertionError("deep points searched")

    monkeypatch.setattr(rank2, "deep_points", no_points)
    code, out = run_cli(["rank2", *spec, "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: Rank2Error: ") and err.count("\n") == 1
    assert f"MAX_RANK2_EXPONENT = {rank2.MAX_RANK2_EXPONENT}" in err and str(10**20) in err


@pytest.mark.parametrize(
    "spec", [["--b", "1", "--c", "1", "--field", "q"], ["--b", "2", "--c", "2", "--field", "fp:5"]]
)
def test_rank2_depth_cap_does_not_depend_on_the_spec(monkeypatch, capsys, spec):
    # (1, 1) over Q has no deep points, so no window would check the depth
    from deeplocus import rank2

    def no_points(*args):
        raise AssertionError("deep points searched")

    monkeypatch.setattr(rank2, "deep_points", no_points)
    code, out = run_cli(["rank2", *spec, "--depth", "1000000000", "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == "error: Rank2Error: window depth N must be at most 100000, got 1000000000\n"


def test_rank2_builds_one_window_per_point(monkeypatch):
    # the verified flag is read off the window the output prints
    from deeplocus import rank2

    calls = []
    real = rank2.e_vectors

    def counted(spec, lo, hi):
        calls.append((lo, hi))
        return real(spec, lo, hi)

    monkeypatch.setattr(rank2, "e_vectors", counted)
    argv = ["rank2", "--b", "2", "--c", "2", "--field", "fp:5", "--depth", "3", "--json"]
    code, out = run_cli(argv)
    entries = json.loads(out)["deep_points"]
    assert code == 0 and len(entries) == 4 and all(e["verified"] for e in entries)
    assert calls == [(-4, 7)] * 4


def no_full_table(n):
    raise AssertionError(f"the full Ptolemy table of the {n}-gon was built")


def test_deep_typea_at_rank_55_builds_no_full_ptolemy_table(monkeypatch):
    # certificates test the chart through one nonzero segment: C(56, 2)
    # relations of the 58-gon, not C(58, 4); the digest is the output of
    # the full-table certificate, which left the 58-gon's deepness null
    from deeplocus import polygon

    monkeypatch.setattr(polygon, "_ptolemy_table", no_full_table)
    code, out = run_cli(["polygon", "deep-typea", "--rank", "55", "--field", "q", "--json"])
    assert code == 0 and json.loads(out)["certified_deep"] is True
    before = out.replace('"certified_deep": true', '"certified_deep": null')
    digest = hashlib.sha256(before.encode()).hexdigest()
    assert digest == "b6bab0a483d8864c6141dce9b496b8fae475830328c78e6a1b456ae50a9d4e58"


def test_genus16_surface_deep_builds_no_full_ptolemy_table(monkeypatch, tmp_path):
    # the deep point is certified through its 66-gon cut polygon
    from deeplocus import polygon

    argv = genus_deep_argv(tmp_path, 16)
    monkeypatch.setattr(polygon, "_ptolemy_table", no_full_table)
    code, out = run_cli(argv)
    assert code == 0 and json.loads(out)["passed"] is True
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "0c4d51f3a63d2b8c485005b2d75303b8ae7161c74532d99595aaf804c6a20035"


@pytest.mark.parametrize(
    "argv, unbuilt, n",
    [
        (["polygon", "from-edges", "--edges", ",".join(["1"] * 258)], "alternating_condition", 258),
        (["polygon", "deep-typea", "--rank", "255"], "polygon_edges", 258),
        (["polygon", "deep-typea", "--rank", str(10**9 + 1)], "polygon_edges", 10**9 + 4),
        (["polygon", "scan", "--n", "257", "--field", "fp:3"], "polygon_diagonals", 257),
    ],
)
def test_polygon_over_the_size_cap_exits_1_without_a_point(monkeypatch, capsys, argv, unbuilt, n):
    from deeplocus import polygon

    def unreached(*args):
        raise AssertionError(f"{unbuilt} reached")

    monkeypatch.setattr(polygon, unbuilt, unreached)
    code, out = run_cli([*argv, "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == f"error: SizeOutOfRange: the {n}-gon exceeds the cap MAX_POLYGON_N = 256\n"
