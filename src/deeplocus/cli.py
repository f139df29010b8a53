"""Command-line interface: subcommands for each algebra family, and
`scenario`, which runs the runners of deeplocus.scenarios.

Field selectors: "q" (rationals), "qi" (Gaussian rationals), "fp:P"
(prime field).  All reports are deterministic given --seed.  Every
subcommand prints a stable, sorted JSON document with a schema marker,
except that `scenario` and `surface components` print PASS/FAIL lines
unless given --json.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, Tuple

from .errors import DeepLocusError
from .field import FieldContext, QI, QQ, UnparsableValue, prime_field
from . import markov, polygon, rank2, surface
from .scenarios import SCENARIOS, UnknownScenario, run_scenario


class CliError(DeepLocusError):
    pass


class ParseError(CliError):
    pass


def parse_field(selector: str) -> FieldContext:
    s = selector.strip().lower()
    if s == "q":
        return QQ
    if s == "qi":
        return QI
    if s.startswith("fp:"):
        try:
            return prime_field(int(s[3:]))
        except ValueError as exc:
            raise ParseError(f"bad prime field selector {selector!r}: {exc}")
    raise ParseError(f"unknown field selector {selector!r} (use q, qi, fp:<p>)")


def _integer(value, what: str) -> int:
    """A JSON integer read as an id or a count; a float, a bool (which
    Python counts as an int) or a string is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}")


def ingest_surface(path: str) -> surface.SurfaceTriangulation:
    """Read {"polygon_sides": n, "gluings": [[a, b], ...]} and build.  No
    other key is read, so a misspelt one is refused, not ignored."""
    data = _read_json(path, "surface file")
    if not isinstance(data, dict) or "polygon_sides" not in data:
        raise ParseError(f"{path}: expected keys polygon_sides, gluings")
    unknown = sorted(set(data) - {"polygon_sides", "gluings"})
    if unknown:
        raise ParseError(f"{path}: unknown key {unknown[0]!r}; expected polygon_sides, gluings")
    sides = _integer(data["polygon_sides"], f"{path}: polygon_sides")
    try:
        gluings = [
            tuple(_integer(v, f"{path}: a gluing side id") for v in pair)
            for pair in data.get("gluings", [])
        ]
    except TypeError as exc:
        raise ParseError(f"{path}: malformed gluings: {exc}") from None
    return surface.build_from_gluing(sides, gluings)


def ingest_deep_fixture(
    path: str, t: surface.SurfaceTriangulation
) -> surface.SurfaceDeepPoint:
    """Read {"dissection": [...], "values": {"arc": "str"}, "field": "..."}.
    No other key is read, so a misspelt one is refused, not ignored, and a
    dissection lists each arc once.  A key of values is an arc id in its
    canonical spelling: "03" or "0_4" is refused, not read as arc 3 or 4.
    Values are given on exactly the boundary and dissection arcs: a value
    on any other arc, or on no arc, is refused, not dropped."""
    data = _read_json(path, "fixture")
    if not (
        isinstance(data, dict)
        and isinstance(data.get("dissection"), list)
        and isinstance(data.get("values"), dict)
    ):
        raise ParseError(f"{path}: expected a list dissection and an object values")
    unknown = sorted(set(data) - {"field", "dissection", "values"})
    if unknown:
        raise ParseError(f"{path}: unknown key {unknown[0]!r}; expected field, dissection, values")
    ctx = parse_field(str(data.get("field", "q")))
    try:
        ids = [_integer(a, f"{path}: a dissection arc id") for a in data["dissection"]]
        values = {int(a): ctx.parse(str(s)) for a, s in data["values"].items()}
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    arcs = frozenset(ids)
    if len(arcs) != len(ids):
        repeated = next(a for a in ids if ids.count(a) > 1)
        raise ParseError(f"{path}: dissection arc {repeated} is listed twice")
    for a in data["values"]:
        if a != str(int(a)):
            raise ParseError(f"{path}: values key {a!r} is not a canonical arc id")
    d = surface.Dissection(t, arcs)
    valued = {*t.boundary_arcs(), *d.arcs}
    missing = sorted(valued - set(values))
    if missing:
        raise ParseError(f"{path}: no value for arcs {missing}")
    extra = sorted(set(values) - valued)
    if extra:
        raise ParseError(
            f"{path}: arc {extra[0]} has a value but is not a boundary or dissection arc"
        )
    bvals = {a: values[a] for a in t.boundary_arcs()}
    dvals = {a: values[a] for a in d.arcs}
    return surface.deep_point_from_dissection(d, bvals, dvals)


def _surface_file(args) -> Optional[Tuple[str, surface.SurfaceTriangulation]]:
    """The --surface file as run_scenario takes it: (path, triangulation)."""
    return (args.surface, ingest_surface(args.surface)) if args.surface else None


def _at_least(flag: str, value: Optional[int], least: int) -> None:
    if value is not None and value < least:
        raise ParseError(f"{flag} must be at least {least}, got {value}")


def _load_surface(args) -> surface.SurfaceTriangulation:
    if args.surface and args.name:
        raise ParseError("--surface and --name each name a surface; give one")
    if args.surface:
        return ingest_surface(args.surface)
    return surface.named_surface(args.name or "annulus22")


# ---------------------------------------------------------------------------
# subcommands: each returns its stdout text and exit code, which main prints


def _document(doc: dict, exit_code: int = 0) -> Tuple[str, int]:
    return json.dumps(doc, sort_keys=True), exit_code


def _certified_point(point: polygon.PolygonPoint) -> Tuple[str, int]:
    return _document(
        {
            "schema": 1,
            "deep_point": point.to_json(),
            "certified_deep": polygon.is_deep_bruteforce(point),
        }
    )


def cmd_polygon_deep_typea(args) -> Tuple[str, int]:
    try:
        point = polygon.unique_deep_point_typeA(args.rank, parse_field(args.field))
    except polygon.NoDeepPoint as exc:
        return _document({"schema": 1, "deep_point": None, "reason": str(exc)})
    return _certified_point(point)


def cmd_polygon_from_edges(args) -> Tuple[str, int]:
    ctx = parse_field(args.field)
    vals = [ctx.parse(v) for v in args.edges.split(",")]
    n = len(vals)
    point = polygon.deep_point_from_edges(n, dict(zip(polygon.polygon_edges(n), vals)))
    return _certified_point(point)


def cmd_polygon_scan(args) -> Tuple[str, int]:
    results = polygon.bruteforce_variety_scan(args.n, parse_field(args.field), args.mode)
    doc = {
        "schema": 1,
        "n": args.n,
        "mode": args.mode,
        "variety_points": len(results),
        "deep_points": [p.to_json() for p, is_deep in results if is_deep],
    }
    return _document(doc)


def _int_list(text: str, flag: str) -> Tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ParseError(f"{flag} needs a comma list of integers, got {text!r}") from None


def cmd_rank2(args) -> Tuple[str, int]:
    ctx = parse_field(args.field)
    e1 = _int_list(args.e1, "--e1")
    e2 = _int_list(args.e2, "--e2")
    _at_least("--depth", args.depth, 0)
    rank2.check_window_depth(args.depth)
    spec = rank2.Rank2Spec(args.b, args.c, len(e1), e1, e2)
    entries = []
    for point, parity in rank2.deep_points(spec, ctx):
        ev = rank2.extend_evaluation(point, args.depth)
        entries.append(
            {
                "x": [str(v) for v in point.xs],
                "y": [str(v) for v in point.ys],
                "kills": parity,
                "verified": ev.is_deep(),
                "window": {str(i): str(ev.values[i]) for i in range(-args.depth, args.depth + 4)},
            }
        )
    doc = {
        "schema": 1,
        "spec": {"b": spec.b, "c": spec.c, "f": spec.f, "e1": list(e1), "e2": list(e2)},
        "field": args.field,
        "deep_points": entries,
    }
    return _document(doc, 0 if all(e["verified"] for e in entries) else 1)


def _markov_point(text: str, ctx: FieldContext) -> markov.MarkovUpperPoint:
    values = [ctx.parse(v) for v in text.split(",")]
    if len(values) != 4:
        raise ParseError(f"--point needs the four values x,y,z,M, got {text!r}")
    return markov.MarkovUpperPoint(*values)


def _markov_values(p: markov.MarkovUpperPoint) -> List[str]:
    return [str(v) for v in (p.x, p.y, p.z, p.M)]


def cmd_markov_classify(args) -> Tuple[str, int]:
    p = _markov_point(args.point, parse_field(args.field))
    t = markov.classify_deep_upper(p)
    doc = {"schema": 1, "point": _markov_values(p), "deep": t is not None}
    if t is not None:
        doc["type"] = t.tag
        doc["parameters"] = {
            k: str(v)
            for k, v in (("alpha", t.alpha), ("beta", t.beta), ("gamma", t.gamma))
            if v is not None
        }
    return _document(doc)


def cmd_markov_enumerate(args) -> Tuple[str, int]:
    deep = markov.enumerate_deep_upper(parse_field(args.field))
    doc = {
        "schema": 1,
        "field": args.field,
        "count": len(deep),
        "deep_points": [
            {"point": _markov_values(p), "type": markov.classify_deep_upper(p).tag}
            for p in deep
        ],
    }
    return _document(doc)


def cmd_markov_verify(args) -> Tuple[str, int]:
    ctx = parse_field(args.field)
    _at_least("--depth", args.depth, 0)
    p = _markov_point(args.point, ctx)
    report = markov.explore_and_verify(p, depth=args.depth)
    doc = {
        "schema": 1,
        "point": _markov_values(p),
        "depth": args.depth,
        "nodes_visited": report.nodes_visited,
        "passed": report.passed,
        "failures": report.failures,
    }
    if args.trace:
        doc["markov_element"] = {
            "".join(path): str(v)
            for path, v in sorted(report.markov_element_values.items())
        }
    return _document(doc, 0 if report.passed else 1)


def cmd_surface_invariants(args) -> Tuple[str, int]:
    t = _load_surface(args)
    g, b, m, arcs = t.invariants()
    doc = {
        "schema": 1,
        "genus": g,
        "boundary_components": b,
        "marked_points": m,
        "arcs": arcs,
        "interior_arcs": t.interior_arcs(),
        "boundary_arcs": t.boundary_arcs(),
    }
    return _document(doc)


def cmd_surface_components(args) -> Tuple[str, int]:
    rep = run_scenario("surface-components", surface=_surface_file(args))
    return rep.render(args.json), rep.exit_code


def cmd_surface_deep(args) -> Tuple[str, int]:
    _at_least("--steps", args.steps, 1)
    point = ingest_deep_fixture(args.fixture, _load_surface(args))
    walk = surface.verify_deep_random_walk(point, args.steps, args.seed)
    doc = {
        "schema": 1,
        "steps": args.steps,
        "seed": args.seed,
        "passed": walk.passed,
        "failures": walk.failures,
        "undetermined_values": walk.undetermined_values,
        "values": {str(a): (str(v) if v is not None else None) for a, v in sorted(point.values.items())},
    }
    return _document(doc, 0 if walk.passed else 1)


def cmd_scenario(args) -> Tuple[str, int]:
    if args.name == "list":
        return "\n".join(sorted(SCENARIOS)), 0
    _at_least("--steps", args.steps, 1)
    rep = run_scenario(args.name, args.seed, args.steps, _surface_file(args))
    return rep.render(args.json), rep.exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="deeplocus",
        description="construct and certify deep points of cluster varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, field=False, seed=False, depth=False):
        """--json everywhere; --field, --seed and --depth where they are read."""
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if field:
            p.add_argument("--field", default="q", help="q | qi | fp:<p>")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        if depth:
            p.add_argument("--depth", type=int, default=6, help="tree/window depth")

    def leaf(subparsers, name, run, **kwargs):
        """The parser of a subcommand that `run` carries out."""
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        return p

    p_poly = sub.add_parser("polygon", help="type-A and boundary-coefficient polygons")
    poly_sub = p_poly.add_subparsers(dest="polygon_cmd", required=True)
    p = leaf(poly_sub, "deep-typea", cmd_polygon_deep_typea)
    p.add_argument("--rank", type=int, required=True)
    p = leaf(poly_sub, "from-edges", cmd_polygon_from_edges)
    p.add_argument("--edges", required=True,
                   help="comma list for (1,2),(2,3),...,(1,n); write a list that "
                        "starts with a minus sign as --edges=-1,1,1,1")
    p = leaf(poly_sub, "scan", cmd_polygon_scan)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default=polygon.MODE_TYPE_A,
                   choices=[polygon.MODE_TYPE_A, polygon.MODE_BOUNDARY])
    for sp in poly_sub.choices.values():
        flags(sp, field=True)

    p_rank2 = leaf(sub, "rank2", cmd_rank2, help="rank-2 deep points and windows")
    flags(p_rank2, field=True, depth=True)
    p_rank2.add_argument("--b", type=int, required=True)
    p_rank2.add_argument("--c", type=int, required=True)
    p_rank2.add_argument("--e1", default="", help="comma list of integers")
    p_rank2.add_argument("--e2", default="", help="comma list of integers")

    p_markov = sub.add_parser("markov", help="Markov upper cluster variety")
    markov_sub = p_markov.add_subparsers(dest="markov_cmd", required=True)
    p = leaf(markov_sub, "classify", cmd_markov_classify)
    p.add_argument("--point", required=True, help="x,y,z,M")
    leaf(markov_sub, "enumerate", cmd_markov_enumerate)
    p = leaf(markov_sub, "verify", cmd_markov_verify)
    p.add_argument("--point", required=True, help="x,y,z,M")
    p.add_argument("--trace", action="store_true")
    for name, sp in markov_sub.choices.items():
        flags(sp, field=True, depth=name == "verify")

    p_surface = sub.add_parser("surface", help="marked surface triangulations")
    surface_sub = p_surface.add_subparsers(dest="surface_cmd", required=True)
    for cmd, run in (("invariants", cmd_surface_invariants),
                     ("components", cmd_surface_components), ("deep", cmd_surface_deep)):
        p = leaf(surface_sub, cmd, run)
        p.add_argument("--surface", help="surface description JSON file")
        p.add_argument("--name", help="built-in surface name")
        if cmd == "deep":
            p.add_argument("--fixture", required=True, help="deep point fixture JSON")
            p.add_argument("--steps", type=int, default=200, help="flips, at least 1")
        flags(p, seed=cmd == "deep")

    p_scn = leaf(sub, "scenario", cmd_scenario, help="reproduce a classification end to end")
    flags(p_scn, seed=True)
    p_scn.add_argument("name", help="scenario name, or `list`")
    p_scn.add_argument("--steps", type=int, default=None, help="flips, at least 1")
    p_scn.add_argument("--surface", help="surface description JSON (surface scenarios)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text, exit_code = args.run(args)
    except (UnknownScenario, ParseError, UnparsableValue, polygon.InvalidSearchCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeepLocusError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
