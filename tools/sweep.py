"""Check the CLI's output, call by call, against tests/data/sweep.json.

Run from the repository root, with ``deeplocus`` importable (``PYTHONPATH=src``
for this tree, or an installed package):

    python tools/sweep.py            # check every call
    python tools/sweep.py --record   # rewrite tests/data/sweep.json

Each call runs through ``deeplocus.cli.main`` in this process. The file
records, per call and in order, its argv, the JSON it reads as ``{file}``
(if any), the environment variables it sets (if any), its exit code and the
sha256 of its stdout and stderr. The
checkout's path is written as ``{root}`` and the input file's as
``{file}``, so no record depends on where the tree is. The list is built
from fixed seeds, so every run makes the same calls.

The calls cover every leaf command; the fields q, qi, fp:2, fp:3, fp:5,
fp:7 and fp:13; every scenario at seeds 0-3, with and without --json; seeded
walks on annulus22, and on genus1, genus2, pants and genus8 over Q, F_13 and
Q(i); rank2 at c = MAX_RANK2_EXPONENT; the README's examples; and the
refusals of tests/data/bad_inputs.json, which tests/test_cli.py checks too.
A change that means to alter an output re-records the file and names each
call whose record changed, and why.

The script exits 1 naming each call that differs from its record, or that
only one of the list and the file holds. tests/test_sweep.py checks every
FAST_STRIDE-th call in tier-1.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "data" / "sweep.json"
# the CLI refusals tests/test_cli.py checks, by case
BAD_INPUTS = ROOT / "tests" / "data" / "bad_inputs.json"
FAST_STRIDE = 7

FIELDS = ("q", "qi", "fp:2", "fp:3", "fp:5", "fp:7", "fp:13")
DATA = "{root}/tests/data"

# argv, with {root} and {file} written as such, the JSON written to {file}
# before the call, or None, and the environment variables set for the call,
# or None; a builder may leave the last one out
Call = Tuple[List[str], Optional[object], Optional[Dict[str, str]]]


def _polygon() -> List[Call]:
    from deeplocus.cli import parse_field
    from deeplocus.polygon import MODE_BOUNDARY, MODE_TYPE_A, alternating_condition

    calls: List[Call] = []
    for field in FIELDS:
        for rank in range(1, 41):
            calls.append((["polygon", "deep-typea", "--rank", str(rank), "--field", field, "--json"], None))
    for field in ("q", "qi", "fp:2"):
        for rank in (55, 79, 127, 251):
            calls.append((["polygon", "deep-typea", "--rank", str(rank), "--field", field, "--json"], None))
    # nonzero edges, with the closing edge solved from the alternating
    # condition (a deep point) or drawn at random (usually refused)
    rng = random.Random(2029)
    for field in FIELDS:
        ctx = parse_field(field)
        for n in range(3, 15):
            for solve in (True, False):
                edges = [_nonzero(ctx, rng) for _ in range(n)]
                if solve and n % 2 == 0:
                    alt, sign = alternating_condition(edges[:-1] + [ctx.one()])
                    edges[-1] = alt / sign
                text = ",".join(str(v).replace(" ", "") for v in edges)
                calls.append((["polygon", "from-edges", f"--edges={text}", "--field", field, "--json"], None))
    # a boundary-mode scan ranges the edges too, so it stops at smaller sizes
    scans = [(f, n, mode) for f in ("fp:2", "fp:3") for n in range(3, 7)
             for mode in (MODE_TYPE_A, MODE_BOUNDARY)]
    scans += [("fp:5", 4, MODE_BOUNDARY), ("fp:7", 4, MODE_BOUNDARY)]
    scans += [(f, n, MODE_TYPE_A) for f, n in (("fp:5", 4), ("fp:5", 5), ("fp:7", 4), ("fp:13", 4))]
    for field, n, mode in scans:
        calls.append((["polygon", "scan", "--n", str(n), "--field", field, "--mode", mode, "--json"], None))
    calls.append((["polygon", "scan", "--n", "4", "--field", "q", "--json"], None))
    calls.append((["polygon", "scan", "--n", "9", "--field", "fp:13", "--json"], None))
    # refused scans: a count printed in full, counts too long to print in
    # full, and a polygon over the size cap
    for n, field, mode in ((130, "fp:3", MODE_TYPE_A), (140, "fp:3", MODE_TYPE_A),
                           (140, "fp:3", MODE_BOUNDARY), (200, "fp:2", MODE_BOUNDARY),
                           (257, "fp:3", MODE_TYPE_A)):
        calls.append((["polygon", "scan", "--n", str(n), "--field", field, "--mode", mode, "--json"], None))
    # over-long values: 200 random 60-digit edges, whose alternating product
    # is printed in full, and a search cap refused by its length
    rng = random.Random(2032)
    edges = ",".join(f"{rng.randrange(10**59, 10**60)}/{rng.randrange(10**59, 10**60)}" for _ in range(200))
    calls.append((["polygon", "from-edges", f"--edges={edges}", "--json"], None))
    calls.append((["polygon", "scan", "--n", "4", "--field", "fp:2", "--json"], None,
                  {"DEEPLOCUS_MAX_SEARCH": "9" * 5000}))
    return calls


def _nonzero(ctx, rng: random.Random):
    while True:
        if ctx.p:
            v = ctx.from_int(rng.randrange(ctx.p))
        elif ctx.kind == "rationals":
            v = ctx.rational(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            v = ctx.gaussian(rng.randint(-3, 3), rng.randint(-3, 3))
        if not v.is_zero:
            return v


def _rank2() -> List[Call]:
    specs = [
        ("1", "1", "", ""), ("1", "2", "", ""), ("2", "1", "", ""), ("1", "3", "", ""),
        ("2", "2", "", ""), ("1", "4", "", ""), ("4", "1", "", ""), ("3", "3", "", ""),
        ("2", "2", "-1", "-1"), ("2", "2", "1", "0"), ("1", "1", "1", "1"),
        ("1", "2", "0", "1"), ("2", "2", "-1,-1", "-1,-1"), ("1", "1", "1,0", "0,1"),
    ]
    calls: List[Call] = []
    for b, c, e1, e2 in specs:
        for field in FIELDS:
            calls.append(([
                "rank2", "--b", b, "--c", c, f"--e1={e1}", f"--e2={e2}", "--field", field, "--json",
            ], None))
    for depth in ("0", "1", "10", "30"):
        calls.append((["rank2", "--b", "2", "--c", "2", "--field", "fp:5", "--depth", depth, "--json"], None))
    calls.append((["rank2", "--b", "2", "--c", "2", "--field", "fp:5", "--depth", "100001", "--json"], None))
    # a deep window with f > 0, whose y-monomial exponents grow with the
    # depth, and exponents over MAX_RANK2_EXPONENT
    calls.append((["rank2", "--b", "3", "--c", "3", "--e1=-1", "--e2=-1", "--field", "fp:7", "--depth", "250",
                   "--json"], None))
    calls.append((["rank2", "--b", str(10**20), "--c", "2", "--field", "fp:5", "--json"], None))
    calls.append((["rank2", "--b", "2", "--c", str(10**20), "--field", "q", "--json"], None))
    # c at MAX_RANK2_EXPONENT, with deep points whose closed-form steps meet
    # a zero x_mid
    calls.append((["rank2", "--b", "2", "--c", "1000", "--e1=-1,-1", "--e2=-1,-1", "--field", "fp:13",
                   "--json"], None))
    return calls


def _markov() -> List[Call]:
    calls: List[Call] = []
    rng = random.Random(1729)
    for field in FIELDS:
        calls.append((["markov", "enumerate", "--field", field, "--json"], None))
        p = 7 if field in ("q", "qi") else int(field[3:])
        for _ in range(8):
            point = ",".join(str(rng.randrange(p)) for _ in range(4))
            calls.append((["markov", "classify", "--point", point, "--field", field, "--json"], None))
            calls.append((["markov", "verify", "--point", point, "--field", field, "--depth", "4", "--json"], None))
    for point, field in (
        ("1,1,1,3", "q"), ("0,1,2,0", "fp:5"), ("5/4,2,7/5,3009/1400", "q"),
        ("1+i,2,1/3,55/12-19/12i", "qi"), ("1,1,1,3", "fp:7"), ("0,0,0,0", "fp:3"),
    ):
        for depth in ("0", "3", "6"):
            calls.append((["markov", "verify", "--point", point, "--field", field, "--depth", depth,
                           "--trace", "--json"], None))
        calls.append((["markov", "classify", "--point", point, "--field", field, "--json"], None))
    return calls


def _surface() -> List[Call]:
    names = ["annulus11", "annulus21", "annulus22", "disk4", "disk6", "genus1", "genus2", "pants",
             "genus9"]
    files = ["annulus21", "annulus22", "disk6", "genus1", "genus8", "bad_gluing"]
    calls: List[Call] = []
    for cmd in ("invariants", "components"):
        for name in names:
            calls.append((["surface", cmd, "--name", name, "--json"], None))
        for name in files:
            calls.append((["surface", cmd, "--surface", f"{DATA}/{name}.json", "--json"], None))
    calls.append((["surface", "components", "--surface", f"{DATA}/annulus22.json"], None))
    # disks over MAX_SURFACE_TRIANGLES, refused before any class is solved
    for sides in (4003, 10**30):
        calls.append((["surface", "components", "--surface", "{file}", "--json"],
                      {"polygon_sides": sides, "gluings": []}))
    fixture = ["--fixture", f"{DATA}/annulus22_deep.json"]
    for seed in range(20):
        for steps in ("1", "20", "200"):
            calls.append((["surface", "deep", "--surface", f"{DATA}/annulus22.json", *fixture,
                           "--steps", steps, "--seed", str(seed), "--json"], None))
    calls.append((["surface", "deep", "--name", "annulus22", *fixture, "--json"], None))
    # walks on other surfaces, each from a deep point written as the call's
    # {file}: random nonzero values on the boundary and the spanning-tree
    # dissection, with the first boundary arc's value closing the cut polygon
    from deeplocus.cli import ingest_surface
    from deeplocus.surface import named_surface

    walks = [(["--name", name], named_surface(name)) for name in ("genus1", "genus2", "pants")]
    genus8 = f"{DATA}/genus8.json"
    walks.append((["--surface", genus8], ingest_surface(genus8.replace("{root}", str(ROOT)))))
    rng = random.Random(2030)
    for where, t in walks:
        for field in ("q", "fp:13"):
            doc = _deep_fixture(t, field, rng)
            for seed in range(3):
                for steps in ("1", "20", "200"):
                    calls.append((["surface", "deep", *where, "--fixture", "{file}", "--steps", steps,
                                   "--seed", str(seed), "--json"], doc))
    # the same walks over Q(i), drawn from a stream of their own so the
    # fixtures above stay as they were
    rng = random.Random(2031)
    for where, t in walks:
        doc = _deep_fixture(t, "qi", rng)
        for seed in range(3):
            for steps in ("1", "20", "200"):
                calls.append((["surface", "deep", *where, "--fixture", "{file}", "--steps", steps,
                               "--seed", str(seed), "--json"], doc))
    return calls


def _deep_fixture(t, field: str, rng: random.Random) -> dict:
    from deeplocus.cli import parse_field
    from deeplocus.surface import dissection_spanning_tree, solve_closing_value

    ctx = parse_field(field)
    d = dissection_spanning_tree(t)
    values = {a: _nonzero(ctx, rng) for a in sorted({*t.boundary_arcs(), *d.arcs})}
    target = t.boundary_arcs()[0]
    values[target] = solve_closing_value(d, values, target)
    return {"field": field, "dissection": d.sorted_arcs(),
            "values": {str(a): str(v) for a, v in values.items()}}


def _scenario() -> List[Call]:
    from deeplocus.scenarios import SCENARIOS

    calls: List[Call] = [(["scenario", "list"], None)]
    for name in sorted(SCENARIOS):
        for seed in range(4):
            calls.append((["scenario", name, "--seed", str(seed), "--json"], None))
            calls.append((["scenario", name, "--seed", str(seed)], None))
    return calls


def _examples() -> List[Call]:
    # the README's examples, and calls that reach options the lists above do not
    argvs = [
        ["polygon", "from-edges", "--edges", "2,2,1,2,2,1", "--json"],
        ["polygon", "from-edges", "--edges", "2,3,1/2,5,-1,2/3,4,1,3,-2,1/5,7,2,3/4,1,-8/175", "--json"],
        ["polygon", "scan", "--n", "6", "--field", "fp:3", "--json"],
        ["rank2", "--b", "2", "--c", "2", "--e1", "1", "--e2", "0", "--field", "fp:5", "--json"],
        ["markov", "verify", "--point", "1,1,1,3", "--depth", "6", "--trace", "--json"],
        ["markov", "verify", "--point", "5/4,2,7/5,3009/1400", "--field", "q", "--depth", "8", "--trace",
         "--json"],
        ["markov", "verify", "--point", "0,1,2,0", "--field", "fp:5", "--depth", "6", "--json"],
        ["markov", "verify", "--point", "1+i,2,1/3,55/12-19/12i", "--field", "qi", "--depth", "6", "--json"],
        ["surface", "deep", "--surface", f"{DATA}/annulus22.json", "--fixture", f"{DATA}/annulus22_deep.json",
         "--steps", "500", "--seed", "1", "--json"],
        ["scenario", "list", "--json"],
        ["scenario", "surface-components", "--json"],
        ["scenario", "surface-components", "--surface", f"{DATA}/annulus22.json", "--json"],
        ["scenario", "surface-deep-walk", "--steps", "60", "--seed", "5", "--json"],
        ["scenario", "badcut"],
        # argparse's refusals, one stderr line each
        [],
        ["markov"],
        ["polygon", "scan", "--n", "x"],
        ["rank2", "--b", "2"],
        ["scenario", "list", "--bogus"],
    ]
    return [(argv, None) for argv in argvs]


def _bad_inputs() -> List[Call]:
    cases = json.loads(BAD_INPUTS.read_text())
    return [([a.replace("{data}", DATA) for a in cases[case]["argv"]], cases[case]["input"])
            for case in sorted(cases)]


def _key(argv: List[str], doc: Optional[object], env: Optional[Dict[str, str]] = None) -> str:
    return json.dumps([argv, doc] if env is None else [argv, doc, env])


def call_list() -> List[Call]:
    """The sweep's calls in order, each once."""
    found = {}
    for build in (_polygon, _rank2, _markov, _surface, _scenario, _examples, _bad_inputs):
        for call in build():
            argv, doc, env = (*call, None)[:3]
            found.setdefault(_key(argv, doc, env), (argv, doc, env))
    return list(found.values())


def run(call: Call, workdir: str) -> dict:
    """One call's record: its argv, its input, its environment, its exit
    code and the sha256 of its stdout and stderr."""
    from deeplocus.cli import main

    argv, doc, env = (*call, None)[:3]
    path = os.path.join(workdir, "input.json")
    if doc is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    root = str(ROOT)
    out, err = io.StringIO(), io.StringIO()
    saved = {name: os.environ.get(name) for name in env or {}}
    os.environ.update(env or {})
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.replace("{root}", root).replace("{file}", path) for a in argv])
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    output = [text.replace(path, "{file}").replace(root, "{root}") for text in (out.getvalue(), err.getvalue())]
    record = {"argv": argv, "exit_code": code, "sha256": hashlib.sha256(json.dumps(output).encode()).hexdigest()}
    if doc is not None:
        record["input"] = doc
    if env is not None:
        record["env"] = env
    return record


def sweep(fast: bool = False) -> List[dict]:
    """The records of every call, or of every FAST_STRIDE-th call."""
    chosen = call_list()[::FAST_STRIDE] if fast else call_list()
    with tempfile.TemporaryDirectory() as workdir:
        return [run(call, workdir) for call in chosen]


def differences(recorded: List[dict], found: List[dict], complete: bool = True) -> List[str]:
    """One line per found call that differs from its record or has none, and,
    if the found calls are the complete list, per record no call matches."""
    by_key = {_key(r["argv"], r.get("input"), r.get("env")): r for r in recorded}
    lines = []
    for record in found:
        key = _key(record["argv"], record.get("input"), record.get("env"))
        want = by_key.pop(key, None)
        if want is None:
            lines.append(f"not recorded: {key}")
        elif want != record:
            lines.append(f"differs: {key} exits {record['exit_code']} with sha256 {record['sha256']}, "
                         f"recorded {want['exit_code']} with {want['sha256']}")
    if complete:
        lines += [f"recorded, not called: {key}" for key in by_key]
    return lines


def main(argv: List[str]) -> int:
    if argv not in ([], ["--record"]):
        print("usage: python tools/sweep.py [--record]", file=sys.stderr)
        return 2
    found = sweep()
    if argv:
        RECORD.write_text("[\n" + ",\n".join(json.dumps(r) for r in found) + "\n]\n")
        print(f"recorded {len(found)} calls in {RECORD.relative_to(ROOT)}")
        return 0
    lines = differences(json.loads(RECORD.read_text()), found)
    print("\n".join(lines + [f"{len(found)} calls; {len(lines)} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
