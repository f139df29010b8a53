"""Fuzz the CLI with seeded mutations of the output sweep's calls.

Run from the repository root, with ``deeplocus`` importable (``PYTHONPATH=src``
for this tree, or an installed package):

    python tools/fuzz.py --seed 0              # 3,000 calls

Each call is one of tools/sweep.py's calls with one to three mutations:
- of its argv tokens: a token replaced by another token of the sweep, by a
  malformed one or by a long digit string; a number inside a token replaced
  by a long digit string or by a size; a size flag's value (--depth, --n,
  --rank, --steps, --b, --c) swept over sizes around the caps; a token
  deleted, repeated or swapped with another;
- of the JSON it reads as ``{file}``, if any: a value replaced by another
  JSON value, a key dropped or added, or a list repeated.

Each call runs in this process through ``deeplocus.cli.main`` under a
wall-clock alarm of TIMEOUT_S seconds, and the script limits its own
address space to MEMORY_MB (RLIMIT_AS) before the first call.  It fails
on an exception that leaves ``main`` (a traceback), an exit code other
than 0, 1 or 2, a nonzero exit with more than one stderr line, or a call
over its time limit.  It prints one line per finding, then one JSON line
of counts, and exits 1 if it found anything.
"""
from __future__ import annotations

import argparse
import copy
import io
import json
import os
import random
import resource
import signal
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import sweep  # noqa: E402

CALLS = 3000
TIMEOUT_S = 5.0
MEMORY_MB = 2048
SIZE_FLAGS = ("--depth", "--n", "--rank", "--steps", "--b", "--c")
# sizes around the caps: MAX_EXPLORE_DEPTH, MAX_POLYGON_N, MAX_RANK2_EXPONENT,
# MAX_SURFACE_TRIANGLES, MAX_WINDOW_DEPTH and MAX_WALK_STEPS, and the
# depths at which a window's values grow long
SIZES = ("-1", "0", "1", "2", "3", "6", "10", "12", "13", "40", "100", "250", "257", "500",
         "1001", "2000", "4003", "100001", "1000001", "10" + "0" * 20)
LONG_DIGITS = tuple("9" * n for n in (20, 400, 5000))
MALFORMED = ("", "x", "-", "--", "1/0", "0/0", "1,", ",", "i", "1+", "fp:", "fp:4", "fp:x", "q:",
             "--json", "--field", "nan", "1e9", " ", "-0", "+1", "1.5", "é")
JSON_VALUES = (None, True, False, 0, -1, 2, 7, 4003, 10**30, 0.5, "", "x", "1/0", "9" * 5000,
               [], [[0, 1]], [0, 1, 2], {}, {"a": 1})


class CallTimeout(BaseException):
    """A call ran past its alarm; not an Exception, so no handler of the CLI
    catches it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def mutate_argv(argv: List[str], tokens: List[str], rng: random.Random) -> List[str]:
    argv = list(argv)
    op = rng.randrange(7)
    at = rng.randrange(len(argv)) if argv else 0
    if op == 0 and argv:
        argv[at] = rng.choice(tokens + list(MALFORMED) + list(LONG_DIGITS))
    elif op == 1 and argv:
        # a number inside a token: a long digit string or a size
        digits = [i for i, c in enumerate(argv[at]) if c.isdigit()]
        if digits:
            i = rng.choice(digits)
            j = i
            while j < len(argv[at]) and argv[at][j].isdigit():
                j += 1
            while i > 0 and argv[at][i - 1].isdigit():
                i -= 1
            new = rng.choice(LONG_DIGITS + SIZES).lstrip("-")
            argv[at] = argv[at][:i] + new + argv[at][j:]
    elif op == 2:
        # a size flag swept over the sizes: its value, or the flag added
        flags = [i for i, a in enumerate(argv[:-1]) if a in SIZE_FLAGS]
        if flags:
            argv[rng.choice(flags) + 1] = rng.choice(SIZES)
        else:
            argv += [rng.choice(SIZE_FLAGS), rng.choice(SIZES)]
    elif op == 3 and argv:
        del argv[at]
    elif op == 4 and argv:
        argv.insert(at, argv[at])
    elif op == 5 and len(argv) > 1:
        other = rng.randrange(len(argv))
        argv[at], argv[other] = argv[other], argv[at]
    else:
        argv.insert(at, rng.choice(tokens))
    return argv


def _paths(doc, prefix=()):
    """Every path to a value inside doc, doc itself included."""
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


def mutate_doc(doc, rng: random.Random):
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    if not path:
        return copy.deepcopy(rng.choice(JSON_VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.randrange(4)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(JSON_VALUES))
    elif op == 1:
        del parent[key]
    elif op == 2 and isinstance(parent, dict):
        parent[rng.choice(("extra", "field", "gluing", "values", "0", "-1"))] = rng.choice(JSON_VALUES)
    elif isinstance(parent[key], list):
        parent[key] = parent[key] * rng.choice((2, 10, 1000))
    else:
        parent[key] = [parent[key]] * rng.choice((2, 10))
    return doc


def mutated_calls(seed: int, count: int) -> List[Tuple[List[str], Optional[object]]]:
    base = sweep.call_list()
    tokens = sorted({a for argv, *_ in base for a in argv})
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        argv, doc = rng.choice(base)[:2]
        for _ in range(rng.randint(1, 3)):
            if doc is not None and rng.random() < 0.4:
                doc = mutate_doc(doc, rng)
            else:
                argv = mutate_argv(argv, tokens, rng)
        calls.append((argv, doc))
    return calls


def run(argv: List[str], doc, workdir: str) -> Tuple[Optional[str], float]:
    """(the finding, or None; seconds taken) of one call."""
    from deeplocus.cli import main

    path = os.path.join(workdir, "input.json")
    if doc is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    argv = [a.replace("{root}", str(ROOT)).replace("{file}", path) for a in argv]
    err = io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except CallTimeout:
        return f"over {TIMEOUT_S} s", TIMEOUT_S
    except Exception as exc:
        return f"traceback: {type(exc).__name__}: {str(exc)[:200]}", time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    taken = time.perf_counter() - start
    lines = err.getvalue().count("\n")
    if code not in (0, 1, 2):
        return f"exit code {code!r}", taken
    if code and lines > 1:
        return f"exit {code} with {lines} stderr lines: {err.getvalue()[:200]!r}", taken
    return None, taken


def main(args: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args(args)
    calls = mutated_calls(opts.seed, CALLS)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit if hard < 0 else min(limit, hard), hard))
    signal.signal(signal.SIGALRM, _on_alarm)
    findings, slowest, slowest_argv = 0, 0.0, None
    with tempfile.TemporaryDirectory() as workdir:
        for argv, doc in calls:
            finding, taken = run(argv, doc, workdir)
            if taken > slowest:
                slowest, slowest_argv = taken, argv
            if finding:
                findings += 1
                print(f"{finding}: {json.dumps([argv, doc])[:400]}")
    print(json.dumps({"seed": opts.seed, "calls": len(calls), "findings": findings,
                      "slowest_s": round(slowest, 3), "slowest_argv": slowest_argv}))
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
