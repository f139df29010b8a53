"""List the statements of src/deeplocus that no tier-1 test runs.

Run from the repository root:

    python tools/linetrace.py [pytest args...]

It runs tier-1 (``tests/`` by default) in this process under
``sys.settrace`` and prints each statement of the package that no test ran,
as ``path:line: text``. A statement whose first line is in ``ALLOWED`` may
stay unrun; each entry says why. The script exits 1 if tier-1 fails, if a
statement outside ``ALLOWED`` was not run, or if an ``ALLOWED`` entry names
no unrun statement (so the list cannot go stale). The trace slows tier-1
about six times, so it is not part of tier-1.

Only this process is traced: code that a test runs in a subprocess does not
count as run.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deeplocus"

# (module file name, first line of the statement, stripped) -> why it may stay unrun.
ALLOWED: dict[tuple[str, str], str] = {
    ("cli.py", "sys.exit(main())"):
        "the script entry point; tests call main() in-process",
    ("surface.py", 'raise AvoidanceFailed("exchange procedure failed to terminate")'):
        "the loop bound of dissection_avoiding: each round swaps one label-0 "
        "dissection arc for a label-1 arc, so the rounds never run out",
    ("surface.py", 'raise NonOrientableGluing("negative genus; gluing is not orientable")'):
        "an input check no input reaches: sides are glued in orientation-reversing "
        "pairs, so a connected gluing is an orientable surface, of genus >= 0",
    ("surface.py", 'raise SurfaceError("arc count identity failed; not a triangulation")'):
        "an input check no input reaches: with no interior vertex, 3F = 2E - V, "
        "and with V - E + F = 2 - 2g - b that gives E = 6g + 3b + 2V - 6",
}


def statements(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, first line's text) of each statement in path, docstrings excluded."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    return sorted((node.lineno, node.end_lineno, lines[node.lineno - 1].strip())
                  for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and id(node) not in docstrings)


def trace_tier1(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process and return its exit code and the lines run per package file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if "deeplocus" in sys.modules:
        raise SystemExit("deeplocus was imported before the trace started")
    code, ran = trace_tier1(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    unrun, allowed, total = [], set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines_run = ran.get(str(path), set())
        for first, last, text in statements(path):
            total += 1
            if lines_run.isdisjoint(range(first, last + 1)):
                if (path.name, text) in ALLOWED:
                    allowed.add((path.name, text))
                else:
                    unrun.append(f"{path.relative_to(ROOT)}:{first}: {text}")
    stale = sorted(set(ALLOWED) - allowed)
    print(f"\n{total} statements in {PACKAGE.relative_to(ROOT)}: "
          f"{len(unrun) + len(allowed)} unrun, {len(allowed)} of them allowed")
    for line in unrun:
        print(line)
    for name, text in stale:
        print(f"stale allowlist entry, no unrun statement matches: {name}: {text}")
    if code != 0:
        print(f"tier-1 failed (pytest exit code {code})")
    return 1 if code != 0 or unrun or stale else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
