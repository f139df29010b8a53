"""Exact paths stay exact: no module of the package uses a float, and
only field.py looks inside a field value or builds one from a payload.
Checks stay checks: no module uses an assert statement, which python -O
strips."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "deeplocus").glob("*.py"))
INEXACT_MATH = {"sqrt", "pow", "log", "exp"}


def inexact_uses(tree: ast.AST):
    """(line, what) for each float literal, use of the name float, and
    inexact math function in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in INEXACT_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in INEXACT_MATH:
                    yield node.lineno, f"from math import {alias.name}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"field.py", "polygon.py", "rank2.py", "surface.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_on_exact_paths(path):
    found = list(inexact_uses(ast.parse(path.read_text(), filename=str(path))))
    assert not found, [f"{path.name}:{line}: {what}" for line, what in found]


@pytest.mark.parametrize(
    "snippet",
    ["x = 0.5", "y = float(x)", "y = math.sqrt(x)", "y = math.exp(x)", "from math import log"],
)
def test_guard_flags(snippet):
    assert list(inexact_uses(ast.parse(snippet)))


# a context's kind and its record of payload formulas, and a value's payload
FIELD_INTERNALS = {"kind", "arith", "_v"}


def field_internals(tree: ast.AST):
    """(line, what) for each read of a context's kind or record or a value's
    payload, and each FieldValue(...) construction, in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FIELD_INTERNALS:
            yield node.lineno, f"attribute .{node.attr}"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "FieldValue":
                yield node.lineno, "FieldValue(...) call"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "field.py"], ids=lambda p: p.name
)
def test_field_internals_stay_in_field(path):
    found = list(field_internals(ast.parse(path.read_text(), filename=str(path))))
    assert not found, [f"{path.name}:{line}: {what}" for line, what in found]


@pytest.mark.parametrize(
    "snippet",
    [
        "k = ctx.kind",
        "q = target._v",
        "v = FieldValue(ctx, 3)",
        "v = field.FieldValue(ctx, 3)",
        "if ctx.kind != 'prime-field': pass",
        "node = ctx.arith.node",
    ],
)
def test_field_guard_flags(snippet):
    assert list(field_internals(ast.parse(snippet)))


@pytest.mark.parametrize("snippet", ["x: FieldValue = ctx.one()", "p = ctx.p", "k = kind"])
def test_field_guard_passes(snippet):
    assert not list(field_internals(ast.parse(snippet)))


def assert_statements(tree: ast.AST):
    """(line, what) for each assert statement in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    found = list(assert_statements(ast.parse(path.read_text(), filename=str(path))))
    assert not found, [f"{path.name}:{line}: {what}" for line, what in found]


@pytest.mark.parametrize(
    "snippet",
    ["assert x", "assert x == 1, 'message'", "def f():\n    if x:\n        assert y"],
)
def test_assert_guard_flags(snippet):
    assert list(assert_statements(ast.parse(snippet)))


def test_assert_guard_passes():
    assert not list(assert_statements(ast.parse("if not x:\n    raise ValueError('x')")))
