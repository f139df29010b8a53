"""Per-layer measurement: spans and counters around deeplocus entry points,
and a field-arithmetic microkernel.

The tracer replaces module attributes (in every deeplocus module that
binds the same function, so calls made inside the package are caught),
two ``SurfaceTriangulation`` methods, and four ``FieldValue`` operators.
``remove`` puts every original back.  Module functions get spans: calls,
inclusive time, and self time (inclusive minus the time of wrapped
callees).  Field operators only get counters, and only at the outermost
operator call, so ``a - b`` counts one sub and not the add inside it.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# (module, function, span name); the layer is the span name's prefix
SPANS = [
    ("polygon", "bruteforce_variety_scan", "polygon.scan"),
    ("polygon", "ptolemy_residuals", "polygon.residuals"),
    ("polygon", "enumerate_triangulations", "polygon.enumerate"),
    ("polygon", "is_deep_bruteforce", "polygon.deep_bf"),
    ("polygon", "extend_from_triangulation", "polygon.extend"),
    ("polygon", "cut_along_diagonal", "polygon.cut"),
    ("polygon", "glue_cut_halves", "polygon.glue"),
    ("polygon", "deep_point_from_edges", "polygon.from_edges"),
    ("rank2", "division_step", "rank2.division_step"),
    ("rank2", "closed_form_step", "rank2.closed_form"),
    ("rank2", "extend_evaluation", "rank2.extend"),
    ("rank2", "verify_deep", "rank2.verify"),
    ("rank2", "deep_points", "rank2.deep_points"),
    ("markov", "enumerate_deep_upper", "markov.enumerate"),
    ("markov", "explore_and_verify", "markov.explore"),
    ("markov", "mutate_upper", "markov.mutate"),
    ("surface", "verify_deep_random_walk", "surface.walk"),
    ("surface", "flip_evaluation", "surface.flip_evaluation"),
    ("surface", "solve_classes", "surface.solve_classes"),
    ("surface", "dissection_avoiding", "surface.avoid"),
    ("surface", "transport_to_reference", "surface.transport"),
    ("cli", "main", "cli.main"),
]
METHOD_SPANS = [
    ("SurfaceTriangulation", "flip", "surface.flip"),
    ("SurfaceTriangulation", "flip_quad", "surface.flip_quad"),
]
FIELD_OPS = {"__add__": "add", "__sub__": "sub", "__mul__": "mul", "__truediv__": "div"}
KINDS = {"prime-field": "fp", "rationals": "q", "gaussian-rationals": "qi"}


def _scan_assignments(n: int, ctx, mode: str = "type-A", max_search=None) -> int:
    """Assignments bruteforce_variety_scan visits: every diagonal value,
    times every nonzero edge value outside type-A mode."""
    p = ctx.p
    diagonals = n * (n - 3) // 2
    return p**diagonals * max(1, (p - 1) ** (0 if mode == "type-A" else n))


def _after_hooks() -> Dict[str, Callable]:
    """Counters read off a span's arguments and result."""

    def scan(counts, args, kwargs, result):
        counts["polygon.scan.assignments"] += _scan_assignments(*args, **kwargs)
        counts["polygon.scan.variety_points"] += len(result)

    def enumerate_(counts, args, kwargs, result):
        counts["polygon.enumerate.triangulations"] += len(result)

    def markov_enum(counts, args, kwargs, result):
        counts["markov.enumerate.deep_points"] += len(result)
        counts["markov.enumerate.candidates"] += args[0].p ** 4

    def explore(counts, args, kwargs, result):
        counts["markov.tree_nodes"] += result.nodes_visited

    def walk(counts, args, kwargs, result):
        counts["surface.undetermined"] += result.undetermined_values

    return {
        "polygon.scan": scan,
        "polygon.enumerate": enumerate_,
        "markov.enumerate": markov_enum,
        "markov.explore": explore,
        "surface.walk": walk,
    }


class Tracer:
    """Spans and counters for one traced pass; `install` then `remove`."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.field_ops: Counter = Counter()
        # time spent in polygon.residuals while a scan is open
        self.residuals_in_scan_ns = 0
        self._stack: List[int] = []
        self._in_scan = 0
        self._field_depth = 0
        self._patched: List[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn: Callable, name: str, after: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        is_scan = name == "polygon.scan"
        is_residuals = name == "polygon.residuals"

        def wrapper(*args, **kwargs):
            if is_scan:
                self._in_scan += 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.total_ns[name] += dt
                self.self_ns[name] += dt - child
                if is_scan:
                    self._in_scan -= 1
                elif is_residuals and self._in_scan:
                    self.residuals_in_scan_ns += dt
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _field_op(self, fn: Callable, op: str) -> Callable:
        ops = self.field_ops

        def wrapper(a, b):
            if self._field_depth:
                return fn(a, b)
            self._field_depth = 1
            try:
                return fn(a, b)
            finally:
                self._field_depth = 0
                ops[KINDS[a.ctx.kind], op] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from deeplocus import field, surface

        package = [m for n, m in sys.modules.items() if n.startswith("deeplocus.")]
        hooks = _after_hooks()
        for modname, fname, name in SPANS:
            original = getattr(sys.modules[f"deeplocus.{modname}"], fname)
            wrapper = self._span(original, name, hooks.get(name))
            for module in package:
                if getattr(module, fname, None) is original:
                    self._patch(module, fname, wrapper)
        for cls_name, meth, name in METHOD_SPANS:
            cls = getattr(surface, cls_name)
            self._patch(cls, meth, self._span(getattr(cls, meth), name, None))
        for dunder, op in FIELD_OPS.items():
            self._patch(field.FieldValue, dunder,
                        self._field_op(getattr(field.FieldValue, dunder), op))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Everything recorded, as plain numbers keyed by name."""
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "field_ops": {f"{k}.{op}": v for (k, op), v in self.field_ops.items()},
            "residuals_in_scan_ns": self.residuals_in_scan_ns,
        }


# ---------------------------------------------------------------------------
# field microkernel

MICRO_PRIME = 101
MICRO_PAIRS = 256
MICRO_REPS = 5
MICRO_LOOPS = 4


def _micro_pairs(ctx, rng):
    from fractions import Fraction

    def q():
        return Fraction(rng.randint(1, 99), rng.randint(1, 99))

    def draw():
        if ctx.kind == "prime-field":
            return ctx.from_int(rng.randrange(1, ctx.p))
        if ctx.kind == "rationals":
            return ctx.rational(rng.randint(1, 99), rng.randint(1, 99))
        return ctx.gaussian(q(), q())

    return [(draw(), draw()) for _ in range(MICRO_PAIRS)]


# one loop per operation, written out so that no call sits between the
# loop and the operator; the raw loop is timed the same way
def _mul(pairs):
    for a, b in pairs:
        a * b


def _add(pairs):
    for a, b in pairs:
        a + b


def _sub(pairs):
    for a, b in pairs:
        a - b


def _div(pairs):
    for a, b in pairs:
        a / b


def _raw_mul(pairs, p=MICRO_PRIME):
    for x, y in pairs:
        (x * y) % p


def _time_loop(pairs, loop) -> float:
    """ns per operation, the median of MICRO_REPS reps."""
    samples = []
    for _ in range(MICRO_REPS):
        t0 = time.perf_counter_ns()
        for _ in range(MICRO_LOOPS):
            loop(pairs)
        samples.append((time.perf_counter_ns() - t0) / (MICRO_LOOPS * len(pairs)))
    return statistics.median(samples)


def field_microkernel(seed: int) -> Dict[str, float]:
    """ns per public FieldValue operation for each kind, plus the raw
    integer multiply-and-reduce that an F_p multiply wraps."""
    import random

    from deeplocus.field import QI, QQ, prime_field

    rng = random.Random(f"field/{seed}")
    out: Dict[str, float] = {}
    loops = {"mul": _mul, "add": _add, "sub": _sub, "div": _div}
    for kind, ctx in (("fp", prime_field(MICRO_PRIME)), ("q", QQ), ("qi", QI)):
        pairs = _micro_pairs(ctx, rng)
        for op, loop in loops.items():
            out[f"field.{kind}.{op}_ns"] = _time_loop(pairs, loop)
    raw = [(rng.randrange(1, MICRO_PRIME), rng.randrange(1, MICRO_PRIME))
           for _ in range(MICRO_PAIRS)]
    out["field.fp.raw_mul_ns"] = _time_loop(raw, _raw_mul)
    out["field.fp.mul_wrapper_x"] = out["field.fp.mul_ns"] / out["field.fp.raw_mul_ns"]
    return out
