"""The deeplocus benchmark: seeded certification workloads, end to end and
per layer.

    python3 bench/run.py --workload certify-fp --seed 1 --seconds 25 --trace 0

Run from the repository root.  One process, one thread, a closed loop
with one client: the next certification starts when the previous one
returns.  The run sets up (import, input generation from --seed, one
warm-up op per class) SETUP_REPS times and reports the median as
setup_s, then cycles through the generated rounds for --seconds.  Every
result is checked; the last line of stdout is one JSON object.  Times
are reported in reference units: each is scaled by the speed of a fixed
kernel timed alongside it (see reference.py).

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it times the field microkernel, times one round without
tracing, then repeats that round traced for --seconds and reports the
per-layer metrics.  Counts come from one traced round and repeat exactly
at a fixed seed; times are medians over the traced rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Tuple

import reference
import tracing
import workloads

SETUP_REPS = 5
UNTRACED_PASSES = 3
MIN_TRACED_PASSES = 2
# a reference burst once ops have run BURST_EVERY_NS since the last one
# and at the end of a round, and BURSTS_PER_SETUP after each set-up
BURST_EVERY_NS = 100_000_000
BURSTS_PER_SETUP = 4
# units whose values scale with the machine's speed
TIME_UNITS = {"s", "ms", "us", "ns"}
RATE_UNITS = {"ops/s"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs(trace: bool) -> List[dict]:
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


# ---------------------------------------------------------------------------
# running ops


class Tally:
    """Op outcomes of a run, and the reference bursts timed alongside."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference = reference.Reference()

    def run_unchecked(self, op: workloads.Op) -> Tuple[int, object]:
        """Run one op: (ns taken, result, or None if it raised)."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception:
            dt = time.perf_counter_ns() - t0
            self.failed += 1
            print(f"op {op.tag} raised:", file=sys.stderr)
            traceback.print_exc()
            return dt, None
        return time.perf_counter_ns() - t0, out

    def check(self, op: workloads.Op, out) -> None:
        if out is not None and not op.check(out):
            self.failed += 1
            print(f"op {op.tag} gave a wrong answer", file=sys.stderr)

    def run(self, op: workloads.Op) -> Tuple[int, object]:
        dt, out = self.run_unchecked(op)
        self.check(op, out)
        return dt, out


def fresh_import() -> None:
    """Import deeplocus from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "deeplocus" or n.startswith("deeplocus.")]:
        del sys.modules[name]
    import deeplocus  # noqa: F401
    from deeplocus import cli, field, markov, polygon, rank2, surface  # noqa: F401


def setup(workload: str, seed: int, tally: Tally):
    """Import, generate the rounds and warm up, SETUP_REPS times; returns the
    last rounds and the median set-up time, in reference seconds."""
    samples, bursts = [], []
    for _ in range(SETUP_REPS):
        rounds = None  # let the previous rep's inputs go before timing
        gc.collect()
        t0 = time.perf_counter()
        fresh_import()
        rounds = workloads.build(workload, seed)
        seen = set()
        for op in rounds[0]:
            if op.tag not in seen:
                seen.add(op.tag)
                tally.run(op)
        samples.append(time.perf_counter() - t0)
        bursts += [tally.reference.burst() for _ in range(BURSTS_PER_SETUP)]
    return rounds, statistics.median(samples) * reference.scale(bursts)


def run_round(ops, tally: Tally) -> Tuple[List[int], List[float]]:
    """(ns taken by each op, ms taken by each reference burst)."""
    times, bursts = [], []
    since = 0
    for i, op in enumerate(ops, start=1):
        times.append(tally.run(op)[0])
        since += times[-1]
        if since >= BURST_EVERY_NS or i == len(ops):
            bursts.append(tally.reference.burst())
            since = 0
    return times, bursts


# ---------------------------------------------------------------------------
# end to end


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def class_at(latencies: List[Tuple[float, str]], q: int) -> Tuple[str, float]:
    """The class of the op at the q-th percentile, and how far into that
    class's own latencies it sits (0 = its fastest op, 1 = its slowest)."""
    ranked = sorted(latencies)
    ms, tag = ranked[min(len(ranked) - 1, len(ranked) * q // 100)]
    own = [v for v, t in ranked if t == tag]
    return tag, own.index(ms) / max(1, len(own) - 1)


def end_to_end(args, rounds, setup_s: float, tally: Tally) -> Dict[str, float]:
    """Cycle through the rounds for args.seconds.  Each op's time is scaled
    to reference units by the reference bursts of its own round."""
    gc.collect()
    raw: List[float] = []
    latencies: List[Tuple[float, str]] = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        ops = rounds[k % len(rounds)]
        times, bursts = run_round(ops, tally)
        factor = reference.scale(bursts)
        for op, ns in zip(ops, times):
            raw.append(ns / 1e6)
            latencies.append((ns / 1e6 * factor, op.tag))
        k += 1
    wall = time.perf_counter() - start
    values = [ms for ms, _ in latencies]
    metrics = {
        "ops_per_s": len(values) / (sum(values) / 1e3),
        "op_ms_p50": percentile(values, 50),
        "op_ms_p95": percentile(values, 95),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }
    print(f"{args.workload} seed {args.seed}: {len(values)} timed ops in {k} rounds, "
          f"{wall:.1f} s; reference kernel median {statistics.median(tally.reference.samples):.4f} "
          f"ms over {len(tally.reference.samples)} bursts")
    print(f"  as measured, before scaling: p50 {percentile(raw, 50):.3f} ms, "
          f"p95 {percentile(raw, 95):.3f} ms, {len(raw) / (sum(raw) / 1e3):.1f} ops/s")
    by_class = defaultdict(list)
    for ms, tag in latencies:
        by_class[tag].append(ms)
    for tag in sorted(by_class, key=lambda t: statistics.median(by_class[t])):
        ms = by_class[tag]
        print(f"  class {tag:22s} n={len(ms):5d}  median {statistics.median(ms):9.3f} ms")
    for q in (50, 95):
        tag, depth = class_at(latencies, q)
        value = metrics[f"op_ms_p{q}"]
        above = sum(1 for v in values if v > value)
        print(f"  p{q} {value:.3f} ms falls in class {tag}, {depth:.2f} of the way "
              f"through it; {above} samples above")
    print(f"  fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted}")
    return metrics


# ---------------------------------------------------------------------------
# per layer


def _ms(snap: dict, name: str) -> float:
    return snap["self_ns"].get(name, 0) / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_times(snap: dict) -> Dict[str, float]:
    calls, total = snap["calls"], snap["total_ns"]
    return {
        "polygon.scan.self_ms": _ms(snap, "polygon.scan"),
        "polygon.residuals.self_ms": _ms(snap, "polygon.residuals"),
        "polygon.residuals.scan_share": _ratio(snap["residuals_in_scan_ns"],
                                               total.get("polygon.scan", 0)),
        "polygon.deep_bf.self_ms": _ms(snap, "polygon.deep_bf"),
        "polygon.extend.self_ms": _ms(snap, "polygon.extend"),
        "polygon.cut.self_ms": _ms(snap, "polygon.cut"),
        "polygon.glue.self_ms": _ms(snap, "polygon.glue"),
        "rank2.extend.self_ms": _ms(snap, "rank2.extend"),
        "rank2.verify.self_ms": _ms(snap, "rank2.verify"),
        "rank2.deep_points.self_ms": _ms(snap, "rank2.deep_points"),
        "markov.explore.self_ms": _ms(snap, "markov.explore"),
        "markov.enumerate.self_ms": _ms(snap, "markov.enumerate"),
        "surface.flip_us": _ratio(total.get("surface.flip", 0) / 1e3,
                                  calls.get("surface.flip", 0)),
        "surface.walk.self_ms": _ms(snap, "surface.walk"),
        "surface.solve_classes.self_ms": _ms(snap, "surface.solve_classes"),
        "surface.avoid.self_ms": _ms(snap, "surface.avoid"),
        "cli.main.self_ms": _ms(snap, "cli.main"),
    }


def layer_counts(snap: dict) -> Dict[str, int]:
    calls, counts = snap["calls"], snap["counts"]
    return {
        "polygon.scan.assignments": counts.get("polygon.scan.assignments", 0),
        "polygon.scan.variety_points": counts.get("polygon.scan.variety_points", 0),
        "polygon.residuals.calls": calls.get("polygon.residuals", 0),
        "polygon.enumerate.calls": calls.get("polygon.enumerate", 0),
        "polygon.enumerate.triangulations": counts.get("polygon.enumerate.triangulations", 0),
        "rank2.window_steps": calls.get("rank2.division_step", 0)
        + calls.get("rank2.closed_form", 0),
        "rank2.closed_form.calls": calls.get("rank2.closed_form", 0),
        "markov.tree_nodes": counts.get("markov.tree_nodes", 0),
        "markov.mutations": calls.get("markov.mutate", 0),
        "markov.enumerate.deep_points": counts.get("markov.enumerate.deep_points", 0),
        "markov.enumerate.candidates": counts.get("markov.enumerate.candidates", 0),
        "surface.flips": calls.get("surface.flip", 0),
        "surface.flip_quad.calls": calls.get("surface.flip_quad", 0),
        "surface.undetermined": counts.get("surface.undetermined", 0),
        "cli.main.bytes_out": counts.get("cli.main.bytes_out", 0),
        "field.ops": sum(snap["field_ops"].values()),
    }


def traced_pass(ops, tally: Tally) -> Tuple[dict, int]:
    """One round under the tracer; checks run after the tracer is removed,
    so their own calls into deeplocus are not counted."""
    tracer = tracing.Tracer()
    results = []
    busy = 0
    tracer.install()
    try:
        for op in ops:
            dt, out = tally.run_unchecked(op)
            busy += dt
            results.append(out)
    finally:
        tracer.remove()
    for op, out in zip(ops, results):
        tally.check(op, out)
        if op.tag == "cli" and out is not None:
            tracer.counts["cli.main.bytes_out"] += len(out[1].encode())
    return tracer.snapshot(), busy


def per_layer(args, rounds, tally: Tally, specs: List[dict]) -> Dict[str, float]:
    metrics: Dict[str, float] = tracing.field_microkernel(args.seed)
    ops = rounds[0]
    untraced = []
    for _ in range(UNTRACED_PASSES):
        gc.collect()
        untraced.append(sum(run_round(ops, tally)[0]))
    untraced_ns = statistics.median(untraced)

    snaps, busy = [], []
    start = time.perf_counter()
    while len(snaps) < MIN_TRACED_PASSES or time.perf_counter() - start < args.seconds:
        gc.collect()
        snap, ns = traced_pass(ops, tally)
        snaps.append(snap)
        busy.append(ns)

    counts = [layer_counts(s) for s in snaps]
    if any(c != counts[0] for c in counts):
        print("warning: work counts differ between traced passes of one round",
              file=sys.stderr)
    metrics.update(counts[0])
    times = [layer_times(s) for s in snaps]
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    c = counts[0]
    metrics["polygon.scan.yield"] = _ratio(c["polygon.scan.variety_points"],
                                           c["polygon.scan.assignments"])
    metrics["markov.enumerate.yield"] = _ratio(c["markov.enumerate.deep_points"],
                                               c["markov.enumerate.candidates"])
    # computed, not measured: outermost field-op counts times microkernel ns/op
    field_ns = sum(v * metrics[f"field.{k}_ns"]
                   for k, v in snaps[0]["field_ops"].items())
    metrics["field.est_share"] = field_ns / untraced_ns
    traced_ns = statistics.median(busy)
    metrics["trace.ops_per_s"] = len(ops) / (traced_ns / 1e9)
    metrics["trace.untraced_ops_per_s"] = len(ops) / (untraced_ns / 1e9)
    metrics["trace.slowdown_x"] = traced_ns / untraced_ns
    print(f"{args.workload} seed {args.seed}: {len(snaps)} traced passes of "
          f"{len(ops)} ops; tracing slows a pass {metrics['trace.slowdown_x']:.2f}x")
    print(f"  field.est_share (computed) {metrics['field.est_share']:.3f}; "
          f"residuals share of scan time {metrics['polygon.residuals.scan_share']:.3f}")
    # one run-wide factor to reference units, for every time and rate
    factor = tally.reference.scale()
    for spec in specs:
        if spec["unit"] in TIME_UNITS:
            metrics[spec["name"]] *= factor
        elif spec["unit"] in RATE_UNITS:
            metrics[spec["name"]] /= factor
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.use_source_tree()
        specs = metric_specs(bool(args.trace))
    except (workloads.MissingSource, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    rounds, setup_s = setup(args.workload, args.seed, tally)
    if args.trace:
        values = per_layer(args, rounds, tally, specs)
    else:
        values = end_to_end(args, rounds, setup_s, tally)
    metrics = {}
    for spec in specs:
        value, unit = values[spec["name"]], spec["unit"]
        metrics[spec["name"]] = {"value": value, "unit": unit}
        print(f"  {spec['name']:34s} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
