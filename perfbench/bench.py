"""The timed loop: datasets, passes, correctness verdicts and metric values.

A run clusters ``w.datasets`` datasets derived from its seed.  Each
end-to-end value is the mean over datasets of the median over passes: the
mean damps the spread between instances more than a median of this few
does, and the median over passes drops a call that a busy machine slowed.  With tracing on, every
dataset is clustered traced, and the first one also untraced, which gives
the tracing overhead; per-layer values are means over the traced calls, so
self times add up.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from kzclust.metric import ClusterParams, Dataset
from workloads import (
    Workload,
    baseline_cost,
    check_report,
    child_seed,
    digest,
    make_inputs,
    run_call,
)


@dataclass
class Case:
    """One dataset of a run and what its calls measured."""

    index: int
    seed: int
    ds: Dataset
    params: ClusterParams
    baseline: float
    digest: str | None = None
    cost: float | None = None
    total_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    select_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _make_case(w: Workload, seed: int, i: int) -> Case:
    s = child_seed(seed, i)
    ds, params = make_inputs(w, s)
    return Case(i, s, ds, params, baseline_cost(w, ds, s))


def _call(w: Workload, case: Case, tracer: tracing.Tracer | None = None):
    """One checked pipeline call; returns (report, seconds) or None on failure."""
    case.attempted += 1
    try:
        if tracer is None:
            t0 = time.perf_counter()
            report = run_call(w, case.ds, case.params)
            elapsed = time.perf_counter() - t0
        else:
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                with tracer.pipeline_call():
                    report = run_call(w, case.ds, case.params)
                elapsed = time.perf_counter() - t0
    except Exception as exc:  # a failing call is counted and reported, not fatal
        case.failed += 1
        print(f"dataset {case.index}: call raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    problems = check_report(report, case.ds, w)
    ordering = digest(report)
    if case.digest is not None and ordering != case.digest:
        problems.append(f"ordering {ordering} differs from the earlier call's {case.digest}")
    if problems:
        case.failed += 1
        print(f"dataset {case.index}: incorrect report: {'; '.join(problems)}", file=sys.stderr)
        return None
    case.digest = ordering
    case.cost = report["result"]["prefix_costs"][str(w.ratio_k)]
    return report, elapsed


def _probe_default_target(w: Workload, case: Case) -> bool:
    """Cluster once with the default projection target; untimed."""
    try:
        report = run_call(w, case.ds, case.params, default_target=True)
    except Exception as exc:  # the known defect raises; any failure is reported
        print(f"default-target probe: FAILED ({type(exc).__name__}: {exc})")
        return False
    problems = check_report(report, case.ds, w)
    print(f"default-target probe: {'ok' if not problems else 'FAILED (' + '; '.join(problems) + ')'}")
    return not problems


def _record(case: Case, report: dict, elapsed: float) -> None:
    t = report["timings"]
    case.total_s.append(elapsed)
    case.setup_s.append(t["normalize_s"] + t["project_s"] + t["init_s"])
    case.select_s.append(t["greedy_s"])


def _mean_over_cases(cases: list[Case], attr: str) -> float:
    return statistics.fmean(statistics.median(getattr(c, attr)) for c in cases)


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    cases = [_make_case(w, seed, i) for i in range(w.datasets)]
    probe_ok = _probe_default_target(w, cases[0]) if w.probe_default_target else None
    tracer = tracing.Tracer() if trace else None
    layers: list[dict] = []
    traced_setup: list[float] = []
    traced_select: list[float] = []

    overheads: list[float] = []
    kinds: dict[str, list[str]] = {}
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        started = time.perf_counter()
        for case in cases:
            done = None
            if tracer is None or case.index == 0:
                done = _call(w, case)
                if done is not None:
                    _record(case, *done)
            if tracer is not None:
                traced = _call(w, case, tracer)
                if traced is not None:
                    report, elapsed = traced
                    kinds = kinds or tracer.index_kinds()
                    row = tracer.layer_metrics()
                    row["trace.total_s"] = elapsed
                    layers.append(row)
                    traced_setup.append(sum(report["timings"][k]
                                            for k in ("normalize_s", "project_s", "init_s")))
                    traced_select.append(report["timings"]["greedy_s"])
                    if done is not None:
                        overheads.append(elapsed - done[1])
        passes += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    attempted = sum(c.attempted for c in cases)
    failed = sum(c.failed for c in cases)
    print(f"workload {w.name} seed {seed}: {len(cases)} datasets of n={w.n} d={w.d}, "
          f"k={w.k}, {passes} pass(es), {attempted} calls, {failed} failed")
    for c in cases:
        ratio = f"{c.cost / c.baseline:.6f}" if c.cost is not None else "-"
        total = f" total {statistics.median(c.total_s):.3f}s" if c.total_s else ""
        print(f"  dataset {c.index} seed {c.seed}: ordering {c.digest or '-'}{total} "
              f"cost(k={w.ratio_k}) {c.cost!r} kmeans++ {c.baseline!r} ratio {ratio}")
    if not any(c.digest for c in cases):
        raise SystemExit("error: no pipeline call succeeded")

    paths = [sum(c.attempted - c.failed for c in cases) / attempted]
    if probe_ok is not None:
        paths.append(1.0 if probe_ok else 0.0)
    if trace:
        values = _layer_values(layers, traced_setup, traced_select)
        values["trace.overhead_s"] = statistics.fmean(overheads) if overheads else 0.0
        for family, names in kinds.items():
            print(f"  {family} index per level: {' '.join(names)}")
        tracer.write(out_dir / f"trace-{w.name}-seed{seed}.json")
    else:
        good = [c for c in cases if c.total_s]
        values = {
            "total_s": _mean_over_cases(good, "total_s"),
            "setup_s": _mean_over_cases(good, "setup_s"),
            "select_s": _mean_over_cases(good, "select_s"),
            "cost_ratio": statistics.fmean(c.cost / c.baseline for c in good),
            "ok_frac": statistics.fmean(paths),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "values": values}


def _layer_values(layers: list[dict], setup: list[float], select: list[float]) -> dict:
    """Means over traced calls, plus the shares that show the layer split."""
    if not layers:
        raise SystemExit("error: no traced call succeeded")
    values = {name: statistics.fmean(row[name] for row in layers) for name in layers[0]}
    returned = sum(row["lsh.ids_returned"] for row in layers)
    scanned = sum(row["lsh.ids_scanned"] for row in layers)
    values["lsh.scan_yield"] = returned / scanned if scanned else 0.0
    setup_s, select_s = statistics.fmean(setup), statistics.fmean(select)
    print(f"  traced setup_s {setup_s:.4f} s, select_s {select_s:.4f} s, "
          f"total_s {values['trace.total_s']:.4f} s")
    print(f"  lsh.query_s + greedy.remove_around_s = "
          f"{(values['lsh.query_s'] + values['greedy.remove_around_s']) / select_s:.1%} of select_s")
    print(f"  lsh.build_s + sketch.values_s = "
          f"{(values['lsh.build_s'] + values['sketch.values_s']) / setup_s:.1%} of setup_s")
    print(f"  metric.normalize_s = {values['metric.normalize_s'] / setup_s:.1%} of setup_s")
    print(f"  self times sum to {values['trace.self_sum_s'] / values['trace.total_s']:.2%} "
          f"of traced total_s")
    return values
