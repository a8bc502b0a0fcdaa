"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests

Shows that the tracing wrappers leave the pipeline's output unchanged,
that the correctness check catches corrupted reports, and that a run
emits exactly the metrics BENCHMARK.json declares.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from kzclust import cli  # noqa: E402
from workloads import WORKLOADS, Workload, check_report, digest, make_inputs, run_call  # noqa: E402

TINY = [
    Workload("tiny-k", n=160, d=2, k=6, eval_ks=(6,), ratio_k=6, datasets=2),
    Workload("tiny-full", n=96, d=2, k=96, eval_ks=(10, 50, 96), ratio_k=50, datasets=2),
    Workload("tiny-proj", n=160, d=30, k=6, eval_ks=(6,), ratio_k=6, datasets=2,
             project_dim=2, probe_default_target=True),
]


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_tracing_keeps_the_ordering(w):
    ds, params = make_inputs(w, 3)
    plain = run_call(w, ds, params)
    tracer = tracing.Tracer()
    original = cli.normalize
    with tracing.installed(tracer):
        with tracer.pipeline_call():
            traced = run_call(w, ds, params)
    assert cli.normalize is original
    assert digest(traced) == digest(plain)
    assert traced["result"] == plain["result"]
    assert check_report(traced, ds, w) == []

    assert len(tracer.index_kinds()["rem"]) == len(tracer.state.rem_indexes)
    layers = tracer.layer_metrics()
    root = next(s for s in tracer.spans if s[3] == tracing.PIPELINE)
    assert layers["trace.self_sum_s"] == pytest.approx(root[5] - root[4], rel=1e-9)
    assert layers["metric.normalize_calls"] == (2 if w.project_dim else 1)
    assert layers["lsh.query_calls"] > 0 and layers["lsh.ids_scanned"] >= layers["lsh.ids_returned"]
    assert layers["greedy.iterations"] - layers["greedy.duplicate_skips"] == len(plain["result"]["centers"])


def _corruptions(report):
    centers = report["result"]["centers"]
    outside = next(p for p in range(len(centers) + 1) if p not in centers)
    swapped = copy.deepcopy(report)
    swapped["result"]["centers"][0] = outside
    edited = copy.deepcopy(report)
    key = next(iter(edited["result"]["prefix_costs"]))
    edited["result"]["prefix_costs"][key] *= 1 + 1e-6
    repeated = copy.deepcopy(report)
    repeated["result"]["centers"][1] = repeated["result"]["centers"][0]
    short = copy.deepcopy(report)
    short["result"]["centers"].pop()
    short["result"]["achieved_k"] -= 1
    return {"swapped center": swapped, "edited cost": edited,
            "duplicate center": repeated, "short ordering": short}


@pytest.mark.parametrize("w", TINY[:2], ids=lambda w: w.name)
def test_check_catches_corrupted_reports(w):
    ds, params = make_inputs(w, 5)
    report = run_call(w, ds, params)
    assert check_report(report, ds, w) == []
    for name, bad in _corruptions(report).items():
        assert check_report(bad, ds, w), name


def test_declarations_agree():
    declared = run.declared_metrics()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    layer_map = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
    assert list(layer_map) == [m["name"] for m in declared["per_layer"]]
    e2e = {m["name"] for m in declared["end_to_end"]}
    assert all(set(v["moves"]) <= e2e and set(v["on"]) <= set(WORKLOADS)
               for v in layer_map.values())


def test_run_emits_the_declared_metrics(tmp_path):
    declared = run.declared_metrics()
    for trace, group, extra in ((False, "end_to_end", {"peak_rss_mb"}), (True, "per_layer", set())):
        result = bench.run(TINY[2], seed=1, seconds=0.01, trace=trace, out_dir=tmp_path)
        assert result["correct"] and result["failed"] == 0
        names = {m["name"] for m in declared[group]}
        assert set(result["values"]) | extra == names
    assert (tmp_path / "trace-tiny-proj-seed1.json").is_file()


def test_untraced_values(tmp_path):
    result = bench.run(TINY[2], seed=2, seconds=0.01, trace=False, out_dir=tmp_path)
    values = result["values"]
    # Mean of the explicit-target path (all correct) and the default-target
    # probe, which fails (0.5) while auto-projection cannot plan d=30 (> 24).
    assert values["ok_frac"] in (0.5, 1.0)
    assert values["setup_s"] < values["total_s"] and values["select_s"] < values["total_s"]
    assert values["cost_ratio"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "k10-d8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "error" in proc.stderr
