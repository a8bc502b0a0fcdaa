"""Command-line surface: dataset generation/ingestion, clustering runs,
cost evaluation, and a scaling benchmark.

Subcommands:
    gen      write a seeded Gaussian-mixture dataset (csv or f32le)
    cluster  run the greedy algorithm (or the k-means++ baseline) and emit
             a machine-readable JSON report plus a human-readable summary
    eval     recompute prefix costs for a report against its dataset
    bench    run cluster over doubling sizes and fit the log-log slope

Exit codes: 0 success, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
import time
from pathlib import Path

import numpy as np

from . import greedy, oracles
from .metric import ClusterParams, DataRangeError, Dataset, cost, jl_project, normalize
from .seeding import derive_seed

PROJECTION_DIM_THRESHOLD = 24


class DataError(Exception):
    """Malformed or unreadable input data; exits with code 3."""


class UsageError(Exception):
    """Invalid flag combination or value; exits with code 2."""


# ---------------------------------------------------------------- ingestion

def _infer_format(path: str) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".f32", ".f32le", ".bin"):
        return "f32le"
    return "csv"


def _parse_csv(path: str) -> Dataset:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.replace(",", " ").split()
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataError(
                    f"{path}: line {lineno}: ragged row, expected {width} fields, got {len(fields)}"
                )
            try:
                row = [float(tok) for tok in fields]
            except ValueError:
                bad = next(tok for tok in fields if not _is_float(tok))
                raise DataError(f"{path}: line {lineno}: non-numeric field {bad!r}") from None
            if not all(math.isfinite(x) for x in row):
                bad = next(tok for tok, x in zip(fields, row) if not math.isfinite(x))
                raise DataError(f"{path}: line {lineno}: non-finite field {bad!r}")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    return Dataset(np.array(rows, dtype=np.float64))


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _parse_f32le(path: str) -> Dataset:
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise DataError(f"{path}: truncated header, need 8 bytes, got {len(blob)}")
    n, d = struct.unpack("<II", blob[:8])
    if n == 0:
        raise DataError(f"{path}: empty dataset")
    if d == 0:
        raise DataError(f"{path}: zero dimension")
    expected = 8 + 4 * n * d
    if len(blob) < expected:
        raise DataError(
            f"{path}: truncated binary payload, expected {expected} bytes, "
            f"got {len(blob)} (short at offset {len(blob)})"
        )
    points = np.frombuffer(blob[8:expected], dtype="<f4").astype(np.float64).reshape(n, d)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: point {bad[0]}: non-finite coordinate")
    return Dataset(points)


def ingest(path: str, fmt: str | None = None) -> Dataset:
    """Read a dataset file; format inferred from the suffix unless given."""
    fmt = fmt or _infer_format(path)
    if fmt == "csv":
        return _parse_csv(path)
    if fmt == "f32le":
        return _parse_f32le(path)
    raise UsageError(f"unknown format {fmt!r}")


def write_dataset(ds: Dataset, path: str, fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for row in ds.points:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    elif fmt == "f32le":
        with open(path, "wb") as fh:
            fh.write(struct.pack("<II", ds.n, ds.d))
            fh.write(ds.points.astype("<f4").tobytes())
    else:
        raise UsageError(f"unknown format {fmt!r}")


def generate_mixture(n: int, d: int, clusters: int, spread: float, seed: int) -> Dataset:
    """Seeded Gaussian mixture: uniform means in [0,1]^d, isotropic spread."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if d < 1:
        raise UsageError(f"d must be >= 1, got {d}")
    if clusters < 1:
        raise UsageError(f"clusters must be >= 1, got {clusters}")
    if spread < 0:
        raise UsageError(f"spread must be >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(clusters, d))
    assign = rng.integers(0, clusters, size=n)
    pts = means[assign] + spread * rng.standard_normal((n, d))
    return Dataset(pts)


# ----------------------------------------------------------------- pipeline

def _auto_projection_dim(n: int, d: int) -> int | None:
    if d <= PROJECTION_DIM_THRESHOLD:
        return None
    target = min(d, 8 * math.ceil(math.log2(max(n, 2))))
    return target if target < d else None


def run_pipeline(ds: Dataset, params: ClusterParams, mode: str, delta: float | None,
                 project_dim: int | None, no_project: bool,
                 eval_ks: list[int], algorithm: str = "greedy") -> dict:
    """normalize -> optional projection -> init -> run -> prefix costs.

    Prefix costs are evaluated on the input coordinates, so a report can be
    re-checked against the original file.  Returns the report dict.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    scaled, info = normalize(ds, params.c)
    timings["normalize_s"] = time.perf_counter() - t0

    target = None
    if not no_project:
        target = project_dim if project_dim is not None else _auto_projection_dim(ds.n, ds.d)
        if target is not None and target >= scaled.d:
            target = None
    t0 = time.perf_counter()
    if target is not None:
        projected = jl_project(scaled, target, derive_seed(params.seed, "project"))
        # Projection distorts distances, so the scale/radius schedule is
        # re-derived on the projected coordinates before indexing.
        scaled, info = normalize(projected, params.c)
    timings["project_s"] = time.perf_counter() - t0

    if algorithm == "kmeanspp":
        t0 = time.perf_counter()
        centers = oracles.kmeanspp(ds, params.k, params.z, params.seed)
        timings["init_s"] = 0.0
        timings["greedy_s"] = time.perf_counter() - t0
        solution = greedy.Solution(centers=centers, traces=[], early_terminated=False,
                                   achieved_k=len(centers))
    else:
        t0 = time.perf_counter()
        state = greedy.init(scaled, params, info, mode=mode, delta=delta)
        timings["init_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        solution = greedy.run(state, params.k)
        timings["greedy_s"] = time.perf_counter() - t0

    prefix_costs = {
        str(kk): cost(ds, solution.prefix(kk), params.z)
        for kk in eval_ks
        if 1 <= kk <= solution.achieved_k
    }
    timings["total_s"] = sum(timings.values())

    return {
        "params": {
            "k": params.k,
            "z": params.z,
            "c": params.c,
            "seed": params.seed,
            "mode": mode,
            "delta_failure": delta,
            "algorithm": algorithm,
        },
        "input": {"n": ds.n, "d": ds.d},
        "projection": {"applied": target is not None, "target_dim": target},
        "normalization": {
            "scale": info.scale,
            "delta": info.delta,
            "num_levels": info.num_levels,
        },
        "result": {
            "centers": [int(cid) for cid in solution.centers],
            "achieved_k": solution.achieved_k,
            "early_terminated": solution.early_terminated,
            "prefix_costs": prefix_costs,
        },
        "timings": timings,
    }


def fit_loglog_slope(sizes: list[int], times: list[float]) -> float | None:
    """Least-squares slope of log(time) against log(n); None below 2 points."""
    if len(sizes) < 2:
        return None
    xs = np.log(np.asarray(sizes, dtype=np.float64))
    ys = np.log(np.asarray(times, dtype=np.float64))
    xbar, ybar = xs.mean(), ys.mean()
    return float(np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2))


def run_bench(sizes: list[int], d: int, k: int, z: float, c: float, seed: int,
              clusters: int, spread: float, mode: str = "lsh",
              delta: float | None = None) -> dict:
    """Cluster each size with fixed params; report timings and fitted slope."""
    rows = []
    for n in sizes:
        ds = generate_mixture(n, d, clusters, spread, derive_seed(seed, "bench", n))
        params = ClusterParams(k=min(k, n), z=z, c=c, seed=seed)
        report = run_pipeline(ds, params, mode, delta, None, True, [min(k, n)])
        rows.append({"n": n, "timings": report["timings"]})
    slope = fit_loglog_slope(sizes, [r["timings"]["total_s"] for r in rows])
    return {
        "params": {"d": d, "k": k, "z": z, "c": c, "seed": seed, "mode": mode,
                   "clusters": clusters, "spread": spread},
        "rows": rows,
        "slope": slope,
    }


# ---------------------------------------------------------------- commands

def _print_cluster_summary(report: dict) -> None:
    p = report["params"]
    r = report["result"]
    print(f"n={report['input']['n']} d={report['input']['d']} "
          f"k={p['k']} z={p['z']} c={p['c']} mode={p['mode']} seed={p['seed']}")
    print(f"centers ({r['achieved_k']}{', early-terminated' if r['early_terminated'] else ''}): "
          + " ".join(str(cid) for cid in r["centers"][:20])
          + (" ..." if len(r["centers"]) > 20 else ""))
    for kk, val in r["prefix_costs"].items():
        print(f"cost(k={kk}) = {val:.9g}")
    t = report["timings"]
    print(f"timings: normalize {t['normalize_s']:.3f}s  project {t['project_s']:.3f}s  "
          f"init {t['init_s']:.3f}s  greedy {t['greedy_s']:.3f}s  total {t['total_s']:.3f}s")


def _cmd_gen(args) -> int:
    ds = generate_mixture(args.n, args.d, args.clusters, args.spread, args.seed)
    write_dataset(ds, args.out, args.format)
    print(f"wrote {ds.n} points of dimension {ds.d} to {args.out} ({args.format})")
    return 0


def _parse_eval_ks(spec: str | None, k: int) -> list[int]:
    if not spec:
        return [k]
    try:
        ks = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    except ValueError:
        raise UsageError(f"bad --eval-k list {spec!r}") from None
    if any(kk < 1 for kk in ks):
        raise UsageError("--eval-k entries must be >= 1")
    return ks


def _make_params(args, n: int) -> ClusterParams:
    if args.c < 5:
        raise UsageError(
            f"c={args.c} rejected: the algorithm's guarantees assume c >= 5"
        )
    if args.c == 5:
        print("note: c=5 is the smallest supported trade-off value", file=sys.stderr)
    if args.k < 1:
        raise UsageError(f"k must be >= 1, got {args.k}")
    if args.k > n:
        raise UsageError(f"k={args.k} exceeds the dataset size n={n}")
    if args.z < 1:
        raise UsageError(f"z must be >= 1, got {args.z}")
    _check_delta(args.delta_failure)
    return ClusterParams(k=args.k, z=args.z, c=args.c, seed=args.seed)


def _check_delta(delta: float | None) -> None:
    if delta is not None and not 0.0 < delta < 1.0:
        raise UsageError(f"--delta-failure must be in (0, 1), got {delta}")


def _cmd_cluster(args) -> int:
    ds = ingest(args.input, args.format)
    params = _make_params(args, ds.n)
    eval_ks = _parse_eval_ks(args.eval_k, args.k)
    if any(kk > args.k for kk in eval_ks):
        raise UsageError("--eval-k entries must not exceed k")
    report = run_pipeline(ds, params, args.mode, args.delta_failure,
                          args.project_dim, args.no_project, eval_ks, args.algorithm)
    _print_cluster_summary(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    ds = ingest(args.input, args.format)
    shape = (report["input"]["n"], report["input"]["d"])
    if shape != (ds.n, ds.d):
        raise DataError(f"{args.input}: dataset has n={ds.n} d={ds.d}, but the report was "
                        f"made from n={shape[0]} d={shape[1]}")
    centers = report["result"]["centers"]
    z = report["params"]["z"]
    ok = True
    for kk, recorded in report["result"]["prefix_costs"].items():
        recomputed = cost(ds, centers[: int(kk)], z)
        rel = abs(recomputed - recorded) / max(abs(recorded), 1e-300)
        print(f"k={kk}: recorded {recorded:.12g} recomputed {recomputed:.12g} rel {rel:.3g}")
        if not (rel <= 1e-9 or recomputed == recorded):
            ok = False
    print("match" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --sizes list {args.sizes!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise UsageError("--sizes must be positive integers")
    _check_delta(args.delta_failure)
    result = run_bench(sizes, args.d, args.k, args.z, args.c, args.seed,
                       args.clusters, args.spread, args.mode, args.delta_failure)
    print(f"{'n':>8}  {'normalize':>10}  {'init':>10}  {'greedy':>10}  {'total':>10}")
    for row in result["rows"]:
        t = row["timings"]
        print(f"{row['n']:>8}  {t['normalize_s']:>10.3f}  {t['init_s']:>10.3f}  "
              f"{t['greedy_s']:>10.3f}  {t['total_s']:>10.3f}")
    slope = result["slope"]
    print(f"log-log slope: {'absent (single size)' if slope is None else f'{slope:.3f}'}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kzclust",
        description="Incremental Euclidean (k,z)-clustering by hierarchical greedy ball selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a Gaussian-mixture dataset")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--clusters", type=int, default=4)
    gen.add_argument("--spread", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=["csv", "f32le"], default="csv")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    cluster = sub.add_parser("cluster", help="cluster a dataset file")
    cluster.add_argument("input")
    cluster.add_argument("--k", type=int, required=True)
    cluster.add_argument("--z", type=float, default=2.0)
    cluster.add_argument("--c", type=float, default=5.0)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--mode", choices=["exact", "lsh"], default="lsh")
    cluster.add_argument("--delta-failure", type=float, default=None,
                         help="index failure probability (default 1/n^2)")
    cluster.add_argument("--project-dim", type=int, default=None)
    cluster.add_argument("--no-project", action="store_true")
    cluster.add_argument("--eval-k", default=None,
                         help="comma-separated prefix sizes to cost (default: k)")
    cluster.add_argument("--algorithm", choices=["greedy", "kmeanspp"], default="greedy")
    cluster.add_argument("--format", choices=["csv", "f32le"], default=None)
    cluster.add_argument("--out", default=None, help="write the JSON report here")
    cluster.set_defaults(func=_cmd_cluster)

    ev = sub.add_parser("eval", help="recompute a report's costs against its dataset")
    ev.add_argument("report")
    ev.add_argument("input")
    ev.add_argument("--format", choices=["csv", "f32le"], default=None)
    ev.set_defaults(func=_cmd_eval)

    bench = sub.add_parser("bench", help="scaling benchmark over doubling sizes")
    bench.add_argument("--sizes", default="1024,2048,4096,8192,16384")
    bench.add_argument("--d", type=int, default=8)
    bench.add_argument("--k", type=int, default=10)
    bench.add_argument("--z", type=float, default=2.0)
    bench.add_argument("--c", type=float, default=5.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--clusters", type=int, default=16)
    bench.add_argument("--spread", type=float, default=0.05)
    bench.add_argument("--mode", choices=["exact", "lsh"], default="lsh")
    bench.add_argument("--delta-failure", type=float, default=None)
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, DataRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        # Parameters the library cannot run on this input: table count, z.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
