"""Command-line surface: dataset generation/ingestion, clustering runs,
cost evaluation, and a scaling benchmark.

Subcommands:
    gen      write a seeded Gaussian-mixture dataset (csv or f32le)
    cluster  run the greedy algorithm (or the k-means++ baseline) and emit
             a machine-readable JSON report plus a human-readable summary
    eval     recompute prefix costs for a report against its dataset
    bench    run cluster over doubling sizes and fit the log-log slope

Exit codes: 0 success, 1 eval mismatch, 2 usage error, 3 data error.
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
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet tools write.
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # Commas and whitespace both separate fields; an empty comma field stays "".
        fields = [tok for part in line.split(",") for tok in part.split() or [""]]
        where = f"{path}: line {lineno}"
        row = [_csv_value(tok, col, where) for col, tok in enumerate(fields, start=1)]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"{where}: ragged row, expected {width} fields, got {len(row)}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    return Dataset(np.array(rows, dtype=np.float64))


def _csv_value(tok: str, col: int, where: str) -> float:
    """The finite number that field col holds; a DataError at where otherwise."""
    if not tok:
        raise DataError(f"{where}: field {col} is empty")
    try:
        x = float(tok)
    except ValueError:
        x = None
    # float also reads the digit-group underscore, 1_5 as 15.
    if x is None or "_" in tok:
        raise DataError(f"{where}: non-numeric field {tok!r}")
    if not math.isfinite(x):
        raise DataError(f"{where}: non-finite field {tok!r}")
    return x


def _parse_f32le(path: str) -> Dataset:
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise DataError(f"{path}: truncated header, need 8 bytes, got {len(blob)}")
    n, d = struct.unpack("<II", blob[:8])
    if n == 0:
        raise DataError(f"{path}: empty dataset")
    if d == 0:
        raise DataError(f"{path}: zero dimension")
    expected, got = 4 * n * d, len(blob) - 8
    if got != expected:
        raise DataError(
            f"{path}: {'truncated' if got < expected else 'oversized'} binary payload, "
            f"expected 4·n·d = {expected} bytes after the header, got {got}"
        )
    points = np.frombuffer(blob[8:], dtype="<f4").astype(np.float64).reshape(n, d)
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
        try:
            with np.errstate(over="raise"):
                payload = ds.points.astype("<f4").tobytes()
        except FloatingPointError:
            raise UsageError(f"{path}: a coordinate is beyond the float32 range; "
                             "write csv instead") from None
        with open(path, "wb") as fh:
            fh.write(struct.pack("<II", ds.n, ds.d))
            fh.write(payload)
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
    if not (spread >= 0 and math.isfinite(spread)):
        raise UsageError(f"spread must be finite and >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(clusters, d))
    assign = rng.integers(0, clusters, size=n)
    try:
        with np.errstate(over="raise"):
            pts = means[assign] + spread * rng.standard_normal((n, d))
    except FloatingPointError:
        raise UsageError(f"--spread {spread!r} puts coordinates beyond the float64 range") from None
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

    The kmeanspp baseline draws its centers from the input coordinates and
    skips normalize and projection; its report gives normalization, c, mode
    and delta_failure null.
    Prefix costs are evaluated on the input coordinates, so a report can be
    re-checked against the original file.  Returns the report dict.
    """
    timings = dict.fromkeys(("normalize_s", "project_s", "init_s"), 0.0)
    target = info = None
    if algorithm == "kmeanspp":
        t0 = time.perf_counter()
        centers = oracles.kmeanspp(ds, params.k, params.z, params.seed)
        timings["greedy_s"] = time.perf_counter() - t0
        solution = greedy.Solution(centers=centers, traces=[], early_terminated=False)
    else:
        t0 = time.perf_counter()
        scaled, info = normalize(ds, params.c)
        timings["normalize_s"] = time.perf_counter() - t0
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
        t0 = time.perf_counter()
        state = greedy.init(scaled, params, info, mode=mode, delta=delta)
        timings["init_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        solution = greedy.run(state, params.k)
        timings["greedy_s"] = time.perf_counter() - t0

    # An ordering that stops early holds every distinct point, so each
    # larger prefix costs what the whole ordering does.
    prefix_costs = {str(kk): cost(ds, solution.prefix(kk), params.z) for kk in eval_ks}
    timings["total_s"] = sum(timings.values())
    greedy_run = algorithm == "greedy"

    return {
        "params": {
            "k": params.k,
            "z": params.z,
            "c": params.c if greedy_run else None,
            "seed": params.seed,
            "mode": mode if greedy_run else None,
            "delta_failure": delta if greedy_run else None,
            "algorithm": algorithm,
        },
        "input": {"n": ds.n, "d": ds.d},
        "projection": {"applied": target is not None, "target_dim": target},
        "normalization": None if info is None else {
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
              clusters: int, spread: float, mode: str = greedy.DEFAULT_MODE,
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
    fields = " ".join(f"{key}={p[key]}" for key in ("k", "z", "c", "mode", "seed")
                      if p[key] is not None)
    print(f"n={report['input']['n']} d={report['input']['d']} {fields}")
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
    if not ks:
        raise UsageError(f"--eval-k list {spec!r} has no entries")
    if any(kk < 1 for kk in ks):
        raise UsageError("--eval-k entries must be >= 1")
    return ks


def _check_delta(delta: float | None, mode: str | None) -> None:
    if delta is not None and mode == "exact":
        # Exact mode draws no tables, so a failure probability means nothing.
        raise UsageError("--delta-failure and --mode exact conflict; give at most one")
    if delta is not None and not 0.0 < delta < 1.0:
        raise UsageError(f"--delta-failure must be in (0, 1), got {delta}")


def _cmd_cluster(args) -> int:
    if args.no_project and args.project_dim is not None:
        raise UsageError("--project-dim and --no-project conflict; give at most one")
    if args.project_dim is not None and args.project_dim < 1:
        raise UsageError(f"--project-dim must be >= 1, got {args.project_dim}")
    if args.algorithm == "kmeanspp":
        # k-means++ reads none of the greedy algorithm's flags.
        for flag, value in (("--mode", args.mode), ("--c", args.c),
                            ("--delta-failure", args.delta_failure),
                            ("--project-dim", args.project_dim),
                            ("--no-project", args.no_project or None)):
            if value is not None:
                raise UsageError(f"{flag} and --algorithm kmeanspp conflict; give at most one")
    # ClusterParams checks k, z and c; main maps its ValueError to exit 2.
    given = {} if args.c is None else {"c": args.c}
    params = ClusterParams(k=args.k, z=args.z, seed=args.seed, **given)
    _check_delta(args.delta_failure, args.mode)
    eval_ks = _parse_eval_ks(args.eval_k, args.k)
    if any(kk > args.k for kk in eval_ks):
        raise UsageError("--eval-k entries must not exceed k")
    # Every flag is checked above, before the input is read; only k > n and a
    # z whose ball values overflow (greedy.init raises it) need the data.
    ds = ingest(args.input, args.format)
    if params.c == 5 and args.algorithm == "greedy":
        print("note: c=5 is the smallest supported trade-off value", file=sys.stderr)
    if params.k > ds.n:
        raise UsageError(f"k={params.k} exceeds the dataset size n={ds.n}")
    report = run_pipeline(ds, params, args.mode or greedy.DEFAULT_MODE, args.delta_failure,
                          args.project_dim, args.no_project, eval_ks, args.algorithm)
    _print_cluster_summary(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    return 0


def _is_number(value, kind=(int, float)) -> bool:
    """A JSON number of the given Python type; JSON true and false do not count."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _report_field(report, path: str, *keys: str):
    for key in keys:
        if not isinstance(report, dict) or key not in report:
            raise DataError(f"{path}: report has no {'.'.join(keys)}")
        report = report[key]
    return report


def _read_report(path: str, ds: Dataset) -> tuple[list[int], dict[str, float], float]:
    """Centers, prefix costs and z of a report on ds, each checked before use."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not a JSON report ({exc})") from None
    shape = (_report_field(report, path, "input", "n"), _report_field(report, path, "input", "d"))
    centers = _report_field(report, path, "result", "centers")
    prefix_costs = _report_field(report, path, "result", "prefix_costs")
    z = _report_field(report, path, "params", "z")
    if shape != (ds.n, ds.d):
        raise DataError(f"{path}: report was made from n={shape[0]} d={shape[1]}, but the "
                        f"dataset has n={ds.n} d={ds.d}")
    if not (isinstance(centers, list) and centers
            and all(_is_number(cid, int) and 0 <= cid < ds.n for cid in centers)):
        raise DataError(f"{path}: result.centers must be a nonempty list of point ids "
                        f"in [0, {ds.n})")
    if not (isinstance(prefix_costs, dict) and prefix_costs):
        raise DataError(f"{path}: result.prefix_costs must be a nonempty object")
    for key, recorded in prefix_costs.items():
        # A key past the centers is the whole ordering's cost, which a run
        # that stopped early records for every larger k.
        try:
            in_range = key.isdecimal() and 1 <= int(key) <= ds.n
        except ValueError:  # int refuses more digits than the interpreter's limit
            in_range = False
        if not in_range:
            raise DataError(f"{path}: prefix-cost key {key!r} is not an integer in [1, {ds.n}]")
        # Python's JSON reader accepts NaN, which fails this comparison, and
        # Infinity, 1e400 (read as inf) and integers past the float64 range.
        if not (_is_number(recorded) and abs(recorded) <= sys.float_info.max):
            raise DataError(f"{path}: prefix cost for k={key} is not a finite number")
    if not (_is_number(z) and 1 <= z <= sys.float_info.max):
        raise DataError(f"{path}: params.z must be a finite number >= 1")
    return centers, prefix_costs, z


def _cmd_eval(args) -> int:
    ds = ingest(args.input, args.format)
    centers, prefix_costs, z = _read_report(args.report, ds)
    ok = True
    for kk, recorded in prefix_costs.items():
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
    if len(set(sizes)) < len(sizes):
        raise UsageError(f"--sizes {args.sizes!r} repeats a size; the slope needs distinct ones")
    _check_delta(args.delta_failure, args.mode)
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
    cluster.add_argument("--c", type=float, default=None, help="trade-off (default 5)")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--mode", choices=["exact", "lsh"], default=None,
                         help=f"index mode (default {greedy.DEFAULT_MODE})")
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
    bench.add_argument("--mode", choices=["exact", "lsh"], default=greedy.DEFAULT_MODE)
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
