"""Benchmark of the kzclust pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A run clusters a fixed set of datasets derived from the seed,
one ``cli.run_pipeline`` call per dataset per pass, and repeats passes
while the next one is expected to end within ``--seconds``.  Every report
is checked (see ``workloads.check_report``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)


def import_program() -> None:
    """Import kzclust from this checkout's src/, and nowhere else."""
    if not (SRC / "kzclust" / "__init__.py").is_file():
        raise SystemExit(f"error: no kzclust sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kzclust

    if Path(kzclust.__file__).resolve().parent != (SRC / "kzclust").resolve():
        raise SystemExit(f"error: kzclust imported from {kzclust.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="kzclust pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> dict:
    """BENCHMARK.json, which names each metric and its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    declared = declared_metrics()
    import_program()
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    result = bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       HERE / "out")
    values = result.pop("values")
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    moves = json.loads((HERE / "layers.json").read_text(encoding="utf-8")) if args.trace else {}
    for name, entry in metrics.items():
        note = ""
        if moves.get(name, {}).get("moves"):
            note = f"  moves {', '.join(moves[name]['moves'])} on {', '.join(moves[name]['on'])}"
        print(f"{name:28s} {entry['value']:<12.6g} {entry['unit']}{note}")
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
