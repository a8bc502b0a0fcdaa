"""Workload definitions, the timed pipeline call and the correctness check.

Every workload clusters a seeded Gaussian mixture (16 clusters, spread
0.05) with z=2, c=5 in lsh mode through ``cli.run_pipeline``, the code
path ``kzclust cluster`` uses.  A run's seed derives one seed per dataset,
which picks both the points and the algorithm's own seed.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass

import numpy as np

from kzclust import cli, metric, oracles

CLUSTERS = 16
SPREAD = 0.05
Z = 2.0
C = 5.0
MODE = "lsh"

# Same tolerance as `kzclust eval`.
COST_RTOL = 1e-9

# One k-means++ draw at k=10 on 16 clusters varies by about 30% with its
# seed, so the baseline is the median over several draws.
KMEANSPP_DRAWS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    k: int
    eval_ks: tuple[int, ...]
    ratio_k: int
    datasets: int
    project_dim: int | None = None
    probe_default_target: bool = False


# Each n keeps the normalized diameter of nearly every dataset between the
# thresholds at which a level's index changes kind (grid-LSH or degenerate);
# a dataset across one builds a different number of grid indexes, which
# changes its cost up to threefold.  proj-d64 stays above the 8192-point
# exact-scan limit of the minimum-distance search.  `datasets` is as many
# calls as fit in one run.
WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-8 shape: init (index build + value sketches) dominates.
        Workload("k10-d8", n=4096, d=8, k=10, eval_ks=(10,), ratio_k=10, datasets=4),
        # Full incremental ordering, k=n: descent and removal queries dominate.
        Workload("full-d8", n=1024, d=8, k=1024, eval_ks=(10, 100, 1024), ratio_k=100,
                 datasets=3),
        # Gaussian projection 64 -> 3: two normalize passes, one above the
        # exact-scan limit.  The default projection target is probed once.
        Workload("proj-d64", n=8704, d=64, k=10, eval_ks=(10,), ratio_k=10, datasets=9,
                 project_dim=3, probe_default_target=True),
    )
}


def child_seed(seed: int, i: int) -> int:
    """The i-th 64-bit seed derived from a seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def make_inputs(w: Workload, seed: int) -> tuple[metric.Dataset, metric.ClusterParams]:
    ds = cli.generate_mixture(w.n, w.d, CLUSTERS, SPREAD, seed)
    return ds, metric.ClusterParams(k=w.k, z=Z, c=C, seed=seed)


def run_call(w: Workload, ds: metric.Dataset, params: metric.ClusterParams,
             default_target: bool = False) -> dict:
    """One pipeline call, as `kzclust cluster` makes it; returns the report."""
    if default_target:
        return cli.run_pipeline(ds, params, MODE, None, None, False, list(w.eval_ks))
    return cli.run_pipeline(ds, params, MODE, None, w.project_dim, w.project_dim is None,
                            list(w.eval_ks))


def baseline_cost(w: Workload, ds: metric.Dataset, seed: int) -> float:
    """Median cost of k-means++ seeding at the workload's ratio k.

    The first draw uses the dataset's own seed, the others seeds derived from it.
    """
    seeds = [seed] + [child_seed(seed, j) for j in range(1, KMEANSPP_DRAWS)]
    return statistics.median(
        metric.cost(ds, oracles.kmeanspp(ds, w.ratio_k, Z, s), Z) for s in seeds
    )


def check_report(report: dict, ds: metric.Dataset, w: Workload) -> list[str]:
    """Problems found in a pipeline report; empty when the report is correct.

    Recomputes every recorded prefix cost with ``metric.cost``, as
    ``kzclust eval`` does, and checks the ordering's shape.
    """
    res = report["result"]
    centers = res["centers"]
    achieved = res["achieved_k"]
    problems = []
    if len(centers) != achieved:
        problems.append(f"{len(centers)} centers but achieved_k={achieved}")
    if any(not 0 <= int(cid) < ds.n for cid in centers):
        problems.append("center id out of range")
        return problems
    if len(set(centers)) != len(centers):
        problems.append("duplicate centers")
    if achieved != w.k and not res["early_terminated"]:
        problems.append(f"achieved_k={achieved} != k={w.k} without early termination")
    costs = res["prefix_costs"]
    expected = {str(kk) for kk in w.eval_ks if kk <= achieved}
    if set(costs) != expected:
        problems.append(f"prefix costs for k={sorted(costs)}, expected {sorted(expected)}")
    for kk, recorded in costs.items():
        recomputed = metric.cost(ds, centers[: int(kk)], Z)
        if recomputed != recorded and not (
            abs(recomputed - recorded) <= COST_RTOL * abs(recorded)
        ):
            problems.append(f"cost(k={kk}) recorded {recorded!r}, recomputed {recomputed!r}")
    if str(w.ratio_k) not in costs:
        problems.append(f"no prefix cost at the ratio k={w.ratio_k}")
    elif not (math.isfinite(costs[str(w.ratio_k)]) and costs[str(w.ratio_k)] > 0):
        problems.append(f"cost(k={w.ratio_k}) is not a positive number")
    return problems


def digest(report: dict) -> str:
    """Short hash of the center ordering, for bit-identity across commits."""
    ids = np.asarray(report["result"]["centers"], dtype="<i8")
    return hashlib.sha256(ids.tobytes()).hexdigest()[:16]
