"""Ground-truth references: exhaustive optimum, k-means++ baseline, and a
literal transcription of the greedy pseudocode with exact neighborhoods.

The transcription shares only the foundational primitives (row distances,
radius schedule, normalization) with the main implementation; its ball
bookkeeping, selection scans, descent loop, and removal sweeps are coded
independently so it can serve as a replay oracle.

Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .greedy import BallRef, Solution
from .metric import ClusterParams, Dataset, dists_from, level_radii, normalize

_ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class OptResult:
    """Exhaustive optimum over center subsets of the input points."""

    cost: float
    centers: tuple[int, ...]
    enumerated: int


def _distance_rows(points: np.ndarray) -> np.ndarray:
    return np.vstack([dists_from(points, i) for i in range(points.shape[0])])


def brute_optimal(ds: Dataset, k: int, z: float) -> OptResult:
    """Minimum cost over all k-subsets of input points, by enumeration."""
    n = ds.n
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if math.comb(n, k) > _ENUMERATION_GUARD:
        raise ValueError(f"instance too large: C({n},{k}) subsets exceed {_ENUMERATION_GUARD}")
    dist = _distance_rows(ds.points)
    best_cost = math.inf
    best: tuple[int, ...] | None = None
    enumerated = 0
    for subset in combinations(range(n), k):
        enumerated += 1
        c = float(np.sum(dist[:, subset].min(axis=1) ** z))
        if c < best_cost:
            best_cost = c
            best = subset
    assert best is not None
    return OptResult(best_cost, best, enumerated)


def kmeanspp(ds: Dataset, k: int, z: float, seed: int) -> list[int]:
    """Sampling-based seeding: next center drawn with probability ~ dist^z."""
    n = ds.n
    distinct = np.unique(ds.points, axis=0).shape[0]
    if k > distinct:
        raise ValueError(f"k={k} exceeds the {distinct} distinct points")
    rng = np.random.default_rng(seed)
    centers = [int(rng.integers(n))]
    d_min = dists_from(ds.points, centers[0])
    for _ in range(1, k):
        weights = d_min**z
        total = weights.sum()
        nxt = int(rng.choice(n, p=weights / total))
        centers.append(nxt)
        np.minimum(d_min, dists_from(ds.points, nxt), out=d_min)
    return centers


def transcribed_algorithm(ds: Dataset, params: ClusterParams, k: int | None = None) -> Solution:
    """Straight rendering of the greedy pseudocode, exact everywhere.

    Quadratic scans throughout; intended for instances up to ~2000 points.
    Tie-breaking matches the main implementation: largest value first, then
    smallest point id, then smallest level.
    """
    if ds.n > 2000:
        raise ValueError(f"transcription is quadratic; n={ds.n} exceeds 2000")
    if k is None:
        k = ds.n
    scaled, info = normalize(ds, params.c)
    n = scaled.n
    num_levels = info.num_levels
    c, z = params.c, params.z
    radii = level_radii(info, c)
    rz = radii**z

    dist = _distance_rows(scaled.points)
    # values[p, lvl] = |B(p, R_lvl)| * R_lvl^z, exact counts.
    values = np.empty((n, num_levels), dtype=np.float64)
    for lvl in range(num_levels):
        values[:, lvl] = (dist <= radii[lvl]).sum(axis=1) * rz[lvl]

    available = np.ones((n, num_levels), dtype=bool)
    removal_live = [np.ones(n, dtype=bool) for _ in range(num_levels)]
    centers: list[int] = []
    traces: list[list[BallRef]] = []
    early = False

    for _ in range(k):
        masked = np.where(available, values, -np.inf)
        head_flat = int(np.argmax(masked))
        if not np.isfinite(masked.flat[head_flat]):
            early = True
            break
        point, level = divmod(head_flat, num_levels)
        trace = [BallRef(point, level)]
        while level < num_levels - 1:
            candidates = np.flatnonzero(dist[point] <= 10.0 * c * float(radii[level]))
            vals = values[candidates, level + 1]
            point = int(candidates[np.lexsort((candidates, -vals))[0]])
            level += 1
            trace.append(BallRef(point, level))
        center = point
        for lvl in range(num_levels):
            reach = 100.0 * c**4 * float(radii[lvl])
            hit = np.flatnonzero(removal_live[lvl] & (dist[center] <= reach))
            available[hit, lvl] = False
            removal_live[lvl][hit] = False
        centers.append(center)
        traces.append(trace)

    return Solution(centers=centers, traces=traces, early_terminated=early)
