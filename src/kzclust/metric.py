"""Datasets, Euclidean distances, clustering cost, and input normalization.

Normalization rescales coordinates so the smallest nonzero pairwise distance
is 1, then rounds the bounding-box diagonal up to a power of 2c.  That power
fixes the geometric schedule of ball radii that the index and greedy layers
operate on: radii delta/(2c)^level for level = 0 .. log_2c(delta) + 7.

All data is float64.  A Dataset is immutable after construction and every
function here is pure, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

# Levels run from exponent 0 (radius delta) down to delta/(2c)^(m+7) = (2c)^-7.
EXTRA_LEVELS = 8

# Above this many distinct points, the exact all-pairs scan for the minimum
# distance is replaced by a KD-tree nearest-neighbor pass (still exact).
_EXACT_SCAN_LIMIT = 8192

_ROW_BLOCK = 1024


class DataRangeError(ValueError):
    """Data whose magnitudes float64 cannot represent well enough to cluster."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable multiset of d-dimensional points; row index is the point id."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise ValueError(f"points must have shape (n, d), got {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must have finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ClusterParams:
    """Clustering problem parameters: k centers, cost exponent z, trade-off c."""

    k: int
    z: float = 2.0
    c: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.z < 1:
            raise ValueError(f"z must be >= 1, got {self.z}")
        if self.c < 5:
            raise ValueError(
                f"c must be >= 5, got {self.c}; the approximation guarantees assume c >= 5"
            )


@dataclass(frozen=True)
class ScaleInfo:
    """Rescaling applied by normalize plus the derived radius schedule.

    delta = (2c)^delta_exponent bounds the diameter of the scaled data;
    num_levels = delta_exponent + 8 so the last radius is (2c)^-7.
    """

    scale: float
    delta: float
    delta_exponent: int
    num_levels: int


def distance(p, q) -> float:
    """Euclidean distance between two points."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    diff = p - q
    return float(np.sqrt(np.dot(diff, diff)))


def dists_from(points: np.ndarray, idx: int) -> np.ndarray:
    """Distances from every row of `points` to the point with id `idx`.

    The single canonical row-distance routine: every exact neighborhood,
    exact count, and replay oracle goes through it so float results agree
    bitwise across call sites.
    """
    diff = points - points[idx]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _unit_scaled(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Points times 2^-e, with e the binary exponent of the largest |coordinate|.

    Distances of the scaled points are those of the input times 2^-e, so
    their squares cannot overflow at any input magnitude; they underflow only
    for gaps about 1e161 times smaller than the largest coordinate.
    Power-of-two scaling is exact, so results scaled back with ldexp are
    bit-identical to unscaled ones wherever those are finite and normal.
    """
    _, e = math.frexp(float(np.abs(points).max()))
    return np.ldexp(points, -e), e


def cost(ds: Dataset, centers: Sequence[int], z: float) -> float:
    """Clustering cost: sum over points of (distance to nearest center)^z."""
    center_ids = np.asarray(list(centers), dtype=np.int64)
    if center_ids.size == 0:
        raise ValueError("center set must be nonempty")
    pts, e = _unit_scaled(ds.points)
    nearest = np.ldexp(cdist(pts, pts[center_ids]).min(axis=1), e)
    return float(np.sum(nearest**z))


def min_nonzero_distance(points: np.ndarray) -> float | None:
    """Exact minimum nonzero pairwise distance, or None if all points coincide.

    Duplicates are removed exactly first (the minimum is over distinct rows).
    """
    uniq, e = _unit_scaled(np.unique(points, axis=0))
    m = uniq.shape[0]
    if m < 2:
        return None
    if m <= _EXACT_SCAN_LIMIT:
        # Squared distances avoid 67M square roots at the size limit; the
        # direct sum-of-squared-differences form has no cancellation.
        best = math.inf
        for start in range(0, m, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, m)
            block = cdist(uniq[start:stop], uniq, metric="sqeuclidean")
            rows = np.arange(stop - start)
            block[rows, rows + start] = np.inf
            best = min(best, float(block.min()))
        best = math.sqrt(best)
    else:
        dists, _ = cKDTree(uniq).query(uniq, k=2)
        best = float(dists[:, 1].min())
    if best == 0.0:
        # Distinct rows whose squared gap underflows next to the largest coordinate.
        raise DataRangeError("distances between distinct points span too wide a range for float64")
    return math.ldexp(best, e)


def _delta_exponent(diag: float, c: float) -> int:
    """Smallest m >= 0 with (2c)^m >= diag."""
    tc = 2.0 * c
    ic = round(tc)
    m = 0
    if abs(tc - ic) < 1e-9:
        power = 1
        while power < diag:
            m += 1
            power *= ic
    else:
        while tc**m < diag * (1.0 - 1e-12):
            m += 1
    return m


def _pow_2c(c: float, e: int) -> float:
    """(2c)^e; correctly rounded when 2c is an integer."""
    tc = 2.0 * c
    ic = round(tc)
    if abs(tc - ic) < 1e-9:
        if e >= 0:
            return float(ic**e)
        return 1.0 / float(ic ** (-e))
    return tc**e


def radius_at_level(info: ScaleInfo, c: float, level: int) -> float:
    """Radius delta/(2c)^level, recomputed from the integer exponent.

    Never accumulated across levels, so there is no drift; when 2c is an
    integer the value is the correctly rounded rational (2c)^(m - level).
    """
    return _pow_2c(c, info.delta_exponent - level)


def radius_fraction(info: ScaleInfo, c: float, level: int) -> Fraction:
    """Exact rational radius for integral 2c; supports exact schedule checks."""
    tc = 2.0 * c
    ic = round(tc)
    if abs(tc - ic) >= 1e-9:
        raise ValueError(f"2c = {tc} is not integral; no exact rational radius")
    return Fraction(ic) ** (info.delta_exponent - level)


def level_radii(info: ScaleInfo, c: float) -> np.ndarray:
    """Strictly decreasing radius schedule, one entry per level."""
    return np.array(
        [radius_at_level(info, c, lvl) for lvl in range(info.num_levels)],
        dtype=np.float64,
    )


def normalize(ds: Dataset, c: float) -> tuple[Dataset, ScaleInfo]:
    """Rescale so the smallest nonzero pairwise distance is 1.

    Returns the scaled dataset and the ScaleInfo holding the applied scale,
    delta (smallest power of 2c at least the scaled bounding-box diagonal)
    and the level count.  Degenerate inputs (single point, or all points
    identical) are returned untouched with delta = 1.

    Exact duplicates are preserved; they do not participate in the minimum.
    """
    if c <= 0.5:
        raise ValueError(f"c must exceed 1/2, got {c}")
    min_d = min_nonzero_distance(ds.points)
    if min_d is None:
        return ds, ScaleInfo(1.0, 1.0, 0, EXTRA_LEVELS)

    if 1.0 <= min_d <= 1.0 + 1e-9:
        # Already normalized: keep coordinates bit-identical (idempotence).
        scale = 1.0
        scaled = ds
    else:
        scale = 1.0 / min_d
        scaled = Dataset(ds.points * scale)
        m2 = min_nonzero_distance(scaled.points)
        if m2 is not None and m2 < 1.0:
            # Rounding pushed the rescaled minimum a hair under 1.  Bump the
            # scale by the measured shortfall plus a 1e-12 margin; every
            # pairwise distance grows by that factor up to ~1e-14 relative
            # re-rounding, so the margin guarantees min >= 1 without another
            # verification pass.
            scale *= (1.0 + 1e-12) / m2
            scaled = Dataset(ds.points * scale)

    m = _delta_exponent(bbox_diagonal(scaled.points), c)
    return scaled, ScaleInfo(scale, _pow_2c(c, m), m, m + EXTRA_LEVELS)


def bbox_diagonal(points: np.ndarray) -> float:
    """Bounding-box diagonal; an upper bound on the diameter."""
    pts, e = _unit_scaled(points)
    extent = pts.max(axis=0) - pts.min(axis=0)
    return math.ldexp(float(np.sqrt(np.sum(extent**2))), e)


def jl_project(ds: Dataset, target_dim: int, seed: int) -> Dataset:
    """Random Gaussian projection to target_dim, scaled by 1/sqrt(target_dim)."""
    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((ds.d, target_dim)) / math.sqrt(target_dim)
    return Dataset(ds.points @ proj)
