"""Datasets, Euclidean distances, clustering cost, and input normalization.

Normalization rescales coordinates so the smallest nonzero pairwise distance
is 1, then rounds the bounding-box diagonal up to a power of 2c.  That power
fixes the geometric schedule of ball radii that the index and greedy layers
operate on: radii delta/(2c)^level for level = 0 .. log_2c(delta) + 7.
normalize makes one exact KD-tree pass at every n for the minimum
distance, and a second over only the rescaled rows within reach of it for
the minimum after rescaling (see normalize).  From d = 32 (_TILE_MIN_DIM),
where a KD tree scans nearly every point per query, float32 GEMM tiles
first bound each point's nearest-neighbor distance, and the tree queries
only the points those bounds leave a chance at the minimum (_nearest); the
result is the same to the bit.  The tree's queries run on every core the
process may use once they cover at least 2^16 coordinates, and on one below
that; each point's answer is computed on its own, so results do not depend
on the core count.

All data is float64.  A Dataset is immutable after construction and every
function here is pure, so concurrent use is safe; a Dataset's KD-tree is
built at first use, and two threads that both ask first build two equal
trees.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

# Levels run from exponent 0 (radius delta) down to delta/(2c)^(m+7) = (2c)^-7.
EXTRA_LEVELS = 8

# The last radius is 1/(2c)^7.  At c = 4e43, (2c)^7 ≈ 2.1e307, so the last
# radius stays a normal float64 (at least 2^-1022 ≈ 2.2e-308); from c ≈ 5.4e43,
# (2c)^7 is not a float at all.
MAX_C = 4e43

# Unit roundoff of float64: fl(x) = x·(1 + t) with |t| <= 2^-53.
_ROUNDOFF = 2.0**-53


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

    @cached_property
    def tree(self) -> cKDTree:
        """KD-tree over the points, built at first use and kept with the dataset."""
        return cKDTree(self.points)


@dataclass(frozen=True)
class ClusterParams:
    """Clustering problem parameters: k centers, cost exponent z, trade-off c."""

    k: int
    z: float = 2.0
    c: float = 5.0
    seed: int = 0

    def __post_init__(self):
        # Written as "not (valid)" so that NaN, which fails every comparison,
        # is rejected too.
        if not self.k >= 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (self.z >= 1 and math.isfinite(self.z)):
            raise ValueError(f"z must be finite and >= 1, got {self.z}")
        if not (self.c >= 5 and math.isfinite(self.c)):
            raise ValueError(f"c must be finite and >= 5, got {self.c}; "
                             "the approximation guarantees assume c >= 5")
        if not self.c <= MAX_C:
            raise ValueError(f"c must be at most {MAX_C:g}, got {self.c!r}, so that the "
                             "last radius, (2c)^-7, is a normal float64")


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
    their squares cannot overflow at any input magnitude; they fall below the
    normal range only for gaps about 1e154 times smaller than the largest
    coordinate.
    Power-of-two scaling is exact, so results scaled back with ldexp are
    bit-identical to unscaled ones wherever those are finite and normal.
    """
    _, e = math.frexp(float(np.abs(points).max()))
    return np.ldexp(points, -e), e


# cost takes max(1, _COST_BLOCK // n) centers at a time: at most
# max(n, _COST_BLOCK) point-center distances.
_COST_BLOCK = 1 << 20


def cost(ds: Dataset, centers: Sequence[int], z: float) -> float:
    """Clustering cost: sum over points of (distance to nearest center)^z.

    The nearest distances are a running minimum over blocks of centers, at
    most max(n, _COST_BLOCK) distances each; cdist computes every pair on
    its own, so the blocks change no bit.  Raises DataRangeError when the sum
    exceeds the float64 range, or when some point is off every center and
    the sum is below the smallest normal.
    """
    center_ids = np.asarray(list(centers), dtype=np.int64)
    if center_ids.size == 0:
        raise ValueError("center set must be nonempty")
    pts, e = _unit_scaled(ds.points)
    step = max(1, _COST_BLOCK // len(pts))
    nearest = cdist(pts, pts[center_ids[:step]]).min(axis=1)
    for lo in range(step, center_ids.size, step):
        np.minimum(nearest, cdist(pts, pts[center_ids[lo : lo + step]]).min(axis=1), out=nearest)
    nearest = np.ldexp(nearest, e)
    with np.errstate(over="ignore"):
        total = float(np.sum(nearest**z))
    if not math.isfinite(total):
        raise DataRangeError(f"the clustering cost at z={z:g} is too large for float64")
    if total < sys.float_info.min and nearest.any():
        raise DataRangeError(f"the clustering cost at z={z:g} is too small for float64")
    return total


# Below this many query coordinates a KD-tree query runs on one worker: on a
# 2-vCPU Xeon VM, starting the second cost more than it saved (normalize at
# n=8704, d=3: 32 ms on one worker, 58 ms on two; n·d = 65536 broke even;
# n=8704, d=64: 706 ms against 480 ms).
_PARALLEL_MIN_COORDS = 1 << 16


def _workers(coords: int) -> int:
    """Workers for a KD-tree query over coords query coordinates.

    One below _PARALLEL_MIN_COORDS, else every core this process may run
    on (os.cpu_count where the platform cannot say, as on macOS and
    Windows).  Each query point's result is computed on its own, so every
    worker count gives the same output.
    """
    if coords < _PARALLEL_MIN_COORDS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kd_nearest(tree: cKDTree, rows: np.ndarray) -> np.ndarray:
    """The tree's nearest-neighbor distance from each of rows, all distinct rows of the tree."""
    return tree.query(rows, k=2, workers=_workers(rows.size))[0][:, 1]


def _distance_from_unit_sq(best_sq: float, e: int) -> float:
    """ldexp(sqrt(best_sq), e); a subnormal least squared gap is a range error."""
    if best_sq < sys.float_info.min:
        # Distinct rows whose squared gap, next to the largest coordinate, is
        # subnormal or 0 and so carries too few bits to be the exact square.
        raise DataRangeError("distances between distinct points span too wide a range for float64")
    return math.ldexp(math.sqrt(best_sq), e)


# From this dimension up, _closest_pass bounds every row's nearest-neighbor
# distance with float32 GEMM tiles and runs the KD-tree query only on the
# rows whose bounds leave them a chance at the minimum.  A KD tree in high
# dimension scans nearly every point per query.  On a 2-vCPU Xeon VM the
# tiles took 0.40-0.77 of the KD query's time at d = 32, 48 and 64 for n
# from 2^11 to 2^15; at d = 16 and 24 they won up to n = 8704 but not at
# 2^15, 1.44 and 0.98 of it (BENCH_high_dim_closest.json).
_TILE_MIN_DIM = 32

# One tile is _TILE_ROWS rows against _TILE_COLS columns: a 2 MB float32
# buffer, reused for every tile.
_TILE_ROWS = 128
_TILE_COLS = 4096

# The guard: the KD query runs first on _GUARD_ROWS strided rows, and the
# tiles are given up, for the KD query over every row, when more than
# _TILE_MAX_CANDIDATES of those rows would stay candidates by the bounds the
# tiles give.  float32 then cannot tell the rows' distances apart, and the
# tiles would only add to the KD query.  The guard runs no GEMM: BLAS threads
# keep spinning for a while after one, and slowed the KD query that followed
# by half (d=64, n=8704, spread 1e-4, 2-vCPU Xeon VM).
_GUARD_ROWS = 16
_TILE_MAX_CANDIDATES = 0.25


def _tile_least(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """min over columns j != i of lhs[i] @ rhs[:, j], for each row i, in float32."""
    n = len(lhs)
    least = np.full(n, np.inf, dtype=np.float32)
    tile = np.empty((_TILE_ROWS, _TILE_COLS), dtype=np.float32)
    for r0 in range(0, n, _TILE_ROWS):
        rows = slice(r0, min(r0 + _TILE_ROWS, n))
        for c0 in range(0, n, _TILE_COLS):
            out = tile[: rows.stop - r0, : min(_TILE_COLS, n - c0)]
            np.matmul(lhs[rows], rhs[:, c0 : c0 + _TILE_COLS], out=out)
            # Mask the self pairs, the diagonal of the whole matrix.
            own = np.arange(max(r0, c0), min(rows.stop, c0 + out.shape[1]))
            out[own - r0, own - c0] = np.inf
            np.minimum(least[rows], out.min(axis=1), out=least[rows])
    return least


def _distance_bounds(est: np.ndarray, sq: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """lo <= t <= hi on a KD tree's nearest-neighbor distance t, from _tile_bounds' est and |a|^2."""
    k = (d + 16) * 2.0**-24
    big_g = 10.0 * k / (1.0 - k)  # G = 10·γ_(d+16) in float32
    tau = (d + 16) * 2.0**-110
    slack = (d + 16) * 2.0**-52
    lo = np.minimum(est / (1.0 + big_g), est - big_g * sq) - tau
    hi = np.maximum(est / (1.0 - big_g), est + big_g * sq) + tau
    return np.sqrt(np.maximum(lo, 0.0)) * (1.0 - slack), np.sqrt(hi) * (1.0 + slack)


def _tile_bounds(unit: np.ndarray, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lo <= t <= hi for each distinct row's nearest-neighbor distance t in a KD tree on unit.

    The rows less center, cast to float32, are a.  With |b|^2/2 appended to
    -b, one GEMM of [a, 1] against [-b, |b|^2/2] gives |b|^2/2 - a·b, and
    est = |a|^2 + 2·min_b(|b|^2/2 - a·b) estimates the least squared
    distance D^2 from a row to another.  The float64 centering, the float32
    cast, the length-(d+1) float32 dot product and the float32 |b|^2/2 err
    by at most g·(|a| + |b|)^2 with g = γ_(d+16) in float32: γ_(d+1) for
    the dot product, one unit roundoff for |b|^2/2, about two for the
    centering and the cast, and the rest for second-order terms; plus at
    most tau, far above what float32 and float64 underflow add.  Where
    |b| <= 2|a| that is at most 9g·|a|^2; where |b| > 2|a|,
    |a - b| > |b|/2 gives (|a| + |b|)^2 < 9|a - b|^2, at most 10·D^2 once
    the float32 error is counted.  So, for the least D^2 as for the pair
    est picked, with G = 10g,
    min(est/(1 + G), est - G·|a|^2) - tau <= D^2
    <= max(est/(1 - G), est + G·|a|^2) + tau.
    G < 1 below d = 2^20.  The KD tree's float64 sum of squares and square
    root move t from D by less than the relative (d + 16)·2^-52 that
    _distance_bounds applies to the square roots.
    """
    n, d = unit.shape
    lhs = np.empty((n, d + 1), dtype=np.float32)
    np.subtract(unit, center, out=lhs[:, :d])
    lhs[:, d] = 1.0
    sq = np.einsum("ij,ij->i", lhs[:, :d], lhs[:, :d], dtype=np.float64)
    rhs = np.empty((d + 1, n), dtype=np.float32)
    np.negative(lhs[:, :d].T, out=rhs[:d])
    rhs[d] = 0.5 * sq
    return _distance_bounds(2.0 * _tile_least(lhs, rhs) + sq, sq, d)


def _nearest(tree: cKDTree, unit: np.ndarray) -> np.ndarray:
    """Each distinct row's nearest-neighbor distance in tree, or a lower bound on it.

    Below _TILE_MIN_DIM, or where the guard (_GUARD_ROWS) gives up, a k=2
    KD query gives every row's distance.  Otherwise _tile_bounds gives each
    row bounds lo <= t <= hi, and only the candidates, the rows with
    lo <= (1 + 1e-9)·min(hi), are queried; every other row keeps lo.  Each
    row's lo is at most its distance and min(hi) at least the least
    distance, so the row that holds the least is a candidate, and every
    other row's lo exceeds (1 + 1e-9) times the least.
    """
    n, d = unit.shape
    if not (_TILE_MIN_DIM <= d < 1 << 20 and n > _GUARD_ROWS):
        return _kd_nearest(tree, unit)
    center = unit.mean(axis=0)
    sample = (np.arange(_GUARD_ROWS) * n) // _GUARD_ROWS
    t = _kd_nearest(tree, unit[sample])
    lo, hi = _distance_bounds(t * t, np.sum((unit[sample] - center) ** 2, axis=1), d)
    if np.count_nonzero(lo <= hi.min() * (1.0 + 1e-9)) > _TILE_MAX_CANDIDATES * _GUARD_ROWS:
        return _kd_nearest(tree, unit)
    nearest, hi = _tile_bounds(unit, center)
    nearest[sample] = hi[sample] = t
    candidates = nearest <= hi.min() * (1.0 + 1e-9)
    candidates[sample] = False  # queried already
    nearest[candidates] = _kd_nearest(tree, unit[candidates])
    return nearest


class _ClosestPass(NamedTuple):
    """One exact pass over the distinct rows of a point set.

    uniq holds the distinct rows and e the exponent of the unit scaling
    uniq·2^-e.  nearest[i] is row i's nearest-neighbor distance in a KD tree
    on uniq·2^-e, or a lower bound on it on rows that _nearest's float32
    bounds show cannot hold the least distance.  best_sq is the least
    squared distance between distinct rows of uniq·2^-e as cdist's
    "sqeuclidean" computes it.
    """

    uniq: np.ndarray
    e: int
    nearest: np.ndarray
    best_sq: float


def _closest_pass(points: np.ndarray, e: int | None = None) -> _ClosestPass | None:
    """The pass over the distinct rows of points; None below two rows.

    e is the _unit_scaled exponent of points unless given.  _nearest gives
    each row's nearest-neighbor distance, or on rows that cannot hold the
    least a lower bound; then the ball of every row within (1 + 1e-9) times
    the least distance is queried and its pairs scanned with cdist.  The
    tree's and cdist's sums of squares differ by a few ulps at most, so the
    margin keeps every pair that cdist could rank smallest, and a row in
    such a pair has its nearest neighbor within the margin too.
    """
    uniq = np.unique(points, axis=0)
    if uniq.shape[0] < 2:
        return None
    if e is None:
        unit, e = _unit_scaled(uniq)
    else:
        unit = np.ldexp(uniq, -e)
    tree = cKDTree(unit)
    nearest = _nearest(tree, unit)
    reach = float(nearest.min()) * (1.0 + 1e-9)
    heads = np.flatnonzero(nearest <= reach)
    balls = tree.query_ball_point(unit[heads], reach, workers=_workers(heads.size * unit.shape[1]))
    best_sq = math.inf
    for head, ball in zip(heads, balls):
        ball = np.asarray(ball)
        others = ball[ball != head]
        # A row with only a lower bound within reach may have no other row there.
        if others.size:
            sq = cdist(unit[head : head + 1], unit[others], metric="sqeuclidean")
            best_sq = min(best_sq, float(sq.min()))
    return _ClosestPass(uniq, e, nearest, best_sq)


def min_nonzero_distance(points: np.ndarray) -> float | None:
    """Exact minimum nonzero pairwise distance, or None if all points coincide.

    Duplicates are removed exactly first (the minimum is over distinct rows).
    One KD-tree pass (_closest_pass) gives the minimum an all-pairs cdist
    scan gives, to the bit.
    """
    closest = _closest_pass(points)
    if closest is None:
        return None
    return _distance_from_unit_sq(closest.best_sq, closest.e)


def _rescaled_min(closest: _ClosestPass, scale: float) -> float:
    """min_nonzero_distance(points * scale) wherever that is below 1.

    Otherwise the result is at least 1 (inf if fewer than two distinct rows
    are left).  closest is the pass over points; the rows whose nearest
    distance, or its lower bound, lies within the widened reach that the
    normalize docstring derives are rescaled and passed again, at the unit
    exponent e2 of the whole rescaled set.
    """
    uniq, e, nearest, best_sq = closest
    d = uniq.shape[1]
    top = float(np.abs(uniq).max())
    # Rounding is monotone, so fl(top·scale) is the largest rescaled |coordinate|.
    _, e2 = math.frexp(top * scale)
    limit = max(1.0, math.ldexp(math.sqrt(d), e2 - 511))
    reach = ((limit * math.sqrt(best_sq)
              + 2.0 * _ROUNDOFF * math.sqrt(d) * math.ldexp(top, -e))
             * (1.0 + 4.0 * (d + 2) * _ROUNDOFF))
    rescaled = _closest_pass(uniq[nearest <= reach] * scale, e2)
    if rescaled is None:
        return math.inf
    return _distance_from_unit_sq(rescaled.best_sq, e2)


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
        # Python's int / int true division rounds once, correctly; dividing
        # by a float power would round twice.
        return 1 / ic ** (-e)
    return tc**e


def level_radii(info: ScaleInfo, c: float) -> np.ndarray:
    """Strictly decreasing radius schedule delta/(2c)^level, one entry per level.

    Each radius is recomputed from its integer exponent, never accumulated
    across levels, so there is no drift; when 2c is an integer it is the
    correctly rounded rational (2c)^(m - level).
    """
    return np.array([_pow_2c(c, info.delta_exponent - lvl) for lvl in range(info.num_levels)],
                    dtype=np.float64)


def normalize(ds: Dataset, c: float) -> tuple[Dataset, ScaleInfo]:
    """Rescale so the smallest nonzero pairwise distance is 1.

    Returns the scaled dataset and the ScaleInfo holding the applied scale,
    delta (smallest power of 2c at least the scaled bounding-box diagonal)
    and the level count.  Degenerate inputs (single point, or all points
    identical) are returned untouched with delta = 1.

    Exact duplicates are preserved; they do not participate in the minimum.

    One KD-tree pass (_closest_pass) gives the minimum distance m and the
    scale s = fl(1/m).  Rounding can leave the minimum of the rescaled
    points fl(x·s) a hair under 1, and the scale is then bumped by the
    shortfall.  That rescaled minimum comes from a second pass over the
    rescaled rows whose nearest-neighbor distance in the first lies within
    a widened reach, and wherever it is below 1 it equals what a full pass
    over fl(x·s) would give, to the bit.  (From _TILE_MIN_DIM up, the first
    pass keeps for most rows only a float32 lower bound on their
    nearest-neighbor distance; a row in a pair within the reach has its
    bound within it too.)

    - fl(x·s) moves each coordinate by at most u·M·s, with u = 2^-53 and M
      the largest |coordinate|, so a pair's rescaled distance D' and its
      distance D times s differ by at most 2u·√d·M·s.
    - A pair matters if its computed D' is below 1, or if its squared
      unit-scaled gap is below 2^-1022, the least normal float (a
      DataRangeError).  Rounding is monotone and the squares are summed
      without cancellation, so the latter needs every coordinate gap below
      2^-511 at the unit exponent e2 of fl(M·s), the largest rescaled
      |coordinate|; the second pass scales by 2^-e2 like the full pass.
      So with L = max(1, √d·2^(e2-511)), every such pair has
      D' < L·(1 + (d+2)u): cdist's sum of squares and the square root add
      at most (d+2)u relative error.
    - With 1/s <= m/(1 - u), every such pair has
      D < L·m·(1 + (d+4)u) + 2u·√d·M.  The reach is that bound, in the
      first pass's unit-scaled coordinates, times 1 + 4(d+2)u, which also
      covers the tree's own sums of squares.
      Both rows of such a pair lie within the reach.  Pairs among those
      rows that lie outside it have a computed rescaled distance of at
      least 1 and a normal squared gap, so counting them changes neither
      whether the scale is bumped nor by how much.
    - Rows that rescaling makes equal are merged by the second pass, as
      the full pass removes duplicates first.
    """
    if c <= 0.5:
        raise ValueError(f"c must exceed 1/2, got {c}")
    closest = _closest_pass(ds.points)
    if closest is None:
        return ds, ScaleInfo(1.0, 1.0, 0, EXTRA_LEVELS)

    min_d = _distance_from_unit_sq(closest.best_sq, closest.e)
    scale = 1.0
    if not 1.0 <= min_d <= 1.0 + 1e-9:
        scale = 1.0 / min_d
        if math.isinf(scale):
            raise DataRangeError(f"the least distance between distinct points ({min_d:.3g}) "
                                 "is too small to rescale in float64")
        m2 = _rescaled_min(closest, scale)
        if m2 < 1.0:
            # Rounding pushed the rescaled minimum a hair under 1.  Bump the
            # scale by the measured shortfall plus a 1e-12 margin; every
            # pairwise distance grows by that factor up to ~1e-14 relative
            # re-rounding, so the margin guarantees min >= 1 without another
            # verification pass.
            scale *= (1.0 + 1e-12) / m2
    # An already normalized input keeps its coordinates (idempotence).
    scaled = ds if scale == 1.0 else Dataset(ds.points * scale)

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
