"""Fixed-radius neighborhood index with point removal.

For a radius R and expansion factor c, a query for point p returns a set N
sandwiched between the two balls:

    B(p, R) ∩ live  ⊆  N  ⊆  B(p, c·R) ∩ live

In "lsh" mode the index keeps L randomly shifted uniform grids with cell
width c·R/sqrt(d).  The far side is deterministic: a cell has diameter at
most c·R, and an explicit distance filter guards the floating-point edge.
The near side holds with probability 1 - delta over the random shifts, with
L = ceil(e^(2d/c) · ln(n·num_levels/delta)) tables.

In "exact" mode there are no tables and a query scans the live points;
both sides of the sandwich then hold deterministically (N = B(p, R) ∩ live).

On normalized data (distinct points at least 1 apart) two kinds of radius
need no tables at all, and radius_kind is the one place that tells them
apart: a radius at least the bounding-box diagonal ("all") puts every point
in B(p, R), and one with c·R < 1 ("dup") puts only p's duplicates in
B(p, c·R).  Their indexes answer from a DuplicateGroups partition -- the
whole set as one group, or the exact-duplicate groups -- and meet the
sandwich with probability 1.

Concurrency: the build is pure per table; after build, queries are
read-only, but remove_many() mutates and must not race with queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metric import Dataset, dists_from

_MAX_TABLES = 2_000_000


def num_tables(n: int, d: int, c: float, delta: float, num_levels: int = 1) -> int:
    """Table count L = ceil(e^(2d/c) · ln(n·num_levels/delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    try:
        raw = math.exp(2.0 * d / c) * math.log(n * num_levels / delta)
    except OverflowError:
        raw = math.inf
    if raw > _MAX_TABLES:
        raise ValueError(
            f"table count {raw:.4g} for d={d}, c={c} is impractical; "
            "project the data to a lower dimension first"
        )
    return max(1, math.ceil(raw))


@dataclass
class GridTable:
    """One randomly shifted uniform grid over the point set.

    Lookup is by point id: point_bucket[p] indexes into (offsets, order),
    where order holds point ids grouped by occupied cell.
    """

    shift: np.ndarray
    cell_width: float
    point_bucket: np.ndarray
    order: np.ndarray
    offsets: np.ndarray

    def members(self, point_id: int) -> np.ndarray:
        b = self.point_bucket[point_id]
        return self.order[self.offsets[b] : self.offsets[b + 1]]


def _build_table(points: np.ndarray, cell_width: float, shift: np.ndarray,
                 mixers: np.ndarray) -> GridTable:
    n = points.shape[0]
    cells = np.floor((points + shift) * (1.0 / cell_width)).astype(np.int64)
    # 64-bit mixed cell key; distinct-cell collisions (~n^2/2^64) are caught
    # by the query-time distance filter.
    folded = np.bitwise_xor.reduce(cells.astype(np.uint64) * mixers, axis=1)
    folded ^= folded >> np.uint64(30)
    folded *= np.uint64(0xBF58476D1CE4E5B9)
    folded ^= folded >> np.uint64(27)
    folded *= np.uint64(0x94D049BB133111EB)
    folded ^= folded >> np.uint64(31)

    order = np.argsort(folded, kind="stable").astype(np.int32)
    sorted_keys = folded[order]
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    is_new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    bucket_of_sorted = (np.cumsum(is_new) - 1).astype(np.int32)
    starts = np.flatnonzero(is_new).astype(np.int32)
    offsets = np.append(starts, np.int32(n)).astype(np.int32)
    point_bucket = np.empty(n, dtype=np.int32)
    point_bucket[order] = bucket_of_sorted
    return GridTable(shift, cell_width, point_bucket, order, offsets)


class NeighborhoodIndex:
    """Radius-R neighborhood structure over a fixed dataset; supports removal."""

    def __init__(self, ds: Dataset, radius: float, c: float, mode: str,
                 tables: list[GridTable], seed: int):
        self.ds = ds
        self.radius = float(radius)
        self.c = float(c)
        self.mode = mode
        self.tables = tables
        self.seed = seed
        self.live = np.ones(ds.n, dtype=bool)
        self.table_accesses = 0

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def query(self, point_id: int) -> np.ndarray:
        """Live ids within the sandwich around the stored point, ascending.

        The queried point may itself have been removed; it is then excluded
        like any other dead id.
        """
        if self.mode == "exact":
            dr = dists_from(self.ds.points, point_id)
            return np.flatnonzero(self.live & (dr <= self.radius))
        self.table_accesses += len(self.tables)
        parts = [t.members(point_id) for t in self.tables]
        cand = np.unique(np.concatenate(parts))
        cand = cand[self.live[cand]]
        if cand.size == 0:
            return cand.astype(np.int64)
        diff = self.ds.points[cand] - self.ds.points[point_id]
        sq = np.einsum("ij,ij->i", diff, diff)
        reach = self.c * self.radius
        return cand[sq <= reach * reach].astype(np.int64)

    def remove_many(self, point_ids: np.ndarray) -> None:
        """Mark points dead; they never appear in later query results."""
        self.live[point_ids] = False


def build(ds: Dataset, radius: float, c: float = 5.0, delta: float | None = None,
          seed: int = 0, mode: str = "lsh", num_levels: int = 1) -> NeighborhoodIndex:
    """Construct a NeighborhoodIndex over the dataset.

    delta defaults to 1/n^2 (clamped below 1).  Deterministic given seed.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if mode not in ("exact", "lsh"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        return NeighborhoodIndex(ds, radius, c, mode, [], seed)

    n, d = ds.n, ds.d
    if delta is None:
        delta = min(0.5, 1.0 / (n * n))
    ell = num_tables(n, d, c, delta, num_levels)
    cell_width = c * radius / math.sqrt(d)
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(0.0, cell_width, size=(ell, d))
    mixers = rng.integers(0, 1 << 63, size=(ell, d), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    tables = [
        _build_table(ds.points, cell_width, shifts[i], mixers[i]) for i in range(ell)
    ]
    return NeighborhoodIndex(ds, radius, c, mode, tables, seed)


def radius_kind(radius: float, c: float, diag: float) -> str:
    """Classify a query radius on normalized data with bounding-box diagonal diag.

    "all" when B(p, radius) holds every point, "dup" when c·radius is below
    the minimum distance 1 so B(p, c·radius) holds only p's duplicates, and
    "grid" otherwise.  The margins keep rounding at either edge on the grid
    side, which is correct at every radius.
    """
    if radius >= diag * (1.0 + 1e-9):
        return "all"
    if c * radius < 0.999999:
        return "dup"
    return "grid"


class DuplicateGroups(NamedTuple):
    """CSR partition of point ids: group g is order[offsets[g]:offsets[g+1]], ascending."""

    group_of: np.ndarray
    order: np.ndarray
    offsets: np.ndarray


def degenerate_groups(points: np.ndarray) -> dict[str, DuplicateGroups]:
    """The partition each degenerate radius kind answers from, by kind."""
    n = len(points)
    _, group_of = np.unique(points, axis=0, return_inverse=True)
    group_of = group_of.astype(np.int64)
    order = np.argsort(group_of, kind="stable").astype(np.int64)
    sizes = np.bincount(group_of)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    whole = DuplicateGroups(np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64),
                            np.array([0, n], dtype=np.int64))
    return {"all": whole, "dup": DuplicateGroups(group_of, order, offsets)}


class _DuplicateGroupIndex:
    """Neighborhood structure for radii below the minimum nonzero distance.

    A query returns the live members of the point's group, which for a
    "dup" radius is exactly B(p, R) ∩ live = B(p, c·R) ∩ live.
    """

    def __init__(self, groups: DuplicateGroups):
        self.groups = groups
        self.live = np.ones(len(groups.group_of), dtype=bool)

    def query(self, point_id: int) -> np.ndarray:
        g = self.groups.group_of[point_id]
        members = self.groups.order[self.groups.offsets[g] : self.groups.offsets[g + 1]]
        return members[self.live[members]]

    def remove_many(self, point_ids: np.ndarray) -> None:
        self.live[point_ids] = False


class _AllPointsIndex(_DuplicateGroupIndex):
    """Neighborhood structure for radii that cover the whole point set.

    Built over the one-group partition, so a query returns every live point.
    """


def degenerate_index(kind: str, groups: DuplicateGroups) -> _DuplicateGroupIndex:
    """Index for an "all" or "dup" radius over that kind's partition."""
    return _AllPointsIndex(groups) if kind == "all" else _DuplicateGroupIndex(groups)
