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

Concurrency: the build is pure per table, and queries on an index that
never removes (the sequence and value-estimation indexes) are read-only.
A removal index mutates on both sides: remove_many() marks ids dead, and
a query that meets dead ids rewrites the prefixes of the buckets it read.
Queries and removals on one removal index must therefore not run
concurrently, and neither may two of its queries.
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
    where order holds point ids grouped by occupied cell.  The three arrays
    are views into the owning index's stacked storage.
    """

    shift: np.ndarray
    cell_width: float
    point_bucket: np.ndarray
    order: np.ndarray
    offsets: np.ndarray


def _fill_table(points: np.ndarray, cell_width: float, shift: np.ndarray, mixers: np.ndarray,
                order: np.ndarray, point_bucket: np.ndarray, offsets: np.ndarray) -> int:
    """Grid one table into its rows of the stacked storage; return its bucket count.

    order and point_bucket are the table's length-n rows; offsets receives
    the bucket starts followed by n.
    """
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

    sort = np.argsort(folded, kind="stable")
    sorted_keys = folded[sort]
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    is_new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(is_new)
    buckets = len(starts)
    offsets[:buckets] = starts
    offsets[buckets] = n
    order[:] = sort
    point_bucket[sort] = np.cumsum(is_new) - 1
    return buckets


def _segment_positions(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The positions start[i] .. start[i] + length[i] - 1 of every segment, in order."""
    pos = np.repeat(start - (np.cumsum(length) - length), length)
    pos += np.arange(len(pos))
    return pos


class NeighborhoodIndex:
    """Radius-R neighborhood structure over a fixed dataset; supports removal.

    In lsh mode the L tables live in stacked storage: order and point_bucket
    are (L, n) int32, and every table's offsets (its bucket starts, then n)
    sit back to back in one flat int32 array, table t's from
    bucket_base[t].  Bucket b of table t is order[t, offsets[g]:offsets[g+1]]
    with g = bucket_base[t] + b.  Once the index holds a dead id, a per-bucket
    live end replaces offsets[g+1] as the bucket's end.

    table_accesses and entries_scanned count the tables and the bucket
    entries, dead ones included, that lsh-mode queries have read.
    """

    def __init__(self, ds: Dataset, radius: float, c: float, mode: str, seed: int,
                 shifts: np.ndarray | None = None, cell_width: float = 0.0,
                 order: np.ndarray | None = None, point_bucket: np.ndarray | None = None,
                 offsets: np.ndarray | None = None, bucket_base: np.ndarray | None = None):
        self.ds = ds
        self.radius = float(radius)
        self.c = float(c)
        self.mode = mode
        self.seed = seed
        self.live = np.ones(ds.n, dtype=bool)
        self.table_accesses = 0
        self.entries_scanned = 0
        self.tables: list[GridTable] = []
        if mode == "exact":
            return
        ell = len(order)
        self._order = order.reshape(-1)
        self._point_bucket = point_bucket
        self._offsets = offsets
        self._bucket_base = bucket_base
        self._row_base = np.arange(ell, dtype=np.int64) * ds.n
        self._live_end: np.ndarray | None = None
        bounds = np.append(bucket_base, len(offsets))
        self.tables = [
            GridTable(shifts[t], cell_width, point_bucket[t], order[t],
                      offsets[bounds[t] : bounds[t + 1]])
            for t in range(ell)
        ]

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def query(self, point_id: int) -> np.ndarray:
        """Live ids within the sandwich around the stored point, ascending.

        The queried point may itself have been removed; it is then excluded
        like any other dead id.  All L buckets of the point are gathered in
        one step.  On an index that holds dead ids, a query also compacts
        each bucket it reads: the bucket's live ids move, in their order, to
        its front and its live end moves down, so a dead id is read at most
        once per table.  Such a query writes to the tables, so queries and
        removals on one index must not run concurrently.
        """
        if self.mode == "exact":
            dr = dists_from(self.ds.points, point_id)
            return np.flatnonzero(self.live & (dr <= self.radius))
        self.table_accesses += len(self.tables)
        bucket = self._bucket_base + self._point_bucket[:, point_id]
        local_start = self._offsets[bucket]
        local_end = self._offsets[bucket + 1] if self._live_end is None else self._live_end[bucket]
        start = local_start + self._row_base
        length = local_end - local_start
        self.entries_scanned += int(length.sum())
        cand = self._order[_segment_positions(start, length)]
        if self._live_end is not None:
            alive = self.live[cand]
            if not alive.all():
                # reduceat cannot sum an empty segment, so those keep 0.
                read = length > 0
                kept = np.zeros(len(length), dtype=np.int64)
                kept[read] = np.add.reduceat(alive, (np.cumsum(length) - length)[read],
                                             dtype=np.int64)
                cand = cand[alive]
                self._order[_segment_positions(start, kept)] = cand
                self._live_end[bucket] = local_start + kept
        cand = np.unique(cand)
        if cand.size == 0:
            return cand.astype(np.int64)
        diff = self.ds.points[cand] - self.ds.points[point_id]
        sq = np.einsum("ij,ij->i", diff, diff)
        reach = self.c * self.radius
        return cand[sq <= reach * reach].astype(np.int64)

    def remove_many(self, point_ids: np.ndarray) -> None:
        """Mark points dead; they never appear in later query results."""
        self.live[point_ids] = False
        if self.tables and self._live_end is None and len(point_ids):
            self._live_end = self._offsets[1:].copy()


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
        return NeighborhoodIndex(ds, radius, c, mode, seed)

    n, d = ds.n, ds.d
    if delta is None:
        delta = min(0.5, 1.0 / (n * n))
    ell = num_tables(n, d, c, delta, num_levels)
    cell_width = c * radius / math.sqrt(d)
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(0.0, cell_width, size=(ell, d))
    mixers = rng.integers(0, 1 << 63, size=(ell, d), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    order = np.empty((ell, n), dtype=np.int32)
    point_bucket = np.empty((ell, n), dtype=np.int32)
    # Sized for n buckets per table, then shrunk in place: the bucket count
    # is known only after each table's sort, and a grown copy would double
    # the offsets' peak memory.
    offsets = np.empty(ell * (n + 1), dtype=np.int32)
    bucket_base = np.empty(ell, dtype=np.int64)
    used = 0
    for t in range(ell):
        bucket_base[t] = used
        used += 1 + _fill_table(ds.points, cell_width, shifts[t], mixers[t],
                                order[t], point_bucket[t], offsets[used:])
    offsets.resize(used, refcheck=False)
    return NeighborhoodIndex(ds, radius, c, mode, seed, shifts, cell_width, order,
                             point_bucket, offsets, bucket_base)


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
    "dup" radius is exactly B(p, R) ∩ live = B(p, c·R) ∩ live.  The
    partition may be shared with other indexes, so an index that removes
    points compacts its own copy of the member order, as the grid index
    compacts its buckets.
    """

    def __init__(self, groups: DuplicateGroups):
        self.groups = groups
        self.live = np.ones(len(groups.group_of), dtype=bool)
        self.entries_scanned = 0
        self._order: np.ndarray | None = None
        self._live_end: np.ndarray | None = None

    def query(self, point_id: int) -> np.ndarray:
        g = self.groups.group_of[point_id]
        start = self.groups.offsets[g]
        if self._live_end is None:
            members = self.groups.order[start : self.groups.offsets[g + 1]].copy()
            self.entries_scanned += len(members)
            return members
        members = self._order[start : self._live_end[g]]
        self.entries_scanned += len(members)
        members = members[self.live[members]]
        self._order[start : start + len(members)] = members
        self._live_end[g] = start + len(members)
        return members

    def remove_many(self, point_ids: np.ndarray) -> None:
        self.live[point_ids] = False
        if self._live_end is None and len(point_ids):
            self._order = self.groups.order.copy()
            self._live_end = self.groups.offsets[1:].copy()


class _AllPointsIndex(_DuplicateGroupIndex):
    """Neighborhood structure for radii that cover the whole point set.

    Built over the one-group partition, so a query returns every live point.
    """


def degenerate_index(kind: str, groups: DuplicateGroups) -> _DuplicateGroupIndex:
    """Index for an "all" or "dup" radius over that kind's partition."""
    return _AllPointsIndex(groups) if kind == "all" else _DuplicateGroupIndex(groups)
