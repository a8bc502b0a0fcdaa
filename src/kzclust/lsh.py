"""Fixed-radius neighborhood index with point removal.

For a radius R and expansion factor c, a query for point p returns a set N
sandwiched between the two balls:

    B(p, R) ∩ live  ⊆  N  ⊆  B(p, c·R) ∩ live

In "lsh" mode the index keeps L randomly shifted uniform grids with cell
width w = c·R/sqrt(d).  The far side is deterministic: a cell has diameter
at most c·R, and an explicit distance filter guards the floating-point
edge.  The near side holds with probability 1 - delta over the random
shifts, with L = ceil(ln(n·num_levels/delta) / -ln(1 - p)) tables, where
p = (1 - 1/c)^d is the least chance that one table puts two points at
distance at most R in the same cell:

- Two points with difference Δ share a cell of a uniformly shifted grid
  with probability prod_i (1 - |Δ_i|/w).  With x_i = |Δ_i|/w the worst
  case minimizes sum_i log(1 - x_i) subject to sum_i x_i² <= d/c², and
  every term falls as x_i grows, so the minimum lies on the sphere.
- Lagrange: at a stationary point 1/(1 - x_i) = 2λ·x_i, so x_i(1 - x_i)
  is the same for every i and the x_i take at most two values, a and
  1 - a.  The equal split x_i = 1/c gives p.
- -log(1 - sqrt(t)) is concave in t = x² for x <= 1/2, so by Jensen the
  equal split is the minimum among points with every x_i <= 1/2.  Any
  other stationary point has m >= 1 coordinates at b = 1 - a > 1/2, and
  the same concavity shows it loses to the equal split unless
  -log(1 - b) > b²·c²/(2(c - 1)) for some b <= sqrt(d)/c.  For d < 0.99·c²
  that cannot happen once c >= 9.6.  For 5 <= c < 9.6 an enumeration of
  every two-value stationary point, over c in steps of 0.05, finds none
  below p; tests/test_lsh.py repeats it at c = 5, 5.21, 7.5 and 10.
- Outside that domain p is not the worst case: if d >= c² a pair R apart
  along one axis never shares a cell, and for c < 5 one large coordinate
  can beat the equal split (at c = 3.5, d = 12: 0.0097 against 0.0176).
  Just below c² it can win too; the same enumeration saw the first such
  d at 0.9968·c².  num_tables rejects c < 5 and d >= 0.99·c².

table_buckets, the one bucketing step, keys each point by its cell (64-bit
mixed) a chunk of tables at a time and numbers a table's buckets in key
order.  The order of ids inside a bucket is unspecified: queries deduplicate
their candidates and value estimation takes maxima, so nothing reads it.  No
index keeps its tables' buckets: value estimation streams them, the fill
reads them once and NeighborhoodIndex.tables builds them anew on each read.

build draws an index's tables (draw_tables) and computes no bucket.  Its
queries are probes, which compute the queried point's and nearby points'
keys table by table and give the tables' answer (see NeighborhoodIndex);
probes counts them.  The one purchase is the fill, which marks each point
no table puts with another point.  It reads one KD-tree pass, which finds
the near points (those with another point inside the probe's box), and
buckets the near points only: every other point shares no cell.  A query
for a marked point answers [p] (or nothing once p is dead) with no probe,
as nearly every removal query of a full ordering does once its index has
filled.  The index fills once probes·_PROBE_COST passes L·n,
where _PROBE_COST is one probe's measured time in table entries: the
budget prices the fill's worst case, every point near, at L·n entries.  By
the ski-rental argument (Karlin, Manasse, Rudolph and Sleator, Algorithmica
1988) the index then spends at most about twice what the cheaper of never
filling and filling at once would have, with the fill counted at that
price.  A fill with few near points costs much less, and against its
actual cost the factor is larger: in a full ordering of 16384 points (d=8
mixture, 2-vCPU Xeon VM) the removal index that fills probed for about
0.23 s, four times its 0.06 s fill, before buying it.  The removal sweep
(greedy.remove_around) skips an index with no live point left, so a
removal index whose points run out before its probes pass the budget
never fills, and a run that sends an index a few queries never fills it
either.

In "exact" mode there are no tables and a query scans the live points, so
N = B(p, R) ∩ live; greedy.init builds such an index only at grid radii.

On normalized data (distinct points at least 1 apart) two kinds of radius
need no tables at all, and radius_kind is the one place that tells them
apart: a radius at least the bounding-box diagonal ("all") puts every point
in B(p, R), and one with c·R < 1 ("dup") puts only p's duplicates in
B(p, c·R).  Their indexes answer from a DuplicateGroups partition -- the
whole set as one group, or the exact-duplicate groups -- and meet the
sandwich with probability 1; their answers are the exact scan's, in
either mode.  Every index kind keeps one removal state (_LiveSet).

Concurrency: a grid query writes nothing but its index's probes counter,
once each the index's box and alone mask (the fill), and on the dataset's
first probe or fill the dataset's cached KD-tree (Dataset.tree), which the
fill reads for its near points; remove_many() writes the live mask.  Calls
on one grid index must therefore not run concurrently.
A degenerate index's query writes only its entries_scanned counter, never
the shared partition.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .metric import Dataset, dists_from
from .seeding import mix64_array

_MAX_TABLES = 2_000_000


def near_collision_probability(d: int, c: float) -> float:
    """p = (1 - 1/c)^d: the least chance that one table puts two points within R in one cell.

    The worst case only for c >= 5 and d < 0.99·c² (see the module docstring).
    """
    return (1.0 - 1.0 / c) ** d


def num_tables(n: int, d: int, c: float, delta: float, num_levels: int = 1) -> int:
    """Table count L = ceil(ln(n·num_levels/delta) / -ln(1 - p)), p = (1 - 1/c)^d.

    A pair at distance at most R misses a shared cell in all L tables with
    probability at most (1 - p)^L <= delta/(n·num_levels).  Raises ValueError
    where p is not the worst case (c < 5 or d >= 0.99·c²), where p is too
    small to change 1 - p, and where L exceeds _MAX_TABLES.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c < 5.0 or d >= 0.99 * c * c:
        raise ValueError(
            f"the grid collision bound needs c >= 5 and d < 0.99·c², got d={d}, c={c}; "
            "project the data to a lower dimension first"
        )
    p = near_collision_probability(d, c)
    # -ln(1 - p).  p's own rounding error, about 2^-53, is magnified by
    # 1/(1 - p) in 1 - p, and p rounds to 1 from c ≈ 1e17; so past p = 0.9,
    # 1 - p is formed as -expm1(ln p) with ln p = d·ln(1 - 1/c).  Up to 0.9
    # log1p(-p) is as accurate, and it keeps L where an exact quotient falls
    # on an integer (n=5, d=1, c=5: ln 125 / ln 5 = 3).
    if p <= 0.9:
        miss_rate = -math.log1p(-p)
    else:
        miss_rate = -math.log(-math.expm1(d * math.log1p(-1.0 / c)))
    # The quotient overflows for delta below about n·num_levels·5.6e-309, and
    # only there is its log split (elsewhere a split could move L by rounding).
    ratio = n * num_levels / delta
    ratio_log = math.log(ratio) if ratio < math.inf else math.log(n * num_levels) - math.log(delta)
    raw = ratio_log / miss_rate if miss_rate > 0.0 else math.inf
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
    where order holds point ids grouped by occupied cell.  The three int32
    arrays are built from table_buckets when an index's tables are read;
    no index keeps them.
    """

    shift: np.ndarray
    cell_width: float
    point_bucket: np.ndarray
    order: np.ndarray
    offsets: np.ndarray


def draw_tables(n: int, d: int, radius: float, c: float, delta: float | None, seed: int,
                num_levels: int = 1) -> tuple[float, np.ndarray, np.ndarray]:
    """Cell width, shifts (L, d) and odd key mixers (L, d) of one radius's L grid tables.

    delta defaults to 1/n^2 (clamped below 1).  build and
    sketch.compute_values both draw here, so one seed gives both the same
    tables.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if delta is None:
        delta = min(0.5, 1.0 / (n * n))
    ell = num_tables(n, d, c, delta, num_levels)
    cell_width = c * radius / math.sqrt(d)
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(0.0, cell_width, size=(ell, d))
    mixers = rng.integers(0, 1 << 63, size=(ell, d), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    return cell_width, shifts, mixers


# The probe checks its first candidates against 2 tables, then twice as many
# each round.  A probe round or table_buckets chunk holds at most _PROBE_CHUNK
# coordinates (or one table): 2^15 float64 coordinates and their keys fit a
# 2 MB L2 cache, 2^18 did not (16384 points, d=8, 172 tables: 127 against 224 ms).
_PROBE_FIRST_TABLES = 2
_PROBE_CHUNK = 1 << 15


def _key_sums(cells: np.ndarray, cell_width: float, mixers: np.ndarray, axis: int) -> np.ndarray:
    """Unmixed cell keys: sum_i floor(cells_i / w)·m_i mod 2^64 along axis.

    cells holds shifted coordinates and is overwritten; mixers broadcasts
    against it.  table_buckets and the probe both compute keys here, so they
    agree to the bit.
    """
    cells *= 1.0 / cell_width
    np.floor(cells, out=cells)
    keys = cells.astype(np.int64).view(np.uint64)
    keys *= mixers
    return np.add.reduce(keys, axis=axis)


def table_buckets(points_t: np.ndarray, cell_width: float, shifts: np.ndarray,
                  mixers: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Bucket the points by their cell in each shifted grid, a chunk of tables at a time.

    points_t is the (d, m) transpose of the points, so every coordinate's
    row is contiguous; shifts and mixers are (L, d).  Yields (order, first)
    per chunk, both (tables, m): a row of order holds the point ids sorted
    by that table's cell key, and first[r, i] is True where order[r, i]
    starts a new bucket.  Buckets are numbered in key order; the order of
    ids inside a bucket is unspecified.
    """
    # 64-bit mixed cell key: sum_i cell_i·m_i mod 2^64, then SplitMix64 (a
    # bijection).  Two distinct cells collide only where sum_i Δ_i·m_i = 0
    # mod 2^64, about 2^-63 per pair over the odd mixers, and the query-time
    # distance filter keeps a collision harmless.  An xor fold would merge
    # cells whose odd coordinates flip sign in pairs, since -x = ~x ^ 1 for
    # odd x, for every mixer draw.
    d, m = points_t.shape
    b = np.uint64(max(1, (m - 1).bit_length()))
    low = (np.uint64(1) << b) - np.uint64(1)
    ids = np.arange(m, dtype=np.uint64)
    step = max(1, _PROBE_CHUNK // (m * d))
    for lo in range(0, len(shifts), step):
        shift, mix = shifts[lo : lo + step].T, mixers[lo : lo + step].T
        keys = mix64_array(_key_sums(points_t[:, None, :] + shift[:, :, None], cell_width,
                                     mix[:, :, None], 0))
        # Each row sorts its keys with the id packed into the low b bits, a plain
        # sort: on 16k keys a fifth of an argsort's time or less (2-vCPU Xeon VM).
        packed = keys & ~low | ids
        packed.sort(axis=1)
        order = (packed & low).astype(np.intp)
        first = np.ones(order.shape, dtype=bool)
        np.not_equal(packed[:, 1:] >> b, packed[:, :-1] >> b, out=first[:, 1:])
        # Distinct keys that agree above the low b bits (about 2^(b-64) per
        # pair) would share a bucket: that chunk sorts its whole keys instead.
        # One flat take gathers the whole keys in sorted order; the row offsets
        # go onto order in place and come off again, so no index array is
        # allocated (65536 keys a table on a 2-vCPU Xeon VM: 93 us against
        # take_along_axis' 237).
        offsets = np.arange(0, keys.size, m)[:, None]
        order += offsets
        whole = np.take(keys, order)
        order -= offsets
        if ((whole[:, 1:] != whole[:, :-1]) & ~first[:, 1:]).any():
            order = np.argsort(keys, axis=1)
            first[:, 1:] = np.diff(np.take_along_axis(keys, order, axis=1)) != 0
        yield order, first


# One probe's price in table entries.  On a 2-vCPU Xeon VM a probe took
# 60-140 us and a fill over all n points 48 ns per table entry, a ratio of
# about 2^11.
_PROBE_COST = 1 << 11


class _LiveSet:
    """Removal state of every index kind: live, its exact live_count, remove_many.

    live is only ever written in place, so it may be a row of a caller's
    array (share_live) that then reads every removal.
    """

    def __init__(self, n: int):
        self.live = np.ones(n, dtype=bool)
        self.live_count = n

    def remove_many(self, point_ids: np.ndarray) -> None:
        """Mark points dead; they never appear in later query results.

        Ids may repeat or be dead already; live_count drops by the number
        of distinct ids this call kills.
        """
        ids = np.asarray(point_ids, dtype=np.int64)
        ids = ids[self.live[ids]]
        # Query answers ascend, so they skip np.unique (0.5 ms on 4096 ids).
        if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
            ids = np.unique(ids)
        self.live[ids] = False
        self.live_count -= ids.size


def share_live(indexes: list) -> np.ndarray:
    """Make each index's live mask a row of one (len(indexes), n) array; return it.

    The rows start as copies of the masks.  An index is shared once: a second
    call would leave the first array reading stale masks, so it raises.
    """
    if any(index.live.base is not None for index in indexes):
        raise ValueError("an index's live mask is already shared")
    live = np.stack([index.live for index in indexes])
    for index, row in zip(indexes, live):
        index.live = row
    return live


class NeighborhoodIndex(_LiveSet):
    """Radius-R neighborhood structure over a fixed dataset; supports removal.

    An index without tables ("exact" mode) scans the live points.  One
    with tables holds their shifts and key mixers and answers by a probe:
    the live points within w in every coordinate (w the cell width, read
    from the dataset's KD-tree with the Chebyshev metric), then within
    c·R, then those whose key (table_buckets) equals the queried point's in
    some table.  Tables are checked in growing chunks, and a candidate
    drops out at its first match.  probes counts them (see the module
    docstring).
    A probe gives the tables' answer: sharing a cell needs every coordinate
    within w, the keys are the same bits, and only a pair of distinct cells
    with one 64-bit key (about 2^-63 per pair) could be answered
    differently.

    Its other state is the box's half-width (_box), computed at the first
    probe or fill and shared by both, and the fill's n-long mask of the
    points alone in all their L buckets, None until the fill (see query).
    """

    def __init__(self, ds: Dataset, radius: float, c: float, cell_width: float = 0.0,
                 shifts: np.ndarray | None = None, mixers: np.ndarray | None = None):
        super().__init__(ds.n)
        self.ds = ds
        self.radius = float(radius)
        self.c = float(c)
        self.probes = 0
        self._cell_width = cell_width
        self._shifts = shifts
        self._mixers = mixers
        self._alone: np.ndarray | None = None

    @property
    def num_tables(self) -> int:
        return 0 if self._shifts is None else len(self._shifts)

    @property
    def tables(self) -> list[GridTable]:
        """The grid tables, each in its own bucket numbering, built anew on each read.

        Reading them changes neither the index nor its answers.
        """
        if self._shifts is None:
            return []
        tables = []
        chunks = table_buckets(np.ascontiguousarray(self.ds.points.T), self._cell_width,
                               self._shifts, self._mixers)
        rows = (row for chunk in chunks for row in zip(*chunk))
        for shift, (order, first) in zip(self._shifts, rows):
            point_bucket = np.empty_like(order, dtype=np.int32)
            point_bucket[order] = np.cumsum(first) - 1
            tables.append(GridTable(shift, self._cell_width, point_bucket,
                                    order.astype(np.int32),
                                    np.append(np.flatnonzero(first), first.size).astype(np.int32)))
        return tables

    @cached_property
    def _box(self) -> float:
        """Chebyshev half-width around a point that holds every point sharing a cell with it.

        Sharing a cell needs |x_i - y_i| < w in exact arithmetic.  The cell
        step's rounding (shift, scale, floor) and the tree's differences
        move that by a few ulps of the largest |coordinate| plus w at most,
        far inside the slack.
        """
        tree = self.ds.tree
        w = self._cell_width
        top = max(np.abs(tree.mins).max(), np.abs(tree.maxes).max())
        return (w + 2.0**-48 * (top + w)) * (1.0 + 2.0**-48)

    def _near(self) -> np.ndarray:
        """Ids with another point inside their box (see _box), ascending."""
        box = self._box
        # The tree's bound is strict and the box inclusive: bound one ulp up.
        second, _ = self.ds.tree.query(self.ds.points, k=[2], p=np.inf,
                                       distance_upper_bound=np.nextafter(box, np.inf))
        return np.flatnonzero(second[:, 0] <= box)

    def fill(self) -> None:
        """Mark, once, the points alone in all their L buckets; answers do not change.

        A point with no other point in its box (one KD-tree pass) shares no
        cell and is alone.  A point that shares a bucket with a near point
        is itself near, so the near points' own buckets decide the rest:
        L·|near| table entries, not L·n.
        """
        if self._shifts is None or self._alone is not None:
            return
        near = self._near()
        shared = np.zeros(near.size, dtype=bool)
        if near.size:
            points_t = np.ascontiguousarray(self.ds.points[near].T)
            for order, first in table_buckets(points_t, self._cell_width, self._shifts,
                                              self._mixers):
                # An id is alone where buckets start at it and right after it (or the row ends).
                single = first.copy()
                single[:, :-1] &= first[:, 1:]
                shared[order[~single]] = True
        alone = np.ones(self.ds.n, dtype=bool)
        alone[near[shared]] = False
        self._alone = alone

    def query(self, point_id: int) -> np.ndarray:
        """Live ids within the sandwich around the stored point, ascending.

        The queried point may itself have been removed; it is then excluded
        like any other dead id.  An index without tables scans.  An index
        whose probes times _PROBE_COST have passed L·n fills first (ski
        rental: the probes have then cost about what the fill costs when
        every point is near).  A filled index answers a point alone in all
        its L buckets with itself if live and nothing if dead, with no
        probe; every other query is a probe.
        """
        if self._shifts is None:
            dr = dists_from(self.ds.points, point_id)
            return np.flatnonzero(self.live & (dr <= self.radius))
        if self._alone is None and self.probes * _PROBE_COST > self.num_tables * self.ds.n:
            self.fill()
        if self._alone is not None and self._alone[point_id]:
            return np.array([point_id] if self.live[point_id] else [], dtype=np.int64)
        return self._probe(point_id)

    def _probe(self, point_id: int) -> np.ndarray:
        """The tables' answer for a point, from its key in each table; ascending."""
        self.probes += 1
        points = self.ds.points
        w = self._cell_width
        near = np.asarray(self.ds.tree.query_ball_point(points[point_id], self._box, p=np.inf),
                          dtype=np.int64)
        near = near[self.live[near]]
        diff = points[near] - points[point_id]
        reach = self.c * self.radius
        rest = near[np.einsum("ij,ij->i", diff, diff) <= reach * reach]
        found = [rest[:0]]
        lo, step, ell = 0, _PROBE_FIRST_TABLES, self.num_tables
        while rest.size and lo < ell:
            hi = min(ell, lo + step, lo + max(1, _PROBE_CHUNK // (rest.size * self.ds.d)))
            shifts, mixers = self._shifts[lo:hi], self._mixers[lo:hi]
            home = _key_sums(points[point_id] + shifts, w, mixers, 1)
            keys = _key_sums(points[rest][:, None, :] + shifts, w, mixers, 2)
            hit = (keys == home).any(axis=1)
            found.append(rest[hit])
            rest = rest[~hit]
            lo, step = hi, 2 * step
        return np.sort(np.concatenate(found))


def build(ds: Dataset, radius: float, c: float = 5.0, delta: float | None = None,
          seed: int = 0, mode: str = "lsh", num_levels: int = 1) -> NeighborhoodIndex:
    """Construct a NeighborhoodIndex over the dataset.

    delta defaults to 1/n^2 (clamped below 1).  Deterministic given seed.
    No bucket is computed here; the index fills its alone mask itself once
    its probe count passes the fill's price (NeighborhoodIndex.query).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if mode not in ("exact", "lsh"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        return NeighborhoodIndex(ds, radius, c)
    cell_width, shifts, mixers = draw_tables(ds.n, ds.d, radius, c, delta, seed, num_levels)
    return NeighborhoodIndex(ds, radius, c, cell_width, shifts, mixers)


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


class _DuplicateGroupIndex(_LiveSet):
    """Neighborhood structure for radii below the minimum nonzero distance.

    A query returns the live members of the point's group, which for a
    "dup" radius is exactly B(p, R) ∩ live = B(p, c·R) ∩ live.  The
    partition may be shared with other indexes and is never written.  It
    needs no compaction: a removal sweep kills every id its query returns,
    and that is the whole live part of the group, so a removal index never
    reads a group that is only partly dead.  entries_scanned counts the
    group members, dead ones included, that queries have read.
    """

    def __init__(self, groups: DuplicateGroups):
        super().__init__(len(groups.group_of))
        self.groups = groups
        self.entries_scanned = 0

    def query(self, point_id: int) -> np.ndarray:
        g = self.groups.group_of[point_id]
        members = self.groups.order[self.groups.offsets[g] : self.groups.offsets[g + 1]]
        self.entries_scanned += len(members)
        return members[self.live[members]]


class _AllPointsIndex(_DuplicateGroupIndex):
    """Neighborhood structure for radii that cover the whole point set.

    Built over the one-group partition, so a query returns every live point.
    """


def degenerate_index(kind: str, groups: DuplicateGroups) -> _DuplicateGroupIndex:
    """Index for an "all" or "dup" radius over that kind's partition."""
    return _AllPointsIndex(groups) if kind == "all" else _DuplicateGroupIndex(groups)
