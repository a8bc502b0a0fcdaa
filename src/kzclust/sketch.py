"""Mergeable distinct-count sketches and per-point neighborhood values.

A DistinctSketch keeps t independent max-rank registers, where the rank of
an id under copy j is the index of the lowest set bit of a seeded 64-bit
hash.  The cardinality estimate is the median over copies of 2^register;
the classical guarantee puts a fixed set's estimate within a factor 3 of
its true size with probability 2/3 per copy, boosted by the median.

Merging is register-wise max, which represents set union exactly: the
sketch of A ∪ B equals merge(sketch(A), sketch(B)) register for register.

compute_values runs the full estimation pipeline for one radius R: sketch
every bucket of every grid table of a radius-R neighborhood index, and give
each point the estimated size of the union of its buckets times R^z.  It
streams the tables lsh.build would draw, one at a time, and builds no
index: each point's own ranks start its registers, so only the buckets
that two or more points share are reduced.  With probability 1 - delta
this lands, for all points simultaneously, inside

    R^z · |B(p, R) ∩ P| / 3  <=  value[p]  <=  3 R^z · |B(p, c·R) ∩ P|.

group_estimates is the same bucket step over a single partition, for the
degenerate radii where one group already is the ball (lsh.radius_kind): the
estimate then meets the sandwich for every point at once.

Sketch contents are immutable once built by compute_values; construction
can run level-parallel since streams are derived per level.
"""

from __future__ import annotations

import math

import numpy as np

from . import lsh
from .metric import Dataset, dists_from
from .seeding import GOLDEN, MASK64, derive_seed, mix64_array

_EMPTY_REGISTER = -1


def default_copies(n: int) -> int:
    """Register count t = ceil(3·log2(n)) used by the estimation pipeline."""
    if n < 2:
        return 1
    return math.ceil(3.0 * math.log2(n))


def rank_matrix(ids: np.ndarray, copies: int, seed: int) -> np.ndarray:
    """Rank of each id under each copy: lowest set bit of a mixed 64-bit hash.

    Shape (len(ids), copies), int8; a zero hash gets rank 64.
    """
    ids = np.asarray(ids, dtype=np.uint64).reshape(-1, 1)
    copy_seeds = mix64_array(
        (np.uint64(seed & MASK64) + np.arange(1, copies + 1, dtype=np.uint64) * np.uint64(GOLDEN))
    ).reshape(1, -1)
    h = mix64_array((ids + np.uint64(1)) * np.uint64(GOLDEN) ^ copy_seeds)
    lowbit = h & (np.bitwise_not(h) + np.uint64(1))
    ranks = np.empty(h.shape, dtype=np.int8)
    zero = lowbit == 0
    with np.errstate(divide="ignore"):
        ranks[:] = np.where(zero, 64, np.log2(lowbit.astype(np.float64))).astype(np.int8)
    return ranks


def _median_estimate(registers: np.ndarray) -> np.ndarray | float:
    """Median over the last axis of 2^register, as np.median computes it.

    The registers are partitioned as int8; for an even count the two middle
    powers of two are averaged, which is exact, as in np.median.
    """
    t = registers.shape[-1]
    mid = t // 2
    if t % 2:
        middle = np.partition(registers, mid, axis=-1)[..., mid]
        return 2.0 ** middle.astype(np.float64)
    middle = np.partition(registers, (mid - 1, mid), axis=-1)
    lo = middle[..., mid - 1].astype(np.float64)
    hi = middle[..., mid].astype(np.float64)
    return (2.0**lo + 2.0**hi) / 2


class DistinctSketch:
    """Max-rank cardinality sketch with t copies; empty registers are -1."""

    __slots__ = ("copies", "seed", "registers")

    def __init__(self, copies: int, seed: int, registers: np.ndarray | None = None):
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        self.copies = copies
        self.seed = seed
        if registers is None:
            registers = np.full(copies, _EMPTY_REGISTER, dtype=np.int8)
        self.registers = registers

    def insert(self, point_id: int) -> "DistinctSketch":
        """Fold one id in; registers only grow, so re-insertion is a no-op."""
        ranks = rank_matrix(np.array([point_id]), self.copies, self.seed)[0]
        np.maximum(self.registers, ranks, out=self.registers)
        return self

    def insert_many(self, point_ids: np.ndarray) -> "DistinctSketch":
        if len(point_ids) == 0:
            return self
        ranks = rank_matrix(np.asarray(point_ids), self.copies, self.seed)
        np.maximum(self.registers, ranks.max(axis=0), out=self.registers)
        return self

    def merge(self, other: "DistinctSketch") -> "DistinctSketch":
        """Union of the underlying sets, register-wise max.  Pure."""
        if self.copies != other.copies or self.seed != other.seed:
            raise ValueError("cannot merge sketches with different copies or seed")
        return DistinctSketch(
            self.copies, self.seed, np.maximum(self.registers, other.registers)
        )

    def estimate(self) -> float:
        """Median over copies of 2^register; 0 for the empty sketch."""
        if self.registers[0] == _EMPTY_REGISTER:
            # Registers move in lockstep from the sentinel: all or none are set.
            return 0.0
        return float(_median_estimate(self.registers))


def sketch_of(point_ids: np.ndarray, copies: int, seed: int) -> DistinctSketch:
    """Sketch of a set of ids in one shot."""
    return DistinctSketch(copies, seed).insert_many(point_ids)


def exact_counts(ds: Dataset, radii: np.ndarray) -> np.ndarray:
    """|B(p, R) ∩ P| for every point and every radius; shape (len(radii), n)."""
    n = ds.n
    counts = np.empty((len(radii), n), dtype=np.int64)
    radii = np.asarray(radii, dtype=np.float64)
    for i in range(n):
        row = np.sort(dists_from(ds.points, i))
        counts[:, i] = np.searchsorted(row, radii, side="right")
    return counts


def _bucket_max(ranks: np.ndarray, order: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Register maxima per bucket of a CSR partition; shape (buckets, copies)."""
    return np.maximum.reduceat(ranks[order], offsets[:-1], axis=0)


def group_estimates(groups: lsh.DuplicateGroups, seed: int) -> np.ndarray:
    """Estimated size of each point's group; shape (n,)."""
    n = len(groups.group_of)
    ranks = rank_matrix(np.arange(n), default_copies(n), seed)
    return _median_estimate(_bucket_max(ranks, groups.order, groups.offsets))[groups.group_of]


def compute_values(ds: Dataset, radius: float, c: float, z: float,
                   delta: float | None = None, seed: int = 0,
                   num_levels: int = 1) -> np.ndarray:
    """Estimated ball value at one radius for every point; shape (n,).

    The grid tables are those lsh.build draws from derive_seed(seed,
    "tables"), streamed one at a time.
    """
    n = ds.n
    cell_width, shifts, mixers = lsh.draw_tables(n, ds.d, radius, c, delta,
                                                 derive_seed(seed, "tables"), num_levels)
    ranks = rank_matrix(np.arange(n), default_copies(n), derive_seed(seed, "ranks"))
    # Every point sits in its own bucket of every table (and there is at
    # least one), so its own ranks start the running maximum and only buckets
    # shared by two or more points can raise it.
    merged = ranks.copy()
    points_t = np.ascontiguousarray(ds.points.T)
    for shift, mix in zip(shifts, mixers):
        order, first = lsh.table_buckets(points_t, cell_width, shift, mix)
        shared = ~(first & np.append(first[1:], True))
        members = order[shared]
        if len(members) == 0:
            continue
        offsets = np.flatnonzero(np.append(first[shared], True))
        bucket_max = _bucket_max(ranks, members, offsets)
        merged[members] = np.maximum(merged[members],
                                     np.repeat(bucket_max, np.diff(offsets), axis=0))
    return _median_estimate(merged) * radius**z
