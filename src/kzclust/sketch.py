"""Distinct-count registers and per-point neighborhood values.

rank_matrix gives every id t independent ranks: under copy j, the index of
the lowest set bit of a seeded 64-bit hash.  A set's registers are the
register-wise max of its members' ranks, so the registers of A ∪ B are the
max of those of A and B, an exact union; _bucket_max takes that max for
every bucket of a CSR partition at once.  The cardinality estimate
(_median_estimate) is the median over copies of 2^register; the classical
guarantee puts a fixed set's estimate within a factor 3 of its true size
with probability 2/3 per copy, boosted by the median.

compute_values runs this path for one radius R: each point's registers are
the union over every grid table of a radius-R neighborhood index of its
bucket's, and its value is their estimate times R^z.  It streams the tables
lsh.build would draw, a chunk of tables at a time (lsh.table_buckets), and
builds no index: each point's own ranks start its registers, so only the
buckets that two or more points share are reduced.  With probability
1 - delta this lands, for all points simultaneously, inside

    R^z · |B(p, R) ∩ P| / 3  <=  value[p]  <=  3 R^z · |B(p, c·R) ∩ P|.

The stream stops at the first table that leaves no point alone and whose
every bucket maximum is the whole set's register maximum.  That is exact:
no register can exceed the whole set's, and every point's registers have
just reached it, so no later table could raise one.  On a coarse level,
whose cells are as wide as the set, this is most often within a few tables.

group_estimates is the same bucket step over a single partition, for the
degenerate radii where one group already is the ball (lsh.radius_kind): the
estimate then meets the sandwich for every point at once.

Every function here is pure; levels can be valued in parallel since their
streams are derived per level.
"""

from __future__ import annotations

import math

import numpy as np

from . import lsh
from .metric import Dataset, dists_from
from .seeding import GOLDEN, MASK64, derive_seed, mix64_array


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
    # lowbit - 1 sets exactly the bits below the lowest set bit; a zero hash
    # wraps to all 64 bits set, which is its rank 64.
    return np.bitwise_count(lowbit - np.uint64(1)).astype(np.int8)


def _median_estimate(registers: np.ndarray) -> np.ndarray | float:
    """Median over the last axis of 2^register, as np.median computes it.

    The registers are partitioned as int8 at the two middle positions
    (t-1)//2 and t//2, and the two powers of two there are averaged.  For an
    odd count t both name the middle register, and doubling then halving a
    power of two is exact; for an even count it is np.median's average.
    """
    t = registers.shape[-1]
    lo, hi = (t - 1) // 2, t // 2
    middle = np.partition(registers, (lo, hi), axis=-1)
    return (2.0 ** middle[..., lo].astype(np.float64)
            + 2.0 ** middle[..., hi].astype(np.float64)) / 2


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
    return np.maximum.reduceat(np.take(ranks, order, axis=0), offsets[:-1], axis=0)


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
    "tables"), streamed a chunk of tables at a time.  The stream stops early, with every
    register at the whole set's maximum, once one table puts every point in
    a shared bucket holding that maximum; the values are those of the full
    stream, to the bit.
    """
    n = ds.n
    cell_width, shifts, mixers = lsh.draw_tables(n, ds.d, radius, c, delta,
                                                 derive_seed(seed, "tables"), num_levels)
    ranks = rank_matrix(np.arange(n), default_copies(n), derive_seed(seed, "ranks"))
    top = ranks.max(axis=0)
    # Every point sits in its own bucket of every table (and there is at
    # least one), so its own ranks start the running maximum and only buckets
    # shared by two or more points can raise it.
    merged = ranks.copy()
    # One t-byte void item per register row: a scatter then moves whole rows.
    merged_rows = merged.view(np.dtype((np.void, merged.shape[1]))).reshape(-1)
    chunks = lsh.table_buckets(np.ascontiguousarray(ds.points.T), cell_width, shifts, mixers)
    for order, first in (row for chunk in chunks for row in zip(*chunk)):
        shared = ~(first & np.append(first[1:], True))
        members = order[shared]
        if len(members) == 0:
            continue
        starts = first[shared]
        bucket_max = _bucket_max(ranks, members, np.flatnonzero(np.append(starts, True)))
        if len(members) == n and (bucket_max == top).all():
            # Every point shares a bucket whose maximum is the whole set's,
            # and no register exceeds it: no later table can raise one.
            merged[:] = top
            break
        raised = np.take(merged, members, axis=0)
        np.maximum(raised, np.take(bucket_max, np.cumsum(starts) - 1, axis=0), out=raised)
        merged_rows[members] = raised.view(merged_rows.dtype).reshape(-1)
    return _median_estimate(merged) * radius**z
