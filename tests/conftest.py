"""Shared instance generators and run recorders for the test suite."""

import math
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from kzclust import greedy, lsh, sketch
from kzclust.cli import generate_mixture as mixture_dataset  # re-exported for the tests
from kzclust.metric import (EXTRA_LEVELS, DataRangeError, Dataset, ScaleInfo, _delta_exponent,
                            _pow_2c, _unit_scaled, bbox_diagonal, dists_from, normalize)
from kzclust.seeding import derive_seed, mix64_array


def uniform_dataset(n: int, d: int, seed: int, scale: float = 1.0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(0.0, scale, size=(n, d)))


def with_duplicates(n: int, d: int, seed: int, dup_fraction: float = 0.4) -> Dataset:
    """Random points where a fraction are exact copies of earlier rows."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, size=(n, d))
    num_dups = int(n * dup_fraction)
    if num_dups and n > 1:
        src = rng.integers(0, n - num_dups, size=num_dups)
        base[n - num_dups:] = base[src]
    return Dataset(base)


def exact_nval(ds: Dataset, point_id: int, radius: float, z: float) -> float:
    """Exact ball value |B(p, R) ∩ P| · R^z by linear scan."""
    count = int(np.sum(dists_from(ds.points, point_id) <= radius))
    return count * radius**z


def reference_min_nonzero_distance(points: np.ndarray) -> float | None:
    """metric.min_nonzero_distance by a blocked all-pairs cdist scan; the reference."""
    uniq, e = _unit_scaled(np.unique(points, axis=0))
    m = uniq.shape[0]
    if m < 2:
        return None
    best = math.inf
    for start in range(0, m, 1024):
        stop = min(start + 1024, m)
        block = cdist(uniq[start:stop], uniq, metric="sqeuclidean")
        rows = np.arange(stop - start)
        block[rows, rows + start] = np.inf
        best = min(best, float(block.min()))
    if best < sys.float_info.min:
        # A subnormal squared gap has too few bits to be the exact square.
        raise DataRangeError("distances between distinct points span too wide a range for float64")
    return math.ldexp(math.sqrt(best), e)


def reference_normalize(ds: Dataset, c: float) -> tuple[Dataset, ScaleInfo]:
    """metric.normalize with a second full minimum-distance scan of the rescaled
    points to catch a rounding shortfall below 1; the reference."""
    min_d = reference_min_nonzero_distance(ds.points)
    if min_d is None:
        return ds, ScaleInfo(1.0, 1.0, 0, EXTRA_LEVELS)
    if 1.0 <= min_d <= 1.0 + 1e-9:
        scale = 1.0
        scaled = ds
    else:
        scale = 1.0 / min_d
        scaled = Dataset(ds.points * scale)
        m2 = reference_min_nonzero_distance(scaled.points)
        if m2 is not None and m2 < 1.0:
            scale *= (1.0 + 1e-12) / m2
            scaled = Dataset(ds.points * scale)
    m = _delta_exponent(bbox_diagonal(scaled.points), c)
    return scaled, ScaleInfo(scale, _pow_2c(c, m), m, m + EXTRA_LEVELS)


def reference_tables(ds: Dataset, radius: float, c: float, delta: float | None = None,
                     seed: int = 0, num_levels: int = 1) -> list:
    """lsh.build's grid tables as (order, point_bucket, offsets), one table at a
    time on the (n, d) points with a stable sort; the reference."""
    n, d = ds.n, ds.d
    if delta is None:
        delta = min(0.5, 1.0 / (n * n))
    ell = lsh.num_tables(n, d, c, delta, num_levels)
    cell_width = c * radius / math.sqrt(d)
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(0.0, cell_width, size=(ell, d))
    mixers = rng.integers(0, 1 << 63, size=(ell, d), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    tables = []
    for shift, mix in zip(shifts, mixers):
        cells = np.floor((ds.points + shift) * (1.0 / cell_width)).astype(np.int64)
        folded = mix64_array(np.add.reduce(cells.astype(np.uint64) * mix, axis=1))
        order = np.argsort(folded, kind="stable")
        sorted_keys = folded[order]
        is_new = np.empty(n, dtype=bool)
        is_new[0] = True
        is_new[1:] = sorted_keys[1:] != sorted_keys[:-1]
        point_bucket = np.empty(n, dtype=np.int64)
        point_bucket[order] = np.cumsum(is_new) - 1
        tables.append((order, point_bucket, np.append(np.flatnonzero(is_new), n)))
    return tables


def reference_values(ds: Dataset, radius: float, c: float, z: float, delta: float | None = None,
                     seed: int = 0, num_levels: int = 1) -> np.ndarray:
    """sketch.compute_values from the bucket maxima of every bucket of every
    reference table; the reference."""
    n = ds.n
    ranks = sketch.rank_matrix(np.arange(n), sketch.default_copies(n), derive_seed(seed, "ranks"))
    merged = np.full(ranks.shape, -1, dtype=np.int8)
    for order, point_bucket, offsets in reference_tables(
            ds, radius, c, delta, derive_seed(seed, "tables"), num_levels):
        bucket_max = np.maximum.reduceat(ranks[order], offsets[:-1], axis=0)
        np.maximum(merged, bucket_max[point_bucket], out=merged)
    return np.median(2.0 ** merged.astype(np.float64), axis=-1) * radius**z


def table_step_cases() -> list:
    """(id, dataset, radius, expected bucket shape) cases for the grid-table step."""
    return [
        ("singletons", uniform_dataset(200, 3, seed=41), 1e-4, "singletons"),
        ("mixed", uniform_dataset(300, 4, seed=42), 0.2, "mixed"),
        ("one-bucket", uniform_dataset(60, 3, seed=43), 1e7, "one"),
        ("coincident", Dataset(np.full((40, 2), 0.7)), 0.5, "one"),
        ("duplicates", with_duplicates(300, 3, seed=44, dup_fraction=0.6), 0.05, "mixed"),
        ("d1", uniform_dataset(300, 1, seed=45), 0.002, "mixed"),
        ("mixture", mixture_dataset(400, 8, 6, 0.05, 46), 0.05, "mixed"),
    ]


@dataclass
class QueryLog:
    """The index queries of one greedy run, recorded from outside the loop.

    Events are (iteration, level, ids), iterations counted from 1.  An
    iteration's center is the point its first removal query names (the
    sweep skips emptied indexes, but the popped head's level still has a
    live point, so every iteration queries one),
    unavailable_candidate_hits counts candidates whose ball one level down
    was already popped or removed when the query returned, and
    emptied_removal_queries counts removal queries sent to an index with
    no live point.
    """

    candidate_events: list = field(default_factory=list)
    removal_events: list = field(default_factory=list)
    iteration_centers: list = field(default_factory=list)
    unavailable_candidate_hits: int = 0
    emptied_removal_queries: int = 0


def record_queries(state: greedy.GreedyState) -> QueryLog:
    """Wrap pop and every index's query on a fresh state; return the log the run fills."""
    log = QueryLog()
    popped = set()
    pop = state.avail.pop

    def logged_pop():
        ball = pop()
        popped.add(ball)
        return ball

    def on_candidates(level, point_id, ids):
        log.candidate_events.append((state.iteration, level, ids))
        removed = ~state.rem_indexes[level + 1].live[ids]
        log.unavailable_candidate_hits += sum(
            bool(gone) or greedy.BallRef(int(p), level + 1) in popped for p, gone in zip(ids, removed))

    def on_removal(level, point_id, ids):
        if not log.removal_events or log.removal_events[-1][0] != state.iteration:
            log.iteration_centers.append(point_id)
        log.removal_events.append((state.iteration, level, ids))
        log.emptied_removal_queries += state.rem_indexes[level].live_count == 0

    def wrap(index, level, record):
        query = index.query

        def logged(point_id):
            ids = query(point_id)
            record(level, point_id, ids)
            return ids

        index.query = logged

    state.avail.pop = logged_pop
    for level, index in enumerate(state.seq_indexes):
        wrap(index, level, on_candidates)
    for level, index in enumerate(state.rem_indexes):
        wrap(index, level, on_removal)
    return log


def logged_solve(ds: Dataset, params, k: int, mode: str):
    """greedy.solve with the run's index queries recorded: (solution, state, log)."""
    scaled, info = normalize(ds, params.c)
    state = greedy.init(scaled, params, info, mode=mode)
    log = record_queries(state)
    return greedy.run(state, k), state, log


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def instance_seed(family: str, i: int) -> int:
    return derive_seed(0xACCE97, family, i)
