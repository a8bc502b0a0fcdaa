"""Shared instance generators and run recorders for the test suite."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from kzclust import greedy
from kzclust.cli import generate_mixture as mixture_dataset  # re-exported for the tests
from kzclust.metric import Dataset, dists_from, normalize
from kzclust.seeding import derive_seed


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


@dataclass
class QueryLog:
    """The index queries of one greedy run, recorded from outside the loop.

    Events are (iteration, level, ids), iterations counted from 1.  An
    iteration's center is the point its level-0 removal query names, and
    unavailable_candidate_hits counts candidates whose ball one level down
    was already unavailable when the query returned.
    """

    candidate_events: list = field(default_factory=list)
    removal_events: list = field(default_factory=list)
    iteration_centers: list = field(default_factory=list)
    unavailable_candidate_hits: int = 0


def record_queries(state: greedy.GreedyState) -> QueryLog:
    """Wrap query on every index of a fresh state; return the log the run fills."""
    log = QueryLog()

    def on_candidates(level, point_id, ids):
        log.candidate_events.append((state.iteration, level, ids))
        log.unavailable_candidate_hits += int((~state.avail.available_mask(ids, level + 1)).sum())

    def on_removal(level, point_id, ids):
        if level == 0:
            log.iteration_centers.append(point_id)
        log.removal_events.append((state.iteration, level, ids))

    def wrap(index, level, record):
        query = index.query

        def logged(point_id):
            ids = query(point_id)
            record(level, point_id, ids)
            return ids

        index.query = logged

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
