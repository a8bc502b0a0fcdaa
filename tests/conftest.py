"""Shared instance generators for the test suite."""

import numpy as np
import pytest

from kzclust.metric import Dataset, dists_from
from kzclust.seeding import derive_seed


def uniform_dataset(n: int, d: int, seed: int, scale: float = 1.0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(0.0, scale, size=(n, d)))


def mixture_dataset(n: int, d: int, clusters: int, spread: float, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(clusters, d))
    assign = rng.integers(0, clusters, size=n)
    return Dataset(means[assign] + spread * rng.standard_normal((n, d)))


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def instance_seed(family: str, i: int) -> int:
    return derive_seed(0xACCE97, family, i)
