"""Neighborhood index: sandwich guarantees, removal, table-count formula."""

import math

import numpy as np
import pytest

from kzclust import lsh
from kzclust.metric import Dataset, bbox_diagonal, dists_from, normalize

from conftest import uniform_dataset, with_duplicates


def brute_ball(ds, pid, radius):
    return set(np.flatnonzero(dists_from(ds.points, pid) <= radius))


class TestExactMode:
    def test_matches_bruteforce(self):
        ds = uniform_dataset(60, 3, seed=2)
        idx = lsh.build(ds, 0.25, c=5.0, mode="exact")
        for pid in range(ds.n):
            assert set(idx.query(pid)) == brute_ball(ds, pid, 0.25)

    def test_line_example(self):
        ds = Dataset(np.array([[0.0], [0.5], [3.0], [10.0]]))
        idx = lsh.build(ds, 1.0, c=5.0, mode="exact")
        assert set(idx.query(0)) == {0, 1}

    def test_no_tables(self):
        ds = uniform_dataset(10, 2, seed=0)
        idx = lsh.build(ds, 0.5, c=5.0, mode="exact")
        assert idx.tables == []


class TestBuild:
    def test_num_tables_formula(self):
        n, d, c = 256, 4, 5.0
        delta = 1.0 / n**2
        num_levels = 9
        ds = uniform_dataset(n, d, seed=1)
        idx = lsh.build(ds, 0.3, c=c, delta=delta, seed=3, mode="lsh", num_levels=num_levels)
        expected = math.ceil(math.exp(2 * d / c) * math.log(n * num_levels / delta))
        assert idx.num_tables == expected
        assert lsh.num_tables(n, d, c, delta, num_levels) == expected

    def test_cell_width(self):
        ds = uniform_dataset(20, 4, seed=1)
        idx = lsh.build(ds, 0.5, c=5.0, seed=0)
        assert idx.tables[0].cell_width == pytest.approx(5.0 * 0.5 / 2.0, rel=1e-12)

    def test_deterministic(self):
        ds = uniform_dataset(40, 4, seed=6)
        a = lsh.build(ds, 0.3, c=5.0, seed=9)
        b = lsh.build(ds, 0.3, c=5.0, seed=9)
        for pid in range(ds.n):
            assert np.array_equal(a.query(pid), b.query(pid))

    def test_table_guard(self):
        ds = uniform_dataset(4, 200, seed=0)
        with pytest.raises(ValueError, match="project"):
            lsh.build(ds, 0.5, c=5.0, mode="lsh")

    def test_table_guard_beyond_float_range(self):
        with pytest.raises(ValueError, match="project"):
            lsh.num_tables(4, 2000, 5.0, 0.5)

    def test_rejects_bad_inputs(self):
        ds = uniform_dataset(4, 2, seed=0)
        with pytest.raises(ValueError):
            lsh.build(ds, -1.0)
        with pytest.raises(ValueError):
            lsh.build(ds, 1.0, mode="nope")
        with pytest.raises(ValueError):
            lsh.num_tables(4, 2, 5.0, 1.5)


class TestQuery:
    def test_singleton(self):
        ds = Dataset(np.array([[1.0, 2.0]]))
        idx = lsh.build(ds, 0.5, c=5.0, seed=0, mode="lsh")
        assert list(idx.query(0)) == [0]

    def test_far_side_two_points(self):
        # Pair at distance 3 with R=1, c=5: collision is allowed (3 <= cR),
        # and anything beyond cR must never appear.
        ds = Dataset(np.array([[0.0], [3.0]]))
        idx = lsh.build(ds, 1.0, c=5.0, seed=0, mode="lsh")
        got = set(idx.query(0))
        assert 0 in got
        assert got <= {0, 1}

    def test_sandwich_per_point(self):
        ds = uniform_dataset(100, 8, seed=8)
        radius, c = 0.3, 5.0
        idx = lsh.build(ds, radius, c=c, seed=17, mode="lsh")
        for pid in range(ds.n):
            got = set(idx.query(pid))
            near = brute_ball(ds, pid, radius)
            far = brute_ball(ds, pid, c * radius)
            assert near <= got <= far

    def test_far_side_deterministic_across_seeds(self):
        ds = uniform_dataset(80, 4, seed=10)
        radius, c = 0.2, 5.0
        for seed in range(10):
            idx = lsh.build(ds, radius, c=c, seed=seed, mode="lsh")
            for pid in range(0, ds.n, 7):
                for q in idx.query(pid):
                    assert math.dist(ds.points[pid], ds.points[q]) <= c * radius * (1 + 1e-9)

    def test_table_access_counter(self):
        ds = uniform_dataset(30, 3, seed=4)
        idx = lsh.build(ds, 0.4, c=5.0, seed=1, mode="lsh")
        idx.table_accesses = 0
        idx.query(5)
        assert idx.table_accesses == idx.num_tables
        idx.query(6)
        assert idx.table_accesses == 2 * idx.num_tables


class TestRemove:
    def test_removed_id_absent_everywhere(self):
        ds = uniform_dataset(50, 3, seed=3)
        idx = lsh.build(ds, 0.5, c=5.0, seed=2, mode="lsh")
        idx.remove_many(np.array([7]))
        for pid in range(ds.n):
            assert 7 not in idx.query(pid)

    def test_query_own_coordinates_after_removal(self):
        ds = uniform_dataset(20, 2, seed=5)
        for mode in ("exact", "lsh"):
            idx = lsh.build(ds, 0.5, c=5.0, seed=2, mode=mode)
            idx.remove_many(np.array([3]))
            assert 3 not in idx.query(3)

    def test_remove_all_empties_queries(self):
        ds = uniform_dataset(15, 2, seed=1)
        idx = lsh.build(ds, 0.5, c=5.0, seed=0, mode="lsh")
        for pid in range(ds.n):
            idx.remove_many(np.array([pid]))
        for pid in range(ds.n):
            assert idx.query(pid).size == 0

    def test_remove_dead_is_noop(self):
        ds = uniform_dataset(10, 2, seed=0)
        idx = lsh.build(ds, 0.5, c=5.0, seed=0, mode="lsh")
        idx.remove_many(np.array([2]))
        idx.remove_many(np.array([2]))
        assert not idx.live[2]

    def test_interleaved_removals_match_exact_replay(self):
        ds = uniform_dataset(200, 4, seed=14)
        radius = 0.3
        exact = lsh.build(ds, radius, c=5.0, mode="exact")
        rng = np.random.default_rng(99)
        removed = set()
        for step in range(50):
            victim = int(rng.integers(ds.n))
            exact.remove_many(np.array([victim]))
            removed.add(victim)
            probe = int(rng.integers(ds.n))
            got = set(exact.query(probe))
            expected = brute_ball(ds, probe, radius) - removed
            assert got == expected

    def test_lsh_sandwich_respects_removals(self):
        ds = uniform_dataset(120, 4, seed=21)
        radius, c = 0.25, 5.0
        idx = lsh.build(ds, radius, c=c, seed=5, mode="lsh")
        rng = np.random.default_rng(7)
        removed = set()
        for _ in range(40):
            victim = int(rng.integers(ds.n))
            idx.remove_many(np.array([victim]))
            removed.add(victim)
            probe = int(rng.integers(ds.n))
            got = set(idx.query(probe))
            near = brute_ball(ds, probe, radius) - removed
            far = brute_ball(ds, probe, c * radius) - removed
            assert near <= got <= far


class TestRadiusKind:
    def test_whole_set_boundary(self):
        diag, c = 12.0, 8.0
        edge = diag * (1.0 + 1e-9)
        assert lsh.radius_kind(edge, c, diag) == "all"
        assert lsh.radius_kind(np.nextafter(edge, 0.0), c, diag) == "grid"

    def test_duplicate_boundary(self):
        # c = 8 makes c·radius exact, so the edge is tested without rounding.
        diag, c = 12.0, 8.0
        edge = 0.999999 / c
        assert lsh.radius_kind(edge, c, diag) == "grid"
        assert lsh.radius_kind(np.nextafter(edge, 0.0), c, diag) == "dup"


class TestDegenerateIndexes:
    @pytest.mark.parametrize("kind", ["all", "dup"])
    def test_query_matches_exact_mode(self, kind):
        c = 5.0
        ds, _ = normalize(with_duplicates(80, 2, seed=4, dup_fraction=0.4), c)
        diag = bbox_diagonal(ds.points)
        radius = 2.0 * diag if kind == "all" else 0.1
        assert lsh.radius_kind(radius, c, diag) == kind
        groups = lsh.degenerate_groups(ds.points)
        index = lsh.degenerate_index(kind, groups[kind])
        exact = lsh.build(ds, radius, c=c, mode="exact")
        rng = np.random.default_rng(3)
        for _ in range(3):
            for pid in range(ds.n):
                assert np.array_equal(index.query(pid), exact.query(pid))
            victims = rng.choice(ds.n, size=15, replace=False)
            index.remove_many(victims)
            exact.remove_many(victims)


class TestNearSideStatistics:
    def test_miss_fraction_small(self):
        # Smoke version of the acceptance check: pooled near-side misses
        # across 10 seeds stay at least an order below 3*delta.
        n, d, radius, c = 200, 8, 0.6, 5.0
        delta = 1.0 / n**2
        misses = 0
        pairs = 0
        for seed in range(10):
            ds = uniform_dataset(n, d, seed=1000 + seed)
            idx = lsh.build(ds, radius, c=c, delta=delta, seed=seed, mode="lsh")
            for pid in range(n):
                near = brute_ball(ds, pid, radius)
                got = set(idx.query(pid))
                pairs += len(near)
                misses += len(near - got)
        assert pairs > 0
        assert misses / pairs <= 3 * delta
