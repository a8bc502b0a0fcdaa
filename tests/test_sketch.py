"""Distinct-count registers and the per-point value estimation pipeline."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kzclust import lsh, sketch
from kzclust.metric import Dataset, bbox_diagonal, dists_from, level_radii, normalize
from kzclust.seeding import GOLDEN, MASK64, mix64

from conftest import (exact_nval, mixture_dataset, reference_values, table_step_cases,
                      uniform_dataset, with_duplicates)


def reference_rank(point_id: int, copy: int, seed: int) -> int:
    """Independent recomputation: lowest set bit of the copy-seeded hash."""
    copy_seed = mix64((seed + (copy + 1) * GOLDEN) & MASK64)
    h = mix64((((point_id + 1) * GOLDEN) & MASK64) ^ copy_seed)
    if h == 0:
        return 64
    return (h & -h).bit_length() - 1


def registers_of(ids, copies: int, seed: int) -> np.ndarray:
    """Registers of a set of ids: the register-wise max of its members' ranks."""
    return sketch.rank_matrix(np.asarray(ids), copies, seed).max(axis=0)


class TestSketchBasics:
    def test_registers_match_reference_recomputation(self):
        ranks = sketch.rank_matrix(np.arange(64), 12, seed=7)
        assert ranks.shape == (64, 12) and ranks.dtype == np.int8
        for pid in range(64):
            for j in range(12):
                assert ranks[pid, j] == reference_rank(pid, j, 7)


class TestMerge:
    """_bucket_max: the register-wise max over each bucket is an exact union."""

    def test_idempotent(self):
        # compute_values folds each point's own ranks into buckets that hold it.
        ranks = sketch.rank_matrix(np.arange(10), 8, seed=2)
        twice = sketch._bucket_max(ranks, np.tile(np.arange(10), 2), np.array([0, 20]))
        assert np.array_equal(twice[0], registers_of(np.arange(10), 8, seed=2))

    def test_commutative_associative(self):
        # Overlapping buckets folded in any order give the registers of their union.
        ranks = sketch.rank_matrix(np.arange(60), 8, seed=5)
        sets = [np.arange(0, 30), np.arange(20, 50), np.arange(45, 60)]
        union = registers_of(np.arange(60), 8, seed=5)
        for perm in itertools.permutations(sets):
            offsets = np.cumsum([0] + [len(ids) for ids in perm])
            buckets = sketch._bucket_max(ranks, np.concatenate(perm), offsets)
            assert np.array_equal(np.maximum(np.maximum(buckets[0], buckets[1]), buckets[2]),
                                  union)

    def test_merge_equals_union_sketch(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            ids_a = rng.choice(2000, size=rng.integers(1, 60), replace=False)
            ids_b = rng.choice(2000, size=rng.integers(1, 60), replace=False)
            seed = int(rng.integers(1 << 32))
            ranks = sketch.rank_matrix(np.arange(2000), 10, seed)
            buckets = sketch._bucket_max(ranks, np.concatenate([ids_a, ids_b]),
                                         np.array([0, len(ids_a), len(ids_a) + len(ids_b)]))
            assert np.array_equal(np.maximum(buckets[0], buckets[1]),
                                  registers_of(np.union1d(ids_a, ids_b), 10, seed))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40), st.integers(0, 2**31))
    def test_insertion_order_invariance(self, ids, seed):
        # The order of ids inside a bucket is unspecified (lsh.table_buckets).
        rng = np.random.default_rng(0)
        ranks = sketch.rank_matrix(np.array(ids), 8, seed)
        offsets = np.unique(np.append(rng.integers(0, len(ids), size=3), [0, len(ids)]))
        shuffled = np.concatenate([rng.permutation(np.arange(lo, hi))
                                   for lo, hi in zip(offsets[:-1], offsets[1:])])
        assert np.array_equal(sketch._bucket_max(ranks, np.arange(len(ids)), offsets),
                              sketch._bucket_max(ranks, shuffled, offsets))


class TestEstimate:
    def test_singleton_mostly_in_factor_3(self):
        hits = 0
        for seed in range(200):
            if 1 / 3 <= sketch._median_estimate(registers_of([17], 1, seed)) <= 3:
                hits += 1
        assert hits >= 100  # true per-seed rate is 3/4 with a single copy

    def test_1024_elements_smoke(self):
        good = 0
        trials = 100
        for seed in range(trials):
            est = sketch._median_estimate(registers_of(np.arange(1024), 30, seed))
            if 1024 / 3 <= est <= 3 * 1024:
                good += 1
        assert good >= 0.95 * trials

    @pytest.mark.parametrize("copies", [1, 2, 35, 36])
    def test_median_equals_numpy_median(self, copies):
        rng = np.random.default_rng(copies)
        registers = rng.integers(-1, 65, size=(500, copies)).astype(np.int8)
        registers[0] = -1
        registers[1] = 64
        registers[2, : copies // 2] = -1
        registers[2, copies // 2 :] = 64
        expected = np.median(2.0 ** registers.astype(np.float64), axis=-1)
        assert np.array_equal(sketch._median_estimate(registers), expected)
        assert sketch._median_estimate(registers[3]) == expected[3]


class TestExactNval:
    def test_isolated_point(self):
        ds = Dataset(np.array([[0.0], [10.0]]))
        assert exact_nval(ds, 0, 0.5, 2.0) == 0.25

    def test_coincident_duplicates(self):
        ds = Dataset(np.zeros((3, 2)))
        assert exact_nval(ds, 0, 2.0, 2.0) == 12.0

    def test_matches_double_loop_oracle(self):
        ds = uniform_dataset(40, 3, seed=13)
        for pid in (0, 7, 39):
            for radius in (0.1, 0.4, 1.0):
                count = 0
                for q in range(ds.n):
                    if np.sqrt(np.sum((ds.points[pid] - ds.points[q]) ** 2)) <= radius:
                        count += 1
                assert exact_nval(ds, pid, radius, 2.0) == count * radius**2

    def test_level_monotonicity(self):
        ds = uniform_dataset(60, 2, seed=17)
        scaled, info = normalize(ds, 5.0)
        radii = level_radii(info, 5.0)
        z, c = 2.0, 5.0
        for pid in range(0, 60, 5):
            for lvl in range(info.num_levels - 1):
                big = exact_nval(scaled, pid, float(radii[lvl]), z)
                small = exact_nval(scaled, pid, float(radii[lvl + 1]), z)
                # exact in rationals; 1e-12 covers the float radius powers
                assert big >= (2 * c) ** z * small * (1 - 1e-12)
                assert (2 * c) ** z * small >= small


class TestComputeValues:
    def test_exact_mode_collapses_to_counts(self):
        ds = uniform_dataset(50, 3, seed=19)
        radius = 0.3
        vals = sketch.exact_counts(ds, np.array([radius]))[0] * radius**2
        for pid in range(ds.n):
            count = int(np.sum(dists_from(ds.points, pid) <= radius))
            assert vals[pid] == count * radius**2

    def test_singleton_dataset(self):
        ds = Dataset(np.array([[1.0, 1.0]]))
        radius, z = 0.5, 2.0
        hits = 0
        for seed in range(200):
            val = sketch.compute_values(ds, radius, c=5.0, z=z, seed=seed)[0]
            if radius**z / 3 <= val <= 3 * radius**z:
                hits += 1
        assert hits >= 100

    def test_sandwich_smoke(self):
        c, z, radius = 5.0, 2.0, 0.2
        for seed in (0, 1):
            ds = uniform_dataset(300, 4, seed=seed)
            vals = sketch.compute_values(ds, radius, c=c, z=z,
                                         delta=1 / 300**2, seed=seed)
            ok = 0
            for pid in range(ds.n):
                dr = dists_from(ds.points, pid)
                near = int(np.sum(dr <= radius))
                far = int(np.sum(dr <= c * radius))
                if radius**z * near / 3 <= vals[pid] <= 3 * radius**z * far:
                    ok += 1
            assert ok >= 0.99 * ds.n

    @pytest.mark.parametrize("case", table_step_cases(), ids=lambda case: case[0])
    def test_streamed_values_match_whole_table_reference(self, case):
        _, ds, radius, _ = case
        for seed in (0, 1):
            got = sketch.compute_values(ds, radius, c=5.0, z=2.0, seed=seed, num_levels=3)
            assert np.array_equal(got, reference_values(ds, radius, 5.0, 2.0, seed=seed,
                                                        num_levels=3))

    @pytest.mark.parametrize("case_id, streamed", [("one-bucket", "one"), ("singletons", "all")])
    def test_stream_stops_once_every_register_holds_the_maximum(self, monkeypatch, case_id,
                                                                streamed):
        # One table of the one-bucket case puts every point in one bucket,
        # whose maximum is the whole set's; with no shared bucket, every
        # table is streamed.
        _, ds, radius, _ = next(case for case in table_step_cases() if case[0] == case_id)
        consumed = []
        table_buckets = lsh.table_buckets

        def one_table_at_a_time(*args):
            for order, first in table_buckets(*args):
                for row in range(len(order)):
                    consumed.append(row)
                    yield order[row : row + 1], first[row : row + 1]

        monkeypatch.setattr(lsh, "table_buckets", one_table_at_a_time)
        got = sketch.compute_values(ds, radius, c=5.0, z=2.0, seed=0, num_levels=3)
        ell = lsh.num_tables(ds.n, ds.d, 5.0, 1.0 / ds.n**2, 3)
        assert len(consumed) == (1 if streamed == "one" else ell)
        assert np.array_equal(got, reference_values(ds, radius, 5.0, 2.0, seed=0, num_levels=3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 80), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from([0.01, 0.05, 0.2]), st.floats(0.1, 1.0), st.integers(0, 2**31))
    def test_values_match_reference_near_the_diameter(self, n, d, clusters, spread, frac, seed):
        # At radii from diag/10 to diag one table may or may not put every
        # point in a bucket with the whole set's maximum, so the stream may
        # stop at any table or run to the end.
        ds = mixture_dataset(n, d, clusters, spread, seed)
        radius = frac * bbox_diagonal(ds.points)
        assume(radius > 0)
        got = sketch.compute_values(ds, radius, c=5.0, z=2.0, seed=seed)
        assert np.array_equal(got, reference_values(ds, radius, 5.0, 2.0, seed=seed))

    def test_deterministic(self):
        ds = uniform_dataset(80, 4, seed=23)
        a = sketch.compute_values(ds, 0.25, c=5.0, z=1.0, seed=11)
        b = sketch.compute_values(ds, 0.25, c=5.0, z=1.0, seed=11)
        assert np.array_equal(a, b)


class TestGroupEstimates:
    def test_one_group_equals_whole_set_sketch(self):
        n, seed = 300, 17
        groups = lsh.degenerate_groups(uniform_dataset(n, 2, seed=1).points)["all"]
        copies = sketch.default_copies(n)
        expected = sketch._median_estimate(registers_of(np.arange(n), copies, seed))
        assert np.all(sketch.group_estimates(groups, seed) == expected)

    def test_each_group_equals_its_sketch(self):
        ds = with_duplicates(120, 2, seed=8, dup_fraction=0.6)
        n, seed = ds.n, 5
        groups = lsh.degenerate_groups(ds.points)["dup"]
        est = sketch.group_estimates(groups, seed)
        for pid in range(n):
            members = np.flatnonzero(groups.group_of == groups.group_of[pid])
            assert est[pid] == sketch._median_estimate(
                registers_of(members, sketch.default_copies(n), seed))
