"""Distinct-count sketches and the per-point value estimation pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzclust import lsh, sketch
from kzclust.metric import Dataset, dists_from, level_radii, normalize
from kzclust.seeding import GOLDEN, MASK64, mix64

from conftest import (exact_nval, reference_values, table_step_cases, uniform_dataset,
                      with_duplicates)


def reference_rank(point_id: int, copy: int, seed: int) -> int:
    """Independent recomputation: lowest set bit of the copy-seeded hash."""
    copy_seed = mix64((seed + (copy + 1) * GOLDEN) & MASK64)
    h = mix64((((point_id + 1) * GOLDEN) & MASK64) ^ copy_seed)
    if h == 0:
        return 64
    return (h & -h).bit_length() - 1


class TestSketchBasics:
    def test_insert_idempotent(self):
        a = sketch.DistinctSketch(10, seed=3).insert(42)
        b = sketch.DistinctSketch(10, seed=3).insert(42).insert(42)
        assert np.array_equal(a.registers, b.registers)

    def test_empty_estimate_is_zero(self):
        assert sketch.DistinctSketch(8, seed=0).estimate() == 0.0

    def test_registers_match_reference_recomputation(self):
        s = sketch.DistinctSketch(12, seed=7)
        for pid in range(64):
            s.insert(pid)
        for j in range(12):
            expected = max(reference_rank(pid, j, 7) for pid in range(64))
            assert s.registers[j] == expected

    def test_registers_only_grow(self):
        s = sketch.DistinctSketch(6, seed=1)
        prev = s.registers.copy()
        for pid in range(20):
            s.insert(pid)
            assert np.all(s.registers >= prev)
            prev = s.registers.copy()


class TestMerge:
    def test_identity_element(self):
        s = sketch.sketch_of(np.arange(10), 8, seed=2)
        empty = sketch.DistinctSketch(8, seed=2)
        assert np.array_equal(s.merge(empty).registers, s.registers)

    def test_idempotent(self):
        s = sketch.sketch_of(np.arange(10), 8, seed=2)
        assert np.array_equal(s.merge(s).registers, s.registers)

    def test_commutative_associative(self):
        a = sketch.sketch_of(np.arange(0, 30), 8, seed=5)
        b = sketch.sketch_of(np.arange(20, 50), 8, seed=5)
        c = sketch.sketch_of(np.arange(45, 60), 8, seed=5)
        assert np.array_equal(a.merge(b).registers, b.merge(a).registers)
        assert np.array_equal(a.merge(b).merge(c).registers, a.merge(b.merge(c)).registers)

    def test_mismatch_rejected(self):
        a = sketch.DistinctSketch(8, seed=1)
        with pytest.raises(ValueError):
            a.merge(sketch.DistinctSketch(8, seed=2))
        with pytest.raises(ValueError):
            a.merge(sketch.DistinctSketch(9, seed=1))

    def test_merge_equals_union_sketch(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            ids_a = rng.choice(2000, size=rng.integers(1, 60), replace=False)
            ids_b = rng.choice(2000, size=rng.integers(1, 60), replace=False)
            seed = int(rng.integers(1 << 32))
            sa = sketch.sketch_of(ids_a, 10, seed)
            sb = sketch.sketch_of(ids_b, 10, seed)
            union = sketch.sketch_of(np.union1d(ids_a, ids_b), 10, seed)
            assert np.array_equal(sa.merge(sb).registers, union.registers)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40), st.integers(0, 2**31))
    def test_insertion_order_invariance(self, ids, seed):
        rng = np.random.default_rng(0)
        shuffled = list(ids)
        rng.shuffle(shuffled)
        a = sketch.DistinctSketch(8, seed)
        b = sketch.DistinctSketch(8, seed)
        for i in ids:
            a.insert(i)
        for i in shuffled:
            b.insert(i)
        assert np.array_equal(a.registers, b.registers)


class TestEstimate:
    def test_singleton_mostly_in_factor_3(self):
        hits = 0
        for seed in range(200):
            s = sketch.DistinctSketch(1, seed).insert(17)
            if 1 / 3 <= s.estimate() <= 3:
                hits += 1
        assert hits >= 100  # true per-seed rate is 3/4 with a single copy

    def test_1024_elements_smoke(self):
        good = 0
        trials = 100
        for seed in range(trials):
            s = sketch.sketch_of(np.arange(1024), 30, seed)
            if 1024 / 3 <= s.estimate() <= 3 * 1024:
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

    def test_deterministic(self):
        ds = uniform_dataset(80, 4, seed=23)
        a = sketch.compute_values(ds, 0.25, c=5.0, z=1.0, seed=11)
        b = sketch.compute_values(ds, 0.25, c=5.0, z=1.0, seed=11)
        assert np.array_equal(a, b)


class TestGroupEstimates:
    def test_one_group_equals_whole_set_sketch(self):
        n, seed = 300, 17
        groups = lsh.degenerate_groups(uniform_dataset(n, 2, seed=1).points)["all"]
        expected = sketch.sketch_of(np.arange(n), sketch.default_copies(n), seed).estimate()
        assert np.all(sketch.group_estimates(groups, seed) == expected)

    def test_each_group_equals_its_sketch(self):
        ds = with_duplicates(120, 2, seed=8, dup_fraction=0.6)
        n, seed = ds.n, 5
        groups = lsh.degenerate_groups(ds.points)["dup"]
        est = sketch.group_estimates(groups, seed)
        for pid in range(n):
            members = np.flatnonzero(groups.group_of == groups.group_of[pid])
            assert est[pid] == sketch.sketch_of(members, sketch.default_copies(n), seed).estimate()
