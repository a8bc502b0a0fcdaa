"""Distance, cost, normalization, radius schedule, and projection."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzclust.metric import (
    ClusterParams,
    DataRangeError,
    Dataset,
    bbox_diagonal,
    cost,
    distance,
    jl_project,
    level_radii,
    min_nonzero_distance,
    normalize,
    radius_fraction,
)

from conftest import uniform_dataset


class TestDistance:
    def test_identity(self):
        assert distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_3_4_5(self):
        assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_unit_cube_diagonal(self):
        assert distance([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]) == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance([0.0, 0.0], [1.0, 2.0, 3.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        p, q, r = rng.uniform(-10, 10, size=(3, 4))
        assert distance(p, r) <= (distance(p, q) + distance(q, r)) * (1 + 1e-9)


class TestCost:
    def test_point_is_its_own_center(self):
        ds = Dataset(np.array([[2.0, 3.0]]))
        assert cost(ds, [0], 2.0) == 0.0

    def test_single_distance_powers(self):
        ds = Dataset(np.array([[0.0], [2.0]]))
        assert cost(ds, [0], 1.0) == 2.0
        assert cost(ds, [0], 2.0) == 4.0

    def test_matches_direct_sum_oracle(self):
        ds = uniform_dataset(5, 2, seed=7)
        centers = [1, 3]
        expected = 0.0
        for p in ds.points:
            best = min(math.dist(p, ds.points[s]) for s in centers)
            expected += best**2
        assert cost(ds, centers, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_under_superset(self):
        ds = uniform_dataset(30, 3, seed=11)
        base = [4, 9]
        bigger = [4, 9, 17, 23]
        for z in (1.0, 2.0):
            assert cost(ds, bigger, z) <= cost(ds, base, z)

    def test_empty_centers_rejected(self):
        ds = uniform_dataset(3, 2, seed=0)
        with pytest.raises(ValueError):
            cost(ds, [], 2.0)


class TestNormalize:
    def test_two_points_half_apart(self):
        ds = Dataset(np.array([[0.0], [0.5]]))
        scaled, info = normalize(ds, 5.0)
        assert info.scale == 2.0
        assert np.array_equal(scaled.points, np.array([[0.0], [1.0]]))

    def test_already_normalized_line(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0]]))
        scaled, info = normalize(ds, 5.0)
        assert info.scale == 1.0
        assert info.delta == 10.0
        assert np.array_equal(scaled.points, ds.points)

    def test_min_distance_against_exact_oracle(self):
        ds = uniform_dataset(20, 3, seed=3)
        scaled, _ = normalize(ds, 5.0)
        best = math.inf
        pts = scaled.points
        for i in range(20):
            for j in range(i + 1, 20):
                d = math.dist(pts[i], pts[j])
                if d > 0:
                    best = min(best, d)
        assert 1.0 <= best <= 1.0 + 1e-9

    def test_idempotent(self):
        ds = uniform_dataset(25, 2, seed=5)
        scaled, _ = normalize(ds, 5.0)
        _, info2 = normalize(scaled, 5.0)
        assert 1.0 <= info2.scale <= 1.0 + 1e-9

    def test_all_identical_points(self):
        ds = Dataset(np.tile([[0.3, 0.7]], (4, 1)))
        scaled, info = normalize(ds, 5.0)
        assert info.delta == 1.0
        assert info.num_levels == 8
        assert np.array_equal(scaled.points, ds.points)
        # k > 1 on a degenerate multiset is legal: cost is 0 for any centers.
        assert cost(ds, [0, 2], 2.0) == 0.0

    def test_single_point(self):
        ds = Dataset(np.array([[5.0, 5.0]]))
        _, info = normalize(ds, 5.0)
        assert info.delta == 1.0

    def test_duplicates_preserved(self):
        ds = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 3.0]]))
        scaled, info = normalize(ds, 5.0)
        assert scaled.n == 3
        assert np.array_equal(scaled.points[0], scaled.points[1])

    def test_min_nonzero_distance_none_for_degenerate(self):
        assert min_nonzero_distance(np.zeros((3, 2))) is None
        assert min_nonzero_distance(np.zeros((1, 2))) is None


class TestExtremeMagnitudes:
    def test_huge_coordinates(self):
        ds = Dataset(np.array([[1e160, 0.0], [0.0, 0.0], [3e160, 0.0]]))
        assert min_nonzero_distance(ds.points) == 1e160
        assert cost(ds, [1], 1.0) == 4e160

    def test_tiny_spacing(self):
        ds = Dataset(np.array([[0.0, 0.0], [1e-170, 0.0], [3e-170, 0.0]]))
        assert min_nonzero_distance(ds.points) == 1e-170
        scaled, info = normalize(ds, 5.0)
        assert min_nonzero_distance(scaled.points) >= 1.0
        assert info.delta == 10.0

    def test_too_wide_a_range_is_rejected(self):
        with pytest.raises(DataRangeError, match="too wide") as exc:
            min_nonzero_distance(np.array([[0.0, 0.0], [1.0, 0.0], [1e200, 0.0]]))
        assert isinstance(exc.value, ValueError)

    def test_huge_coordinates_on_the_kd_tree_path(self):
        pts = np.zeros((8200, 2))
        pts[:, 0] = np.arange(8200) * 1e160
        # Above the scan limit; differences of large multiples round a little.
        assert min_nonzero_distance(pts) == pytest.approx(1e160, rel=1e-9)


class TestLevelRadii:
    def test_c5_delta_100(self):
        _, info = normalize(Dataset(np.array([[0.0], [1.0], [95.0]])), 5.0)
        assert info.delta == 100.0
        radii = level_radii(info, 5.0)
        expected = [100.0, 10.0, 1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
        assert radii == pytest.approx(expected, rel=1e-15)
        assert len(radii) == 10

    def test_delta_one(self):
        _, info = normalize(Dataset(np.array([[0.0], [1.0]])), 5.0)
        assert info.delta == 1.0
        radii = level_radii(info, 5.0)
        assert len(radii) == 8
        assert radii[0] == 1.0
        assert radii[-1] == pytest.approx((2 * 5.0) ** -7, rel=1e-15)

    def test_geometric_ratio_exact_rational(self):
        _, info = normalize(Dataset(np.array([[0.0], [1.0], [873.0]])), 5.0)
        fracs = [radius_fraction(info, 5.0, lvl) for lvl in range(info.num_levels)]
        for a, b in zip(fracs, fracs[1:]):
            assert a / b == 10
        assert fracs[-1] == Fraction(1, 10**7)

    def test_first_radius_covers_diameter(self):
        ds = uniform_dataset(40, 4, seed=9)
        scaled, info = normalize(ds, 5.0)
        radii = level_radii(info, 5.0)
        assert radii[0] >= bbox_diagonal(scaled.points)
        assert np.all(np.diff(radii) < 0)


class TestJlProject:
    def test_output_dimension(self):
        ds = uniform_dataset(10, 6, seed=1)
        assert jl_project(ds, 6, seed=0).d == 6
        assert jl_project(ds, 3, seed=0).d == 3

    def test_zero_vector_maps_to_zero(self):
        ds = Dataset(np.vstack([np.zeros(8), np.ones(8)]))
        out = jl_project(ds, 4, seed=2)
        assert np.array_equal(out.points[0], np.zeros(4))

    def test_deterministic(self):
        ds = uniform_dataset(10, 6, seed=1)
        a = jl_project(ds, 3, seed=42)
        b = jl_project(ds, 3, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_distance_preservation(self):
        ds = uniform_dataset(50, 64, seed=4)
        n = ds.n
        orig = np.array([[math.dist(ds.points[i], ds.points[j])
                          for j in range(i + 1, n)] for i in range(n - 1)], dtype=object)
        orig_flat = np.array([d for row in orig for d in row])
        for seed in range(20):
            proj = jl_project(ds, 16, seed=seed)
            proj_flat = np.array([math.dist(proj.points[i], proj.points[j])
                                  for i in range(n - 1) for j in range(i + 1, n)])
            ratio = proj_flat / orig_flat
            frac = np.mean((ratio >= 0.5) & (ratio <= 2.0))
            assert frac >= 0.9


class TestValidation:
    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.0, np.nan]]))

    def test_dataset_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(k=0)
        with pytest.raises(ValueError):
            ClusterParams(k=1, z=0.5)
        with pytest.raises(ValueError):
            ClusterParams(k=1, c=4.0)
