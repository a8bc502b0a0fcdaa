"""Distance, cost, normalization, radius schedule, and projection."""

import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from kzclust import metric
from kzclust.metric import (
    ClusterParams,
    DataRangeError,
    Dataset,
    bbox_diagonal,
    cost,
    jl_project,
    level_radii,
    min_nonzero_distance,
    normalize,
)

from conftest import (mixture_dataset, reference_min_nonzero_distance, reference_normalize,
                      uniform_dataset, with_duplicates)


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

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_underflowing_cost_is_data_error(self, scale):
        # At 1e-300 every squared distance rounds to 0; at 1e-160 the sum is
        # subnormal.  With every point a center the cost is exactly 0.
        ds = Dataset(np.random.default_rng(0).standard_normal((300, 3)) * scale)
        for centers in ([0], [0, 1, 2, 3, 4]):
            with pytest.raises(DataRangeError, match="too small"):
                cost(ds, centers, 2.0)
        assert cost(ds, range(300), 2.0) == 0.0

    @pytest.mark.parametrize("block", [1, 100, 1000, 1 << 20])
    def test_blocks_match_one_distance_matrix(self, monkeypatch, block):
        monkeypatch.setattr(metric, "_COST_BLOCK", block)
        for n, d, k, seed in [(50, 2, 7, 1), (300, 5, 300, 2), (97, 3, 13, 3)]:
            ds = uniform_dataset(n, d, seed=seed)
            centers = np.random.default_rng(seed).permutation(n)[:k]
            pts, e = metric._unit_scaled(ds.points)
            nearest = np.ldexp(cdist(pts, pts[centers]).min(axis=1), e)
            for z in (1.0, 2.0):
                assert cost(ds, centers, z) == float(np.sum(nearest**z))

    def test_all_points_as_centers_stay_within_memory(self):
        # One 4000 x 4000 distance matrix alone would take 128 MB.
        ds = uniform_dataset(4000, 2, seed=5)
        tracemalloc.start()
        try:
            assert cost(ds, range(4000), 2.0) == 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


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

    def test_least_gap_too_small_to_rescale_is_rejected(self):
        # The gap 1e-310 is exact at the points' own exponent, but 1/1e-310
        # overflows, so no float64 scale brings it up to 1.
        with pytest.raises(DataRangeError, match="too small"):
            normalize(Dataset(np.array([[0.0], [1e-310], [3e-310]])), 5.0)
        scaled, _ = normalize(Dataset(np.array([[0.0], [2e-300], [5e-300]])), 5.0)
        assert min_nonzero_distance(scaled.points) >= 1.0

    def test_huge_coordinates_on_the_kd_tree_path(self):
        pts = np.zeros((8200, 2))
        pts[:, 0] = np.arange(8200) * 1e160
        # Differences of large multiples round a little; the KD-tree pass
        # still gives the all-pairs scan's minimum to the bit.
        assert min_nonzero_distance(pts) == reference_min_nonzero_distance(pts)


def _lattice(side: int, d: int) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(float(side))] * d, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, d)


def _ulp_steps(seed: int, center: float, span: int, checkerboard: bool) -> np.ndarray:
    """Points center + k·spacing(center) in 2-d, k an integer pair below span.

    Coordinates then far exceed the gaps, so rescaling rounds each of them by
    a visible share of the minimum distance.  On the checkerboard (k1 + k2
    even) the closest pairs are one step apart in both coordinates.
    """
    steps = np.random.default_rng(seed).integers(0, span, size=(400, 2))
    if checkerboard:
        steps = steps[steps.sum(axis=1) % 2 == 0]
    return center + steps * np.spacing(center)


_POINT_FAMILIES = {
    "mixture-d1": lambda seed: mixture_dataset(500, 1, 8, 0.05, seed).points,
    "mixture-d2": lambda seed: mixture_dataset(500, 2, 8, 0.05, seed).points,
    "mixture-d8": lambda seed: mixture_dataset(500, 8, 8, 0.05, seed).points,
    "mixture-d64": lambda seed: mixture_dataset(300, 64, 8, 0.05, seed).points,
    "lattice-2d": lambda seed: _lattice(8 + seed % 25, 2),
    "lattice-3d": lambda seed: _lattice(3 + seed % 8, 3) * 0.1,
    "duplicates": lambda seed: with_duplicates(400, 3, seed, dup_fraction=0.5).points,
    "rounded": lambda seed: np.random.default_rng(seed).integers(0, 6, size=(300, 2)) * 0.37,
    "ulp-checkerboard": lambda seed: _ulp_steps(seed, 1e9, 16, checkerboard=True),
    "ulp-scatter": lambda seed: _ulp_steps(seed, 6e8, 3000, checkerboard=False),
}


class TestMinDistanceOracle:
    """The KD-tree pass against the blocked all-pairs cdist scan, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(_POINT_FAMILIES)), st.integers(0, 2**31),
           st.sampled_from([1.0, 1e160, 1e-170]))
    def test_matches_blocked_scan(self, family, seed, scale):
        points = _POINT_FAMILIES[family](seed) * scale
        assert min_nonzero_distance(points) == reference_min_nonzero_distance(points)

    def test_lattice_with_many_tied_pairs(self):
        points = _lattice(60, 2)
        assert min_nonzero_distance(points) == reference_min_nonzero_distance(points) == 1.0


def _assert_normalize_matches_reference(points: np.ndarray):
    """normalize(points) equals reference_normalize bit for bit, errors included."""
    ds = Dataset(points)
    try:
        expected = reference_normalize(ds, 5.0)
    except DataRangeError:
        with pytest.raises(DataRangeError):
            normalize(ds, 5.0)
        return None
    scaled, info = normalize(ds, 5.0)
    assert info == expected[1]
    assert np.array_equal(scaled.points, expected[0].points)
    return scaled, info


class TestOnePassNormalize:
    """normalize's one KD-tree pass against the two-pass reference, bit for bit."""

    def test_small_queries_run_on_one_worker(self):
        assert metric._workers(metric._PARALLEL_MIN_COORDS - 1) == 1
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        assert metric._workers(metric._PARALLEL_MIN_COORDS) == cores

    def test_workers_where_the_platform_has_no_affinity_call(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert metric._workers(metric._PARALLEL_MIN_COORDS) == (os.cpu_count() or 1)
        points = mixture_dataset(8200, 8, 16, 0.05, 0).points  # 65600 coordinates
        _assert_normalize_matches_reference(points)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(_POINT_FAMILIES)), st.integers(0, 2**31),
           st.sampled_from([1.0, 3.7, 1e160, 1e-170]), st.sampled_from([0.0, 1e6, 1e9]))
    def test_matches_two_pass_reference(self, family, seed, scale, offset):
        # Offsets far above the spacing make rescaling round each coordinate
        # by a visible share of the minimum distance.
        points = (_POINT_FAMILIES[family](seed) + offset) * scale
        _assert_normalize_matches_reference(points)

    def test_far_lattice(self):
        points = _lattice(60, 2) * 0.1 + 1e7
        assert _assert_normalize_matches_reference(points) is not None

    def test_bump_branch_runs(self):
        bumped = 0
        for seed in range(4):
            points = _POINT_FAMILIES["mixture-d2"](seed) + 1e9
            _, info = _assert_normalize_matches_reference(points)
            bumped += info.scale != 1.0 / reference_min_nonzero_distance(points)
        assert bumped

    def test_rows_that_rescaling_merges(self):
        # Steps of (1, 1) rescale to about 0.7 at a rounding grid of 1, so
        # some distinct rows become one row, and np.unique drops their pair.
        for seed in range(4):
            points = _POINT_FAMILIES["ulp-checkerboard"](seed)
            scale = 1.0 / reference_min_nonzero_distance(points)
            assert len(np.unique(points * scale, axis=0)) < len(np.unique(points, axis=0))
            _assert_normalize_matches_reference(points)
        # Two such rows alone rescale onto one row and leave no pair at all.
        pair = 1e9 + np.array([[0.0, 0.0], [1.0, 1.0]]) * np.spacing(1e9)
        scale = 1.0 / reference_min_nonzero_distance(pair)
        assert reference_min_nonzero_distance(pair * scale) is None
        _assert_normalize_matches_reference(pair)

    def test_pairs_beyond_the_minimum_that_rescale_below_it(self):
        # At seed 4 the rescaled minimum comes from a pair farther apart than
        # the closest pair by more than the relative slack alone allows.
        for seed in range(8):
            _assert_normalize_matches_reference(_POINT_FAMILIES["ulp-scatter"](seed) * 3.7)

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0], [1.0, 0.0], [1e200, 0.0]],
        [[0.0], [1e-160], [1e160]],
        # The squared unit-scaled gap is subnormal: it would round 0.75·2^-536 up to 2^-536.
        [[0.0], [1.5 * 2.0**-537], [1.5 * (1 + 2.0**-50)]],
    ])
    def test_range_error_parity(self, points):
        with pytest.raises(DataRangeError):
            reference_normalize(Dataset(np.array(points)), 5.0)
        with pytest.raises(DataRangeError):
            normalize(Dataset(np.array(points)), 5.0)


def _assert_min_matches_reference(points: np.ndarray):
    """min_nonzero_distance(points) equals the reference bit for bit, errors included."""
    try:
        expected = reference_min_nonzero_distance(points)
    except DataRangeError:
        with pytest.raises(DataRangeError):
            min_nonzero_distance(points)
        return
    assert min_nonzero_distance(points) == expected


def _far_tight_clusters(n: int, d: int, seed: int, gap: float) -> np.ndarray:
    """Tight clusters around far-apart centers: every row lies far from the centroid,
    and at gap 1e-9 the gaps are far below float32 resolution there."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(4, d))
    return centers[rng.integers(0, 4, size=n)] + rng.normal(size=(n, d)) * gap


def _edge_points(case: str, d: int) -> np.ndarray:
    rng = np.random.default_rng(d)
    if case == "duplicates":
        points = rng.normal(size=(300, d))
        points[100:200] = points[:100]
        return points
    if case == "one-ulp":
        points = rng.normal(size=(300, d))
        points[290:] = np.nextafter(points[:10], np.inf)
        return points
    if case == "huge":
        return rng.normal(size=(300, d)) * 1e300
    if case == "tiny":
        return rng.normal(size=(300, d)) * 1e-300
    if case == "subnormal-unit":
        # Next to the one coordinate 1e100 the others fall to about 1e-320
        # after unit scaling, below the least normal float64.
        points = rng.normal(size=(300, d)) * 1e-220
        points[0, 0] = 1e100
        return points
    if case == "near-subnormal-unit":
        points = rng.normal(size=(300, d)) * 1e-150
        points[0, 0] = 1.0
        return points
    return rng.normal(size=(int(case[1:]), d))  # "n2", "n3"


class TestTileFilter:
    """_closest_pass's float32 tile filter (d >= _TILE_MIN_DIM) against the references."""

    @pytest.fixture(params=["guarded", "unguarded"])
    def guard(self, request, monkeypatch):
        # Unguarded, the filter never gives up, so its bounds pick the
        # candidates even where float32 cannot separate the rows.
        if request.param == "unguarded":
            monkeypatch.setattr(metric, "_TILE_MAX_CANDIDATES", 1.0)

    @pytest.mark.parametrize("d", [metric._TILE_MIN_DIM - 1, metric._TILE_MIN_DIM, 64])
    def test_matches_reference_around_the_min_dim(self, d, guard):
        bumped = 0
        for seed in range(4):
            points = mixture_dataset(300, d, 8, 0.05, seed).points
            _assert_min_matches_reference(points)
            _assert_normalize_matches_reference(points)
            # Far from the origin, rescaling rounds each coordinate by a
            # visible share of the minimum distance, and the scale is bumped.
            points = points + 1e6
            _, info = _assert_normalize_matches_reference(points)
            bumped += info.scale != 1.0 / reference_min_nonzero_distance(points)
        assert bumped

    def test_gaps_below_float32_resolution_give_up_the_tiles(self, guard, monkeypatch):
        points = _far_tight_clusters(600, 64, 0, 1e-9)
        if metric._TILE_MAX_CANDIDATES < 1.0:
            monkeypatch.setattr(metric, "_tile_bounds", mock.Mock(side_effect=AssertionError))
        _assert_min_matches_reference(points)
        _assert_normalize_matches_reference(points)

    @pytest.mark.parametrize("case", ["duplicates", "one-ulp", "huge", "tiny", "subnormal-unit",
                                      "near-subnormal-unit", "n2", "n3"])
    def test_edge_inputs(self, case, guard):
        points = _edge_points(case, 64)
        _assert_min_matches_reference(points)
        _assert_normalize_matches_reference(points)

    @pytest.mark.parametrize("d", [2, 8, metric._TILE_MIN_DIM, 64])
    def test_ulp_steps_far_from_the_origin(self, d):
        # Rows a few ulps apart far from the origin: nearly every row lies
        # within the rescaled reach, so the rescaled pass takes nearly all of
        # them.  From _TILE_MIN_DIM up, many have only a bounded
        # nearest-neighbor distance, and the rescaled minimum can come from
        # a pair of them.
        for seed in range(6):
            for span in (4, 16):
                steps = np.random.default_rng(seed).integers(0, span, size=(400, d))
                for scale in (1.0, 3.7):
                    _assert_normalize_matches_reference((1e9 + steps * np.spacing(1e9)) * scale)

    def test_rescaled_minimum_is_one_pass(self, monkeypatch):
        # Every row of these lies within the rescaled reach of every other,
        # so a scan per row would make one cdist call per row (400).
        calls = []

        def counting_cdist(*args, **kwargs):
            calls.append(1)
            return cdist(*args, **kwargs)

        monkeypatch.setattr(metric, "cdist", counting_cdist)
        steps = np.random.default_rng(0).integers(0, 16, size=(400, 64))
        normalize(Dataset((1e9 + steps * np.spacing(1e9)) * 3.7), 5.0)
        assert len(calls) <= 8

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 400), st.sampled_from([metric._TILE_MIN_DIM, 64]),
           st.integers(0, 2**31), st.sampled_from([0.05, 1e-4, 1e-9]),
           st.sampled_from([None, 1e20, 1e150, 1e300]))
    def test_bounds_hold_the_kd_distance(self, n, d, seed, gap, spike):
        points = _far_tight_clusters(n, d, seed, gap)
        if spike is not None:
            # Next to one huge coordinate the others are tiny after unit
            # scaling, down to where their squares underflow in float64.
            points[0, 0] = spike
        unit, _ = metric._unit_scaled(np.unique(points, axis=0))
        lo, hi = metric._tile_bounds(unit, unit.mean(axis=0))
        kd = metric._kd_nearest(metric.cKDTree(unit), unit)
        assert np.all(lo <= kd) and np.all(kd <= hi)

    def test_kd_query_reads_a_handful_of_rows(self, monkeypatch):
        queried = []

        class CountingTree(metric.cKDTree):
            def query(self, x, k=1, **kwargs):
                if k == 2:
                    queried.append(len(x))
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr(metric, "cKDTree", CountingTree)
        normalize(mixture_dataset(8704, 64, 16, 0.05, 0), 5.0)
        # The guard's strided rows, then a handful of candidates.
        assert queried[0] == metric._GUARD_ROWS
        assert sum(queried[1:]) <= 8


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
        # Each radius is the correctly rounded rational (2c)^(m - level).
        for c in (5.0, 6.0, 7.5):
            _, info = normalize(Dataset(np.array([[0.0], [1.0], [873.0]])), c)
            radii = level_radii(info, c)
            for lvl, radius in enumerate(radii):
                assert radius == float(Fraction(2 * c) ** (info.delta_exponent - lvl))

    def test_negative_powers_round_once(self):
        # 1.0 / float((2c)^k) rounds twice; 2986 of these radii came out one
        # ulp off, the first at c = 95.5, e = -7.
        for tc in range(10, 5000):
            for e in range(-7, 0):
                assert metric._pow_2c(tc / 2, e) == float(Fraction(1, tc ** -e)), (tc, e)

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
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="z must be"):
                ClusterParams(k=1, z=bad)
            with pytest.raises(ValueError, match="c must be"):
                ClusterParams(k=1, c=bad)
