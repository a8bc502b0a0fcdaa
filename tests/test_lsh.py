"""Neighborhood index: sandwich guarantees, removal, table-count formula."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzclust import greedy, lsh
from kzclust.metric import ClusterParams, Dataset, bbox_diagonal, dists_from, normalize

from conftest import (mixture_dataset, reference_tables, table_step_cases, uniform_dataset,
                      with_duplicates)


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
        p = (1 - 1 / c) ** d
        expected = math.ceil(math.log(n * num_levels / delta) / -math.log1p(-p))
        assert idx.num_tables == expected
        assert lsh.num_tables(n, d, c, delta, num_levels) == expected

    def test_num_tables_at_subnormal_delta(self):
        # n·num_levels/delta overflows at delta = 1e-320; the difference of
        # logs does not.
        n, d, c, num_levels = 200, 3, 5.0, 10
        miss_rate = -math.log1p(-((1 - 1 / c) ** d))
        expected = math.ceil((math.log(n * num_levels) - math.log(1e-320)) / miss_rate)
        assert expected == 1038
        assert lsh.num_tables(n, d, c, 1e-320, num_levels) == expected
        assert lsh.num_tables(n, d, c, 1e-300, num_levels) < expected

    @pytest.mark.parametrize("c", [1e16, 1e17, 1e20, 4e43])
    def test_num_tables_at_large_c(self, c):
        # p = (1 - 1/c)^d rounds to 1 from c ≈ 1e17, where ln(1 - p) cannot
        # be taken of p; for c ≫ d, -ln(1 - p) = ln(c/d) + O(d/c).
        n, d, num_levels = 10**6, 8, 30
        delta = 1.0 / n**2
        expected = math.ceil(math.log(n * num_levels / delta) / math.log(c / d))
        assert expected == (1 if c > 1e40 else 2)
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

    def test_table_guard_where_one_axis_spans_a_cell(self):
        # d >= c²: a pair R apart along one axis never shares a cell.
        with pytest.raises(ValueError, match="project"):
            lsh.num_tables(4, 25, 5.0, 0.5)

    def test_table_guard_below_c_five(self):
        # At c < 5 a point with one large coordinate can beat the equal split.
        with pytest.raises(ValueError, match="project"):
            lsh.num_tables(4, 2, 4.5, 0.5)

    def test_table_guard_when_collision_probability_underflows(self):
        d, c = 900_000, 1000.0
        assert d < 0.99 * c * c and lsh.near_collision_probability(d, c) == 0.0
        with pytest.raises(ValueError, match="project"):
            lsh.num_tables(4, d, c, 0.5)

    def test_rejects_bad_inputs(self):
        ds = uniform_dataset(4, 2, seed=0)
        with pytest.raises(ValueError):
            lsh.build(ds, -1.0)
        with pytest.raises(ValueError):
            lsh.build(ds, 1.0, mode="nope")
        with pytest.raises(ValueError):
            lsh.num_tables(4, 2, 5.0, 1.5)


def _bucket_members(order, offsets):
    return [sorted(order[a:b].tolist()) for a, b in zip(offsets[:-1], offsets[1:])]


class TestTableBuckets:
    """An index's tables against the stable one-table-at-a-time reference."""

    @pytest.mark.parametrize("case", table_step_cases(), ids=lambda case: case[0])
    def test_build_matches_reference(self, case):
        _, ds, radius, shape = case
        for seed in (0, 1):
            idx = lsh.build(ds, radius, c=5.0, seed=seed, num_levels=3)
            ref = reference_tables(ds, radius, 5.0, seed=seed, num_levels=3)
            assert idx.num_tables == len(ref)
            sizes = np.concatenate([np.diff(offsets) for _, _, offsets in ref])
            assert {"singletons": sizes.max() == 1, "one": sizes.min() == ds.n,
                    "mixed": sizes.min() == 1 < sizes.max()}[shape]
            for table, (order, point_bucket, offsets) in zip(idx.tables, ref):
                assert np.array_equal(table.offsets, offsets)
                assert np.array_equal(table.point_bucket, point_bucket)
                assert _bucket_members(table.order, table.offsets) == _bucket_members(order, offsets)


class TestChunkedBuckets:
    """table_buckets, a chunk of tables at a time, against the reference tables."""

    # One table a chunk; a few tables a chunk; the default.
    @pytest.mark.parametrize("chunk", [1, 256, 1 << 15])
    @pytest.mark.parametrize("case", table_step_cases(), ids=lambda case: case[0])
    def test_matches_reference(self, chunk, case):
        _, ds, radius, _ = case
        points_t = np.ascontiguousarray(ds.points.T)
        for seed in (0, 1):
            cell_width, shifts, mixers = lsh.draw_tables(ds.n, ds.d, radius, 5.0, None, seed, 3)
            with mock.patch.object(lsh, "_PROBE_CHUNK", chunk):
                chunks = list(lsh.table_buckets(points_t, cell_width, shifts, mixers))
            rows = [row for chunk_rows in chunks for row in zip(*chunk_rows)]
            ref = reference_tables(ds, radius, 5.0, seed=seed, num_levels=3)
            assert len(rows) == len(ref)
            if chunk == 1:
                assert len(chunks) == len(ref)
            for (order, first), (ref_order, _, offsets) in zip(rows, ref):
                assert np.array_equal(np.append(np.flatnonzero(first), ds.n), offsets)
                assert _bucket_members(order, offsets) == _bucket_members(ref_order, offsets)

    @pytest.mark.parametrize("chunk", [1, 1 << 15])
    def test_keys_equal_above_the_packed_ids(self, chunk):
        # Mixed keys cut below 2^12 leave 5 bits above the 7 bits of packed
        # ids (98 points), so many unequal keys agree there and the whole keys
        # must be compared.  The reference buckets the same ids by the same
        # cut keys.
        mix = lsh.mix64_array

        def cut(keys):
            return mix(keys) % np.uint64(1 << 12)

        ds = uniform_dataset(200, 2, seed=3, scale=60.0)
        idx = lsh.build(ds, 0.5, c=5.0, seed=1)
        near = idx._near()
        points_t = np.ascontiguousarray(ds.points[near].T)
        w, shifts, mixers = idx._cell_width, idx._shifts, idx._mixers
        with mock.patch.object(lsh, "mix64_array", cut), \
                mock.patch.object(lsh, "_PROBE_CHUNK", chunk):
            rows = [row for chunk_rows in lsh.table_buckets(points_t, w, shifts, mixers)
                    for row in zip(*chunk_rows)]
        clashes = 0
        for (order, first), shift, mixer in zip(rows, shifts, mixers):
            keys = cut(lsh._key_sums(points_t + shift[:, None], w, mixer[:, None], 0))
            ref = np.argsort(keys, kind="stable")
            starts = np.append(True, keys[ref][1:] != keys[ref][:-1])
            offsets = np.append(np.flatnonzero(starts), near.size)
            assert np.array_equal(np.append(np.flatnonzero(first), near.size), offsets)
            assert _bucket_members(order, offsets) == _bucket_members(ref, offsets)
            clashes += len(np.unique(keys >> np.uint64(7))) < len(np.unique(keys))
        assert near.size == 98 and len(rows) == idx.num_tables and clashes > 0


class TestCellKeys:
    def test_mirrored_cells_get_distinct_buckets(self):
        # Cells (-1, -1) and (1, 1), and (-1, 3) and (1, -3): an xor fold of
        # cell·mixer gives each pair one key for every odd mixer draw, since
        # -x = ~x ^ 1 for odd x.
        points_t = np.array([[-0.5, 1.5, -0.5, 1.5], [-0.5, 1.5, 3.5, -2.5]])
        rng = np.random.default_rng(0)
        odd = rng.integers(0, 1 << 63, size=(50, 2), dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        chunks = list(lsh.table_buckets(points_t, 1.0, np.zeros((50, 2)), odd))
        assert sum(len(first) for _, first in chunks) == 50
        assert all(first.all() for _, first in chunks)


def _collision_rate(diff, cell_width, trials, rng, chunk=25_000):
    """Share of uniformly shifted grids of the given width that put 0 and diff in one cell."""
    hits = 0
    for size in [chunk] * (trials // chunk) + [trials % chunk]:
        shift = rng.uniform(0.0, cell_width, size=(size, len(diff)))
        same = np.floor(shift / cell_width) == np.floor((shift + diff) / cell_width)
        hits += int(same.all(axis=1).sum())
    return hits / trials


def _least_two_value_log(d, c):
    """Smallest sum of log(1 - x_i) over the points with m1 coordinates at a,
    m2 at 1 - a and the rest at 0 that lie on the sphere sum x_i² = d/c²."""
    m1, m2 = np.meshgrid(np.arange(d + 1.0), np.arange(d + 1.0), indexing="ij")
    keep = (m1 + m2 >= 1) & (m1 + m2 <= d)
    m1, m2 = m1[keep], m2[keep]
    # m1·a² + m2·(1 - a)² = d/c², a quadratic in a.
    qa, qb, qc = m1 + m2, -2.0 * m2, m2 - d / c**2
    disc = qb * qb - 4.0 * qa * qc
    real = disc >= 0
    least = math.inf
    for sign in (1.0, -1.0):
        a = (-qb[real] + sign * np.sqrt(disc[real])) / (2.0 * qa[real])
        inside = (a >= 0.0) & (a <= 1.0)
        with np.errstate(divide="ignore"):
            logs = m1[real][inside] * np.log1p(-a[inside]) + m2[real][inside] * np.log(a[inside])
        least = min(least, float(logs.min(initial=math.inf)))
    return least


class TestCollisionBound:
    """p = (1 - 1/c)^d is the least chance that one table puts two points within R in one cell."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_monte_carlo_matches_closed_form(self, d):
        # Tolerance: 5 binomial standard deviations of a rate p over the trials.
        c, radius = 5.0, 1.0
        width = c * radius / math.sqrt(d)
        p = lsh.near_collision_probability(d, c)
        rng = np.random.default_rng(d)
        trials = 200_000
        equal_split = np.full(d, radius / math.sqrt(d))
        assert abs(_collision_rate(equal_split, width, trials, rng) - p) <= (
            5 * math.sqrt(p * (1 - p) / trials))
        trials = 20_000
        for _ in range(20):
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            for norm in (radius, radius * rng.uniform() ** (1 / d)):
                rate = _collision_rate(norm * direction, width, trials, rng)
                assert rate >= p - 5 * math.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("c", [5.0, 5.21, 7.5, 10.0])
    def test_equal_split_is_least_stationary_point(self, c):
        # By Lagrange the x_i = |Δ_i|/w of a stationary point take at most
        # two values a and 1 - a; none may give less than p.
        for d in range(1, math.ceil(0.99 * c * c)):
            bound = math.log(lsh.near_collision_probability(d, c))
            assert _least_two_value_log(d, c) >= bound - 1e-9 * abs(bound)


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


def _grid_built(idx):
    """Each point's union of buckets in the index's tables."""
    return [np.unique(np.concatenate([
        t.order[t.offsets[t.point_bucket[p]] : t.offsets[t.point_bucket[p] + 1]] for t in idx.tables
    ])).astype(np.int64) for p in range(idx.ds.n)]


def _grid_reference(idx, built, pid):
    cand = built[pid][idx.live[built[pid]]]
    diff = idx.ds.points[cand] - idx.ds.points[pid]
    reach = idx.c * idx.radius
    return cand[np.einsum("ij,ij->i", diff, diff) <= reach * reach]


def _group_built(groups):
    return [groups.order[groups.offsets[g] : groups.offsets[g + 1]].copy() for g in groups.group_of]


def _ops(n):
    query = st.tuples(st.just("query"), st.integers(0, n - 1))
    remove = st.tuples(st.just("remove"), st.lists(st.integers(0, n - 1), max_size=n))
    return st.lists(st.one_of(query, remove), max_size=25)


class TestCompaction:
    """Removal state must not change answers, and live_count stays exact.

    Every index kind filters by its live mask: a grid index probes the live
    points near the queried one, and a degenerate index filters the shared
    partition.
    """

    @staticmethod
    def _check(index, reference, n, ops, shared=None, shared_reference=None):
        # After the drawn operations, a fixed tail: one id removed twice in
        # one call, a removed point queried, then every point removed twice.
        tail = [("remove", [0, 0]), ("query", 0)] + [("query", p) for p in range(n)]
        tail += [("remove", list(range(n))), ("remove", list(range(n)))]
        tail += [("query", p) for p in range(n)]
        for op, arg in list(ops) + tail:
            if op == "remove":
                index.remove_many(np.array(arg, dtype=np.int64))
                assert index.live_count == np.count_nonzero(index.live)
                continue
            got, want = index.query(arg), reference(arg)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            if shared is not None:
                assert np.array_equal(shared.query(arg), shared_reference[arg])
        assert all(index.query(p).size == 0 for p in range(n))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grid_matches_buckets_as_built(self, data):
        n = data.draw(st.integers(1, 30))
        d = data.draw(st.integers(1, 3))
        coords = data.draw(st.lists(st.integers(0, 6), min_size=n * d, max_size=n * d))
        ds = Dataset(np.array(coords, dtype=np.float64).reshape(n, d))
        radius = data.draw(st.sampled_from([0.3, 0.7, 1.5]))
        idx = lsh.build(ds, radius, c=5.0, seed=data.draw(st.integers(0, 2**31)))
        built = _grid_built(idx)
        self._check(idx, lambda p: _grid_reference(idx, built, p), n, data.draw(_ops(n)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["all", "dup"]))
    def test_degenerate_matches_groups_as_built(self, data, kind):
        n = data.draw(st.integers(1, 30))
        coords = data.draw(st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n))
        groups = lsh.degenerate_groups(np.array(coords, dtype=np.float64).reshape(n, 2))[kind]
        built = _group_built(groups)
        removal = lsh.degenerate_index(kind, groups)
        # A sequence index on the same partition must not see the removals.
        sequence = lsh.degenerate_index(kind, groups)
        self._check(removal, lambda p: built[p][removal.live[built[p]]], n,
                    data.draw(_ops(n)), sequence, built)

    @pytest.mark.parametrize("n", [400, 1024])
    def test_full_ordering_reads_each_entry_at_most_twice(self, n):
        # A degenerate query returns the whole live part of its group and
        # the sweep kills it, so each group is read once: n entries at most.
        # Grid indexes store no entries; their work is counted in probes.
        ds = mixture_dataset(n, 8, 16, 0.05, seed=n)
        params = ClusterParams(k=n, seed=1)
        scaled, info = normalize(ds, params.c)
        state = greedy.init(scaled, params, info, mode="lsh")
        greedy.run_incremental(state)
        degenerate = [ix for ix in state.rem_indexes if not isinstance(ix, lsh.NeighborhoodIndex)]
        assert degenerate and len(degenerate) < len(state.rem_indexes)
        for ix in degenerate:
            assert ix.entries_scanned <= n


def _filled(index):
    return index._alone is not None


class TestProbeFirst:
    """A grid index answers by probing until it fills; answers must not change."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 8]))
    def test_matches_eagerly_filled_twin(self, data, d):
        n = data.draw(st.integers(1, 30))
        # n rows drawn from `distinct` rows, so fewer distinct rows than n
        # give duplicates at every d.
        distinct = data.draw(st.integers(1, n))
        coords = data.draw(st.lists(st.integers(0, 6), min_size=distinct * d,
                                    max_size=distinct * d))
        rows = data.draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
        ds = Dataset(np.array(coords, dtype=np.float64).reshape(distinct, d)[rows])
        radius = data.draw(st.sampled_from([0.3, 0.7, 1.5, 4.0]))
        seed = data.draw(st.integers(0, 2**31))
        probe = lsh.build(ds, radius, c=5.0, seed=seed)
        eager = lsh.build(ds, radius, c=5.0, seed=seed)
        eager.fill()
        # At these sizes the budget passes within a few queries, so a third
        # twin is asked through _probe, which never fills.
        never = lsh.build(ds, radius, c=5.0, seed=seed)
        assert not _filled(probe) and _filled(eager)
        query = st.tuples(st.just("query"), st.integers(0, n - 1))
        remove = st.tuples(st.just("remove"), st.lists(st.integers(0, n - 1), max_size=n))
        other = st.tuples(st.sampled_from(["sweep", "tables"]), st.none())
        ops = data.draw(st.lists(st.one_of(query, remove, other), max_size=25))
        for op, arg in ops + [("sweep", None)]:
            if op == "remove":
                for index in (probe, eager, never):
                    index.remove_many(np.array(arg, dtype=np.int64))
            elif op == "tables":
                filled, probes = _filled(probe), probe.probes
                assert len(probe.tables) == probe.num_tables
                assert _filled(probe) == filled and probe.probes == probes
            else:
                for p in ([arg] if op == "query" else range(n)):
                    budget_passed = probe.probes * lsh._PROBE_COST > probe.num_tables * n
                    got = probe.query(p)
                    assert got.dtype == np.int64
                    want = eager.query(p)
                    assert np.array_equal(got, want)
                    assert np.array_equal(never._probe(p), want)
                    # A query past the budget fills, live points or none.
                    assert _filled(probe) or not budget_passed
        assert not _filled(never)

    def test_fills_once_the_probes_pass_the_budget(self):
        ds = with_duplicates(300, 8, seed=8, dup_fraction=0.3)
        probe = lsh.build(ds, 0.03, c=5.0, seed=3)
        eager = lsh.build(ds, 0.03, c=5.0, seed=3)
        eager.fill()
        budget = probe.num_tables * ds.n
        rng = np.random.default_rng(5)
        probes_at_fill = None
        for step in range(3 * ds.n):
            if step % 10 == 9:
                victims = rng.choice(ds.n, size=3, replace=False)
                probe.remove_many(victims)
                eager.remove_many(victims)
            p = step % ds.n
            passed = probe.probes * lsh._PROBE_COST > budget
            if passed and probes_at_fill is None:
                probes_at_fill = probe.probes
            assert np.array_equal(probe.query(p), eager.query(p))
            assert _filled(probe) == passed
        # Filled mid-sequence, after removals, by the budget alone, on the
        # first query after probe ⌊L·n/_PROBE_COST⌋ + 1.  A point that
        # shares a bucket is still probed after the fill.
        assert probes_at_fill == budget // lsh._PROBE_COST + 1 > 10
        assert probe.probes > probes_at_fill

    def test_crowded_probes_do_not_buy_the_fill_early(self):
        # One tight cluster, queried from its middle out: every probe's box
        # holds dozens of points, each checked against many tables.  The
        # fill's price is a probe count, so however much work those probes
        # do, the index probes until probe ⌊L·n/_PROBE_COST⌋ + 1 and fills
        # on the next query.
        ds = uniform_dataset(400, 8, seed=0)
        idx = lsh.build(ds, 0.25, c=5.0, seed=1)
        budget = idx.num_tables * ds.n // lsh._PROBE_COST
        order = np.argsort(np.abs(ds.points - 0.5).max(axis=1))[: budget + 2]
        boxes = [len(ds.tree.query_ball_point(ds.points[p], idx._cell_width, p=np.inf))
                 for p in order]
        assert budget >= 10 and min(boxes) >= 12 and np.mean(boxes) >= 24
        for p in order[:-1]:
            idx.query(p)
            assert not _filled(idx)
        assert idx.probes == budget + 1
        idx.query(order[-1])
        assert _filled(idx)

    @pytest.mark.parametrize("mode", ["lsh", "exact", "all", "dup"])
    @pytest.mark.parametrize("filled", [False, True])
    def test_emptied_index_answers_at_once(self, mode, filled):
        ds = with_duplicates(300, 8, seed=8, dup_fraction=0.3)
        if mode in ("all", "dup"):
            # No storage to fill: "filled" has the index answer every point first.
            idx = lsh.degenerate_index(mode, lsh.degenerate_groups(ds.points)[mode])
            if filled:
                assert sum(idx.query(p).size for p in range(ds.n)) > 0
        else:
            idx = lsh.build(ds, 0.03, c=5.0, seed=3, mode=mode)
            if filled:
                idx.fill()
        rng = np.random.default_rng(1)
        dead = np.empty(0, dtype=np.int64)
        for chunk in np.array_split(rng.permutation(ds.n), 7):
            # Repeats within the call and ids killed by an earlier call.
            idx.remove_many(np.concatenate([chunk, chunk[:3], dead[:5], chunk[:1]]))
            dead = np.concatenate([dead, chunk])
            assert idx.live_count == ds.n - len(dead) == np.count_nonzero(idx.live)
        idx.remove_many(np.array([], dtype=np.int64))
        assert idx.live_count == 0
        # The removal sweep skips an emptied index; queried directly, it
        # answers through its normal path, which may probe and fill.
        for p in range(ds.n):
            got = idx.query(p)
            assert got.dtype == np.int64 and got.size == 0
        if filled and mode == "lsh":
            assert _filled(idx)
        elif mode == "exact":
            assert not _filled(idx)

    def test_point_alone_in_all_its_buckets_reads_none(self):
        # Points 0 and 1 are duplicates and share every bucket; point 3 is
        # far from all others, so no table puts another point with it.
        ds = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [0.01, 0.0], [5.0, 5.0]]))
        idx = lsh.build(ds, 0.03, c=5.0, seed=3)
        idx.fill()
        assert idx._alone[3] and not idx._alone[0] and not idx._alone[1]
        probes = idx.probes
        got = idx.query(3)
        assert got.dtype == np.int64 and got.tolist() == [3]
        idx.remove_many(np.array([3]))
        got = idx.query(3)
        assert got.dtype == np.int64 and got.size == 0
        assert idx.probes == probes
        got = idx.query(0)
        assert {0, 1} <= set(got.tolist())
        assert idx.probes == probes + 1

    def test_reading_tables_changes_nothing(self):
        # Read the tables every tenth step of a sequence that passes the
        # budget; a twin that is never read must stay in step throughout.
        ds = with_duplicates(300, 8, seed=8, dup_fraction=0.3)
        read = lsh.build(ds, 0.03, c=5.0, seed=3)
        twin = lsh.build(ds, 0.03, c=5.0, seed=3)
        for step in range(2 * ds.n):
            if step % 10 == 0:
                assert len(read.tables) == read.num_tables
                assert _filled(read) == _filled(twin)
                assert read.probes == twin.probes
            p = step % ds.n
            assert np.array_equal(read.query(p), twin.query(p))
        assert _filled(read) and _filled(twin)

    def test_init_fills_no_index_at_any_k_and_an_exhausted_removal_index_never_fills(self):
        n = 1024
        ds = mixture_dataset(n, 8, 16, 0.05, seed=4)
        scaled, info = normalize(ds, 5.0)
        short, full = (greedy.init(scaled, ClusterParams(k=k, seed=2), info, mode="lsh")
                       for k in (10, n))
        assert np.array_equal(short.values, full.values)
        for state in (short, full):
            grid = [ix for ix in state.seq_indexes + state.rem_indexes
                    if isinstance(ix, lsh.NeighborhoodIndex)]
            assert grid and not any(_filled(ix) for ix in grid)

        first = greedy.run(short, 10)
        grid = [ix for ix in short.seq_indexes + short.rem_indexes
                if isinstance(ix, lsh.NeighborhoodIndex)]
        assert all(10 * lsh._PROBE_COST <= ix.num_tables * n for ix in grid)
        assert not any(_filled(ix) for ix in grid)
        assert sum(ix.probes for ix in grid) > 0

        assert greedy.run_incremental(full).centers[:10] == first.centers
        removal = [ix for ix in full.rem_indexes if isinstance(ix, lsh.NeighborhoodIndex)]
        # Ran out of live points before its probes paid for a fill; a
        # further probe per remaining center would have passed L·n.
        exhausted = [ix for ix in removal
                     if ix.live_count == 0 and ix.probes * lsh._PROBE_COST <= ix.num_tables * n]
        assert exhausted and not any(_filled(ix) for ix in exhausted)
        assert all(n * lsh._PROBE_COST > ix.num_tables * n for ix in exhausted)


def _alone_reference(idx):
    """Points alone in all their buckets, from table_buckets over all n points."""
    alone = np.ones(idx.ds.n, dtype=bool)
    for t in idx.tables:
        alone &= np.diff(t.offsets)[t.point_bucket] == 1
    return alone


class TestNearFill:
    """The fill reads one KD-tree pass and only the near points' keys."""

    @staticmethod
    def _fill(ds, radius, seed=0):
        idx = lsh.build(ds, radius, c=5.0, seed=seed)
        idx.fill()
        assert np.array_equal(idx._alone, _alone_reference(idx))
        return idx

    # All tables in one chunk; one table a chunk; a few tables a chunk.
    @pytest.mark.parametrize("chunk", [lsh._PROBE_CHUNK, 1, 256])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.sampled_from([1, 2, 3, 8]))
    def test_matches_buckets_of_all_points(self, chunk, data, d):
        n = data.draw(st.integers(1, 40))
        distinct = data.draw(st.integers(1, n))
        coords = data.draw(st.lists(st.integers(0, 9), min_size=distinct * d,
                                    max_size=distinct * d))
        rows = data.draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
        ds = Dataset(np.array(coords, dtype=np.float64).reshape(distinct, d)[rows])
        radius = data.draw(st.sampled_from([0.3, 0.7, 1.5, 4.0]))
        with mock.patch.object(lsh, "_PROBE_CHUNK", chunk):
            self._fill(ds, radius, data.draw(st.integers(0, 2**31)))

    def test_exact_duplicates_are_never_alone(self):
        ds = with_duplicates(300, 3, seed=2, dup_fraction=0.3)
        idx = self._fill(ds, 0.01)
        _, inverse, counts = np.unique(ds.points, axis=0, return_inverse=True,
                                       return_counts=True)
        repeated = counts[inverse.ravel()] > 1
        assert repeated.any() and not idx._alone[repeated].any()

    def test_box_edges(self):
        # Pairs one cell width apart along an axis, exactly one box apart,
        # one ulp inside it and one ulp outside it.  Anchors at ±100 fix the
        # largest coordinate, and with it the box.
        anchors = [[100.0, 100.0], [-100.0, -100.0]]
        box = lsh.build(Dataset(np.array(anchors)), 1.0, c=5.0)._box
        w = 5.0 / math.sqrt(2)
        gaps = [w, box, np.nextafter(box, 0.0), np.nextafter(box, np.inf)]
        pairs = [[[0.0, 20.0 * i], [gap, 20.0 * i]] for i, gap in enumerate(gaps)]
        ds = Dataset(np.array(anchors + [row for pair in pairs for row in pair]))
        for seed in range(20):
            idx = self._fill(ds, 1.0, seed)
            assert idx._box == box
        assert idx._near().tolist() == [2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_magnitudes(self, scale):
        rng = np.random.default_rng(4)
        base = rng.uniform(-1.0, 1.0, size=(200, 3))
        # Each of the first 100 rows gets a copy nudged by about a cell.
        nudged = base[:100] + rng.uniform(-0.01, 0.01, size=(100, 3))
        ds = Dataset(np.vstack([base, nudged]) * scale)
        for seed in range(5):
            idx = self._fill(ds, 0.004 * scale, seed)
        assert 0 < np.count_nonzero(idx._alone) < ds.n

    def test_isolated_points_compute_no_key(self):
        ds = Dataset(100.0 * np.arange(60, dtype=np.float64).reshape(20, 3))
        idx = lsh.build(ds, 1.0, c=5.0, seed=1)
        with mock.patch.object(lsh, "_key_sums", side_effect=AssertionError("key computed")):
            idx.fill()
        assert idx._near().size == 0 and idx._alone.all()


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
