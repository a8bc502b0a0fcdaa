"""Greedy ball selection: init, descent, removal, runs, and invariants."""

import numpy as np
import pytest

from kzclust import greedy
from kzclust.metric import ClusterParams, Dataset, cost, dists_from, level_radii, normalize
from kzclust.oracles import brute_optimal

from conftest import exact_nval, logged_solve, record_queries, uniform_dataset, with_duplicates


def available_balls(state):
    """Number of (point, level) balls whose point is live in that level's removal index."""
    return sum(int(index.live.sum()) for index in state.rem_indexes)


def exact_state(ds, params):
    scaled, info = normalize(ds, params.c)
    return greedy.init(scaled, params, info, mode="exact"), scaled, info


class TestInit:
    def test_singleton_one_ball_per_level(self):
        ds = Dataset(np.array([[2.0, 2.0]]))
        params = ClusterParams(k=1, z=2.0, c=5.0, seed=0)
        state, _, info = exact_state(ds, params)
        assert available_balls(state) == info.num_levels
        radii = level_radii(info, params.c)
        assert np.allclose(state.values, (radii**params.z)[:, None])

    def test_available_count_is_n_times_levels(self):
        ds = uniform_dataset(12, 2, seed=2)
        params = ClusterParams(k=3, seed=0)
        state, _, info = exact_state(ds, params)
        assert available_balls(state) == 12 * info.num_levels

    def test_priority_max_matches_full_scan(self):
        ds = uniform_dataset(25, 2, seed=4)
        params = ClusterParams(k=3, z=2.0, seed=0)
        state, scaled, info = exact_state(ds, params)
        radii = level_radii(info, params.c)
        best = max(
            exact_nval(scaled, pid, float(radii[lvl]), params.z)
            for pid in range(scaled.n)
            for lvl in range(info.num_levels)
        )
        ref = state.avail.pop()
        val = state.values[ref.level, ref.point]
        assert val == best

    def test_exact_indexes_scan(self):
        # Exact mode gives each radius the index kind lsh mode does, and every
        # one answers like a scan of the live points, before and after removals.
        ds = with_duplicates(80, 2, seed=80, dup_fraction=0.6)
        params = ClusterParams(k=ds.n, seed=0)
        scaled, info = normalize(ds, params.c)
        exact = greedy.init(scaled, params, info, mode="exact")
        lsh_state = greedy.init(scaled, params, info, mode="lsh")
        radii = level_radii(info, params.c)
        rng = np.random.default_rng(0)
        kinds = set()
        for mine, theirs, family_radii in [
                (exact.seq_indexes, lsh_state.seq_indexes, 10.0 * params.c * radii),
                (exact.rem_indexes, lsh_state.rem_indexes, 100.0 * params.c**4 * radii)]:
            assert [type(ix) for ix in mine] == [type(ix) for ix in theirs]
            kinds |= {type(ix) for ix in mine}
            for index, radius in zip(mine, family_radii):
                live = np.ones(scaled.n, dtype=bool)
                for batch in [*np.array_split(rng.permutation(scaled.n), 3), None]:
                    for pid in range(scaled.n):
                        want = np.flatnonzero(live & (dists_from(scaled.points, pid) <= radius))
                        got = index.query(pid)
                        assert got.dtype == np.int64 and np.array_equal(got, want)
                    if batch is not None:
                        index.remove_many(batch)
                        live[batch] = False
        assert len(kinds) == 3

    def test_rejects_unknown_mode(self):
        ds = uniform_dataset(4, 2, seed=1)
        params = ClusterParams(k=1, seed=0)
        scaled, info = normalize(ds, params.c)
        with pytest.raises(ValueError):
            greedy.init(scaled, params, info, mode="fast")

    def test_removal_indexes_back_one_state_only(self):
        # A second state over the same indexes would leave the first one's
        # availability reading masks that no longer change.
        ds = uniform_dataset(8, 2, seed=3)
        params = ClusterParams(k=2, seed=0)
        state, scaled, info = exact_state(ds, params)
        with pytest.raises(ValueError, match="already shared"):
            greedy.GreedyState(scaled, params, info, state.values, state.seq_indexes,
                               state.rem_indexes)


class TestPop:
    def test_pop_skips_a_ball_the_removal_index_alone_killed(self):
        ds = uniform_dataset(12, 2, seed=2)
        params = ClusterParams(k=3, seed=0)
        ref, _, _ = exact_state(ds, params)
        state, _, _ = exact_state(ds, params)
        head = ref.avail.pop()
        state.rem_indexes[head.level].remove_many(np.array([head.point]))
        got = state.avail.pop()
        assert got != head
        assert got == ref.avail.pop()

    def test_popped_ball_stays_live_and_is_not_popped_again(self):
        ds = uniform_dataset(12, 2, seed=2)
        params = ClusterParams(k=3, seed=0)
        state, _, info = exact_state(ds, params)
        head = state.avail.pop()
        assert state.rem_indexes[head.level].live[head.point]
        other = (head.level + 1) % info.num_levels
        state.rem_indexes[other].remove_many(np.arange(0, ds.n, 2))
        rest = []
        while (ball := state.avail.pop()) is not None:
            rest.append(ball)
        assert state.rem_indexes[head.level].live[head.point]
        live = {greedy.BallRef(p, lvl) for lvl, index in enumerate(state.rem_indexes)
                for p in np.flatnonzero(index.live)}
        assert len(rest) == len(set(rest))
        assert set(rest) == live - {head}

    @pytest.mark.parametrize("dead", [0.0, 0.9], ids=["all-live", "removals"])
    def test_pop_order_breaks_ties_by_id_then_level(self, dead):
        # Few distinct counts give heavy ties across ids and levels, and the
        # last level's R^z underflows, so its values are all zero.
        rng = np.random.default_rng(11)
        n = 500
        rz = np.array([4.0, 1.0, 1.0, 0.25, 1e-200]) ** 2.0
        values = rng.integers(0, 3, size=(len(rz), n)) * rz[:, None]
        assert (values[-1] == 0).all() and len(np.unique(values)) < 10
        live = rng.random(values.shape) >= dead
        avail = greedy.AvailableSet(values, live)
        ids = np.tile(np.arange(n), len(rz))
        levels = np.repeat(np.arange(len(rz)), n)
        ref = np.lexsort((levels, ids, -values.ravel()))
        order = [greedy.BallRef(int(f % n), int(f // n)) for f in ref if live.flat[f]]
        first = order[: len(order) // 3]
        assert [avail.pop() for _ in first] == first
        # Removals between pops: the rest follows the cursor over the new masks.
        live &= rng.random(values.shape) >= dead
        at = list(ref).index(first[-1].level * n + first[-1].point) + 1
        rest = [greedy.BallRef(int(f % n), int(f // n)) for f in ref[at:] if live.flat[f]]
        got = []
        while (ball := avail.pop()) is not None:
            got.append(ball)
        assert got == rest


class TestDescend:
    def test_singleton_descends_all_levels(self):
        ds = Dataset(np.array([[0.5, 0.5]]))
        params = ClusterParams(k=1, seed=0)
        state, _, info = exact_state(ds, params)
        head = state.avail.pop()
        center, trace = greedy.descend(state, head)
        assert center == 0
        assert [b.level for b in trace] == list(range(head.level, info.num_levels))
        assert all(b.point == 0 for b in trace)

    def test_two_point_trace_distance_bound(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        params = ClusterParams(k=1, z=1.0, c=5.0, seed=0)
        state, scaled, info = exact_state(ds, params)
        head = state.avail.pop()
        center, trace = greedy.descend(state, head)
        radii = level_radii(info, params.c)
        head_radius = float(radii[head.level])
        d = float(np.abs(scaled.points[head.point] - scaled.points[center])[0])
        assert d <= 20 * params.c**2 * head_radius * (1 + 1e-9)

    def test_trace_radii_strictly_decrease_to_minimum(self):
        ds = uniform_dataset(20, 2, seed=6)
        params = ClusterParams(k=4, seed=0)
        state, _, info = exact_state(ds, params)
        sol = greedy.run(state, 4)
        for trace in sol.traces:
            levels = [b.level for b in trace]
            assert levels == list(range(levels[0], info.num_levels))
            assert trace[-1].level == info.num_levels - 1


class TestRemoveAround:
    def test_singleton_exhausts_availability(self):
        ds = Dataset(np.array([[1.0, 1.0]]))
        params = ClusterParams(k=1, seed=0)
        state, _, _ = exact_state(ds, params)
        sol = greedy.run(state, 5)
        assert sol.centers == [0]
        assert sol.early_terminated
        assert available_balls(state) == 0

    def test_min_level_ball_of_center_removed(self):
        ds = uniform_dataset(10, 2, seed=8)
        params = ClusterParams(k=2, seed=0)
        state, _, info = exact_state(ds, params)
        sol = greedy.run(state, 2)
        for cid in sol.centers:
            assert not state.rem_indexes[info.num_levels - 1].live[cid]

    def test_availability_bitmap_matches_replay(self):
        ds = uniform_dataset(30, 2, seed=10)
        params = ClusterParams(k=5, z=2.0, c=5.0, seed=0)
        state, scaled, info = exact_state(ds, params)
        sol = greedy.run(state, 5)

        # Independent replay: in exact mode the removal reach at each level
        # is exactly 100c^4*R against the points still live in that level's
        # removal structure at the time each center was emitted.
        n = scaled.n
        radii = level_radii(info, params.c)
        live = np.ones((info.num_levels, n), dtype=bool)
        for cid in sol.centers:
            for lvl in range(info.num_levels):
                reach = 100.0 * params.c**4 * float(radii[lvl])
                hit = np.flatnonzero(live[lvl] & (dists_from(scaled.points, cid) <= reach))
                live[lvl, hit] = False
        got = np.stack([index.live for index in state.rem_indexes])
        assert np.array_equal(got, live)
        # In exact mode every popped head lies inside its removal reach, so
        # the sweeps retire it too.
        for trace in sol.traces:
            assert not state.rem_indexes[trace[0].level].live[trace[0].point]


class TestRun:
    def test_zero_cost_at_k_distinct(self):
        ds = uniform_dataset(9, 2, seed=12)
        params = ClusterParams(k=9, seed=0)
        state, _, _ = exact_state(ds, params)
        sol = greedy.run(state, 9)
        assert sol.achieved_k == 9
        assert cost(ds, sol.centers, params.z) == 0.0

    def test_zero_cost_with_duplicates(self):
        ds = with_duplicates(12, 2, seed=3, dup_fraction=0.5)
        distinct = np.unique(ds.points, axis=0).shape[0]
        params = ClusterParams(k=distinct, seed=0)
        state, _, _ = exact_state(ds, params)
        sol = greedy.run(state, distinct)
        assert sol.achieved_k == distinct
        assert cost(ds, sol.centers, params.z) == 0.0

    def test_singleton_k5_early_termination(self):
        ds = Dataset(np.array([[0.0, 0.0]]))
        params = ClusterParams(k=1, seed=0)
        state, _, _ = exact_state(ds, params)
        sol = greedy.run(state, 5)
        assert sol.centers == [0]
        assert sol.early_terminated
        assert sol.achieved_k == 1

    def test_centers_distinct(self):
        for seed in range(5):
            ds = uniform_dataset(40, 2, seed=seed)
            params = ClusterParams(k=10, seed=seed)
            state, _, _ = exact_state(ds, params)
            sol = greedy.run(state, 10)
            assert len(set(sol.centers)) == len(sol.centers) == 10

    def test_opt_ratio_16_points(self):
        ratios = []
        for seed in range(10):
            ds = uniform_dataset(16, 2, seed=100 + seed)
            params = ClusterParams(k=3, z=2.0, c=5.0, seed=seed)
            state, _, _ = exact_state(ds, params)
            sol = greedy.run(state, 3)
            opt = brute_optimal(ds, 3, 2.0)
            ratios.append(cost(ds, sol.centers, 2.0) / opt.cost)
        assert max(ratios) <= 50.0

    def test_rejects_bad_k(self):
        ds = uniform_dataset(5, 2, seed=1)
        params = ClusterParams(k=1, seed=0)
        state, _, _ = exact_state(ds, params)
        with pytest.raises(ValueError):
            greedy.run(state, 0)


class TestIncremental:
    def test_prefix_consistency(self):
        ds = uniform_dataset(14, 2, seed=20)
        params = ClusterParams(k=14, z=2.0, seed=7)
        state, _, _ = exact_state(ds, params)
        full = greedy.run_incremental(state)
        for k in (1, 2, 3, 5):
            state_k, _, _ = exact_state(ds, params)
            stopped = greedy.run(state_k, k)
            assert stopped.centers == full.prefix(k)

    def test_prefix_opt_ratios(self):
        ds = uniform_dataset(12, 2, seed=22)
        params = ClusterParams(k=12, z=1.0, seed=3)
        state, _, _ = exact_state(ds, params)
        full = greedy.run_incremental(state)
        for k in (1, 2, 3):
            ratio = cost(ds, full.prefix(k), 1.0) / brute_optimal(ds, k, 1.0).cost
            assert ratio <= 50.0

    def test_ordering_length_equals_distinct_count(self):
        ds = with_duplicates(20, 2, seed=9, dup_fraction=0.5)
        distinct = np.unique(ds.points, axis=0).shape[0]
        params = ClusterParams(k=20, seed=0)
        state, _, _ = exact_state(ds, params)
        sol = greedy.run_incremental(state)
        assert sol.achieved_k == distinct
        assert sol.early_terminated


class TestDeterminismAndLshMode:
    def test_exact_runs_identical(self):
        ds = uniform_dataset(30, 3, seed=30)
        params = ClusterParams(k=6, z=2.0, seed=11)
        a, _ = greedy.solve(ds, params, 6, mode="exact")
        b, _ = greedy.solve(ds, params, 6, mode="exact")
        assert a == b

    def test_lsh_runs_identical(self):
        ds = uniform_dataset(60, 4, seed=31)
        params = ClusterParams(k=5, z=2.0, seed=13)
        a, _ = greedy.solve(ds, params, 5, mode="lsh")
        b, _ = greedy.solve(ds, params, 5, mode="lsh")
        assert a == b

    def test_lsh_mode_produces_valid_solution(self):
        for seed in range(3):
            ds = uniform_dataset(80, 4, seed=40 + seed)
            params = ClusterParams(k=8, z=2.0, seed=seed)
            sol, state = greedy.solve(ds, params, 8, mode="lsh")
            assert len(set(sol.centers)) == len(sol.centers) == 8
            assert np.all(np.isfinite(state.values)) and np.all(state.values > 0)
            for trace in sol.traces:
                assert trace[-1].level == state.num_levels - 1

    def test_lsh_zero_cost_at_k_distinct(self):
        ds = uniform_dataset(12, 2, seed=44)
        params = ClusterParams(k=12, seed=5)
        sol, _ = greedy.solve(ds, params, 12, mode="lsh")
        assert cost(ds, sol.centers, params.z) == 0.0


class TestInstrumentation:
    def test_candidates_always_available_in_exact_mode(self):
        for seed in range(5):
            ds = uniform_dataset(25, 2, seed=50 + seed)
            params = ClusterParams(k=25, seed=seed)
            state, _, _ = exact_state(ds, params)
            log = record_queries(state)
            greedy.run_incremental(state)
            assert log.unavailable_candidate_hits == 0

    def test_candidate_one_shot_per_level(self):
        ds = uniform_dataset(30, 2, seed=60)
        params = ClusterParams(k=30, seed=1)
        state, _, _ = exact_state(ds, params)
        log = record_queries(state)
        greedy.run_incremental(state)
        per_level: dict[int, list] = {}
        for _, lvl, ids in log.candidate_events:
            per_level.setdefault(lvl, []).extend(ids.tolist())
        for lvl, ids in per_level.items():
            assert len(ids) == len(set(ids)), f"level {lvl} repeats a candidate"

    def test_removal_one_shot_per_level(self):
        ds = uniform_dataset(30, 2, seed=61)
        params = ClusterParams(k=30, seed=2)
        state, _, _ = exact_state(ds, params)
        log = record_queries(state)
        greedy.run_incremental(state)
        per_level: dict[int, list] = {}
        for _, lvl, ids in log.removal_events:
            per_level.setdefault(lvl, []).extend(ids.tolist())
        for lvl, ids in per_level.items():
            assert len(ids) == len(set(ids))

    def test_fact_bound_candidate_near_center(self):
        ds = uniform_dataset(25, 2, seed=62)
        params = ClusterParams(k=25, z=2.0, c=5.0, seed=3)
        state, scaled, info = exact_state(ds, params)
        log = record_queries(state)
        greedy.run_incremental(state)
        radii = level_radii(info, params.c)
        centers_by_iter = log.iteration_centers
        for it, lvl, ids in log.candidate_events:
            cj = centers_by_iter[it - 1]
            for pid in ids:
                d = float(np.linalg.norm(scaled.points[pid] - scaled.points[cj]))
                assert d <= 30 * params.c**2 * float(radii[lvl]) * (1 + 1e-9)

    @pytest.mark.parametrize("mode", ["exact", "lsh"])
    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
    def test_query_log_records_every_query(self, mode, duplicates):
        for seed in (70, 71):
            if duplicates:
                ds = with_duplicates(60, 2, seed=seed, dup_fraction=0.3)
            else:
                ds = uniform_dataset(60, 2, seed=seed)
            params = ClusterParams(k=ds.n, seed=seed)
            sol, state, log = logged_solve(ds, params, ds.n, mode)
            assert sol == greedy.solve(ds, params, ds.n, mode=mode)[0]
            n_candidates = sum(len(t) - 1 for t in sol.traces)
            assert n_candidates > 0
            assert len(log.candidate_events) == n_candidates
            # Each level is swept at iterations 1..t, once each, and stops
            # only once its removal index has no live point left.
            swept: dict[int, list] = {}
            for it, lvl, _ in log.removal_events:
                swept.setdefault(lvl, []).append(it)
            assert sorted(swept) == list(range(state.num_levels))
            for lvl, its in swept.items():
                assert its == list(range(1, len(its) + 1))
                if its[-1] < state.iteration:
                    assert state.rem_indexes[lvl].live_count == 0
            assert log.iteration_centers == sol.centers

    @pytest.mark.parametrize("mode", ["exact", "lsh"])
    def test_sweep_skips_emptied_indexes(self, mode):
        for seed in (70, 71):
            ds = with_duplicates(60, 2, seed=seed, dup_fraction=0.3)
            params = ClusterParams(k=ds.n, seed=seed)
            _, _, log = logged_solve(ds, params, ds.n, mode)
            assert log.emptied_removal_queries == 0
            # The whole-set index at level 0 empties at the first center.
            assert [lvl for _, lvl, _ in log.removal_events].count(0) == 1
