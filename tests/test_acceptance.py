"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The neighborhood-sandwich criterion (10^4 grid-index
queries checked against exact distances) takes most of the runtime, about
13 of 20 s on a 2-vCPU Xeon VM; the scaling criterion generates and clusters
up to 2^14 points in about 2 s.
"""

import numpy as np
import pytest

from kzclust import greedy, lsh, sketch
from kzclust.cli import generate_mixture, run_bench
from kzclust.metric import (
    ClusterParams,
    Dataset,
    cost,
    dists_from,
    jl_project,
    level_radii,
    normalize,
)
from kzclust.oracles import brute_optimal, transcribed_algorithm
from kzclust.seeding import derive_seed

from conftest import logged_solve, uniform_dataset, with_duplicates


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def quality_instance(i: int) -> tuple[Dataset, int]:
    seed = derive_seed(0xACCE97, "quality", i)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    return Dataset(rng.uniform(0.0, 1.0, (n, 2))), seed


# --------------------------------------------------------------- criteria 1+2

def test_criterion_1_approximation_quality():
    ratios = []
    for i in range(50):
        ds, seed = quality_instance(i)
        for z in (1.0, 2.0):
            params = ClusterParams(k=3, z=z, c=5.0, seed=seed)
            for k in (1, 2, 3):
                sol, _ = greedy.solve(ds, params, k, mode="exact")
                ratios.append(cost(ds, sol.centers, z) / brute_optimal(ds, k, z).cost)
    ratios = np.array(ratios)
    ok = bool(ratios.max() <= 50.0 and np.median(ratios) <= 5.0)
    report("criterion 1 (approximation quality)", ok,
           f"max ratio {ratios.max():.2f} (<=50), median {np.median(ratios):.2f} (<=5) "
           f"over {len(ratios)} (instance,k,z) runs")


def test_criterion_2_incremental_property():
    ratios = []
    consistent = True
    for i in range(50):
        ds, seed = quality_instance(i)
        for z in (1.0, 2.0):
            params = ClusterParams(k=3, z=z, c=5.0, seed=seed)
            full, _ = greedy.solve(ds, params, ds.n, mode="exact")
            for k in (1, 2, 3):
                stopped, _ = greedy.solve(ds, params, k, mode="exact")
                if stopped.centers != full.prefix(k):
                    consistent = False
                ratios.append(cost(ds, full.prefix(k), z) / brute_optimal(ds, k, z).cost)
    ratios = np.array(ratios)
    ok = bool(consistent and ratios.max() <= 50.0 and np.median(ratios) <= 5.0)
    report("criterion 2 (incremental property)", ok,
           f"prefix-consistency {'exact' if consistent else 'BROKEN'}, "
           f"prefix ratios max {ratios.max():.2f}, median {np.median(ratios):.2f}")


# ----------------------------------------------------------------- corpus

def corpus_instance(i: int) -> tuple[Dataset, ClusterParams, int]:
    seed = derive_seed(0xACCE97, "corpus", i)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 201))
    d = int(rng.choice([1, 2, 3, 8]))
    if i % 4 == 0:
        ds = with_duplicates(n, d, seed=seed)
    else:
        ds = uniform_dataset(n, d, seed=seed)
    z = float(rng.choice([1.0, 2.0]))
    k = int(rng.integers(1, n + 1))
    return ds, ClusterParams(k=k, z=z, c=5.0, seed=seed), k


@pytest.fixture(scope="module")
def exact_corpus():
    """200 exact-mode runs with their query logs, paired with their transcriptions."""
    runs = []
    for i in range(200):
        ds, params, k = corpus_instance(i)
        mine, state, log = logged_solve(ds, params, k, "exact")
        ref = transcribed_algorithm(ds, params, k)
        runs.append((ds, params, k, mine, state, log, ref))
    return runs


@pytest.fixture(scope="module")
def lsh_corpus():
    """Logged lsh-mode runs for the structural-invariant criterion."""
    runs = []
    for i in range(20):
        seed = derive_seed(0xACCE97, "lshcorpus", i)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 301))
        ds = uniform_dataset(n, int(rng.choice([2, 4, 8])), seed=seed)
        k = int(rng.integers(1, 9))
        params = ClusterParams(k=k, z=float(rng.choice([1.0, 2.0])), c=5.0, seed=seed)
        runs.append(logged_solve(ds, params, k, "lsh"))
    return runs


def test_criterion_3_oracle_equivalence(exact_corpus):
    mismatches = 0
    for ds, params, k, mine, _, _, ref in exact_corpus:
        same = (
            mine.centers == ref.centers
            and mine.traces == ref.traces
            and mine.early_terminated == ref.early_terminated
            and cost(ds, mine.centers, params.z) == cost(ds, ref.centers, params.z)
        )
        mismatches += not same
    report("criterion 3 (oracle equivalence)", mismatches == 0,
           f"{len(exact_corpus)} instances, {mismatches} mismatches "
           "(center ids, traces, costs)")


# ----------------------------------------------------------------- criterion 4

def test_criterion_4_value_sandwich():
    # Pass fractions are pooled across the 20 seeds, per level: the factor-3
    # guarantee is statistical per point, so the 99% bar applies to the
    # seed-pooled population at each radius.
    c, z = 5.0, 2.0
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    for trial in range(20):
        seed = derive_seed(0xACCE97, "sandwich", trial)
        raw = generate_mixture(300, 16, 5, 0.15, seed)
        projected = jl_project(raw, 4, derive_seed(seed, "proj"))
        ds, info = normalize(projected, c)
        radii = level_radii(info, c)
        near_counts = np.empty((info.num_levels, ds.n))
        far_counts = np.empty((info.num_levels, ds.n))
        for pid in range(ds.n):
            row = np.sort(dists_from(ds.points, pid))
            near_counts[:, pid] = np.searchsorted(row, radii, side="right")
            far_counts[:, pid] = np.searchsorted(row, c * radii, side="right")
        for lvl in range(info.num_levels):
            radius = float(radii[lvl])
            vals = sketch.compute_values(
                ds, radius, c=c, z=z, delta=1.0 / ds.n**2,
                seed=derive_seed(seed, "values", lvl), num_levels=info.num_levels,
            )
            lo = radius**z * near_counts[lvl] / 3.0
            hi = 3.0 * radius**z * far_counts[lvl]
            hits[lvl] = hits.get(lvl, 0) + int(np.sum((vals >= lo) & (vals <= hi)))
            totals[lvl] = totals.get(lvl, 0) + ds.n
    fracs = {lvl: hits[lvl] / totals[lvl] for lvl in totals}
    worst_lvl = min(fracs, key=fracs.get)
    ok = all(f >= 0.99 for f in fracs.values())
    report("criterion 4 (value sandwich)", ok,
           f"per-level pass fraction over 20 pooled seeds >= 0.99 at every level; "
           f"worst level {worst_lvl}: {fracs[worst_lvl]:.4f}")


# ----------------------------------------------------------------- criterion 5

def test_criterion_5_neighborhood_sandwich():
    n, d, radius, c = 200, 8, 0.6, 5.0
    delta = 1.0 / n**2
    far_violations = 0
    queries = 0
    near_misses = 0
    near_pairs = 0
    for trial in range(100):
        seed = derive_seed(0xACCE97, "lshstat", trial)
        ds = uniform_dataset(n, d, seed=seed)
        idx = lsh.build(ds, radius, c=c, delta=delta, seed=seed, mode="lsh")
        for pid in range(n):
            got = idx.query(pid)
            queries += 1
            dr = dists_from(ds.points, pid)
            far_violations += int(np.any(dr[got] > c * radius * (1 + 1e-9)))
            near = np.flatnonzero(dr <= radius)
            near_pairs += len(near)
            near_misses += len(np.setdiff1d(near, got))
    miss_frac = near_misses / near_pairs
    ok = queries >= 10_000 and far_violations == 0 and miss_frac <= 3 * delta
    report("criterion 5 (neighborhood sandwich)", ok,
           f"{queries} queries, far-side violations {far_violations} (must be 0), "
           f"near-side miss fraction {miss_frac:.2e} (<= {3 * delta:.2e})")


# ------------------------------------------------------------- criteria 6+7

def _check_structural(sol, state, log, c):
    """Trace bound and candidate-proximity bound for one logged run."""
    pts = state.ds.points
    radii = level_radii(state.info, c)
    bad_trace = 0
    for trace in sol.traces:
        head = trace[0]
        head_radius = float(radii[head.level])
        for ball in trace:
            d = float(np.linalg.norm(pts[ball.point] - pts[head.point]))
            if d > 20 * c**2 * head_radius * (1 + 1e-9):
                bad_trace += 1
    bad_candidate = 0
    centers_by_iter = log.iteration_centers
    for it, lvl, ids in log.candidate_events:
        cj = centers_by_iter[it - 1]
        dr = np.linalg.norm(pts[ids] - pts[cj], axis=1)
        bad_candidate += int(np.sum(dr > 30 * c**2 * float(radii[lvl]) * (1 + 1e-9)))
    n_events = sum(len(ids) for _, _, ids in log.candidate_events)
    n_balls = sum(len(t) for t in sol.traces)
    return bad_trace, bad_candidate, n_balls, n_events


def test_criterion_6_structural_invariants(exact_corpus, lsh_corpus):
    bad_trace = bad_cand = balls = events = 0
    for _, params, _, mine, state, log, _ in exact_corpus:
        bt, bc, nb, ne = _check_structural(mine, state, log, params.c)
        bad_trace += bt
        bad_cand += bc
        balls += nb
        events += ne
    for sol, state, log in lsh_corpus:
        bt, bc, nb, ne = _check_structural(sol, state, log, state.params.c)
        bad_trace += bt
        bad_cand += bc
        balls += nb
        events += ne
    ok = bad_trace == 0 and bad_cand == 0
    report("criterion 6 (structural invariants)", ok,
           f"trace-bound violations {bad_trace}/{balls} balls, "
           f"candidate-bound violations {bad_cand}/{events} events (both must be 0)")


def test_criterion_7_amortization(exact_corpus):
    repeat_candidate = repeat_removal = 0
    for _, _, _, _, _, log, _ in exact_corpus:
        for events, counter in ((log.candidate_events, "cand"),
                                (log.removal_events, "rem")):
            per_level: dict[int, set] = {}
            for _, lvl, ids in events:
                seen = per_level.setdefault(lvl, set())
                for pid in ids.tolist():
                    if pid in seen:
                        if counter == "cand":
                            repeat_candidate += 1
                        else:
                            repeat_removal += 1
                    seen.add(pid)
    ok = repeat_candidate == 0 and repeat_removal == 0
    report("criterion 7 (amortization)", ok,
           f"per-level repeats: candidate queries {repeat_candidate}, "
           f"removal queries {repeat_removal} (both must be 0)")


# ----------------------------------------------------------------- criterion 8

def test_criterion_8_scaling():
    sizes = [1024, 2048, 4096, 8192, 16384]
    result = run_bench(sizes, d=8, k=10, z=2.0, c=5.0, seed=0,
                       clusters=16, spread=0.05, mode="lsh")
    slope = result["slope"]
    times = ", ".join(f"n={r['n']}: {r['timings']['total_s']:.2f}s" for r in result["rows"])
    ok = slope is not None and slope <= 1.3
    report("criterion 8 (scaling)", ok, f"log-log slope {slope:.3f} (<=1.3); {times}")


# ----------------------------------------------------------------- criterion 9

def test_criterion_9_zero_cost_exactness():
    failures = 0
    for i in range(20):
        seed = derive_seed(0xACCE97, "zerocost", i)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        d = int(rng.choice([1, 2, 3]))
        if i % 2 == 0:
            ds = with_duplicates(n, d, seed=seed, dup_fraction=0.5)
        else:
            ds = uniform_dataset(n, d, seed=seed)
        distinct = int(np.unique(ds.points, axis=0).shape[0])
        params = ClusterParams(k=distinct, z=2.0, c=5.0, seed=seed)
        sol, _ = greedy.solve(ds, params, distinct, mode="exact")
        if sol.achieved_k != distinct or cost(ds, sol.centers, params.z) != 0.0:
            failures += 1
    report("criterion 9 (zero-cost exactness)", failures == 0,
           f"20 instances (half duplicate-heavy), {failures} with nonzero cost "
           "at k = distinct points")


# ---------------------------------------------------------------- criterion 10

def test_criterion_10_sketch_statistics():
    # One group of 1024 ids, valued with the pipeline's default_copies(1024) = 30 registers.
    whole = lsh.degenerate_groups(np.arange(1024.0).reshape(-1, 1))["all"]
    good = 0
    trials = 1000
    for seed in range(trials):
        est = sketch.group_estimates(whole, seed)[0]
        if 1024 / 3 <= est <= 3 * 1024:
            good += 1
    frac = good / trials
    report("criterion 10 (sketch statistics)", frac >= 0.99,
           f"estimate within factor 3 in {good}/{trials} seeded trials "
           f"({frac:.3f} >= 0.99)")
