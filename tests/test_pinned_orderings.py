"""Pinned lsh-mode runs: center orderings, traces and values must not move.

Each case is a fixed-seed run whose centers, descent traces and ball values
are hashed and compared with digests recorded from a known-good build.  A
refactor that claims to keep behaviour must keep these digests.  Between
them the runs' levels use all three neighborhood-index kinds (whole set,
duplicate groups and grid LSH), so the degenerate shortcuts are pinned too.
"""

import hashlib
import json

import pytest

from kzclust import greedy, lsh
from kzclust.metric import ClusterParams, normalize

from conftest import mixture_dataset, with_duplicates


def _with_duplicates_k30():
    ds = with_duplicates(240, 2, seed=5, dup_fraction=0.3)
    return greedy.solve(ds, ClusterParams(k=30, seed=3), 30, mode="lsh")


def _mixture_full_ordering():
    ds = mixture_dataset(160, 2, 6, 0.03, seed=7)
    params = ClusterParams(k=160, seed=4)
    scaled, info = normalize(ds, params.c)
    state = greedy.init(scaled, params, info, mode="lsh")
    return greedy.run_incremental(state), state


def _full_d8_ordering():
    # The benchmark's full-d8 shape; its last grid removal index fills.
    ds = mixture_dataset(1024, 8, 16, 0.05, seed=0)
    params = ClusterParams(k=1024, seed=0)
    scaled, info = normalize(ds, params.c)
    state = greedy.init(scaled, params, info, mode="lsh")
    return greedy.run_incremental(state), state


PINNED = {
    "duplicates-k30": (_with_duplicates_k30, 30, "bc13cae9c8e6e96d", "4d94bf8c028495e6"),
    "mixture-full": (_mixture_full_ordering, 160, "8ae654e0d4c098fd", "db0c674d1bd6df0c"),
    "full-d8": (_full_d8_ordering, 1024, "6bfd06999b049493", "b5a2fbfa1c524b88"),
}

INDEX_KINDS = {"_AllPointsIndex", "_DuplicateGroupIndex", "NeighborhoodIndex"}


def _ordering_digest(sol) -> str:
    doc = {"centers": sol.centers, "traces": [[list(b) for b in t] for t in sol.traces]}
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def _index_kinds(state) -> set[str]:
    return {type(ix).__name__ for ix in state.seq_indexes + state.rem_indexes}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_run(case):
    make, achieved, ordering, values = PINNED[case]
    sol, state = make()
    assert sol.achieved_k == achieved and not sol.early_terminated
    assert _ordering_digest(sol) == ordering
    assert hashlib.sha256(state.values.tobytes()).hexdigest()[:16] == values


def test_pinned_runs_cover_every_index_kind():
    kinds = set()
    for make, *_ in PINNED.values():
        _, state = make()
        kinds |= _index_kinds(state)
    assert kinds == INDEX_KINDS


def test_full_d8_run_fills_a_grid_removal_index():
    # A grid index fills once probes·_PROBE_COST passes L·n, so the pinned
    # ordering covers the filled query path as well as the probe.
    _, state = _full_d8_ordering()
    grid = [ix for ix in state.rem_indexes if isinstance(ix, lsh.NeighborhoodIndex)]
    assert any(ix.probes * lsh._PROBE_COST > ix.num_tables * ix.ds.n for ix in grid)
