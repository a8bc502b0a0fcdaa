"""Hierarchical greedy ball selection producing an incremental center ordering.

Preprocessing values every ball B(p, radius_at(level)) over all points p and
all levels, then builds, per level, a "sequence" neighborhood index at radius
10c·R (never mutated) and a "removal" index at radius 100c^4·R (points are
deleted from it as centers claim them).  Each of these radii is classified
once by lsh.radius_kind.  A degenerate one (whole set or duplicate groups)
gets a table-free index in both modes, exact about which points the ball
holds.  A grid radius gets a grid-LSH index in lsh mode, which probes its
tables and fills its alone mask only once its probe count passes the fill's
price, and a scanning index in exact mode.  lsh mode values grid levels
with bucket sketches and degenerate levels with group estimates; exact mode
counts every ball.

Each iteration pops the available ball with the largest value, walks it down
one level at a time -- always moving to the neighbor whose next-level ball
has the largest value -- until the minimum radius, emits that ball's point
as a center, and then sweeps every removal index that still has a live
point around the new center; the removal indexes' live masks are the one
availability record.

Stopping after k iterations yields a k-center solution; the walk never looks
at k, so every prefix of the full ordering is the k-stopped solution.

State mutation (pop/descend/remove) is single-threaded; a finished Solution
is immutable and freely shareable.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lsh, sketch
from .metric import ClusterParams, Dataset, ScaleInfo, bbox_diagonal, level_radii, normalize
from .seeding import derive_seed

logger = logging.getLogger(__name__)

# The index mode of init and solve, and of `kzclust cluster` and `kzclust bench`.
DEFAULT_MODE = "lsh"

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class BallRef(NamedTuple):
    """A ball named by its center point id and level (radius is implied)."""

    point: int
    level: int


@dataclass(frozen=True)
class Solution:
    """Ordered centers with per-center descent traces."""

    centers: list[int]
    traces: list[list[BallRef]]
    early_terminated: bool

    @property
    def achieved_k(self) -> int:
        return len(self.centers)

    def prefix(self, k: int) -> list[int]:
        return self.centers[:k]


class AvailableSet:
    """All (point, level) balls ordered by value, with lazy deletion.

    Values are frozen at init and every ball enters exactly once, so a
    descending presort plus a cursor is the whole priority structure.  A
    ball (p, level) is available while the cursor has not passed it and p
    is live in that level's removal index; live holds those indexes' masks
    as rows, read flat at level·n + p.  The presort is one stable sort of
    the values laid out point-major, so ties keep layout order: the
    smallest point id, then the smallest level.
    """

    def __init__(self, values: np.ndarray, live: np.ndarray):
        levels, self.n = values.shape
        by_point = np.argsort(-values.T.ravel(), kind="stable")
        self._order = (by_point % levels) * self.n + by_point // levels
        self._live = live.reshape(-1)
        self._cursor = 0

    def pop(self) -> BallRef | None:
        """Consume and return the largest available ball, or None.

        Removed balls are skipped a window at a time, each window twice the
        last, since a removal sweep can remove long runs of the presort.  A
        ball is popped only at the cursor, which never moves back, so a pop
        writes nothing.
        """
        width = 64
        while self._cursor < len(self._order) and not self._live[self._order[self._cursor]]:
            window = self._live[self._order[self._cursor : self._cursor + width]]
            self._cursor += int(window.argmax()) if window.any() else len(window)
            width *= 2
        if self._cursor == len(self._order):
            return None
        flat = self._order[self._cursor]
        self._cursor += 1
        return BallRef(int(flat % self.n), int(flat // self.n))


class GreedyState:
    """Mutable run state: values, availability, per-level indexes, centers."""

    def __init__(self, ds: Dataset, params: ClusterParams, info: ScaleInfo, values: np.ndarray,
                 seq_indexes: list, rem_indexes: list):
        self.ds = ds
        self.params = params
        self.info = info
        self.values = values
        self.avail = AvailableSet(values, lsh.share_live(rem_indexes))
        self.seq_indexes = seq_indexes
        self.rem_indexes = rem_indexes
        self.centers: list[int] = []
        self.traces: list[list[BallRef]] = []
        self.iteration = 0

    @property
    def num_levels(self) -> int:
        return self.info.num_levels


def init(ds: Dataset, params: ClusterParams, info: ScaleInfo, mode: str = DEFAULT_MODE,
         delta: float | None = None) -> GreedyState:
    """Preprocess a normalized dataset: values, availability, index families.

    In lsh mode value estimation streams its grid tables a chunk of tables
    at a time (sketch.compute_values) and keeps none; exact mode counts the balls.
    One recipe builds every index in both modes: a degenerate radius gets
    lsh.degenerate_index, and a grid radius lsh.build in the run's mode.
    The retained lsh grid indexes start unfilled and fill their alone masks
    once their probes, priced at lsh._PROBE_COST fill entries each, pass the
    fill's L·n entries (lsh.NeighborhoodIndex.query).  init reads no
    k, so neither the state nor the ordering depends on how many centers a
    run will take.  delta, the failure probability of the grid tables,
    defaults in lsh.draw_tables.
    """
    if mode not in ("exact", "lsh"):
        raise ValueError(f"unknown mode {mode!r}")
    n = ds.n
    radii = level_radii(info, params.c)
    if math.log(n) + params.z * math.log(radii[0]) > _LOG_FLOAT_MAX:
        raise ValueError(f"ball values n·R^z exceed the float range at z={params.z}; "
                         "use a smaller z")

    diag = bbox_diagonal(ds.points)
    groups = lsh.degenerate_groups(ds.points)
    if mode == "exact":
        counts = sketch.exact_counts(ds, radii)
        values = counts.astype(np.float64) * (radii**params.z)[:, None]
    else:
        values = np.empty((info.num_levels, n), dtype=np.float64)
        for lvl in range(info.num_levels):
            radius = float(radii[lvl])
            seed = derive_seed(params.seed, "values", lvl)
            kind = lsh.radius_kind(radius, params.c, diag)
            if kind == "grid":
                values[lvl] = sketch.compute_values(
                    ds, radius, c=params.c, z=params.z, delta=delta, seed=seed,
                    num_levels=info.num_levels,
                )
            else:
                values[lvl] = sketch.group_estimates(groups[kind], seed) * radius**params.z

    def index(radius: float, seed: int):
        kind = lsh.radius_kind(radius, params.c, diag)
        if kind == "grid":
            return lsh.build(ds, radius, c=params.c, delta=delta, seed=seed, mode=mode,
                             num_levels=info.num_levels)
        return lsh.degenerate_index(kind, groups[kind])

    seq_indexes = []
    rem_indexes = []
    for lvl in range(info.num_levels):
        radius = float(radii[lvl])
        seq_indexes.append(index(10.0 * params.c * radius, derive_seed(params.seed, "seq", lvl)))
        rem_indexes.append(index(100.0 * params.c**4 * radius,
                                 derive_seed(params.seed, "rem", lvl)))

    return GreedyState(ds, params, info, values, seq_indexes, rem_indexes)


def descend(state: GreedyState, head: BallRef) -> tuple[int, list[BallRef]]:
    """Walk from a head ball down to the minimum radius; return center + trace.

    At each level the candidates are the sequence-index neighbors of the
    current point at radius 10c·R -- unfiltered by availability -- and the
    next ball is the candidate maximizing the value one level down, ties to
    the smallest point id: every index answers in ascending id order, so
    that is the first maximum.  The current point always collides with
    itself, so the candidate set is never empty, and a lone candidate is
    the point.
    """
    trace = [head]
    point, level = head.point, head.level
    last = state.num_levels - 1
    while level < last:
        candidates = state.seq_indexes[level].query(point)
        if candidates.size > 1:
            point = int(candidates[state.values[level + 1, candidates].argmax()])
        level += 1
        trace.append(BallRef(point, level))
    return point, trace


def remove_around(state: GreedyState, center_id: int) -> None:
    """Sweep each level's removal index around a just-emitted center.

    An emptied index can return nothing, so the sweep skips it.  Each
    returned point is deleted from that removal index (and only that one),
    which makes its ball at that level unavailable; sequence indexes are
    never touched, and values are never re-estimated.
    """
    for index in state.rem_indexes:
        if index.live_count:
            hit = index.query(center_id)
            if hit.size:
                index.remove_many(hit)


def run(state: GreedyState, k: int) -> Solution:
    """Select up to k centers; early-terminate when no ball is available.

    A state is consumed by a run; start from a fresh init for another k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    early = False
    emitted = set(state.centers)
    while len(state.centers) < k:
        head = state.avail.pop()
        if head is None:
            early = True
            break
        state.iteration += 1
        center, trace = descend(state, head)
        remove_around(state, center)
        if center in emitted:
            # Only reachable when an lsh removal sweep missed the center's
            # own balls (a probability-delta event); the popped head has
            # been consumed, so the run still terminates.
            logger.debug("duplicate center %d skipped at iteration %d", center, state.iteration)
            continue
        emitted.add(center)
        state.centers.append(center)
        state.traces.append(trace)
    return Solution(
        centers=list(state.centers),
        traces=[list(t) for t in state.traces],
        early_terminated=early,
    )


def run_incremental(state: GreedyState) -> Solution:
    """Full ordering: run with k = n; every prefix is the k-stopped solution."""
    return run(state, state.ds.n)


def solve(ds: Dataset, params: ClusterParams, k: int, mode: str = DEFAULT_MODE,
          delta: float | None = None) -> tuple[Solution, GreedyState]:
    """Normalize, preprocess, and run; the one-call library entry point."""
    scaled, info = normalize(ds, params.c)
    state = init(scaled, params, info, mode=mode, delta=delta)
    return run(state, k), state
