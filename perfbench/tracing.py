"""Span tracing of the pipeline's layers, installed from the benchmark's side.

``installed(tracer)`` wraps the public functions each layer exposes (the
names the pipeline looks up at call time) and restores them on exit, so no
program file changes.  A span records its name, start, end, parent span and
the pipeline call it belongs to; spans stay in memory until ``write``.

Counting that needs more than the result's length runs after the layer's
own span has closed, inside a ``trace.bookkeeping`` span of its own, so it
is charged to no layer.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from kzclust import cli, greedy, lsh, sketch

BOOKKEEPING = "trace.bookkeeping"
_KIND = {"NeighborhoodIndex": "grid", "_AllPointsIndex": "all", "_DuplicateGroupIndex": "dup"}
PIPELINE = "cli.pipeline"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (call, id, parent, name, start, end)
        self.call = -1
        self.counts: list[Counter] = []
        self.state = None  # GreedyState of the latest call; dropped once summarised
        self._stack: list[int] = []
        self._scan = weakref.WeakKeyDictionary()

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((self.call, sid, self._stack[-1] if self._stack else None, name,
                           time.perf_counter(), None))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        call, _, parent, name, start, _ = self.spans[sid]
        self.spans[sid] = (call, sid, parent, name, start, end)

    @contextmanager
    def pipeline_call(self):
        """One traced pipeline call: a root span and fresh counters."""
        self.call += 1
        self.counts.append(Counter())
        self.state = None
        sid = self.begin(PIPELINE)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------ counters

    def _scanned_per_point(self, index) -> np.ndarray:
        """Bucket entries a query for each point reads, summed over tables."""
        scan = self._scan.get(index)
        if scan is None:
            sid = self.begin(BOOKKEEPING)
            scan = np.zeros(index.ds.n, dtype=np.int64)
            for table in index.tables:
                scan += np.diff(table.offsets)[table.point_bucket]
            self._scan[index] = scan
            self.end(sid)
        return scan

    def _after_query(self, args, result) -> None:
        index, point_id = args[0], args[1]
        counts = self.counts[self.call]
        counts["lsh.ids_returned"] += len(result)
        counts["lsh.ids_scanned"] += int(self._scanned_per_point(index)[point_id])

    def _after_remove(self, args, result) -> None:
        self.counts[self.call]["lsh.ids_removed"] += len(args[1])

    def _after_init(self, args, state) -> None:
        self.state = state

    # ------------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the latest traced call; releases its state."""
        call, state, self.state = self.call, self.state, None
        spans = [s for s in self.spans if s[0] == call]
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _, sid, _, name, start, end in spans:
            total[name] += end - start
            own[name] += end - start - child_time[sid]
            calls[name] += 1
        counts = self.counts[call]
        grid = [ix for ix in state.seq_indexes + state.rem_indexes
                if isinstance(ix, lsh.NeighborhoodIndex)]
        table_bytes = sum(t.point_bucket.nbytes + t.order.nbytes + t.offsets.nbytes
                          + t.shift.nbytes for ix in grid for t in ix.tables)
        scanned = counts["lsh.ids_scanned"]
        return {
            "metric.normalize_s": total["metric.normalize"],
            "metric.normalize_calls": calls["metric.normalize"],
            "metric.project_s": total["metric.project"],
            "metric.cost_s": total["metric.cost"],
            "metric.cost_calls": calls["metric.cost"],
            "lsh.build_s": own["lsh.build"],
            "lsh.build_calls": calls["lsh.build"],
            "lsh.grid_indexes": len(grid),
            "lsh.tables": sum(ix.num_tables for ix in grid),
            "lsh.table_bytes": table_bytes,
            "lsh.query_s": own["lsh.query"],
            "lsh.query_calls": calls["lsh.query"],
            "lsh.ids_returned": counts["lsh.ids_returned"],
            "lsh.ids_scanned": scanned,
            "lsh.scan_yield": counts["lsh.ids_returned"] / scanned if scanned else 0.0,
            "lsh.remove_s": own["lsh.remove"],
            "lsh.ids_removed": counts["lsh.ids_removed"],
            "sketch.values_s": own["sketch.values"],
            "sketch.values_calls": calls["sketch.values"],
            "greedy.init_self_s": own["greedy.init"],
            "greedy.degenerate_indexes": len(state.seq_indexes) + len(state.rem_indexes) - len(grid),
            "greedy.descend_s": own["greedy.descend"],
            "greedy.remove_around_s": own["greedy.remove_around"],
            "greedy.run_self_s": own["greedy.run"],
            "greedy.iterations": state.iteration,
            "greedy.duplicate_skips": state.iteration - len(state.centers),
            "cli.pipeline_self_s": own[PIPELINE],
            "trace.bookkeeping_s": own[BOOKKEEPING],
            "trace.self_sum_s": sum(own.values()),
        }

    def index_kinds(self) -> dict[str, list[str]]:
        """Index kind per level of the latest call, for each index family."""
        return {family: [_KIND.get(type(ix).__name__, type(ix).__name__) for ix in indexes]
                for family, indexes in (("seq", self.state.seq_indexes),
                                        ("rem", self.state.rem_indexes))}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["call", "id", "parent", "name", "start", "end"], "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


@contextmanager
def installed(tracer: Tracer):
    """Wrap each layer's public entry points for the duration of the block."""
    targets = [
        (cli, "normalize", "metric.normalize", None),
        (cli, "jl_project", "metric.project", None),
        (cli, "cost", "metric.cost", None),
        (greedy, "init", "greedy.init", tracer._after_init),
        (greedy, "run", "greedy.run", None),
        (greedy, "descend", "greedy.descend", None),
        (greedy, "remove_around", "greedy.remove_around", None),
        (lsh, "build", "lsh.build", None),
        (sketch, "compute_values", "sketch.values", None),
        (lsh.NeighborhoodIndex, "query", "lsh.query", tracer._after_query),
        (lsh.NeighborhoodIndex, "remove_many", "lsh.remove", tracer._after_remove),
    ]
    saved = []
    try:
        for owner, attr, name, after in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
