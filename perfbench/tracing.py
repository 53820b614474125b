"""Spans and counters for the traced benchmark run.

Spans are recorded only from the benchmark's own code: around each call
it makes into a ``loewner_lab`` module, and inside the transfer maps it
hands to the library (see :meth:`Tracer.wrap`), which count evaluation
calls, points and time from outside.  Everything stays in memory until
the run ends; :func:`per_layer` turns it into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

from loewner_lab import TransferMap

# Span names, one per module boundary the benchmark crosses.  The metric
# "<name>_s" is the time spent in those spans per traced operation.
LAYER_SPANS = (
    "plant_oracle.eval",
    "freq_data.io",
    "freq_data.closure",
    "loewner_core.build",
    "loewner_core.rank",
    "loewner_core.project",
    "descriptor_ops.eval",
    "lddc.kstar",
    "lddc.reduce",
    "pi_synth.optimize",
    "mfsa.sweep",
)


class Tracer:
    """Records spans (id, parent, op, name, start, end, points, grid).

    The benchmark is a single client, so only its main thread opens spans
    with :meth:`span`.  Wrapped transfer maps may be called from the
    library's worker threads; they record leaf spans whose parent is the
    span the main thread has open, and only append to the span list.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = {}
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; counters are kept per operation."""
        self._op = op_id
        self.counts[op_id] = Counter()
        with self.span("op"):
            yield

    @contextmanager
    def span(self, name: str, points: int = 0):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self._op, name, start, end, points, None))

    def add(self, name: str, n: int) -> None:
        self.counts[self._op][name] += int(n)

    def wrap(self, tmap: TransferMap, name: str) -> TransferMap:
        """Same map and realization, with each evaluation recorded as a span."""
        fn = tmap.fn

        def traced(s):
            start = time.perf_counter()
            out = fn(s)
            end = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            self.spans.append(
                (next(self._ids), parent, self._op, name, start, end,
                 int(s.size), hash(s.tobytes()))
            )
            return out

        return TransferMap(fn=traced, label=tmap.label, realization=tmap.realization)

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "points")
        with open(path, "w") as fh:
            for sp in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, sp))) + "\n")


class NullTracer:
    """Stand-in for the untraced run: records nothing, wraps nothing."""

    def span(self, name: str, points: int = 0):
        return nullcontext()

    def add(self, name: str, n: int) -> None:
        pass

    def wrap(self, tmap: TransferMap, name: str) -> TransferMap:
        return tmap


NULL = NullTracer()


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children of one span may overlap when the library runs them on worker
    threads, so the covered part is the union of their intervals.
    """
    children: dict[int, list] = {}
    for sid, parent, _op, _name, start, end, _pts, _grid in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()))
        for sid, _parent, _op, _name, start, end, _pts, _grid in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, count_ops: int, overhead_s: float) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit).

    Times are per traced operation, averaged over all of them.  Counts and
    the ratios built from them cover the first ``count_ops`` operations
    only, whose inputs depend on the seed alone, so they repeat exactly.
    Layers a workload does not call report zero.
    """
    n_ops = len(tracer.counts)
    spans = tracer.spans
    busy = Counter()
    for _sid, _parent, _op, name, start, end, _pts, _grid in spans:
        busy[name] += end - start
    out = {f"{name}_s": (busy[name] / n_ops, "s") for name in LAYER_SPANS}

    names = {sid: name for sid, _parent, _op, name, *_ in spans}
    selfs = self_times(spans)
    opt_self = sum(selfs[sid] for sid, name in names.items() if name == "pi_synth.optimize")
    out["pi_synth.self_s"] = (opt_self / n_ops, "s")

    first = [sp for sp in spans if sp[2] < count_ops]
    counts = Counter()
    for op_id in range(count_ops):
        counts.update(tracer.counts.get(op_id, {}))
    plant_calls = [sp for sp in first
                   if sp[3] == "descriptor_ops.eval" and names.get(sp[1]) == "pi_synth.optimize"]
    grids = {(sp[2], sp[7]) for sp in plant_calls}

    mfsa_rows = counts["mfsa.rows"]
    all_rows = sum(c["mfsa.rows"] for c in tracer.counts.values())
    out.update({
        "loewner_core.pencil_n": (sum(sp[3] == "loewner_core.build" for sp in first), "count"),
        "loewner_core.rank_sum": (counts["loewner_core.rank_sum"], "count"),
        "lddc.rows": (counts["lddc.rows"], "count"),
        "lddc.failed_rows": (_ratio(counts["lddc.failed_rows"], counts["lddc.rows"]), "ratio"),
        "pi_synth.plant_evals": (len(plant_calls), "count"),
        "pi_synth.plant_eval_points": (sum(sp[6] for sp in plant_calls), "count"),
        "pi_synth.evals_per_grid": (_ratio(len(plant_calls), len(grids)), "ratio"),
        "pi_synth.feasible_ratio": (
            _ratio(counts["pi_synth.feasible"], counts["pi_synth.candidates"]), "ratio"),
        "mfsa.rows": (mfsa_rows, "count"),
        "mfsa.row_s": (_ratio(busy["mfsa.sweep"], all_rows), "s"),
        "mfsa.inconclusive_ratio": (_ratio(counts["mfsa.inconclusive_rows"], mfsa_rows), "ratio"),
        "freq_data.samples": (counts["freq_data.samples"], "count"),
        "plant_oracle.points": (sum(sp[6] for sp in first if sp[3] == "plant_oracle.eval"),
                                "count"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out
