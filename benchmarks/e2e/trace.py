"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions (spans inside ``src/`` are ROADMAP item 1).
A span is ``(id, layer, start, end, parent, request)``; counts are
recorded at the same boundaries.  Everything stays in memory and is
written out only when the run ends, so tracing costs two clock reads
and one list append per span.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Collects spans and counts; thread-safe, parent taken per thread."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, start: float, end: float,
               parent: int | None = None, request: Any = None) -> int:
        """Add a finished span (used where start is a schedule, not a call)."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "layer": layer, "start": start,
                               "end": end, "parent": parent,
                               "request": request})
        return span_id

    @contextmanager
    def span(self, layer: str, request: Any = None) -> Iterator[int]:
        """Time the body as one span, child of this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        span_id = self.record(layer, 0.0, 0.0, parent, request)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = self.spans[span_id]
            span["start"], span["end"] = start, end

    def count(self, layer: str, name: str, value: float,
              request: Any = None) -> None:
        with self._lock:
            self.counts.append({"layer": layer, "name": name,
                                "value": value, "request": request})

    # ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus child-covered time."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        result = {}
        for span in self.spans:
            covered, cursor = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            result[span["id"]] = span["end"] - span["start"] - covered
        return result

    def layer_medians(self, under: str, since: int = 0,
                      group: Callable[[Any], Any] = lambda request: None
                      ) -> dict[str, float]:
        """Typical self seconds per layer under ``under`` root spans.

        Each root span (recorded at or after index ``since``) gives one
        total per layer.  Roots are grouped by ``group(request)`` — e.g.
        the statement class — and the result is the sum over groups of
        the group's median, so a burst of interference during one root
        does not move it.  The root itself is reported under its own
        layer name as its full duration.
        """
        own = self.self_times()
        per_root: dict[int, dict[str, float]] = {}
        for span in self.spans[since:]:
            root = span
            while root["parent"] is not None:
                root = self.spans[root["parent"]]
            if root["layer"] != under:
                continue
            totals = per_root.setdefault(root["id"], {})
            seconds = (span["end"] - span["start"] if span is root
                       else own[span["id"]])
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + seconds
        groups: dict[Any, list[dict[str, float]]] = {}
        for root_id, totals in per_root.items():
            groups.setdefault(group(self.spans[root_id]["request"]),
                              []).append(totals)
        result: dict[str, float] = {}
        for members in groups.values():
            for layer in {name for totals in members for name in totals}:
                result[layer] = result.get(layer, 0.0) + statistics.median(
                    totals.get(layer, 0.0) for totals in members)
        return result

    def durations(self, layer: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["layer"] == layer]

    def count_total(self, layer: str, name: str) -> float:
        return sum(c["value"] for c in self.counts
                   if c["layer"] == layer and c["name"] == name)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per line: spans first, then counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"kind": "span", **span}) + "\n")
            for count in self.counts:
                handle.write(json.dumps({"kind": "count", **count}) + "\n")
