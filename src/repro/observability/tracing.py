"""Low-overhead span tracing with Chrome trace-event JSON export.

A :class:`Tracer` records *spans* (named durations) and *instant
events* into a ring buffer of plain tuples — appends are a deque
``append`` plus two ``perf_counter`` calls, cheap enough to wrap every
pipeline stage.  The buffer is bounded (oldest events drop first, with
a drop counter), so a tracer left attached to a long-running monitor
cannot grow without limit.

Export is the Chrome trace-event JSON format: load the written file in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` to see the
pipeline's feed / insert / queue-wait / merge timeline per process.
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared across
processes, so worker spans folded into the master tracer line up on one
timeline.

>>> tracer = Tracer()
>>> with tracer.span("demo_stage", items=3):
...     pass
>>> tracer.instant("demo_event", kind="report")
>>> [e["name"] for e in tracer.chrome_events()]
['demo_stage', 'demo_event']
>>> tracer.chrome_events()[0]["ph"]
'X'

Filter-core visibility rides an event hook: the scalar
:class:`~repro.core.quantile_filter.QuantileFilter` calls its
``trace_hook`` (``None`` by default — one predicate per event site) on
candidate election, vague→candidate replacement and report emission.
:func:`attach_filter_tracing` installs a sampling
:class:`FilterTraceHook` so a traced run records every ``1/sample_every``
structural event as an instant.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.common.errors import ParameterError

#: Span names the pipeline emits; documented in docs/observability.md
#: and asserted by the CI trace smoke test.
PIPELINE_SPANS = (
    "pipeline_feed",
    "pipeline_collect",
    "shard_insert",
    "shard_queue_wait",
)

#: Instant-event names the filter core emits through its trace hook.
FILTER_EVENTS = ("candidate_elect", "candidate_swap", "report")

_DEFAULT_CAPACITY = 65_536


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.add_span(
            self._name,
            self._start,
            time.perf_counter(),
            cat=self._cat,
            args=self._args,
        )


class Tracer:
    """Ring-buffer bounded collector of spans and instant events.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events drop first and are
        counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = _DEFAULT_CAPACITY):
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.recorded = 0
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "pipeline", **args) -> _SpanContext:
        """Context manager timing one named span.

        ``args`` become the Chrome event's ``args`` payload (chunk ids,
        item counts, ...).
        """
        return _SpanContext(self, name, cat, args)

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        cat: str = "pipeline",
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed span from explicit ``perf_counter`` times."""
        self._append(
            {
                "name": name,
                "ph": "X",
                "cat": cat,
                "ts": start_s * 1e6,
                "dur": max(0.0, (end_s - start_s) * 1e6),
                "pid": self._pid,
                "tid": threading.get_ident() & 0xFFFF_FFFF,
                "args": dict(args or {}),
            }
        )

    def instant(self, name: str, cat: str = "filter", **args) -> None:
        """Record a zero-duration instant event."""
        self._append(
            {
                "name": name,
                "ph": "i",
                "cat": cat,
                "ts": time.perf_counter() * 1e6,
                "s": "p",
                "pid": self._pid,
                "tid": threading.get_ident() & 0xFFFF_FFFF,
                "args": dict(args),
            }
        )

    def extend(self, events: Iterable[dict]) -> None:
        """Fold already-formatted events (e.g. a worker's) into this
        tracer's buffer."""
        for event in events:
            self._append(dict(event))

    def _append(self, event: dict) -> None:
        self._events.append(event)
        self.recorded += 1

    # ------------------------------------------------------------------
    # reading and export
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer so far."""
        return self.recorded - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def chrome_events(self) -> List[dict]:
        """The retained events, oldest first, in Chrome trace format."""
        return list(self._events)

    def chrome_trace(self, **metadata) -> Dict:
        """The full Chrome trace-event JSON object (Perfetto-loadable)."""
        trace = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
        }
        if self.dropped:
            metadata.setdefault("droppedEvents", self.dropped)
        if metadata:
            trace["metadata"] = metadata
        return trace

    def write(self, path, **metadata) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(**metadata), handle)

    def clear(self) -> None:
        """Drop all buffered events (the drop counter resets too)."""
        self._events.clear()
        self.recorded = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer({len(self._events)}/{self.capacity} events, "
            f"dropped={self.dropped})"
        )


class FilterTraceHook:
    """Sampling adapter between a filter's trace hook and a tracer.

    The filter calls ``hook(kind, key, bucket, qweight, item_index)``
    on each structural event; every ``sample_every``-th call per kind
    becomes an instant event on the tracer.  ``sample_every=1`` records
    everything (tests); larger values bound tracing cost on hot
    streams.
    """

    __slots__ = ("tracer", "sample_every", "_seen")

    def __init__(self, tracer: Tracer, sample_every: int = 64):
        if sample_every < 1:
            raise ParameterError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.tracer = tracer
        self.sample_every = sample_every
        self._seen: Dict[str, int] = {}

    def __call__(self, kind, key, bucket, qweight, item_index) -> None:
        seen = self._seen.get(kind, 0)
        self._seen[kind] = seen + 1
        if seen % self.sample_every:
            return
        self.tracer.instant(
            kind,
            key=repr(key),
            bucket=bucket,
            qweight=qweight,
            item_index=item_index,
        )


def attach_filter_tracing(
    filt, tracer: Tracer, sample_every: int = 64
) -> FilterTraceHook:
    """Install a sampling trace hook on a scalar filter.

    Only the scalar :class:`~repro.core.quantile_filter.QuantileFilter`
    (and wrappers that expose its ``trace_hook`` attribute) emit
    structural events; the numpy batch engine keeps its hot loop
    hook-free by design.
    """
    if not hasattr(filt, "trace_hook"):
        raise ParameterError(
            f"{type(filt).__name__} has no trace_hook attribute; "
            "structural tracing needs the scalar QuantileFilter"
        )
    hook = FilterTraceHook(tracer, sample_every=sample_every)
    filt.trace_hook = hook
    return hook
