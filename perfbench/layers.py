"""Per-layer timing shims for the traced run.

:class:`LayerProbe` wraps public callables of the library in a shim that
counts calls, sums busy time and records one span per call on a
:class:`repro.observability.tracing.Tracer`.  Nothing under ``src/`` is
edited: the shims are installed on the classes and module attributes
for the duration of a traced engine run and removed afterwards.

The shims run in whatever thread or process calls the wrapped function.
Pipeline workers are forked from the benchmark process, so they inherit
the shims, but what they record stays in the worker: the pipeline's
worker-side numbers come from its own ``collect_stats`` telemetry.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Callable, Dict, Optional

import repro.core.vectorized as vectorized_module
import repro.parallel.sharded as sharded_module
from repro.common.hashing import FingerprintHasher, HashFamily, SignHashFamily
from repro.core.vectorized import BatchQuantileFilter
from repro.detection.threshold import ThresholdControlLoop
from repro.observability.alerts import AlertEngine
from repro.observability.registry import StatsRegistry
from repro.observability.timeseries import MetricStore
from repro.observability.tracing import Tracer
from repro.parallel.concurrent import ThreadIngest
from repro.parallel.pipeline import ParallelPipeline
from repro.parallel.sharded import ShardRouter
from repro.parallel.transport import ShmSlotRing

#: (owner, attribute, layer) of every wrapped callable.  ``canonical_keys``
#: is imported by name into the engine modules, so it is wrapped there.
WRAPPED = (
    (vectorized_module, "canonical_keys", "hashing"),
    (sharded_module, "canonical_keys", "hashing"),
    (FingerprintHasher, "fingerprints_batch", "hashing"),
    (HashFamily, "indices_batch", "hashing"),
    (SignHashFamily, "signs_batch", "hashing"),
    (BatchQuantileFilter, "process", "vectorized"),
    (ThreadIngest, "flush", "concurrent.flush"),
    (ParallelPipeline, "start", "pipeline.start"),
    (ParallelPipeline, "feed", "pipeline.feed"),
    (ParallelPipeline, "finish", "pipeline.finish"),
    (ParallelPipeline, "retarget", "pipeline.retarget"),
    (ShardRouter, "split", "pipeline.route"),
    (ShmSlotRing, "write", "transport.write"),
    (StatsRegistry, "snapshot", "observability.snapshot"),
    (MetricStore, "collect", "timeseries.collect"),
    (AlertEngine, "evaluate", "alerts.evaluate"),
    (ParallelPipeline, "collect_stats_view", "observability.stats_view"),
    (ThresholdControlLoop, "observe_many", "threshold.observe"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))


def _slot_write_bytes(args) -> int:
    # ShmSlotRing.write(self, slot_id, keys, values)
    return int(args[2].nbytes + args[3].nbytes)


#: Layers that also count bytes, with the function reading them off the
#: wrapped call's positional arguments.
SIZED: Dict[str, Callable] = {"transport.write": _slot_write_bytes}


class LayerProbe:
    """Counts calls and busy time per layer while installed.

    ``busy`` sums every call of a layer, in any thread.  ``client_self``
    sums, for calls made in the thread that installed the probe (the
    benchmark's client), each call's time minus the time of the wrapped
    calls nested inside it, so the client's layers add up without
    counting anything twice.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals = []
        self._client = threading.get_ident()
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.client_self: Dict[str, float] = {}
        self.bytes: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = dict.fromkeys(LAYERS, 0)
            self.busy = dict.fromkeys(LAYERS, 0.0)
            self.client_self = dict.fromkeys(LAYERS, 0.0)
            self.bytes = dict.fromkeys(LAYERS, 0)

    def install(self) -> None:
        self._client = threading.get_ident()
        for owner, attr, layer in WRAPPED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._shim(original, layer, SIZED.get(layer)))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _shim(self, original, layer: str, size: Optional[Callable]):
        lock, tracer, local = self._lock, self.tracer, self._local

        @functools.wraps(original)
        def timed(*args, **kwargs):
            # One entry per wrapped call in progress in this thread: the
            # time of the wrapped calls nested inside it.
            nested = local.__dict__.setdefault("nested", [])
            nested.append(0.0)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                with lock:
                    self.calls[layer] += 1
                    self.busy[layer] += elapsed
                    if threading.get_ident() == self._client:
                        self.client_self[layer] += elapsed - inner
                    if size is not None:
                        self.bytes[layer] += size(args)
                tracer.add_span(layer, start, end, cat="layer")

        return timed
