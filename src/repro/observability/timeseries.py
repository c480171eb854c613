"""Fixed-memory time-series retention for registry snapshots.

Every exporter in this package serves *point-in-time* snapshots; this
module adds the missing time axis under a strict memory contract.  A
:class:`MetricStore` scrapes any snapshot-shaped source (a
:class:`~repro.observability.registry.StatsRegistry`, the health
monitor's signal gauges, the recorder gauges — anything producing
``{sample_name: float}``) into one :class:`Series` per sample.

Retention follows the same compaction discipline as the quantile
sketches themselves: a **fine ring** keeps the newest ``capacity``
points exactly; points rotating out are folded ``downsample``-at-a-time
into a **coarse ring** of (timestamp, mean, max, count) summaries; and
when the coarse ring overflows, the oldest summaries are dropped and
tallied in an eviction counter.  Total memory is therefore bounded per
series and — via ``max_series`` stalest-series eviction — per store,
with the counters accounting exactly for every point ever ingested:

``ingested == fine + pending + coarse_weight + evicted``

Derivations (``rate``/``delta``/``mean``/``max``/``min``) are computed
from the raw fine-ring points, so they are exact over the retained
window; percentiles go through a
:class:`~repro.observability.histogram.LogHistogram` fitted to the
window's value range.

>>> store = MetricStore(capacity=4, downsample=2, clock=lambda: 0.0)
>>> for tick in range(8):
...     _ = store.collect({"demo_total": float(tick * 10)}, now=float(tick))
>>> store.derive("rate", "demo_total", window=3.0, now=7.0)
10.0
>>> store.derive("delta", "demo_total", window=3.0, now=7.0)
30.0
>>> series = store.series_for("demo_total")[0]
>>> series.fine_count, series.ingested
(4, 8)
>>> (series.fine_count + series.pending_count + series.coarse_weight
...     + series.evicted) == series.ingested
True
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ParameterError
from repro.observability.histogram import LogHistogram
from repro.observability.registry import (
    SPEC_INDEX,
    MetricSpec,
    base_name,
)

#: Help text for the store's own telemetry (documented in
#: ``docs/observability.md`` like every other family).
STORE_METRIC_HELP = {
    "qf_store_series": "Series currently retained by the metric store.",
    "qf_store_points_retained":
        "Stored points across all series (fine + pending + coarse).",
    "qf_store_points_ingested_total":
        "Samples ever ingested by the metric store.",
    "qf_store_points_evicted_total":
        "Samples dropped from retention (coarse-ring overflow plus "
        "whole-series eviction), weighted by original sample count.",
    "qf_store_series_evicted_total":
        "Whole series evicted to honour max_series.",
    "qf_store_collections_total": "Snapshot collections accepted.",
    "qf_store_collections_skipped_total":
        "Collections skipped by the step_seconds throttle.",
    "qf_store_bytes": "Approximate retained-point memory in bytes.",
}

_STORE_GAUGES = {"qf_store_series", "qf_store_points_retained",
                 "qf_store_bytes"}

for _name, _help in STORE_METRIC_HELP.items():
    _kind = "counter" if _name.endswith("_total") else "gauge"
    SPEC_INDEX.setdefault(
        _name,
        MetricSpec(name=_name, kind=_kind, help=_help,
                   agg="max" if _name in _STORE_GAUGES else "sum"),
    )
del _name, _help, _kind

#: Bytes per retained point (timestamp + value as float64) — the basis
#: of the ``qf_store_bytes`` estimate.  Coarse points carry four floats.
_POINT_BYTES = 16
_COARSE_POINT_BYTES = 32

#: Derivation functions understood by :meth:`MetricStore.derive` (and
#: therefore by the alert-rule grammar).  ``value`` and ``age`` read the
#: latest sample and take no window; the rest require one.
WINDOW_DERIVATIONS = ("rate", "delta", "mean", "max", "min",
                      "p50", "p90", "p99", "p999")
POINT_DERIVATIONS = ("value", "age")
DERIVATIONS = POINT_DERIVATIONS + WINDOW_DERIVATIONS

_PERCENTILE_Q = {"p50": 50.0, "p90": 90.0, "p99": 99.0, "p999": 99.9}


class Series:
    """One metric sample's history under a fixed memory budget.

    The newest ``capacity`` points live in the fine ring as parallel
    numpy arrays.  Rotated-out points wait in a small pending buffer
    until ``downsample`` of them can be folded into one coarse
    ``(t, mean, max, count)`` summary; at most ``coarse_capacity``
    summaries are kept, older ones are dropped and their weight added
    to :attr:`evicted`.  With ``downsample=0`` the coarse tier is
    disabled and rotated-out points are evicted directly.
    """

    __slots__ = ("name", "capacity", "downsample", "coarse_capacity",
                 "_t", "_v", "_start", "_size",
                 "_pending_t", "_pending_v", "_coarse",
                 "ingested", "evicted")

    def __init__(
        self,
        name: str,
        capacity: int = 240,
        downsample: int = 8,
        coarse_capacity: Optional[int] = None,
    ):
        if capacity < 2:
            raise ParameterError(f"capacity must be >= 2, got {capacity}")
        if downsample < 0:
            raise ParameterError(
                f"downsample must be >= 0, got {downsample}"
            )
        self.name = name
        self.capacity = int(capacity)
        self.downsample = int(downsample)
        if coarse_capacity is None:
            coarse_capacity = self.capacity if downsample else 0
        if coarse_capacity < 0:
            raise ParameterError(
                f"coarse_capacity must be >= 0, got {coarse_capacity}"
            )
        self.coarse_capacity = int(coarse_capacity)
        self._t = np.zeros(self.capacity, dtype=np.float64)
        self._v = np.zeros(self.capacity, dtype=np.float64)
        self._start = 0
        self._size = 0
        self._pending_t: List[float] = []
        self._pending_v: List[float] = []
        # Coarse summaries, oldest first: (t_end, mean, max, count).
        self._coarse: List[Tuple[float, float, float, int]] = []
        self.ingested = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, t: float, v: float) -> None:
        """Record one point, rotating the oldest out when full."""
        if self._size < self.capacity:
            idx = (self._start + self._size) % self.capacity
            self._t[idx] = t
            self._v[idx] = v
            self._size += 1
        else:
            self._spill(
                self._t[self._start:self._start + 1],
                self._v[self._start:self._start + 1],
            )
            self._t[self._start] = t
            self._v[self._start] = v
            self._start = (self._start + 1) % self.capacity
        self.ingested += 1

    def append_many(self, ts: Sequence[float], vs: Sequence[float]) -> None:
        """Vectorised bulk append (the 10M-tick soak path).

        Equivalent to calling :meth:`append` per point but rebuilds the
        ring with numpy concatenation, so a large batch costs O(batch)
        instead of O(batch * python-overhead).
        """
        ts = np.asarray(ts, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise ParameterError(
                "append_many needs two equal-length 1-d arrays, got "
                f"shapes {ts.shape} and {vs.shape}"
            )
        if ts.size == 0:
            return
        old_t, old_v = self.points()
        all_t = np.concatenate([old_t, ts])
        all_v = np.concatenate([old_v, vs])
        overflow = all_t.size - self.capacity
        if overflow > 0:
            self._spill(all_t[:overflow], all_v[:overflow])
            all_t = all_t[overflow:]
            all_v = all_v[overflow:]
        self._t[:all_t.size] = all_t
        self._v[:all_v.size] = all_v
        self._start = 0
        self._size = int(all_t.size)
        self.ingested += int(ts.size)

    def _spill(self, ts: np.ndarray, vs: np.ndarray) -> None:
        """Route points rotating out of the fine ring."""
        if self.downsample == 0:
            self.evicted += int(ts.size)
            return
        self._pending_t.extend(ts.tolist())
        self._pending_v.extend(vs.tolist())
        groups = len(self._pending_t) // self.downsample
        if groups:
            width = self.downsample
            used = groups * width
            gt = np.asarray(self._pending_t[:used]).reshape(groups, width)
            gv = np.asarray(self._pending_v[:used]).reshape(groups, width)
            self._coarse.extend(
                zip(
                    gt[:, -1].tolist(),
                    gv.mean(axis=1).tolist(),
                    gv.max(axis=1).tolist(),
                    [width] * groups,
                )
            )
            del self._pending_t[:used]
            del self._pending_v[:used]
        excess = len(self._coarse) - self.coarse_capacity
        if excess > 0:
            self.evicted += sum(c for _, _, _, c in self._coarse[:excess])
            del self._coarse[:excess]

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def points(self) -> Tuple[np.ndarray, np.ndarray]:
        """The fine ring's ``(timestamps, values)``, oldest first."""
        if self._size == 0:
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64))
        idx = (self._start + np.arange(self._size)) % self.capacity
        return self._t[idx], self._v[idx]

    def window(self, t0: float) -> Tuple[np.ndarray, np.ndarray]:
        """Fine points with timestamp >= ``t0``, oldest first."""
        ts, vs = self.points()
        keep = ts >= t0
        return ts[keep], vs[keep]

    def coarse(self) -> List[Tuple[float, float, float, int]]:
        """The coarse summaries ``(t_end, mean, max, count)``, oldest
        first."""
        return list(self._coarse)

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent ``(timestamp, value)``, or ``None``."""
        if self._size == 0:
            return None
        idx = (self._start + self._size - 1) % self.capacity
        return float(self._t[idx]), float(self._v[idx])

    @property
    def fine_count(self) -> int:
        return self._size

    @property
    def pending_count(self) -> int:
        return len(self._pending_t)

    @property
    def coarse_count(self) -> int:
        return len(self._coarse)

    @property
    def coarse_weight(self) -> int:
        """Original samples summarised by the coarse ring."""
        return sum(c for _, _, _, c in self._coarse)

    @property
    def retained_points(self) -> int:
        """Stored points (the memory bound): fine + pending + coarse."""
        return self.fine_count + self.pending_count + self.coarse_count

    @property
    def retained_weight(self) -> int:
        """Original samples still represented in retention."""
        return self.fine_count + self.pending_count + self.coarse_weight

    @property
    def nbytes(self) -> int:
        return (
            (self.fine_count + self.pending_count) * _POINT_BYTES
            + self.coarse_count * _COARSE_POINT_BYTES
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Series({self.name!r}, fine={self.fine_count}, "
            f"coarse={self.coarse_count}, evicted={self.evicted})"
        )


class MetricStore:
    """Scrape snapshot dicts into bounded per-series ring buffers.

    Parameters
    ----------
    step_seconds:
        Minimum spacing between accepted collections; calls arriving
        sooner are counted as skipped and ignored, so callers can
        invoke :meth:`collect` on every loop iteration and let the
        store self-throttle.  ``0`` accepts everything.
    capacity / downsample / coarse_capacity:
        Per-series retention geometry (see :class:`Series`).
    max_series:
        Hard cap on concurrently retained series; collecting a new
        sample name beyond it evicts the stalest series (oldest last
        update) and tallies its weight as evicted.
    clock:
        Time source used when ``now`` is not passed explicitly —
        injectable so tests and one-shot CLI evaluation can run on a
        synthetic clock.

    All public methods are safe to call from multiple threads; one lock
    guards both collection and window queries, so scrapes never observe
    a half-written ring.
    """

    def __init__(
        self,
        step_seconds: float = 0.0,
        capacity: int = 240,
        downsample: int = 8,
        coarse_capacity: Optional[int] = None,
        max_series: int = 1024,
        clock: Callable[[], float] = time.time,
    ):
        if step_seconds < 0:
            raise ParameterError(
                f"step_seconds must be >= 0, got {step_seconds}"
            )
        if max_series < 1:
            raise ParameterError(
                f"max_series must be >= 1, got {max_series}"
            )
        # Validate geometry eagerly by building a probe series.
        Series("probe", capacity, downsample, coarse_capacity)
        self.step_seconds = float(step_seconds)
        self.capacity = int(capacity)
        self.downsample = int(downsample)
        self.coarse_capacity = coarse_capacity
        self.max_series = int(max_series)
        self.clock = clock
        self._series: Dict[str, Series] = {}
        #: Family name -> its series by sample name, so a bare-family
        #: lookup never parses every retained sample name.
        self._families: Dict[str, Dict[str, Series]] = {}
        self._lock = threading.RLock()
        self._last_collect: Optional[float] = None
        self.collections = 0
        self.collections_skipped = 0
        self.series_evicted = 0
        #: Ingested/evicted weight carried over from evicted series.
        self._ingested_carry = 0
        self._evicted_carry = 0

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(
        self,
        snapshot: Mapping[str, float],
        now: Optional[float] = None,
    ) -> bool:
        """Record one point per snapshot sample; ``False`` if throttled."""
        if now is None:
            now = self.clock()
        now = float(now)
        with self._lock:
            if (
                self._last_collect is not None
                and now - self._last_collect < self.step_seconds
            ):
                self.collections_skipped += 1
                return False
            for sample, value in snapshot.items():
                try:
                    v = float(value)
                except (TypeError, ValueError):
                    continue
                self._series_locked(sample).append(now, v)
            self._last_collect = now
            self.collections += 1
            return True

    def ingest_many(
        self,
        metric: str,
        ts: Sequence[float],
        vs: Sequence[float],
    ) -> None:
        """Bulk-load one series (bypasses the step throttle)."""
        with self._lock:
            self._series_locked(metric).append_many(ts, vs)

    def _series_locked(self, sample: str) -> Series:
        series = self._series.get(sample)
        if series is None:
            if len(self._series) >= self.max_series:
                self._evict_stalest_locked()
            series = Series(
                sample, self.capacity, self.downsample, self.coarse_capacity
            )
            self._series[sample] = series
            self._families.setdefault(base_name(sample), {})[sample] = series
        return series

    def _evict_stalest_locked(self) -> None:
        stalest = min(
            self._series.values(),
            key=lambda s: s.last[0] if s.last else float("-inf"),
        )
        self._ingested_carry += stalest.ingested
        self._evicted_carry += stalest.ingested
        self.series_evicted += 1
        del self._series[stalest.name]
        family = base_name(stalest.name)
        del self._families[family][stalest.name]
        if not self._families[family]:
            del self._families[family]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def series_for(self, metric: str) -> List[Series]:
        """Series matching ``metric``.

        An exact sample name (labels included) matches one series; a
        bare family name pools every labelled series of that family.
        """
        with self._lock:
            exact = self._series.get(metric)
            if exact is not None:
                return [exact]
            return list(self._families.get(metric, {}).values())

    def names(self) -> List[str]:
        """All retained sample names, sorted."""
        with self._lock:
            return sorted(self._series)

    def window(
        self,
        metric: str,
        window_seconds: float,
        now: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pooled ``(timestamps, values)`` over the trailing window."""
        if now is None:
            now = self.clock()
        t0 = float(now) - float(window_seconds)
        with self._lock:
            parts = [s.window(t0) for s in self.series_for(metric)]
        if not parts:
            return (np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64))
        ts = np.concatenate([p[0] for p in parts])
        vs = np.concatenate([p[1] for p in parts])
        order = np.argsort(ts, kind="stable")
        return ts[order], vs[order]

    # ------------------------------------------------------------------
    # derivations
    # ------------------------------------------------------------------
    def derive(
        self,
        fn: str,
        metric: str,
        window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Evaluate one derivation; ``None`` when data is insufficient.

        ``fn`` is one of :data:`DERIVATIONS`.  Window derivations pool
        every series matching ``metric`` (counters sum their per-series
        rates/deltas; distributional functions pool raw points).
        """
        if fn not in DERIVATIONS:
            raise ParameterError(
                f"unknown derivation {fn!r}; choose from {DERIVATIONS}"
            )
        if fn in POINT_DERIVATIONS:
            if window is not None:
                raise ParameterError(
                    f"derivation {fn!r} takes no window"
                )
        elif window is None or window <= 0:
            raise ParameterError(
                f"derivation {fn!r} needs a window > 0, got {window!r}"
            )
        if now is None:
            now = self.clock()
        now = float(now)

        if fn == "value":
            with self._lock:
                lasts = [s.last for s in self.series_for(metric)]
            lasts = [p for p in lasts if p is not None]
            if not lasts:
                return None
            return float(sum(v for _, v in lasts))
        if fn == "age":
            with self._lock:
                lasts = [s.last for s in self.series_for(metric)]
            lasts = [p for p in lasts if p is not None]
            if not lasts:
                return None
            return now - max(t for t, _ in lasts)

        if fn in ("rate", "delta"):
            t0 = now - float(window)
            total = 0.0
            seen = False
            with self._lock:
                windows = [s.window(t0) for s in self.series_for(metric)]
            for ts, vs in windows:
                if ts.size < 2:
                    continue
                seen = True
                if fn == "delta":
                    total += float(vs[-1] - vs[0])
                else:
                    increases = np.diff(vs)
                    # Counter resets drop the running value; only the
                    # positive increments count toward the rate.
                    grown = float(increases[increases > 0].sum())
                    elapsed = float(ts[-1] - ts[0])
                    if elapsed <= 0:
                        continue
                    total += grown / elapsed
            return total if seen else None

        ts, vs = self.window(metric, float(window), now=now)
        if vs.size == 0:
            return None
        if fn == "mean":
            return float(vs.mean())
        if fn == "max":
            return float(vs.max())
        if fn == "min":
            return float(vs.min())
        return _log_histogram_percentile(vs, _PERCENTILE_Q[fn])

    # ------------------------------------------------------------------
    # accounting / telemetry
    # ------------------------------------------------------------------
    @property
    def points_ingested(self) -> int:
        with self._lock:
            return self._ingested_carry + sum(
                s.ingested for s in self._series.values()
            )

    @property
    def points_evicted(self) -> int:
        with self._lock:
            return self._evicted_carry + sum(
                s.evicted for s in self._series.values()
            )

    @property
    def retained_points(self) -> int:
        with self._lock:
            return sum(s.retained_points for s in self._series.values())

    @property
    def retained_weight(self) -> int:
        with self._lock:
            return sum(s.retained_weight for s in self._series.values())

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(s.nbytes for s in self._series.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def samples(self) -> Dict[str, float]:
        """The store's own telemetry, snapshot-shaped."""
        with self._lock:
            return {
                "qf_store_series": float(len(self._series)),
                "qf_store_points_retained": float(sum(
                    s.retained_points for s in self._series.values()
                )),
                "qf_store_points_ingested_total": float(
                    self._ingested_carry + sum(
                        s.ingested for s in self._series.values()
                    )
                ),
                "qf_store_points_evicted_total": float(
                    self._evicted_carry + sum(
                        s.evicted for s in self._series.values()
                    )
                ),
                "qf_store_series_evicted_total": float(self.series_evicted),
                "qf_store_collections_total": float(self.collections),
                "qf_store_collections_skipped_total": float(
                    self.collections_skipped
                ),
                "qf_store_bytes": float(sum(
                    s.nbytes for s in self._series.values()
                )),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricStore({len(self._series)} series, "
            f"capacity={self.capacity})"
        )


def _log_histogram_percentile(vs: np.ndarray, q: float) -> float:
    """Percentile of ``vs`` through a LogHistogram fitted to its range.

    The ladder spans the window's positive value range with 20 buckets
    per decade, so the answer carries log-bucket resolution (~12% per
    bucket before interpolation).  Degenerate windows — all values
    non-positive or a single distinct value — short-circuit exactly.
    """
    vmax = float(vs.max())
    if vmax <= 0:
        # The log ladder needs positive mass; the best order statistics
        # available degenerate to the extremes.
        return vmax if q >= 50.0 else float(vs.min())
    positive = vs[vs > 0]
    vmin = float(positive.min())
    if vmin == vmax:
        hist_min = vmax / 2.0
    else:
        hist_min = vmin
    hist = LogHistogram(
        min_value=hist_min,
        max_value=vmax * 1.0000001,
        buckets_per_decade=20,
    )
    hist.record_many(vs.tolist())
    return hist.percentile(q)
