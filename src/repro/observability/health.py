"""Sketch health: one gauge per way the report guarantee can fail.

PRs 2–3 made a running filter *measurable* (StatsRegistry snapshots,
tracing, histograms); this module makes it *interpretable*.  A
:class:`HealthMonitor` consumes a metrics snapshot plus a structural
probe (:func:`repro.core.inspect.structural_probe`) and derives one
gauge per failure mode the paper's (epsilon, delta) guarantee can
silently lose (the signal name is the ``signal`` label of its rules):

* ``candidate_occupancy`` / ``candidate_churn`` — the candidate part is
  packed solid or thrashing, so hot keys fall through to the noisy
  vague part.
* ``vague_pressure`` / ``vague_saturation`` — overflow fraction and
  clamped counters: Qweight estimates biased low.
* ``fingerprint_collision`` — probability a fresh key aliases an
  occupied slot (merges two keys' Qweights).
* ``vague_noise`` — live Count-Sketch noise scale relative to the
  report threshold (noise comparable to the threshold means vague-part
  reports are coin flips).
* ``report_rate`` — reports per item since the previous call (a spike
  usually means the threshold drifted below the traffic, not that the
  traffic got worse).
* ``exceedance_drift`` — a z-test on the value-vs-``T`` exceedance
  fraction (:class:`ExceedanceDriftDetector`, the statistic from
  :mod:`repro.streams.drift`): the criteria were calibrated for a
  distribution the stream no longer follows.
* ``shadow_accuracy`` — the lower of live precision and recall from
  the :class:`~repro.detection.shadow.ShadowAccuracyEstimator`.
* ``workers_alive`` — pipeline only: expected minus alive shard
  workers.

The monitor judges nothing.  Every threshold lives in the alert rule
pack (:data:`~repro.observability.alerts.DEFAULT_RULE_TABLES`), and
the :class:`~repro.observability.alerts.AlertEngine` verdict is the
health verdict: ``ok``, ``degraded`` (a warning rule firing) or
``critical``.  The only constants here are the definedness gates that
decide whether a signal has a meaningful value yet.

>>> from repro.observability.alerts import AlertEngine, default_rules
>>> from repro.observability.timeseries import MetricStore
>>> snapshot = {"qf_items_total": 50_000.0,
...             "qf_candidate_occupancy": 0.999,
...             "qf_candidate_swaps_total": 100.0}
>>> gauges = HealthMonitor().samples(snapshot)
>>> gauges["qf_health_candidate_occupancy"]
0.999
>>> gauges["qf_health_candidate_churn"]
0.002
>>> store = MetricStore(clock=lambda: 0.0)
>>> engine = AlertEngine(store, default_rules())
>>> _ = store.collect({**snapshot, **gauges})
>>> [t.rule.name for t in engine.evaluate()], engine.verdict()
(['candidate-occupancy'], 'degraded')
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.common.errors import ParameterError
from repro.observability.registry import SPEC_INDEX, MetricSpec, base_name

#: Verdicts in severity order (list index = severity rank).
VERDICTS = ("ok", "degraded", "critical")

#: Items a view must have processed before its signals emit samples:
#: young structures read high on every ratio.  Worker liveness is
#: exempt.
WARMUP_ITEMS = 1_000
#: Smallest exceedance-fraction shift the drift signal reports a z for.
DRIFT_MIN_SHIFT = 0.01
#: Reported (outstanding) sampled keys the shadow precision (recall)
#: needs before it counts.
SHADOW_MIN_DECISIONS = 5

#: Health signal name -> the gauge family that exports it.
SIGNAL_FAMILIES = {
    "candidate_occupancy": "qf_health_candidate_occupancy",
    "candidate_churn": "qf_health_candidate_churn",
    "vague_pressure": "qf_health_vague_pressure",
    "vague_saturation": "qf_health_vague_saturation",
    "fingerprint_collision": "qf_health_fingerprint_collision",
    "vague_noise": "qf_health_vague_noise",
    "report_rate": "qf_health_report_rate",
    "exceedance_drift": "qf_health_exceedance_drift",
    "shadow_accuracy": "qf_health_shadow_accuracy",
    "workers_alive": "qf_health_workers_missing",
}

#: Help text for the samples the monitor and the serve sources add to
#: ``/metrics`` (kept separate from the raw-telemetry families in
#: ``instrument.FILTER_METRIC_HELP``).
HEALTH_METRIC_HELP = {
    "qf_health_status":
        "Alert-rule verdict (0 ok, 1 degraded, 2 critical).",
    "qf_health_candidate_occupancy":
        "Fraction of candidate slots occupied.",
    "qf_health_candidate_churn": "Candidate swaps per item processed.",
    "qf_health_vague_pressure":
        "Fraction of inserts that overflowed into the vague part.",
    "qf_health_vague_saturation":
        "Fraction of vague counters pinned at their clamp value.",
    "qf_health_fingerprint_collision":
        "Probability that a fresh key aliases an occupied candidate slot.",
    "qf_health_vague_noise":
        "Vague-part noise std divided by the report threshold.",
    "qf_health_report_rate": "Reports per item since the previous tick.",
    "qf_health_exceedance_drift":
        "Exceedance-fraction drift z-score (0 until the reference is set "
        "and the shift passes DRIFT_MIN_SHIFT).",
    "qf_health_shadow_accuracy":
        "Lower of shadow precision and recall (each 1.0 below "
        "SHADOW_MIN_DECISIONS).",
    "qf_health_workers_missing": "Expected shard workers not alive.",
    "qf_shadow_precision":
        "Live precision estimate from the shadow-sampled exact slice.",
    "qf_shadow_recall":
        "Live recall estimate from the shadow-sampled exact slice.",
    "qf_shadow_sampled_keys":
        "Distinct keys tracked exactly by the shadow sampler.",
    "qf_drift_exceedance_fraction":
        "Latest windowed fraction of values exceeding the threshold T.",
    "qf_drift_z":
        "Drift z-score of the latest exceedance window vs the warmup "
        "reference.",
}

# Aggregation keeps the worst view: the highest signal value, the
# lowest shadow accuracy.
_HEALTH_GAUGE_AGG = {
    "qf_health_shadow_accuracy": "min",
    "qf_shadow_precision": "mean",
    "qf_shadow_recall": "mean",
    "qf_shadow_sampled_keys": "sum",
    "qf_drift_exceedance_fraction": "mean",
}

# Snapshots cross process and HTTP boundaries as bare dicts, so the
# exporters need these specs even when no monitor ran in-process —
# registered at import time, mirroring instrument.py.
for _name, _help in HEALTH_METRIC_HELP.items():
    SPEC_INDEX.setdefault(
        _name,
        MetricSpec(
            name=_name, kind="gauge", help=_help,
            agg=_HEALTH_GAUGE_AGG.get(_name, "max"),
        ),
    )
del _name, _help


def verdict_rank(verdict: str) -> int:
    """Severity rank of a verdict (0 ok, 1 degraded, 2 critical)."""
    try:
        return VERDICTS.index(verdict)
    except ValueError:
        raise ParameterError(
            f"unknown verdict {verdict!r}; choose from {VERDICTS}"
        ) from None


def worst_verdict(verdicts: Iterable[str]) -> str:
    """The most severe verdict in ``verdicts`` (``"ok"`` when empty)."""
    rank = 0
    for verdict in verdicts:
        rank = max(rank, verdict_rank(verdict))
    return VERDICTS[rank]


def signal_values(samples: Mapping[str, float]) -> Dict[str, float]:
    """``{signal name: value}`` for the signal gauges in ``samples``."""
    return {
        name: samples[family]
        for name, family in SIGNAL_FAMILIES.items()
        if family in samples
    }


@dataclass(frozen=True)
class HealthSignal:
    """One health signal with its verdict and explanation."""

    name: str
    verdict: str
    value: float
    reason: str

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HealthReport:
    """The rule verdict plus every health signal (the ``/healthz`` body,
    built by :meth:`~repro.observability.alerts.AlertEngine.report`).

    ``reasons`` lists only the non-ok signals, each as
    ``"<signal>: <explanation>"`` — the JSON a pager should show.
    """

    verdict: str
    signals: Tuple[HealthSignal, ...]

    @property
    def reasons(self) -> List[str]:
        return [
            f"{signal.name}: {signal.reason}"
            for signal in self.signals
            if signal.verdict != "ok"
        ]

    def signal(self, name: str) -> Optional[HealthSignal]:
        """The named signal, or None when it was not evaluated."""
        for signal in self.signals:
            if signal.name == name:
                return signal
        return None

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reasons": self.reasons,
            "signals": [signal.as_dict() for signal in self.signals],
        }


class ExceedanceDriftDetector:
    """Window z-test on the fraction of values exceeding ``threshold``.

    The first ``warmup_windows`` complete windows set the reference
    fraction; afterwards each window's fraction is compared with the
    reference under the binomial normal approximation:
    ``z = |f - ref| / sqrt(ref * (1 - ref) / window_items)``.

    The statistic is the same per-window exceedance fraction that
    :func:`repro.streams.drift.windowed_exceedance_fractions` computes
    offline — this class is its streaming form.

    >>> det = ExceedanceDriftDetector(threshold=10.0, window_items=100,
    ...                               warmup_windows=1)
    >>> det.observe_batch([5.0] * 95 + [50.0] * 5)   # warmup: ref = 0.05
    >>> det.observe_batch([5.0] * 40 + [50.0] * 60)  # drifted window
    >>> det.last_z > 4.0, round(det.last_fraction, 2)
    (True, 0.6)
    """

    def __init__(
        self,
        threshold: float,
        window_items: int = 2_048,
        warmup_windows: int = 3,
    ):
        if window_items < 1:
            raise ParameterError(
                f"window_items must be >= 1, got {window_items}"
            )
        if warmup_windows < 1:
            raise ParameterError(
                f"warmup_windows must be >= 1, got {warmup_windows}"
            )
        self.threshold = threshold
        self.window_items = window_items
        self.warmup_windows = warmup_windows
        self.items_seen = 0
        self.windows_completed = 0
        self.reference: Optional[float] = None
        self.last_fraction: float = 0.0
        self.last_z: float = 0.0
        self._window_count = 0
        self._window_above = 0
        self._warmup_above = 0

    @property
    def warmed_up(self) -> bool:
        """Whether the reference fraction is established."""
        return self.reference is not None

    def observe(self, value: float) -> None:
        """Feed one value."""
        self._window_count += 1
        if value > self.threshold:
            self._window_above += 1
        self.items_seen += 1
        if self._window_count >= self.window_items:
            self._complete_window()

    def observe_batch(self, values) -> None:
        """Feed a value array, slicing it at window boundaries."""
        arr = np.asarray(values, dtype=np.float64)
        start = 0
        n = arr.shape[0]
        self.items_seen += int(n)
        while start < n:
            take = min(self.window_items - self._window_count, n - start)
            segment = arr[start:start + take]
            self._window_above += int(np.count_nonzero(
                segment > self.threshold
            ))
            self._window_count += take
            start += take
            if self._window_count >= self.window_items:
                self._complete_window()

    def _complete_window(self) -> None:
        fraction = self._window_above / self.window_items
        self.windows_completed += 1
        self.last_fraction = fraction
        if self.reference is None:
            self._warmup_above += self._window_above
            if self.windows_completed >= self.warmup_windows:
                self.reference = self._warmup_above / (
                    self.windows_completed * self.window_items
                )
        if self.reference is not None:
            ref = min(max(self.reference, 1e-9), 1.0 - 1e-9)
            sigma = math.sqrt(ref * (1.0 - ref) / self.window_items)
            self.last_z = abs(fraction - ref) / sigma
        self._window_count = 0
        self._window_above = 0


def _family(snapshot: Mapping[str, float], family: str,
            mean: bool = False) -> Optional[float]:
    """Sum (or mean) of every sample of ``family``; None when absent."""
    values = [
        value for sample, value in snapshot.items()
        if base_name(sample) == family
    ]
    if not values:
        return None
    return sum(values) / len(values) if mean else sum(values)


class HealthMonitor:
    """The health signals of one deployment, as gauges.

    Ties together the stream-side detectors one deployment needs — an
    optional :class:`ExceedanceDriftDetector` (fed the raw values) and
    an optional :class:`~repro.detection.shadow.ShadowAccuracyEstimator`
    (fed keys and values) — with the snapshot and probe readings, and
    turns them into one gauge per signal (:meth:`samples`).

    Besides the detectors, the only state is the per-source
    ``(items, reports)`` pair from the previous :meth:`samples` call,
    which turns the cumulative report counter into a per-window report
    rate.  Call it once per tick from the feeding thread; the serve
    sources' ``tick()`` is that caller.
    """

    def __init__(self, *, drift: Optional[ExceedanceDriftDetector] = None,
                 shadow=None):
        self.drift = drift
        self.shadow = shadow
        self._windows: Dict[str, Tuple[float, float]] = {}

    # -- constructors --------------------------------------------------
    @classmethod
    def for_criteria(
        cls,
        criteria,
        *,
        drift_window_items: int = 2_048,
        drift_warmup_windows: int = 3,
        shadow_sample_rate: Optional[int] = 64,
        shadow_seed: int = 0,
    ) -> "HealthMonitor":
        """Build the standard monitor for a filter/pipeline's criteria.

        ``shadow_sample_rate=None`` disables the shadow estimator (the
        zero-cost configuration the overhead benchmark measures).
        """
        from repro.detection.shadow import ShadowAccuracyEstimator

        drift = ExceedanceDriftDetector(
            threshold=criteria.threshold,
            window_items=drift_window_items,
            warmup_windows=drift_warmup_windows,
        )
        shadow = (
            ShadowAccuracyEstimator(
                criteria, sample_rate=shadow_sample_rate, seed=shadow_seed
            )
            if shadow_sample_rate is not None else None
        )
        return cls(drift=drift, shadow=shadow)

    @classmethod
    def for_filter(cls, filt, **kwargs) -> "HealthMonitor":
        """Monitor for a standalone filter (criteria read from it)."""
        return cls.for_criteria(filt.criteria, **kwargs)

    # -- stream observation (off the filter's insert path) -------------
    def observe(self, key, value) -> None:
        """Feed one stream item to the drift/shadow detectors."""
        if self.drift is not None:
            self.drift.observe(value)
        if self.shadow is not None:
            self.shadow.observe(key, value)

    def observe_batch(self, keys, values) -> None:
        """Vectorised :meth:`observe` over a chunk."""
        if self.drift is not None:
            self.drift.observe_batch(values)
        if self.shadow is not None:
            self.shadow.observe_batch(keys, values)

    # -- signals -------------------------------------------------------
    def samples(
        self,
        snapshot: Mapping[str, float],
        *,
        probe: Optional[Mapping] = None,
        reported_keys=None,
        expected_workers: Optional[int] = None,
        source: str = "default",
    ) -> Dict[str, float]:
        """One gauge per applicable signal, plus the detector gauges.

        Parameters
        ----------
        snapshot:
            A registry snapshot (live, cached, or cross-shard
            aggregate).
        probe:
            A :func:`~repro.core.inspect.structural_probe` dict for the
            structure behind the snapshot (enables the collision and
            noise signals).
        reported_keys:
            The structure's reported keys; scores the shadow estimator
            when one is attached.
        expected_workers:
            For pipelines: how many shard workers should be alive right
            now (None skips the signal).
        source:
            Keys the report-rate window state (shard id, "aggregate").

        A view below :data:`WARMUP_ITEMS` items emits no signal gauge
        except ``workers_alive``.  A signal whose gate is unmet emits a
        value no default rule trips on: drift ``0`` while the reference
        is unset or the shift is under :data:`DRIFT_MIN_SHIFT`, shadow
        precision/recall ``1.0`` under :data:`SHADOW_MIN_DECISIONS`.
        """
        probe = probe or {}
        items = _family(snapshot, "qf_items_total") or 0.0
        signals: Dict[str, float] = {}
        gauges: Dict[str, float] = {}

        # Fill ratios: the snapshot gauge, else the structural probe.
        for name in ("candidate_occupancy", "vague_saturation"):
            value = _family(snapshot, f"qf_{name}", mean=True)
            if value is None:
                value = probe.get(name)
            if value is not None:
                signals[name] = value
        # Per-item event rates over the structure's lifetime.
        for name, counter in (("candidate_churn", "qf_candidate_swaps_total"),
                              ("vague_pressure", "qf_vague_inserts_total")):
            count = _family(snapshot, counter)
            if count is not None and items > 0:
                signals[name] = count / items
        collision = probe.get("fingerprint_collision_probability")
        if collision is not None:
            signals["fingerprint_collision"] = collision
        noise_std = probe.get("vague_noise_std")
        report_threshold = probe.get("report_threshold")
        if noise_std is not None and report_threshold:
            signals["vague_noise"] = noise_std / report_threshold

        # Report rate over the window since the previous call.
        reports = _family(snapshot, "qf_reports_total")
        if reports is not None:
            prev_items, prev_reports = self._windows.get(source, (0.0, 0.0))
            delta_items = items - prev_items
            delta_reports = reports - prev_reports
            if delta_items < 0 or delta_reports < 0:
                # Counter reset (new run reusing the source name).
                delta_items, delta_reports = items, reports
            self._windows[source] = (items, reports)
            signals["report_rate"] = (
                delta_reports / delta_items if delta_items > 0 else 0.0
            )

        drift = self.drift
        if drift is not None:
            gauges["qf_drift_exceedance_fraction"] = drift.last_fraction
            gauges["qf_drift_z"] = drift.last_z
            shifted = drift.warmed_up and (
                abs(drift.last_fraction - drift.reference) >= DRIFT_MIN_SHIFT
            )
            signals["exceedance_drift"] = drift.last_z if shifted else 0.0

        if self.shadow is not None and reported_keys is not None:
            score = self.shadow.score(reported_keys)
            gauges["qf_shadow_precision"] = score.precision
            gauges["qf_shadow_recall"] = score.recall
            gauges["qf_shadow_sampled_keys"] = float(score.sampled_keys)
            tp = score.true_positives
            precision = (
                score.precision
                if tp + score.false_positives >= SHADOW_MIN_DECISIONS
                else 1.0
            )
            recall = (
                score.recall
                if tp + score.false_negatives >= SHADOW_MIN_DECISIONS
                else 1.0
            )
            signals["shadow_accuracy"] = min(precision, recall)

        if items < WARMUP_ITEMS:
            signals.clear()
        if expected_workers is not None:
            alive = _family(snapshot, "pipeline_workers_alive", mean=True)
            if alive is not None:
                signals["workers_alive"] = expected_workers - alive

        for name, value in signals.items():
            gauges[SIGNAL_FAMILIES[name]] = float(value)
        return gauges
