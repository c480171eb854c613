"""Adaptive threshold control: close the loop on ``T``.

Every structure in the package takes the value threshold ``T`` as an
operator-chosen constant, yet the health layer already *detects* when
the value distribution drifts away from it
(:class:`~repro.observability.health.ExceedanceDriftDetector` fires,
``report_rate`` degrades) without anything *reacting*.  This module
supplies the reaction: track a target global quantile ``q*`` of the
value stream online and retarget live filters so the exceedance rate
``P(v > T)`` holds at ``1 - q*`` under drift.

Three layers, smallest first:

* **Estimators** — two interchangeable single-quantile trackers behind
  one ``update(value)`` / ``update_many(values)`` / ``quantile()``
  interface: :class:`P2QuantileEstimator` (the Jain & Chlamtac P²
  algorithm — five markers, O(1) space and update, no allocation after
  startup; batches run through a compiled C loop, ``p2_kernel.c``,
  that updates one persistent marker block in place and is bit for bit
  equal to ``update``) and
  :class:`KLLQuantileEstimator` (the existing
  :class:`~repro.quantiles.kll.KLLSketch`, with a provable rank-error
  bound and mergeability at ~``3k`` stored values).
* **Controller** — :class:`ThresholdController` folds an estimator
  with the two guards that keep ``T`` from thrashing: a relative
  *deadband* (ignore estimate moves smaller than ``deadband · T``) and
  a *minimum dwell* (never retarget twice within ``min_dwell_items``
  observations), plus a warmup gate so cold estimators cannot steer.
  Every evaluation returns a :class:`ThresholdDecision` naming what
  happened and why.
* **Loop closure** — :class:`ThresholdControlLoop` binds a controller
  to anything with a ``retarget(T)`` method (the scalar filter, the
  batch engine, the sharded façade, the process pipeline) and applies
  accepted decisions, optionally subsampling the value stream so the
  estimator cost stays off the hot path.

Tuning guidance, the P² vs KLL trade-off discussion and the operations
runbook live in ``docs/adaptive-thresholds.md``.

>>> controller = ThresholdController(
...     initial_threshold=100.0, target_quantile=0.5,
...     warmup_items=8, min_dwell_items=8, deadband=0.05)
>>> for value in [1, 2, 3, 4, 5, 6, 7, 200]:
...     decision = controller.observe(float(value))
>>> decision.retargeted, 4.0 <= decision.threshold <= 7.0
(True, True)
"""

from __future__ import annotations

import ctypes
import threading
import warnings
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.common import native
from repro.common.errors import ParameterError
from repro.common.validation import contains_nan
from repro.quantiles.kll import KLLSketch

#: Estimator backends :func:`make_estimator` can build.
ESTIMATOR_BACKENDS = ("p2", "kll")

#: Bounded length of a control loop's kept retarget history.
_MAX_TRAJECTORY = 4_096

_P2_SOURCE = Path(__file__).with_name("p2_kernel.c")


class _P2Markers(ctypes.Structure):
    """One estimator's marker state, laid out as the kernel reads it."""

    _fields_ = [("heights", ctypes.c_double * 5),
                ("positions", ctypes.c_double * 5),
                ("bases", ctypes.c_double * 5),
                ("increments", ctypes.c_double * 5)]


_FLOAT64 = np.dtype(np.float64)


def _as_values(values) -> np.ndarray:
    """``values`` as a contiguous 1-D float64 array."""
    # A float64 ndarray (every chunked engine's values) skips asarray,
    # whose dtype resolution costs more than the rest of this function.
    if type(values) is not np.ndarray or values.dtype != _FLOAT64:
        if not hasattr(values, "__len__"):
            values = list(values)
        values = np.asarray(values, dtype=_FLOAT64)
    if values.ndim != 1:
        raise ParameterError(
            f"values must be one-dimensional, got shape {values.shape}"
        )
    return np.ascontiguousarray(values)


class P2QuantileEstimator:
    """P² single-quantile estimator (Jain & Chlamtac, CACM 1985).

    Five markers track the minimum, the target quantile ``q``, the two
    mid-quantiles ``q/2`` and ``(1+q)/2``, and the maximum.  Marker
    heights move by piecewise-parabolic interpolation as observations
    arrive, so the estimate adapts in O(1) time and O(1) space with no
    stored samples — the cheapest possible backend for a controller
    that runs beside every filter.

    The first five observations are stored exactly (the estimate is
    the sample quantile until the markers initialise), matching the
    original paper's startup rule.

    >>> est = P2QuantileEstimator(0.5)
    >>> for v in range(1, 100):
    ...     est.update(float(v))
    >>> 45.0 <= est.quantile() <= 55.0
    True
    """

    __slots__ = ("q", "_heights", "_positions", "_bases", "_increments",
                 "_count", "_markers")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ParameterError(f"q must be in (0, 1), got {q}")
        self.q = q
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        # Desired positions are affine in the count (base + n·increment
        # past the fifth observation), so they are computed on demand in
        # ``update`` instead of being advanced five-at-a-time per item —
        # this estimator sits on the filter hot path.
        self._bases = (1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q,
                       5.0)
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        self._count = 0
        # The compiled loop's marker block.  The first compiled
        # update_many builds it from the lists above, and from then on
        # the heights and positions are views into it, so every later
        # batch is one kernel call on it in place, with no copy.
        self._markers: Optional[_P2Markers] = None

    @property
    def count(self) -> int:
        """Observations consumed so far."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Modelled bytes: five markers × three floats, plus headers."""
        return 5 * 3 * 8 + 16

    def update(self, value: float) -> None:
        """Fold one observation into the marker state."""
        count = self._count = self._count + 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(float(value))
            if len(heights) == 5:
                heights.sort()
            return

        # Locate the cell the observation falls into; extremes stretch
        # the end markers.
        if value < heights[0]:
            heights[0] = float(value)
            cell = 0
        elif value >= heights[4]:
            heights[4] = float(value)
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1

        positions = self._positions
        for marker in range(cell + 1, 5):
            positions[marker] += 1.0

        # Adjust interior markers towards their desired positions,
        # computed in closed form from the count.
        past_five = float(count - 5)
        bases = self._bases
        increments = self._increments
        for marker in (1, 2, 3):
            at = positions[marker]
            delta = bases[marker] + past_five * increments[marker] - at
            above = positions[marker + 1]
            below = positions[marker - 1]
            if (delta >= 1.0 and above - at > 1.0) or (delta <= -1.0
                                                       and below - at < -1.0):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(marker, step)
                if heights[marker - 1] < candidate < heights[marker + 1]:
                    heights[marker] = candidate
                else:
                    heights[marker] = self._linear(marker, step)
                positions[marker] = at + step

    def update_many(self, values) -> None:
        """Fold a batch of observations into the marker state.

        Bit for bit the same as calling :meth:`update` once per value.
        The first five values, and their sort, go through
        :meth:`update`; the rest run through one compiled C loop when
        the kernel loads, and through :meth:`update` otherwise.
        """
        self._update_many(_as_values(values), _p2_kernel())

    def _update_many(self, values: np.ndarray, kernel) -> None:
        # The kernel takes over once the five markers are initialised.
        if kernel is None or self._count < 5:
            in_python = (len(values) if kernel is None
                         else min(len(values), 5 - self._count))
            update = self.update
            for value in values[:in_python].tolist():
                update(value)
            values = values[in_python:]
        if len(values):
            markers = self._markers
            if markers is None:
                markers = self._markers = _P2Markers(
                    tuple(self._heights), tuple(self._positions),
                    self._bases, self._increments)
                self._heights = markers.heights
                self._positions = markers.positions
            if not values.flags.writeable:
                values = values.copy()  # from_buffer needs a writable one
            kernel(markers, self._count, ctypes.c_double.from_buffer(values),
                   len(values))
            self._count += len(values)

    def _parabolic(self, marker: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        at = positions[marker]
        below, above = positions[marker - 1], positions[marker + 1]
        return heights[marker] + step / (above - below) * (
            (at - below + step) * (heights[marker + 1] - heights[marker])
            / (above - at)
            + (above - at - step) * (heights[marker] - heights[marker - 1])
            / (at - below)
        )

    def _linear(self, marker: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        other = marker + int(step)
        return heights[marker] + step * (
            (heights[other] - heights[marker])
            / (positions[other] - positions[marker])
        )

    def quantile(self) -> float:
        """Current estimate of the ``q``-quantile (NaN before any data)."""
        heights = self._heights
        if not heights:
            return float("nan")
        if self._count < 5:
            ordered = sorted(heights)
            index = min(len(ordered) - 1,
                        max(0, round(self.q * len(ordered)) - 1))
            return ordered[index]
        return heights[2]

    def clear(self) -> None:
        """Reset to the empty state."""
        self.__init__(self.q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"P2QuantileEstimator(q={self.q}, count={self._count}, "
                f"estimate={self.quantile():.4g})")


#: Fixed inputs the compiled P² loop must reproduce exactly before it is
#: trusted.  The first draws from a pool of four values, so observations
#: tie the marker heights.  The second has a signed zero and subnormals,
#: a pseudo-random stretch that drives both the parabolic and the linear
#: marker moves, a run of ties, ±1e300 and finally ±inf.
_P2_CANARIES = (
    np.array([(i * 2654435761 >> 13) % 4 for i in range(100)],
             dtype=np.float64),
    np.array(
        [3.0, 1.0, 4.0, 1.0, 5.0, 5.0, 5.0, -0.0, 0.0, 5e-324, -5e-324,
         2.2250738585072014e-308, 2.0, 2.0]
        + [((i * 7919) % 257) * 0.37 - 40.0 for i in range(400)]
        + [7.0] * 40
        + [1e300, -1e300, 1e300, 9.0, -3.0, 0.5]
        + [float("inf"), 1.0, float("-inf"), 3.0, float("inf"), 2.0],
        dtype=np.float64,
    ),
)

_UNRESOLVED = object()
_p2_lock = threading.Lock()
_p2_compiled = _UNRESOLVED


def _p2_kernel():
    """The compiled P² loop, built or loaded on the first call.

    ``None`` means the pure-Python loop runs instead: no kernel could
    be built here, or the kernel failed the canary.  Either way the
    cause was warned about once, and the answer holds for the process.
    """
    global _p2_compiled
    if _p2_compiled is _UNRESOLVED:
        with _p2_lock:
            if _p2_compiled is _UNRESOLVED:
                _p2_compiled = _load_p2_kernel()
    return _p2_compiled


def _load_p2_kernel():
    lib = native.load(_P2_SOURCE)
    if lib is None:
        return None
    kernel = lib.p2_update_many
    kernel.argtypes = (ctypes.POINTER(_P2Markers), ctypes.c_int64,
                       ctypes.POINTER(ctypes.c_double), ctypes.c_int64)
    kernel.restype = None
    for canary in _P2_CANARIES:
        for q in (0.01, 0.5, 0.9, 0.99):
            reference = P2QuantileEstimator(q)
            compiled = P2QuantileEstimator(q)
            reference._update_many(canary, None)
            compiled._update_many(canary, kernel)
            if _marker_bits(reference) != _marker_bits(compiled):
                warnings.warn(
                    f"compiled P² loop diverged from the Python update "
                    f"on a canary sequence at q={q}; running the "
                    "pure-Python path", RuntimeWarning, stacklevel=2,
                )
                return None
    return kernel


def _marker_bits(estimator: P2QuantileEstimator):
    return ([value.hex() for value in estimator._heights],
            [value.hex() for value in estimator._positions],
            estimator.count)


def p2_kernel_loaded() -> bool:
    """Whether :meth:`P2QuantileEstimator.update_many` runs compiled.

    Resolves the kernel (building it on first use) if nothing has yet.
    """
    return _p2_kernel() is not None


class KLLQuantileEstimator:
    """KLL-sketch-backed single-quantile estimator.

    Wraps :class:`~repro.quantiles.kll.KLLSketch` behind the same
    ``update``/``quantile`` interface as :class:`P2QuantileEstimator`.
    Costlier than P² (~``3k`` stored values, occasional compaction
    cascades) but with a provable O(n/k) rank-error bound and exact
    behaviour on multi-modal distributions where P²'s parabolic
    interpolation can bias; sketches are also mergeable, which suits
    aggregating per-shard observers.
    """

    __slots__ = ("q", "_sketch")

    def __init__(self, q: float, k: int = 200, seed: int = 0):
        if not 0.0 < q < 1.0:
            raise ParameterError(f"q must be in (0, 1), got {q}")
        self.q = q
        self._sketch = KLLSketch(k=k, seed=seed)

    @property
    def count(self) -> int:
        """Observations consumed so far."""
        return self._sketch.count

    @property
    def nbytes(self) -> int:
        """Modelled bytes of the backing sketch."""
        return self._sketch.nbytes

    def update(self, value: float) -> None:
        """Fold one observation into the sketch."""
        self._sketch.insert(float(value))

    def update_many(self, values) -> None:
        """Fold a batch of observations, one :meth:`update` per value."""
        insert = self._sketch.insert
        for value in _as_values(values).tolist():
            insert(value)

    def quantile(self) -> float:
        """Current estimate of the ``q``-quantile (NaN before any data)."""
        if self._sketch.count == 0:
            return float("nan")
        return self._sketch.quantile(self.q)

    def clear(self) -> None:
        """Reset to the empty state."""
        self._sketch.clear()

    def merge(self, other: "KLLQuantileEstimator") -> None:
        """Fold another estimator's sketch into this one."""
        self._sketch.merge(other._sketch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KLLQuantileEstimator(q={self.q}, "
                f"count={self.count}, estimate={self.quantile():.4g})")


def make_estimator(backend: str, quantile: float, *, k: int = 200,
                   seed: int = 0):
    """Build a quantile estimator by backend name.

    ``"p2"`` → :class:`P2QuantileEstimator` (``k``/``seed`` unused);
    ``"kll"`` → :class:`KLLQuantileEstimator`.
    """
    if backend == "p2":
        return P2QuantileEstimator(quantile)
    if backend == "kll":
        return KLLQuantileEstimator(quantile, k=k, seed=seed)
    raise ParameterError(
        f"unknown estimator backend {backend!r}; choose from "
        f"{ESTIMATOR_BACKENDS}"
    )


class ThresholdDecision(NamedTuple):
    """Outcome of one controller evaluation.

    An immutable record, built on every evaluation (so on every
    ``observe_many`` call): a named tuple costs about a third of a
    frozen dataclass to build.

    Attributes
    ----------
    retargeted:
        Whether the controller moved the threshold this evaluation.
    threshold:
        The threshold in force *after* the evaluation (new value when
        ``retargeted``, the standing one otherwise).
    previous:
        The threshold in force before the evaluation.
    estimate:
        The estimator's current ``q*``-quantile estimate (NaN before
        any data).
    items_seen:
        Observations the controller had consumed at decision time.
    reason:
        Why: ``"retarget"`` (moved), ``"warmup"`` (estimator too
        cold), ``"dwell"`` (minimum-dwell guard), ``"deadband"``
        (estimate within the hysteresis band), ``"empty"`` (no data).
    """

    retargeted: bool
    threshold: float
    previous: float
    estimate: float
    items_seen: int
    reason: str


class ThresholdController:
    """Track a target global quantile and decide when to move ``T``.

    The controller consumes the raw value stream (or a subsample), asks
    its estimator for the current ``q*``-quantile, and moves the
    threshold to the estimate only when all three guards pass:

    * **warmup** — the estimator holds at least ``warmup_items``
      observations, so a cold (or freshly restarted) estimator cannot
      steer the filter;
    * **dwell** — at least ``min_dwell_items`` observations since the
      last retarget (and since startup), bounding the retarget rate;
    * **deadband** — the estimate differs from the standing threshold
      by more than ``deadband`` *relative* (``|est − T| > deadband ·
      max(|T|, |est|)``), the hysteresis that stops estimator jitter
      from oscillating ``T``.

    Both estimator backends are *cumulative*: left alone they converge
    to the all-time quantile, which under drift lags the current
    distribution arbitrarily far (an upward-drifting stream keeps its
    recent exceedance above target forever).  ``horizon_items`` bounds
    that memory: every ``horizon_items`` observations the estimator is
    cleared and re-warmed, so the estimate only ever reflects the last
    ``≤ horizon_items`` values.  The warmup guard holds ``T`` steady
    through each re-warm.

    Setting ``T`` to the ``q*``-quantile holds the exceedance rate
    ``P(v > T)`` at ``1 − q*`` — the controller's notion of "report
    rate" (the actual :class:`~repro.core.quantile_filter.Report`
    emission rate additionally depends on ``epsilon`` and per-key value
    mixes; see ``docs/adaptive-thresholds.md``).

    Parameters
    ----------
    initial_threshold:
        The standing ``T`` before any retarget.
    target_quantile:
        ``q*`` in (0, 1); equivalently ``1 − target exceedance rate``.
    backend:
        ``"p2"`` (default) or ``"kll"``; ignored when ``estimator``
        is passed explicitly.
    deadband:
        Relative hysteresis width (default 0.05 = 5 %); must be >= 0.
    min_dwell_items:
        Minimum observations between retargets (default 2 048).
    warmup_items:
        Observations the estimator must hold before a retarget is
        allowed (default 512); also the re-warm requirement after each
        horizon restart.
    horizon_items:
        Clear the estimator every this many observations so the
        estimate tracks the recent distribution instead of the
        all-time one (default ``None`` = never clear; must be >=
        ``warmup_items`` when set, or the estimator would never
        re-warm).
    estimator:
        Pre-built estimator with ``update``/``update_many``/
        ``quantile``/``count``/``clear`` (overrides ``backend``).
    seed:
        Forwarded to :func:`make_estimator` for the KLL backend, which
        runs at its default ``k``.
    """

    def __init__(
        self,
        initial_threshold: float,
        target_quantile: float,
        *,
        backend: str = "p2",
        deadband: float = 0.05,
        min_dwell_items: int = 2_048,
        warmup_items: int = 512,
        horizon_items: Optional[int] = None,
        estimator=None,
        seed: int = 0,
    ):
        if not 0.0 < target_quantile < 1.0:
            raise ParameterError(
                f"target_quantile must be in (0, 1), got {target_quantile}"
            )
        if deadband < 0.0:
            raise ParameterError(f"deadband must be >= 0, got {deadband}")
        if min_dwell_items < 1:
            raise ParameterError(
                f"min_dwell_items must be >= 1, got {min_dwell_items}"
            )
        if warmup_items < 1:
            raise ParameterError(
                f"warmup_items must be >= 1, got {warmup_items}"
            )
        if horizon_items is not None and horizon_items < warmup_items:
            raise ParameterError(
                f"horizon_items ({horizon_items}) must be >= warmup_items "
                f"({warmup_items}); a shorter horizon never re-warms"
            )
        self.threshold = float(initial_threshold)
        self.horizon_items = horizon_items
        self.target_quantile = target_quantile
        self.deadband = deadband
        self.min_dwell_items = min_dwell_items
        self.warmup_items = warmup_items
        self.estimator = (
            estimator if estimator is not None
            else make_estimator(backend, target_quantile, seed=seed)
        )
        self.backend = backend if estimator is None else "custom"
        self.items_seen = 0
        self.retargets = 0
        self.restarts = 0
        self._items_at_last_retarget = 0
        self.last_decision: Optional[ThresholdDecision] = None

    @property
    def target_rate(self) -> float:
        """The exceedance rate the controller holds: ``1 − q*``."""
        return 1.0 - self.target_quantile

    def observe(self, value: float) -> ThresholdDecision:
        """Consume one value and evaluate the guards.

        A NaN is dropped before the estimator sees it and does not
        count toward ``items_seen``; ±inf are ordered and count.
        """
        if value == value:
            self._maybe_restart()
            self.estimator.update(value)
            self.items_seen += 1
        return self._decide()

    def observe_many(self, values: Iterable[float]) -> ThresholdDecision:
        """Consume a batch of values, then evaluate the guards once.

        One decision per batch is the intended cadence for chunked
        engines: the guards see the post-batch estimator state, and
        batch boundaries are exactly where chunked filters can apply a
        retarget anyway.  The estimator ends in the state a per-value
        :meth:`observe` loop leaves: NaNs are dropped, and the batch is
        split wherever it crosses ``horizon_items``.
        """
        values = _as_values(values)
        if contains_nan(values):
            values = values[~np.isnan(values)]
        n = len(values)
        if self.horizon_items is None:
            if n:
                self.estimator.update_many(values)
        else:
            at = 0
            while at < n:
                self._maybe_restart()
                end = min(n, at + self.horizon_items - self.estimator.count)
                self.estimator.update_many(values[at:end])
                at = end
        self.items_seen += n
        return self._decide()

    def _maybe_restart(self) -> None:
        """Clear the estimator when its memory exceeds the horizon."""
        if (self.horizon_items is not None
                and self.estimator.count >= self.horizon_items):
            self.estimator.clear()
            self.restarts += 1

    def _decide(self) -> ThresholdDecision:
        estimate = self.estimator.quantile()
        previous = self.threshold
        retargeted = False
        if self.items_seen == 0 or estimate != estimate:  # NaN: no data
            reason = "empty"
        elif self.estimator.count < self.warmup_items:
            reason = "warmup"
        elif (self.items_seen - self._items_at_last_retarget
              < self.min_dwell_items):
            reason = "dwell"
        elif abs(estimate - previous) <= self.deadband * max(
            abs(previous), abs(estimate)
        ):
            reason = "deadband"
        else:
            self.threshold = float(estimate)
            self.retargets += 1
            self._items_at_last_retarget = self.items_seen
            retargeted, reason = True, "retarget"
        decision = self.last_decision = ThresholdDecision(
            retargeted, self.threshold, previous, estimate, self.items_seen,
            reason)
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThresholdController(T={self.threshold:.4g}, "
            f"q*={self.target_quantile}, backend={self.backend!r}, "
            f"retargets={self.retargets}, items={self.items_seen})"
        )


class ThresholdControlLoop:
    """Bind a :class:`ThresholdController` to a retargetable filter.

    ``target`` is anything exposing ``retarget(threshold)`` — the
    scalar :class:`~repro.core.quantile_filter.QuantileFilter`, the
    :class:`~repro.core.vectorized.BatchQuantileFilter`, the
    :class:`~repro.parallel.sharded.ShardedQuantileFilter` façade, the
    :class:`~repro.core.windowed.WindowedQuantileFilter`, or a running
    :class:`~repro.parallel.pipeline.ParallelPipeline` (whose retarget
    broadcasts to every shard worker).  Feed the loop the same values
    the filter sees; accepted controller decisions are applied to the
    target immediately.

    ``sample_every`` subsamples the value stream deterministically
    (every ``n``-th value) so the estimator update cost can be held to
    an arbitrarily small fraction of the insert path — quantiles are
    order statistics, so a strided subsample is an unbiased view of a
    stream whose value order is not adversarially aligned with the
    stride.

    >>> from repro.core.criteria import Criteria
    >>> from repro.core.quantile_filter import QuantileFilter
    >>> qf = QuantileFilter(Criteria(delta=0.5, threshold=1000.0,
    ...                              epsilon=2.0),
    ...                     num_buckets=8, vague_width=16)
    >>> loop = ThresholdControlLoop(
    ...     ThresholdController(qf.criteria.threshold, 0.5,
    ...                         warmup_items=16, min_dwell_items=16),
    ...     qf)
    >>> for i in range(64):
    ...     _ = qf.insert("k", float(i % 10))
    ...     _ = loop.observe(float(i % 10))
    >>> qf.criteria.threshold < 1000.0, qf.retargets >= 1
    (True, True)
    """

    def __init__(self, controller: ThresholdController, target, *,
                 sample_every: int = 1, on_decision=None):
        if sample_every < 1:
            raise ParameterError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        if not hasattr(target, "retarget"):
            raise ParameterError(
                f"control-loop target {type(target).__name__} has no "
                "retarget() method"
            )
        self.controller = controller
        self.target = target
        self.sample_every = sample_every
        #: Called with every evaluated :class:`ThresholdDecision`
        #: (retargeted or not) — e.g. a flight recorder's
        #: ``record_decision`` so incident bundles carry the controller
        #: evaluations that preceded the incident.
        self.on_decision = on_decision
        self._stride_phase = 0
        #: ``(items_seen, old_threshold, new_threshold)`` per applied
        #: retarget, bounded to the most recent ``4096``.
        self.trajectory: List[Tuple[int, float, float]] = []

    @property
    def retargets(self) -> int:
        """Retargets applied to the target so far."""
        return self.controller.retargets

    @property
    def threshold(self) -> float:
        """The threshold currently in force."""
        return self.controller.threshold

    def observe(self, value: float) -> Optional[ThresholdDecision]:
        """Feed one value; returns the decision when one was evaluated.

        With ``sample_every > 1`` most calls only advance the stride
        counter and return ``None``.
        """
        self._stride_phase += 1
        if self._stride_phase < self.sample_every:
            return None
        self._stride_phase = 0
        decision = self.controller.observe(value)
        if self.on_decision is not None:
            self.on_decision(decision)
        if decision.retargeted:
            self._apply(decision)
        return decision

    def observe_many(self, values) -> Optional[ThresholdDecision]:
        """Feed a batch (subsampled by ``sample_every``); one decision.

        Returns ``None`` when the stride left nothing to consume.
        """
        if self.sample_every > 1:
            # Stride BEFORE any list conversion: on an ndarray the
            # slice is a zero-copy view, so the skipped values are
            # never boxed and the cost truly scales with 1/n.
            offset = (
                self.sample_every - self._stride_phase - 1
            ) % self.sample_every
            taken = values[offset::self.sample_every]
            self._stride_phase = (
                self._stride_phase + len(values)
            ) % self.sample_every
            if len(taken) == 0:
                return None
            values = taken
        decision = self.controller.observe_many(values)
        if self.on_decision is not None:
            self.on_decision(decision)
        if decision.retargeted:
            self._apply(decision)
        return decision

    def _apply(self, decision: ThresholdDecision) -> None:
        self.target.retarget(decision.threshold)
        if len(self.trajectory) < _MAX_TRAJECTORY:
            self.trajectory.append(
                (decision.items_seen, decision.previous, decision.threshold)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThresholdControlLoop(T={self.threshold:.4g}, "
            f"retargets={self.retargets}, "
            f"sample_every={self.sample_every})"
        )
