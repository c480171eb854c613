"""Shadow accuracy estimation: exact tracking of a hash-sampled key slice.

A deployed sketch has no ground truth to score itself against — the
whole point of sketching is that exact per-key state is unaffordable.
But exact state for a *deterministic sample* of keys is affordable: at
``sample_rate=64`` the shadow tracker pays ~1/64th of the oracle's
memory and still sees every occurrence of every sampled key, because
membership is a pure function of the key (a salted hash threshold), not
of arrival order.  Running the exact Definition 4 oracle
(:class:`~repro.detection.ground_truth.GroundTruthDetector`) over that
slice yields the true outstanding subset of the sampled keys; comparing
it with the filter's reported keys *restricted to the same slice* gives
live precision/recall estimates, with Wilson confidence intervals for
the sampling error.

Caveats (also in ``docs/observability.md``):

* The estimate covers sampling error only — both the shadow and the
  filter see the same stream, so stream-level noise cancels.
* Small slices give wide intervals; size ``sample_rate`` so at least a
  few tens of truly outstanding keys land in the slice.
* Keys must be hashable the same way on both sides; the estimator uses
  :func:`~repro.common.hashing.canonical_key`, the package-wide rule.

>>> from repro.core.criteria import Criteria
>>> est = ShadowAccuracyEstimator(
...     Criteria(delta=0.5, threshold=10.0, epsilon=1.0), sample_rate=1)
>>> for _ in range(8):
...     est.observe("hot", 50.0)
>>> score = est.score(reported_keys={"hot"})
>>> (score.precision, score.recall)
(1.0, 1.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Set, Tuple

import numpy as np

from repro.common.errors import ParameterError
from repro.common.hashing import _mix64_array, canonical_key, canonical_keys, mix64
from repro.common.validation import require_item_arrays
from repro.core.criteria import Criteria
from repro.detection.ground_truth import GroundTruthDetector
from repro.metrics.accuracy import score_sets

#: Salt-derivation constant so shadow sampling never correlates with the
#: filter's own hash families (which use different xor constants).
_SHADOW_SALT = 0x53_48_41_44_4F_57_51_46  # "SHADOWQF"


def wilson_interval(
    successes: int, total: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The interval of choice for small counts: unlike the normal
    approximation it stays inside [0, 1] and does not collapse to a
    point at 0/n or n/n.  ``total == 0`` returns the vacuous (0, 1).

    >>> lo, hi = wilson_interval(9, 10)
    >>> 0.55 < lo < 0.65 and 0.98 < hi <= 1.0
    True
    >>> wilson_interval(0, 0)
    (0.0, 1.0)
    """
    if total < 0 or successes < 0 or successes > total:
        raise ParameterError(
            f"invalid proportion counts: {successes}/{total}"
        )
    if total == 0:
        return (0.0, 1.0)
    p = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    spread = (
        z * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total))
    ) / denom
    return (max(0.0, center - spread), min(1.0, center + spread))


@dataclass(frozen=True)
class ShadowScore:
    """Live precision/recall over the sampled slice, with intervals.

    ``precision_low/high`` and ``recall_low/high`` are Wilson 95 %
    bounds on the sampling error; the point estimates follow the
    package-wide empty-set conventions of
    :class:`~repro.metrics.accuracy.DetectionScore` (1.0 when nothing
    was reported / outstanding in the slice).
    """

    precision: float
    recall: float
    precision_low: float
    precision_high: float
    recall_low: float
    recall_high: float
    true_positives: int
    false_positives: int
    false_negatives: int
    sampled_keys: int
    sampled_items: int

    def as_dict(self) -> dict:
        """Flat JSON-ready dict (what ``/healthz`` embeds)."""
        return {
            "precision": self.precision,
            "recall": self.recall,
            "precision_ci": [self.precision_low, self.precision_high],
            "recall_ci": [self.recall_low, self.recall_high],
            "tp": self.true_positives,
            "fp": self.false_positives,
            "fn": self.false_negatives,
            "sampled_keys": self.sampled_keys,
            "sampled_items": self.sampled_items,
        }


class ShadowAccuracyEstimator:
    """Exactly track a deterministic 1-in-``sample_rate`` slice of keys.

    Parameters
    ----------
    criteria:
        The same criteria the monitored filter runs — the shadow oracle
        must answer the identical Definition 4 question.
    sample_rate:
        Expected keys per sampled key (1 = track everything, the full
        oracle).  Membership is ``mix64(canonical_key(k) ^ salt) <
        2^64 / sample_rate`` — deterministic, order-independent, and
        identical on the scalar and vectorised paths.
    seed:
        Varies the salt so independent estimators sample disjoint-ish
        slices.
    """

    def __init__(
        self, criteria: Criteria, sample_rate: int = 64, seed: int = 0
    ):
        if sample_rate < 1:
            raise ParameterError(
                f"sample_rate must be >= 1, got {sample_rate}"
            )
        self.criteria = criteria
        self.sample_rate = sample_rate
        self.seed = seed
        self._salt = mix64(seed ^ _SHADOW_SALT)
        self._salt_u64 = np.uint64(self._salt)
        # sample_rate == 1 would need a threshold of 2^64, which does
        # not fit in uint64 — special-cased to "everything is sampled".
        self._all = sample_rate == 1
        self._limit = (1 << 64) // sample_rate
        self._limit_u64 = np.uint64(self._limit if not self._all else 0)
        self._oracle = GroundTruthDetector(criteria)
        self.items_seen = 0
        self.sampled_items = 0

    # ------------------------------------------------------------------
    # sampling predicate
    # ------------------------------------------------------------------
    def is_sampled(self, key: Hashable) -> bool:
        """Whether ``key`` belongs to the shadow slice."""
        if self._all:
            return True
        return mix64(canonical_key(key) ^ self._salt) < self._limit

    def sample_mask(self, keys) -> np.ndarray:
        """Vectorised :meth:`is_sampled` over a key array."""
        canon = canonical_keys(np.asarray(keys))
        if self._all:
            return np.ones(canon.shape[0], dtype=bool)
        return _mix64_array(canon ^ self._salt_u64) < self._limit_u64

    # ------------------------------------------------------------------
    # observation (call alongside the filter's inserts)
    # ------------------------------------------------------------------
    def observe(self, key: Hashable, value: float) -> None:
        """Feed one stream item; only sampled keys reach the oracle."""
        self.items_seen += 1
        if self.is_sampled(key):
            self.sampled_items += 1
            self._oracle.process(key, value)

    def observe_batch(self, keys, values) -> None:
        """Vectorised :meth:`observe`: hash-mask the chunk, then run the
        oracle over the (small) sampled subset only."""
        keys = np.asarray(keys)
        values = np.asarray(values, dtype=np.float64)
        require_item_arrays(keys, values)
        self.items_seen += int(keys.shape[0])
        mask = self.sample_mask(keys)
        indices = np.flatnonzero(mask)
        self.sampled_items += int(indices.shape[0])
        process = self._oracle.process
        if np.issubdtype(keys.dtype, np.integer):
            for i in indices:
                process(int(keys[i]), float(values[i]))
        else:
            for i in indices:
                process(keys[i], float(values[i]))

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    @property
    def sampled_keys(self) -> int:
        """Distinct keys currently tracked in the shadow slice."""
        return self._oracle.distinct_keys

    @property
    def true_outstanding(self) -> Set[Hashable]:
        """The oracle's outstanding set within the slice (truth)."""
        return self._oracle.reported_keys

    @property
    def nbytes(self) -> int:
        """Modelled bytes of the shadow oracle's per-key state."""
        return self._oracle.nbytes

    def score(self, reported_keys: Iterable[Hashable]) -> ShadowScore:
        """Score the filter's reports against the shadow truth.

        ``reported_keys`` is the monitored filter's full deduplicated
        report set; it is restricted to the sampled slice before
        comparison, so the two sides answer the same question.
        """
        sampled_reported = {
            key for key in reported_keys if self.is_sampled(key)
        }
        truth = self._oracle.reported_keys
        detection = score_sets(sampled_reported, truth)
        tp = detection.true_positives
        p_low, p_high = wilson_interval(tp, tp + detection.false_positives)
        r_low, r_high = wilson_interval(tp, tp + detection.false_negatives)
        if tp + detection.false_positives == 0:
            p_low, p_high = (0.0, 1.0)
        if tp + detection.false_negatives == 0:
            r_low, r_high = (0.0, 1.0)
        return ShadowScore(
            precision=detection.precision,
            recall=detection.recall,
            precision_low=p_low,
            precision_high=p_high,
            recall_low=r_low,
            recall_high=r_high,
            true_positives=tp,
            false_positives=detection.false_positives,
            false_negatives=detection.false_negatives,
            sampled_keys=self.sampled_keys,
            sampled_items=self.sampled_items,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShadowAccuracyEstimator(rate={self.sample_rate}, "
            f"{self.sampled_keys} keys, {self.sampled_items}/"
            f"{self.items_seen} items)"
        )
