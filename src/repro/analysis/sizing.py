"""Configuration sizing: turn workload expectations into a filter config.

The paper gives the ingredients — Theorem 1's width/depth formulas, the
candidate part's role of absorbing the likely-outstanding keys, the 4:1
split — but a user still has to assemble them.  :func:`recommend`
packages that reasoning: given how many distinct keys the deployment
expects, roughly how many may be outstanding at once, and the desired
failure probability, it returns concrete structure dimensions and the
byte budget they imply.

The output is a starting point, not an oracle: the paper (and our
Figs. 9-11 reproduction) shows accuracy is flat across wide parameter
ranges, so the estimate only needs to land in the right decade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.theory import csketch_depth_for
from repro.common.errors import ParameterError
from repro.common.memory import sizeof_counter
from repro.core.criteria import Criteria
from repro.core.shape import slot_bytes


@dataclass(frozen=True)
class SizingRecommendation:
    """A concrete QuantileFilter configuration with its cost."""

    num_buckets: int
    bucket_size: int
    depth: int
    vague_width: int
    fp_bits: int
    counter_kind: str
    candidate_bytes: int
    vague_bytes: int

    @property
    def total_bytes(self) -> int:
        """Modelled total footprint of the recommended configuration."""
        return self.candidate_bytes + self.vague_bytes

    def filter_kwargs(self) -> dict:
        """Keyword arguments for ``QuantileFilter(criteria, **kwargs)``."""
        return {
            "num_buckets": self.num_buckets,
            "bucket_size": self.bucket_size,
            "depth": self.depth,
            "vague_width": self.vague_width,
            "fp_bits": self.fp_bits,
            "counter_kind": self.counter_kind,
        }


def recommend(
    expected_keys: int,
    expected_outstanding: int,
    criteria: Criteria,
    failure_probability: float = 0.05,
    bucket_size: int = 6,
    headroom: float = 4.0,
    expected_items_per_key: float = 32.0,
) -> SizingRecommendation:
    """Recommend QuantileFilter dimensions for a workload.

    Parameters
    ----------
    expected_keys:
        Distinct keys expected per reset period.
    expected_outstanding:
        Upper estimate of keys that may be outstanding (or close to it)
        simultaneously — the population the candidate part must hold.
    criteria:
        The detection criteria; the report threshold sets the error
        scale the vague part must resolve.
    failure_probability:
        Per-key probability that a vague-part estimate misses by more
        than the report threshold (drives the depth via Theorem 1).
    bucket_size:
        Candidate entries per bucket (paper default 6).
    headroom:
        Multiplier on the candidate capacity over
        ``expected_outstanding``, absorbing election churn (the paper's
        4:1 budget split implies a similar factor).
    expected_items_per_key:
        Mean items per key within one reset period.  A key that never
        reports accumulates Qweight ~ -frequency, so this sets the
        magnitude scale of the vague part's residual mass.

    Sizing logic
    ------------
    * **Candidate part** — ``headroom * expected_outstanding`` slots,
      rounded up to whole buckets; outstanding keys must win candidate
      residency for exact counting (Theorem 3's precondition).
    * **Depth** — Theorem 1's ``ceil(8 ln(1/gamma))`` is very
      conservative (it budgets for worst-case L2); the paper's
      experiments show 3 rows suffice, so the recommendation clamps to
      [3, theorem depth] and keeps it odd for a clean median.
    * **Vague width** — Theorem 1 with the residual mass after the
      candidate part absorbs the heavy Qweights: the residual keys are
      mostly negative with magnitude up to their frequency, giving
      ``L2 ~ sqrt(expected_keys) * expected_items_per_key``; the width
      is chosen so one row's noise standard deviation stays below half
      the report threshold (or below the positive weight when
      epsilon = 0).
    """
    if expected_keys < 1:
        raise ParameterError(f"expected_keys must be >= 1, got {expected_keys}")
    if expected_outstanding < 1:
        raise ParameterError(
            f"expected_outstanding must be >= 1, got {expected_outstanding}"
        )
    if not 0.0 < failure_probability < 1.0:
        raise ParameterError(
            f"failure_probability must be in (0, 1), got {failure_probability}"
        )
    if headroom < 1.0:
        raise ParameterError(f"headroom must be >= 1, got {headroom}")
    if expected_items_per_key <= 0:
        raise ParameterError(
            f"expected_items_per_key must be > 0, got {expected_items_per_key}"
        )

    # Candidate part: enough buckets that the outstanding population
    # (with headroom) fits without bucket-level crowding.
    slots_needed = int(math.ceil(headroom * expected_outstanding))
    num_buckets = max(1, int(math.ceil(slots_needed / bucket_size)))

    # Depth: paper-practical 3 unless the requested failure probability
    # is loose enough that even Theorem 1 asks for less.
    theorem_depth = csketch_depth_for(failure_probability)
    depth = min(max(3, 1), theorem_depth)
    if depth % 2 == 0:
        depth += 1

    # Vague width: residual noise per row must not fake a report.
    # Once the heavy (outstanding-ish) keys are candidates, the residual
    # keys are the never-reporting ones, each carrying |Qw| up to its
    # frequency within the reset period.
    residual_l2 = math.sqrt(expected_keys) * expected_items_per_key
    tolerance = max(criteria.report_threshold / 2.0, criteria.positive_weight)
    # One row's std <= residual_l2 / sqrt(width)  =>  width >= (l2/tol)^2.
    vague_width = max(16, int(math.ceil((residual_l2 / tolerance) ** 2)))

    fp_bits = 16
    counter_kind = "int32"
    candidate_bytes = num_buckets * bucket_size * slot_bytes(fp_bits)
    vague_bytes = depth * vague_width * sizeof_counter(counter_kind)
    return SizingRecommendation(
        num_buckets=num_buckets,
        bucket_size=bucket_size,
        depth=depth,
        vague_width=vague_width,
        fp_bits=fp_bits,
        counter_kind=counter_kind,
        candidate_bytes=candidate_bytes,
        vague_bytes=vague_bytes,
    )
