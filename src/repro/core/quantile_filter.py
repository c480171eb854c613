"""QuantileFilter: online detection of quantile-outstanding keys.

This is the paper's Algorithm 2.  Each arriving ``<key, value>`` costs a
constant amount of work:

1. Compute the key's fingerprint, candidate bucket and item Qweight.
2. **Candidate hit** — the fingerprint is in its bucket: update that
   entry's exact Qweight; report and reset when it crosses
   ``epsilon / (1 - delta)``.
3. **Candidate vacancy** — store a fresh ``<fp, Qw>`` entry.
4. **Candidate full** — feed the item into the vague part (a Count
   Sketch keyed by ``mix(fp, bucket)``), fused with a post-insert
   estimate.  Report-and-reset on threshold; otherwise run the
   replacement strategy against the bucket's weakest entry and, on a
   win, swap the key into the candidate part (its estimate moves with
   it; the evicted entry's Qweight moves into the vague part).

Per-key criteria, dynamic criteria modification and explicit
query/delete/reset (Sec. III-C) are all supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Set

from repro.common.errors import ParameterError
from repro.common.hashing import FingerprintHasher, canonical_key, mix64
from repro.common.memory import MemoryModel, sizeof_counter
from repro.observability.provenance import ReportProvenance
from repro.core.candidate import CandidatePart
from repro.core.criteria import Criteria
from repro.core.shape import DEFAULT_CANDIDATE_FRACTION, resolve_shape
from repro.core.strategies import ReplacementStrategy, make_strategy
from repro.core.vague import VaguePart, vague_key
from repro.quantiles.base import RANK_EPS


@dataclass(frozen=True)
class Report:
    """One outstanding-key report.

    Attributes
    ----------
    key:
        The original (un-fingerprinted) key, available because reports
        happen online while the item is in hand.
    qweight:
        The Qweight estimate that triggered the report.
    source:
        ``"candidate"`` or ``"vague"`` — which part detected it.
    item_index:
        0-based position in the stream of the triggering item.
    provenance:
        Filter-state audit context captured at emission
        (:class:`~repro.observability.provenance.ReportProvenance`);
        ``None`` unless the filter was built with
        ``collect_provenance=True``.
    """

    key: Hashable
    qweight: float
    source: str
    item_index: int
    provenance: Optional[ReportProvenance] = None


class QuantileFilter:
    """The two-part online quantile-outstanding-key detector.

    Parameters
    ----------
    criteria:
        Default ``(epsilon, delta, T)`` criteria applied to keys without
        an override.
    memory_bytes:
        Total byte budget, split ``candidate_fraction`` /
        ``1 - candidate_fraction`` between the parts
        (:func:`~repro.core.shape.resolve_shape`).  Alternatively pass
        explicit ``num_buckets`` and ``vague_width``.
    bucket_size:
        Entries per candidate bucket (paper default 6).
    depth:
        Vague-part sketch rows (paper default 3).
    candidate_fraction:
        Fraction of the budget given to the candidate part (default 0.8,
        the paper's 4:1 split).
    fp_bits:
        Fingerprint width (paper default 16).
    counter_kind:
        Vague-part counter width (``"int32"`` default; ``"int16"`` /
        ``"int8"`` for the space-extreme configurations, ``"float"`` for
        the rounding ablation).
    vague_backend:
        ``"cs"`` (paper) or ``"cms"`` (Fig. 12 variant).
    strategy:
        Replacement strategy name (``"comparative"`` default).
    track_reports:
        Keep the deduplicated set of reported keys in
        :attr:`reported_keys` (the accuracy metric needs it).
    on_report:
        Optional callback invoked with every :class:`Report`.
    collect_provenance:
        Attach a :class:`~repro.observability.provenance.
        ReportProvenance` audit record to every emitted report.  Costs
        one bucket scan per *report* (never per item).
    trace_hook:
        Optional callable ``(kind, key, bucket, qweight, item_index)``
        invoked on structural events — candidate election
        (``"candidate_elect"``), vague→candidate replacement
        (``"candidate_swap"``) and report emission (``"report"``).
        ``None`` (default) costs one predicate per event site; see
        :func:`repro.observability.tracing.attach_filter_tracing`.
    """

    def __init__(
        self,
        criteria: Criteria,
        memory_bytes: Optional[int] = None,
        *,
        num_buckets: Optional[int] = None,
        bucket_size: int = 6,
        depth: int = 3,
        vague_width: Optional[int] = None,
        candidate_fraction: float = DEFAULT_CANDIDATE_FRACTION,
        fp_bits: int = 16,
        counter_kind: str = "int32",
        vague_backend: str = "cs",
        strategy: str = "comparative",
        seed: int = 0,
        track_reports: bool = True,
        on_report: Optional[Callable[[Report], None]] = None,
        collect_provenance: bool = False,
        trace_hook: Optional[Callable] = None,
    ):
        self.criteria = criteria
        # The shape, under the batch engine's names (shape_of reads them).
        self.num_buckets, self.width = resolve_shape(
            memory_bytes, num_buckets, vague_width,
            counter_bytes=sizeof_counter(counter_kind),
            bucket_size=bucket_size, depth=depth, fp_bits=fp_bits,
            candidate_fraction=candidate_fraction,
        )
        self.bucket_size = bucket_size
        self.depth = depth
        self.fp_bits = fp_bits
        self.seed = seed
        self.candidate = CandidatePart(
            self.num_buckets, bucket_size=bucket_size, fp_bits=fp_bits
        )
        self.vague = VaguePart(
            depth=depth,
            width=self.width,
            backend=vague_backend,
            counter_kind=counter_kind,
            seed=seed,
        )
        self._fp_hasher = FingerprintHasher(bits=fp_bits, seed=seed + 7)
        self._bucket_seed = mix64(seed ^ 0x1234_5678_9ABC_DEF0)
        self.strategy: ReplacementStrategy = (
            strategy if isinstance(strategy, ReplacementStrategy)
            else make_strategy(strategy, seed=seed + 13)
        )
        self._key_criteria: Dict[Hashable, Criteria] = {}
        self._on_report = on_report
        self._track_reports = track_reports
        self.reported_keys: Set[Hashable] = set()
        self.items_processed = 0
        self.report_count = 0
        # Instrumentation for the hit-rate discussion in Sec. V-B.
        self.candidate_hits = 0
        self.vague_inserts = 0
        self.swaps = 0
        # Telemetry counters (repro.observability reads these through
        # pull gauges, so the insert path stays unchanged; the report /
        # reset / merge paths are rare enough for plain increments).
        self.candidate_reports = 0
        self.vague_reports = 0
        self.resets = 0
        self.merges = 0
        self.retargets = 0
        self.items_at_last_reset = 0
        self.collect_provenance = collect_provenance
        #: No-op-by-default structural event hook (tracing attaches here).
        self.trace_hook = trace_hook

    # ------------------------------------------------------------------
    # addressing helpers
    # ------------------------------------------------------------------
    def _locate(self, key: Hashable):
        """(key_int, fingerprint, bucket) for a raw key."""
        key_int = canonical_key(key)
        fp = self._fp_hasher.fingerprint(key_int)
        bucket = mix64(key_int ^ self._bucket_seed) % self.candidate.num_buckets
        return key_int, fp, bucket

    def _criteria_for(self, key: Hashable, override: Optional[Criteria]) -> Criteria:
        if override is not None:
            return override
        return self._key_criteria.get(key, self.criteria)

    # ------------------------------------------------------------------
    # the online insert (Algorithm 2)
    # ------------------------------------------------------------------
    def insert(
        self,
        key: Hashable,
        value: float,
        criteria: Optional[Criteria] = None,
    ) -> Optional[Report]:
        """Process one stream item; returns a :class:`Report` if the key
        is detected as outstanding by this item, else ``None``.

        ``criteria`` overrides the per-key/default criteria for this
        item only (the Sec. III-C per-key-criteria mode).  A NaN
        ``value`` raises :class:`ParameterError` before any state
        changes; ±inf are ordinary values.
        """
        if value != value:
            raise ParameterError(f"value of key {key!r} must not be NaN")
        crit = self._criteria_for(key, criteria)
        item_index = self.items_processed
        self.items_processed += 1

        _, fp, bucket = self._locate(key)
        weight = crit.item_weight(value)
        # Same boundary tolerance as the exact-arithmetic oracle, so a
        # collision-free filter agrees with the ground truth item-for-item.
        report_threshold = crit.report_threshold - RANK_EPS * (
            1 + crit.report_threshold
        )

        # Case 1: fingerprint already a candidate -> exact update.
        slot = self.candidate.find(bucket, fp)
        if slot is not None:
            self.candidate_hits += 1
            new_qw = self.candidate.add_qweight(bucket, slot, weight)
            if new_qw >= report_threshold:
                self.candidate.reset_qweight(bucket, slot)
                return self._emit(
                    key, new_qw, "candidate", item_index, fp, bucket, crit
                )
            return None

        # Case 2: room in the bucket -> become a candidate immediately.
        free = self.candidate.free_slot(bucket)
        if free is not None:
            if self.trace_hook is not None:
                self.trace_hook("candidate_elect", key, bucket, weight,
                                item_index)
            if weight >= report_threshold:
                # A single item can qualify when epsilon = 0.
                self.candidate.set_entry(bucket, free, fp, 0.0)
                return self._emit(
                    key, weight, "candidate", item_index, fp, bucket, crit
                )
            self.candidate.set_entry(bucket, free, fp, weight)
            return None

        # Case 3: bucket full -> vague part, then candidate election.
        self.vague_inserts += 1
        vkey = vague_key(fp, bucket)
        estimate = self.vague.update_and_estimate(vkey, weight)
        report: Optional[Report] = None
        if estimate >= report_threshold:
            self.vague.delete(vkey, estimate)
            report = self._emit(
                key, estimate, "vague", item_index, fp, bucket, crit
            )
            estimate = 0.0

        min_slot, min_qw = self.candidate.min_entry(bucket)
        if self.strategy.should_replace(estimate, min_qw):
            self.swaps += 1
            if self.trace_hook is not None:
                self.trace_hook("candidate_swap", key, bucket, estimate,
                                item_index)
            evicted_fp, evicted_qw = self.candidate.evict(bucket, min_slot)
            # The displaced key's Qweight moves into the vague part ...
            self.vague.update(vague_key(evicted_fp, bucket), evicted_qw)
            # ... and the winner's estimate moves out of it.
            if estimate != 0.0:
                self.vague.delete(vkey, estimate)
            self.candidate.set_entry(bucket, min_slot, fp, estimate)
        return report

    def insert_many(self, keys, values) -> list:
        """Insert a batch of items; returns the emitted reports in order.

        Semantically identical to calling :meth:`insert` per item,
        except that a NaN anywhere in ``values`` raises
        :class:`ParameterError` before any item is inserted.  The
        loop lives inside the filter so bulk feeders (pipeline shard
        workers, benchmark drivers) hand over whole arrays: numpy
        inputs are unboxed to plain Python scalars once via ``tolist``
        instead of once per item, and the per-item call dispatches
        through one bound method.
        """
        if hasattr(keys, "tolist"):
            keys = keys.tolist()
        values = values.tolist() if hasattr(values, "tolist") else list(values)
        if any(value != value for value in values):
            raise ParameterError("values must not be NaN")
        insert = self.insert
        return [
            report
            for report in map(insert, keys, values)
            if report is not None
        ]

    def _emit(
        self, key, qweight, source, item_index, fp=0, bucket=0, crit=None
    ) -> Report:
        provenance = None
        if self.collect_provenance:
            provenance = ReportProvenance(
                part=source,
                bucket=bucket,
                fingerprint=fp,
                qweight=qweight,
                threshold=(
                    crit.report_threshold if crit is not None
                    else self.criteria.report_threshold
                ),
                value_threshold=(
                    crit.threshold if crit is not None
                    else self.criteria.threshold
                ),
                bucket_occupancy=self.candidate.bucket_occupancy(bucket),
                replacements=self.swaps,
                items_since_reset=self.items_processed
                - self.items_at_last_reset,
                resets=self.resets,
            )
        report = Report(
            key=key, qweight=qweight, source=source, item_index=item_index,
            provenance=provenance,
        )
        self.report_count += 1
        if self.trace_hook is not None:
            self.trace_hook("report", key, bucket, qweight, item_index)
        if source == "candidate":
            self.candidate_reports += 1
        else:
            self.vague_reports += 1
        if self._track_reports:
            self.reported_keys.add(key)
        if self._on_report is not None:
            self._on_report(report)
        return report

    # ------------------------------------------------------------------
    # query / delete / reset (Sec. III-B additional operations)
    # ------------------------------------------------------------------
    def query(self, key: Hashable) -> float:
        """Current Qweight estimate of ``key``.

        Candidate part first (exact if present); vague part otherwise.
        """
        _, fp, bucket = self._locate(key)
        slot = self.candidate.find(bucket, fp)
        if slot is not None:
            return self.candidate.get_qweight(bucket, slot)
        return self.vague.estimate(vague_key(fp, bucket))

    def delete(self, key: Hashable) -> None:
        """Clear ``key``'s Qweight wherever it lives.

        Candidate hit: zero the counter (the entry stays).  Otherwise:
        subtract the vague estimate from the vague part.
        """
        _, fp, bucket = self._locate(key)
        slot = self.candidate.find(bucket, fp)
        if slot is not None:
            self.candidate.reset_qweight(bucket, slot)
            return
        vkey = vague_key(fp, bucket)
        self.vague.delete(vkey, self.vague.estimate(vkey))

    def reset(self) -> None:
        """Clear both parts (the paper's periodic structure reset).

        Reported-key history and counters are kept; per-key criteria
        overrides are kept too (they are configuration, not state).
        """
        self.candidate.clear()
        self.vague.clear()
        self.resets += 1
        self.items_at_last_reset = self.items_processed

    def retarget(self, threshold: float) -> Criteria:
        """Move the default criteria's value threshold ``T`` in place.

        The adaptive-threshold control path
        (:class:`~repro.detection.threshold.ThresholdControlLoop`):
        only the criteria object is swapped — candidate entries, vague
        counters and reported-key history all survive, so accumulated
        Qweight evidence keeps counting under the new ``T``.  Items
        already absorbed were weighted under the old threshold; the
        deliberate alternative to a destructive rebuild, argued in
        ``docs/adaptive-thresholds.md`` (a :meth:`reset` right after
        retargeting gives clean-slate semantics when preferred).

        Per-key criteria overrides are configuration, not state, and
        are untouched.  Returns the new default criteria.
        """
        self.criteria = self.criteria.with_updates(threshold=float(threshold))
        self.retargets += 1
        return self.criteria

    # ------------------------------------------------------------------
    # per-key criteria (Sec. III-C)
    # ------------------------------------------------------------------
    def set_key_criteria(self, key: Hashable, criteria: Criteria) -> None:
        """Register standing per-key criteria for ``key``."""
        self._key_criteria[key] = criteria

    def modify_criteria(self, key: Hashable, criteria: Criteria) -> None:
        """Change ``key``'s criteria mid-stream (Figs. 13-15).

        Per the paper, the key's accumulated Qweight is deleted so its
        value set effectively resets under the new criteria.
        """
        self.delete(key)
        self._key_criteria[key] = criteria

    def clear_key_criteria(self, key: Hashable) -> None:
        """Drop ``key``'s override, returning it to the default criteria."""
        self._key_criteria.pop(key, None)

    # ------------------------------------------------------------------
    # merging (distributed deployments)
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileFilter") -> None:
        """Fold another shard's filter into this one.

        Both filters must be configured identically (same dimensions,
        fingerprint width, vague backend and **seed** — the shards must
        share hash families for their cells to correspond).  After the
        merge, this filter approximates the one that would have seen
        both shards' streams:

        1. Vague parts merge counter-wise (Count Sketch is linear).
        2. Candidate entries combine per bucket: matching fingerprints
           sum their Qweights; distinct fingerprints fill free slots,
           and when a bucket overflows the smallest Qweights spill into
           the vague part (the normal eviction path).
        3. For every surviving candidate entry, any residue the *other*
           shard had accumulated for that key in its vague part is
           pulled out of the merged vague part and added to the entry,
           restoring the one-part-per-key invariant.

        Reported-key histories union; instrumentation counters sum.
        Like the paper's swap step, step 3 moves *estimates*, so merged
        Qweights carry vague-part noise for keys that were split across
        parts on different shards.
        """
        self._check_merge_compatible(other)
        self.vague.sketch.merge(other.vague.sketch)

        for bucket in range(self.candidate.num_buckets):
            for slot in range(other.candidate.bucket_size):
                other_fp = int(other.candidate._fps[bucket, slot])
                if other_fp == 0:
                    continue
                other_qw = float(other.candidate._qws[bucket, slot])
                self._merge_candidate_entry(bucket, other_fp, other_qw)
            # Restore exclusivity: pull each surviving entry's vague
            # residue (now containing the other shard's mass) into the
            # exact counter.
            for slot in range(self.candidate.bucket_size):
                fp = int(self.candidate._fps[bucket, slot])
                if fp == 0:
                    continue
                vkey = vague_key(fp, bucket)
                residue = self.vague.estimate(vkey)
                if residue != 0.0:
                    self.vague.delete(vkey, residue)
                    self.candidate.add_qweight(bucket, slot, residue)

        self.items_processed += other.items_processed
        self.report_count += other.report_count
        self.candidate_hits += other.candidate_hits
        self.vague_inserts += other.vague_inserts
        self.swaps += other.swaps
        self.candidate_reports += other.candidate_reports
        self.vague_reports += other.vague_reports
        self.resets += other.resets
        self.retargets += other.retargets
        self.merges += other.merges + 1
        self.reported_keys |= other.reported_keys
        for key, criteria in other._key_criteria.items():
            self._key_criteria.setdefault(key, criteria)

    def _merge_candidate_entry(self, bucket: int, fp: int, qw: float) -> None:
        slot = self.candidate.find(bucket, fp)
        if slot is not None:
            self.candidate.add_qweight(bucket, slot, qw)
            return
        free = self.candidate.free_slot(bucket)
        if free is not None:
            self.candidate.set_entry(bucket, free, fp, qw)
            return
        min_slot, min_qw = self.candidate.min_entry(bucket)
        if qw > min_qw:
            evicted_fp, evicted_qw = self.candidate.evict(bucket, min_slot)
            self.vague.update(vague_key(evicted_fp, bucket), evicted_qw)
            self.candidate.set_entry(bucket, min_slot, fp, qw)
        else:
            self.vague.update(vague_key(fp, bucket), qw)

    def _check_merge_compatible(self, other: "QuantileFilter") -> None:
        checks = [
            ("num_buckets", self.candidate.num_buckets, other.candidate.num_buckets),
            ("bucket_size", self.candidate.bucket_size, other.candidate.bucket_size),
            ("fp_bits", self.candidate.fp_bits, other.candidate.fp_bits),
            ("vague_depth", self.vague.depth, other.vague.depth),
            ("vague_width", self.vague.width, other.vague.width),
            ("vague_backend", self.vague.backend, other.vague.backend),
            ("seed", self.seed, other.seed),
            ("criteria", self.criteria, other.criteria),
        ]
        mismatched = [
            f"{name} ({mine!r} != {theirs!r})"
            for name, mine, theirs in checks
            if mine != theirs
        ]
        if mismatched:
            raise ParameterError(
                "cannot merge incompatible QuantileFilters — mismatched "
                + ", ".join(mismatched)
                + "; shards must share geometry, fingerprint width, vague "
                "backend, seed and default criteria"
            )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Modelled total memory footprint in bytes."""
        return self.candidate.nbytes + self.vague.nbytes

    def memory_model(self) -> MemoryModel:
        """Itemised memory breakdown (candidate vs vague)."""
        model = MemoryModel()
        model.add("candidate", self.candidate.nbytes)
        model.add("vague", self.vague.nbytes)
        return model

    def top_candidates(self, k: int = 10) -> list:
        """The ``k`` candidate entries with the highest Qweights.

        Returns ``[(fingerprint, bucket, qweight), ...]`` sorted by
        Qweight descending — the keys currently *closest to reporting*.
        Only fingerprints are available (the candidate part does not
        store keys); correlate via :class:`~repro.detection.reports.ReportLog`
        or by probing suspects with :meth:`query`.  Useful as a
        dashboard of "warming" anomalies between reports.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        entries = []
        fps = self.candidate._fps
        qws = self.candidate._qws
        for bucket in range(self.candidate.num_buckets):
            for slot in range(self.candidate.bucket_size):
                fp = int(fps[bucket, slot])
                if fp:
                    entries.append((fp, bucket, float(qws[bucket, slot])))
        entries.sort(key=lambda e: e[2], reverse=True)
        return entries[:k]

    def candidate_hit_rate(self) -> float:
        """Fraction of inserts resolved entirely in the candidate part."""
        if self.items_processed == 0:
            return 0.0
        return self.candidate_hits / self.items_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileFilter(nbytes={self.nbytes}, "
            f"buckets={self.candidate.num_buckets}x{self.candidate.bucket_size}, "
            f"vague={self.vague.depth}x{self.vague.width} "
            f"[{self.vague.backend}], strategy={self.strategy.name!r})"
        )
