"""Flight recorder: capture the stream window around an incident, replay it.

The alert rules (:mod:`repro.observability.alerts`) over the health
signal gauges can say *that* a filter went degraded or critical; this
module preserves *why*.  A :class:`FlightRecorder` rides a filter's
insert path at **chunk granularity** — the unit the batch engine and
the serve loop already feed in — and retains, in bounded memory:

* a **base snapshot** of the full filter state
  (:func:`repro.core.persistence.engine_state`), refreshed whenever the
  chunk ring rotates, so ``base + retained chunks == live filter`` holds
  at every chunk boundary;
* the last ``max_chunks`` **raw chunks** (keys, values, and the reports
  each one emitted);
* periodic **forensic probes** (:func:`repro.core.inspect.
  structural_probe` plus a registry snapshot), recent
  :class:`~repro.detection.threshold.ThresholdDecision` records and
  :class:`~repro.observability.provenance.ReportProvenance` entries.

When an alert rule enters the firing state
(:meth:`FlightRecorder.observe_alerts`) or on an explicit ``repro
record dump``, the recorder writes a self-contained, versioned
**incident bundle** (``incident-<ts>.json.gz`` plus a small sidecar
manifest) atomically, runstore-style.
:func:`replay_bundle` closes the loop: it rebuilds the filter from the
base snapshot, re-feeds every captured chunk through the same engine
entry point (``insert_many`` / ``process``) and asserts the captured
reports, final counters, state fingerprint and structural health signal
values reproduce **bit-identically** — every production incident
becomes a runnable regression test.

Determinism contract: chunks are replayed through one engine call each,
exactly as they were captured.  The batch engine's geometric cold-start
ramp runs only while ``items_processed`` is 0, which the base state
restores, so matching the call boundaries matches the arithmetic; the
scalar filter's ``insert_many`` is item-order identical to per-item
``insert``.  The base snapshot carries the RNG states too (the
``probabilistic`` strategy's swap draws, the scalar integer counters'
rounding), so every strategy and counter kind replays exactly.

>>> from repro import Criteria, QuantileFilter
>>> filt = QuantileFilter(Criteria(delta=0.5, threshold=10.0,
...                                epsilon=2.0),
...                       num_buckets=8, vague_width=16)
>>> rec = FlightRecorder(filt, max_chunks=4)
>>> keys = [i % 5 for i in range(100)]
>>> for start in range(0, 100, 25):
...     _ = rec.feed(keys[start:start + 25], [30.0] * 25)
>>> result = replay_bundle(rec.bundle("doctest"))
>>> result.ok, result.items_replayed
(True, 100)
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

import numpy as np

from repro.common.errors import ParameterError, TraceFormatError
from repro.observability.registry import (
    SPEC_INDEX,
    MetricSpec,
    StatsRegistry,
)

PathLike = Union[str, Path]

#: Incident-bundle schema version (bump on incompatible layout changes).
#: Version 2 stores structural signal values where version 1 stored a
#: health verdict; version 3 stores batch base states in the one state
#: format of :func:`repro.core.persistence.engine_state` (``vague_rows``
#: became ``vague_counters``, reported keys are tagged pairs, and the
#: strategy RNG is saved).
BUNDLE_SCHEMA_VERSION = 3

#: Help text for the recorder's ``/metrics`` gauges, mirrored into
#: ``SPEC_INDEX`` at import time like the health and filter families.
RECORDER_METRIC_HELP = {
    "qf_recorder_retained_chunks":
        "Raw chunks currently retained in the flight-recorder ring.",
    "qf_recorder_retained_items":
        "Stream items covered by the retained chunk window.",
    "qf_recorder_retained_bytes":
        "Approximate bytes held by the retained raw chunks.",
    "qf_recorder_snapshots_total":
        "Base-state snapshots taken (ring rotations plus the initial one).",
    "qf_recorder_dumps_total":
        "Incident bundles written by this recorder.",
    "qf_recorder_last_dump_unix":
        "Unix time of the most recent incident dump (0 = never).",
}

_RECORDER_GAUGE_AGG = {
    "qf_recorder_retained_chunks": "sum",
    "qf_recorder_retained_items": "sum",
    "qf_recorder_retained_bytes": "sum",
    "qf_recorder_snapshots_total": "sum",
    "qf_recorder_dumps_total": "sum",
    "qf_recorder_last_dump_unix": "max",
}

for _name, _help in RECORDER_METRIC_HELP.items():
    SPEC_INDEX.setdefault(
        _name,
        MetricSpec(
            name=_name,
            kind="counter" if _name.endswith("_total") else "gauge",
            help=_help,
            agg=_RECORDER_GAUGE_AGG[_name],
        ),
    )
del _name, _help


def _persistence():
    """Deferred import: :mod:`repro.core` imports this package for
    provenance, so the snapshot layer cannot load at import time."""
    from repro.core import persistence

    return persistence


def _tolist(values) -> list:
    if hasattr(values, "tolist"):
        return values.tolist()
    return list(values)


def _json_key(key):
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise TraceFormatError(
            f"flight recording needs int or str keys, got {type(key).__name__}"
        )
    return key


def _report_entry(report) -> dict:
    """The comparable core of a Report (provenance intentionally
    excluded: replayed filters are rebuilt without audit hooks)."""
    return {
        "key": _json_key(report.key),
        "qweight": report.qweight,
        "source": report.source,
        "item_index": report.item_index,
    }


def _structural_signals(filt) -> Dict[str, float]:
    """Structural signal gauges — a pure function of filter state.

    Runs a fresh :class:`~repro.observability.health.HealthMonitor`
    over a minimal snapshot (items + reports, both filter-carried) and
    the live structural probe, so capture time and replay time read the
    exact same inputs and must agree value-for-value.
    """
    # Deferred: core.quantile_filter imports this package for
    # provenance, so inspect cannot load at observability import time.
    from repro.core.inspect import structural_probe
    from repro.observability.health import HealthMonitor

    snapshot = {
        "qf_items_total": float(filt.items_processed),
        "qf_reports_total": float(filt.report_count),
    }
    return HealthMonitor().samples(snapshot, probe=structural_probe(filt))


class FlightRecorder:
    """Bounded-memory checkpoint-plus-log ring over one filter.

    Parameters
    ----------
    filt:
        A scalar :class:`~repro.core.quantile_filter.QuantileFilter` or
        a :class:`~repro.core.vectorized.BatchQuantileFilter`.  The
        recorder snapshots it at construction, so attach the recorder
        before (or at) the stream position replays should start from.
        The threads engine is refused: its updater threads commit
        flushes in the order they finish hashing, so its chunks would
        not replay in feed order.
    max_chunks:
        Retained raw chunks; when exceeded the ring rotates — a fresh
        base snapshot is taken and older chunks are dropped.  Callers
        set the chunk size: each :meth:`feed` call is one chunk.
    forensic_every:
        Take a structural probe (plus a registry snapshot when one is
        attached) every N recorded chunks; 0 disables periodic probes.
    incident_dir:
        Where :meth:`dump` writes bundles; ``None`` keeps the recorder
        memory-only (``observe_alerts`` then never dumps).
    config:
        Free-form JSON-able deployment context copied into every
        bundle manifest (shard id, dataset name, CLI arguments, ...).
    registry:
        Optional :class:`~repro.observability.registry.StatsRegistry`
        whose snapshots ride the periodic forensic probes.
    max_incidents:
        Bundles kept on disk per incident directory; older ones are
        pruned after each dump.
    """

    def __init__(
        self,
        filt,
        *,
        max_chunks: int = 32,
        forensic_every: int = 8,
        incident_dir: Optional[PathLike] = None,
        config: Optional[dict] = None,
        registry: Optional[StatsRegistry] = None,
        max_decisions: int = 512,
        max_provenance: int = 512,
        max_probes: int = 32,
        max_incidents: int = 32,
    ):
        if max_chunks < 1:
            raise ParameterError(f"max_chunks must be >= 1, got {max_chunks}")
        if max_incidents < 1:
            raise ParameterError(
                f"max_incidents must be >= 1, got {max_incidents}"
            )
        from repro.core.quantile_filter import QuantileFilter
        from repro.core.vectorized import BatchQuantileFilter

        if isinstance(filt, QuantileFilter):
            self.engine = "scalar"
        elif isinstance(filt, BatchQuantileFilter):
            self.engine = "batch"
        else:
            raise ParameterError(
                "the flight recorder records the scalar engine "
                "(QuantileFilter) or the batch engine "
                f"(BatchQuantileFilter), got {type(filt).__name__}"
            )
        self.filt = filt
        self.max_chunks = max_chunks
        self.forensic_every = forensic_every
        self.incident_dir = Path(incident_dir) if incident_dir else None
        self.config = dict(config or {})
        self.registry = registry
        self.max_incidents = max_incidents
        self._lock = threading.RLock()
        self._chunks: Deque[dict] = deque()
        self._probes: Deque[dict] = deque(maxlen=max_probes)
        self._decisions: Deque[dict] = deque(maxlen=max_decisions)
        self._provenance: Deque[dict] = deque(maxlen=max_provenance)
        self._known = set(filt.reported_keys) if self.engine == "batch" else None
        self._chunks_since_probe = 0
        self.snapshots_total = 0
        self.dumps_total = 0
        self.last_dump_unix = 0.0
        self._base_state = self._snapshot_state()

    # -- state bookkeeping ---------------------------------------------
    def _snapshot_state(self) -> dict:
        self.snapshots_total += 1
        return _persistence().engine_state(self.filt)

    def _rotate(self) -> None:
        """Re-base: the live filter state becomes the new replay origin."""
        self._base_state = self._snapshot_state()
        self._chunks.clear()

    def note_discontinuity(self, reason: str) -> None:
        """Re-base after an un-replayable in-place mutation of the
        filter (e.g. a ``retarget``): snapshots the mutated state as the
        new replay origin so no retained chunk straddles the
        discontinuity."""
        with self._lock:
            self._rotate()
            self._probes.append({
                "item": self.filt.items_processed,
                "discontinuity": reason,
            })

    def _forensic_tick(self) -> None:
        if self.forensic_every <= 0:
            return
        self._chunks_since_probe += 1
        if self._chunks_since_probe >= self.forensic_every:
            self._chunks_since_probe = 0
            self.record_probe()

    # -- recording -----------------------------------------------------
    def feed(self, keys, values):
        """Record one chunk and apply it to the filter.

        This *is* the insert path when recording is on: the chunk is
        applied through the same engine entry point an unrecorded
        feeder would use (``insert_many`` for scalar, ``process`` for
        batch), so detection behaviour is bit-identical either way.
        Returns the scalar engine's new :class:`Report` objects, or the
        batch engine's sorted newly-reported keys.
        """
        with self._lock:
            if len(self._chunks) >= self.max_chunks:
                self._rotate()
            start_item = self.filt.items_processed
            if self.engine == "batch":
                keys_arr = np.asarray(keys, dtype=np.int64)
                values_arr = np.asarray(values, dtype=np.float64)
                self.filt.process(keys_arr, values_arr)
                fresh = sorted(
                    int(key) for key in self.filt.reported_keys - self._known
                )
                self._known.update(fresh)
                self._chunks.append({
                    "start_item": start_item,
                    "keys": keys_arr.tolist(),
                    "values": values_arr.tolist(),
                    "new_keys": fresh,
                    "report_count": self.filt.report_count,
                })
                out = fresh
            else:
                reports = self.filt.insert_many(keys, values)
                self._chunks.append({
                    "start_item": start_item,
                    "keys": _tolist(keys),
                    "values": _tolist(values),
                    "reports": [_report_entry(r) for r in reports],
                })
                self._tap_provenance(reports)
                out = reports
            self._forensic_tick()
            return out

    def _tap_provenance(self, reports) -> None:
        from repro.observability.provenance import provenance_record

        for report in reports:
            if getattr(report, "provenance", None) is not None:
                self._provenance.append(provenance_record(report))

    # -- forensics ------------------------------------------------------
    def record_probe(self) -> None:
        """Capture a structural probe (+ stats snapshot) right now."""
        from repro.core.inspect import structural_probe

        with self._lock:
            entry = {
                "item": self.filt.items_processed,
                "probe": structural_probe(self.filt),
            }
            if self.registry is not None:
                entry["stats"] = self.registry.snapshot()
            self._probes.append(entry)

    def record_decision(self, decision) -> None:
        """Retain a :class:`~repro.detection.threshold.ThresholdDecision`.

        Wire via ``ThresholdControlLoop(..., on_decision=
        recorder.record_decision)`` — the bundle then shows exactly
        which controller evaluations preceded the incident.
        """
        if decision is None:
            return
        with self._lock:
            self._decisions.append(decision._asdict())

    # -- triggers -------------------------------------------------------
    def observe_alerts(self, transitions) -> List[Path]:
        """Feed alert-engine transitions; dump per rule entering firing.

        Takes the list returned by
        :meth:`~repro.observability.alerts.AlertEngine.evaluate` and
        writes one bundle (reason ``alert:<rule>``) for every rule that
        entered the firing state this tick, whatever its severity.
        Deduplication is structural: the engine reports each edge once,
        so a rule that stays firing cannot re-trigger until it has
        resolved and fired again.  Returns the bundle paths written
        (none for a memory-only recorder).
        """
        paths: List[Path] = []
        if self.incident_dir is None:
            return paths
        for transition in transitions:
            rule = transition.rule
            if transition.new_state != "firing":
                continue
            paths.append(self.dump(
                f"alert:{rule.name}",
                extra={
                    "alert": {
                        "rule": rule.as_dict(),
                        "old_state": transition.old_state,
                        "value": transition.value,
                        "at": transition.at,
                    }
                },
            ))
        return paths

    # -- bundles --------------------------------------------------------
    @property
    def retained_chunks(self) -> int:
        return len(self._chunks)

    @property
    def retained_items(self) -> int:
        return sum(len(c["keys"]) for c in self._chunks)

    @property
    def retained_bytes(self) -> int:
        """Approximate raw-chunk footprint (16 B per key/value pair)."""
        return self.retained_items * 16

    def bundle(self, reason: str, *, extra: Optional[dict] = None) -> dict:
        """Build (in memory) the incident bundle for the current window."""
        with self._lock:
            meta = self._base_state["meta"]
            window_items = self.retained_items
            manifest = {
                "schema_version": BUNDLE_SCHEMA_VERSION,
                "created_unix": time.time(),
                "reason": reason,
                "git_revision": self._git_revision(),
                "engine": self.engine,
                "seed": meta["seed"],
                "criteria": meta["criteria"],
                "config": self.config,
                "items_processed": self.filt.items_processed,
                "window_items": window_items,
                "window_chunks": len(self._chunks),
            }
            persistence = _persistence()
            return {
                "schema_version": BUNDLE_SCHEMA_VERSION,
                "manifest": manifest,
                "base_state": persistence.state_to_jsonable(self._base_state),
                "chunks": [dict(chunk) for chunk in self._chunks],
                "forensics": {
                    "probes": list(self._probes),
                    "decisions": list(self._decisions),
                    "provenance": list(self._provenance),
                    "extra": extra,
                },
                "expected": {
                    "items_processed": self.filt.items_processed,
                    "report_count": self.filt.report_count,
                    "state_fingerprint":
                        persistence.state_fingerprint(self.filt),
                    "signals": _structural_signals(self.filt),
                },
            }

    @staticmethod
    def _git_revision() -> str:
        from repro.experiments.runstore import git_revision

        return git_revision(Path(__file__).parent)

    def dump(self, reason: str, *, extra: Optional[dict] = None) -> Path:
        """Write an incident bundle atomically; returns its path."""
        if self.incident_dir is None:
            raise ParameterError(
                "this recorder has no incident_dir; construct it with one "
                "to enable dumps"
            )
        with self._lock:
            bundle = self.bundle(reason, extra=extra)
            self.incident_dir.mkdir(parents=True, exist_ok=True)
            stamp = int(bundle["manifest"]["created_unix"] * 1000)
            path = self.incident_dir / f"incident-{stamp}.json.gz"
            suffix = 0
            while path.exists():
                suffix += 1
                path = self.incident_dir / f"incident-{stamp}-{suffix}.json.gz"
            bundle["manifest"]["bundle"] = path.name
            payload = gzip.compress(
                json.dumps(bundle).encode("utf-8"), mtime=0
            )
            _atomic_write_bytes(path, payload)
            sidecar = path.with_name(path.name[:-len(".json.gz")]
                                     + ".manifest.json")
            _atomic_write_bytes(
                sidecar,
                (json.dumps(bundle["manifest"], indent=2) + "\n").encode(
                    "utf-8"
                ),
            )
            self._prune_incidents()
            self.dumps_total += 1
            self.last_dump_unix = time.time()
            return path

    def _prune_incidents(self) -> None:
        bundles = sorted(self.incident_dir.glob("incident-*.json.gz"))
        for stale in bundles[:-self.max_incidents]:
            sidecar = stale.with_name(
                stale.name[:-len(".json.gz")] + ".manifest.json"
            )
            for victim in (stale, sidecar):
                try:
                    victim.unlink()
                except OSError:  # pragma: no cover - races are benign
                    pass

    def list_incidents(self) -> List[dict]:
        """Manifests of this recorder's on-disk bundles, newest first."""
        if self.incident_dir is None:
            return []
        return list_incidents(self.incident_dir)


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def list_incidents(incident_dir: PathLike) -> List[dict]:
    """Read every sidecar manifest under ``incident_dir``, newest first.

    The scan is recursive, so recorders that dump into subdirectories
    (one per shard, say) are listed from the root.  Unreadable
    manifests are skipped (a dump may be mid-replace).
    """
    root = Path(incident_dir)
    if not root.is_dir():
        return []
    manifests = []
    for path in sorted(root.rglob("incident-*.manifest.json")):
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        manifest["path"] = str(
            path.with_name(path.name[:-len(".manifest.json")] + ".json.gz")
        )
        manifests.append(manifest)
    manifests.sort(key=lambda m: m.get("created_unix", 0.0), reverse=True)
    return manifests


def observe_recorder(
    recorder: FlightRecorder,
    registry: Optional[StatsRegistry] = None,
    labels: Optional[Dict[str, str]] = None,
) -> StatsRegistry:
    """Export ``qf_recorder_*`` gauges for a recorder (pull-model)."""
    registry = registry if registry is not None else StatsRegistry()
    gauges: List[tuple] = [
        ("qf_recorder_retained_chunks", lambda: recorder.retained_chunks),
        ("qf_recorder_retained_items", lambda: recorder.retained_items),
        ("qf_recorder_retained_bytes", lambda: recorder.retained_bytes),
        ("qf_recorder_last_dump_unix", lambda: recorder.last_dump_unix),
    ]
    for name, fn in gauges:
        registry.gauge_fn(
            name, fn, help=RECORDER_METRIC_HELP[name], labels=labels,
            agg=_RECORDER_GAUGE_AGG[name],
        )
    for name, fn in (
        ("qf_recorder_snapshots_total", lambda: recorder.snapshots_total),
        ("qf_recorder_dumps_total", lambda: recorder.dumps_total),
    ):
        registry.counter_fn(
            name, fn, help=RECORDER_METRIC_HELP[name], labels=labels,
        )
    return registry


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
@dataclass
class ReplayResult:
    """Outcome of one deterministic replay.

    ``ok`` requires every per-chunk report stream, the final counters,
    the state fingerprint and the structural signal values to match
    the capture exactly; ``mismatches`` names each deviation.
    """

    ok: bool
    engine: str
    chunks_replayed: int
    items_replayed: int
    reports_expected: int
    reports_replayed: int
    fingerprint_ok: bool
    signals_ok: bool
    mismatches: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "engine": self.engine,
            "chunks_replayed": self.chunks_replayed,
            "items_replayed": self.items_replayed,
            "reports_expected": self.reports_expected,
            "reports_replayed": self.reports_replayed,
            "fingerprint_ok": self.fingerprint_ok,
            "signals_ok": self.signals_ok,
            "mismatches": list(self.mismatches),
        }

    def summary(self) -> str:
        state = "MATCH" if self.ok else "MISMATCH"
        lines = [
            f"replay {state}: engine={self.engine} "
            f"chunks={self.chunks_replayed} items={self.items_replayed} "
            f"reports={self.reports_replayed}/{self.reports_expected}",
            f"  state fingerprint: "
            f"{'identical' if self.fingerprint_ok else 'DIVERGED'}",
            f"  structural signals: "
            f"{'identical' if self.signals_ok else 'DIVERGED'}",
        ]
        for mismatch in self.mismatches[:20]:
            lines.append(f"  mismatch: {mismatch}")
        if len(self.mismatches) > 20:
            lines.append(
                f"  ... {len(self.mismatches) - 20} further mismatch(es)"
            )
        return "\n".join(lines)


def load_bundle(path: PathLike) -> dict:
    """Read an incident bundle (gzip or plain JSON)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        if raw[:2] == b"\x1f\x8b":
            raw = gzip.decompress(raw)
        bundle = json.loads(raw.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise TraceFormatError(f"cannot read bundle {path}: {exc}") from exc
    version = bundle.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise TraceFormatError(
            f"unsupported bundle schema {version!r} in {path} "
            f"(this code reads {BUNDLE_SCHEMA_VERSION})"
        )
    return bundle


def replay_bundle(bundle: Union[dict, PathLike]) -> ReplayResult:
    """Reconstruct the filter and re-run the captured window.

    Accepts a bundle dict (from :meth:`FlightRecorder.bundle` or
    :func:`load_bundle`) or a bundle path.
    """
    if not isinstance(bundle, dict):
        bundle = load_bundle(bundle)
    persistence = _persistence()
    engine = bundle["manifest"]["engine"]
    filt = persistence.restore_engine(
        persistence.state_from_jsonable(bundle["base_state"])
    )
    mismatches: List[str] = []
    reports_expected = 0
    reports_replayed = 0
    items = 0
    for index, chunk in enumerate(bundle["chunks"]):
        items += len(chunk["keys"])
        if engine == "batch":
            keys = np.asarray(chunk["keys"], dtype=np.int64)
            values = np.asarray(chunk["values"], dtype=np.float64)
            before = set(filt.reported_keys)
            filt.process(keys, values)
            fresh = sorted(int(k) for k in filt.reported_keys - before)
            reports_expected += len(chunk["new_keys"])
            reports_replayed += len(fresh)
            if fresh != chunk["new_keys"]:
                mismatches.append(
                    f"chunk {index}: new keys {fresh} != captured "
                    f"{chunk['new_keys']}"
                )
            if filt.report_count != chunk["report_count"]:
                mismatches.append(
                    f"chunk {index}: report_count {filt.report_count} != "
                    f"captured {chunk['report_count']}"
                )
        else:
            got = [
                _report_entry(report)
                for report in filt.insert_many(chunk["keys"], chunk["values"])
            ]
            want = chunk["reports"]
            reports_expected += len(want)
            reports_replayed += len(got)
            if got != want:
                mismatches.append(
                    f"chunk {index}: {len(got)} report(s) != captured "
                    f"{len(want)} or their fields diverged"
                )
    expected = bundle["expected"]
    if filt.items_processed != expected["items_processed"]:
        mismatches.append(
            f"items_processed {filt.items_processed} != captured "
            f"{expected['items_processed']}"
        )
    if filt.report_count != expected["report_count"]:
        mismatches.append(
            f"report_count {filt.report_count} != captured "
            f"{expected['report_count']}"
        )
    fingerprint_ok = (
        persistence.state_fingerprint(filt) == expected["state_fingerprint"]
    )
    if not fingerprint_ok:
        mismatches.append("final state fingerprint diverged from capture")
    signals_ok = _structural_signals(filt) == expected["signals"]
    if not signals_ok:
        mismatches.append("structural signal values diverged from capture")
    return ReplayResult(
        ok=not mismatches,
        engine=engine,
        chunks_replayed=len(bundle["chunks"]),
        items_replayed=items,
        reports_expected=reports_expected,
        reports_replayed=reports_replayed,
        fingerprint_ok=fingerprint_ok,
        signals_ok=signals_ok,
        mismatches=mismatches,
    )
