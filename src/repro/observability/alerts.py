"""Declarative alert rules over :class:`~repro.observability.timeseries.MetricStore` derivations.

A rule is one condition — a derivation over one metric compared against
a threshold — plus the operational policy around it: how long the
condition must hold before the alert fires (``for``), where it must
fall back to before the alert resolves (``resolve`` hysteresis), its
severity, and free-form labels.  Rules load from TOML (Python >= 3.11)
or JSON files, or from the built-in :func:`default_rules` pack.

Condition grammar (one derivation, one comparison)::

    <fn>(<metric>[<window>]) <op> <number>     # windowed derivation
    value(<metric>) <op> <number>              # latest sample
    age(<metric>) <op> <number>                # seconds since last sample
    <metric> <op> <number>                     # shorthand for value()

``fn`` is any :data:`~repro.observability.timeseries.DERIVATIONS`
member; ``metric`` is a sample name, optionally labelled the Prometheus
way; ``window`` is a duration like ``90s`` / ``5m``; ``op`` is one of
``> >= < <= == !=``.

>>> cond = parse_condition('max(qf_drift_z[120s]) >= 4')
>>> cond.fn, cond.metric, cond.window, cond.op, cond.threshold
('max', 'qf_drift_z', 120.0, '>=', 4.0)

The per-rule state machine is **inactive → pending → firing →
resolved → inactive**, advanced on every evaluation tick:

* inactive → pending when the condition first holds (straight to
  firing when ``for`` is zero);
* pending → firing once the condition has held for ``for`` seconds —
  a tick where it fails (or the metric is missing) drops back to
  inactive, so a flapping signal never fires;
* firing → resolved only once the value recovers past the ``resolve``
  threshold (hysteresis — values between ``resolve`` and the trigger
  threshold keep the alert firing);
* resolved → inactive on the next tick (or straight back to
  pending/firing if the condition returns).

Pending can never skip to resolved, and firing never drops straight to
inactive — ``tests/properties/test_alert_state.py`` pins both under
irregular scrape intervals.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - version-dependent
    tomllib = None

from repro.common.errors import ParameterError
from repro.observability.health import (
    HealthReport,
    HealthSignal,
    verdict_rank,
    worst_verdict,
)
from repro.observability.registry import SPEC_INDEX, MetricSpec, sample_name
from repro.observability.timeseries import (
    DERIVATIONS,
    POINT_DERIVATIONS,
    MetricStore,
)

#: Alert lifecycle states, in escalation order.
STATES = ("inactive", "pending", "firing", "resolved")

#: Numeric encoding used by the ``qf_alert_state`` gauge.
STATE_VALUES = {"inactive": 0.0, "pending": 1.0, "firing": 2.0,
                "resolved": 3.0}

#: Recognised severities and the health verdict a firing rule maps to.
SEVERITIES = ("warning", "critical")
_SEVERITY_VERDICT = {"warning": "degraded", "critical": "critical"}

ALERT_METRIC_HELP = {
    "qf_alert_state":
        "Alert lifecycle state per rule "
        "(0 inactive, 1 pending, 2 firing, 3 resolved).",
    "qf_alerts_fired_total": "Times each rule entered the firing state.",
    "qf_alerts_firing": "Rules currently firing.",
}

for _name, _help in ALERT_METRIC_HELP.items():
    _kind = "counter" if _name.endswith("_total") else "gauge"
    SPEC_INDEX.setdefault(
        _name,
        MetricSpec(name=_name, kind=_kind, help=_help,
                   agg="sum" if _kind == "counter" else "max"),
    )
del _name, _help, _kind

_DURATION_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}

_DURATION_RE = re.compile(r"^\s*([\d.]+)\s*(ms|s|m|h)?\s*$")

_CONDITION_RE = re.compile(
    r"""^\s*
    (?:(?P<fn>[a-z][a-z0-9]*)\s*\(\s*)?                 # optional fn(
    (?P<metric>[A-Za-z_:][A-Za-z0-9_:]*(?:\{[^}]*\})?)  # metric{labels}
    (?:\[\s*(?P<window>[^\]]+?)\s*\])?                  # [window]
    (?P<close>\s*\))?                                   # closing paren
    \s*(?P<op>>=|<=|==|!=|>|<)\s*
    (?P<threshold>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
    \s*$""",
    re.VERBOSE,
)

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    "==": lambda v, t: v == t,
    "!=": lambda v, t: v != t,
}


def parse_duration(text) -> float:
    """Seconds from ``"45s"`` / ``"2m"`` / ``"500ms"`` / a bare number."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        value = float(text)
        if value < 0:
            raise ParameterError(f"duration must be >= 0, got {value}")
        return value
    match = _DURATION_RE.match(str(text))
    if match is None:
        raise ParameterError(
            f"cannot parse duration {text!r} (expected e.g. '45s', '2m')"
        )
    return float(match.group(1)) * _DURATION_UNITS[match.group(2) or "s"]


@dataclass(frozen=True)
class Condition:
    """One parsed rule condition: ``fn(metric[window]) op threshold``."""

    fn: str
    metric: str
    window: Optional[float]
    op: str
    threshold: float

    def holds(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


def parse_condition(expr: str) -> Condition:
    """Parse the rule grammar; raises ``ParameterError`` on bad input."""
    match = _CONDITION_RE.match(expr)
    if match is None:
        raise ParameterError(
            f"cannot parse alert expression {expr!r}; expected "
            "'fn(metric[window]) op number' or 'metric op number'"
        )
    fn = match.group("fn")
    if (fn is None) != (match.group("close") is None):
        raise ParameterError(
            f"unbalanced parentheses in alert expression {expr!r}"
        )
    if fn is None:
        fn = "value"
    if fn not in DERIVATIONS:
        raise ParameterError(
            f"unknown derivation {fn!r} in {expr!r}; "
            f"choose from {DERIVATIONS}"
        )
    window_text = match.group("window")
    window = None if window_text is None else parse_duration(window_text)
    if fn in POINT_DERIVATIONS:
        if window is not None:
            raise ParameterError(
                f"derivation {fn!r} takes no window (in {expr!r})"
            )
    elif window is None or window <= 0:
        raise ParameterError(
            f"derivation {fn!r} needs a [window] > 0 (in {expr!r})"
        )
    return Condition(
        fn=fn,
        metric=match.group("metric"),
        window=window,
        op=match.group("op"),
        threshold=float(match.group("threshold")),
    )


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule: a condition plus its alerting policy."""

    name: str
    expr: str
    for_seconds: float = 0.0
    resolve: Optional[float] = None
    severity: str = "warning"
    labels: Mapping[str, str] = field(default_factory=dict)
    description: str = ""
    response: str = ""
    condition: Condition = None  # type: ignore[assignment]

    def __post_init__(self):
        if not re.match(r"^[A-Za-z][A-Za-z0-9_.-]*$", self.name or ""):
            raise ParameterError(
                f"invalid rule name {self.name!r}; use letters, digits, "
                "'_', '-' and '.'"
            )
        if self.severity not in SEVERITIES:
            raise ParameterError(
                f"rule {self.name!r}: severity must be one of "
                f"{SEVERITIES}, got {self.severity!r}"
            )
        if self.for_seconds < 0:
            raise ParameterError(
                f"rule {self.name!r}: for_seconds must be >= 0"
            )
        if self.condition is None:
            object.__setattr__(self, "condition", parse_condition(self.expr))
        cond = self.condition
        if self.resolve is not None:
            if cond.op in (">", ">=") and self.resolve > cond.threshold:
                raise ParameterError(
                    f"rule {self.name!r}: resolve ({self.resolve}) must "
                    f"not exceed the trigger threshold ({cond.threshold}) "
                    f"for op {cond.op!r}"
                )
            if cond.op in ("<", "<=") and self.resolve < cond.threshold:
                raise ParameterError(
                    f"rule {self.name!r}: resolve ({self.resolve}) must "
                    f"not undercut the trigger threshold "
                    f"({cond.threshold}) for op {cond.op!r}"
                )
            if cond.op in ("==", "!="):
                raise ParameterError(
                    f"rule {self.name!r}: resolve hysteresis is not "
                    f"meaningful for op {cond.op!r}"
                )
        object.__setattr__(self, "labels", dict(self.labels))

    # -- condition helpers --------------------------------------------
    def holds(self, value: float) -> bool:
        """Does ``value`` satisfy the trigger condition?"""
        return self.condition.holds(value)

    def recovers(self, value: float) -> bool:
        """Has ``value`` crossed back past the resolve threshold?"""
        cond = self.condition
        resolve = self.resolve if self.resolve is not None else cond.threshold
        if cond.op in (">", ">="):
            return value <= resolve
        if cond.op in ("<", "<="):
            return value >= resolve
        return not cond.holds(value)

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "AlertRule":
        """Build a rule from one TOML/JSON table."""
        known = {"name", "expr", "for", "resolve", "severity", "labels",
                 "description", "response"}
        unknown = set(mapping) - known
        if unknown:
            raise ParameterError(
                f"rule {mapping.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}; expected {sorted(known)}"
            )
        for key in ("name", "expr"):
            if key not in mapping:
                raise ParameterError(
                    f"rule table missing required key {key!r}: {mapping!r}"
                )
        labels = mapping.get("labels", {})
        if not isinstance(labels, Mapping):
            raise ParameterError(
                f"rule {mapping['name']!r}: labels must be a table"
            )
        resolve = mapping.get("resolve")
        return cls(
            name=str(mapping["name"]),
            expr=str(mapping["expr"]),
            for_seconds=parse_duration(mapping.get("for", 0.0)),
            resolve=None if resolve is None else float(resolve),
            severity=str(mapping.get("severity", "warning")),
            labels={str(k): str(v) for k, v in labels.items()},
            description=str(mapping.get("description", "")),
            response=str(mapping.get("response", "")),
        )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expr": self.expr,
            "for": self.for_seconds,
            "resolve": self.resolve,
            "severity": self.severity,
            "labels": dict(self.labels),
            "description": self.description,
            "response": self.response,
        }


@dataclass(frozen=True)
class AlertTransition:
    """One state-machine edge taken during an evaluation tick."""

    rule: AlertRule
    old_state: str
    new_state: str
    at: float
    value: Optional[float]

    def __str__(self) -> str:
        value = "n/a" if self.value is None else f"{self.value:.6g}"
        return (
            f"[{self.rule.severity}] {self.rule.name}: "
            f"{self.old_state} -> {self.new_state} (value {value})"
        )


class RuleStatus:
    """Mutable per-rule evaluation state (owned by the engine)."""

    __slots__ = ("state", "since", "pending_since", "firing_since",
                 "last_value", "last_evaluated", "fired_count")

    def __init__(self):
        self.state = "inactive"
        self.since: Optional[float] = None
        self.pending_since: Optional[float] = None
        self.firing_since: Optional[float] = None
        self.last_value: Optional[float] = None
        self.last_evaluated: Optional[float] = None
        self.fired_count = 0

    def as_dict(self, rule: AlertRule, now: Optional[float] = None) -> dict:
        out = {
            "rule": rule.as_dict(),
            "state": self.state,
            "since": self.since,
            "pending_since": self.pending_since,
            "firing_since": self.firing_since,
            "last_value": self.last_value,
            "last_evaluated": self.last_evaluated,
            "fired_count": self.fired_count,
        }
        if now is not None and self.since is not None:
            out["state_age_seconds"] = max(0.0, float(now) - self.since)
        return out


class AlertEngine:
    """Evaluate a rule set against a store on every collection tick.

    A call without an explicit ``now`` reads the store's clock, as the
    dashboard does, so the rules and the history share one timeline.
    Thread-safe: evaluation and every read (states, samples, report)
    share one lock, so a ``/metrics`` scrape racing an evaluation never
    observes a half-advanced state machine.
    """

    def __init__(
        self,
        store: MetricStore,
        rules: Sequence[AlertRule],
    ):
        names = [rule.name for rule in rules]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ParameterError(
                f"duplicate rule names: {sorted(dupes)}"
            )
        self.store = store
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        self._status: Dict[str, RuleStatus] = {
            rule.name: RuleStatus() for rule in self.rules
        }
        self._lock = threading.Lock()
        self.evaluations = 0

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: Optional[float] = None) -> List[AlertTransition]:
        """Advance every rule one tick; returns the edges taken."""
        if now is None:
            now = self.store.clock()
        now = float(now)
        transitions: List[AlertTransition] = []
        with self._lock:
            self.evaluations += 1
            for rule in self.rules:
                status = self._status[rule.name]
                cond = rule.condition
                value = self.store.derive(
                    cond.fn, cond.metric, window=cond.window, now=now
                )
                new_state = self._advance(rule, status, value, now)
                status.last_value = value
                status.last_evaluated = now
                if new_state is not None and new_state != status.state:
                    transitions.append(AlertTransition(
                        rule=rule,
                        old_state=status.state,
                        new_state=new_state,
                        at=now,
                        value=value,
                    ))
                    if new_state == "firing":
                        status.fired_count += 1
                        status.firing_since = now
                    status.state = new_state
                    status.since = now
        return transitions

    @staticmethod
    def _advance(
        rule: AlertRule,
        status: RuleStatus,
        value: Optional[float],
        now: float,
    ) -> Optional[str]:
        """The state machine documented in the module docstring."""
        holds = value is not None and rule.holds(value)
        state = status.state
        if state in ("inactive", "resolved"):
            if holds:
                status.pending_since = now
                if rule.for_seconds <= 0:
                    return "firing"
                return "pending"
            if state == "resolved":
                return "inactive"
            return None
        if state == "pending":
            if not holds:
                # A failed (or missing) tick restarts the clock: `for`
                # means *continuously* true across evaluations.
                return "inactive"
            if now - status.pending_since >= rule.for_seconds:
                return "firing"
            return None
        # firing: only a recovery past the resolve threshold ends it —
        # missing data or values inside the hysteresis band hold it.
        if value is not None and rule.recovers(value):
            return "resolved"
        return None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def states(self) -> Dict[str, str]:
        """``{rule name: state}`` for every rule."""
        with self._lock:
            return {
                name: status.state for name, status in self._status.items()
            }

    def firing(self) -> List[AlertRule]:
        """Rules currently firing, in declaration order."""
        with self._lock:
            return [
                rule for rule in self.rules
                if self._status[rule.name].state == "firing"
            ]

    def samples(self) -> Dict[str, float]:
        """Registry-snapshot-shaped alert telemetry for ``/metrics``."""
        out: Dict[str, float] = {}
        firing = 0
        with self._lock:
            for rule in self.rules:
                status = self._status[rule.name]
                labels = {"rule": rule.name, "severity": rule.severity}
                out[sample_name("qf_alert_state", labels)] = (
                    STATE_VALUES[status.state]
                )
                out[sample_name("qf_alerts_fired_total",
                                {"rule": rule.name})] = (
                    float(status.fired_count)
                )
                if status.state == "firing":
                    firing += 1
        out["qf_alerts_firing"] = float(firing)
        return out

    def verdict(self) -> str:
        """The health verdict: the worst severity among firing rules
        (``warning`` reads ``degraded``), ``ok`` when none fires."""
        return worst_verdict(
            _SEVERITY_VERDICT[rule.severity] for rule in self.firing()
        )

    def report(
        self,
        signals: Optional[Mapping[str, float]] = None,
        now: Optional[float] = None,
    ) -> HealthReport:
        """The rule verdict as a health report (the ``/healthz`` body).

        ``signals`` maps health signal names to their latest values;
        each becomes an ok signal unless a firing rule carries it in
        its ``signal`` label, in which case it takes the worst such
        rule's verdict and names the rule in its reason.  A firing rule
        without a ``signal`` label is listed as ``alert:<rule>``.
        """
        if now is None:
            now = self.store.clock()
        chosen: Dict[str, HealthSignal] = {
            name: HealthSignal(name, "ok", float(value), "no rule firing")
            for name, value in (signals or {}).items()
        }
        with self._lock:
            for rule in self.rules:
                status = self._status[rule.name]
                name = rule.labels.get("signal", f"alert:{rule.name}")
                verdict = _SEVERITY_VERDICT[rule.severity]
                current = chosen.get(name)
                if status.state != "firing" or current is not None and (
                    verdict_rank(current.verdict) >= verdict_rank(verdict)
                ):
                    continue
                held = max(0.0, float(now) - status.firing_since)
                # Missing data holds a rule firing with no value.
                value = status.last_value
                value_text = "n/a" if value is None else f"{value:.6g}"
                chosen[name] = HealthSignal(
                    name, verdict, 0.0 if value is None else float(value),
                    f"rule {rule.name} firing for {held:.0f}s: {rule.expr} "
                    f"(value {value_text}) — {rule.description}",
                )
        signals_out = tuple(chosen.values())
        return HealthReport(
            verdict=worst_verdict(s.verdict for s in signals_out),
            signals=signals_out,
        )

    def as_dict(self, now: Optional[float] = None) -> dict:
        """The ``/alerts`` JSON payload."""
        if now is None:
            now = self.store.clock()
        with self._lock:
            alerts = [
                self._status[rule.name].as_dict(rule, now=now)
                for rule in self.rules
            ]
        firing = [a["rule"]["name"] for a in alerts if a["state"] == "firing"]
        return {
            "evaluated_at": float(now),
            "rules": len(alerts),
            "firing": firing,
            "alerts": alerts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = self.states()
        firing = sum(1 for s in states.values() if s == "firing")
        return f"AlertEngine({len(self.rules)} rules, {firing} firing)"


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def parse_rules(tables: Sequence[Mapping]) -> List[AlertRule]:
    """Build rules from a sequence of rule tables."""
    rules = [AlertRule.from_mapping(t) for t in tables]
    names = [r.name for r in rules]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ParameterError(f"duplicate rule names: {sorted(dupes)}")
    return rules


def load_rules(path) -> List[AlertRule]:
    """Load a rule pack from a ``.toml`` or ``.json`` file.

    Both formats share one shape: a top-level ``rule`` array of tables
    (``[[rule]]`` in TOML, ``{"rule": [...]}`` in JSON).  TOML needs
    Python >= 3.11 (stdlib ``tomllib``); on older interpreters ship the
    JSON twin instead.
    """
    path = Path(path)
    if path.suffix == ".toml":
        if tomllib is None:
            raise ParameterError(
                "TOML rule packs need Python >= 3.11 (stdlib tomllib); "
                f"convert {path.name} to JSON for older interpreters"
            )
        with open(path, "rb") as fh:
            payload = tomllib.load(fh)
    elif path.suffix == ".json":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        raise ParameterError(
            f"unsupported rule pack format {path.suffix!r} "
            "(expected .toml or .json)"
        )
    tables = payload.get("rule")
    if not isinstance(tables, list) or not tables:
        raise ParameterError(
            f"rule pack {path} has no [[rule]] tables"
        )
    return parse_rules(tables)


def default_rules() -> List[AlertRule]:
    """The shipped default pack, parsed from :data:`DEFAULT_RULE_TABLES`.

    ``repro alerts list --format json`` prints it as a loadable
    ``{"rule": [...]}`` pack to start a custom one from.
    """
    return parse_rules(DEFAULT_RULE_TABLES)


def _signal_rule(name, signal, expr, severity, description, response):
    """One health-signal rule: no ``for`` hold and no ``resolve`` band,
    so the verdict follows the signal tick by tick."""
    return {
        "name": name,
        "expr": expr,
        "severity": severity,
        "labels": {"signal": signal},
        "description": description,
        "response": response,
    }


#: The default pack as plain tables: one rule per health signal and
#: severity (the only place a health signal meets its threshold), plus
#: the observability pipeline's own rules.
DEFAULT_RULE_TABLES: Tuple[Mapping, ...] = (
    _signal_rule(
        "candidate-occupancy", "candidate_occupancy",
        "qf_health_candidate_occupancy > 0.98", "warning",
        "The candidate part is packed solid: new keys only enter by "
        "eviction.",
        "Raise num_buckets (or memory_bytes); confirm with "
        "qf.candidate_hit_rate().",
    ),
    _signal_rule(
        "candidate-churn", "candidate_churn",
        "qf_health_candidate_churn > 0.2", "warning",
        "Buckets thrash between keys of similar weight: bucket minimums "
        "keep losing.",
        "Raise num_buckets or bucket_size; check for adversarial key "
        "skew upstream.",
    ),
    _signal_rule(
        "vague-pressure", "vague_pressure",
        "qf_health_vague_pressure > 0.1", "warning",
        "Over 10% of inserts overflow into the vague sketch: collision "
        "noise is in play.",
        "Usually benign while churn is low; otherwise grow the candidate "
        "part.",
    ),
    _signal_rule(
        "vague-saturation-warning", "vague_saturation",
        "qf_health_vague_saturation >= 0.05", "warning",
        "Vague counters are starting to clamp: Qweights bias low.",
        "Widen counter_kind, shorten the window, or grow vague_width.",
    ),
    _signal_rule(
        "vague-saturation", "vague_saturation",
        "qf_health_vague_saturation >= 0.25", "critical",
        "A quarter of the vague counters are pinned at their clamp "
        "value: accuracy near T is no longer trustworthy.",
        "Grow memory_bytes (wider vague sketch) or reset the filter; "
        "confirm the gauge recovered after restart.",
    ),
    _signal_rule(
        "fingerprint-collision", "fingerprint_collision",
        "qf_health_fingerprint_collision > 0.01", "warning",
        "Distinct keys alias in the candidate part and merge Qweights.",
        "Raise fp_bits or grow the candidate part; treat recent reports "
        "as suspect.",
    ),
    _signal_rule(
        "vague-noise-warning", "vague_noise",
        "qf_health_vague_noise >= 0.5", "warning",
        "Vague-part noise is half the report threshold: accuracy is "
        "eroding.",
        "Grow vague_width.",
    ),
    _signal_rule(
        "vague-noise", "vague_noise",
        "qf_health_vague_noise >= 1", "critical",
        "Vague-part noise exceeds the report threshold: vague-part "
        "reports are coin flips.",
        "Grow vague_width; distrust reports near T until it recovers.",
    ),
    _signal_rule(
        "report-rate", "report_rate",
        "qf_health_report_rate > 0.05", "warning",
        "Over 5% of the items since the last tick triggered reports: T "
        "likely sits below normal traffic.",
        "Attach the adaptive threshold controller or re-calibrate the "
        "criteria; check for a hot-key burst first.",
    ),
    _signal_rule(
        "exceedance-drift", "exceedance_drift",
        "qf_health_exceedance_drift >= 4", "warning",
        "The share of values above T moved (z >= 4, shift >= 1 point): "
        "the criteria were calibrated for another distribution.",
        "Decide drift vs incident; let the controller retarget T, or "
        "retarget() by hand.",
    ),
    _signal_rule(
        "shadow-accuracy", "shadow_accuracy",
        "qf_health_shadow_accuracy < 0.9", "warning",
        "Shadow precision or recall fell below 0.9 on the sampled exact "
        "slice: the structure is undersized for this stream.",
        "Check the saturation and noise rules first; grow memory if they "
        "are quiet.",
    ),
    _signal_rule(
        "worker-death", "workers_alive",
        "qf_health_workers_missing > 0", "critical",
        "A shard worker process died; the next feed() or finish() "
        "raises.",
        "Check the worker stderr and, if the worker raised, the "
        "traceback WorkerFailedError carries; restart the pipeline — "
        "shard state is lost.",
    ),
    {
        "name": "ring-buffer-drops",
        "expr": "delta(tracer_dropped_events_total[300s]) > 0",
        "resolve": 0.0,
        "severity": "warning",
        "labels": {"subsystem": "observability"},
        "description":
            "The tracer ring dropped events: traces now undercount.",
        "response":
            "Raise the tracer ring capacity or lower the sampling "
            "rate; drops mean flamegraphs lie about the hot path.",
    },
    {
        "name": "scrape-staleness",
        "expr": "age(qf_items_total) > 30",
        "resolve": 10.0,
        "severity": "warning",
        "labels": {"subsystem": "observability"},
        "description":
            "No fresh qf_items_total sample in over 30s: the collector "
            "stopped scraping or the feed stalled.",
        "response":
            "Check the serve loop / collector thread is alive; a "
            "stalled feed also freezes every other alert's input.",
    },
)
