"""Alert grammar, rule loading, engine state machine, exports."""

import json

import pytest

from repro.common.errors import ParameterError
from repro.observability.alerts import (
    DEFAULT_RULE_TABLES,
    SEVERITIES,
    STATE_VALUES,
    STATES,
    AlertEngine,
    AlertRule,
    default_rules,
    load_rules,
    parse_condition,
    parse_duration,
    parse_rules,
)
from repro.observability.health import SIGNAL_FAMILIES
from repro.observability.timeseries import MetricStore


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [("90", 90.0), (15, 15.0), ("500ms", 0.5), ("45s", 45.0),
         ("2m", 120.0), ("1.5h", 5400.0), ("0", 0.0)],
    )
    def test_parse_duration(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["-5", "5x", "", "s", "4 minutes"])
    def test_parse_duration_rejects(self, text):
        with pytest.raises(ParameterError):
            parse_duration(text)

    def test_window_condition(self):
        cond = parse_condition("max(qf_drift_z[120s]) >= 4")
        assert cond.fn == "max"
        assert cond.metric == "qf_drift_z"
        assert cond.window == 120.0
        assert cond.op == ">="
        assert cond.threshold == 4.0
        assert cond.holds(4.0) and not cond.holds(3.9)

    def test_labelled_metric_condition(self):
        cond = parse_condition(
            'mean(qf_alert_state{rule="worker-death"}[60s]) >= 1'
        )
        assert cond.metric == 'qf_alert_state{rule="worker-death"}'

    def test_point_condition_and_implicit_value(self):
        assert parse_condition("age(qf_items_total) > 30").fn == "age"
        implicit = parse_condition("qf_vague_saturation >= 0.25")
        assert implicit.fn == "value"
        assert implicit.window is None

    @pytest.mark.parametrize(
        "expr",
        [
            "frobnicate(m[60s]) > 1",       # unknown derivation
            "rate(m) > 1",                  # window derivation, no window
            "value(m[60s]) > 1",            # point derivation with window
            "max(m[60s]) >> 1",             # bad operator
            "max(m[60s])",                  # no comparison
            "max(m[60s] > 1",               # unbalanced paren
            "max(m[-5s]) > 1",              # negative window
            "",
        ],
    )
    def test_bad_expressions_rejected(self, expr):
        with pytest.raises(ParameterError):
            parse_condition(expr)

    @pytest.mark.parametrize("op,holds,not_holds", [
        (">", 2.0, 1.0), (">=", 1.0, 0.9), ("<", 0.5, 1.0),
        ("<=", 1.0, 1.1), ("==", 1.0, 2.0), ("!=", 2.0, 1.0),
    ])
    def test_every_operator(self, op, holds, not_holds):
        cond = parse_condition(f"value(m) {op} 1")
        assert cond.holds(holds)
        assert not cond.holds(not_holds)


class TestAlertRule:
    def test_from_mapping_round_trips(self):
        rule = AlertRule.from_mapping({
            "name": "r1", "expr": "max(m[60s]) > 5", "for": "30s",
            "resolve": 2.0, "severity": "critical",
            "labels": {"team": "stream"}, "description": "d",
            "response": "do the thing",
        })
        assert rule.for_seconds == 30.0
        assert rule.severity == "critical"
        again = AlertRule.from_mapping(rule.as_dict() | {"for": "30s"})
        assert again.as_dict() == rule.as_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError):
            AlertRule.from_mapping(
                {"name": "r", "expr": "value(m) > 1", "bogus": 1}
            )

    def test_bad_names_and_severities_rejected(self):
        with pytest.raises(ParameterError):
            AlertRule(name="1bad", expr="value(m) > 1")
        with pytest.raises(ParameterError):
            AlertRule(name="r", expr="value(m) > 1", severity="panic")

    def test_resolve_direction_must_oppose_threshold(self):
        with pytest.raises(ParameterError):
            AlertRule(name="r", expr="value(m) > 5", resolve=9.0)
        with pytest.raises(ParameterError):
            AlertRule(name="r", expr="value(m) < 5", resolve=1.0)

    def test_recovers_hysteresis(self):
        rule = AlertRule(name="r", expr="value(m) > 5", resolve=2.0)
        assert not rule.recovers(3.0)  # below threshold, above resolve
        assert rule.recovers(2.0)

    def test_duplicate_names_rejected(self):
        tables = [
            {"name": "same", "expr": "value(m) > 1"},
            {"name": "same", "expr": "value(m) > 2"},
        ]
        with pytest.raises(ParameterError):
            parse_rules(tables)


class TestRulePacks:
    def test_default_pack_covers_required_scenarios(self):
        rules = default_rules()
        names = {rule.name for rule in rules}
        assert {
            "exceedance-drift", "worker-death", "vague-saturation",
            "ring-buffer-drops", "scrape-staleness",
        } <= names
        for rule in rules:
            assert rule.severity in SEVERITIES
            assert rule.description
            assert rule.response
        # One rule per health signal and severity, reading the signal's
        # gauge with no `for` hold and no `resolve` band.
        signal_rules = [r for r in rules if "signal" in r.labels]
        keys = {(r.labels["signal"], r.severity) for r in signal_rules}
        assert len(keys) == len(signal_rules) == 12 and len(rules) == 14
        assert {signal for signal, _ in keys} == set(SIGNAL_FAMILIES)
        for rule in signal_rules:
            assert (rule.condition.fn, rule.condition.metric) == (
                "value", SIGNAL_FAMILIES[rule.labels["signal"]]
            )
            assert rule.for_seconds == 0 and rule.resolve is None

    def test_user_packs_load_from_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        pack = tmp_path / "pack.toml"
        pack.write_text('[[rule]]\nname = "r"\nexpr = "m > 5"\nfor = "30s"\n')
        assert load_rules(pack) == parse_rules(
            [{"name": "r", "expr": "m > 5", "for": 30.0}]
        )

    def test_tables_parse_standalone(self):
        assert len(parse_rules(DEFAULT_RULE_TABLES)) == len(
            DEFAULT_RULE_TABLES
        )

    def test_load_rules_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text("rule: []")
        with pytest.raises(ParameterError):
            load_rules(path)

    def test_load_rules_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": []}))  # wrong key
        with pytest.raises(ParameterError):
            load_rules(path)


def engine_with(rule_kwargs, clock_value=0.0):
    now = {"t": clock_value}
    store = MetricStore(clock=lambda: now["t"])
    rule = AlertRule(**rule_kwargs)
    engine = AlertEngine(store, [rule])
    return store, engine, rule, now


class TestEngine:
    def test_immediate_firing_without_for(self):
        store, engine, rule, _ = engine_with(
            dict(name="r", expr="value(m) > 5", resolve=2.0)
        )
        store.collect({"m": 9.0}, now=0.0)
        (transition,) = engine.evaluate(now=0.0)
        assert (transition.old_state, transition.new_state) == (
            "inactive", "firing"
        )
        assert engine.states()["r"] == "firing"

    def test_pending_until_for_elapses(self):
        store, engine, rule, _ = engine_with(
            dict(name="r", expr="value(m) > 5", for_seconds=20.0,
                 resolve=2.0)
        )
        store.collect({"m": 9.0}, now=0.0)
        engine.evaluate(now=0.0)
        assert engine.states()["r"] == "pending"
        store.collect({"m": 9.0}, now=10.0)
        engine.evaluate(now=10.0)
        assert engine.states()["r"] == "pending"
        store.collect({"m": 9.0}, now=20.0)
        engine.evaluate(now=20.0)
        assert engine.states()["r"] == "firing"

    def test_pending_resets_on_recovery(self):
        store, engine, rule, _ = engine_with(
            dict(name="r", expr="value(m) > 5", for_seconds=20.0)
        )
        store.collect({"m": 9.0}, now=0.0)
        engine.evaluate(now=0.0)
        store.collect({"m": 1.0}, now=10.0)
        engine.evaluate(now=10.0)
        assert engine.states()["r"] == "inactive"
        # A fresh breach restarts the for: window from scratch.
        store.collect({"m": 9.0}, now=15.0)
        engine.evaluate(now=15.0)
        store.collect({"m": 9.0}, now=30.0)
        engine.evaluate(now=30.0)
        assert engine.states()["r"] == "pending"

    def test_hysteresis_holds_firing_between_threshold_and_resolve(self):
        store, engine, rule, _ = engine_with(
            dict(name="r", expr="value(m) > 5", resolve=2.0)
        )
        store.collect({"m": 9.0}, now=0.0)
        engine.evaluate(now=0.0)
        # Recovered below the threshold but not past resolve: still firing.
        store.collect({"m": 3.0}, now=1.0)
        assert engine.evaluate(now=1.0) == []
        assert engine.states()["r"] == "firing"
        store.collect({"m": 1.0}, now=2.0)
        (transition,) = engine.evaluate(now=2.0)
        assert transition.new_state == "resolved"
        # resolved relaxes to inactive on the next tick.
        store.collect({"m": 1.0}, now=3.0)
        engine.evaluate(now=3.0)
        assert engine.states()["r"] == "inactive"

    def test_missing_data_holds_firing(self):
        store, engine, rule, _ = engine_with(
            dict(name="r", expr="max(m[10s]) > 5", resolve=2.0)
        )
        store.collect({"m": 9.0}, now=0.0)
        engine.evaluate(now=0.0)
        assert engine.states()["r"] == "firing"
        # Far in the future the window is empty: state is held, not
        # silently resolved.
        engine.evaluate(now=1000.0)
        assert engine.states()["r"] == "firing"

    def test_fired_count_and_samples(self):
        store, engine, rule, _ = engine_with(
            dict(name="r", expr="value(m) > 5", resolve=2.0,
                 severity="critical")
        )
        for tick, value in enumerate([9.0, 1.0, 1.0, 9.0]):
            store.collect({"m": value}, now=float(tick))
            engine.evaluate(now=float(tick))
        samples = engine.samples()
        assert samples['qf_alerts_fired_total{rule="r"}'] == 2.0
        assert samples[
            'qf_alert_state{rule="r",severity="critical"}'
        ] == float(STATE_VALUES["firing"])
        assert samples["qf_alerts_firing"] == 1.0
        assert [r.name for r in engine.firing()] == ["r"]
        assert engine.verdict() == "critical"

    def test_report_names_firing_rule(self):
        store, engine, rule, _ = engine_with(
            dict(name="r", expr="value(m) > 5", resolve=2.0,
                 severity="critical")
        )
        store.collect({"m": 9.0}, now=0.0)
        engine.evaluate(now=0.0)
        report = engine.report(now=0.0)
        assert report.verdict == "critical"
        assert any("rule r firing" in reason for reason in report.reasons)
        payload = engine.as_dict(now=0.0)
        assert payload["firing"] == ["r"]
        assert payload["rules"] == 1
        assert payload["alerts"][0]["state"] == "firing"

    def test_report_folds_firing_rules_into_their_signals(self):
        store = MetricStore(clock=lambda: 0.0)
        engine = AlertEngine(store, [
            AlertRule(name="sat-warning", expr="s >= 0.05",
                      labels={"signal": "vague_saturation"}),
            AlertRule(name="sat", expr="s >= 0.25", severity="critical",
                      labels={"signal": "vague_saturation"}),
            AlertRule(name="unlabelled", expr="f > 1"),
        ])
        store.collect({"s": 0.3, "f": 2.0}, now=0.0)
        engine.evaluate(now=0.0)
        report = engine.report(
            {"vague_saturation": 0.3, "report_rate": 0.01}, now=0.0
        )
        assert engine.verdict() == report.verdict == "critical"
        saturation = report.signal("vague_saturation")
        assert saturation.verdict == "critical"
        assert "rule sat firing" in saturation.reason
        assert report.signal("report_rate").verdict == "ok"
        assert report.signal("alert:unlabelled").verdict == "degraded"

    def test_states_catalogue(self):
        assert STATES == ("inactive", "pending", "firing", "resolved")
        assert set(STATE_VALUES) == set(STATES)

    def test_duplicate_rules_rejected(self):
        store = MetricStore(clock=lambda: 0.0)
        rule = AlertRule(name="r", expr="value(m) > 5")
        with pytest.raises(ParameterError):
            AlertEngine(store, [rule, rule])
