"""Frame rendering for ``repro top`` (and anything else that wants it).

A :class:`Dashboard` turns the live observability state — a
:class:`~repro.observability.timeseries.MetricStore` for history, an
optional :class:`~repro.observability.alerts.AlertEngine` for rule
states, and the rule verdict report (a serve source's ``report()``) —
into a plain multi-line string.
It owns **no** I/O and **no** ANSI: the CLI pairs it with
:class:`~repro.observability.term.LiveScreen` on a capable terminal
and plain ``print`` everywhere else, so one renderer serves both the
live view and ``repro top --once`` under ``TERM=dumb``.

>>> from repro.observability.timeseries import MetricStore
>>> store = MetricStore(clock=lambda: 9.0)
>>> for tick in range(10):
...     _ = store.collect({"qf_items_total": tick * 1000.0,
...                        "qf_threshold": 300.0}, now=float(tick))
>>> dash = Dashboard(store, title="demo", ascii_only=True)
>>> frame = dash.render(now=9.0)
>>> "demo" in frame and "T=300" in frame
True
>>> "items" in frame
True
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.observability.term import (
    format_duration,
    format_quantity,
    sparkline,
)
from repro.observability.timeseries import MetricStore

#: Trailing window the sparklines and rate figures summarise.
DEFAULT_WINDOW_SECONDS = 120.0

#: Frame width the header and its rule are cut to, and the sparkline
#: width (in cells).
_WIDTH = 78
_SPARK_WIDTH = 32

#: Signal gauges surfaced on the one-line signal strip, in order.
_SIGNAL_STRIP = (
    ("qf_drift_z", "drift z"),
    ("qf_vague_saturation", "vague sat"),
    ("qf_candidate_occupancy", "occupancy"),
    ("qf_shadow_precision", "shadow prec"),
)


def rate_series(
    store: MetricStore,
    metric: str,
    window: float,
    now: Optional[float] = None,
) -> List[float]:
    """Per-interval rates of a counter over the trailing window.

    One value per adjacent sample pair (``Δvalue/Δt``); negative
    increments (counter resets) clamp to zero, zero-width intervals
    are dropped.
    """
    ts, vs = store.window(metric, window, now=now)
    if ts.size < 2:
        return []
    dt = np.diff(ts)
    dv = np.clip(np.diff(vs), 0.0, None)
    keep = dt > 0
    return (dv[keep] / dt[keep]).tolist()


class Dashboard:
    """Render the operator view as one newline-joined frame."""

    def __init__(
        self,
        store: MetricStore,
        engine=None,
        title: str = "repro top",
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        ascii_only: bool = False,
    ):
        self.store = store
        self.engine = engine
        self.title = title
        self.window_seconds = float(window_seconds)
        self.ascii_only = bool(ascii_only)
        self.ticks = 0

    # ------------------------------------------------------------------
    def render(self, report=None, now: Optional[float] = None,
               status: str = "") -> str:
        """One frame from the current store/engine/report state."""
        if now is None:
            now = self.store.clock()
        now = float(now)
        self.ticks += 1
        value = self.store.derive
        lines: List[str] = []

        clock_text = _clock_text(now)
        header = f"{self.title} · tick {self.ticks} · {clock_text}"
        if status:
            header += f" · {status}"
        lines.append(header[:_WIDTH])
        lines.append("-" * min(_WIDTH, len(header)))

        verdict = report.verdict if report is not None else "unknown"
        threshold = value("value", "qf_threshold")
        t_text = "n/a" if threshold is None else f"{threshold:g}"
        items = value("value", "qf_items_total") or 0.0
        reports = value("value", "qf_reports_total") or 0.0
        lines.append(
            f"verdict: {verdict:<9} T={t_text:<10} "
            f"items {format_quantity(items):<8} "
            f"reports {format_quantity(reports)}"
        )

        for metric, label, unit in (
            ("qf_items_total", "throughput", "items/s"),
            ("qf_reports_total", "reports", "reports/s"),
        ):
            rates = rate_series(
                self.store, metric, self.window_seconds, now=now
            )
            spark = sparkline(
                rates, width=_SPARK_WIDTH, ascii_only=self.ascii_only
            )
            current = rates[-1] if rates else 0.0
            lines.append(
                f"{label:<11} {spark:<{_SPARK_WIDTH}} "
                f"{format_quantity(current)} {unit}"
            )

        strip = []
        for metric, label in _SIGNAL_STRIP:
            v = value("value", metric)
            if v is not None:
                strip.append(f"{label} {v:.3g}")
        if strip:
            lines.append("signals: " + " · ".join(strip))

        lines.extend(self._alert_lines(now))
        lines.extend(_reason_lines(report))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _alert_lines(self, now: float) -> List[str]:
        if self.engine is None:
            return []
        payload = self.engine.as_dict(now=now)
        states = [a["state"] for a in payload["alerts"]]
        firing = states.count("firing")
        pending = states.count("pending")
        lines = [
            f"alerts ({payload['rules']} rules): "
            f"{firing} firing · {pending} pending"
        ]
        for alert in payload["alerts"]:
            if alert["state"] == "inactive":
                continue
            rule = alert["rule"]
            age = alert.get("state_age_seconds", 0.0)
            last = alert["last_value"]
            value_text = "n/a" if last is None else f"{last:.4g}"
            lines.append(
                f"  [{rule['severity']:>8}] {rule['name']:<22} "
                f"{alert['state']:<8} {format_duration(age):<6} "
                f"value={value_text}"
            )
        return lines


def _clock_text(now: float) -> str:
    """Wall-clock text, or raw seconds for synthetic clocks."""
    if now >= 1e8:  # a real epoch timestamp (post-1973)
        return time.strftime("%H:%M:%S", time.localtime(now))
    return f"t={now:g}s"


def _reason_lines(report) -> List[str]:
    if report is None:
        return []
    reasons = report.reasons
    if not reasons:
        return []
    lines = ["reasons:"]
    lines.extend(f"  - {reason}" for reason in reasons[:6])
    if len(reasons) > 6:
        lines.append(f"  ... and {len(reasons) - 6} more")
    return lines
