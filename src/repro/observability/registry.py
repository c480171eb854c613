"""Counters, gauges and the :class:`StatsRegistry` they live in.

The registry is deliberately tiny and zero-dependency: a metric is a
name (plus optional Prometheus-style labels), a kind (``counter`` or
``gauge``), and a way to read its current value.  Two read models are
supported:

* **push** — code calls :meth:`Counter.inc` / :meth:`Gauge.set` as
  events happen (the pipeline master counts chunks this way);
* **pull** — a gauge wraps a zero-argument callable evaluated at
  snapshot time (:meth:`StatsRegistry.gauge_fn`), which is how filter
  instrumentation stays off the insert hot path entirely: the filter
  keeps its cheap integer attributes and the registry reads them only
  when someone asks.

Snapshots are plain ``{sample_name: float}`` dicts, safe to ship across
process boundaries (the pipeline workers do exactly that) and to feed to
the exporters in :mod:`repro.observability.exporters`.

>>> reg = StatsRegistry()
>>> inserts = reg.counter("demo_inserts_total", help="items seen")
>>> inserts.inc()
>>> inserts.inc(4)
>>> reg.gauge("demo_queue_depth", help="queued chunks").set(7)
>>> _ = reg.gauge_fn("demo_occupancy", lambda: 0.25, agg="mean")
>>> sorted(reg.snapshot().items())
[('demo_inserts_total', 5.0), ('demo_occupancy', 0.25), ('demo_queue_depth', 7.0)]

Labelled samples render the Prometheus way — the label set is part of
the sample name:

>>> hits = reg.counter("demo_reports_total", labels={"source": "vague"})
>>> hits.inc()
>>> reg.snapshot()['demo_reports_total{source="vague"}']
1.0

Per-shard snapshots aggregate with :func:`aggregate_snapshots`:
counters and summable gauges add up, ``agg="mean"`` gauges average,
``agg="max"`` / ``agg="min"`` gauges take the maximum / minimum:

>>> aggregate_snapshots([{"demo_inserts_total": 3.0, "demo_occupancy": 0.5},
...                      {"demo_inserts_total": 4.0, "demo_occupancy": 0.3}],
...                     specs=reg.specs())["demo_inserts_total"]
7.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.common.errors import ParameterError

#: Recognised metric kinds.
KINDS = ("counter", "gauge", "histogram")

#: Recognised cross-registry aggregation rules.
AGGREGATIONS = ("sum", "mean", "max", "min")

#: Global name -> spec index, so exporters can render HELP/TYPE text for
#: snapshots that travelled as bare dicts (e.g. from worker processes).
#: First registration wins; registries share it deliberately.
SPEC_INDEX: Dict[str, "MetricSpec"] = {}


@dataclass(frozen=True)
class MetricSpec:
    """Static description of one metric family.

    Attributes
    ----------
    name:
        Base metric name, without labels.
    kind:
        ``"counter"`` (monotonic) or ``"gauge"`` (free-moving).
    help:
        One-line human description (Prometheus ``# HELP`` text).
    agg:
        How per-shard samples combine into one aggregate sample:
        ``"sum"`` (default; all counters), ``"mean"`` (ratios such as
        occupancy), ``"max"`` or ``"min"``.
    """

    name: str
    kind: str
    help: str = ""
    agg: str = "sum"


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format.

    Backslash, double-quote and line-feed are the three characters the
    spec requires escaping inside a quoted label value
    (``tests/observability/test_exporters.py`` pins the behaviour).
    """
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _render_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return "{" + inner + "}"


def sample_name(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """Full sample name: base name plus rendered label set.

    >>> sample_name("qf_reports_total", {"source": "candidate"})
    'qf_reports_total{source="candidate"}'
    """
    return name + _render_labels(labels)


def base_name(sample: str) -> str:
    """Strip a sample name back to its metric family name.

    >>> base_name('qf_reports_total{source="candidate"}')
    'qf_reports_total'
    """
    brace = sample.find("{")
    return sample if brace < 0 else sample[:brace]


class Counter:
    """A monotonically increasing count of events.

    Push model by default; pass ``fn`` to pull the count from existing
    state at snapshot time instead (how filter attributes are exposed
    without touching the insert path).

    >>> c = Counter("events_total")
    >>> c.inc(); c.inc(2)
    >>> c.value
    3.0
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if self._fn is not None:
            raise ParameterError(
                f"counter {self.name!r} is callback-backed; it cannot be inc'd"
            )
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self._value += amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """An instantaneous value: set directly or pulled from a callable.

    >>> g = Gauge("depth")
    >>> g.set(3)
    >>> g.value
    3.0
    >>> Gauge("pulled", fn=lambda: 41 + 1).value
    42.0
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        """Overwrite the gauge (push model only)."""
        if self._fn is not None:
            raise ParameterError(
                f"gauge {self.name!r} is callback-backed; it cannot be set"
            )
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


class StatsRegistry:
    """A named collection of counters and gauges with one snapshot view.

    Metric accessors are get-or-create: asking twice for the same
    ``(name, labels)`` returns the same object, so instrumentation
    sites can look metrics up cheaply instead of holding references.
    Asking for an existing name with a different kind raises
    :class:`~repro.common.errors.ParameterError`.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._specs: Dict[str, MetricSpec] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """Get or create the counter ``name`` (with optional labels)."""
        return self._get_or_create(
            name, labels, kind="counter", help=help, agg="sum", fn=None
        )

    def counter_fn(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """Register a pull-model counter evaluated at snapshot time.

        The callable must be monotonic (e.g. a filter's
        ``items_processed`` attribute) — the registry trusts it.
        """
        return self._get_or_create(
            name, labels, kind="counter", help=help, agg="sum", fn=fn
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        agg: str = "sum",
    ) -> Gauge:
        """Get or create the push-model gauge ``name``."""
        return self._get_or_create(
            name, labels, kind="gauge", help=help, agg=agg, fn=None
        )

    def gauge_fn(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        agg: str = "sum",
    ) -> Gauge:
        """Register a pull-model gauge evaluated at snapshot time."""
        return self._get_or_create(
            name, labels, kind="gauge", help=help, agg=agg, fn=fn
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        hist=None,
        **geometry,
    ):
        """Get or create a mergeable log-bucket histogram.

        Returns a :class:`~repro.observability.histogram.Histogram`;
        ``geometry`` kwargs (``min_value`` / ``max_value`` /
        ``buckets_per_decade``) configure its bucket ladder.  In
        snapshots the histogram explodes into cumulative
        ``<name>_bucket{le=...}`` samples plus ``<name>_count`` /
        ``<name>_sum``, all of which aggregate across shards by
        summing.

        ``hist`` wraps an existing
        :class:`~repro.observability.histogram.LogHistogram` instead of
        creating a fresh one — the pull-model analogue of
        :meth:`counter_fn`: the owner keeps recording into its own
        histogram (e.g. a concurrent filter's lock-wait distribution)
        and snapshots read it live.
        """
        from repro.observability.histogram import Histogram, LogHistogram

        if hist is not None and geometry:
            raise ParameterError(
                "pass either hist= (adopt an existing LogHistogram) or "
                "geometry kwargs (build a fresh one), not both"
            )

        full = sample_name(name, labels)
        existing = self._metrics.get(full)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ParameterError(
                    f"metric {full!r} already registered as a "
                    f"{type(existing).__name__.lower()}, not a histogram"
                )
            return existing
        spec = self._specs.get(name)
        if spec is not None and spec.kind != "histogram":
            raise ParameterError(
                f"metric family {name!r} is a {spec.kind}; cannot add a "
                f"histogram sample to it"
            )
        if spec is None:
            spec = MetricSpec(name=name, kind="histogram", help=help, agg="sum")
            self._specs[name] = spec
            SPEC_INDEX.setdefault(name, spec)
        metric = Histogram(
            name,
            hist if hist is not None else LogHistogram(**geometry),
            labels=labels,
        )
        self._metrics[full] = metric
        return metric

    def _get_or_create(self, name, labels, *, kind, help, agg, fn):
        if kind not in KINDS:
            raise ParameterError(f"unknown metric kind {kind!r}; choose from {KINDS}")
        if agg not in AGGREGATIONS:
            raise ParameterError(
                f"unknown aggregation {agg!r}; choose from {AGGREGATIONS}"
            )
        full = sample_name(name, labels)
        existing = self._metrics.get(full)
        if existing is not None:
            expected = Counter if kind == "counter" else Gauge
            if not isinstance(existing, expected):
                raise ParameterError(
                    f"metric {full!r} already registered as a "
                    f"{type(existing).__name__.lower()}, not a {kind}"
                )
            return existing
        spec = self._specs.get(name)
        if spec is not None and spec.kind != kind:
            raise ParameterError(
                f"metric family {name!r} is a {spec.kind}; cannot add a "
                f"{kind} sample to it"
            )
        if spec is None:
            spec = MetricSpec(name=name, kind=kind, help=help, agg=agg)
            self._specs[name] = spec
            SPEC_INDEX.setdefault(name, spec)
        metric = (
            Counter(full, fn=fn) if kind == "counter" else Gauge(full, fn=fn)
        )
        self._metrics[full] = metric
        return metric

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Every sample's current value, as one plain dict.

        Histograms contribute their full Prometheus-style sample
        family (``_bucket``/``_count``/``_sum``) so the snapshot stays
        a flat, process-boundary-safe ``{name: float}`` dict.
        """
        out: Dict[str, float] = {}
        for full, metric in self._metrics.items():
            samples = getattr(metric, "samples", None)
            if samples is not None:
                out.update(samples())
            else:
                out[full] = metric.value
        return out

    def specs(self) -> Dict[str, MetricSpec]:
        """Base-name -> :class:`MetricSpec` for everything registered."""
        return dict(self._specs)

    def names(self) -> List[str]:
        """All sample names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, sample: str) -> bool:
        return sample in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsRegistry({len(self._metrics)} samples)"


def aggregate_snapshots(
    snapshots: Iterable[Mapping[str, float]],
    specs: Optional[Mapping[str, MetricSpec]] = None,
) -> Dict[str, float]:
    """Fold per-shard snapshot dicts into one aggregate snapshot.

    Counters (and ``agg="sum"`` gauges) add; ``agg="mean"`` gauges
    average over the snapshots that carry the sample; ``agg="max"`` and
    ``agg="min"`` gauges take the maximum and minimum.  Unknown samples
    default to summing, the right behaviour for every monotonic count.
    ``specs`` defaults to the process-wide :data:`SPEC_INDEX`.
    """
    snapshots = list(snapshots)
    if specs is None:
        specs = SPEC_INDEX
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    maxima: Dict[str, float] = {}
    minima: Dict[str, float] = {}
    for snap in snapshots:
        for sample, value in snap.items():
            sums[sample] = sums.get(sample, 0.0) + float(value)
            counts[sample] = counts.get(sample, 0) + 1
            if sample not in maxima or value > maxima[sample]:
                maxima[sample] = float(value)
            if sample not in minima or value < minima[sample]:
                minima[sample] = float(value)
    out: Dict[str, float] = {}
    for sample, total in sums.items():
        spec = specs.get(base_name(sample)) or SPEC_INDEX.get(base_name(sample))
        agg = spec.agg if spec is not None else "sum"
        if agg == "mean":
            out[sample] = total / counts[sample]
        elif agg == "max":
            out[sample] = maxima[sample]
        elif agg == "min":
            out[sample] = minima[sample]
        else:
            out[sample] = total
    return out
