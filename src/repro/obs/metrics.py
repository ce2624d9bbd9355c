"""Counters, gauges, and histograms behind one registry.

The run already *produces* plenty of measurements --
:class:`repro.upc.stats.Counters` per phase, tree-build lock statistics,
migration fractions, and per-level frontier sizes inside the standalone
``flat_gravity`` -- but they live in scattered per-layer structures.
The registry is the unification point: :func:`collect_run_metrics` folds a
finished run's :class:`~repro.upc.stats.StatsLog` and variant stats into
named metrics, and :func:`collect_span_metrics` folds a tracer's spans
(wall-clock phase times, per-level traversal profiles) into the same
registry.

Naming follows the Prometheus convention loosely: ``snake_case`` names,
``_total`` suffix on monotonic counters, labels as ``name{k=v}``.  Exact
float reproducibility matters here -- tests assert registry totals equal
``StatsLog.counter_total`` bit-for-bit, so the collectors accumulate in the
same record order the StatsLog uses.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _label_key(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing sum."""

    kind = COUNTER
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, object]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def add(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-written value (e.g. a per-step memory footprint)."""

    kind = GAUGE
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, object]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """count/sum/min/max plus fixed power-of-4 magnitude buckets.

    The default bucket bounds (4^0 .. 4^12) suit the quantities we observe:
    frontier sizes, interaction counts per level, per-step byte counts.
    """

    kind = HISTOGRAM
    __slots__ = ("name", "labels", "count", "sum", "min", "max",
                 "bounds", "bucket_counts")

    DEFAULT_BOUNDS: Tuple[float, ...] = tuple(4.0 ** k for k in range(13))

    def __init__(self, name: str, labels: Dict[str, object],
                 bounds: Optional[Iterable[float]] = None):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = tuple(bounds) if bounds is not None \
            else self.DEFAULT_BOUNDS
        self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        for i, b in enumerate(self.bounds):
            if v <= b:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count, "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Get-or-create registry of named, optionally labeled metrics."""

    def __init__(self) -> None:
        self._metrics: "Dict[str, Counter | Gauge | Histogram]" = {}

    def _get_or_create(self, cls, name: str, labels: Dict[str, object],
                       **kw):
        key = _label_key(name, labels)
        m = self._metrics.get(key)
        if m is None:
            m = cls(name, dict(labels), **kw)
            self._metrics[key] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {key!r} already registered as {m.kind}"
            )
        return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: Optional[Iterable[float]] = None,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels, bounds=bounds)

    # -- read side ------------------------------------------------------- #
    def get(self, name: str, **labels):
        return self._metrics.get(_label_key(name, labels))

    def value(self, name: str, **labels) -> float:
        m = self.get(name, **labels)
        if m is None:
            return 0.0
        if isinstance(m, Histogram):
            return m.sum
        return m.value

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> List[dict]:
        """Stable, JSON-ready dump: one dict per metric, sorted by key."""
        out = []
        for key in sorted(self._metrics):
            m = self._metrics[key]
            d = {"name": m.name, "type": m.kind, "labels": m.labels}
            d.update(m.as_dict())
            out.append(d)
        return out


# ---------------------------------------------------------------------- #
# collectors: fold existing run structures into a registry               #
# ---------------------------------------------------------------------- #
def collect_run_metrics(registry: MetricsRegistry, log,
                        variant_stats: Optional[dict] = None,
                        nthreads: Optional[int] = None) -> MetricsRegistry:
    """Fold a :class:`~repro.upc.stats.StatsLog` (plus variant stats) in.

    Walks records chronologically -- the same order
    ``StatsLog.counter_total`` sums in -- so ``upc_<key>_total`` equals
    ``log.counter_total(key)`` exactly (bit-for-bit float equality), and
    likewise per phase under the ``phase=`` label.
    """
    for rec in log:
        registry.counter("phase_sim_seconds_total", phase=rec.name) \
            .add(rec.duration)
        registry.counter("phase_executions_total", phase=rec.name).add(1)
        registry.histogram("phase_imbalance", phase=rec.name) \
            .observe(rec.imbalance)
        for key in rec.counters.keys():
            val = rec.counters.total(key)
            registry.counter(f"upc_{key}_total").add(val)
            registry.counter(f"upc_{key}_total", phase=rec.name).add(val)
    registry.counter("sim_seconds_total").add(log.total_time())
    registry.gauge("steps").set(len(log.steps()))
    if nthreads is not None:
        registry.gauge("nthreads").set(nthreads)
    if variant_stats:
        for frac in variant_stats.get("migration_fractions", ()):
            registry.histogram("migration_fraction").observe(frac)
        locks = variant_stats.get("treebuild_locks")
        if locks:
            registry.counter("treebuild_lock_acquires_total") \
                .add(locks["acquires"])
            registry.counter("treebuild_lock_contended_total") \
                .add(locks["contended_acquires"])
            registry.counter("treebuild_lock_wait_seconds_total") \
                .add(locks["total_wait"])
        # resilience mediation counts: {counter name: {label: total}}
        # (labels vary by counter -- phase for retries, cause for faults
        # -- folded under one "key")
        for name, by_label in variant_stats.get("resilience", {}).items():
            for label, val in by_label.items():
                labels = {"key": label} if label else {}
                registry.counter(f"resilience_{name}_total",
                                 **labels).add(val)
    return registry


def collect_span_metrics(registry: MetricsRegistry,
                         spans) -> MetricsRegistry:
    """Fold tracer spans in: wall-clock phase/backend times and the
    per-level traversal profile (frontier sizes, accepts, leaf
    interactions) that ``flat_gravity`` attaches to ``traversal`` spans."""
    for sp in spans:
        if sp.cat == "phase":
            registry.counter("phase_wall_seconds_total", phase=sp.name) \
                .add(sp.wall_dur)
        elif sp.cat == "backend":
            registry.counter("backend_call_wall_seconds_total",
                             call=sp.name).add(sp.wall_dur)
            registry.counter("backend_calls_total", call=sp.name).add(1)
        elif sp.cat == "traversal":
            level = sp.args.get("level")
            if level is not None:
                registry.histogram("traversal_level").observe(level)
            for arg, metric in (("frontier", "traversal_frontier_size"),
                                ("accepts", "traversal_level_accepts"),
                                ("leaf_interactions",
                                 "traversal_level_leaf_interactions")):
                v = sp.args.get(arg)
                if v is not None:
                    registry.histogram(metric).observe(v)
            registry.counter("traversal_levels_total").add(1)
        elif sp.cat == "step":
            registry.counter("step_wall_seconds_total").add(sp.wall_dur)
            registry.counter("steps_total").add(1)
        elif sp.cat == "resilience":
            # zero-duration mediation markers (retries, checkpoints)
            # dropped by the resilience layer
            registry.counter("resilience_events_total",
                             event=sp.name).add(1)
    return registry


# ---------------------------------------------------------------------- #
# ambient registry (mirrors trace.use_tracer)                            #
# ---------------------------------------------------------------------- #
_current: Optional[MetricsRegistry] = None


def get_registry() -> Optional[MetricsRegistry]:
    """The ambient registry, or ``None`` when metrics export is off."""
    return _current


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    global _current
    _current = registry


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]):
    """Temporarily install ``registry`` as the ambient sink; finished runs
    (:meth:`repro.core.app.BarnesHutSimulation.run`) fold their metrics
    into it automatically."""
    global _current
    prev = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = prev
