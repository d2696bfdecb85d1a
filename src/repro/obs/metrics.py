"""Typed metric primitives and the registry that exports them.

Four metric kinds cover everything the simulator needs to explain a
curve (paper Figures 8-12):

* :class:`Counter` -- monotone event counts (injections, grants, drops);
* :class:`Gauge` -- last-written value with a running max (queue depth);
* :class:`Histogram` -- integer-valued distribution with exact bucket
  counts (latencies, queue occupancy, VC credits), percentile queries
  without storing samples;
* :class:`TimeSeries` -- values accumulated into fixed-width cycle
  buckets (per-stage utilization over time, delivered phits over time).

A :class:`MetricsRegistry` names and owns a set of metrics and exports
them as one plain-JSON dict with **deterministically sorted keys**, so
two identical runs produce byte-identical metric files.  Exports from
independent workers merge with :func:`merge_metrics` (counters add,
gauges keep the max, histogram buckets add, time-series buckets add),
which is how :mod:`repro.exec` aggregates per-worker metrics.

Everything here is pure bookkeeping -- no RNG, no wall clock -- so
attaching metrics can never perturb a simulation result.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "merge_metrics",
]


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def export(self) -> int:
        return self.value


class Gauge:
    """Last-set value plus the maximum ever seen."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def export(self) -> dict:
        return {"last": self.value, "max": self.max}


class Histogram:
    """Exact integer histogram (bucket per observed value).

    The simulator's distributions (queue lengths, credits, latencies in
    cycles) are small integers, so exact buckets are cheaper and more
    faithful than log-spaced approximations.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0

    def observe(self, value: int, weight: int = 1) -> None:
        self.buckets[value] = self.buckets.get(value, 0) + weight
        self.count += weight
        self.total += value * weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, fraction: float) -> float:
        """Value at ``fraction`` of the cumulative distribution."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not self.count:
            return float("nan")
        target = fraction * (self.count - 1)
        seen = 0
        for value in sorted(self.buckets):
            seen += self.buckets[value]
            if seen > target:
                return float(value)
        return float(max(self.buckets))

    def export(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {str(v): self.buckets[v] for v in sorted(self.buckets)},
        }


class TimeSeries:
    """Values accumulated into fixed-width cycle buckets."""

    __slots__ = ("width", "buckets")

    def __init__(self, width: int = 100) -> None:
        if width < 1:
            raise ValueError("bucket width must be positive")
        self.width = width
        self.buckets: dict[int, float] = {}

    def add(self, time: int, value: float = 1.0) -> None:
        bucket = time // self.width
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + value

    def export(self) -> dict:
        return {
            "width": self.width,
            "buckets": {str(b): self.buckets[b] for b in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Named metrics of one run, exported as a deterministic dict.

    Accessors create on first use, so instrumentation sites never need
    registration boilerplate::

        reg = MetricsRegistry()
        reg.counter("inject.packets").inc()
        reg.histogram("latency.packet").observe(42)
        reg.export()   # {"counters": {...}, "histograms": {...}, ...}

    Many counters of one naming pattern can be added as a single
    :meth:`counter_block`, which makes no per-counter object.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        #: ``(template, keys, amounts)`` of each :meth:`counter_block`.
        self._blocks: list[tuple[str, tuple[Sequence, ...], Sequence[int]]] = []
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timeseries: dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if self._blocks:
            # A named counter reads its block increments too.
            items = list(self._block_items())
            self._blocks.clear()
            for block_name, amount in items:
                self.counter(block_name).inc(amount)
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def counter_block(
        self, template: str, keys: tuple[Sequence, ...], amounts: Sequence[int]
    ) -> None:
        """Add many counters of one naming pattern in one call.

        ``amounts[i]`` goes to the counter named
        ``template.format(*(column[i] for column in keys))``.  The
        block is kept as given and expanded by :meth:`export` (or by
        the next :meth:`counter` call), so a run's thousands of
        per-link totals cost no object each.  Names that repeat, within
        a block or with :meth:`counter`, add up.
        """
        self._blocks.append((template, keys, amounts))

    def _block_items(self) -> Iterator[tuple[str, int]]:
        for template, keys, amounts in self._blocks:
            for *key, amount in zip(*keys, amounts):
                yield template.format(*key), amount

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def timeseries(self, name: str, width: int = 100) -> TimeSeries:
        metric = self._timeseries.get(name)
        if metric is None:
            metric = self._timeseries[name] = TimeSeries(width)
        return metric

    def export(self) -> dict:
        """Plain-JSON snapshot with every key level sorted."""
        counters = {name: c.export() for name, c in self._counters.items()}
        for name, amount in self._block_items():
            counters[name] = counters.get(name, 0) + amount
        return {
            "counters": {name: counters[name] for name in sorted(counters)},
            "gauges": {
                name: self._gauges[name].export()
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].export()
                for name in sorted(self._histograms)
            },
            "timeseries": {
                name: self._timeseries[name].export()
                for name in sorted(self._timeseries)
            },
        }


def _merge_histogram(into: dict, add: dict) -> dict:
    buckets = dict(into.get("buckets", {}))
    for value, count in add.get("buckets", {}).items():
        buckets[value] = buckets.get(value, 0) + count
    return {
        "count": into.get("count", 0) + add.get("count", 0),
        "sum": into.get("sum", 0) + add.get("sum", 0),
        "buckets": {k: buckets[k] for k in sorted(buckets, key=int)},
    }


def _merge_timeseries(into: dict, add: dict) -> dict:
    if into.get("width") != add.get("width"):
        raise ValueError(
            f"cannot merge time series of widths "
            f"{into.get('width')} and {add.get('width')}"
        )
    buckets = dict(into.get("buckets", {}))
    for bucket, value in add.get("buckets", {}).items():
        buckets[bucket] = buckets.get(bucket, 0.0) + value
    return {
        "width": into["width"],
        "buckets": {k: buckets[k] for k in sorted(buckets, key=int)},
    }


def merge_metrics(exports: Iterable[dict]) -> dict:
    """Aggregate registry exports from independent workers.

    Counters and histogram/time-series buckets add; gauges keep the
    max-of-max and drop the meaningless cross-worker ``last``.  The
    result is again deterministically sorted, so merging the same
    exports in any order yields identical bytes.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, dict] = {}
    histograms: dict[str, dict] = {}
    timeseries: dict[str, dict] = {}
    for export in exports:
        if not export:
            continue
        for name, value in export.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in export.get("gauges", {}).items():
            entry = gauges.setdefault(name, {"max": 0.0})
            entry["max"] = max(entry["max"], value.get("max", 0.0))
        for name, value in export.get("histograms", {}).items():
            histograms[name] = _merge_histogram(histograms.get(name, {}), value)
        for name, value in export.get("timeseries", {}).items():
            if name in timeseries:
                timeseries[name] = _merge_timeseries(timeseries[name], value)
            else:
                timeseries[name] = {
                    "width": value.get("width"),
                    "buckets": {
                        k: value.get("buckets", {})[k]
                        for k in sorted(value.get("buckets", {}), key=int)
                    },
                }
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
        "timeseries": {k: timeseries[k] for k in sorted(timeseries)},
    }
