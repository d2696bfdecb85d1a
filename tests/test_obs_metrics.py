"""Unit tests for repro.obs metric primitives, registry and merging."""

import json

import pytest

import repro.obs as obs
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    merge_metrics,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().export() == 0

    def test_inc_default_and_amount(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6


class TestGauge:
    def test_tracks_last_and_max(self):
        g = Gauge()
        g.set(3.0)
        g.set(7.0)
        g.set(2.0)
        assert g.export() == {"last": 2.0, "max": 7.0}


class TestHistogram:
    def test_exact_buckets(self):
        h = Histogram()
        for v in (1, 2, 2, 5):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10
        assert h.mean == pytest.approx(2.5)
        assert h.export()["buckets"] == {"1": 1, "2": 2, "5": 1}

    def test_weighted_observation(self):
        h = Histogram()
        h.observe(3, weight=4)
        assert h.count == 4
        assert h.total == 12

    def test_percentile(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(0.5) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(1.0) == 100.0

    def test_percentile_empty_is_nan(self):
        import math

        assert math.isnan(Histogram().percentile(0.5))

    def test_percentile_bad_fraction(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_mean_empty_is_nan(self):
        import math

        assert math.isnan(Histogram().mean)

    def test_export_buckets_sorted(self):
        h = Histogram()
        for v in (30, 2, 11, 2):
            h.observe(v)
        keys = list(h.export()["buckets"])
        assert keys == sorted(keys, key=int)


class TestTimeSeries:
    def test_bucketing(self):
        ts = TimeSeries(width=10)
        ts.add(3)
        ts.add(9)
        ts.add(10, 2.5)
        assert ts.export() == {
            "width": 10,
            "buckets": {"0": 2.0, "1": 2.5},
        }

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeries(width=0)


class TestRegistry:
    def test_accessors_create_once(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.timeseries("t", 5) is reg.timeseries("t", 99)

    def test_export_all_sections_sorted(self):
        reg = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            reg.counter(name).inc()
            reg.histogram(name).observe(1)
        export = reg.export()
        assert list(export) == ["counters", "gauges", "histograms", "timeseries"]
        assert list(export["counters"]) == ["alpha", "mid", "zeta"]
        assert list(export["histograms"]) == ["alpha", "mid", "zeta"]

    def test_export_is_byte_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc(2)
            reg.counter("a").inc(1)
            reg.timeseries("ts", 10).add(25, 3.0)
            reg.histogram("h").observe(7)
            reg.gauge("g").set(4.0)
            return json.dumps(reg.export(), sort_keys=True)

        assert build() == build()

    def test_counter_block_exports_as_named_counters(self):
        reg = MetricsRegistry()
        reg.counter("link.1->2").inc(5)
        reg.counter("hop.count").inc(1)
        reg.counter_block("link.{}->{}", ([1, 3, 3], [2, 0, 0]), [10, 4, 6])
        # Kept as one block until read: exporting twice is stable.
        assert reg.export() == reg.export()
        assert reg.export()["counters"] == {
            "hop.count": 1,
            "link.1->2": 15,
            "link.3->0": 10,
        }

    def test_counter_reads_its_block_increments(self):
        reg = MetricsRegistry()
        reg.counter_block("c.{}", ([7, 8],), [2, 3])
        assert reg.counter("c.7").value == 2
        reg.counter("c.8").inc()
        assert reg.export()["counters"] == {"c.7": 2, "c.8": 4}


class TestMerge:
    def test_counters_add(self):
        a = {"counters": {"x": 2}}
        b = {"counters": {"x": 3, "y": 1}}
        merged = merge_metrics([a, b])
        assert merged["counters"] == {"x": 5, "y": 1}

    def test_gauges_keep_max_of_max(self):
        a = {"gauges": {"g": {"last": 1.0, "max": 9.0}}}
        b = {"gauges": {"g": {"last": 2.0, "max": 4.0}}}
        assert merge_metrics([a, b])["gauges"]["g"]["max"] == 9.0

    def test_merged_gauges_drop_last(self):
        """A cross-worker ``last`` depends on merge order; only the
        max-of-max survives, so reversed inputs merge to equal bytes."""
        a = {"gauges": {"g": {"last": 1.0, "max": 9.0}}}
        b = {"gauges": {"g": {"last": 2.0, "max": 4.0}}}
        assert merge_metrics([a, b])["gauges"] == {"g": {"max": 9.0}}
        ab = json.dumps(merge_metrics([a, b]), sort_keys=True)
        ba = json.dumps(merge_metrics([b, a]), sort_keys=True)
        assert ab == ba

    def test_histogram_buckets_add(self):
        a = {"histograms": {"h": {"count": 2, "sum": 3, "buckets": {"1": 1, "2": 1}}}}
        b = {"histograms": {"h": {"count": 1, "sum": 2, "buckets": {"2": 1}}}}
        merged = merge_metrics([a, b])["histograms"]["h"]
        assert merged == {"count": 3, "sum": 5, "buckets": {"1": 1, "2": 2}}

    def test_timeseries_buckets_add(self):
        a = {"timeseries": {"t": {"width": 10, "buckets": {"0": 1.0}}}}
        b = {"timeseries": {"t": {"width": 10, "buckets": {"0": 2.0, "3": 1.0}}}}
        merged = merge_metrics([a, b])["timeseries"]["t"]
        assert merged == {"width": 10, "buckets": {"0": 3.0, "3": 1.0}}

    def test_timeseries_width_mismatch_raises(self):
        a = {"timeseries": {"t": {"width": 10, "buckets": {}}}}
        b = {"timeseries": {"t": {"width": 20, "buckets": {}}}}
        with pytest.raises(ValueError, match="width"):
            merge_metrics([a, b])

    def test_merge_order_invariant_bytes(self):
        a = {"counters": {"x": 1, "y": 2}, "histograms": {"h": {"count": 1, "sum": 9, "buckets": {"9": 1}}}}
        b = {"counters": {"y": 5, "z": 1}, "histograms": {"h": {"count": 2, "sum": 4, "buckets": {"2": 2}}}}
        ab = json.dumps(merge_metrics([a, b]), sort_keys=True)
        ba = json.dumps(merge_metrics([b, a]), sort_keys=True)
        assert ab == ba

    def test_empty_inputs_skipped(self):
        assert merge_metrics([{}, None and {} or {}, {"counters": {"c": 1}}])[
            "counters"
        ] == {"c": 1}


class TestAmbientSwitch:
    def test_default_off(self):
        obs.configure(metrics=False)
        assert not obs.metrics_enabled()

    def test_configure_on_then_off(self):
        obs.configure(metrics=True)
        assert obs.metrics_enabled()
        obs.configure(metrics=False)
        assert not obs.metrics_enabled()

    def test_using_metrics_restores(self):
        obs.configure(metrics=False)
        with obs.using_metrics():
            assert obs.metrics_enabled()
            obs.record("inner", {"counters": {"c": 1}})
        assert not obs.metrics_enabled()
        # Inner collections do not leak out of the context.
        assert obs.collected() == {}

    def test_record_merges_repeated_labels(self):
        obs.configure(metrics=True)
        obs.record("sweep", {"counters": {"c": 1}})
        obs.record("sweep", {"counters": {"c": 2}})
        assert obs.collected()["sweep"]["counters"]["c"] == 3
        obs.configure(metrics=False)

    def test_collected_labels_sorted(self):
        obs.configure(metrics=True)
        obs.record("zz", {"counters": {}})
        obs.record("aa", {"counters": {}})
        assert list(obs.collected()) == ["aa", "zz"]
        obs.reset()
        assert obs.collected() == {}
        obs.configure(metrics=False)
