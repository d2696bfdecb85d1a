"""Span recorder and call-site wrappers for the traced benchmark run.

The traced run (``run.py --trace 1``) swaps a small set of public
``repro`` functions and methods for wrappers that record a span -- name,
start, end, parent -- around each call, plus a few counts read from the
call's arguments or result.  Nothing under ``src/`` changes: the
wrappers are installed by :meth:`Tracer.installed` and the originals are
put back when it exits.

Each wrapper is installed *where the caller looks the name up*.  A
function imported by name into another module (``from .sim import
build_padded_candidates`` in ``repro.accel.relaxed``) is a separate
binding, so :data:`WRAPS` names both the defining module and every
importing module whose calls the benchmark must see.  A target that no
longer exists (a module or function deleted by a later change) is
recorded in :attr:`Tracer.absent` and skipped, so the traced run still
completes and reports the layer's metrics as zero.

Spans are kept in memory and written once, as JSON, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator


def peak_rss_mib() -> float:
    """This process's ``ru_maxrss`` in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpanRecorder:
    """In-memory spans and counts of one traced repetition."""

    def __init__(self, label: str) -> None:
        self.label = label
        #: ``[name, start, end, parent_index]`` in start order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        #: ``ru_maxrss`` (MiB) read when each top-level span ended.
        self.rss_after: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if parent is None:
                self.rss_after[name] = peak_rss_mib()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def set(self, name: str, value: float) -> None:
        self.counts[name] = value

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover.

        Children never outlive their parent (spans nest like calls), so
        a span's self time is its duration minus its children's.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def top_level_seconds(self) -> float:
        return sum(
            end - start
            for _, start, end, parent in self.spans
            if parent is None
        )

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": self.counts,
            "rss_after_mib": self.rss_after,
        }


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: ``after(recorder, args, kwargs, result)`` records counts once the
#: wrapped call has returned.
After = Callable[[SpanRecorder, tuple, dict, Any], None]


@dataclass(frozen=True)
class Wrap:
    """One wrapped name: ``"module:attribute"`` or ``"module:Class.method"``.

    ``span`` is the span name, ``None`` for no span, or a function of
    the call's ``(args, kwargs)`` choosing either.  ``busy`` names a
    count that sums the seconds spent in the call without recording a
    span, for calls made too often to keep one span each.
    """

    target: str
    span: str | None | Callable[[tuple, dict], str | None]
    after: After | None = None
    busy: str | None = None


def _loop_span(args: tuple, kwargs: dict) -> str:
    params = args[0].params
    relaxed = getattr(params, "rng_mode", "exact") == "relaxed"
    return "accel.relaxed.loop" if relaxed else "simulation.fastpath.loop"


def _after_run(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.set("simulation.generated_packets", result.generated_packets)
    rec.set("simulation.delivered_packets", result.delivered_packets)


def _after_init(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.set("simulation.engine.channels", len(getattr(args[0], "ch_kind", ())))


def _after_table(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.set("simulation.fastpath.table_entries", len(result.values))


def _after_schedule(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.set("workloads.flows.flows", len(result.flow_schedule.flows))


def _after_summary(rec: SpanRecorder, args, kwargs, result) -> None:
    total = result["flows_total"]
    rec.set(
        "workloads.tracker.completion_ratio",
        result["flows_completed"] / total if total else 0.0,
    )


def _after_arbitrate(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.add("obs.hooks.on_arbitrate_calls")
    rec.add("arb.requests", args[3])
    rec.add("arb.grants", args[4])


def _after_hop(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.add("obs.hooks.on_hop_calls")


def _probe_span(args: tuple, kwargs: dict) -> str | None:
    masked = kwargs.get("keep_masks", args[1] if len(args) > 1 else None)
    return None if masked is None else "accel.sweeps.probe"


def _after_probe(rec: SpanRecorder, args, kwargs, result) -> None:
    if _probe_span(args, kwargs) is not None:
        rec.add("accel.sweeps.probes")


WRAPS: tuple[Wrap, ...] = (
    Wrap("repro.core.rfc:rfc_with_updown", "core.rfc.generate"),
    Wrap(
        "repro.topologies.packed:packed_radix_regular_rfc",
        "topologies.packed.generate",
    ),
    Wrap(
        "repro.workloads.flows:make_workload",
        "workloads.flows.schedule",
        _after_schedule,
    ),
    Wrap(
        "repro.simulation.engine:Simulator.__init__",
        "simulation.engine.init",
        _after_init,
    ),
    Wrap(
        "repro.simulation.fastpath:build_candidate_table",
        "simulation.fastpath.table",
        _after_table,
    ),
    Wrap(
        "repro.accel.relaxed:build_relaxed_candidates",
        "accel.relaxed.candidates",
    ),
    Wrap("repro.accel.relaxed:build_padded_candidates", "accel.sim.padded"),
    Wrap("repro.simulation.engine:Simulator.run", _loop_span, _after_run),
    Wrap(
        "repro.obs.hooks:MetricsObserver.on_arbitrate",
        None,
        _after_arbitrate,
        busy="obs.hooks.hook_s",
    ),
    Wrap(
        "repro.obs.hooks:MetricsObserver.on_hop",
        None,
        _after_hop,
        busy="obs.hooks.hook_s",
    ),
    Wrap("repro.obs.hooks:MetricsObserver.on_inject", None, busy="obs.hooks.hook_s"),
    Wrap("repro.obs.hooks:MetricsObserver.on_eject", None, busy="obs.hooks.hook_s"),
    Wrap("repro.obs.hooks:MetricsObserver.export", "obs.hooks.export"),
    Wrap(
        "repro.workloads.tracker:FlowTracker.summary",
        "workloads.tracker.summary",
        _after_summary,
    ),
    Wrap("repro.faults.removal:shuffled_links", "faults.removal.shuffle"),
    Wrap("repro.core.ancestors:sweeper_of", "core.ancestors.sweeper"),
    Wrap("repro.faults.updown_survival:sweeper_of", "core.ancestors.sweeper"),
    Wrap(
        "repro.faults.updown_survival:order_threshold",
        "faults.updown_survival.threshold",
    ),
    Wrap(
        "repro.accel.sweeps:StageSweeper.keep_masks_for_positions",
        "accel.sweeps.probe",
    ),
    Wrap("repro.accel.sweeps:StageSweeper.has_updown", _probe_span, _after_probe),
)


class Tracer:
    """Installs :data:`WRAPS` and routes their records to :attr:`recorder`.

    Swap :attr:`recorder` between repetitions to keep their spans apart;
    every recorder started is kept for :meth:`write`.
    """

    def __init__(self, wraps: tuple[Wrap, ...] = WRAPS) -> None:
        self.wraps = wraps
        self.recorder = SpanRecorder("idle")
        self.recorders: list[SpanRecorder] = []
        self.absent: list[str] = []

    def start(self, label: str) -> SpanRecorder:
        self.recorder = SpanRecorder(label)
        self.recorders.append(self.recorder)
        return self.recorder

    def _wrapper(self, original: Callable, wrap: Wrap) -> Callable:
        tracer = self
        choose = wrap.span if callable(wrap.span) else None
        fixed = None if choose else wrap.span
        after = wrap.after
        busy = wrap.busy
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = tracer.recorder
            name = choose(args, kwargs) if choose else fixed
            if busy is not None:
                start = clock()
                result = original(*args, **kwargs)
                rec.add(busy, clock() - start)
            elif name is None:
                result = original(*args, **kwargs)
            else:
                with rec.span(name):
                    result = original(*args, **kwargs)
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        undo: list[Callable[[], None]] = []
        try:
            for wrap in self.wraps:
                located = _locate(wrap.target)
                if located is None:
                    self.absent.append(wrap.target)
                    continue
                owner, attr = located
                undo.append(_restorer(owner, attr))
                setattr(owner, attr, self._wrapper(getattr(owner, attr), wrap))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def write(self, path: Path) -> None:
        """Write every recorder's spans and counts, once, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "absent": self.absent,
            "repetitions": [rec.to_json() for rec in self.recorders],
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _locate(target: str) -> tuple[Any, str] | None:
    """``(owner, attribute)`` for a wrap target, ``None`` if it is gone."""
    module_name, _, dotted = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _restorer(owner: Any, attr: str) -> Callable[[], None]:
    """Undo for ``setattr(owner, attr, ...)``, inherited methods included."""
    if attr in vars(owner):
        original = vars(owner)[attr]
        return lambda: setattr(owner, attr, original)
    return lambda: delattr(owner, attr)
