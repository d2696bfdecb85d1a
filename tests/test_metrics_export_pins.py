"""Digest pins of the metrics export and the tracing event stream.

Every case runs on each engine that accepts its configuration and must
reproduce the recorded sha256 of

* ``json.dumps(MetricsObserver().export(), sort_keys=True)`` -- the
  whole export: counters (per-link phits included), histograms and
  time series; and
* the records a ``TracingObserver(include_arb=True)`` writes -- the
  per-event hook stream in call order, arbitration passes included.

The two exact engines are bit-for-bit identical, so they share one
digest per case; the relaxed engine has its own.  The cases cover
uniform and Valiant routing on an RFC, a link-faulted RFC that drops
unroutable packets, two arbitration rounds, and RPC flows with a
:class:`FlowTracker` composed next to the observer (as ``run_workload``
composes them; the trace then interleaves the tracker's
``flow_complete`` records).

Regenerate only on an intentional change to what the engines count or
in which order they call hooks, and say so in the change log::

    for name in CASES:
        for engine in ENGINES:
            print(name, engine, metrics_digest(name, engine),
                  trace_digest(name, engine))
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from oracle_engine import run_on

from repro.core.rfc import rfc_with_updown
from repro.obs import MetricsObserver, MultiObserver, TraceWriter, TracingObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import make_traffic
from repro.workloads.flows import make_workload
from repro.workloads.runner import nominal_load
from repro.workloads.tracker import FlowTracker

ENGINES = ("reference", "fast", "relaxed")


def _params(engine: str, **overrides) -> SimulationParams:
    if engine == "relaxed":
        overrides["rng_mode"] = "relaxed"
    return SimulationParams(
        measure_cycles=300, warmup_cycles=100, seed=3, **overrides
    )


def _rfc():
    topo, _attempts = rfc_with_updown(8, 16, 3, rng=7)
    return topo


def _uniform(topo):
    return make_traffic("uniform", topo.num_terminals)


def uniform_rfc(engine, observer):
    topo = _rfc()
    return Simulator(
        topo, _uniform(topo), 0.6, _params(engine), observer=observer
    )


def valiant_rfc(engine, observer):
    topo = _rfc()
    params = _params(engine, valiant=True)
    return Simulator(topo, _uniform(topo), 0.5, params, observer=observer)


def faulted_rfc(engine, observer):
    """40 of 128 links removed: some leaf pairs lose every route."""
    topo = _rfc()
    removed = random.Random(1).sample(topo.links(), 40)
    return Simulator(
        topo, _uniform(topo), 0.6, _params(engine), removed, observer=observer
    )


def two_rounds(engine, observer):
    topo = _rfc()
    traffic = make_traffic("fixed-random", topo.num_terminals, rng=11)
    params = _params(engine, arbitration_iterations=2)
    return Simulator(topo, traffic, 0.7, params, observer=observer)


def rpc_flows(engine, observer):
    topo = _rfc()
    params = _params(engine)
    workload = make_workload(
        "rpc", topo.num_terminals, seed=3, load=0.5, rpc_size=4,
        duration=params.horizon,
    )
    writer = getattr(observer, "writer", None)
    tracker = FlowTracker(workload.flow_schedule, writer)
    offered = nominal_load(workload, params)
    composed = MultiObserver([observer, tracker])
    return Simulator(topo, workload, offered, params, observer=composed)


CASES = {
    "uniform_rfc": uniform_rfc,
    "valiant_rfc": valiant_rfc,
    "faulted_rfc": faulted_rfc,
    "two_rounds": two_rounds,
    "rpc_flows": rpc_flows,
}


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def metrics_digest(case: str, engine: str) -> str:
    observer = MetricsObserver()
    run_on(CASES[case](engine, observer), engine)
    return _sha(observer.export())


def trace_digest(case: str, engine: str) -> str:
    writer = TraceWriter(None)
    run_on(CASES[case](engine, TracingObserver(writer, include_arb=True)), engine)
    return _sha(writer.records())


def _family(engine: str) -> str:
    return "relaxed" if engine == "relaxed" else "exact"


#: ``case -> engine family -> (metrics digest, trace digest)``, recorded
#: while ``MetricsObserver`` still counted through per-event hooks.
PINS: dict[str, dict[str, tuple[str, str]]] = {
    "faulted_rfc": {
        "exact": (
            "b9530e1d96fd33870dc0db23ae5d62949cb2ee981529654fc79ed78b587551e0",
            "0c890fff10b6fa4bccb3734478bec772d40d8597a4e95e4e6e4855689af590a6",
        ),
        "relaxed": (
            "abbc52d7d03323c53172627fcf3ea13d755dcc6ff59048c060cce32bd5d7e6ae",
            "c9da51d2e7cad3bb602f6dbfdcd5deab556734f1dc8e59674ec758bcf7718f75",
        ),
    },
    "rpc_flows": {
        "exact": (
            "edf092eff857f6f0411e42d627ce835647fce6515ffc5f0aaad7bba7ec460a5e",
            "e9c33b585f9af64cc6a1a8e65856565b912749b6ba3765948b3f42573bc7b2a6",
        ),
        "relaxed": (
            "db4c7da069b2c2b666f6895f6306bae2071960f790181b514f17d1e300bc56e1",
            "7f70bb23cf83798c14fe41207170dc8c96693bec4fa3e5eac40f2a6468e6950a",
        ),
    },
    "two_rounds": {
        "exact": (
            "dd7522ab546c797af73ee07039601f1762ba1fec0fb1a49a832e56ecfdf4df08",
            "f371b5d4749710a20f5c923296f80a5b5d0aceae480006309e3e141151fc034e",
        ),
        "relaxed": (
            "7c9c83334c979526c06c01a3ac67e9b405faded5b47c6544b6bf7976f838300e",
            "5f581ac73c6f85cc3cd637df85f63bb700d5276733e7d73f2f1556d704cbdee4",
        ),
    },
    "uniform_rfc": {
        "exact": (
            "5a351de83128046b4a63dfa417c4c1c54101688a3859fdca4a2f936e6c726332",
            "0f4149befc2b6e207af1b358563162a2d0e72ce38b60ebfa28d34d217beaadda",
        ),
        "relaxed": (
            "61602a519c02ed2bd89c807dcbdc142c378fe04ed6f70429222490073b127bf1",
            "fe47f739de923ec1cc2917623243cfbeaa07fc4eb7f76f19b8b90fde50e280e5",
        ),
    },
    "valiant_rfc": {
        "exact": (
            "a58de74047b69a8f57c09c04c98fabea6da33a40b293c1a8d7adc106235c0d02",
            "5a723a0b354c8094117f599bab22c230e60ef10a4c3e1162fe717fba01ee3a4e",
        ),
        "relaxed": (
            "4efd7c8b7f999f580308d050b6b42f7559579151f48f5adfc82c0ae90ba6085f",
            "40954e1240701672f9a58182372d309bac8aca776a627cf0be83b0216d77d243",
        ),
    },
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_export_pinned(case, engine):
    assert metrics_digest(case, engine) == PINS[case][_family(engine)][0]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_stream_pinned(case, engine):
    assert trace_digest(case, engine) == PINS[case][_family(engine)][1]
