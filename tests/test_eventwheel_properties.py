"""Property tests for the fast path's two core data structures.

1. :class:`~repro.simulation.fastpath.EventWheel` dequeues in exactly
   the ``(time, seq)`` order of the reference engine's ``heapq`` for
   arbitrary push/pop interleavings that respect the engine's
   discipline (never schedule into the past) -- including events past
   the horizon, which the wheel drops at push time and the heap never
   pops (the reference loop breaks on them).
2. CSR candidate tables from
   :func:`~repro.simulation.fastpath.build_candidate_table` agree with
   :meth:`Simulator._output_candidates` for every (switch,
   destination, phase) on randomly generated small RFCs, CFTs and
   packed RFCs, including pruned (faulted) instances, non-minimal
   routing and RFCs whose leaf masks span several ``uint64`` words.
   The tables are compared array for array (``offsets``, ``values``,
   ``flags``, dtypes included) with a table built key by key from the
   reference, and one pin does the same on the RFC(16, 256, 3)
   instance of the benchmark's exact workload.
"""

import heapq
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.rfc import radix_regular_rfc, rfc_with_updown
from repro.routing.table import CandidateRows, CsrTable
from repro.routing.updown import RoutingError, UpDownRouter
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.fastpath import (
    EventWheel,
    _channel_lookup,
    build_candidate_table,
)
from repro.simulation.packet import Packet
from repro.simulation.traffic import make_traffic
from repro.topologies.fattree import commodity_fat_tree
from repro.topologies.packed import PackedFoldedClos, packed_radix_regular_rfc

# ----------------------------------------------------------------------
# Event wheel vs heapq
# ----------------------------------------------------------------------

# An op is either a push (time offset from the last popped time) or a
# pop; offsets can exceed the horizon to exercise the drop path.
ops_lists = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=70)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=120,
)


class HeapModel:
    """The reference engine's schedule: heapq ordered by (time, seq).

    Events past the horizon are pushed (as the reference does) but a
    pop stops at them, mirroring the run loop's ``break`` -- once the
    top exceeds the horizon nothing is ever popped again.
    """

    def __init__(self, horizon):
        self.horizon = horizon
        self.heap = []
        self.seq = 0

    def push(self, time, payload):
        self.seq += 1
        heapq.heappush(self.heap, (time, self.seq, payload))

    def pop(self):
        if not self.heap or self.heap[0][0] > self.horizon:
            return None
        time, _, payload = heapq.heappop(self.heap)
        return time, payload


@given(ops=ops_lists, horizon=st.integers(min_value=0, max_value=60))
def test_wheel_matches_heapq_order(ops, horizon):
    wheel = EventWheel(horizon)
    model = HeapModel(horizon)
    current = 0
    payload = 0
    for op, offset in ops:
        if op == "push":
            time = current + offset
            wheel.push(time, payload)
            model.push(time, payload)
            payload += 1
        else:
            got = wheel.pop()
            expected = model.pop()
            assert got == expected
            if got is None:
                # Drained past the horizon: the engine's run is over
                # and nothing is ever pushed again.
                return
            current = got[0]
    # Full drain must agree event for event.
    while True:
        got = wheel.pop()
        expected = model.pop()
        assert got == expected
        if got is None:
            break


@given(
    times=st.lists(
        st.integers(min_value=0, max_value=40), min_size=1, max_size=60
    )
)
def test_wheel_same_cycle_is_fifo(times):
    """All events of one cycle come back in push order (seq order)."""
    wheel = EventWheel(40)
    for i, time in enumerate(times):
        assert wheel.push(time, i)
    popped = []
    while (item := wheel.pop()) is not None:
        popped.append(item)
    assert popped == sorted(
        ((time, i) for i, time in enumerate(times)),
        key=lambda pair: (pair[0], pair[1]),
    )


def test_wheel_drops_past_horizon():
    wheel = EventWheel(5)
    assert not wheel.push(6, "late")
    assert wheel.push(5, "edge")
    assert len(wheel) == 1
    assert wheel.pop() == (5, "edge")
    assert wheel.pop() is None


def test_wheel_rejects_scheduling_into_the_past():
    wheel = EventWheel(10)
    wheel.push(4, "a")
    assert wheel.pop() == (4, "a")
    with pytest.raises(ValueError):
        wheel.push(3, "too-late")
    # Same-cycle pushes while draining that cycle stay legal (the
    # engine's credit->arbitration wake does exactly this).
    wheel.push(4, "same-cycle")
    assert wheel.pop() == (4, "same-cycle")


def test_wheel_rejects_negative_horizon():
    with pytest.raises(ValueError):
        EventWheel(-1)


# ----------------------------------------------------------------------
# CSR candidate tables vs the reference router
# ----------------------------------------------------------------------

rfc_configs = st.fixed_dictionaries(
    {
        "radix": st.sampled_from([4, 6]),
        "n1": st.sampled_from([4, 6, 8]),
        "levels": st.sampled_from([2, 3]),
        "seed": st.integers(min_value=0, max_value=200),
        "faults": st.integers(min_value=0, max_value=3),
        "minimal": st.booleans(),
    }
)


def _build_sim(topo, removed, valiant=False, minimal=True):
    params = SimulationParams(
        measure_cycles=10,
        warmup_cycles=0,
        seed=1,
        valiant=valiant,
        minimal_routing=minimal,
    )
    traffic = make_traffic("uniform", topo.num_terminals, rng=2)
    return Simulator(topo, traffic, 0.5, params, removed)


def _reference_row(sim, switch, packet):
    """(flag, candidate channel ids) as the reference engine sees it."""
    try:
        cands = sim._output_candidates(switch, packet)
    except RoutingError:
        return CsrTable.UNROUTABLE, []
    if cands and sim.ch_kind[cands[0]] != 0:  # _LINK
        return CsrTable.DELIVER, []
    return CsrTable.ROUTE, cands


def _build_table(num_sources, num_dests, entry):
    """Materialize ``entry(source, dest) -> (flag, candidates)`` as a
    :class:`CsrTable`, key by key in row-major (source-major) order."""
    offsets = np.zeros(num_sources * num_dests + 1, dtype=np.int64)
    flags = np.zeros(num_sources * num_dests, dtype=np.uint8)
    values = []
    key = 0
    for source in range(num_sources):
        for dest in range(num_dests):
            flag, candidates = entry(source, dest)
            flags[key] = flag
            values.extend(candidates)
            key += 1
            offsets[key] = len(values)
    return CsrTable(
        num_sources, num_dests, offsets, np.asarray(values, dtype=np.int32), flags
    )


def _reference_table(sim):
    """Folded Clos table built key by key from the reference engine."""
    topo = sim.topo
    hosts = topo.hosts_per_leaf

    def entry(switch, leaf):
        packet = Packet(src=0, dst=leaf * hosts, created=0)
        return _reference_row(sim, switch, packet)

    return _build_table(topo.num_switches, topo.num_leaves, entry)


def _assert_same_table(table, reference):
    assert table.num_sources == reference.num_sources
    assert table.num_dests == reference.num_dests
    for name in ("offsets", "values", "flags"):
        got, want = getattr(table, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _check_folded(topo, faults, minimal=True):
    removed = topo.links()[:faults]
    sim = _build_sim(topo, removed, minimal=minimal)
    _assert_same_table(build_candidate_table(sim), _reference_table(sim))


@given(config=rfc_configs)
def test_csr_table_matches_reference_rfc(config):
    # Radix-regular RFCs need R/2 <= N_l = N1/2 roots.
    assume(config["radix"] <= config["n1"])
    topo = radix_regular_rfc(
        config["radix"], config["n1"], config["levels"], rng=config["seed"]
    )
    _check_folded(topo, config["faults"], config["minimal"])


@given(
    radix=st.sampled_from([4, 6]),
    levels=st.sampled_from([1, 2, 3]),
    faults=st.integers(min_value=0, max_value=4),
    minimal=st.booleans(),
)
def test_csr_table_matches_reference_cft(radix, levels, faults, minimal):
    _check_folded(commodity_fat_tree(radix, levels), faults, minimal)


@given(config=rfc_configs)
def test_csr_table_matches_reference_packed(config):
    assume(config["radix"] <= config["n1"])
    topo = packed_radix_regular_rfc(
        config["radix"], config["n1"], config["levels"], rng=config["seed"]
    )
    assert isinstance(topo, PackedFoldedClos)
    _check_folded(topo, config["faults"], config["minimal"])


@settings(max_examples=15)
@given(
    config=st.fixed_dictionaries(
        {
            "radix": st.sampled_from([4, 6]),
            # 66..130 leaves: masks of two and three uint64 words.
            "n1": st.sampled_from([66, 96, 130]),
            "levels": st.sampled_from([2, 3]),
            "seed": st.integers(min_value=0, max_value=200),
            "faults": st.integers(min_value=0, max_value=8),
            "minimal": st.booleans(),
        }
    )
)
def test_csr_table_matches_reference_multiword(config):
    topo = radix_regular_rfc(
        config["radix"], config["n1"], config["levels"], rng=config["seed"]
    )
    _check_folded(topo, config["faults"], config["minimal"])


def test_csr_table_pinned_uniform_2k():
    """RFC(16, 256, 3) seed 1, the benchmark's exact-engine instance."""
    topo, _attempts = rfc_with_updown(16, 256, 3, rng=1)
    sim = _build_sim(topo, None)
    table = build_candidate_table(sim)
    _assert_same_table(table, _reference_table(sim))
    assert len(table.flags) == 163840
    assert len(table.values) == 640334
    # ROUTE, DELIVER (one per leaf), UNROUTABLE (roots above other
    # leaves' subtrees).
    assert np.bincount(table.flags).tolist() == [143109, 256, 20475]


@given(config=rfc_configs)
def test_csr_table_matches_reference_valiant_phase(config):
    """The Valiant randomization phase routes toward the via leaf with
    the same table -- verify against the reference's via branch."""
    assume(config["radix"] <= config["n1"])
    topo = radix_regular_rfc(
        config["radix"], config["n1"], config["levels"], rng=config["seed"]
    )
    if topo.num_leaves < 2:
        return
    sim = _build_sim(topo, None, valiant=True, minimal=config["minimal"])
    table = build_candidate_table(sim)
    hosts = topo.hosts_per_leaf
    for switch in range(topo.num_switches):
        for via_leaf in range(topo.num_leaves):
            if sim.level_of[switch] == 0 and sim.index_of[switch] == via_leaf:
                # At the via leaf the reference clears the via and falls
                # through to destination routing -- covered above.
                continue
            packet = Packet(
                src=0, dst=0, created=0, via=via_leaf * hosts
            )
            flag, cands = _reference_row(sim, switch, packet)
            assert packet.via is not None  # reference must not clear it
            assert table.flag(switch, via_leaf) == flag
            assert list(table.candidates(switch, via_leaf)) == cands


def test_csr_table_from_pure_python_router():
    """A router built without the numpy kernels packs its big-int
    tables on demand; the table must not depend on which path built
    them."""
    topo = radix_regular_rfc(6, 8, 3, rng=4)
    sim = _build_sim(topo, topo.links()[:2])
    accel_masks = sim.router.packed_reach()
    sim.router = UpDownRouter(
        sim.router.level_sizes, sim.router._up, accel=False
    )
    for fast, slow in zip(accel_masks, sim.router.packed_reach()):
        assert [m.tolist() for m in fast] == [m.tolist() for m in slow]
    _assert_same_table(build_candidate_table(sim), _reference_table(sim))


def test_channel_lookup_keeps_last_write():
    """A switch pair listed twice resolves to its later channel, as the
    ``link_channel`` dict's last write does; a missing pair raises."""
    sim = SimpleNamespace(
        topo=SimpleNamespace(num_switches=3),
        ch_kind=[0, 0, 1, 0, 0],
        ch_src=[0, 1, -1, 0, 2],
        ch_dst=[1, 0, 0, 1, 1],
    )
    lookup = _channel_lookup(sim)
    assert lookup(np.array([0, 1, 2]), np.array([1, 0, 1])).tolist() == [
        3,
        1,
        4,
    ]
    with pytest.raises(KeyError):
        lookup(np.array([1]), np.array([2]))
    assert lookup(np.array([], dtype=np.int64), np.array([])).size == 0


def test_candidate_rows_mirror_arrays():
    """Every key of the lazily built rows equals the per-key list mirror
    the exact engine used to build up front: the key's candidate slice
    as a list, ``None`` on UNROUTABLE."""
    table = _build_table(
        2,
        3,
        lambda s, d: (
            CsrTable.UNROUTABLE if (s, d) == (1, 2) else CsrTable.ROUTE,
            [] if (s, d) == (1, 2) else [s * 10 + d],
        ),
    )
    rows = CandidateRows(table)
    assert len(rows) == 0  # nothing is listed before it is read
    assert [rows[key] for key in range(6)] == [[0], [1], [2], [10], [11], None]
    assert len(rows) == 6
    assert all(type(c) is int for key in range(5) for c in rows[key])


def test_candidate_rows_match_simulator_table():
    """On a faulted RFC's channel table (ROUTE, DELIVER and UNROUTABLE
    keys), the rows read in scrambled order equal the CSR slices."""
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    sim = Simulator(
        topo,
        make_traffic("uniform", topo.num_terminals, rng=1),
        0.5,
        SimulationParams(),
        topo.links()[::3],
    )
    table = build_candidate_table(sim)
    assert (table.flags == CsrTable.UNROUTABLE).any()
    rows = CandidateRows(table)
    keys = list(range(len(table.flags)))
    random.Random(5).shuffle(keys)
    for key in keys:
        lo, hi = table.offsets[key], table.offsets[key + 1]
        if table.flags[key] == CsrTable.UNROUTABLE:
            assert rows[key] is None
        else:
            assert rows[key] == table.values[lo:hi].tolist()
