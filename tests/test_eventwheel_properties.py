"""Property tests for the fast path's two core data structures.

1. :class:`~repro.simulation.fastpath.EventWheel` dequeues in exactly
   the ``(time, seq)`` order of the reference engine's ``heapq`` for
   arbitrary push/pop interleavings that respect the engine's
   discipline (never schedule into the past) -- including events past
   the horizon, which the wheel drops at push time and the heap never
   pops (the reference loop breaks on them).
2. The route state from
   :func:`~repro.simulation.fastpath.build_candidate_table` lists the
   candidates of :meth:`Simulator._output_candidates` for every
   (switch, destination, phase) on randomly generated small RFCs, CFTs
   and packed RFCs, including pruned (faulted) instances, non-minimal
   routing and RFCs whose leaf masks span several ``uint64`` words:
   both the exact engine's lazily listed rows and the relaxed engine's
   per-head rows, in order (``oracle_engine.assert_routes_match_oracle``).
   One pin does the same on the RFC(16, 256, 3) instance of the
   benchmark's exact workload.  The ``csr_table`` test names are those
   of the per-key candidate table the route state replaced.
"""

import heapq
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.rfc import radix_regular_rfc, rfc_with_updown
from repro.routing.updown import UpDownRouter
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.fastpath import EventWheel, build_candidate_table
from repro.simulation.routes import CandidateRows, _channel_lookup
from repro.simulation.traffic import make_traffic
from repro.topologies.fattree import commodity_fat_tree
from repro.topologies.packed import PackedFoldedClos, packed_radix_regular_rfc

from oracle_engine import assert_routes_match_oracle

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
# Route state vs the reference router
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


def _check_folded(topo, faults, minimal=True):
    removed = topo.links()[:faults]
    assert_routes_match_oracle(_build_sim(topo, removed, minimal=minimal))


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
    """RFC(16, 256, 3) seed 1, the benchmark's exact-engine instance:
    every key against the oracle, and the key census the table it
    replaced held."""
    topo, _attempts = rfc_with_updown(16, 256, 3, rng=1)
    sim = _build_sim(topo, None)
    assert_routes_match_oracle(sim)
    routes = build_candidate_table(sim)
    assert routes.ascent.shape == (256, 641)
    assert routes.ascent.dtype == np.int8
    rows = CandidateRows(routes)
    listed = [rows[key] for key in range(640 * 256)]
    # Routed, delivered (one per leaf) and unroutable keys (roots above
    # other leaves' subtrees), and every candidate of every key.
    assert sum(bool(row) for row in listed) == 143109
    assert sum(row == [] for row in listed) == 256
    assert sum(row is None for row in listed) == 20475
    assert sum(len(row) for row in listed if row) == 640334


@given(config=rfc_configs)
def test_csr_table_matches_reference_valiant_phase(config):
    """The Valiant randomization phase routes toward the via leaf with
    the same keys -- verify against the reference's via branch."""
    assume(config["radix"] <= config["n1"])
    topo = radix_regular_rfc(
        config["radix"], config["n1"], config["levels"], rng=config["seed"]
    )
    if topo.num_leaves < 2:
        return
    sim = _build_sim(topo, None, valiant=True, minimal=config["minimal"])
    assert_routes_match_oracle(sim, via=True)


def test_csr_table_from_pure_python_router():
    """A router built without the numpy kernels packs its big-int
    tables on demand; the route state must not depend on which path
    built them."""
    topo = radix_regular_rfc(6, 8, 3, rng=4)
    sim = _build_sim(topo, topo.links()[:2])
    accel_masks = sim.router.packed_reach()
    sim.router = UpDownRouter(
        sim.router.level_sizes, sim.router._up, accel=False
    )
    for fast, slow in zip(accel_masks, sim.router.packed_reach()):
        assert [m.tolist() for m in fast] == [m.tolist() for m in slow]
    assert_routes_match_oracle(sim)


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
    """Rows are listed on first read only, as plain ``int`` lists: a
    key's candidates, ``[]`` at its own leaf, ``None`` when the pair is
    unroutable."""
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    sim = _build_sim(topo, topo.links()[::3])
    routes = build_candidate_table(sim)
    rows = CandidateRows(routes)
    assert len(rows) == 0  # nothing is listed before it is read
    n_leaves = routes.num_leaves
    # Keys are ``switch * leaves + leaf``; ``ascent`` is leaf-major.
    unroutable = np.flatnonzero(routes.ascent[:, :-1].T == routes.no_route)
    assert unroutable.size
    assert rows[int(unroutable[0])] is None
    assert rows[3 * n_leaves + 3] == []
    src, dst = np.argwhere(routes.routable & ~np.eye(n_leaves, dtype=bool))[0]
    routed = rows[int(src) * n_leaves + int(dst)]
    assert routed and all(type(c) is int for c in routed)
    assert len(rows) == 3


def test_candidate_rows_match_simulator_table():
    """On a faulted RFC (routed, delivered and unroutable keys), the
    rows read in scrambled order equal the relaxed engine's per-head
    rows without their dummy padding, and ``None`` marks exactly the
    all-dummy rows that do not deliver."""
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    sim = Simulator(
        topo,
        make_traffic("uniform", topo.num_terminals, rng=1),
        0.5,
        SimulationParams(),
        topo.links()[::3],
    )
    routes = build_candidate_table(sim)
    n_keys = topo.num_switches * routes.num_leaves
    switches, leaves = np.divmod(np.arange(n_keys), routes.num_leaves)
    matrix = routes.candidate_matrix(switches, leaves).tolist()
    rows = CandidateRows(routes)
    keys = list(range(n_keys))
    random.Random(5).shuffle(keys)
    for key in keys:
        listed = [c for c in matrix[key] if c != routes.dummy]
        if rows[key] is None:
            assert listed == [] and switches[key] != leaves[key]
        else:
            assert rows[key] == listed
