"""SimulationParams validation tests."""

import pytest

from repro.simulation.config import SimulationParams


class TestDefaults:
    def test_paper_table2(self):
        params = SimulationParams()
        assert params.measure_cycles == 10_000
        assert params.virtual_channels == 4
        assert params.buffer_packets == 4
        assert params.packet_phits == 16
        assert params.link_latency == 1
        assert params.minimal_routing

    def test_horizon(self):
        params = SimulationParams(measure_cycles=100, warmup_cycles=20)
        assert params.horizon == 120


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("measure_cycles", 0),
            ("warmup_cycles", -1),
            ("virtual_channels", 0),
            ("buffer_packets", 0),
            ("packet_phits", 0),
            ("link_latency", 0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SimulationParams(**{field: value})


class TestUpSelection:
    def test_accepts_known_modes(self):
        assert SimulationParams(up_selection="adaptive").up_selection == (
            "adaptive"
        )

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            SimulationParams(up_selection="round-robin")

    def test_valiant_vc_validation(self):
        with pytest.raises(ValueError):
            SimulationParams(valiant=True, virtual_channels=1)
        assert SimulationParams(valiant=True, virtual_channels=2).valiant


class TestScaled:
    def test_replaces_fields(self):
        params = SimulationParams().scaled(measure_cycles=500, seed=7)
        assert params.measure_cycles == 500
        assert params.seed == 7
        assert params.packet_phits == 16

    def test_frozen(self):
        params = SimulationParams()
        with pytest.raises(Exception):
            params.seed = 3  # type: ignore[misc]


class TestEngineSelection:
    """``rng_mode`` is the one engine selector of ``Simulator.run``."""

    def _engine_run_by(self, rfc_small, monkeypatch, **overrides):
        import repro.accel.relaxed as relaxed
        import repro.simulation.fastpath as fastpath
        from repro.simulation.engine import Simulator
        from repro.simulation.traffic import make_traffic

        monkeypatch.setattr(fastpath, "run_fast", lambda sim: "fast")
        monkeypatch.setattr(relaxed, "run_relaxed", lambda sim: "relaxed")
        traffic = make_traffic("uniform", rfc_small.num_terminals, rng=0)
        params = SimulationParams(measure_cycles=10, **overrides)
        return Simulator(rfc_small, traffic, 0.5, params).run()

    def test_default_is_fast(self, rfc_small, monkeypatch):
        assert SimulationParams().rng_mode == "exact"
        assert self._engine_run_by(rfc_small, monkeypatch) == "fast"

    def test_relaxed_mode_resolves_to_relaxed_engine(
        self, rfc_small, monkeypatch
    ):
        assert self._engine_run_by(
            rfc_small, monkeypatch, rng_mode="relaxed"
        ) == "relaxed"

    def test_unknown_engine_names_the_allowed_ones(self):
        with pytest.raises(ValueError, match="'exact' or 'relaxed'"):
            SimulationParams(rng_mode="vectorized")

    def test_removed_fast_path_field_is_rejected(self):
        with pytest.raises(TypeError):
            SimulationParams(fast_path=False)

    def test_removed_engine_field_is_rejected(self):
        with pytest.raises(TypeError):
            SimulationParams(engine="reference")
