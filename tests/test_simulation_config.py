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
    def test_default_is_fast(self):
        params = SimulationParams()
        assert params.engine == "fast"
        assert params.engine_name == "fast"

    def test_relaxed_mode_resolves_to_relaxed_engine(self):
        assert SimulationParams(rng_mode="relaxed").engine_name == "relaxed"

    def test_unknown_engine_names_the_allowed_ones(self):
        with pytest.raises(ValueError, match="'fast' or 'reference'"):
            SimulationParams(engine="vectorized")

    def test_removed_fast_path_field_is_rejected(self):
        with pytest.raises(TypeError):
            SimulationParams(fast_path=False)

    def test_relaxed_mode_refuses_reference_engine(self):
        with pytest.raises(ValueError, match="exact-only"):
            SimulationParams(rng_mode="relaxed", engine="reference")
