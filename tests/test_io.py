"""Topology serialization tests."""

import json

import pytest

from repro.topologies.base import NetworkError
from repro.topologies.io import (
    from_json,
    load,
    save,
    to_dot,
    to_edge_list,
    to_json,
)


class TestJsonRoundTrip:
    def test_folded_clos(self, rfc_medium):
        clone = from_json(to_json(rfc_medium))
        assert clone.level_sizes == rfc_medium.level_sizes
        assert clone.radix == rfc_medium.radix
        assert clone.hosts_per_leaf == rfc_medium.hosts_per_leaf
        assert clone.links() == rfc_medium.links()
        assert clone.name == rfc_medium.name

    def test_direct(self, rrn_16):
        clone = from_json(to_json(rrn_16))
        assert clone.adjacency() == rrn_16.adjacency()
        assert clone.hosts_per_switch == rrn_16.hosts_per_switch

    def test_cft_structurally_identical(self, cft_4_3):
        clone = from_json(to_json(cft_4_3))
        assert clone.is_radix_regular()
        assert clone.num_terminals == cft_4_3.num_terminals

    def test_rejects_wrong_version(self):
        payload = json.dumps({"format": 99, "kind": "direct"})
        with pytest.raises(NetworkError):
            from_json(payload)

    def test_rejects_unknown_kind(self):
        payload = json.dumps({"format": 1, "kind": "torus"})
        with pytest.raises(NetworkError):
            from_json(payload)

    def test_file_round_trip(self, tmp_path, rfc_small):
        path = tmp_path / "topo.json"
        save(rfc_small, path)
        clone = load(path)
        assert clone.links() == rfc_small.links()

    def test_routing_survives_round_trip(self, rfc_small):
        """A persisted RFC must route identically after reload."""
        from repro.routing.updown import UpDownRouter

        original = UpDownRouter.for_topology(rfc_small)
        clone = UpDownRouter.for_topology(from_json(to_json(rfc_small)))
        n1 = rfc_small.num_leaves
        for a in range(0, n1, 3):
            for b in range(0, n1, 5):
                assert original.path_length(a, b) == clone.path_length(a, b)


class TestRoundTripProperty:
    def test_random_rfcs_round_trip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.rfc import radix_regular_rfc
        from repro.topologies.io import from_json, to_json

        @settings(max_examples=15, deadline=None)
        @given(
            radix=st.sampled_from([4, 6, 8]),
            n1=st.sampled_from([8, 12, 16]),
            levels=st.sampled_from([2, 3]),
            seed=st.integers(0, 5_000),
        )
        def check(radix, n1, levels, seed):
            topo = radix_regular_rfc(radix, n1, levels, rng=seed)
            clone = from_json(to_json(topo))
            assert clone.links() == topo.links()
            assert clone.level_sizes == topo.level_sizes
            assert clone.is_radix_regular()

        check()


class TestTextFormats:
    def test_edge_list(self, cft_4_3):
        lines = to_edge_list(cft_4_3).splitlines()
        assert len(lines) == cft_4_3.num_links
        a, b = map(int, lines[0].split())
        assert a < b

    def test_dot_contains_ranks_and_edges(self, cft_4_3):
        dot = to_dot(cft_4_3)
        assert dot.count("rank=same") == cft_4_3.num_levels
        assert dot.count(" -- ") == cft_4_3.num_links
        assert dot.startswith("graph")

    def test_dot_direct_no_ranks(self, rrn_16):
        dot = to_dot(rrn_16)
        assert "rank=same" not in dot
        assert dot.count(" -- ") == rrn_16.num_links


def _json_values(max_int=40):
    """Arbitrary JSON values with small integers."""
    from hypothesis import strategies as st

    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-3, max_int)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=8)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )


class TestMalformedJson:
    """Bad input raises ``NetworkError`` naming what is wrong."""

    @pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
    def test_non_object(self, text):
        with pytest.raises(NetworkError, match="must be an object"):
            from_json(text)

    @pytest.mark.parametrize(
        "field", ["level_sizes", "up_adjacency", "hosts_per_leaf", "radix"]
    )
    def test_missing_folded_field(self, cft_4_3, field):
        payload = json.loads(to_json(cft_4_3))
        del payload[field]
        with pytest.raises(NetworkError, match=f"lacks field '{field}'"):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("field", ["adjacency", "hosts_per_switch"])
    def test_missing_direct_field(self, rrn_16, field):
        payload = json.loads(to_json(rrn_16))
        del payload[field]
        with pytest.raises(NetworkError, match=f"lacks field '{field}'"):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("level_sizes", [2, "x"]),
            ("level_sizes", 4),
            ("up_adjacency", [[[0, 1.5]]]),
            ("hosts_per_leaf", "2"),
            ("radix", True),
            ("name", 7),
        ],
    )
    def test_wrongly_typed_folded_field(self, cft_4_3, field, value):
        payload = json.loads(to_json(cft_4_3))
        payload[field] = value
        with pytest.raises(NetworkError, match=f"field '{field}'"):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "field, value",
        [("adjacency", [[1], None]), ("hosts_per_switch", [1])],
    )
    def test_wrongly_typed_direct_field(self, rrn_16, field, value):
        payload = json.loads(to_json(rrn_16))
        payload[field] = value
        with pytest.raises(NetworkError, match=f"field '{field}'"):
            from_json(json.dumps(payload))

    def test_fuzz_text(self):
        from hypothesis import given
        from hypothesis import strategies as st

        @given(st.text(max_size=40) | _json_values().map(json.dumps))
        def check(text):
            try:
                from_json(text)
            except (NetworkError, json.JSONDecodeError):
                pass

        check()

    def test_fuzz_mutated_payloads(self, cft_4_3, rfc_small, rrn_16):
        from hypothesis import given
        from hypothesis import strategies as st

        payloads = [json.loads(to_json(t)) for t in (cft_4_3, rfc_small, rrn_16)]

        @given(st.sampled_from(payloads), st.data())
        def check(original, data):
            payload = json.loads(json.dumps(original))
            # Walk a random path into the payload, then replace or
            # delete what is there.
            parent, key = None, None
            node = payload
            while isinstance(node, (dict, list)) and node:
                keys = sorted(node) if isinstance(node, dict) else range(len(node))
                parent, key = node, data.draw(st.sampled_from(list(keys)))
                node = parent[key]
                if data.draw(st.booleans()):
                    break
            if parent is not None:
                if data.draw(st.booleans()):
                    del parent[key]
                else:
                    parent[key] = data.draw(_json_values())
            try:
                from_json(json.dumps(payload))
            except NetworkError:
                pass

        check()
