"""Topology serialization: JSON round-trip, edge lists, Graphviz DOT.

Operators deploying an RFC need the concrete random wiring -- unlike a
CFT it cannot be regenerated from parameters alone (a new sample is a
different network).  This module persists instances:

* :func:`to_json` / :func:`from_json` -- lossless round-trip for both
  :class:`FoldedClos` and :class:`DirectNetwork` (format version
  checked);
* :func:`to_edge_list` -- flat ``a b`` switch-id pairs for external
  tools;
* :func:`to_dot` -- Graphviz with levels as ranks, for small diagrams.
"""

from __future__ import annotations

import json
from pathlib import Path

from .base import DirectNetwork, FoldedClos, NetworkError

__all__ = [
    "to_json",
    "from_json",
    "save",
    "load",
    "to_edge_list",
    "to_dot",
]

FORMAT_VERSION = 1


def to_json(network: FoldedClos | DirectNetwork) -> str:
    """Serialize a topology to a JSON string (format version 1)."""
    if isinstance(network, FoldedClos):
        payload = {
            "format": FORMAT_VERSION,
            "kind": "folded-clos",
            "name": network.name,
            "radix": network.radix,
            "hosts_per_leaf": network.hosts_per_leaf,
            "level_sizes": network.level_sizes,
            "up_adjacency": [
                [
                    list(network.up_neighbors(level, s))
                    for s in range(network.level_sizes[level])
                ]
                for level in range(network.num_levels - 1)
            ],
        }
    elif isinstance(network, DirectNetwork):
        payload = {
            "format": FORMAT_VERSION,
            "kind": "direct",
            "name": network.name,
            "hosts_per_switch": network.hosts_per_switch,
            "adjacency": [list(row) for row in network.adjacency()],
        }
    else:
        raise NetworkError(f"cannot serialize {type(network).__name__}")
    return json.dumps(payload, separators=(",", ":"))


_SHAPES = (
    "an integer",
    "a list of integers",
    "a list of integer lists",
    "a list of lists of integer lists",
)


def _nested_ints(value, depth: int) -> bool:
    """Whether ``value`` is ``depth`` levels of lists around ints."""
    if depth == 0:
        return type(value) is int  # JSON true/false are not sizes
    return isinstance(value, list) and all(
        _nested_ints(item, depth - 1) for item in value
    )


def _field(payload: dict, key: str, depth: int):
    """``payload[key]``, checked to be ``depth`` lists deep of ints."""
    if key not in payload:
        raise NetworkError(f"topology JSON lacks field {key!r}")
    value = payload[key]
    if not _nested_ints(value, depth):
        raise NetworkError(f"topology JSON field {key!r} must be {_SHAPES[depth]}")
    return value


def _name(payload: dict, default: str) -> str:
    name = payload.get("name", default)
    if not isinstance(name, str):
        raise NetworkError("topology JSON field 'name' must be a string")
    return name


def from_json(text: str) -> FoldedClos | DirectNetwork:
    """Rebuild a topology from :func:`to_json` output.

    Raises :class:`json.JSONDecodeError` on text that is not JSON and
    :class:`NetworkError` on JSON that is not a topology: not an
    object, wrong format version or kind, a missing or wrongly typed
    field (named in the message), or wiring the topology rejects.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise NetworkError(
            f"topology JSON must be an object, got {type(payload).__name__}"
        )
    version = payload.get("format")
    if version != FORMAT_VERSION:
        raise NetworkError(
            f"unsupported topology format {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    kind = payload.get("kind")
    if kind == "folded-clos":
        return FoldedClos(
            _field(payload, "level_sizes", 1),
            _field(payload, "up_adjacency", 3),
            hosts_per_leaf=_field(payload, "hosts_per_leaf", 0),
            radix=_field(payload, "radix", 0),
            name=_name(payload, "folded-clos"),
        )
    if kind == "direct":
        return DirectNetwork(
            _field(payload, "adjacency", 2),
            hosts_per_switch=_field(payload, "hosts_per_switch", 0),
            name=_name(payload, "direct"),
        )
    raise NetworkError(f"unknown topology kind {kind!r}")


def save(network: FoldedClos | DirectNetwork, path: str | Path) -> None:
    """Write :func:`to_json` output to a file."""
    Path(path).write_text(to_json(network))


def load(path: str | Path) -> FoldedClos | DirectNetwork:
    """Read a topology previously written by :func:`save`."""
    return from_json(Path(path).read_text())


def to_edge_list(network: FoldedClos | DirectNetwork) -> str:
    """Flat switch-to-switch edge list, one ``lo hi`` pair per line."""
    return "\n".join(f"{link.lo} {link.hi}" for link in network.links())


def to_dot(network: FoldedClos | DirectNetwork) -> str:
    """Graphviz DOT; folded Clos levels become ``rank=same`` groups."""
    lines = [f'graph "{network.name}" {{']
    if isinstance(network, FoldedClos):
        for level in range(network.num_levels):
            ids = " ".join(
                str(network.switch_id(level, s))
                for s in range(network.level_sizes[level])
            )
            lines.append(f"  {{ rank=same; {ids} }}")
    for link in network.links():
        lines.append(f"  {link.lo} -- {link.hi};")
    lines.append("}")
    return "\n".join(lines)
