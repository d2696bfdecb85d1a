"""Flat candidate tables for the simulator's fast engines.

:class:`CsrTable` holds every (source, destination) pair's routing
answer -- its candidate list plus a DELIVER / UNROUTABLE flag -- in a
few flat numpy arrays; :mod:`repro.simulation.fastpath` builds one per
run from the up/down router, and the exact and relaxed engines read it
instead of calling the router per hop.  :class:`CandidateRows` lists
a table's rows as Python lists on first read, for the exact engine's
scalar hot loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CandidateRows", "CsrTable"]


class CsrTable:
    """CSR-flattened per-(source, destination) candidate lists.

    The hop-by-hop routers answer ``next_hops(source, dest)`` with a
    freshly built Python list on every call; the simulator's fast path
    (:mod:`repro.simulation.fastpath`) instead precomputes every answer
    once into two flat arrays:

    * ``offsets`` -- shape ``(num_sources * num_dests + 1,)``,
      ``int64``: the candidates of key ``k = source * num_dests +
      dest`` live in ``values[offsets[k]:offsets[k + 1]]``.  Offsets
      index the *concatenation* of every candidate list, a count that
      grows past ``2**31`` near a million terminals, so they must be
      wide even while the values stay ``int32``;
    * ``values`` -- the concatenated candidate ids (next-hop switches
      or output channel ids, depending on the builder);

    plus a ``uint8`` ``flags`` array (one entry per key) classifying
    each pair: :data:`ROUTE` (use the candidate slice), :data:`DELIVER`
    (source *is* the destination -- eject locally, slice empty) or
    :data:`UNROUTABLE` (no route survives -- slice empty).
    """

    ROUTE = 0
    DELIVER = 1
    UNROUTABLE = 2

    def __init__(
        self,
        num_sources: int,
        num_dests: int,
        offsets: np.ndarray,
        values: np.ndarray,
        flags: np.ndarray,
    ) -> None:
        if offsets.shape != (num_sources * num_dests + 1,):
            raise ValueError("offsets must have one entry per key plus one")
        if flags.shape != (num_sources * num_dests,):
            raise ValueError("flags must have one entry per key")
        self.num_sources = num_sources
        self.num_dests = num_dests
        self.offsets = offsets
        self.values = values
        self.flags = flags

    def key(self, source: int, dest: int) -> int:
        return source * self.num_dests + dest

    def flag(self, source: int, dest: int) -> int:
        return int(self.flags[self.key(source, dest)])

    def candidates(self, source: int, dest: int) -> np.ndarray:
        """Candidate slice for one pair (empty for DELIVER/UNROUTABLE)."""
        key = self.key(source, dest)
        return self.values[self.offsets[key]:self.offsets[key + 1]]


class CandidateRows(dict):
    """Per-key candidate lists of a :class:`CsrTable`, built on first read.

    ``rows[key]`` is the Python list of the key's candidates for ROUTE
    and DELIVER keys and ``None`` for UNROUTABLE ones (the exact engine
    replays the reference router on a ``None`` hit, so a routing failure
    raises the same :class:`~repro.routing.updown.RoutingError` the
    reference engine would).  Scalar-indexing numpy arrays from Python
    is slower than a dict hit, so the exact run loop reads rows from
    here while the arrays stay the canonical representation.  A row is
    sliced out of the arrays the first time its key is read and kept:
    a run reads a fraction of the keys (about a fifth of a 2048-terminal
    RFC's under uniform traffic), so eagerly listing every key would
    mostly build lists nobody reads.
    """

    __slots__ = ("_table",)

    def __init__(self, table: CsrTable) -> None:
        super().__init__()
        self._table = table

    def __missing__(self, key: int) -> list[int] | None:
        table = self._table
        if table.flags[key] == CsrTable.UNROUTABLE:
            row = None
        else:
            row = table.values[
                table.offsets[key] : table.offsets[key + 1]
            ].tolist()
        self[key] = row
        return row
