"""Counter-based per-packet RNG for the relaxed engine.

The exact engines share one sequential ``random.Random`` stream, so a
draw's value depends on every draw before it -- the property that
serializes arbitration (docs/PERFORMANCE.md) and keeps the exact
engines from batching random decisions.  This module replaces the stream with a
**stateless keyed hash**: every draw is a pure function of

``(seed, packet_id, cycle, draw_site)``

so any set of draws can be evaluated in any order -- or all at once as
a numpy batch -- and still be deterministic for a given seed.  That is
the Philox/counter-based design (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3"), realized here with the SplitMix64
finalizer (Stafford's mix13) instead of Philox rounds: two chained
finalizer applications over 64-bit lanes are cheap in numpy (shifts,
xors and wrapping multiplies) and pass the statistical bar this engine
needs -- the equivalence harness in
``tests/test_relaxed_rng_equivalence.py`` checks the *simulation
outputs*, and ``tests/test_counter_rng.py`` checks the generator
itself (uniformity, stream independence, golden-vector stability).

Key derivation::

    hseed = mix64(seed ^ GOLDEN_GAMMA)          # once per run
    ckey  = (cycle << SITE_BITS) | site         # counter word
    value = mix64(mix64(hseed ^ packet_id) ^ ckey)

The scalar (Python int) and vectorized (``np.uint64``) forms are
bit-for-bit identical -- pinned by golden vectors in
``tests/data/counter_rng_golden.json`` so a platform or numpy change
that altered the outputs would fail loudly.

``randbelow`` reduces by modulo rather than rejection: the bias is
below ``n / 2**64`` (draw bounds here are single-digit fan-outs), and
unlike rejection it is branch-free and batchable.  ``uniform01`` uses
the top 53 bits, the same construction as ``random.Random.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "GOLDEN_GAMMA",
    "KeyedStream",
    "SITE_BITS",
    "SITE_DEST",
    "SITE_GAP",
    "SITE_GRANT",
    "SITE_REQUEST",
    "SITE_TRAFFIC",
    "SITE_VC",
    "SITE_VIA",
    "counter_key",
    "draw64",
    "draw64_array",
    "key_seed",
    "mix64",
    "mix64_array",
    "randbelow",
    "uniform01",
    "uniform01_array",
]

_MASK64 = (1 << 64) - 1

#: Weyl-sequence increment of SplitMix64 (2**64 / golden ratio).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

#: Draw-site tags: two draws in the same cycle for the same packet get
#: distinct counters by construction.  Three bits leave room to grow.
SITE_BITS = 3
SITE_REQUEST = 0  #: output-candidate pick when requesting arbitration
SITE_GRANT = 1  #: per-output grant priority among contenders
SITE_VC = 2  #: downstream virtual-channel pick at grant time
SITE_GAP = 3  #: Bernoulli inter-arrival gap (keyed by terminal)
SITE_DEST = 4  #: uniform destination draw (keyed by terminal)
SITE_VIA = 5  #: Valiant intermediate-terminal retry (keyed by serial)
SITE_TRAFFIC = 6  #: stateful traffic-pattern stream (keyed by terminal)

_U64 = np.uint64
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)
_S11 = _U64(11)
_NPMUL1 = _U64(_MUL1)
_NPMUL2 = _U64(_MUL2)
_INV53 = 2.0**-53


def mix64(x: int) -> int:
    """SplitMix64 finalizer (Stafford mix13) on a 64-bit lane."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MUL1) & _MASK64
    x ^= x >> 27
    x = (x * _MUL2) & _MASK64
    return x ^ (x >> 31)


def key_seed(seed: int) -> int:
    """Pre-mixed run key for ``seed`` (compute once per run)."""
    return mix64((seed & _MASK64) ^ GOLDEN_GAMMA)


def counter_key(cycle: int, site: int) -> int:
    """Pack ``(cycle, draw_site)`` into one counter word."""
    return (cycle << SITE_BITS) | site


def draw64(hseed: int, packet_id: int, ckey: int) -> int:
    """One keyed 64-bit draw: ``mix64(mix64(hseed ^ id) ^ ckey)``."""
    x = (hseed ^ (packet_id & _MASK64)) & _MASK64
    x ^= x >> 30
    x = (x * _MUL1) & _MASK64
    x ^= x >> 27
    x = (x * _MUL2) & _MASK64
    x ^= x >> 31
    x ^= ckey & _MASK64
    x ^= x >> 30
    x = (x * _MUL1) & _MASK64
    x ^= x >> 27
    x = (x * _MUL2) & _MASK64
    return x ^ (x >> 31)


def randbelow(hseed: int, packet_id: int, ckey: int, n: int) -> int:
    """Keyed draw in ``[0, n)`` (modulo reduction, bias < n / 2**64)."""
    return draw64(hseed, packet_id, ckey) % n


def uniform01(hseed: int, packet_id: int, ckey: int) -> float:
    """Keyed draw in ``[0, 1)`` with 53 random bits."""
    return (draw64(hseed, packet_id, ckey) >> 11) * _INV53


def mix64_array(x: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """Vectorized :func:`mix64`; wrapping uint64 arithmetic."""
    x = x ^ (x >> _S30)
    x = x * _NPMUL1
    x = x ^ (x >> _S27)
    x = x * _NPMUL2
    return x ^ (x >> _S31)


def draw64_array(
    hseed: int,
    packet_ids: NDArray[np.uint64],
    ckeys: int | NDArray[np.uint64],
) -> NDArray[np.uint64]:
    """Vectorized :func:`draw64` over packet-id / counter lanes.

    ``ckeys`` may be a scalar (one cycle/site for the whole batch) or
    an array broadcastable against ``packet_ids``.  Bit-for-bit equal
    to the scalar form, which the golden-vector suite pins.
    """
    ck = ckeys if isinstance(ckeys, np.ndarray) else _U64(ckeys)
    return mix64_array(mix64_array(_U64(hseed) ^ packet_ids) ^ ck)


def uniform01_array(
    hseed: int,
    packet_ids: NDArray[np.uint64],
    ckeys: int | NDArray[np.uint64],
) -> NDArray[np.float64]:
    """Vectorized :func:`uniform01`."""
    out: NDArray[np.float64] = (
        draw64_array(hseed, packet_ids, ckeys) >> _S11
    ).astype(np.float64)
    out *= _INV53
    return out


class KeyedStream:
    """Sequential sub-draws under one ``(packet, cycle, site)`` key.

    Stateful traffic patterns (locality, shuffle, ...) consume a
    variable number of draws per destination; handing them one keyed
    counter would collapse those draws onto the same value.  This
    adapter seeds a tiny SplitMix64 walk from the keyed draw and
    duck-types the ``random.Random`` surface the patterns use, so a
    ``destination(source, rng)`` call sees an independent stream per
    ``(seed, terminal, cycle)`` while staying a pure function of the
    key.
    """

    __slots__ = ("_x",)

    def __init__(self, hseed: int, packet_id: int, ckey: int) -> None:
        self._x = draw64(hseed, packet_id, ckey)

    def _next(self) -> int:
        self._x = (self._x + GOLDEN_GAMMA) & _MASK64
        return mix64(self._x)

    def random(self) -> float:
        """Uniform in ``[0, 1)`` (53 bits)."""
        return (self._next() >> 11) * _INV53

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        return self._next() % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in ``[a, b]`` (inclusive, stdlib semantics)."""
        return a + self._next() % (b - a + 1)

    def choice(self, seq):  # type: ignore[no-untyped-def]
        """Uniform element of a non-empty sequence."""
        return seq[self._next() % len(seq)]

    def getrandbits(self, k: int) -> int:
        """``k`` random bits (top bits of the next word)."""
        return self._next() >> (64 - k)

    def shuffle(self, seq) -> None:  # type: ignore[no-untyped-def]
        """Fisher-Yates in place, mirroring ``random.shuffle``."""
        for i in range(len(seq) - 1, 0, -1):
            j = self._next() % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]
