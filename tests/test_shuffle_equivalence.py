"""The array-order kernels against their Python twins.

``shuffled_range`` must give the permutation of
``random.Random.shuffle(list(range(n)))`` and leave the generator in
the same state; ``stable_order`` must give ``np.argsort(kind="stable")``.
"""

import random

import numpy as np
import pytest

from repro.accel.generate import random_bipartite_csr, random_regular_csr
from repro.accel.order import shuffled_range, stable_order
from repro.topologies.random_graphs import GenerationError

SIZES = [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 4095, 4096, 4097, 70000]


def _python_shuffle(rand: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rand.shuffle(perm)
    return perm


class TestShuffledRange:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_random_shuffle(self, n):
        for seed in range(40):
            expected_rand = random.Random(seed)
            rand = random.Random(seed)
            got = shuffled_range(rand, n)
            assert got.dtype == np.int32
            assert got.tolist() == _python_shuffle(expected_rand, n)
            assert rand.getstate() == expected_rand.getstate()

    def test_generator_that_has_drawn(self):
        for seed in range(40):
            rand, expected_rand = random.Random(seed), random.Random(seed)
            for r in (rand, expected_rand):
                r.random()
                r.getrandbits(7 * seed + 1)
            got = shuffled_range(rand, 1000 + seed)
            assert got.tolist() == _python_shuffle(expected_rand, 1000 + seed)
            assert rand.getstate() == expected_rand.getstate()
            assert rand.random() == expected_rand.random()

    def test_keeps_gauss_next(self):
        rand, expected_rand = random.Random(11), random.Random(11)
        rand.gauss(0.0, 1.0)
        expected_rand.gauss(0.0, 1.0)
        assert rand.getstate()[2] is not None
        got = shuffled_range(rand, 5000)
        assert got.tolist() == _python_shuffle(expected_rand, 5000)
        assert rand.getstate() == expected_rand.getstate()
        assert rand.gauss(0.0, 1.0) == expected_rand.gauss(0.0, 1.0)

    def test_successive_calls_share_the_stream(self):
        rand, expected_rand = random.Random(4), random.Random(4)
        for n in (300, 2, 70000, 1, 513):
            got = shuffled_range(rand, n)
            assert got.tolist() == _python_shuffle(expected_rand, n)
        assert rand.getstate() == expected_rand.getstate()

    @pytest.mark.parametrize("seed", [None, 0, 9])
    def test_accepts_seeds(self, seed):
        if seed is None:
            assert sorted(shuffled_range(None, 50).tolist()) == list(range(50))
        else:
            expected = _python_shuffle(random.Random(seed), 50)
            assert shuffled_range(seed, 50).tolist() == expected

    @pytest.mark.parametrize(
        "rng",
        [
            random.SystemRandom(),
            np.random.default_rng(1),
            "seed",
            1.5,
        ],
        ids=["random-subclass", "numpy-generator", "str", "float"],
    )
    def test_other_generators_raise_type_error(self, rng):
        with pytest.raises(TypeError, match="random.Random"):
            shuffled_range(rng, 10)

    @pytest.mark.parametrize("n", [-1, 2**31, 2**40])
    def test_size_outside_int32_raises_value_error(self, n):
        rand = random.Random(2)
        before = rand.getstate()
        with pytest.raises(ValueError, match="2\\*\\*31"):
            shuffled_range(rand, n)
        assert rand.getstate() == before


class TestStableOrder:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_matches_stable_argsort_with_duplicates(self, dtype):
        gen = np.random.default_rng(3)
        for size in (1, 2, 17, 1000, 40000):
            for high in (1, 3, 50, 10**6):
                key = gen.integers(0, high, size).astype(dtype)
                order, sorted_keys = stable_order(key)
                expected = np.argsort(key, kind="stable")
                np.testing.assert_array_equal(order, expected)
                np.testing.assert_array_equal(sorted_keys, key[expected])

    def test_negative_and_wide_keys(self):
        gen = np.random.default_rng(8)
        key = gen.integers(-(2**40), 2**40, 5000)
        key[::7] = -1
        order, sorted_keys = stable_order(key)
        np.testing.assert_array_equal(order, np.argsort(key, kind="stable"))
        np.testing.assert_array_equal(sorted_keys, np.sort(key))

    def test_empty(self):
        order, sorted_keys = stable_order(np.zeros(0, dtype=np.int64))
        assert order.size == 0 and sorted_keys.size == 0

    def test_bit_width_guard(self):
        # Three positions take 2 bits: a 61-bit key range still packs.
        fits = np.array([2**61 - 1, 0, 5], dtype=np.int64)
        order, _ = stable_order(fits)
        assert order.tolist() == [1, 2, 0]
        with pytest.raises(ValueError, match="63 bits"):
            stable_order(np.array([2**61, 0, 5], dtype=np.int64))
        # The range counts, not the magnitude.
        shifted = np.array([2**62, 2**62 + 3, 2**62 + 1], dtype=np.int64)
        assert stable_order(shifted)[0].tolist() == [0, 2, 1]

    def test_generators_refuse_sizes_past_the_guard(self):
        # Raised before anything is allocated.
        with pytest.raises(GenerationError, match="63"):
            random_bipartite_csr(2**22, 32, 2**22, 32, rng=1)
        with pytest.raises(GenerationError, match="63"):
            random_regular_csr(2**22, 32, rng=1)
