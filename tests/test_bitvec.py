import numpy as np
import pytest

from dpvqss.bitvec import BitVector, random_bits

LENGTHS = [1, 63, 64, 65, 200]


class TestBitVector:
    def test_rejects_bad_literals(self):
        with pytest.raises(ValueError):
            BitVector(4, 2)
        with pytest.raises(ValueError):
            BitVector(-1, 2)
        with pytest.raises(ValueError):
            BitVector(0, 0)

    def test_random_is_seed_deterministic(self):
        # The draw `protocol.random_secret` makes.
        a = BitVector(random_bits(100, np.random.default_rng(7)), 100)
        b = BitVector(random_bits(100, np.random.default_rng(7)), 100)
        assert a.value == b.value


class TestRandomBits:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_low_bits_of_whole_raw_words(self, length):
        rng = np.random.default_rng(11)
        ref = np.random.default_rng(11).bit_generator
        words = -(-length // 64)
        values = []
        for _ in range(64):
            value = random_bits(length, rng)
            raw = int.from_bytes(ref.random_raw(words).tobytes(), "little")
            assert value == raw & ((1 << length) - 1)
            values.append(value)
        # Masked to length bits, and the top one is still drawn.
        assert all(0 <= v < 1 << length for v in values)
        assert any(v >> (length - 1) for v in values)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_seed_deterministic(self, length):
        draws = [random_bits(length, np.random.default_rng(5)) for _ in range(2)]
        assert draws[0] == draws[1]

    @pytest.mark.parametrize("length", LENGTHS)
    def test_advances_by_whole_words(self, length):
        rng = np.random.default_rng(9)
        ref = np.random.default_rng(9).bit_generator
        random_bits(length, rng)
        ref.random_raw(-(-length // 64))
        assert rng.bit_generator.state == ref.state
