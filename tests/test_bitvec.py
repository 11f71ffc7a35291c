import numpy as np
import pytest

from dpvqss.bitvec import (
    BitVector,
    CapacityError,
    DimensionError,
    cip_census,
)


def bv(text):
    return BitVector.from_string(text)


class TestBitVector:
    def test_literal_round_trip(self):
        v = bv("1101")
        assert str(v) == "1101"
        assert v.value == 0b1101
        assert len(v) == 4
        assert [v.bit(j) for j in range(4)] == [1, 0, 1, 1]

    def test_bit_indexing_is_lsb_first(self):
        v = bv("100")
        assert v.bit(0) == 0
        assert v.bit(2) == 1
        with pytest.raises(IndexError):
            v.bit(3)

    def test_rejects_bad_literals(self):
        with pytest.raises(ValueError):
            BitVector.from_string("10x1")
        with pytest.raises(ValueError):
            BitVector.from_string("")
        with pytest.raises(ValueError):
            BitVector(4, 2)
        with pytest.raises(ValueError):
            BitVector(0, 0)

    def test_random_is_seed_deterministic(self):
        a = BitVector.random(100, np.random.default_rng(7))
        b = BitVector.random(100, np.random.default_rng(7))
        assert a == b
        assert len(a) == 100


class TestInnerProduct:
    def test_direct_evaluation(self):
        # XOR-of-products formula evaluated by hand.
        assert bv("101").dot(bv("110")) == 1
        assert bv("111").dot(bv("111")) == 1

    def test_zero_vector_annihilates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = BitVector.random(9, rng)
            assert x.dot(BitVector.zeros(9)) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            bv("10").dot(bv("100"))

    def test_symmetric_and_linear(self):
        # Exhaustive at p = 4, randomized at larger lengths.
        for p in (1, 2, 3, 4):
            vecs = [BitVector(v, p) for v in range(1 << p)]
            for c in vecs:
                for x in vecs:
                    assert c.dot(x) == x.dot(c)
                    for y in vecs:
                        assert c.dot(x ^ y) == c.dot(x) ^ c.dot(y)
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = BitVector.random(12, rng)
            x = BitVector.random(12, rng)
            y = BitVector.random(12, rng)
            assert c.dot(x) == x.dot(c)
            assert c.dot(x ^ y) == c.dot(x) ^ c.dot(y)


class TestXor:
    def test_bitwise(self):
        assert bv("1010") ^ bv("0110") == bv("1100")

    def test_self_inverse_and_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = BitVector.random(16, rng)
            assert x ^ x == BitVector.zeros(16)
            assert x ^ BitVector.zeros(16) == x

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            bv("1") ^ bv("11")


class TestCipCensus:
    def test_zero_vector(self):
        assert cip_census(bv("00")) == (4, 0)

    def test_small_cases(self):
        assert cip_census(bv("11"), 2) == (2, 2)
        assert cip_census(bv("100"), 3) == (4, 4)

    def test_balanced_for_every_nonzero(self):
        for p in range(1, 13):
            assert cip_census(BitVector.zeros(p)) == (1 << p, 0)
        # Every nonzero c is balanced; exhaustive up to p = 8, spot checks at 12.
        for p in range(1, 9):
            for c in range(1, 1 << p):
                assert cip_census(BitVector(c, p)) == (1 << (p - 1),) * 2
        rng = np.random.default_rng(6)
        for _ in range(10):
            c = BitVector(int(rng.integers(1, 1 << 12)), 12)
            assert cip_census(c) == (2048, 2048)

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            cip_census(BitVector.zeros(21))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cip_census(bv("101"), 4)
