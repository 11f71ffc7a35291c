"""Bit vectors and the n-by-m segment algebra used across the protocol stack.

A BitVector is an immutable sequence of p bits backed by a Python int.
Bit j is the j-th least significant bit; the textual form is written
most-significant bit first, so "1101" has bit 0 = 1 and bit 2 = 1.
Segment i of an n*m-bit vector occupies bit positions i*m .. i*m+m-1,
segment 0 being least significant.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


class CapacityError(ValueError):
    """Requested enumeration or state size exceeds the configured bound."""


# cip_census enumerates 2**p vectors; refuse anything larger.
ENUMERATION_BOUND = 20


class BitVector:
    """Immutable vector of bits of fixed positive length."""

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int):
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        if value < 0 or value >> length:
            raise ValueError(f"value {value:#x} does not fit in {length} bits")
        self._value = value
        self._length = length

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse the MSB-first literal form, e.g. "1101"."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bit-vector literal: {text!r}")
        return cls(int(text, 2), len(text))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Build from bits listed least-significant first."""
        bits = list(bits)
        value = 0
        for j, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit {j} is {b!r}, expected 0 or 1")
            value |= b << j
        return cls(value, len(bits))

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(0, length)

    @classmethod
    def random(cls, length: int, rng) -> "BitVector":
        """Uniform vector drawn from a numpy Generator.

        Whole 64-bit words come straight from the bit generator:
        `Generator.bytes` goes through `Generator.integers` and costs about
        ten times as much.
        """
        raw = rng.bit_generator.random_raw((length + 63) // 64)
        value = int.from_bytes(raw.tobytes(), "little")
        return cls(value & ((1 << length) - 1), length)

    @property
    def value(self) -> int:
        return self._value

    @property
    def length(self) -> int:
        return self._length

    def bit(self, j: int) -> int:
        if not 0 <= j < self._length:
            raise IndexError(f"bit index {j} out of range for length {self._length}")
        return (self._value >> j) & 1

    def bits(self) -> list[int]:
        """Bits listed least-significant first."""
        return [(self._value >> j) & 1 for j in range(self._length)]

    def is_zero(self) -> bool:
        return self._value == 0

    def weight(self) -> int:
        return self._value.bit_count()

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self._length != other._length:
            raise DimensionError(
                f"xor of lengths {self._length} and {other._length}"
            )
        return BitVector(self._value ^ other._value, self._length)

    def dot(self, other: "BitVector") -> int:
        """Inner product modulo 2: XOR of the bitwise products."""
        if self._length != other._length:
            raise DimensionError(
                f"inner product of lengths {self._length} and {other._length}"
            )
        return (self._value & other._value).bit_count() & 1

    def __str__(self) -> str:
        return format(self._value, f"0{self._length}b")

    def __repr__(self) -> str:
        return f"BitVector('{self}')"


class SegmentedVector:
    """An n*m-bit vector viewed as n segments of m bits each."""

    __slots__ = ("_base", "_n", "_m")

    def __init__(self, base: BitVector, n: int, m: int):
        if n <= 0 or m <= 0:
            raise ValueError(f"need positive segment counts, got n={n}, m={m}")
        if base.length != n * m:
            raise DimensionError(
                f"base length {base.length} != n*m = {n * m}"
            )
        self._base = base
        self._n = n
        self._m = m

    @property
    def base(self) -> BitVector:
        return self._base

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def segment(self, i: int) -> BitVector:
        if not 0 <= i < self._n:
            raise IndexError(f"segment index {i} out of range for n={self._n}")
        mask = (1 << self._m) - 1
        return BitVector((self._base.value >> (i * self._m)) & mask, self._m)

    def segments(self) -> list[BitVector]:
        return [self.segment(i) for i in range(self._n)]


def extend_segment(s_i: BitVector, i: int, n: int) -> BitVector:
    """Place an m-bit vector into segment i of an otherwise-zero n*m vector."""
    if not 0 <= i < n:
        raise IndexError(f"segment index {i} out of range for n={n}")
    m = s_i.length
    return BitVector(s_i.value << (i * m), n * m)


def concat_segments(parts: Sequence[BitVector]) -> BitVector:
    """Concatenate so that the result's segment i equals parts[i]."""
    if not parts:
        raise ValueError("need at least one segment")
    m = parts[0].length
    value = 0
    for i, part in enumerate(parts):
        if part.length != m:
            raise DimensionError(
                f"segment {i} has length {part.length}, expected {m}"
            )
        value |= part.value << (i * m)
    return BitVector(value, len(parts) * m)


def cip_census(c: BitVector, p: int | None = None) -> tuple[int, int]:
    """Count x in {0,1}^p with c.x = 0 and c.x = 1, by full enumeration.

    For nonzero c the counts are balanced (2^(p-1) each); for c = 0 every
    inner product vanishes.
    """
    if p is None:
        p = c.length
    elif p != c.length:
        raise DimensionError(f"census length {p} != vector length {c.length}")
    if p > ENUMERATION_BOUND:
        raise CapacityError(
            f"census over 2^{p} vectors exceeds bound 2^{ENUMERATION_BOUND}"
        )
    ones = 0
    cv = c.value
    for x in range(1 << p):
        ones += (cv & x).bit_count() & 1
    return (1 << p) - ones, ones
