"""The uniform bit draw, and bit vectors for the demos and tests.

Every register, slice, report, share, fixed lie and audited secret is a
plain Python int whose width the config fixes; bit j is the j-th least
significant bit, and segment i of an n*m-bit word occupies bit positions
i*m .. i*m+m-1, segment 0 being least significant.  A BitVector carries its
width with its value; the library builds one only in
`protocol.random_secret`.  Its textual form, like a fixed lie's in a
config, is written most-significant bit first, so "1101" has bit 0 = 1 and
bit 2 = 1.
"""

from __future__ import annotations


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


class CapacityError(ValueError):
    """Requested enumeration or state size exceeds the configured bound."""


# cip_census enumerates 2**p vectors; refuse anything larger.
ENUMERATION_BOUND = 20


def random_bits(length: int, rng) -> int:
    """A uniform length-bit int drawn from a numpy Generator.

    Whole 64-bit words come straight from the bit generator:
    `Generator.bytes` goes through `Generator.integers` and costs about
    ten times as much.
    """
    raw = rng.bit_generator.random_raw((length + 63) // 64)
    return int.from_bytes(raw.tobytes(), "little") & ((1 << length) - 1)


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
    def zeros(cls, length: int) -> "BitVector":
        return cls(0, length)

    @classmethod
    def random(cls, length: int, rng) -> "BitVector":
        """Uniform vector drawn from a numpy Generator."""
        return cls(random_bits(length, rng), length)

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
