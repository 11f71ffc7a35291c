"""The uniform bit draw.

Every register, slice, report, share, fixed lie and audited secret is a
plain Python int whose width the config fixes; bit j is the j-th least
significant bit, and segment i of an n*m-bit word occupies bit positions
i*m .. i*m+m-1, segment 0 being least significant.  A fixed lie in a config
is written most-significant bit first, so "1101" has bit 0 = 1 and bit 2 = 1.
"""

from __future__ import annotations


def random_bits(length: int, rng) -> int:
    """A uniform length-bit int drawn from a numpy Generator.

    Whole 64-bit words come straight from the bit generator:
    `Generator.bytes` goes through `Generator.integers` and costs about
    ten times as much.
    """
    raw = rng.bit_generator.random_raw((length + 63) // 64)
    return int.from_bytes(raw.tobytes(), "little") & ((1 << length) - 1)


class BitVector:
    """A length-bit value: only `protocol.random_secret` builds one, so that
    the bench harness can count its draw."""

    __slots__ = ("_value",)

    def __init__(self, value: int, length: int):
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        if value < 0 or value >> length:
            raise ValueError(f"value {value:#x} does not fit in {length} bits")
        self._value = value

    @property
    def value(self) -> int:
        return self._value
