"""The uniform bit draw and the segment layout.

Every register, slice, report, share, fixed lie and audited secret is a
plain Python int whose width the config fixes; bit j is the j-th least
significant bit, and segment i of an n*m-bit word occupies bit positions
i*m .. i*m+m-1, segment 0 being least significant (`cut` and `join`, in
whole bytes wherever 8 divides m).  A fixed lie in a config is written
most-significant bit first, so "1101" has bit 0 = 1 and bit 2 = 1.
"""

from __future__ import annotations

import numpy as np


def random_bits(length: int, rng) -> int:
    """A uniform length-bit int drawn from a numpy Generator."""
    return random_words(1, length, rng)[0]


def random_words(count: int, length: int, rng) -> list[int]:
    """count uniform length-bit ints, each from its own whole 64-bit words.

    The words come straight from the bit generator in one `random_raw`
    call (`Generator.bytes` goes through `Generator.integers` and costs
    about ten times as much), and each int is one word or a slice of the
    words' bytes, so the cost is linear in the bits drawn.  count draws of
    one int each give the same stream.
    """
    return picked_words(count, length, rng, range(count))


def picked_words(count: int, length: int, rng, picks) -> list[int]:
    """The ints at `picks` of a `random_words(count, length, rng)` draw."""
    words = (length + 63) // 64
    raw = rng.bit_generator.random_raw(count * words)
    mask = (1 << length) - 1
    if words == 1:
        raw = raw.tolist()
        return [raw[i] & mask for i in picks]
    raw, size = raw.tobytes(), 8 * words
    return [int.from_bytes(raw[i * size:i * size + size], "little") & mask
            for i in picks]


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


def cut(word: int, count: int, m: int) -> list[int]:
    """The count m-bit segments of word, segment 0 first.  At 8, 16, 32 or
    64 bits they are one numpy array over the word's bytes, at any other
    multiple of 8 slices of those bytes, so the cost is linear in the word;
    widths that end mid-byte shift, one copy of the word per segment."""
    if m % 8:
        return [word >> (i * m) & ((1 << m) - 1) for i in range(count)]
    raw, size = word.to_bytes(count * m // 8, "little"), m // 8
    if m in _DTYPES:
        return np.frombuffer(raw, _DTYPES[m]).tolist()
    return [int.from_bytes(raw[at:at + size], "little")
            for at in range(0, len(raw), size)]


def join(segments: list[int], m: int) -> int:
    """The word whose m-bit segment i is segments[i]; see `cut`."""
    if m in _DTYPES:
        return int.from_bytes(np.array(segments, _DTYPES[m]).tobytes(), "little")
    if m % 8 == 0:
        return int.from_bytes(
            b"".join([v.to_bytes(m // 8, "little") for v in segments]), "little")
    return sum(v << (i * m) for i, v in enumerate(segments))


_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}  # little-endian
