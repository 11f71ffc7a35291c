#!/usr/bin/env python3
"""Bit strings as plain ints: XOR, inner products, segments as shifts, and
the balance property that makes the whole protocol tick."""

import numpy as np

from dpvqss.bitvec import random_bits

rng = np.random.default_rng(1)


def dot(c, x):
    """Inner product modulo 2: the parity of the bitwise AND."""
    return (c & x).bit_count() & 1


print("== Bit vectors ==")
x, y = 0b1011, 0b0110
print(f"x          = {x:04b}")
print(f"y          = {y:04b}")
print(f"x ^ y      = {x ^ y:04b}")
print(f"x . y      = {dot(x, y)}   (inner product mod 2)")

print()
print("== Segments ==")
# A 3-agent layout with 4-bit slices, as the protocol's phases hold it: one
# int, segment i in bits 4i .. 4i+3, so segment 0 is least significant.
n, m = 3, 4
mask = (1 << m) - 1
parts = [random_bits(m, rng) for _ in range(n)]
s = 0
for i, part in enumerate(parts):
    s |= part << (i * m)
print(f"slices (s2, s1, s0) = {parts[2]:0{m}b}, {parts[1]:0{m}b}, {parts[0]:0{m}b}")
print(f"aggregated          = {s:0{n * m}b}")
for i in range(n):
    print(f"  segment {i}         = {s >> (i * m) & mask:0{m}b}")

acc = 0
for i, part in enumerate(parts):
    acc ^= part << (i * m)
print(f"XOR of extended slices reproduces the aggregate: {acc == s}")

print()
print("== The balance property ==")
print("For any nonzero c, the inner product c.x splits {0,1}^p exactly in half:")
p = 4
for c in (0b0000, 0b0001, 0b1010, 0b1111):
    ones = sum(dot(c, x) for x in range(1 << p))
    print(f"  c = {c:0{p}b}: {(1 << p) - ones} vectors give 0, {ones} give 1")
print("This balance is why measuring one register alone reveals nothing,")
print("while the XOR of all registers pins down the encoded secret exactly.")
