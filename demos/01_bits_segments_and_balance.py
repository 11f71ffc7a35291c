#!/usr/bin/env python3
"""Bit-vector algebra walkthrough: XOR, inner products, segments as shifts
of plain ints, and the balance property that makes the whole protocol tick."""

import numpy as np

from dpvqss.bitvec import BitVector, cip_census

rng = np.random.default_rng(1)

print("== Bit vectors ==")
x = BitVector.from_string("1011")
y = BitVector.from_string("0110")
print(f"x          = {x}")
print(f"y          = {y}")
print(f"x ^ y      = {x ^ y}")
print(f"x . y      = {x.dot(y)}   (inner product mod 2)")

print()
print("== Segments ==")
# A 3-agent layout with 4-bit slices, as the protocol's phases hold it: one
# int, segment i in bits 4i .. 4i+3, so segment 0 is least significant.
n, m = 3, 4
mask = (1 << m) - 1
parts = [BitVector.random(m, rng) for _ in range(n)]
s = 0
for i, part in enumerate(parts):
    s |= part.value << (i * m)
print(f"slices (s2, s1, s0) = {parts[2]}, {parts[1]}, {parts[0]}")
print(f"aggregated          = {s:0{n * m}b}")
for i in range(n):
    print(f"  segment {i}         = {s >> (i * m) & mask:0{m}b}")

acc = 0
for i, part in enumerate(parts):
    acc ^= part.value << (i * m)
print(f"XOR of extended slices reproduces the aggregate: {acc == s}")

print()
print("== The balance property ==")
print("For any nonzero c, the inner product c.x splits {0,1}^p exactly in half:")
for text in ("0000", "0001", "1010", "1111"):
    c = BitVector.from_string(text)
    zeros, ones = cip_census(c)
    print(f"  c = {c}: {zeros} vectors give 0, {ones} give 1")
print("This balance is why measuring one register alone reveals nothing,")
print("while the XOR of all registers pins down the encoded secret exactly.")
