#!/usr/bin/env python3
"""Exact circuit semantics: GHZ preparation, phase kickback, and the
XOR correlation that survives the Hadamard layers."""

import numpy as np

from dpvqss.bitvec import BitVector
from dpvqss.qsim import StateVector, dense_outcomes

rng = np.random.default_rng(2)

print("== GHZ preparation (Hadamard + CNOT chain) ==")
sv = StateVector(3)
sv.prepare_ghz([0, 1, 2])
print(sv.dump())
print(f"gates used: {sorted({name for name, _ in sv.gate_log})}")

print()
print("== Phase kickback ==")
print("A register in |+>, a target in |->, one CNOT: the phase (-1)^x moves")
print("onto the register, flipping |+> to |->:")
sv = StateVector(2)
sv.prepare_basis("+", 0)
sv.prepare_basis("-", 1)
sv.apply_phase_oracle(1, [0], 1)
print(sv.dump())
print(f"register measured in the Hadamard basis: "
      f"{sv.measure_hadamard_basis(0, rng)}  (1 = |->)")

print()
print("== The distribution circuit, exactly ==")
n, m = 2, 1
s = BitVector.from_string("10")
print(f"n={n} agents, m={m} bit slices, secret s = {s}")
counts = {}
for out in dense_outcomes(n + 1, n * m, {n: s.value}, 4000, rng):
    a, b0, b1 = out.registers[n], out.registers[0], out.registers[1]
    assert a ^ b0 ^ b1 == s.value, "XOR constraint violated"
    key = tuple(format(reg, f"0{n * m}b") for reg in (a, b1, b0))
    counts[key] = counts.get(key, 0) + 1
print(f"4000 shots, {len(counts)} distinct outcomes, all satisfying")
print("a XOR b1 XOR b0 = s; a few of them:")
for key, c in sorted(counts.items())[:6]:
    a, b1, b0 = key
    print(f"  a={a} b1={b1} b0={b0}: {c} shots")
print("Each party's own register alone is uniformly random --")
print("only the joint XOR carries the secret.")
