#!/usr/bin/env python3
"""Exact circuit semantics: GHZ preparation, phase kickback, and the
XOR correlation that survives the Hadamard layers."""

import numpy as np

from dpvqss.qsim import StateVector, dense_state

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
p = n * m
s = 0b10
print(f"n={n} agents, m={m} bit slices, secret s = {s:0{p}b}")
# Born probabilities of the registers, the |-> target summed out.
probs = (np.abs(dense_state(n + 1, p, {n: s}).amps) ** 2).reshape(2, -1).sum(axis=0)
support = np.flatnonzero(probs > 1e-12)
print(f"{len(support)} outcomes of nonzero probability, all satisfying")
print("a XOR b1 XOR b0 = s:")
for index in support:
    b0, b1, a = (int(index) >> (i * p) & (1 << p) - 1 for i in range(n + 1))
    assert a ^ b0 ^ b1 == s, "XOR constraint violated"
    print(f"  a={a:0{p}b} b1={b1:0{p}b} b0={b0:0{p}b}: {probs[index]:.4f}")
print("Each party's own register alone is uniformly random --")
print("only the joint XOR carries the secret.")
