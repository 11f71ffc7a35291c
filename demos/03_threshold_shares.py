#!/usr/bin/env python3
"""Threshold sharing over GF(16): splitting, reconstructing, what k-1 shares
do (and do not) reveal, and robust decoding against false shares."""

import numpy as np

from dpvqss.bitvec import cut
from dpvqss.threshold import (
    AmbiguousDecodeError,
    FIELDS,
    SplitConfig,
    reconstruct,
    robust_decode,
    split,
)

gf = FIELDS[4]
rng = np.random.default_rng(3)

print("== (2, 3) split of the nibble 0xA ==")
cfg = SplitConfig(2, 3, 4)
# split takes the secret and returns the aggregated n*m-bit word whose m-bit
# segment i is agent i's share; cut gives the shares, and reconstruct takes
# any k of them keyed by agent.
shares = cut(split(0xA, cfg, 4, rng), cfg.n, 4)
for i, share in enumerate(shares):
    print(f"  agent {i} holds {i}:{share:x}")
first, last = {0: shares[0], 1: shares[1]}, {1: shares[1], 2: shares[2]}
print(f"any two reconstruct: {reconstruct(first, cfg, 4):#x} "
      f"== {reconstruct(last, cfg, 4):#x}")

print()
print("== One share says nothing ==")
observed = shares[0]
consistent = [
    sec for sec in range(16)
    if any(gf.poly_eval([sec, c1], 1) == observed for c1 in range(16))
]
print(f"agent 0's value {observed:#x} is consistent with "
      f"{len(consistent)}/16 candidate secrets")

print()
print("== Robust decoding at (3, 5) ==")
cfg5 = SplitConfig(3, 5, 4)
shares5 = cut(split(0x7, cfg5, 4, rng), cfg5.n, 4)  # one 4-bit claim each
shares5[2] ^= 0x5  # one liar
secret, support = robust_decode(shares5, cfg5, 4)
print(f"one forged share: decoded {secret:#x} with support {support}/5")

print()
print("== Beyond the radius: colluding liars force a visible tie ==")
cfg4 = SplitConfig(3, 4, 4)
shares4 = cut(split(0x7, cfg4, 4, rng), cfg4.n, 4)
fake_poly = [0x2, 0x9, 0x4]
for liar in (0, 1):
    shares4[liar] = gf.poly_eval(fake_poly, liar + 1)
try:
    robust_decode(shares4, cfg4, 4)
except AmbiguousDecodeError as err:
    print(f"ambiguity surfaced: {len(err.candidates)} candidates tied "
          f"at support {err.support} -- the decoder refuses to guess")
