#!/usr/bin/env python3
"""Attack gallery: decoy detection rates, verification disruption, rogue
agents at and beyond the decoding radius, and exact leakage audits."""

import numpy as np

from dpvqss.adversary import (
    AdversaryPlan,
    AuditSize,
    EveStrategy,
    RogueBehavior,
    leakage_audit,
)
from dpvqss.bitvec import random_bits
from dpvqss.protocol import ProtocolConfig, random_secret, run_protocol


def abort_rate(cfg, plan, trials, seed, phase=None):
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
        if rep.verdict == "abort" and (phase is None or rep.abort.phase == phase):
            hits += 1
    return hits / trials


cfg = ProtocolConfig(n=5, k=3, m=16, w=8)

print("== Interception is caught by decoys ==")
for d in (1, 4, 16):
    cfg_d = ProtocolConfig(n=5, k=3, m=16, decoys=d)
    plan = AdversaryPlan(eve=EveStrategy("intercept_resend", phases=(1,),
                                         channel=0))
    rate = abort_rate(cfg_d, plan, 300, 50 + d, phase="phase1")
    print(f"  d = {d:>2} decoys on the tapped channel: "
          f"caught in phase 1 at rate {rate:.3f} "
          f"(theory 1-(3/4)^d = {1 - 0.75 ** d:.3f})")

print()
print("== Entangling taps disrupt verification ==")
plan = AdversaryPlan(eve=EveStrategy("entangle_measure", phases=(2,)))
quiet = ProtocolConfig(n=5, k=3, m=16, decoys=0)  # let her through to phase 2
rate = abort_rate(quiet, plan, 300, 60)
print(f"  with decoys disabled, the XOR check still aborts at rate {rate:.3f}")

print()
print("== A rogue agent in the consolidation phase ==")
plan = AdversaryPlan(rogues=RogueBehavior((4,), ("lie_phase3_oracle",
                                                 "lie_phase3_report")))
ok = 0
trials = 300
for t in range(trials):
    rng = np.random.default_rng([70, t])
    rep = run_protocol(cfg, random_secret(cfg, rng), plan, rng=rng)
    d = rep.to_dict()
    ok += all(a["recovered_secret"] for a in d["agents"].values() if a["loyal"])
print(f"  all 4 loyal agents recovered the secret in {ok}/{trials} runs")

print()
print("== Exact leakage audits (total variation of Eve's view) ==")
size = AuditSize(2, 1)
s, s2 = 0b10, 0b01
for kind in ("none", "measure_resend", "entangle_measure"):
    tv = leakage_audit(EveStrategy(kind), size, s, s2, phase=1)
    print(f"  phase 1, {kind:<17}: TV = {tv}")
size3 = AuditSize(2, 2)
same = leakage_audit(EveStrategy(), size3, 0b1001, 0b0110, phase=3)
diff = leakage_audit(EveStrategy(), size3, 0b1001, 0b1111, phase=3)
print(f"  phase 3, equal pair-XOR secrets : TV = {same}")
print(f"  phase 3, different pair-XOR     : TV = {diff}  "
      "(the exchange reveals exactly the XOR, nothing else)")

print()
print("== Random-basis interception leaks: the decoys must catch it ==")
random_eve = EveStrategy("intercept_resend", basis="random")
s0, s1 = 0b00, 0b01
for phase, why in ((1, "all taps read the differing position in X"),
                   (2, "the owner's tap reads it in X")):
    tv = leakage_audit(random_eve, size, s0, s1, phase=phase)
    print(f"  phase {phase}, secrets 00 vs 01: TV = {tv}  ({why})")
big = AuditSize(15, 16)
rng = np.random.default_rng(80)
s = random_bits(240, rng)
tvs = [leakage_audit(random_eve, big, s, 0, phase=ph) for ph in (1, 2)]
print(f"  n = 15, m = 16, a random secret vs zero: phase 1 TV = "
      f"{float(tvs[0]):.4f}, phase 2 TV = 1 - {float(1 - tvs[1]):.1e}")
