"""Distributed, parallel, verifiable (k, n)-threshold quantum secret sharing.

Shares, secrets and fixed lies cross the API as plain ints, or as the
MSB-first bit strings a config writes.  Library layout:

- bitvec     the uniform bit draw
- qsim       exact statevector simulator and dense round reference
             (tests and oracle-check only; no protocol module imports it)
- threshold  (k, n) Shamir sharing over GF(2^w) with robust decoding, one
             packed m-bit int per share
- entangle   entanglement distribution, the tap reads (z / random /
             entangle), decoys and the exact outcome sampler (closed-form
             GHZ read law, every round)
- adversary  eavesdropper strategies (one read per tapped channel), rogue
             agents, closed-form exact leakage audits at any size
- protocol   the three protocol phases and the run orchestrator
- metrics    qubit-efficiency ratios and empirical statistics
- cli        experiment driver (run / sweep / oracle-check / metrics / report)
"""

__version__ = "0.7.0"

from .threshold import SplitConfig, reconstruct, robust_decode, split  # noqa: F401
from .adversary import AdversaryPlan, EveStrategy, RogueBehavior, leakage_audit  # noqa: F401
from .protocol import ProtocolConfig, RunReport, run_protocol  # noqa: F401
from .metrics import efficiency_report, empirical_stats  # noqa: F401
