"""Eavesdropper strategies, rogue-agent behaviours, and exact leakage audits.

The eavesdropper ("Eve") acts on quantum channels through `ChannelTap`s; rogue
agents act on classical messages by replacing payloads.  The leakage audit
enumerates Eve's complete view (her own measurement outcomes plus every public
classical payload) under two candidate secrets and returns the exact total
variation distance between the two view distributions, as a Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .bitvec import BitVector, CapacityError, SegmentedVector
from .entangle import ChannelTap

EVE_KINDS = ("none", "measure_resend", "intercept_resend", "entangle_measure", "pns")
ROGUE_ACTIONS = (
    "lie_phase1_comms",
    "lie_phase2_report",
    "lie_phase3_oracle",
    "lie_phase3_report",
)
LIE_MODES = ("bit_flip", "random", "fixed")

# The audit enumerates every free bit exactly; cap the exponent.
AUDIT_BIT_BOUND = 20

AuditSize = namedtuple("AuditSize", "n m")


@dataclass(frozen=True)
class EveStrategy:
    kind: str = "none"
    basis: str = "computational"  # interception basis: computational | random
    phases: tuple[int, ...] = (1, 2, 3)
    channel: int | None = None  # None taps every transmitted channel

    def __post_init__(self):
        if self.kind not in EVE_KINDS:
            raise ValueError(f"unknown eavesdropper kind {self.kind!r}")
        if self.basis not in ("computational", "random"):
            raise ValueError(f"unknown interception basis {self.basis!r}")
        if any(ph not in (1, 2, 3) for ph in self.phases):
            raise ValueError(f"phases must be among 1, 2, 3: {self.phases}")

    @property
    def effective_kind(self) -> str:
        # Photon-number splitting keeps a perfect extra entangled copy, which
        # behaves exactly like the entangle-and-measure tap.
        return "entangle_measure" if self.kind == "pns" else self.kind

    def is_active_in(self, phase: int) -> bool:
        return self.kind != "none" and phase in self.phases

    def taps_for(self, phase: int, channels) -> dict[int, ChannelTap]:
        if not self.is_active_in(phase):
            return {}
        tap = ChannelTap(self.effective_kind, self.basis)
        selected = channels if self.channel is None else (
            [self.channel] if self.channel in channels else []
        )
        return {ch: tap for ch in selected}


@dataclass(frozen=True)
class RogueBehavior:
    agents: tuple[int, ...] = ()
    actions: tuple[str, ...] = ()
    mode: str = "random"
    fixed_value: BitVector | None = None

    def __post_init__(self):
        if any(a not in ROGUE_ACTIONS for a in self.actions):
            raise ValueError(f"unknown rogue action in {self.actions}")
        if self.mode not in LIE_MODES:
            raise ValueError(f"unknown lie mode {self.mode!r}")
        if self.mode == "fixed" and self.actions and self.fixed_value is None:
            raise ValueError("fixed lie mode needs a fixed_value")

    def lies(self, agent: int, action: str) -> bool:
        return agent in self.agents and action in self.actions


@dataclass(frozen=True)
class AdversaryPlan:
    eve: EveStrategy = EveStrategy()
    rogues: RogueBehavior = RogueBehavior()

    def validate(self, n: int, k: int):
        if any(not 0 <= a < n for a in self.rogues.agents):
            raise ValueError(f"rogue agent ids {self.rogues.agents} out of range")
        if len(set(self.rogues.agents)) > n - k:
            raise ValueError(
                f"{len(set(self.rogues.agents))} rogues break the "
                f"at-least-k-loyal bound (n-k = {n - k})"
            )


HONEST_PLAN = AdversaryPlan()


def falsify(payload: BitVector, mode: str, fixed_value, rng) -> BitVector:
    """Produce the lie that replaces an honest payload."""
    if mode == "bit_flip":
        j = int(rng.integers(payload.length))
        return payload ^ BitVector(1 << j, payload.length)
    if mode == "random":
        return BitVector.random(payload.length, rng)
    if mode == "fixed":
        if fixed_value is None or fixed_value.length != payload.length:
            raise ValueError(
                "fixed lie value missing or of wrong length "
                f"(need {payload.length})"
            )
        return fixed_value
    raise ValueError(f"unknown lie mode {mode!r}")


def rogue_transform(
    behavior: RogueBehavior, sender: int, action: str, payload: BitVector, rng
) -> BitVector:
    """Replace a message payload if the sender is rogue for this action."""
    if not behavior.lies(sender, action):
        return payload
    return falsify(payload, behavior.mode, behavior.fixed_value, rng)


# -- leakage auditing ---------------------------------------------------------


def _iter_assignments(widths: list[int], constraint: int | None):
    """Yield tuples of variable values, each of the given bit width.

    With a constraint, the assignment is uniform over solutions of
    XOR(vars) = constraint (the last variable is solved); otherwise all
    variables are free and uniform.
    """
    free = widths[:-1] if constraint is not None else widths
    if sum(free) > AUDIT_BIT_BOUND:
        raise CapacityError(
            f"audit would enumerate 2^{sum(free)} assignments "
            f"(bound 2^{AUDIT_BIT_BOUND})"
        )
    for values in product(*(range(1 << w) for w in free)):
        if constraint is None:
            yield values
        else:
            acc = constraint
            for v in values:
                acc ^= v
            yield values + (acc,)


def _mask_out_segment(value: int, seg: int, m: int, n: int) -> int:
    """Drop segment `seg` from an n*m-bit value, keeping the rest packed."""
    low = value & ((1 << (seg * m)) - 1)
    high = value >> ((seg + 1) * m)
    return low | (high << (seg * m))


def view_distribution(
    strategy: EveStrategy, n: int, m: int, s: BitVector, phase: int
) -> dict[tuple, Fraction]:
    """Exact distribution of Eve's view for one phase under secret s.

    Variables are the measured register vectors (agents then the source) plus
    one outcome vector per entangling tap, or one shared by all measuring
    taps.  What Eve sees:

    - phase 1: every classical payload of the fan-out round, i.e. all of the
      source's vector and every agent vector with its own segment hidden;
    - phase 2: the agents' reported vectors (the source's stays private);
    - phase 3: both exchanged vectors of the audited pair (agents 0 and 1).
    """
    if phase not in (1, 2, 3):
        raise ValueError(f"unknown phase {phase}")
    kind = strategy.effective_kind if strategy.is_active_in(phase) else "none"
    if kind == "intercept_resend" and strategy.basis == "random":
        raise ValueError("exact audit does not model random-basis interception")

    if phase == 3:
        width = m
        n_regs = 2
        seg = SegmentedVector(s, n, m)
        constraint_vec = seg.segment(0) ^ seg.segment(1)
        channels = [0, 1]
    else:
        width = n * m
        n_regs = n + 1
        if s.length != width:
            raise ValueError(f"secret length {s.length} != n*m")
        constraint_vec = s
        channels = list(range(n))
    if strategy.channel is not None:
        channels = [ch for ch in channels if ch == strategy.channel]

    n_eve = len(channels) if kind != "none" else 0
    # Entangling ancillas join the XOR chain, one outcome vector each.  The
    # first measuring tap collapses every tuple instead: the registers go
    # free and uniform, and all tapped channels read one shared vector.
    measuring = n_eve > 0 and kind in ("measure_resend", "intercept_resend")
    if measuring:
        widths = [width] * (n_regs + 1)
        constraint_arg = None
    else:
        widths = [width] * (n_regs + n_eve)
        constraint_arg = constraint_vec.value

    total_free = len(widths) - (1 if constraint_arg is not None else 0)
    dist: dict[tuple, Fraction] = {}
    weight = Fraction(1, 1 << (total_free * width))
    for values in _iter_assignments(widths, constraint_arg):
        regs = values[:n_regs]  # agents 0..n-1 (or the pair), then the source
        eve_vals = values[n_regs:] * n_eve if measuring else values[n_regs:]
        if phase == 1:
            a = regs[-1]
            visible = [a] + [
                _mask_out_segment(regs[j], j, m, n) for j in range(n)
            ]
        elif phase == 2:
            visible = list(regs[:-1])
        else:
            visible = list(regs)
        key = tuple(visible) + tuple(eve_vals)
        dist[key] = dist.get(key, Fraction(0)) + weight
    return dist


def leakage_audit(
    strategy: EveStrategy, cfg, s: BitVector, s_prime: BitVector, phase: int
) -> Fraction:
    """Exact total variation distance between Eve's views under two secrets.

    `cfg` needs only n and m attributes (AuditSize works).  A result of 0
    means the strategy reveals nothing that distinguishes the two secrets.
    """
    if s.length != s_prime.length:
        raise ValueError("candidate secrets must have equal length")
    da = view_distribution(strategy, cfg.n, cfg.m, s, phase)
    db = view_distribution(strategy, cfg.n, cfg.m, s_prime, phase)
    keys = set(da) | set(db)
    return sum(
        (abs(da.get(k, Fraction(0)) - db.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    ) / 2
