"""Eavesdropper strategies, rogue-agent behaviours, and exact leakage audits.

The eavesdropper ("Eve") acts on quantum channels through `ChannelTap`s; rogue
agents act on classical messages by replacing payloads, ints of a width the
protocol config fixes.  The leakage audit returns the exact total variation
distance, as a Fraction, between Eve's complete views (Eve's own outcomes
plus every public classical payload) under two candidate secrets.  It reads
the sampler's own law (`entangle._read_law`): each position's outcome is
uniform over a subspace, shifted by the secret's phase kicks, and Eve sees a
projection of it.  With fixed reads two views are then equal or disjoint, one
rank test per kind of position; with random-basis reads each position
separates them with an exact probability.  The cost grows with n*m, not with
the number of outcomes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .bitvec import BitVector, random_bits
from .entangle import ChannelTap, _read_law

EVE_KINDS = ("none", "measure_resend", "intercept_resend", "entangle_measure", "pns")
ROGUE_ACTIONS = (
    "lie_phase1_comms",
    "lie_phase2_report",
    "lie_phase3_oracle",
    "lie_phase3_report",
)
LIE_MODES = ("bit_flip", "random", "fixed")

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


def sent_channels(phase: int, n: int, source: str) -> range:
    """The registers a round of `phase` sends, and so the channels Eve can tap.

    Phases 1 and 2 send every agent's register 0..n-1, and the source's
    register n too unless the source is Alice herself; phase 3 sends the
    pair's two registers.
    """
    if phase == 3:
        return range(2)
    return range(n + (source == "third_party"))


@dataclass(frozen=True)
class AdversaryPlan:
    eve: EveStrategy = EveStrategy()
    rogues: RogueBehavior = RogueBehavior()

    def validate(self, cfg):
        """Raise ValueError unless the plan can run under `cfg`.

        `cfg` needs n, k and m attributes, and a `source` of "alice" or
        "third_party" (ProtocolConfig works).
        """
        n, k, m = cfg.n, cfg.k, cfg.m
        if any(not 0 <= a < n for a in self.rogues.agents):
            raise ValueError(f"rogue agent ids {self.rogues.agents} out of range")
        if len(set(self.rogues.agents)) > n - k:
            raise ValueError(
                f"{len(set(self.rogues.agents))} rogues break the "
                f"at-least-k-loyal bound (n-k = {n - k})"
            )
        fixed = self.rogues.fixed_value
        if self.rogues.mode == "fixed" and fixed is not None:
            for action in self.rogues.actions:
                need = n * m if action == "lie_phase2_report" else m
                if fixed.length != need:
                    raise ValueError(
                        f"adversary.rogues.fixed has {fixed.length} bits, but "
                        f"{action} needs {need}"
                    )
        eve = self.eve
        if eve.kind == "none":
            return
        if not eve.phases:
            raise ValueError(
                f"adversary.eve.phases is empty, so adversary.eve.kind = "
                f"{eve.kind} acts in no phase"
            )
        if eve.basis == "random" and eve.kind != "intercept_resend":
            raise ValueError(
                f"adversary.eve.basis = random needs adversary.eve.kind = "
                f"intercept_resend, got {eve.kind}"
            )
        if eve.channel is not None and not any(
            eve.channel in sent_channels(phase, n, cfg.source)
            for phase in eve.phases
        ):
            raise ValueError(
                f"adversary.eve.channel {eve.channel} is not sent in any of "
                f"phases {list(eve.phases)}"
            )


HONEST_PLAN = AdversaryPlan()


def falsify(payload: int, length: int, mode: str, fixed_value, rng) -> int:
    """Produce the lie that replaces an honest length-bit payload."""
    if mode == "bit_flip":
        return payload ^ (1 << int(rng.integers(length)))
    if mode == "random":
        return random_bits(length, rng)
    if mode == "fixed":
        if fixed_value is None or fixed_value.length != length:
            raise ValueError(
                f"fixed lie value missing or of wrong length (need {length})"
            )
        return fixed_value.value
    raise ValueError(f"unknown lie mode {mode!r}")


# -- leakage auditing ---------------------------------------------------------


def _positions(n: int, m: int, diff: int, phase: int):
    """Yield (kick difference, visible registers) at every position.

    Both are masks over the round's registers: agents 0..n-1 then the source
    (phases 1 and 2), or the audited pair, agents 0 and 1 (phase 3).
    """
    if phase == 3:
        for j in range(m):
            yield (diff >> j & 1) | (diff >> (m + j) & 1) << 1, 0b11
        return
    everyone = (1 << (n + 1)) - 1
    for j in range(n * m):
        bit = diff >> j & 1
        if phase == 1:
            # The source kicks; its vector is public, and so is every
            # agent's, except the owner's own segment.
            yield bit << n, everyone & ~(1 << (j // m))
        else:
            # The segment's owner kicks; the agents' reports are public.
            yield bit << (j // m), everyone >> 1


def _outcome_span(r: int, taps: dict[int, ChannelTap]) -> list[int]:
    """Spanning vectors of one position's outcomes under fixed reads.

    Each packs the r register bits, then one bit per tap in channel order.
    The sampler's read law is linear in its draws, so each unit draw gives
    one spanning vector.
    """
    reads = [
        (ch, None if tap.kind == "entangle_measure" else 0)
        for ch, tap in sorted(taps.items())
    ]
    count = r + sum(x is None for _, x in reads) + 1

    def point(draws):
        outputs = _read_law(r, 1, reads, iter(draws))
        return sum(bit << i for i, bit in enumerate(outputs))

    zero = point([0] * count)
    return [point([int(i == k) for i in range(count)]) ^ zero for k in range(count)]


def _in_span(vector: int, vectors) -> bool:
    basis: list[int] = []  # distinct leading bits, highest first
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    for b in basis:
        vector = min(vector, vector ^ b)
    return vector == 0


def _separating_share(kick: int, visible: int, tapped: int, everyone: int) -> Fraction:
    """Share of random Z/X read patterns at one position that separate.

    An X read gives Eve the register's bit before the kick, so a visible
    register read in X shows its kick.  Any Z read leaves every register
    not read in X uniform, so otherwise only the all-X pattern separates:
    the registers then XOR to 0 before the kicks, which Eve reads whole when
    every register is visible or tapped.
    """
    exposed = kick & visible & tapped
    if exposed:
        return 1 - Fraction(1, 1 << exposed.bit_count())
    if visible | tapped == everyone and (kick & visible & ~tapped).bit_count() % 2:
        return Fraction(1, 1 << tapped.bit_count())
    return Fraction(0)


def leakage_audit(
    strategy: EveStrategy, cfg, s: BitVector, s_prime: BitVector, phase: int
) -> Fraction:
    """Exact total variation distance between Eve's views under two secrets.

    `cfg` needs n and m attributes (AuditSize works); a `source` attribute
    of "third_party" means the source's register is transmitted, and so
    tapped, too.  A result of 0 means the strategy reveals nothing that
    distinguishes the two secrets.
    """
    if s.length != s_prime.length:
        raise ValueError("candidate secrets must have equal length")
    if phase not in (1, 2, 3):
        raise ValueError(f"unknown phase {phase}")
    n, m = cfg.n, cfg.m
    if s.length != n * m:
        raise ValueError(f"secret length {s.length} != n*m")
    r = 2 if phase == 3 else n + 1
    transmitted = sent_channels(phase, n, getattr(cfg, "source", "alice"))
    taps = strategy.taps_for(phase, transmitted)
    groups = Counter(_positions(n, m, (s ^ s_prime).value, phase))
    if any(tap.random_basis for tap in taps.values()):
        tapped = sum(1 << ch for ch in taps)
        kept = Fraction(1)
        for (kick, visible), count in groups.items():
            share = _separating_share(kick, visible, tapped, (1 << r) - 1)
            kept *= (1 - share) ** count
        return 1 - kept
    span = _outcome_span(r, taps)
    eve = ((1 << len(taps)) - 1) << r
    return Fraction(any(
        kick and not _in_span(kick & visible, (v & (visible | eve) for v in span))
        for kick, visible in groups
    ))
