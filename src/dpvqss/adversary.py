"""Eavesdropper strategies, rogue-agent behaviours, and exact leakage audits.

The eavesdropper ("Eve") taps quantum channels: `EveStrategy.taps_for` maps
her kind and basis to one read per tapped channel (`entangle.READS`).  Rogue
agents act on classical messages by replacing payloads, ints of a width the
protocol config fixes; a fixed lie is the MSB-first bit string as the
config writes it.  The leakage audit returns the exact total variation
distance, as a Fraction, between Eve's complete views (Eve's own outcomes
plus every public classical payload) under two candidate secrets, each an
n*m-bit int.  Every position is its own tuple, so the distance is one minus
the product, over positions, of the chance that the views there do not
separate.  A Z read collapses the tuple and leaves every register uniform,
so nothing separates; an X read shows one register's bit; with no Z read
the registers (and any entangling ancilla) XOR to 0 before the secret's
phase kicks.  The cost grows with n*m, not with the number of outcomes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bitvec import random_words

EVE_KINDS = ("none", "measure_resend", "intercept_resend", "entangle_measure", "pns")
ROGUE_ACTIONS = (
    "lie_phase1_comms",
    "lie_phase2_report",
    "lie_phase3_oracle",
    "lie_phase3_report",
)
LIE_MODES = ("bit_flip", "random", "fixed")

AuditSize = namedtuple("AuditSize", "n m")


def hash_once(cls):
    """Keep a frozen dataclass's field hash on the instance from first use;
    pickles and copies drop it, as str hashes differ across PYTHONHASHSEEDs."""
    cls._hash = cached_property(cls.__hash__)
    cls._hash.__set_name__(cls, "_hash")
    cls.__hash__ = lambda self: self._hash
    cls.__getstate__ = lambda self: {
        k: v for k, v in vars(self).items() if k != "_hash"}
    return cls


def _reject_duplicates(key: str, values: tuple) -> None:
    """A repeated entry acts once but would render and hash twice."""
    if len(set(values)) != len(values):
        raise ValueError(f"{key} lists an entry twice: {list(values)}")


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
        _reject_duplicates("adversary.eve.phases", self.phases)

    def is_active_in(self, phase: int) -> bool:
        return self.kind != "none" and phase in self.phases

    def taps_for(self, phase: int, channels) -> dict[int, str]:
        """The read (`entangle.READS`) of every channel Eve taps in `phase`."""
        if not self.is_active_in(phase):
            return {}
        if self.kind in ("entangle_measure", "pns"):
            # Photon-number splitting keeps a perfect extra entangled copy.
            read = "entangle"
        elif (self.kind, self.basis) == ("intercept_resend", "random"):
            read = "random"
        else:
            read = "z"
        selected = channels if self.channel is None else (
            [self.channel] if self.channel in channels else []
        )
        return {ch: read for ch in selected}


@dataclass(frozen=True)
class RogueBehavior:
    agents: tuple[int, ...] = ()
    actions: tuple[str, ...] = ()
    mode: str = "random"
    fixed_value: str | None = None  # MSB-first bits, e.g. "10110011"

    def __post_init__(self):
        if any(a not in ROGUE_ACTIONS for a in self.actions):
            raise ValueError(f"unknown rogue action in {self.actions}")
        _reject_duplicates("adversary.rogues.agents", self.agents)
        _reject_duplicates("adversary.rogues.actions", self.actions)
        if self.mode not in LIE_MODES:
            raise ValueError(f"unknown lie mode {self.mode!r}")
        if self.mode == "fixed" and self.actions and self.fixed_value is None:
            raise ValueError("fixed lie mode needs a fixed_value")
        if self.fixed_value and self.fixed_value.strip("01"):
            raise ValueError(f"fixed_value is not a bit string: {self.fixed_value!r}")


def sent_channels(phase: int, n: int, source: str) -> range:
    """The registers a round of `phase` sends, and so the channels Eve can tap.

    Phases 1 and 2 send every agent's register 0..n-1, and the source's
    register n too unless the source is Alice herself; phase 3 sends the
    pair's two registers.
    """
    if phase == 3:
        return range(2)
    return range(n + (source == "third_party"))


@hash_once
@dataclass(frozen=True)
class AdversaryPlan:
    """Eve and the rogues; the hash is kept from first use, not pickled."""
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
        if len(self.rogues.agents) > n - k:
            raise ValueError(
                f"{len(self.rogues.agents)} rogues break the "
                f"at-least-k-loyal bound (n-k = {n - k})"
            )
        fixed = self.rogues.fixed_value
        if self.rogues.mode == "fixed" and fixed is not None:
            for action in self.rogues.actions:
                need = n * m if action == "lie_phase2_report" else m
                if len(fixed) != need:
                    raise ValueError(
                        f"adversary.rogues.fixed has {len(fixed)} bits, but "
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


def falsify(payloads: list[int], length: int, mode: str, fixed_value,
            rng) -> list[int]:
    """The lies that replace the honest length-bit payloads one lying
    action covers in a phase, in order, from one draw: `random` takes
    whole 64-bit words per lie from one `random_raw` call, `bit_flip` one
    position per lie from one `integers` call, and `fixed` draws nothing.
    That is the stream of one call per lie."""
    count = len(payloads)
    if mode == "bit_flip":
        flips = rng.integers(length, size=count).tolist()
        return [p ^ 1 << f for p, f in zip(payloads, flips)]
    if mode == "random":
        return random_words(count, length, rng)
    if mode == "fixed":
        if fixed_value is None or len(fixed_value) != length:
            raise ValueError(
                f"fixed lie value missing or of wrong length (need {length})"
            )
        return [int(fixed_value, 2)] * count
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


def _separating_share(kick: int, visible: int, tapped: int, everyone: int) -> Fraction:
    """Fraction of random Z/X read patterns of `tapped` at one position that separate.

    An X read gives Eve the register's bit before the kick, so a visible
    register read in X shows its kick.  Any Z read leaves every register
    not read in X uniform, so otherwise only the all-X pattern separates:
    the registers then XOR to 0 before the kicks, which Eve reads whole when
    every register is visible or tapped.  With tapped = 0 that one pattern
    reads nothing: the views separate exactly when Eve sees every register
    and the kicks have odd parity.
    """
    exposed = kick & visible & tapped
    if exposed:
        return 1 - Fraction(1, 1 << exposed.bit_count())
    if visible | tapped == everyone and (kick & visible & ~tapped).bit_count() % 2:
        return Fraction(1, 1 << tapped.bit_count())
    return Fraction(0)


def leakage_audit(
    strategy: EveStrategy, cfg, s: int, s_prime: int, phase: int
) -> Fraction:
    """Exact total variation distance between Eve's views under two secrets.

    `cfg` needs n and m attributes (AuditSize works); a `source` attribute
    of "third_party" means the source's register is transmitted, and so
    tapped, too.  A result of 0 means the strategy reveals nothing that
    distinguishes the two secrets.
    """
    if phase not in (1, 2, 3):
        raise ValueError(f"unknown phase {phase}")
    n, m = cfg.n, cfg.m
    for secret in (s, s_prime):
        if not 0 <= secret < 1 << (n * m):
            raise ValueError(f"secret {secret:#x} does not fit in n*m = {n * m} bits")
    r = 2 if phase == 3 else n + 1
    transmitted = sent_channels(phase, n, getattr(cfg, "source", "alice"))
    taps = strategy.taps_for(phase, transmitted)
    if "z" in taps.values():
        # A Z read collapses every tuple, so every register goes uniform.
        return Fraction(0)
    # Only a random read can show a register's bit; an entangling read's
    # ancilla just joins the registers' XOR, and Eve sees it.
    tapped = sum(1 << ch for ch, read in taps.items() if read == "random")
    groups = Counter(_positions(n, m, s ^ s_prime, phase))
    kept = Fraction(1)
    for (kick, visible), count in groups.items():
        kept *= (1 - _separating_share(kick, visible, tapped, (1 << r) - 1)) ** count
    return 1 - kept
