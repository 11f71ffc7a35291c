"""Entanglement distribution, decoy handling, and the correlated-outcome sampler.

A batch models r parties holding p-qubit registers whose j-th qubits form one
GHZ_r tuple (a Bell pair when r = 2).  Phase bits, register outcomes and
Eve's reads are p-bit ints, bit j belonging to tuple j.  A batch's taps map
each tapped channel to its read, one of `READS`: every qubit in Z, each in
Z or X at random, or each CNOTed onto an ancilla of Eve's.  Every round,
tapped or not, is an H/CNOT circuit, so each tuple's joint outcome is
uniform over an affine subspace of GF(2)^(r+t) for t tapped channels
(Aaronson & Gottesman 2004).
The round only prepares GHZ tuples, reads them channel by channel and
applies a Hadamard layer, so that subspace has a closed form, `_read_law`,
which draws all p positions at once as p-bit words, whatever each position's
read basis.  The phase bits only shift it: a phase kick before the Hadamard
layer is a bit flip after it.  With no taps it is the XOR constraint:
uniform over the register tuples whose XOR is the phase bits.

`qsim.dense_state` and `qsim.dense_outcomes` build the same round as one
dense statevector, the exact reference the sampler is checked against.

Decoy qubits are Z or X eigenstates interleaved into each transmitted
sequence and checked in their preparation basis (Bennett & Brassard 1984).
No decoy state is simulated: one that a tap read in the conjugate basis
mismatches with probability 1/2, and any other never does (an entangling
CNOT reads like Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, xor
from typing import Iterator, Sequence

import numpy as np

from .bitvec import random_bits

READS = ("z", "random", "entangle")
BASIS_LABELS = ("0", "1", "+", "-")  # decoy preparation states


class DimensionError(ValueError):
    """A phase vector is wider than the batch's tuple positions."""


class IntegrityError(ValueError):
    """Transmission plan and source records disagree."""


@dataclass
class Decoy:
    channel: int
    slot: int
    label: str
    # The basis a tap read the decoy in ("z" or "x"); None if untouched.
    state: str | None = None


@dataclass
class TransmissionPlan:
    """The decoys interleaved into the transmitted channels."""

    decoys: list[Decoy]  # per channel in increasing order, by slot
    records: list[tuple[int, int, str]]  # source-retained (channel, slot, label)


@dataclass
class RoundOutcome:
    """Measured register contents of one round, and any eavesdropper
    outcomes keyed by tapped channel."""

    registers: list[int]
    eve: dict[int, int]


class EntangledBatch:
    """r registers of p positions, drawn exactly from their outcome law."""

    def __init__(self, r, p, taps, transmitted, encoders):
        if r < 2:
            raise ValueError("need at least two entangled registers")
        if p < 1:
            raise ValueError("need at least one tuple position")
        self.r = r
        self.p = p
        self.taps = dict(taps)
        self.transmitted = tuple(transmitted)
        self.encoders = tuple(encoders)
        for ch, read in self.taps.items():
            if ch not in self.transmitted:
                raise ValueError(f"tap on channel {ch} which is never transmitted")
            if read not in READS:
                raise ValueError(f"unknown read {read!r} on channel {ch}")
        self.sealed = False
        self.consumed = False

    # -- outcome generation ---------------------------------------------------

    def _phase_vectors(self, phase_bits: dict[int, int]):
        for enc, vec in phase_bits.items():
            if enc not in self.encoders:
                raise ValueError(f"register {enc} is not an encoder")
            if not 0 <= vec < 1 << self.p:
                raise DimensionError(
                    f"phase vector {vec:#x} for register {enc} does not fit "
                    f"in {self.p} bits"
                )

    def _mark_consumed(self):
        if self.consumed:
            raise RuntimeError("batch already measured")
        if self.taps and not self.sealed:
            raise RuntimeError("taps registered but batch never transmitted")
        self.consumed = True

    def encode_and_measure(self, phase_bits: dict[int, int], rng) -> RoundOutcome:
        """Apply the encoders' phase oracles, the Hadamard layers, and measure."""
        self._phase_vectors(phase_bits)
        self._mark_consumed()
        return self._sample(phase_bits, rng)

    def _sample(self, phase_bits, rng) -> RoundOutcome:
        """Draw every tuple position at once from the read law.

        The draws are uniform p-bit words: r for the registers, one per
        "entangle" read, one shared Z outcome, then one basis word per
        "random" read, whose set bits are the positions it reads in the X
        basis.
        """
        p, r = self.p, self.r
        channels = sorted(self.taps)
        random_chs = [ch for ch in channels if self.taps[ch] == "random"]
        entangling = [ch for ch in channels if self.taps[ch] == "entangle"]
        count = r + len(entangling) + 1 + len(random_chs)
        # One draw of `count` whole-word strides, one p-bit word from each.
        stride = 64 * ((p + 63) // 64)
        word = random_bits(count * stride, rng)
        full = (1 << p) - 1
        draws = [word >> (i * stride) & full for i in range(count)]
        x_reads = dict(zip(random_chs, draws[count - len(random_chs):]))
        reads = [
            (ch, None if ch in entangling else x_reads.get(ch, 0))
            for ch in channels
        ]
        outputs = _read_law(r, p, reads, iter(draws))
        # A phase kick before the Hadamard layer is a bit flip after it.
        for enc, vec in phase_bits.items():
            outputs[enc] ^= vec
        if not channels:
            assert reduce(xor, outputs) == reduce(
                xor, phase_bits.values(), 0
            ), "sampler violated its own XOR constraint"
        return RoundOutcome(outputs[:r], dict(zip(channels, outputs[r:])))


def _read_law(
    r: int, p: int, reads: list[tuple[int, int | None]], draws: Iterator[int]
) -> list[int]:
    """Outcomes of one round at all p positions, before the phase kicks.

    `reads` lists the tapped channels in increasing order, each with the
    p-bit mask of positions its tap reads in the X basis (Z at the others),
    or None for an entangling tap.  `draws` yields uniform p-bit words.
    Returns the r register words, then Eve's word per entry of `reads`.

    At each position the round is uniform subject only to:
    1. an X read on channel c gives register c's bit;
    2. all Z reads give the same bit;
    3. with no Z read, the registers and the entangling taps' bits XOR to 0.
    A Z read collapses the GHZ tuple, so the Hadamard layer leaves every
    qubit not read in X uniform.  An X read forwards its eigenstate, which
    the Hadamard layer turns back into Eve's bit, and flips the remaining
    GHZ phase by that bit.  An entangling tap's ancilla joins the GHZ tuple.
    """
    registers = [next(draws) for _ in range(r)]
    eve = [next(draws) if x is None else 0 for _, x in reads]
    shared = next(draws)
    no_z = reduce(and_, (x for _, x in reads if x is not None), (1 << p) - 1)
    registers[-1] ^= reduce(xor, registers + eve) & no_z
    for i, (ch, x) in enumerate(reads):
        if x is not None:
            eve[i] = (registers[ch] & x) | (shared & ~x)
    return registers + eve


def distribute(
    r: int,
    p: int,
    taps: dict[int, str] | None = None,
    transmitted: Sequence[int] | None = None,
    encoders: Sequence[int] | None = None,
) -> EntangledBatch:
    """Prepare a batch of p GHZ_r tuples (Bell pairs at r = 2).

    `transmitted` lists the registers that traverse a channel (and may be
    tapped); `taps` maps a tapped channel to its read, one of `READS`;
    `encoders` lists the registers that will apply a phase oracle.
    """
    if transmitted is None:
        transmitted = range(r)
    if encoders is None:
        encoders = range(r)
    return EntangledBatch(r, p, taps or {}, transmitted, encoders)


def insert_decoys(batch: EntangledBatch, d: int, rng) -> TransmissionPlan:
    """Interleave d decoys per channel at seeded random slots."""
    if d < 0:
        raise ValueError("decoy count must be nonnegative")
    decoys: list[Decoy] = []
    if d:
        for ch in sorted(batch.transmitted):
            slots = np.sort(rng.choice(batch.p + d, size=d, replace=False))
            labels = rng.integers(0, 4, size=d)
            decoys += [
                Decoy(ch, int(slot), BASIS_LABELS[label])
                for slot, label in zip(slots, labels)
            ]
    records = [(decoy.channel, decoy.slot, decoy.label) for decoy in decoys]
    return TransmissionPlan(decoys, records)


def transmit(batch: EntangledBatch, plan: TransmissionPlan, rng):
    """Send every channel through its (possibly tapped) route and seal the batch.

    Each decoy on a tapped channel records the basis the tap read it in (an
    entangling CNOT reads like Z); payload taps take effect when the
    outcomes are drawn.  A batch that carries several rounds is transmitted
    once per round's decoy check.
    """
    for ch, read in sorted(batch.taps.items()):
        decoys = [decoy for decoy in plan.decoys if decoy.channel == ch]
        x_basis = [False] * len(decoys)
        if read == "random":
            x_basis = rng.integers(0, 2, size=len(decoys))
        for decoy, x in zip(decoys, x_basis):
            decoy.state = "x" if x else "z"
    batch.sealed = True


def verify_decoys(
    plan: TransmissionPlan, records: Sequence[tuple[int, int, str]], rng
) -> tuple[int, str]:
    """Check every decoy in its preparation basis; any mismatch aborts.

    A decoy read in the conjugate basis mismatches with probability 1/2 and
    any other never does, so the mismatch count is one binomial draw.
    """
    plan_records = [(d.channel, d.slot, d.label) for d in plan.decoys]
    if sorted(records) != sorted(plan_records):
        raise IntegrityError("source records do not match the received plan")
    disturbed = sum(
        (d.label in "+-") != (d.state == "x")
        for d in plan.decoys if d.state is not None
    )
    mismatches = int(rng.binomial(disturbed, 0.5))
    return mismatches, ("abort" if mismatches else "proceed")

