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
read basis.  Every word of a round comes from one `random_raw` call
(`bitvec.random_words`), and a batch lays out how its taps use those words
when it is built.  The phase bits only shift the subspace: a phase kick
before the Hadamard layer is a bit flip after it.  With no taps it is the
XOR constraint: r uniform words, the last closed by one XOR, so an untapped
round yields the phase bits' XOR, drawing the words of registers its caller
does not read only to keep the stream (`bitvec.picked_words`).  Tapped or
not, a round returns exactly the registers its caller names in `read`.

`qsim.dense_state` and `qsim.dense_outcomes` build the same round as one
dense statevector, the exact reference the sampler is checked against.

Decoy qubits are Z or X eigenstates interleaved into each transmitted
sequence and checked in their preparation basis (Bennett & Brassard 1984).
A decoy's label is uniform over 0, 1, + and -, and every read is Z-like (an
entangling CNOT reads like Z) or a Z/X basis drawn independently of the
label, so a decoy on a tapped channel is disturbed with probability 1/2 and
a disturbed one mismatches with probability 1/2.  A round's whole check is
therefore one draw, `decoy_mismatches`: Binomial(d*t, 1/4) for d decoys on
each of t tapped channels.  `insert_decoys`, `transmit` and `verify_decoys`
model the decoys one by one; they are the reference the draw is tested
against, and no protocol path calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, xor
from typing import Iterator, Sequence

import numpy as np

from .bitvec import picked_words, random_words

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
    """One round's registers, keyed by index (exactly those the caller
    reads), Eve's outcomes by tapped channel, and the XOR of all r registers."""

    registers: dict[int, int]
    eve: dict[int, int]
    total: int


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
        self.consumed = False
        self._layout = _draw_layout(r, tuple(self.taps.items()),
                                    self.transmitted, self.encoders)

    # -- outcome generation ---------------------------------------------------

    def _phase_vectors(self, phase_bits: dict[int, int]):
        for enc, vec in phase_bits.items():
            if enc not in self.encoders:
                raise ValueError(f"register {enc} is not an encoder")
            if vec < 0 or vec >> self.p:
                raise DimensionError(
                    f"phase vector {vec:#x} for register {enc} does not fit "
                    f"in {self.p} bits"
                )

    def encode_and_measure(self, phase_bits, rng, read) -> RoundOutcome:
        """Phase-encode, apply the Hadamards, measure the registers in `read`."""
        self._phase_vectors(phase_bits)
        if read and (min(read) < 0 or max(read) >= self.r):
            raise _outside("read register", read, self.r)
        if self.consumed:
            raise RuntimeError("batch already measured")
        self.consumed = True
        return self._sample(phase_bits, rng, read)

    def _sample(self, phase_bits, rng, read) -> RoundOutcome:
        """Draw every tuple position at once from the read law.

        The draws are uniform p-bit words from one `random_raw` call: r for
        the registers, one per "entangle" read, one shared Z outcome (drawn
        but unused when untapped), then one basis word per "random" read,
        whose set bits are the positions it reads in the X basis.  Untapped,
        it builds only the registers in `read` (all if it holds the last,
        which closes the XOR) and takes their XOR from the phase bits.
        """
        r, p = self.r, self.p
        channels, count, picks = self._layout
        total = reduce(xor, phase_bits.values(), 0)
        if channels:
            draws = random_words(count, p, rng)
            draws.append(0)  # a Z read's basis word: no X positions
            reads = [(ch, None if at is None else draws[at])
                     for ch, at in zip(channels, picks)]
            outputs = _read_law(r, p, reads, iter(draws))
        elif r - 1 in read:
            outputs = picked_words(count, p, rng, range(r - 1))
            outputs.append(reduce(xor, outputs))  # the registers XOR to 0
        else:
            words = picked_words(count, p, rng, read)
            return RoundOutcome({j: word ^ phase_bits.get(j, 0)
                                 for j, word in zip(read, words)}, {}, total)
        # A phase kick before the Hadamard layer is a bit flip after it.
        for enc, vec in phase_bits.items():
            outputs[enc] ^= vec
        registers = outputs[:r]
        xored = reduce(xor, registers)
        assert channels or xored == total, "sampler broke its XOR constraint"
        return RoundOutcome({j: registers[j] for j in read},
                            dict(zip(channels, outputs[r:])), xored)


def _outside(what: str, indices, r: int) -> ValueError:
    """The error naming the first of `indices` outside 0..r-1."""
    bad = next(j for j in indices if not 0 <= j < r)
    return ValueError(f"{what} {bad} is not a register of 0..{r - 1}")


@lru_cache(maxsize=1024)
def _draw_layout(r: int, taps: tuple[tuple[int, str], ...],
                 transmitted: tuple[int, ...], encoders: tuple[int, ...]):
    """Check a batch's channels, encoders and taps, and lay out how it uses
    its draws, so a valid batch is checked once.  Returns the tapped channels
    in increasing order, the number of words drawn, and per channel the index
    of its X-basis word: the "random" reads' words come last, a Z read's is
    `count`, just past the draws, and an entangling read has none."""
    for what, regs in (("transmitted channel", transmitted),
                       ("encoder", encoders)):
        if regs and (min(regs) < 0 or max(regs) >= r):
            raise _outside(what, regs, r)
    for ch, read in taps:
        if ch not in transmitted:
            raise ValueError(f"tap on channel {ch} which is never transmitted")
        if read not in READS:
            raise ValueError(f"unknown read {read!r} on channel {ch}")
    taps = sorted(taps)
    reads = [read for _, read in taps]
    count = r + len(reads) + 1 - reads.count("z")
    basis = count - reads.count("random")
    picks = []
    for read in reads:
        if read == "random":
            picks.append(basis)
            basis += 1
        else:
            picks.append(count if read == "z" else None)
    return tuple(ch for ch, _ in taps), count, tuple(picks)


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


def distribute(r: int, p: int, taps: dict[int, str],
               transmitted: Sequence[int],
               encoders: Sequence[int]) -> EntangledBatch:
    """Prepare a batch of p GHZ_r tuples (Bell pairs at r = 2).

    `transmitted` lists the registers that traverse a channel (and may be
    tapped); `taps` maps a tapped channel to its read, one of `READS`;
    `encoders` lists the registers that will apply a phase oracle.
    """
    return EntangledBatch(r, p, taps, transmitted, encoders)


def decoy_mismatches(d: int, tapped: int, rounds: int, rng) -> list[int]:
    """Each round's decoy mismatch count, with d decoys on each of `tapped`
    tapped channels: one Binomial(d * tapped, 1/4) draw per round, all in one
    call.  Draws nothing when d * tapped == 0.
    """
    if d < 0:
        raise ValueError("decoy count must be nonnegative")
    if d * tapped == 0:
        return [0] * rounds
    return rng.binomial(d * tapped, 0.25, size=rounds).tolist()


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
    """Send every channel through its (possibly tapped) route.

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

