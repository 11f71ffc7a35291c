"""Entanglement distribution, decoy handling, and the correlated-outcome sampler.

A batch models r parties holding p-qubit registers whose j-th qubits form one
GHZ_r tuple (a Bell pair when r = 2).  Every round, tapped or not, is an
H/CNOT circuit, so each tuple's joint outcome is uniform over an affine
subspace of GF(2)^(r+t) for t tapped channels (Aaronson & Gottesman 2004).
That law depends only on the tap configuration, not on the phase bits (a
phase kick before the Hadamard layer is a bit flip after it); it is computed
once per configuration on a stabilizer tableau, cached, and sampled for all
p positions at once, at any register width.  With no taps it is the XOR
constraint: uniform over the register tuples whose XOR is the phase bits.

`dense_state` and `dense_outcomes` build the same round as one dense
statevector.  They are the exact reference the sampler is checked against
and no protocol path calls them; `StateVector` bounds them at 22 qubits.

Decoy qubits are Z or X eigenstates interleaved into each transmitted
sequence and checked in their preparation basis (Bennett & Brassard 1984).
No decoy state is simulated: one that a tap read in the conjugate basis
mismatches with probability 1/2, and any other never does (an entangling
CNOT reads like Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from typing import Sequence

import numpy as np

from .bitvec import BitVector, DimensionError
from .qsim import BASIS_LABELS, StateVector

TAP_KINDS = ("measure_resend", "intercept_resend", "entangle_measure")


class IntegrityError(ValueError):
    """Transmission plan and source records disagree."""


@dataclass(frozen=True)
class ChannelTap:
    """An eavesdropper action applied to every qubit crossing one channel."""

    kind: str
    basis: str = "computational"  # intercept_resend only: computational | random

    def __post_init__(self):
        if self.kind not in TAP_KINDS:
            raise ValueError(f"unknown tap kind {self.kind!r}")
        if self.basis not in ("computational", "random"):
            raise ValueError(f"unknown interception basis {self.basis!r}")

    @property
    def random_basis(self) -> bool:
        """Whether the tap reads each qubit in a uniformly random Z or X basis."""
        return self.kind == "intercept_resend" and self.basis == "random"


@dataclass(frozen=True)
class DecoySpec:
    """How many decoys to interleave into each transmitted channel."""

    count_per_channel: int = 16

    def __post_init__(self):
        if self.count_per_channel < 0:
            raise ValueError("decoy count must be nonnegative")


@dataclass
class Decoy:
    channel: int
    slot: int
    label: str
    # How a tap read the decoy ("z", "x" or "entangle"); None if untouched.
    state: str | None = None


@dataclass
class TransmissionPlan:
    """Per-channel ordered slots of payload qubits and interleaved decoys."""

    slots: dict[int, list[tuple[str, int]]]  # channel -> [("payload", pos) | ("decoy", id)]
    decoys: list[Decoy]
    records: list[tuple[int, int, str]]  # source-retained (channel, slot, label)

    def dump(self) -> list[str]:
        """Test format: "channel, slot, kind, state-label" per transmitted item."""
        lines = []
        for ch in sorted(self.slots):
            for slot, (kind, ref) in enumerate(self.slots[ch]):
                label = f"pos{ref}" if kind == "payload" else self.decoys[ref].label
                lines.append(f"{ch}, {slot}, {kind}, {label}")
        return lines


@dataclass
class RoundOutcome:
    """Measured register contents of one round, and any eavesdropper
    outcomes keyed by tapped channel."""

    registers: list[BitVector]
    eve: dict[int, BitVector]


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
        for ch in self.taps:
            if ch not in self.transmitted:
                raise ValueError(f"tap on channel {ch} which is never transmitted")
        self.sealed = False
        self.consumed = False

    # -- outcome generation ---------------------------------------------------

    def _phase_vectors(self, phase_bits: dict[int, BitVector]) -> dict[int, BitVector]:
        out = {}
        for enc, vec in phase_bits.items():
            if enc not in self.encoders:
                raise ValueError(f"register {enc} is not an encoder")
            if vec.length != self.p:
                raise DimensionError(
                    f"phase vector for register {enc} has length {vec.length}, "
                    f"expected {self.p}"
                )
            out[enc] = vec
        return out

    def _mark_consumed(self):
        if self.consumed:
            raise RuntimeError("batch already measured")
        if not self.sealed:
            if self.taps:
                raise RuntimeError("taps registered but batch never transmitted")
            self.sealed = True
        self.consumed = True

    def encode_and_measure(self, phase_bits: dict[int, BitVector], rng) -> RoundOutcome:
        """Apply the encoders' phase oracles, the Hadamard layers, and measure."""
        phase_bits = self._phase_vectors(phase_bits)
        self._mark_consumed()
        return self._sample(phase_bits, rng)

    def _sample(self, phase_bits, rng) -> RoundOutcome:
        """Draw every tuple position at once from its tap configuration's law
        (with no taps, the XOR constraint).

        A random-basis interception reads each position in the X basis where
        its basis bit is set, so positions are grouped by basis pattern and
        each group is drawn from its own cached law.
        """
        p, r = self.p, self.r
        channels = sorted(self.taps)
        random_chs = [ch for ch in channels if self.taps[ch].random_basis]
        full = (1 << p) - 1
        groups = [(set(), full)]  # (channels read in the X basis, positions)
        if random_chs:
            basis_bits = rng.integers(0, 2, size=(len(random_chs), p))
            patterns, which = np.unique(basis_bits, axis=1, return_inverse=True)
            which = which.reshape(-1)
            groups = [
                (
                    {ch for ch, bit in zip(random_chs, pattern) if bit},
                    int.from_bytes(
                        np.packbits(which == g, bitorder="little").tobytes(),
                        "little",
                    ),
                )
                for g, pattern in enumerate(patterns.T)
            ]
        laws = []
        for x_basis, mask in groups:
            reads = tuple(
                (ch, _read(self.taps[ch], ch in x_basis)) for ch in channels
            )
            laws.append((_outcome_law(r, reads), mask))

        # Whole 64-bit words per basis vector, straight from the bit
        # generator: `Generator.bytes` goes through `Generator.integers` and
        # costs more than the rest of a small round.
        nbytes = 8 * ((p + 63) // 64)
        dim = max(len(basis) for (_, basis), _ in laws)
        raw = rng.bit_generator.random_raw(dim * nbytes // 8).tobytes()
        draws = [
            int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
            for i in range(dim)
        ]
        outputs = [0] * (r + len(channels))
        for (offset, basis), mask in laws:
            # Each set bit j of a law vector XORs its draw into output j.
            for vec, draw in ((offset, full), *zip(basis, draws)):
                draw &= mask
                while vec:
                    outputs[(vec & -vec).bit_length() - 1] ^= draw
                    vec &= vec - 1
        # A phase kick before the Hadamard layer is a bit flip after it.
        for enc, vec in phase_bits.items():
            outputs[enc] ^= vec.value
        if not channels:
            assert reduce(xor, outputs) == reduce(
                xor, (vec.value for vec in phase_bits.values()), 0
            ), "sampler violated its own XOR constraint"
        return RoundOutcome(
            [BitVector(v, p) for v in outputs[:r]],
            {ch: BitVector(v, p) for ch, v in zip(channels, outputs[r:])},
        )


def _read(tap: ChannelTap, x_basis: bool) -> str:
    """How a tap reads one tuple qubit: "entangle", or a "z"/"x" measurement."""
    if tap.kind == "entangle_measure":
        return "entangle"
    return "x" if x_basis else "z"


@lru_cache(maxsize=4096)
def _outcome_law(
    r: int, reads: tuple[tuple[int, str], ...]
) -> tuple[int, tuple[int, ...]]:
    """Joint outcome law of one GHZ_r tuple under `reads`, without phase kicks.

    Outputs are the r register bits, then one eavesdropper bit per entry of
    `reads`.  Each mid-circuit measurement is deferred onto its own ancilla:
    a Z read is CNOT(channel -> ancilla); an X read that forwards the
    collapsed eigenstate is H, CNOT, H on the channel.  An entangling tap's
    ancilla is read in the X basis at the end.  The outcomes are uniform over
    offset + span(basis), as returned by `_stabilizer_support`.
    """
    gates = [("h", 0)] + [("cnot", 0, i) for i in range(1, r)]
    for i, (ch, read) in enumerate(reads):
        if read == "x":
            gates += [("h", ch), ("cnot", ch, r + i), ("h", ch)]
        else:
            gates.append(("cnot", ch, r + i))
    gates += [("h", i) for i in range(r)]
    gates += [
        ("h", r + i) for i, (_, read) in enumerate(reads) if read == "entangle"
    ]
    return _stabilizer_support(r + len(reads), gates)


def _stabilizer_support(q: int, gates) -> tuple[int, tuple[int, ...]]:
    """Z-basis outcome law of an H/CNOT circuit applied to |0...0>.

    Stabilizer rows are [x, z, sign] over q-bit masks, updated by the
    tableau rules of Aaronson & Gottesman (2004).  The computational-basis
    support of the final state is offset + span(basis): the X parts of the
    stabilizer group span its directions, and its Z-only elements fix the
    offset.  Every point of the support is equally likely.
    """
    rows = [[0, 1 << a, 0] for a in range(q)]
    for name, *qubits in gates:
        for row in rows:
            x, z = row[0], row[1]
            if name == "h":
                (a,) = qubits
                xa, za = (x >> a) & 1, (z >> a) & 1
                row[2] ^= xa & za
                if xa != za:
                    row[0] ^= 1 << a
                    row[1] ^= 1 << a
            else:
                c, t = qubits
                xc, zc = (x >> c) & 1, (z >> c) & 1
                xt, zt = (x >> t) & 1, (z >> t) & 1
                row[2] ^= xc & zt & (xt ^ zc ^ 1)
                row[0] ^= xc << t
                row[1] ^= zt << c

    x_pivots, rows = _eliminate(rows, 0, q)
    # What is left is Z-only: each row [0, z, s] demands parity z.x = s.
    offset = 0
    for a, (_, z, s) in reversed(_eliminate(rows, 1, q)[0]):
        # Later pivots and free coordinates (left at 0) are already set.
        offset |= (s ^ (z & offset).bit_count() & 1) << a
    return offset, tuple(row[0] for _, row in x_pivots)


def _eliminate(rows, part: int, q: int):
    """Row-reduce signed Pauli rows on their x (part 0) or z (part 1) masks.

    Returns the (column, row) pivots in increasing column order, each pivot
    row clear of every earlier pivot column, and the rows whose mask in that
    part reduced to zero.
    """
    pivots = []
    for a in range(q):
        pivot = next((row for row in rows if (row[part] >> a) & 1), None)
        if pivot is None:
            continue
        rows = [
            _pauli_product(row, pivot) if (row[part] >> a) & 1 else row
            for row in rows if row is not pivot
        ]
        pivots.append((a, pivot))
    return pivots, rows


def _pauli_product(p1, p2):
    """The product of two commuting signed Pauli rows [x, z, sign]."""
    x1, z1, s1 = p1
    x2, z2, s2 = p2
    y1, xo1, zo1 = x1 & z1, x1 & ~z1, z1 & ~x1
    y2, xo2, zo2 = x2 & z2, x2 & ~z2, z2 & ~x2
    # Power of i picked up qubit by qubit (Aaronson & Gottesman's g).
    g = (
        (y1 & zo2).bit_count() - (y1 & xo2).bit_count()
        + (xo1 & y2).bit_count() - (xo1 & zo2).bit_count()
        + (zo1 & xo2).bit_count() - (zo1 & y2).bit_count()
    )
    return [x1 ^ x2, z1 ^ z2, ((2 * s1 + 2 * s2 + g) % 4) // 2]


def distribute(
    r: int,
    p: int,
    taps: dict[int, ChannelTap] | None = None,
    transmitted: Sequence[int] | None = None,
    encoders: Sequence[int] | None = None,
) -> EntangledBatch:
    """Prepare a batch of p GHZ_r tuples (Bell pairs at r = 2).

    `transmitted` lists the registers that traverse a channel (and may be
    tapped); `encoders` lists the registers that will apply a phase oracle.
    """
    if transmitted is None:
        transmitted = range(r)
    if encoders is None:
        encoders = range(r)
    return EntangledBatch(r, p, taps or {}, transmitted, encoders)


def insert_decoys(batch: EntangledBatch, spec: DecoySpec, rng) -> TransmissionPlan:
    """Interleave per-channel decoys at seeded random positions."""
    slots: dict[int, list[tuple[str, int]]] = {}
    decoys: list[Decoy] = []
    records = []
    d = spec.count_per_channel
    for ch in sorted(batch.transmitted):
        total = batch.p + d
        if d:
            decoy_slots = set(
                int(s) for s in rng.choice(total, size=d, replace=False)
            )
            labels = [BASIS_LABELS[i] for i in rng.integers(0, 4, size=d)]
        else:
            decoy_slots = set()
            labels = []
        channel_slots = []
        pos = 0
        label_idx = 0
        for slot in range(total):
            if slot in decoy_slots:
                label = labels[label_idx]
                label_idx += 1
                decoys.append(Decoy(ch, slot, label))
                records.append((ch, slot, label))
                channel_slots.append(("decoy", len(decoys) - 1))
            else:
                channel_slots.append(("payload", pos))
                pos += 1
        slots[ch] = channel_slots
    return TransmissionPlan(slots, decoys, records)


def transmit(batch: EntangledBatch, plan: TransmissionPlan, rng):
    """Send every channel through its (possibly tapped) route and seal the batch.

    Each decoy on a tapped channel records how the tap read it; payload taps
    take effect when the outcomes are drawn.
    """
    if batch.sealed:
        raise RuntimeError("batch already transmitted")
    for ch, tap in sorted(batch.taps.items()):
        decoys = [
            plan.decoys[ref] for kind, ref in plan.slots[ch] if kind == "decoy"
        ]
        x_basis = [False] * len(decoys)
        if tap.random_basis:
            x_basis = rng.integers(0, 2, size=len(decoys))
        for decoy, x in zip(decoys, x_basis):
            decoy.state = _read(tap, x)
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


def sample_idpqc_outcomes(s: BitVector, n: int, m: int, rng) -> RoundOutcome:
    """One honest information-distribution round: registers b_0..b_{n-1}, then
    a, uniform over all tuples with a XOR b_{n-1} XOR ... XOR b_0 = s; every
    proper subset is marginally uniform."""
    if s.length != n * m:
        raise DimensionError(f"secret length {s.length} != n*m = {n * m}")
    batch = distribute(n + 1, n * m, transmitted=range(n), encoders=(n,))
    return batch.encode_and_measure({n: s}, rng)


def sample_icpqc_outcomes(
    s_i: BitVector, s_j: BitVector, rng
) -> tuple[BitVector, BitVector]:
    """One honest pairwise-consolidation round: uniform pairs with
    b_i XOR b_j = s_i XOR s_j."""
    if s_i.length != s_j.length:
        raise DimensionError(
            f"partial vectors of lengths {s_i.length} and {s_j.length}"
        )
    batch = distribute(2, s_i.length, encoders=(0, 1))
    out = batch.encode_and_measure({0: s_i, 1: s_j}, rng)
    return out.registers[0], out.registers[1]


def dense_state(
    r: int,
    p: int,
    taps: dict[int, ChannelTap] | None = None,
    phase_bits: dict[int, BitVector] | None = None,
    rng=None,
) -> tuple[StateVector, dict[int, BitVector]]:
    """Reference only: one round's circuit on a single dense statevector.

    Register i holds qubits i*p .. i*p+p-1, and position j of every register
    belongs to GHZ tuple j.  Each tap then acts on every position of its
    channel, in channel order: a measuring tap reads it mid-circuit with
    `rng`, an entangling tap CNOTs it onto an ancilla of its own.  Given `phase_bits`, each encoder
    kicks its phases through a |-> target and every register and ancilla
    gets a Hadamard, so the state is the one the final measurement reads.
    The targets follow the registers in sorted encoder order, then p ancillas
    per entangling tap in channel order.

    Returns the state and the measuring taps' reads.  Over the qubit bound
    `StateVector` raises CapacityError.
    """
    taps = taps or {}
    encoders = sorted(phase_bits) if phase_bits is not None else []
    ancilla = r * p + len(encoders)
    ent = [ch for ch in sorted(taps) if taps[ch].kind == "entangle_measure"]
    state = StateVector(ancilla + len(ent) * p)
    for j in range(p):
        state.prepare_ghz([i * p + j for i in range(r)])
    eve = {}
    for ch in sorted(taps):
        tap = taps[ch]
        qubits = range(ch * p, (ch + 1) * p)
        if tap.kind == "entangle_measure":
            for qubit in qubits:
                state.apply_cnot(qubit, ancilla)
                ancilla += 1
            continue
        # A random-basis X read forwards the collapsed eigenstate.
        bits = []
        for qubit in qubits:
            if tap.random_basis and rng.integers(2):
                bits.append(state.measure_hadamard_basis(qubit, rng))
                state.apply_h(qubit)
            else:
                bits.append(state.measure_qubit(qubit, rng))
        eve[ch] = BitVector.from_bits(bits)
    if phase_bits is not None:
        for i, enc in enumerate(encoders):
            target = r * p + i
            state.prepare_basis("-", target)
            state.apply_phase_oracle(
                phase_bits[enc], range(enc * p, (enc + 1) * p), target
            )
        state.apply_h_register(range(r * p))
        state.apply_h_register(range(r * p + len(encoders), state.q))
    return state, eve


def dense_outcomes(
    r: int,
    p: int,
    phase_bits: dict[int, BitVector],
    shots: int,
    rng,
    taps: dict[int, ChannelTap] | None = None,
) -> list[RoundOutcome]:
    """Reference only: Born-sample `shots` final measurements of one round.

    Shots share one final state while nothing collapses mid-circuit; with a
    measuring tap the state is rebuilt for every shot.
    """
    taps = taps or {}
    ent = [ch for ch in sorted(taps) if taps[ch].kind == "entangle_measure"]
    first_ancilla = r * p + len(phase_bits)
    qubits = [*range(r * p), *range(first_ancilla, first_ancilla + len(ent) * p)]
    per_state = shots if len(ent) == len(taps) else 1
    mask = (1 << p) - 1
    out = []
    while len(out) < shots:
        state, eve = dense_state(r, p, taps, phase_bits, rng)
        for raw in state.sample_register(qubits, per_state, rng):
            vecs = [BitVector((int(raw) >> (i * p)) & mask, p)
                    for i in range(r + len(ent))]
            out.append(RoundOutcome(vecs[:r], {**eve, **dict(zip(ent, vecs[r:]))}))
    return out
