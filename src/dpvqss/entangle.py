"""Entanglement distribution, decoy handling, and the correlated-outcome sampler.

A batch models r parties holding p-qubit registers whose j-th qubits form one
GHZ_r tuple (a Bell pair when r = 2).  Two backings expose the same API:

- oracle: one dense statevector over every register qubit, phase-oracle
  targets and eavesdropper ancillas; exact but bounded at 22 qubits.
- sampler: the measurement statistics without exponential state.  Untapped
  rounds draw all but one register uniformly and solve the last from the XOR
  constraint (the solved register is chosen uniformly per draw).  Tapped
  rounds are H/CNOT circuits, so each tuple's joint outcome is uniform over
  an affine subspace of GF(2)^(r+t) (Aaronson & Gottesman 2004).  That law
  depends only on the tap configuration, not on the phase bits (a phase
  kick before the Hadamard layer is a bit flip after it); it is computed
  once per configuration on a stabilizer tableau, cached, and sampled for
  all p positions at once, at any register width.

Decoy qubits are independent single-qubit systems interleaved into each
transmitted sequence; they are simulated only when an eavesdropper actually
touches the channel, since an untouched eigenstate can never mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bitvec import BitVector, CapacityError, DimensionError
from .qsim import BASIS_LABELS, MAX_QUBITS, StateVector

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
    # One- or two-qubit statevector, materialized only on tapped channels
    # (qubit 0 is the decoy, qubit 1 an entangling ancilla if present).
    state: StateVector | None = None


@dataclass
class TransmissionPlan:
    """Per-channel ordered slots of payload qubits and interleaved decoys."""

    slots: dict[int, list[tuple[str, int]]]  # channel -> [("payload", pos) | ("decoy", id)]
    decoys: list[Decoy]
    records: list[tuple[int, int, str]]  # source-retained (channel, slot, label)
    tapped_channels: set[int] = field(default_factory=set)

    def dump(self) -> list[str]:
        """Test format: "channel, slot, kind, state-label" per transmitted item."""
        lines = []
        for ch in sorted(self.slots):
            for slot, (kind, ref) in enumerate(self.slots[ch]):
                label = f"pos{ref}" if kind == "payload" else self.decoys[ref].label
                lines.append(f"{ch}, {slot}, {kind}, {label}")
        return lines


@dataclass
class OutcomeTuple:
    """Measured register contents of one round: Alice's a, the agents' b's,
    and any eavesdropper outcomes keyed by tapped channel."""

    a: BitVector
    b: list[BitVector]
    e: dict[int, BitVector] | None = None


@dataclass
class RoundOutcome:
    registers: list[BitVector]
    eve: dict[int, BitVector]


class EntangledBatch:
    """r registers of p positions backed by an oracle state or the sampler."""

    def __init__(self, r, p, mode, taps, transmitted, encoders):
        if r < 2:
            raise ValueError("need at least two entangled registers")
        if p < 1:
            raise ValueError("need at least one tuple position")
        if mode not in ("oracle", "sampler"):
            raise ValueError(f"unknown backing {mode!r}")
        self.r = r
        self.p = p
        self.mode = mode
        self.taps = dict(taps)
        self.transmitted = tuple(transmitted)
        self.encoders = tuple(encoders)
        for ch in self.taps:
            if ch not in self.transmitted:
                raise ValueError(f"tap on channel {ch} which is never transmitted")
        self.sealed = False
        self.consumed = False
        # Eavesdropper bits captured during transmission (oracle mode).
        self._transit_eve: dict[int, list[int]] = {}

        if mode == "oracle":
            ent_taps = [
                ch for ch, tap in sorted(self.taps.items())
                if tap.kind == "entangle_measure"
            ]
            q = r * p + len(self.encoders) + len(ent_taps) * p
            if q > MAX_QUBITS:
                raise CapacityError(
                    f"oracle backing needs {q} qubits, over the {MAX_QUBITS} bound"
                )
            self.state = StateVector(q)
            self.registers = [
                tuple(range(i * p, (i + 1) * p)) for i in range(r)
            ]
            base = r * p
            self.targets = {
                enc: base + i for i, enc in enumerate(self.encoders)
            }
            base += len(self.encoders)
            self.eve_ancillas = {
                ch: tuple(range(base + i * p, base + (i + 1) * p))
                for i, ch in enumerate(ent_taps)
            }
            for j in range(p):
                self.state.prepare_ghz([reg[j] for reg in self.registers])
        else:
            self.state = None

    # -- transmission -------------------------------------------------------

    def _tap_payload_oracle(self, tap: ChannelTap, channel: int, pos: int, rng):
        qubit = self.registers[channel][pos]
        if tap.kind == "entangle_measure":
            self.state.apply_cnot(qubit, self.eve_ancillas[channel][pos])
            return
        if tap.kind == "intercept_resend" and tap.basis == "random" and rng.integers(2):
            # X-basis interception: the collapsed eigenstate is what she forwards.
            bit = self.state.measure_hadamard_basis(qubit, rng)
            self.state.apply_h(qubit)
        else:
            bit = self.state.measure_qubit(qubit, rng)
        self._transit_eve.setdefault(channel, [0] * self.p)[pos] = bit

    def transmit_channel(self, channel: int, plan: TransmissionPlan, rng):
        """Invoke the tap hook (if any) over one channel's full slot sequence."""
        tap = self.taps.get(channel)
        if tap is None:
            return
        plan.tapped_channels.add(channel)
        for kind, ref in plan.slots[channel]:
            if kind == "decoy":
                _tap_decoy(plan.decoys[ref], tap, rng)
            elif self.mode == "oracle":
                self._tap_payload_oracle(tap, channel, ref, rng)
            # Sampler payload taps take effect during outcome simulation.

    # -- outcome generation ---------------------------------------------------

    def _phase_vectors(self, phase_bits: dict[int, BitVector]) -> dict[int, BitVector]:
        out = {}
        for enc, vec in phase_bits.items():
            if enc not in self.encoders:
                raise ValueError(f"register {enc} has no oracle target allocated")
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
        if self.mode == "oracle":
            return self._oracle_round(phase_bits, rng, collapse=True)
        return self._sampler_round(phase_bits, rng)

    def sample_outcomes(
        self, phase_bits: dict[int, BitVector], shots: int, rng
    ) -> list[RoundOutcome]:
        """Draw many independent final-measurement outcomes of the same round.

        Oracle mode builds the pre-measurement state once and Born-samples it,
        which is only valid while nothing has collapsed mid-circuit; batches
        carrying measuring taps are refused.
        """
        phase_bits = self._phase_vectors(phase_bits)
        self._mark_consumed()
        if self.mode == "sampler":
            return [self._sampler_round(phase_bits, rng) for _ in range(shots)]
        if any(tap.kind != "entangle_measure" for tap in self.taps.values()):
            raise ValueError("cannot batch-sample a batch with measuring taps")
        return self._oracle_sample(phase_bits, shots, rng)

    def final_state(self, phase_bits: dict[int, BitVector]) -> StateVector:
        """Oracle mode only: encode, apply the Hadamard layers, and return the
        pre-measurement state for exact inspection."""
        if self.mode != "oracle":
            raise ValueError("final_state requires the oracle backing")
        phase_bits = self._phase_vectors(phase_bits)
        self._mark_consumed()
        self._apply_encoding(phase_bits)
        return self.state

    def _apply_encoding(self, phase_bits):
        for enc in self.encoders:
            target = self.targets[enc]
            self.state.prepare_basis("-", target)
            vec = phase_bits.get(enc)
            if vec is not None:
                self.state.apply_phase_oracle(vec, self.registers[enc], target)
        for reg in self.registers:
            self.state.apply_h_register(reg)

    def _oracle_round(self, phase_bits, rng, collapse) -> RoundOutcome:
        self._apply_encoding(phase_bits)
        bits = [self.state.measure_register(reg, rng) for reg in self.registers]
        eve = {
            ch: BitVector.from_bits(vals) for ch, vals in self._transit_eve.items()
        }
        for ch, ancillas in self.eve_ancillas.items():
            vals = [self.state.measure_hadamard_basis(qb, rng) for qb in ancillas]
            eve[ch] = BitVector.from_bits(vals)
        return RoundOutcome(bits, eve)

    def _oracle_sample(self, phase_bits, shots, rng) -> list[RoundOutcome]:
        self._apply_encoding(phase_bits)
        anc_order = sorted(self.eve_ancillas)
        for ch in anc_order:
            for qb in self.eve_ancillas[ch]:
                self.state.apply_h(qb)
        qubits = [qb for reg in self.registers for qb in reg]
        for ch in anc_order:
            qubits.extend(self.eve_ancillas[ch])
        packed = self.state.sample_register(qubits, shots, rng)
        p, r = self.p, self.r
        mask = (1 << p) - 1
        out = []
        for raw in packed:
            raw = int(raw)
            regs = [BitVector((raw >> (i * p)) & mask, p) for i in range(r)]
            eve = {}
            for i, ch in enumerate(anc_order):
                eve[ch] = BitVector((raw >> ((r + i) * p)) & mask, p)
            out.append(RoundOutcome(regs, eve))
        return out

    def _sampler_round(self, phase_bits, rng) -> RoundOutcome:
        if not self.taps:
            return self._sampler_honest(phase_bits, rng)
        return self._sampler_tapped(phase_bits, rng)

    def _sampler_honest(self, phase_bits, rng) -> RoundOutcome:
        constraint = BitVector.zeros(self.p)
        for vec in phase_bits.values():
            constraint = constraint ^ vec
        solved = int(rng.integers(self.r))
        bits: list[BitVector | None] = [None] * self.r
        acc = constraint
        for i in range(self.r):
            if i == solved:
                continue
            v = BitVector.random(self.p, rng)
            bits[i] = v
            acc = acc ^ v
        bits[solved] = acc
        total = BitVector.zeros(self.p)
        for v in bits:
            total = total ^ v
        assert total == constraint, "sampler violated its own XOR constraint"
        return RoundOutcome(bits, {})

    def _sampler_tapped(self, phase_bits, rng) -> RoundOutcome:
        """Draw every tuple position at once from its tap configuration's law.

        A random-basis interception reads each position in the X basis where
        its basis bit is set, so positions are grouped by basis pattern and
        each group is drawn from its own cached law.
        """
        p, r = self.p, self.r
        channels = sorted(self.taps)
        random_chs = [
            ch for ch in channels
            if self.taps[ch].kind == "intercept_resend"
            and self.taps[ch].basis == "random"
        ]
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

        nbytes = (p + 7) // 8
        dim = max(len(basis) for (_, basis), _ in laws)
        raw = rng.bytes(dim * nbytes)
        draws = [
            int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
            for i in range(dim)
        ]
        outputs = [0] * (r + len(channels))
        for (offset, basis), mask in laws:
            for j in range(len(outputs)):
                acc = full if (offset >> j) & 1 else 0
                for vec, draw in zip(basis, draws):
                    if (vec >> j) & 1:
                        acc ^= draw
                outputs[j] |= acc & mask
        # A phase kick before the Hadamard layer is a bit flip after it.
        for enc, vec in phase_bits.items():
            outputs[enc] ^= vec.value
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
    """Joint outcome law of one tapped GHZ_r tuple without phase kicks.

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
    mode: str = "sampler",
    taps: dict[int, ChannelTap] | None = None,
    transmitted: Sequence[int] | None = None,
    encoders: Sequence[int] | None = None,
) -> EntangledBatch:
    """Prepare a batch of p GHZ_r tuples (Bell pairs at r = 2).

    `transmitted` lists the registers that traverse a channel (and may be
    tapped); `encoders` lists the registers that will apply a phase oracle,
    which in oracle mode costs one |-> target qubit each.
    """
    if transmitted is None:
        transmitted = range(r)
    if encoders is None:
        encoders = range(r)
    return EntangledBatch(r, p, mode, taps or {}, transmitted, encoders)


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
    """Send every channel through its (possibly tapped) route and seal the batch."""
    if batch.sealed:
        raise RuntimeError("batch already transmitted")
    for ch in sorted(batch.transmitted):
        batch.transmit_channel(ch, plan, rng)
    batch.sealed = True


def _tap_decoy(decoy: Decoy, tap: ChannelTap, rng):
    if tap.kind == "entangle_measure":
        sv = StateVector(2)
        sv.prepare_basis(decoy.label, 0)
        sv.apply_cnot(0, 1)
    else:
        sv = StateVector(1)
        sv.prepare_basis(decoy.label, 0)
        if tap.kind == "intercept_resend" and tap.basis == "random" and rng.integers(2):
            sv.measure_hadamard_basis(0, rng)
            sv.apply_h(0)
        else:
            sv.measure_qubit(0, rng)
    decoy.state = sv


def verify_decoys(
    plan: TransmissionPlan, records: Sequence[tuple[int, int, str]], rng
) -> tuple[int, str]:
    """Measure every decoy in its preparation basis; any mismatch aborts."""
    plan_records = [(d.channel, d.slot, d.label) for d in plan.decoys]
    if sorted(records) != sorted(plan_records):
        raise IntegrityError("source records do not match the received plan")
    mismatches = 0
    for decoy in plan.decoys:
        expected = {"0": 0, "1": 1, "+": 0, "-": 1}[decoy.label]
        if decoy.state is None:
            # Untouched eigenstate: measuring in the preparation basis can
            # never err, so the simulation is skipped.
            continue
        if decoy.label in ("0", "1"):
            got = decoy.state.measure_qubit(0, rng)
        else:
            got = decoy.state.measure_hadamard_basis(0, rng)
        if got != expected:
            mismatches += 1
    return mismatches, ("abort" if mismatches else "proceed")


def sample_idpqc_outcomes(s: BitVector, n: int, m: int, rng) -> OutcomeTuple:
    """One honest information-distribution round: uniform over all tuples with
    a XOR b_{n-1} XOR ... XOR b_0 = s; every proper subset is marginally uniform."""
    if s.length != n * m:
        raise DimensionError(f"secret length {s.length} != n*m = {n * m}")
    batch = distribute(
        n + 1, n * m, "sampler", transmitted=range(n), encoders=(n,)
    )
    out = batch.encode_and_measure({n: s}, rng)
    return OutcomeTuple(a=out.registers[n], b=out.registers[:n])


def sample_icpqc_outcomes(
    s_i: BitVector, s_j: BitVector, rng
) -> tuple[BitVector, BitVector]:
    """One honest pairwise-consolidation round: uniform pairs with
    b_i XOR b_j = s_i XOR s_j."""
    if s_i.length != s_j.length:
        raise DimensionError(
            f"partial vectors of lengths {s_i.length} and {s_j.length}"
        )
    batch = distribute(2, s_i.length, "sampler", encoders=(0, 1))
    out = batch.encode_and_measure({0: s_i, 1: s_j}, rng)
    return out.registers[0], out.registers[1]
