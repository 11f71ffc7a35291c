"""Exact statevector simulator for small qubit registers: the dense reference.

The protocol never builds a statevector: it samples its entangled rounds
from a closed-form GHZ read law and checks its decoys against another
closed-form read law (see `entangle`), and no protocol module imports this
one.  `dense_state` and `dense_outcomes` run whole rounds on a statevector
and take the sampler's taps: one read string per tapped channel.  They are
the exact reference the sampler is checked against: `oracle-check` compares
`dense_state`'s Born probabilities with the sampler's exact law, and tests
and demos also Born-sample it through `dense_outcomes`.

Conventions:

- Little-endian indexing: qubit j contributes bit j of a basis-state index,
  so in the reshaped [2]*q tensor, qubit j lives on axis q-1-j.
- Amplitudes are complex128, held in the public `amps` array that tests
  read; past 22 qubits `StateVector` raises CapacityError.
- All measurement randomness flows through an injected numpy Generator.
- Every applied gate is appended to `gate_log` so tests can assert on the
  gate set actually used (e.g. GHZ preparation is Hadamard + CNOT only).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .entangle import BASIS_LABELS, RoundOutcome

MAX_QUBITS = 22
_SQRT1_2 = 1.0 / math.sqrt(2.0)


class CapacityError(ValueError):
    """A state would exceed the qubit bound."""


class StateVector:
    """Dense amplitude vector over q qubits, all initialized to |0>."""

    def __init__(self, q: int):
        if q <= 0:
            raise ValueError(f"need at least one qubit, got {q}")
        if q > MAX_QUBITS:
            raise CapacityError(f"{q} qubits exceeds the {MAX_QUBITS}-qubit bound")
        self.q = q
        self.amps = np.zeros(1 << q, dtype=np.complex128)
        self.amps[0] = 1.0
        self.gate_log: list[tuple[str, tuple[int, ...]]] = []

    def _axis(self, qubit: int) -> int:
        if not 0 <= qubit < self.q:
            raise IndexError(f"qubit {qubit} out of range for q={self.q}")
        return self.q - 1 - qubit

    def _branches(self, qubit: int):
        t = self.amps.reshape([2] * self.q)
        ax = self._axis(qubit)
        idx0 = [slice(None)] * self.q
        idx1 = [slice(None)] * self.q
        idx0[ax] = 0
        idx1[ax] = 1
        return t, tuple(idx0), tuple(idx1)

    # -- gates ------------------------------------------------------------

    def apply_h(self, qubit: int):
        t, i0, i1 = self._branches(qubit)
        a0 = t[i0].copy()
        a1 = t[i1]
        t[i0] = (a0 + a1) * _SQRT1_2
        t[i1] = (a0 - a1) * _SQRT1_2
        self.gate_log.append(("h", (qubit,)))

    def apply_h_register(self, qubits: Sequence[int]):
        for qb in qubits:
            self.apply_h(qb)

    def apply_x(self, qubit: int):
        t, i0, i1 = self._branches(qubit)
        a0 = t[i0].copy()
        t[i0] = t[i1]
        t[i1] = a0
        self.gate_log.append(("x", (qubit,)))

    def apply_z(self, qubit: int):
        t, _, i1 = self._branches(qubit)
        t[i1] = -t[i1]
        self.gate_log.append(("z", (qubit,)))

    def apply_cnot(self, control: int, target: int):
        if control == target:
            raise ValueError("control and target must differ")
        t = self.amps.reshape([2] * self.q)
        axc, axt = self._axis(control), self._axis(target)
        i10 = [slice(None)] * self.q
        i11 = [slice(None)] * self.q
        i10[axc] = i11[axc] = 1
        i10[axt], i11[axt] = 0, 1
        i10, i11 = tuple(i10), tuple(i11)
        tmp = t[i10].copy()
        t[i10] = t[i11]
        t[i11] = tmp
        self.gate_log.append(("cnot", (control, target)))

    def apply_phase_oracle(self, c: int, register: Sequence[int], target: int):
        """Kick the phase (-1)^(c.x) onto the register via CNOTs into a |-> target;
        bit j of c acts on register[j].

        The caller must have prepared the target in |->; this is not checked.
        """
        if c < 0 or c >> len(register):
            raise ValueError(f"oracle value {c:#x} is wider than {len(register)} qubits")
        for j, qubit in enumerate(register):
            if c >> j & 1:
                self.apply_cnot(qubit, target)

    # -- state preparation -------------------------------------------------

    def probability_one(self, qubit: int) -> float:
        t, _, i1 = self._branches(qubit)
        return float(np.sum(np.abs(t[i1]) ** 2))

    def _require_zero(self, qubit: int, what: str):
        if self.probability_one(qubit) > 1e-12:
            raise ValueError(f"{what} requires qubit {qubit} in |0>")

    def prepare_basis(self, label: str, qubit: int):
        """Put a fresh qubit into |0>, |1>, |+> or |->; |+-> are H of |0>/|1>."""
        if label not in BASIS_LABELS:
            raise ValueError(f"unknown basis label {label!r}")
        self._require_zero(qubit, "prepare_basis")
        if label in ("1", "-"):
            self.apply_x(qubit)
        if label in ("+", "-"):
            self.apply_h(qubit)

    def prepare_ghz(self, qubits: Sequence[int]):
        """Entangle fresh qubits into (|0...0> + |1...1>)/sqrt(2)."""
        if len(qubits) < 2:
            raise ValueError("GHZ preparation needs at least two qubits")
        for qb in qubits:
            self._require_zero(qb, "prepare_ghz")
        self.apply_h(qubits[0])
        for qb in qubits[1:]:
            self.apply_cnot(qubits[0], qb)

    # -- measurement --------------------------------------------------------

    def measure_qubit(self, qubit: int, rng) -> int:
        p1 = self.probability_one(qubit)
        outcome = 1 if rng.random() < p1 else 0
        t, i0, i1 = self._branches(qubit)
        t[i1 if outcome == 0 else i0] = 0.0
        norm = math.sqrt(p1 if outcome else 1.0 - p1)
        if norm < 1e-12:
            raise RuntimeError("measurement collapsed onto a zero-norm branch")
        self.amps /= norm
        return outcome

    def measure_hadamard_basis(self, qubit: int, rng) -> int:
        """H then computational measurement: 0 for |+>, 1 for |->."""
        self.apply_h(qubit)
        return self.measure_qubit(qubit, rng)

    def sample_register(self, qubits: Sequence[int], shots: int, rng) -> np.ndarray:
        """Born-rule sample of the listed qubits, without collapsing.

        Valid as a batch of final measurements of an otherwise finished
        circuit.  Returns an int64 array of packed outcomes, bit i of each
        entry being qubits[i].
        """
        probs = np.abs(self.amps) ** 2
        probs /= probs.sum()
        raw = rng.choice(len(self.amps), size=shots, p=probs)
        out = np.zeros(shots, dtype=np.int64)
        for i, qb in enumerate(qubits):
            out |= ((raw >> qb) & 1) << i
        return out

    # -- inspection ----------------------------------------------------------

    def dump(self, tol: float = 1e-9) -> str:
        """One line per nonzero amplitude: "bitstring re im", MSB first."""
        lines = []
        for idx in range(len(self.amps)):
            a = self.amps[idx]
            if abs(a) > tol:
                lines.append(f"{format(idx, f'0{self.q}b')} {a.real:.12g} {a.imag:.12g}")
        return "\n".join(lines)


def dense_state(
    r: int,
    p: int,
    taps: dict[int, str] | None = None,
    phase_bits: dict[int, int] | None = None,
    rng=None,
) -> tuple[StateVector, dict[int, int]]:
    """Reference only: one round's circuit on a single dense statevector.

    Register i holds qubits i*p .. i*p+p-1, and position j of every register
    belongs to GHZ tuple j; phase bits and reads are p-bit ints, bit j for
    position j.  `taps` maps channels to reads (`entangle.READS`), applied
    to every position of the channel in channel order: "z" measures it
    mid-circuit with `rng`, "random" measures it in Z or X as `rng` picks,
    and "entangle" CNOTs it onto an ancilla of its own.  Given
    `phase_bits`, each encoder kicks its phases through a |-> target and every register and ancilla
    gets a Hadamard, so the state is the one the final measurement reads.
    The targets follow the registers in sorted encoder order, then p ancillas
    per entangling tap in channel order.

    Returns the state and the measuring taps' reads.  Over the qubit bound
    `StateVector` raises CapacityError.
    """
    taps = taps or {}
    encoders = sorted(phase_bits) if phase_bits is not None else []
    ancilla = r * p + len(encoders)
    ent = [ch for ch in sorted(taps) if taps[ch] == "entangle"]
    state = StateVector(ancilla + len(ent) * p)
    for j in range(p):
        state.prepare_ghz([i * p + j for i in range(r)])
    eve = {}
    for ch, read in sorted(taps.items()):
        qubits = range(ch * p, (ch + 1) * p)
        if read == "entangle":
            for qubit in qubits:
                state.apply_cnot(qubit, ancilla)
                ancilla += 1
            continue
        # A random-basis X read forwards the collapsed eigenstate.
        eve[ch] = 0
        for j, qubit in enumerate(qubits):
            if read == "random" and rng.integers(2):
                eve[ch] |= state.measure_hadamard_basis(qubit, rng) << j
                state.apply_h(qubit)
            else:
                eve[ch] |= state.measure_qubit(qubit, rng) << j
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
    phase_bits: dict[int, int],
    shots: int,
    rng,
    taps: dict[int, str] | None = None,
) -> list[RoundOutcome]:
    """Reference only: Born-sample `shots` final measurements of one round.

    Shots share one final state while nothing collapses mid-circuit; with a
    measuring tap the state is rebuilt for every shot.
    """
    taps = taps or {}
    ent = [ch for ch in sorted(taps) if taps[ch] == "entangle"]
    first_ancilla = r * p + len(phase_bits)
    qubits = [*range(r * p), *range(first_ancilla, first_ancilla + len(ent) * p)]
    per_state = shots if len(ent) == len(taps) else 1
    mask = (1 << p) - 1
    out = []
    while len(out) < shots:
        state, eve = dense_state(r, p, taps, phase_bits, rng)
        for raw in state.sample_register(qubits, per_state, rng):
            vecs = [(int(raw) >> (i * p)) & mask for i in range(r + len(ent))]
            out.append(RoundOutcome(vecs[:r], {**eve, **dict(zip(ent, vecs[r:]))}))
    return out
