import copy
import math
import subprocess
import sys

import numpy as np
import pytest

from dpvqss.bitvec import random_bits
from dpvqss.qsim import MAX_QUBITS, CapacityError, StateVector

SQRT1_2 = 1.0 / math.sqrt(2.0)


def test_capacity_bound():
    with pytest.raises(CapacityError):
        StateVector(MAX_QUBITS + 1)


class TestPrepareBasis:
    def test_minus_amplitudes(self):
        sv = StateVector(1)
        sv.prepare_basis("-", 0)
        assert sv.amps[0] == pytest.approx(SQRT1_2)
        assert sv.amps[1] == pytest.approx(-SQRT1_2)

    def test_zero_is_identity(self):
        sv = StateVector(2)
        sv.prepare_basis("0", 1)
        assert sv.amps[0] == pytest.approx(1.0)

    def test_plus_then_h_returns_to_zero(self):
        sv = StateVector(1)
        sv.prepare_basis("+", 0)
        sv.apply_h(0)
        assert sv.amps[0] == pytest.approx(1.0)
        assert abs(sv.amps[1]) < 1e-12

    def test_requires_fresh_qubit(self):
        sv = StateVector(1)
        sv.apply_x(0)
        with pytest.raises(ValueError):
            sv.prepare_basis("+", 0)


class TestPrepareGHZ:
    def test_bell_pair_amplitudes(self):
        sv = StateVector(2)
        sv.prepare_ghz([0, 1])
        assert sv.amps[0b00] == pytest.approx(SQRT1_2)
        assert sv.amps[0b11] == pytest.approx(SQRT1_2)
        assert abs(sv.amps[0b01]) < 1e-12

    def test_three_party_amplitudes(self):
        sv = StateVector(3)
        sv.prepare_ghz([0, 1, 2])
        assert sv.amps[0b000] == pytest.approx(SQRT1_2)
        assert sv.amps[0b111] == pytest.approx(SQRT1_2)

    def test_all_equal_outcomes_balanced(self):
        sv = StateVector(3)
        sv.prepare_ghz([0, 1, 2])
        expected = np.zeros(8)
        expected[[0, 0b111]] = 0.5
        assert np.abs(sv.amps) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_uses_only_h_and_cnot(self):
        sv = StateVector(4)
        sv.prepare_ghz([0, 1, 2, 3])
        assert {name for name, _ in sv.gate_log} == {"h", "cnot"}

    def test_rejects_dirty_qubits(self):
        sv = StateVector(2)
        sv.apply_x(1)
        with pytest.raises(ValueError):
            sv.prepare_ghz([0, 1])


class TestGates:
    def test_hh_on_11(self):
        # Two-qubit Hadamard expansion of |11>: all +-1/2 with sign (-1)^(z.x).
        sv = StateVector(2)
        sv.apply_x(0)
        sv.apply_x(1)
        sv.apply_h(0)
        sv.apply_h(1)
        assert sv.amps[0b00] == pytest.approx(0.5)
        assert sv.amps[0b01] == pytest.approx(-0.5)
        assert sv.amps[0b10] == pytest.approx(-0.5)
        assert sv.amps[0b11] == pytest.approx(0.5)

    def test_cnot_truth_table(self):
        sv = StateVector(2)
        sv.apply_x(1)  # |10>
        sv.apply_cnot(1, 0)
        assert sv.amps[0b11] == pytest.approx(1.0)

    def test_h_involution(self):
        rng = np.random.default_rng(21)
        sv = random_state(5, rng)
        ref = sv.amps.copy()
        sv.apply_h(3)
        sv.apply_h(3)
        assert np.max(np.abs(sv.amps - ref)) < 1e-12

    def test_hadamard_expansion_signs(self):
        # H^p |x> has amplitude 2^(-p/2) (-1)^(z.x) at |z>, checked for all
        # p <= 6 and all x.
        for p in range(1, 7):
            for xv in range(1 << p):
                sv = StateVector(p)
                for j in range(p):
                    if (xv >> j) & 1:
                        sv.apply_x(j)
                sv.apply_h_register(range(p))
                scale = 2 ** (-p / 2)
                for zv in range(1 << p):
                    sign = -1 if (zv & xv).bit_count() & 1 else 1
                    assert sv.amps[zv] == pytest.approx(sign * scale)

    def test_norm_drift_many_gates(self):
        rng = np.random.default_rng(22)
        sv = StateVector(8)
        for qb in range(8):
            sv.apply_h(qb)
        for _ in range(10_000):
            if rng.random() < 0.5:
                sv.apply_h(int(rng.integers(8)))
            else:
                a, b = rng.choice(8, size=2, replace=False)
                sv.apply_cnot(int(a), int(b))
        assert abs(np.linalg.norm(sv.amps) - 1.0) <= 1e-9


def random_state(q, rng, skip=()):
    """Scramble a fresh register with random H/CNOT/Z gates."""
    sv = StateVector(q)
    usable = [qb for qb in range(q) if qb not in skip]
    for qb in usable:
        sv.apply_h(qb)
    for _ in range(3 * q):
        choice = rng.integers(3)
        if choice == 0:
            sv.apply_h(int(rng.choice(usable)))
        elif choice == 1:
            sv.apply_z(int(rng.choice(usable)))
        elif len(usable) >= 2:
            a, b = rng.choice(usable, size=2, replace=False)
            sv.apply_cnot(int(a), int(b))
    return sv


class TestPhaseOracle:
    def test_zero_vector_is_identity(self):
        rng = np.random.default_rng(23)
        sv = random_state(4, rng, skip=(3,))
        sv.prepare_basis("-", 3)
        ref = sv.amps.copy()
        sv.apply_phase_oracle(0, [0, 1, 2], 3)
        assert np.array_equal(sv.amps, ref)

    def test_single_bit_kickback(self):
        sv = StateVector(2)
        sv.prepare_basis("+", 0)
        sv.prepare_basis("-", 1)
        sv.apply_phase_oracle(1, [0], 1)
        # Register qubit flipped from |+> to |->; measuring in H basis gives 1.
        rng = np.random.default_rng(24)
        assert sv.measure_hadamard_basis(0, rng) == 1

    def test_bell_state_invariant_under_11(self):
        sv = StateVector(3)
        sv.prepare_ghz([0, 1])
        sv.prepare_basis("-", 2)
        ref = sv.amps.copy()
        sv.apply_phase_oracle(0b11, [0, 1], 2)
        assert np.max(np.abs(sv.amps - ref)) < 1e-12

    def test_composition_equals_xor(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            sv = random_state(8, rng, skip=(7,))
            sv.prepare_basis("-", 7)
            c1 = random_bits(7, rng)
            c2 = random_bits(7, rng)
            seq = copy.deepcopy(sv)
            seq.apply_phase_oracle(c1, range(7), 7)
            seq.apply_phase_oracle(c2, range(7), 7)
            once = copy.deepcopy(sv)
            once.apply_phase_oracle(c1 ^ c2, range(7), 7)
            assert np.max(np.abs(seq.amps - once.amps)) < 1e-12

    def test_length_mismatch(self):
        # Bit j of the value acts on register qubit j, so a value wider than
        # the register has a bit with no qubit.
        sv = StateVector(3)
        for bad in (0b100, -1):
            with pytest.raises(ValueError):
                sv.apply_phase_oracle(bad, [0, 1], 2)


class TestMeasurement:
    def test_deterministic_one(self):
        sv = StateVector(1)
        sv.apply_x(0)
        assert sv.measure_qubit(0, np.random.default_rng(26)) == 1

    def test_ghz_collapse_correlation(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            sv = StateVector(3)
            sv.prepare_ghz([0, 1, 2])
            first = sv.measure_qubit(0, rng)
            rest = [sv.measure_qubit(qb, rng) for qb in (1, 2)]
            assert rest == [first, first]

    def test_remeasurement_idempotent(self):
        rng = np.random.default_rng(28)
        sv = StateVector(2)
        sv.prepare_ghz([0, 1])
        first = [sv.measure_qubit(qb, rng) for qb in (0, 1)]
        again = [sv.measure_qubit(qb, rng) for qb in (0, 1)]
        assert first == again

    def test_hadamard_basis_eigenstates(self):
        rng = np.random.default_rng(29)
        for label, expected in (("+", 0), ("-", 1)):
            sv = StateVector(1)
            sv.prepare_basis(label, 0)
            assert sv.measure_hadamard_basis(0, rng) == expected

    def test_hadamard_basis_on_zero_is_balanced(self):
        sv = StateVector(1)
        sv.apply_h(0)  # H|0> read in the computational basis == |0> in H basis
        assert np.abs(sv.amps) ** 2 == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_seeded_determinism(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            sv = StateVector(4)
            sv.prepare_ghz([0, 1, 2, 3])
            return [sv.measure_qubit(qb, rng) for qb in range(4)]

        assert run(31) == run(31)


class TestDumpAndLayout:
    def test_dump_format(self):
        sv = StateVector(2)
        sv.prepare_ghz([0, 1])
        lines = sv.dump().splitlines()
        assert lines[0].startswith("00 ")
        assert lines[1].startswith("11 ")
        assert float(lines[0].split()[1]) == pytest.approx(SQRT1_2)


def test_protocol_never_loads_the_dense_reference():
    code = "import sys, dpvqss.protocol; sys.exit('dpvqss.qsim' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
