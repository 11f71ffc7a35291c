import copy
import math
from collections import Counter
from functools import reduce
from itertools import combinations, product
from operator import xor

import numpy as np
import pytest

from dpvqss.adversary import EveStrategy
from dpvqss.bitvec import random_bits, random_words
from dpvqss.entangle import (
    READS,
    Decoy,
    DimensionError,
    IntegrityError,
    TransmissionPlan,
    _read_law,
    decoy_mismatches,
    distribute,
    insert_decoys,
    transmit,
    verify_decoys,
)
from dpvqss.qsim import CapacityError, StateVector, dense_state
from chi_square import homogeneity_p
from dense_reference import assert_laws_match, dense_law, dense_tuple_law, sampler_law
from stabilizer_reference import echelon, in_span, outcome_law, uniform_law

SQRT1_2 = 1.0 / math.sqrt(2.0)


def bv(text):
    """The int that an MSB-first bit literal such as "1011" stands for."""
    return int(text, 2)


def xor_all(vectors):
    return reduce(xor, vectors)


class TestDistributeOracle:
    """The dense reference's GHZ preparation."""

    def test_bell_pair(self):
        state = dense_state(2, 1)
        assert state.amps[0b00] == pytest.approx(SQRT1_2)
        assert state.amps[0b11] == pytest.approx(SQRT1_2)

    def test_tensor_power_of_ghz3(self):
        # Two GHZ_3 tuples across three 2-qubit registers: amplitude 1/2 on
        # every |x>|x>|x> pattern.
        state = dense_state(3, 2)
        for xv in range(4):
            idx = xv | (xv << 2) | (xv << 4)
            assert state.amps[idx] == pytest.approx(0.5)
        assert state.amps[0b000001] == pytest.approx(0.0)

    def test_oracle_capacity_refusal(self):
        with pytest.raises(CapacityError):
            dense_state(5, 8, phase_bits={4: 0})

    @pytest.mark.parametrize("phase_bits, bad", [
        ({0: 1, 2: 1}, 2),
        ({0: 1, 3: 0}, 3),
        ({2: 2}, 2),
        ({-1: 1}, -1),
    ])
    def test_encoder_outside_the_registers_rejected(self, phase_bits, bad):
        with pytest.raises(ValueError, match=rf"^encoder {bad} is not a register"):
            dense_state(2, 2, phase_bits)


def sample_idpqc(s, n, m, rng):
    """One honest information-distribution round: registers b_0..b_{n-1},
    then a, uniform over all tuples with a XOR b_{n-1} XOR ... XOR b_0 = s."""
    batch = distribute(n + 1, n * m, {}, range(n), (n,))
    return batch.encode_and_measure({n: s}, rng, range(n + 1))


class TestHonestSampler:
    def test_constraint_holds_in_every_draw(self):
        rng = np.random.default_rng(40)
        s = bv("1011")
        for _ in range(100_000):
            out = sample_idpqc(s, n=2, m=2, rng=rng)
            assert xor_all(out.registers.values()) == s

    def test_small_case_uniform_support(self):
        rng = np.random.default_rng(41)
        counts = Counter()
        trials = 4000
        for _ in range(trials):
            out = sample_idpqc(bv("1"), n=1, m=1, rng=rng)
            counts[(out.registers[1], out.registers[0])] += 1
        assert set(counts) == {(0, 1), (1, 0)}
        for c in counts.values():
            assert abs(c / trials - 0.5) < 0.05

    def test_zero_secret_restates_constraint(self):
        rng = np.random.default_rng(42)
        s = 0
        for _ in range(200):
            out = sample_idpqc(s, n=3, m=2, rng=rng)
            assert xor_all(out.registers[j] for j in range(3)) == out.registers[3]


def sample_icpqc(s_i, s_j, p, rng):
    """One honest pairwise-consolidation round over p positions:
    b_i XOR b_j = s_i XOR s_j."""
    out = distribute(2, p, {}, range(2), (0, 1)).encode_and_measure(
        {0: s_i, 1: s_j}, rng, (0, 1)
    )
    return out.registers[0], out.registers[1]


class TestIcpqcSampler:
    def test_single_bit_difference(self):
        rng = np.random.default_rng(43)
        counts = Counter()
        for _ in range(2000):
            bi, bj = sample_icpqc(bv("0"), bv("1"), 1, rng)
            counts[(bi, bj)] += 1
        assert set(counts) == {(0, 1), (1, 0)}

    def test_equal_vectors_give_equal_outcomes(self):
        rng = np.random.default_rng(44)
        s = bv("1101")
        for _ in range(200):
            bi, bj = sample_icpqc(s, s, 4, rng)
            assert bi == bj

    def test_xor_matches_in_every_draw(self):
        rng = np.random.default_rng(45)
        si, sj = bv("10110101"), bv("01110010")
        for _ in range(100_000):
            bi, bj = sample_icpqc(si, sj, 8, rng)
            assert bi ^ bj == si ^ sj


class TestSamplerOracleEquivalence:
    def test_distributions_match(self):
        n, m = 2, 1
        p = n * m
        for s in (bv("01"), bv("11")):
            law = sampler_law(n + 1, p, {}, range(n), {n: s})
            assert all(xor_all(k >> (i * p) & (1 << p) - 1 for i in range(n + 1)) == s
                       for k in law)
            assert_laws_match(law, dense_law(n + 1, p, {}, {n: s}))

    def test_subset_marginals_exactly_uniform(self):
        # From the exact pre-measurement state, every proper register subset
        # is uniform no matter the secret.
        for s in (bv("00"), bv("10"), bv("11")):
            state = dense_state(3, 2, phase_bits={2: s})
            probs = np.abs(state.amps.reshape([2] * state.q)) ** 2
            # Register i occupies qubits [2i, 2i+1]; axes are reversed.
            for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
                axes_keep = set()
                for reg in keep:
                    axes_keep |= {state.q - 1 - (2 * reg), state.q - 1 - (2 * reg + 1)}
                drop = tuple(ax for ax in range(state.q) if ax not in axes_keep)
                marg = probs.sum(axis=drop).reshape(-1)
                assert np.allclose(marg, 1.0 / len(marg), atol=1e-9)

    def test_sampler_subset_independent_of_secret(self):
        # Over every draw, register 0 alone is uniform under either secret.
        for s in (bv("00"), bv("11")):
            marginal = Counter()
            for key, prob in sampler_law(2, 2, {}, range(1), {1: s}).items():
                marginal[key & 0b11] += prob
            assert marginal == dict.fromkeys(range(4), 0.25)


class TestTapPhysics:
    """Cross-validate the sampler's per-tuple attack model against the
    dense reference."""

    @staticmethod
    def assert_tapped_laws_match(taps, s, n, m):
        phase_bits = {n: s}
        assert_laws_match(sampler_law(n + 1, n * m, taps, range(n), phase_bits),
                          dense_law(n + 1, n * m, taps, phase_bits))

    @pytest.mark.parametrize(
        "tap",
        [
            EveStrategy("measure_resend"),
            EveStrategy("intercept_resend", "computational"),
            EveStrategy("intercept_resend", "random"),
        ],
    )
    def test_measuring_taps_match_oracle(self, tap):
        self.assert_tapped_laws_match(tap.taps_for(1, [0]), bv("10"), 1, 2)

    def test_entangle_tap_matches_oracle(self):
        self.assert_tapped_laws_match({0: "entangle"}, bv("10"), 2, 1)

    @pytest.mark.parametrize(
        "taps",
        [
            {0: "z", 1: "z"},
            {0: "random", 1: "random"},
            {0: "entangle", 1: "entangle"},
            {0: "entangle", 1: "random"},
        ],
        ids=["measure", "random_intercept", "entangle", "mixed"],
    )
    def test_multi_channel_taps_match_oracle(self, taps):
        self.assert_tapped_laws_match(taps, bv("10"), 2, 1)

    @pytest.mark.parametrize("kind", ["measure_resend", "intercept_resend"])
    def test_measuring_taps_read_one_shared_vector(self, kind):
        # The first Z measurement collapses the GHZ tuple, so every tapped
        # channel reads the same vector.
        rng = np.random.default_rng(64)
        taps = EveStrategy(kind).taps_for(1, (0, 1))
        for _ in range(500):
            batch = distribute(3, 2, taps, (0, 1), (2,))
            out = batch.encode_and_measure({2: bv("01")}, rng, ())
            assert out.eve[0] == out.eve[1]

    def test_wide_random_basis_positions_follow_their_own_law(self):
        # 66 random-basis taps: every position must land in the support of
        # the law for its own basis pattern.
        r, p = 67, 4
        chans = range(r - 1)
        batch = distribute(r, p, dict.fromkeys(chans, "random"), chans, (r - 1,))
        rng = np.random.default_rng(65)
        # The sampler draws one 64-bit word each for the r registers and the
        # shared Z outcome, then the basis words, one per channel.
        raw = copy.deepcopy(rng).bit_generator.random_raw(r + 1 + len(chans))
        basis_words = [int(word) for word in raw[r + 1:]]
        out = batch.encode_and_measure({r - 1: 0}, rng, range(r))
        vectors = [*out.registers.values(), *(out.eve[ch] for ch in chans)]
        for j in range(p):
            reads = tuple(
                (ch, "x" if (basis_words[ch] >> j) & 1 else "z") for ch in chans
            )
            offset, basis = outcome_law(r, reads)
            point = offset
            for i, vec in enumerate(vectors):
                point ^= (vec >> j & 1) << i
            assert in_span(point, basis)

    def test_entangle_tap_extends_constraint(self):
        # With one entangling ancilla per tuple the XOR constraint gains
        # Eve's vector, which stays marginally uniform.
        rng = np.random.default_rng(50)
        s = bv("1001")
        ones = 0
        trials = 4000
        for _ in range(trials):
            batch = distribute(3, 4, {0: "entangle"}, (0, 1), (2,))
            out = batch.encode_and_measure({2: s}, rng, range(3))
            e = out.eve[0]
            assert xor_all(out.registers.values()) ^ e == s
            ones += e.bit_count()
        freq = ones / (trials * 4)
        assert abs(freq - 0.5) < 0.02


def position_law(r, reads):
    """The production read law at one position as (offset, basis).

    `reads` pairs each tapped channel, in increasing order, with "z", "x" or
    "entangle".  The law is linear in its uniform draws, so the all-zero
    draw gives the offset and each unit draw one spanning vector.
    """
    reads = [
        (ch, None if read == "entangle" else int(read == "x"))
        for ch, read in reads
    ]
    count = r + sum(x is None for _, x in reads) + 1

    def point(draws):
        outputs = _read_law(r, 1, reads, iter(draws))
        return sum(bit << i for i, bit in enumerate(outputs))

    offset = point([0] * count)
    units = ([int(i == k) for i in range(count)] for k in range(count))
    return offset, [point(draws) ^ offset for draws in units]


def affine_tuple_law(r, reads, z):
    """The sampler's law with the phase kicks applied as output bit flips."""
    offset, basis = position_law(r, reads)
    return uniform_law(
        offset ^ sum(bit << reg for reg, bit in enumerate(z)), echelon(basis)
    )


class TestOutcomeLaw:
    """The sampler's closed-form read law against exact references."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_dense_statevector(self, r):
        kicks = [(0,) * r, (1,) * r, tuple(reg % 2 for reg in range(r))]
        for t in range(r + 1):
            for chans in combinations(range(r), t):
                # Every mix of kinds, which includes every random-basis
                # pattern of X and Z reads.
                for reads in product(("entangle", "z", "x"), repeat=t):
                    key = tuple(zip(chans, reads))
                    for z in kicks:
                        affine = affine_tuple_law(r, key, z)
                        dense = dense_tuple_law(r, key, z)
                        for k in set(affine) | set(dense):
                            assert abs(affine[k] - dense[k]) < 1e-12, (key, z, k)

    def test_matches_stabilizer_tableau(self):
        # Every sorted channel subset and mix of reads up to r = 6, which
        # includes untapped and entangle-only rounds: the same offset and
        # span, so the same uniform law.
        cases = 0
        for r in range(2, 7):
            for t in range(r + 1):
                for chans in combinations(range(r), t):
                    for reads in product(("entangle", "z", "x"), repeat=t):
                        key = tuple(zip(chans, reads))
                        offset, basis = position_law(r, key)
                        ref_offset, ref_basis = outcome_law(r, key)
                        assert in_span(offset ^ ref_offset, ref_basis), key
                        assert all(in_span(v, ref_basis) for v in basis), key
                        assert len(echelon(basis)) == len(ref_basis), key
                        cases += 1
        assert cases == sum(4 ** r for r in range(2, 7))


class TestDecoys:
    def make_batch(self, taps=None, r=2, p=4):
        return distribute(r, p, taps or {}, (0,), (1,))

    def test_zero_decoys_is_identity(self):
        rng = np.random.default_rng(51)
        batch = self.make_batch()
        state = rng.bit_generator.state
        plan = insert_decoys(batch, 0, rng)
        assert plan.decoys == [] and plan.records == []
        assert rng.bit_generator.state == state

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            insert_decoys(self.make_batch(), -1, np.random.default_rng(56))

    def test_seeded_positions_reproducible(self):
        batch = self.make_batch()
        plan_a = insert_decoys(batch, 4, np.random.default_rng(52))
        plan_b = insert_decoys(self.make_batch(), 4, np.random.default_rng(52))
        assert plan_a.records == plan_b.records
        assert plan_a.decoys == plan_b.decoys

    def test_labels_uniform(self):
        rng = np.random.default_rng(53)
        counts = Counter()
        for _ in range(2500):
            plan = insert_decoys(self.make_batch(), 4, rng)
            for d in plan.decoys:
                counts[d.label] += 1
        total = sum(counts.values())
        assert total == 10_000
        for label in "01+-":
            assert abs(counts[label] / total - 0.25) < 0.02

    def test_plan_layout(self):
        # Two decoys among the 4 + 2 slots of the one transmitted channel,
        # in slot order, and recorded as planned.
        rng = np.random.default_rng(54)
        plan = insert_decoys(self.make_batch(), 2, rng)
        assert len(plan.decoys) == 2
        assert all(d.channel == 0 and d.state is None for d in plan.decoys)
        slots = [d.slot for d in plan.decoys]
        assert slots == sorted(set(slots))
        assert all(0 <= slot < 6 for slot in slots)
        assert plan.records == [(d.channel, d.slot, d.label) for d in plan.decoys]

    def test_decoys_follow_their_channel(self):
        # Only the tapped channel's decoys record a read.
        rng = np.random.default_rng(67)
        batch = distribute(4, 5, {2: "z"}, (0, 2, 3), (1,))
        plan = insert_decoys(batch, 3, rng)
        assert [d.channel for d in plan.decoys] == [0] * 3 + [2] * 3 + [3] * 3
        transmit(batch, plan, rng)
        assert [d.state is not None for d in plan.decoys] == (
            [False] * 3 + [True] * 3 + [False] * 3
        )

    def test_decoys_record_the_basis_they_were_read_in(self):
        # An entangling CNOT reads a decoy like Z; a random read picks Z or X.
        rng = np.random.default_rng(68)
        for read, states in [("z", {"z"}), ("entangle", {"z"}),
                             ("random", {"z", "x"})]:
            batch = self.make_batch(taps={0: read})
            plan = insert_decoys(batch, 32, rng)
            transmit(batch, plan, rng)
            assert {d.state for d in plan.decoys} == states

    def test_untouched_channel_never_mismatches(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            batch = self.make_batch()
            plan = insert_decoys(batch, 8, rng)
            transmit(batch, plan, rng)
            mismatches, verdict = verify_decoys(plan, plan.records, rng)
            assert (mismatches, verdict) == (0, "proceed")

    def detection_rate(self, read, d, trials, seed):
        rng = np.random.default_rng(seed)
        aborts = 0
        for _ in range(trials):
            batch = self.make_batch(taps={0: read})
            plan = insert_decoys(batch, d, rng)
            transmit(batch, plan, rng)
            _, verdict = verify_decoys(plan, plan.records, rng)
            aborts += verdict == "abort"
        return aborts / trials

    @pytest.mark.parametrize("basis", ["computational", "random"])
    def test_intercept_resend_detection(self, basis):
        read = EveStrategy("intercept_resend", basis).taps_for(1, [0])[0]
        rate = self.detection_rate(read, 16, 1000, 56)
        assert rate >= 0.98

    @staticmethod
    def branch(sv, qubit, bit):
        """Probability of reading `bit` on `qubit`, and the collapsed state."""
        out = copy.deepcopy(sv)
        out.amps[((np.arange(len(out.amps)) >> qubit) & 1) != bit] = 0.0
        prob = np.linalg.norm(out.amps) ** 2
        if prob > 1e-12:
            out.amps /= math.sqrt(prob)
        return prob, out

    @pytest.mark.parametrize("read", ["z", "x", "entangle"])
    @pytest.mark.parametrize("label", ["0", "1", "+", "-"])
    def test_read_law_matches_dense_statevector(self, label, read):
        disturbed = (label in "+-") != (read == "x")
        # The decoy as a dense state: a Z or X read collapses qubit 0 and
        # forwards the eigenstate; an entangling tap CNOTs it onto qubit 1,
        # whose Z value is Eve's branch.
        sv = StateVector(2 if read == "entangle" else 1)
        sv.prepare_basis(label, 0)
        if read == "entangle":
            sv.apply_cnot(0, 1)
        elif read == "x":
            sv.apply_h(0)
        seen = 0.0
        for bit in (0, 1):
            prob, post = self.branch(sv, 1 if read == "entangle" else 0, bit)
            if prob <= 1e-12:
                continue
            seen += prob
            if read == "x":
                post.apply_h(0)
            if label in "+-":
                post.apply_h(0)
            expected = 1 if label in "1-" else 0
            p_mismatch = abs(expected - post.probability_one(0))
            assert abs(p_mismatch - (0.5 if disturbed else 0.0)) < 1e-12
        assert abs(seen - 1.0) < 1e-12

        # verify_decoys draws from the same law; transmit records an
        # entangling read as a Z read.
        d = 400
        state = "z" if read == "entangle" else read
        plan = TransmissionPlan(
            [Decoy(0, i, label, state) for i in range(d)],
            [(0, i, label) for i in range(d)],
        )
        mismatches, _ = verify_decoys(plan, plan.records,
                                      np.random.default_rng(63))
        if disturbed:
            assert abs(mismatches / d - 0.5) < 0.1
        else:
            assert mismatches == 0

    def test_measure_resend_matches_intercept_z(self):
        # Same physics: both collapse decoys in the computational basis.
        reads = [EveStrategy(kind).taps_for(1, [0])[0]
                 for kind in ("measure_resend", "intercept_resend")]
        a = self.detection_rate(reads[0], 8, 800, 57)
        b = self.detection_rate(reads[1], 8, 800, 58)
        assert abs(a - b) < 0.05

    def test_entangle_tap_detected_at_same_rate(self):
        rate = self.detection_rate("entangle", 16, 500, 59)
        assert rate >= 0.98

    def test_record_mismatch_raises(self):
        rng = np.random.default_rng(60)
        batch = self.make_batch()
        plan = insert_decoys(batch, 4, rng)
        transmit(batch, plan, rng)
        bad = list(plan.records)
        bad[0] = (bad[0][0], bad[0][1], "0" if bad[0][2] != "0" else "1")
        with pytest.raises(IntegrityError):
            verify_decoys(plan, bad, rng)


class TestDecoyMismatches:
    """One Binomial(d*t, 1/4) draw per round follows the per-decoy model."""

    @staticmethod
    def reference_count(read, d, t, rng):
        batch = distribute(t + 1, 4, dict.fromkeys(range(t), read),
                           range(t), (t,))
        plan = insert_decoys(batch, d, rng)
        transmit(batch, plan, rng)
        return verify_decoys(plan, plan.records, rng)[0]

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("d", [1, 4, 16])
    @pytest.mark.parametrize("read", READS)
    def test_matches_per_decoy_reference(self, read, d, t):
        trials = 1000
        rng = np.random.default_rng([66, d, t])
        reference = [self.reference_count(read, d, t, rng)
                     for _ in range(trials)]
        drawn = decoy_mismatches(d, t, trials, rng)
        # Pool counts beyond two standard deviations, so no cell is sparse.
        mean, sd = d * t / 4, math.sqrt(d * t * 3 / 16)
        lo, hi = math.floor(mean - 2 * sd), math.ceil(mean + 2 * sd)
        pooled = [Counter(min(max(c, lo), hi) for c in counts)
                  for counts in (reference, drawn)]
        assert homogeneity_p(*pooled) > 0.001

    @pytest.mark.parametrize("d, t", [(0, 3), (4, 0), (0, 0)])
    def test_nothing_tapped_draws_nothing(self, d, t):
        rng = np.random.default_rng(69)
        state = rng.bit_generator.state
        assert decoy_mismatches(d, t, 5, rng) == [0] * 5
        assert rng.bit_generator.state == state

    def test_one_draw_for_every_round(self):
        drawn = decoy_mismatches(4, 2, 6, np.random.default_rng(70))
        expect = np.random.default_rng(70).binomial(8, 0.25, size=6)
        assert drawn == expect.tolist()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            decoy_mismatches(-1, 1, 1, np.random.default_rng(71))


class TestRegistersRead:
    """A round draws all its words but returns only the registers its
    caller reads, and the XOR of all its registers: untapped, from the
    phase bits."""

    SIZES = list(product((2, 6), (1, 63, 64, 65, 80)))

    @staticmethod
    def measure(r, p, read=None, taps=None):
        """One round with seeded phase kicks on every other register, and
        the bit generator's state after it; `read` defaults to all r."""
        kicks = np.random.default_rng([72, r, p])
        phase_bits = {j: random_bits(p, kicks) for j in range(0, r, 2)}
        rng = np.random.default_rng([73, r, p])
        batch = distribute(r, p, taps or {}, range(r), range(r))
        out = batch.encode_and_measure(phase_bits, rng,
                                       range(r) if read is None else read)
        return out, rng.bit_generator.state

    @pytest.mark.parametrize("r, p", SIZES)
    def test_nothing_read_keeps_the_stream(self, r, p):
        full, state = self.measure(r, p)
        out, after = self.measure(r, p, read=())
        # r register words and the unused shared Z outcome.
        ref = np.random.default_rng([73, r, p])
        random_words(r + 1, p, ref)
        assert after == state == ref.bit_generator.state
        assert out.registers == {} and out.eve == {}
        assert out.total == full.total == xor_all(full.registers.values())

    @pytest.mark.parametrize("r, p", SIZES)
    def test_proper_subset_returns_those_registers(self, r, p):
        # With and without the last register, which closes the XOR.
        full, state = self.measure(r, p)
        for read in {(0,), (r - 1,), (0, r - 1), tuple(range(1, r))}:
            out, after = self.measure(r, p, read=read)
            assert after == state
            assert out.registers == {j: full.registers[j] for j in read}
            assert out.total == full.total

    @pytest.mark.parametrize("tap", READS)
    @pytest.mark.parametrize("r, p", SIZES)
    def test_tapped_total_is_the_registers_xor(self, r, p, tap):
        full, state = self.measure(r, p, taps={0: tap})
        assert len(full.registers) == r
        assert full.total == xor_all(full.registers.values())
        out, after = self.measure(r, p, read=(0,), taps={0: tap})
        assert after == state
        assert (out.registers, out.eve) == ({0: full.registers[0]}, full.eve)
        assert out.total == full.total

    @pytest.mark.parametrize("tap", [None, *READS])
    @pytest.mark.parametrize("r, p", SIZES)
    def test_exactly_the_registers_read(self, r, p, tap):
        # Nothing, a proper subset without and with the last register, and
        # all r: the same draws as reading all r, and their XOR as total.
        taps = None if tap is None else {0: tap}
        full, state = self.measure(r, p, taps=taps)
        for read in ((), (0,), (r - 1,), tuple(range(r))):
            out, after = self.measure(r, p, read=read, taps=taps)
            assert after == state
            assert list(out.registers) == list(read)
            assert out.registers == {j: full.registers[j] for j in read}
            assert out.total == xor_all(full.registers.values())


class TestBatchLifecycle:
    def test_double_measurement_rejected(self):
        rng = np.random.default_rng(61)
        batch = distribute(2, 2, {}, range(2), (1,))
        batch.encode_and_measure({1: bv("10")}, rng, ())
        with pytest.raises(RuntimeError):
            batch.encode_and_measure({1: bv("10")}, rng, ())

    def test_one_transmit_per_decoy_check(self):
        # A batch carrying several rounds checks each round's decoys.
        rng = np.random.default_rng(64)
        batch = distribute(2, 6, {0: "z"}, (0,), (1,))
        for _ in range(3):
            plan = insert_decoys(batch, 2, rng)
            transmit(batch, plan, rng)
            assert [d.state for d in plan.decoys] == ["z", "z"]
        batch.encode_and_measure({1: bv("101")}, rng, ())
        with pytest.raises(RuntimeError):
            batch.encode_and_measure({1: bv("101")}, rng, ())

    @pytest.mark.parametrize("phase_bits, error", [
        ({1: 0b100}, DimensionError), ({1: -1}, DimensionError),
        ({0: 0b01}, ValueError),
    ], ids=["too_wide", "negative", "not_an_encoder"])
    def test_bad_phase_bits_rejected_before_measuring(self, phase_bits, error):
        rng = np.random.default_rng(65)
        batch = distribute(2, 2, {}, range(2), (1,))
        with pytest.raises(error):
            batch.encode_and_measure(phase_bits, rng, ())
        # The refused call leaves the batch unmeasured.
        batch.encode_and_measure({1: bv("10")}, rng, ())

    def test_tap_on_untransmitted_channel_rejected(self):
        with pytest.raises(ValueError):
            distribute(2, 2, {1: "z"}, (0,), (1,))

    def test_unknown_read_rejected(self):
        with pytest.raises(ValueError, match="unknown read 'x' on channel 0"):
            distribute(2, 2, {0: "x"}, (0,), (1,))

    @pytest.mark.parametrize("r, p, taps, read, bad", [
        (3, 8, {}, (3,), 3), (3, 8, {}, (-1,), -1), (3, 80, {}, (7,), 7),
        (3, 8, {0: "z"}, (1, 3), 3),
    ], ids=["past_the_last", "negative", "wide", "tapped"])
    def test_read_outside_the_batch_rejected_before_drawing(self, r, p, taps,
                                                            read, bad):
        rng = np.random.default_rng(74)
        batch = distribute(r, p, taps, range(r), (r - 1,))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"read register {bad} is not"):
            batch.encode_and_measure({r - 1: 1}, rng, read)
        # Nothing drawn, and the batch still unmeasured.
        assert rng.bit_generator.state == state
        batch.encode_and_measure({r - 1: 1}, rng, (0,))

    @pytest.mark.parametrize("taps, transmitted, encoders, bad", [
        ({5: "entangle"}, (0, 1, 2, 5), (2,), "transmitted channel 5"),
        ({}, (-1, 0), (2,), "transmitted channel -1"),
        ({}, (0, 1), (7,), "encoder 7"),
    ], ids=["tapped_channel", "negative_channel", "encoder"])
    def test_registers_outside_the_batch_rejected(self, taps, transmitted,
                                                  encoders, bad):
        with pytest.raises(ValueError, match=f"{bad} is not a register"):
            distribute(3, 8, taps, transmitted, encoders)
