import copy
import math
from collections import Counter
from functools import reduce
from itertools import combinations, product
from operator import xor

import numpy as np
import pytest

from dpvqss.adversary import EveStrategy
from dpvqss.entangle import (
    Decoy,
    DimensionError,
    IntegrityError,
    TransmissionPlan,
    _read_law,
    distribute,
    insert_decoys,
    transmit,
    verify_decoys,
)
from dpvqss.qsim import CapacityError, StateVector, dense_outcomes, dense_state
from chi_square import homogeneity_p
from stabilizer_reference import echelon, in_span, outcome_law, uniform_law

SQRT1_2 = 1.0 / math.sqrt(2.0)


def bv(text):
    """The int that an MSB-first bit literal such as "1011" stands for."""
    return int(text, 2)


def xor_all(vectors):
    return reduce(xor, vectors)


def outcome_key(outcome, p):
    """Pack a round's p-bit registers, then Eve's reads in channel order."""
    words = outcome.registers + [outcome.eve[ch] for ch in sorted(outcome.eve)]
    return sum(word << (i * p) for i, word in enumerate(words))


class TestDistributeOracle:
    """The dense reference's GHZ preparation."""

    def test_bell_pair(self):
        state, _ = dense_state(2, 1)
        assert state.amps[0b00] == pytest.approx(SQRT1_2)
        assert state.amps[0b11] == pytest.approx(SQRT1_2)

    def test_tensor_power_of_ghz3(self):
        # Two GHZ_3 tuples across three 2-qubit registers: amplitude 1/2 on
        # every |x>|x>|x> pattern.
        state, _ = dense_state(3, 2)
        for xv in range(4):
            idx = xv | (xv << 2) | (xv << 4)
            assert state.amps[idx] == pytest.approx(0.5)
        assert state.amps[0b000001] == pytest.approx(0.0)

    def test_oracle_capacity_refusal(self):
        with pytest.raises(CapacityError):
            dense_state(5, 8, phase_bits={4: 0})


def sample_idpqc(s, n, m, rng):
    """One honest information-distribution round: registers b_0..b_{n-1},
    then a, uniform over all tuples with a XOR b_{n-1} XOR ... XOR b_0 = s."""
    batch = distribute(n + 1, n * m, transmitted=range(n), encoders=(n,))
    return batch.encode_and_measure({n: s}, rng)


class TestHonestSampler:
    def test_constraint_holds_in_every_draw(self):
        rng = np.random.default_rng(40)
        s = bv("1011")
        for _ in range(100_000):
            out = sample_idpqc(s, n=2, m=2, rng=rng)
            assert xor_all(out.registers) == s

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
            assert xor_all(out.registers[:3]) == out.registers[3]


def sample_icpqc(s_i, s_j, p, rng):
    """One honest pairwise-consolidation round over p positions:
    b_i XOR b_j = s_i XOR s_j."""
    out = distribute(2, p, encoders=(0, 1)).encode_and_measure(
        {0: s_i, 1: s_j}, rng
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
    def idpqc_dense_counts(self, s, n, m, shots, rng):
        outs = dense_outcomes(n + 1, n * m, {n: s}, shots, rng)
        violations = sum(
            1 for o in outs if xor_all(o.registers) != s
        )
        return Counter(outcome_key(o, n * m) for o in outs), violations

    def test_distributions_match(self):
        rng = np.random.default_rng(46)
        n, m, shots = 2, 1, 10_000
        for s in (bv("01"), bv("11")):
            dense_counts, violations = self.idpqc_dense_counts(s, n, m, shots, rng)
            assert violations == 0
            sampler_counts = Counter()
            for _ in range(shots):
                out = sample_idpqc(s, n, m, rng)
                sampler_counts[outcome_key(out, n * m)] += 1
            # Dense support must sit inside the sampler's constraint set.
            support = set(sampler_counts)
            assert set(dense_counts) <= support
            p = homogeneity_p(dense_counts, sampler_counts)
            assert p > 0.001

    def test_subset_marginals_exactly_uniform(self):
        # From the exact pre-measurement state, every proper register subset
        # is uniform no matter the secret.
        for s in (bv("00"), bv("10"), bv("11")):
            state, _ = dense_state(3, 2, phase_bits={2: s})
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
        rng = np.random.default_rng(47)
        trials = 100_000
        dists = []
        for s in (bv("00"), bv("11")):
            counts = Counter()
            for _ in range(trials):
                out = sample_idpqc(s, n=1, m=2, rng=rng)
                counts[out.registers[0]] += 1
            dists.append({k: v / trials for k, v in counts.items()})
        tv = sum(
            abs(dists[0].get(k, 0) - dists[1].get(k, 0))
            for k in set(dists[0]) | set(dists[1])
        ) / 2
        assert tv < 0.02


class TestTapPhysics:
    """Cross-validate the sampler's per-tuple attack model against the
    dense reference."""

    def joint_counts(self, taps, s, n, m, shots, rng):
        counts = Counter()
        for _ in range(shots):
            batch = distribute(
                n + 1, n * m, taps=taps, transmitted=range(n), encoders=(n,),
            )
            transmit(batch, insert_decoys(batch, 0, rng), rng)
            out = batch.encode_and_measure({n: s}, rng)
            counts[outcome_key(out, n * m)] += 1
        return counts

    def dense_counts(self, taps, s, n, m, shots, rng):
        outs = dense_outcomes(n + 1, n * m, {n: s}, shots, rng, taps)
        return Counter(outcome_key(o, n * m) for o in outs)

    @pytest.mark.parametrize(
        "tap",
        [
            EveStrategy("measure_resend"),
            EveStrategy("intercept_resend", "computational"),
            EveStrategy("intercept_resend", "random"),
        ],
    )
    def test_measuring_taps_match_oracle(self, tap):
        rng = np.random.default_rng(48)
        s, n, m, shots = bv("10"), 1, 2, 6000
        taps = tap.taps_for(1, [0])
        dense = self.dense_counts(taps, s, n, m, shots, rng)
        sampler = self.joint_counts(taps, s, n, m, shots, rng)
        assert homogeneity_p(dense, sampler) > 0.001

    def test_entangle_tap_matches_oracle(self):
        rng = np.random.default_rng(49)
        s, n, m, shots = bv("10"), 2, 1, 8000
        dense = self.dense_counts({0: "entangle"}, s, n, m, shots, rng)
        sampler = self.joint_counts({0: "entangle"}, s, n, m, shots, rng)
        assert homogeneity_p(dense, sampler) > 0.001

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
        rng = np.random.default_rng(63)
        s, n, m, shots = bv("10"), 2, 1, 4000
        dense = self.dense_counts(taps, s, n, m, shots, rng)
        sampler = self.joint_counts(taps, s, n, m, shots, rng)
        assert homogeneity_p(dense, sampler) > 0.001

    @pytest.mark.parametrize("kind", ["measure_resend", "intercept_resend"])
    def test_measuring_taps_read_one_shared_vector(self, kind):
        # The first Z measurement collapses the GHZ tuple, so every tapped
        # channel reads the same vector.
        rng = np.random.default_rng(64)
        taps = EveStrategy(kind).taps_for(1, (0, 1))
        for _ in range(500):
            batch = distribute(3, 2, taps=taps,
                               transmitted=(0, 1), encoders=(2,))
            transmit(batch, insert_decoys(batch, 0, rng), rng)
            out = batch.encode_and_measure({2: bv("01")}, rng)
            assert out.eve[0] == out.eve[1]

    def test_wide_random_basis_positions_follow_their_own_law(self):
        # 66 random-basis taps: every position must land in the support of
        # the law for its own basis pattern.
        r, p = 67, 4
        chans = range(r - 1)
        batch = distribute(r, p, taps=dict.fromkeys(chans, "random"),
                           transmitted=chans, encoders=(r - 1,))
        rng = np.random.default_rng(65)
        transmit(batch, insert_decoys(batch, 0, rng), rng)
        # The sampler draws one 64-bit word each for the r registers and the
        # shared Z outcome, then the basis words, one per channel.
        raw = copy.deepcopy(rng).bit_generator.random_raw(r + 1 + len(chans))
        basis_words = [int(word) for word in raw[r + 1:]]
        out = batch.encode_and_measure({r - 1: 0}, rng)
        vectors = out.registers + [out.eve[ch] for ch in chans]
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
            batch = distribute(
                3, 4,
                taps={0: "entangle"},
                transmitted=(0, 1), encoders=(2,),
            )
            transmit(batch, insert_decoys(batch, 0, rng), rng)
            out = batch.encode_and_measure({2: s}, rng)
            e = out.eve[0]
            assert xor_all(out.registers) ^ e == s
            ones += e.bit_count()
        freq = ones / (trials * 4)
        assert abs(freq - 0.5) < 0.02


class _Forced:
    """Stands in for a generator so that measure_qubit returns `bit`."""

    def __init__(self, bit):
        self.bit = bit

    def random(self):
        return 0.0 if self.bit else 1.0


def dense_tuple_law(r, reads, z):
    """Exact joint law of one tapped GHZ_r tuple on a dense statevector.

    Mid-circuit measurements branch over both outcomes with their Born
    weights; the phase kicks `z` go through a |-> target.  Keys pack the r
    register bits, then one eavesdropper bit per entry of `reads`.
    """
    ent = [i for i, (_, read) in enumerate(reads) if read == "entangle"]
    target = r
    sv = StateVector(r + 1 + len(ent))
    sv.prepare_ghz(range(r))
    branches = [(1.0, sv, {})]
    for i, (ch, read) in enumerate(reads):
        if read == "entangle":
            for _, state, _ in branches:
                state.apply_cnot(ch, target + 1 + ent.index(i))
            continue
        grown = []
        for weight, state, eve in branches:
            if read == "x":
                state.apply_h(ch)
            p1 = state.probability_one(ch)
            for bit, prob in ((0, 1.0 - p1), (1, p1)):
                if prob < 1e-15:
                    continue
                branch = copy.deepcopy(state)
                branch.measure_qubit(ch, _Forced(bit))
                if read == "x":
                    branch.apply_h(ch)
                grown.append((weight * prob, branch, {**eve, i: bit}))
        branches = grown
    law = Counter()
    for weight, state, eve in branches:
        state.prepare_basis("-", target)
        for reg, bit in enumerate(z):
            if bit:
                state.apply_cnot(reg, target)
        for reg in range(r):
            state.apply_h(reg)
        for k in range(len(ent)):
            state.apply_h(target + 1 + k)
        probs = np.abs(state.amps) ** 2
        for idx in np.nonzero(probs > 1e-15)[0]:
            key = int(idx) & ((1 << r) - 1)
            for i in range(len(reads)):
                if i in ent:
                    bit = (int(idx) >> (target + 1 + ent.index(i))) & 1
                else:
                    bit = eve[i]
                key |= bit << (r + i)
            law[key] += weight * probs[idx]
    return law


def sampler_law(r, reads):
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
    offset, basis = sampler_law(r, reads)
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
                        offset, basis = sampler_law(r, key)
                        ref_offset, ref_basis = outcome_law(r, key)
                        assert in_span(offset ^ ref_offset, ref_basis), key
                        assert all(in_span(v, ref_basis) for v in basis), key
                        assert len(echelon(basis)) == len(ref_basis), key
                        cases += 1
        assert cases == sum(4 ** r for r in range(2, 7))


class TestDecoys:
    def make_batch(self, taps=None, r=2, p=4):
        return distribute(r, p, taps=taps, transmitted=(0,), encoders=(1,))

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
        batch = distribute(4, 5, taps={2: "z"},
                           transmitted=(0, 2, 3), encoders=(1,))
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


class TestBatchLifecycle:
    def test_double_measurement_rejected(self):
        rng = np.random.default_rng(61)
        batch = distribute(2, 2, encoders=(1,))
        batch.encode_and_measure({1: bv("10")}, rng)
        with pytest.raises(RuntimeError):
            batch.encode_and_measure({1: bv("10")}, rng)

    def test_tapped_batch_requires_transmission(self):
        rng = np.random.default_rng(62)
        batch = distribute(
            2, 2, taps={0: "z"},
            transmitted=(0,), encoders=(1,),
        )
        with pytest.raises(RuntimeError):
            batch.encode_and_measure({1: bv("10")}, rng)

    def test_one_transmit_per_decoy_check(self):
        # A batch carrying several rounds checks each round's decoys.
        rng = np.random.default_rng(64)
        batch = distribute(
            2, 6, taps={0: "z"},
            transmitted=(0,), encoders=(1,),
        )
        for _ in range(3):
            plan = insert_decoys(batch, 2, rng)
            transmit(batch, plan, rng)
            assert [d.state for d in plan.decoys] == ["z", "z"]
        batch.encode_and_measure({1: bv("101")}, rng)
        with pytest.raises(RuntimeError):
            batch.encode_and_measure({1: bv("101")}, rng)

    @pytest.mark.parametrize("phase_bits, error", [
        ({1: 0b100}, DimensionError), ({1: -1}, DimensionError),
        ({0: 0b01}, ValueError),
    ], ids=["too_wide", "negative", "not_an_encoder"])
    def test_bad_phase_bits_rejected_before_measuring(self, phase_bits, error):
        rng = np.random.default_rng(65)
        batch = distribute(2, 2, encoders=(1,))
        with pytest.raises(error):
            batch.encode_and_measure(phase_bits, rng)
        # The refused call leaves the batch unmeasured.
        batch.encode_and_measure({1: bv("10")}, rng)

    def test_tap_on_untransmitted_channel_rejected(self):
        with pytest.raises(ValueError):
            distribute(
                2, 2, taps={1: "z"},
                transmitted=(0,), encoders=(1,),
            )

    def test_unknown_read_rejected(self):
        with pytest.raises(ValueError, match="unknown read 'x' on channel 0"):
            distribute(2, 2, taps={0: "x"}, transmitted=(0,), encoders=(1,))
