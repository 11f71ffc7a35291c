from fractions import Fraction

import numpy as np
import pytest

from dpvqss.adversary import (
    AdversaryPlan,
    AuditSize,
    EveStrategy,
    RogueBehavior,
    falsify,
    leakage_audit,
    rogue_transform,
    view_distribution,
)
from dpvqss.bitvec import BitVector, CapacityError


def bv(text):
    return BitVector.from_string(text)


class TestEveStrategy:
    def test_pns_aliases_entangle(self):
        assert EveStrategy("pns").effective_kind == "entangle_measure"

    def test_taps_channel_selection(self):
        eve = EveStrategy("measure_resend", phases=(1,))
        assert set(eve.taps_for(1, [0, 1, 2])) == {0, 1, 2}
        assert eve.taps_for(2, [0, 1, 2]) == {}
        picky = EveStrategy("measure_resend", phases=(1,), channel=1)
        assert set(picky.taps_for(1, [0, 1, 2])) == {1}
        assert picky.taps_for(1, [0]) == {}

    def test_none_is_inactive(self):
        assert EveStrategy().taps_for(1, [0, 1]) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            EveStrategy("jamming")
        with pytest.raises(ValueError):
            EveStrategy("measure_resend", phases=(4,))


class TestRogues:
    def test_plan_size_validation(self):
        plan = AdversaryPlan(rogues=RogueBehavior((1, 2), ("lie_phase3_report",)))
        plan.validate(n=5, k=3)
        with pytest.raises(ValueError):
            plan.validate(n=5, k=4)
        with pytest.raises(ValueError):
            AdversaryPlan(
                rogues=RogueBehavior((7,), ("lie_phase3_report",))
            ).validate(n=5, k=3)

    def test_honest_messages_untouched(self):
        rng = np.random.default_rng(70)
        behavior = RogueBehavior((2,), ("lie_phase2_report",))
        msg = bv("1010")
        assert rogue_transform(behavior, 1, "lie_phase2_report", msg, rng) == msg
        assert rogue_transform(behavior, 2, "lie_phase1_comms", msg, rng) == msg

    def test_bit_flip_changes_exactly_one_bit(self):
        rng = np.random.default_rng(71)
        behavior = RogueBehavior((0,), ("lie_phase2_report",), mode="bit_flip")
        for _ in range(50):
            msg = BitVector.random(12, rng)
            out = rogue_transform(behavior, 0, "lie_phase2_report", msg, rng)
            assert (out ^ msg).weight() == 1

    def test_fixed_mode(self):
        rng = np.random.default_rng(72)
        fixed = bv("0110")
        behavior = RogueBehavior(
            (0,), ("lie_phase3_report",), mode="fixed", fixed_value=fixed
        )
        assert rogue_transform(behavior, 0, "lie_phase3_report", bv("1111"), rng) == fixed
        with pytest.raises(ValueError):
            rogue_transform(behavior, 0, "lie_phase3_report", bv("11"), rng)

    def test_fixed_mode_requires_value(self):
        with pytest.raises(ValueError):
            RogueBehavior((0,), ("lie_phase2_report",), mode="fixed")

    def test_falsify_random_is_seeded(self):
        a = falsify(bv("0000"), "random", None, np.random.default_rng(73))
        b = falsify(bv("0000"), "random", None, np.random.default_rng(73))
        assert a == b


class TestLeakageAudit:
    def test_view_distributions_are_normalized(self):
        for kind, phase in [("none", 1), ("none", 2), ("none", 3),
                            ("entangle_measure", 1), ("measure_resend", 1)]:
            strategy = EveStrategy(kind)
            dist = view_distribution(strategy, 2, 1, bv("10"), phase)
            assert sum(dist.values()) == Fraction(1)

    @pytest.mark.parametrize("kind", ["measure_resend", "intercept_resend"])
    @pytest.mark.parametrize("phase", [1, 2, 3])
    def test_measuring_taps_share_one_vector(self, kind, phase):
        # The first measurement collapses each tuple, so both tapped
        # channels read the same vector.
        dist = view_distribution(EveStrategy(kind), 2, 1, bv("10"), phase)
        assert sum(dist.values()) == Fraction(1)
        for key, mass in dist.items():
            assert mass > 0
            assert key[-1] == key[-2]

    def test_passive_phase1_reveals_nothing(self):
        cfg = AuditSize(2, 1)
        tv = leakage_audit(EveStrategy(), cfg, bv("10"), bv("01"), phase=1)
        assert tv == 0

    def test_identical_secrets_trivially_zero(self):
        cfg = AuditSize(2, 1)
        assert leakage_audit(EveStrategy(), cfg, bv("11"), bv("11"), phase=1) == 0

    def test_entangle_phase1_reveals_nothing(self):
        cfg = AuditSize(2, 1)
        tv = leakage_audit(
            EveStrategy("entangle_measure"), cfg, bv("10"), bv("01"), phase=1
        )
        assert tv == 0

    def test_measure_taps_reveal_nothing(self):
        cfg = AuditSize(2, 1)
        for kind in ("measure_resend", "intercept_resend"):
            for phase in (1, 2):
                tv = leakage_audit(
                    EveStrategy(kind), cfg, bv("10"), bv("01"), phase=phase
                )
                assert tv == 0

    def test_phase2_passive_reveals_nothing(self):
        cfg = AuditSize(2, 2)
        tv = leakage_audit(EveStrategy(), cfg, bv("1001"), bv("0110"), phase=2)
        assert tv == 0

    def test_phase3_reveals_exactly_the_pair_xor(self):
        cfg = AuditSize(2, 2)
        # Segments: s = s1||s0.  Equal XOR class: s1^s0 identical.
        s_a = bv("1001")   # s1=10, s0=01, xor=11
        s_b = bv("0110")   # s1=01, s0=10, xor=11
        s_c = bv("1111")   # xor=00
        for eve in (EveStrategy(), EveStrategy("entangle_measure"),
                    EveStrategy("pns")):
            assert leakage_audit(eve, cfg, s_a, s_b, phase=3) == 0
            assert leakage_audit(eve, cfg, s_a, s_c, phase=3) == 1

    def test_pns_equals_entangle_audit(self):
        cfg = AuditSize(2, 1)
        a = view_distribution(EveStrategy("pns"), 2, 1, bv("10"), 1)
        b = view_distribution(EveStrategy("entangle_measure"), 2, 1, bv("10"), 1)
        assert a == b

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            leakage_audit(
                EveStrategy(), AuditSize(4, 2), bv("10101010"), bv("01010101"),
                phase=1,
            )

    def test_random_basis_refused(self):
        with pytest.raises(ValueError):
            leakage_audit(
                EveStrategy("intercept_resend", basis="random"),
                AuditSize(2, 1), bv("10"), bv("01"), phase=1,
            )
