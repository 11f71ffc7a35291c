import time
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpvqss.adversary import (
    EVE_KINDS,
    AdversaryPlan,
    AuditSize,
    EveStrategy,
    RogueBehavior,
    falsify,
    leakage_audit,
    sent_channels,
)
from dpvqss.adversary import _separating_share
from dpvqss.bitvec import random_bits
from dpvqss.entangle import _read_law
from dpvqss.protocol import ProtocolConfig, _schedule, random_secret, run_protocol
from dpvqss.qsim import dense_outcomes
from audit_reference import reference_audit, view_distribution
from stabilizer_reference import in_span


def bv(text):
    """The int an MSB-first bit literal writes."""
    return int(text, 2)


class TestEveStrategy:
    def test_taps_for_maps_kind_and_basis_to_read(self):
        # PNS keeps a perfect extra entangled copy, and only intercept-resend
        # reads in a random basis.
        reads = {
            ("measure_resend", "computational"): "z",
            ("measure_resend", "random"): "z",
            ("intercept_resend", "computational"): "z",
            ("intercept_resend", "random"): "random",
            ("entangle_measure", "computational"): "entangle",
            ("entangle_measure", "random"): "entangle",
            ("pns", "computational"): "entangle",
            ("pns", "random"): "entangle",
            ("none", "computational"): None,
            ("none", "random"): None,
        }
        assert {kind for kind, _ in reads} == set(EVE_KINDS)
        for (kind, basis), read in reads.items():
            taps = EveStrategy(kind, basis).taps_for(1, [0, 2])
            assert taps == ({} if read is None else {0: read, 2: read})

    def test_pns_aliases_entangle(self):
        for basis in ("computational", "random"):
            for phase in (1, 2, 3):
                pns = EveStrategy("pns", basis).taps_for(phase, [0, 1, 2])
                ent = EveStrategy("entangle_measure", basis).taps_for(
                    phase, [0, 1, 2])
                assert pns == ent

    def test_taps_channel_selection(self):
        eve = EveStrategy("measure_resend", phases=(1,))
        assert set(eve.taps_for(1, [0, 1, 2])) == {0, 1, 2}
        assert eve.taps_for(2, [0, 1, 2]) == {}
        picky = EveStrategy("measure_resend", phases=(1,), channel=1)
        assert set(picky.taps_for(1, [0, 1, 2])) == {1}
        assert picky.taps_for(1, [0]) == {}

    def test_sent_channels(self):
        assert sent_channels(1, 3, "alice") == range(3)
        assert sent_channels(2, 3, "third_party") == range(4)
        assert sent_channels(3, 3, "third_party") == range(2)

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
        plan.validate(ProtocolConfig(n=5, k=3, m=8))
        with pytest.raises(ValueError):
            plan.validate(ProtocolConfig(n=5, k=4, m=8))
        with pytest.raises(ValueError):
            AdversaryPlan(
                rogues=RogueBehavior((7,), ("lie_phase3_report",))
            ).validate(ProtocolConfig(n=5, k=3, m=8))

    @pytest.mark.parametrize("actions, width, ok", [
        (("lie_phase2_report",), 24, True),
        (("lie_phase2_report",), 8, False),
        (("lie_phase1_comms",), 8, True),
        (("lie_phase3_oracle",), 8, True),
        (("lie_phase3_report",), 8, True),
        (("lie_phase3_oracle",), 24, False),
        # No one value fits both widths.
        (("lie_phase2_report", "lie_phase3_report"), 8, False),
        (("lie_phase2_report", "lie_phase3_report"), 24, False),
    ])
    def test_fixed_value_width_validated(self, actions, width, ok):
        plan = AdversaryPlan(rogues=RogueBehavior(
            (0,), actions, mode="fixed", fixed_value=format(1, f"0{width}b")))
        cfg = ProtocolConfig(n=3, k=2, m=8)
        if ok:
            plan.validate(cfg)
        else:
            with pytest.raises(ValueError, match="adversary.rogues.fixed"):
                plan.validate(cfg)

    @pytest.mark.parametrize("kind, phases, channel, source, ok", [
        ("intercept_resend", (1, 2, 3), 9, "alice", False),
        ("intercept_resend", (1, 2, 3), 2, "alice", True),
        # Only a third-party source sends register n = 3.
        ("intercept_resend", (1, 2), 3, "alice", False),
        ("intercept_resend", (1, 2), 3, "third_party", True),
        # Phase 3 sends the pair's two registers only.
        ("measure_resend", (3,), 2, "alice", False),
        ("measure_resend", (3,), 1, "alice", True),
        ("none", (1, 2, 3), 9, "alice", True),
    ])
    def test_eve_channel_must_be_sent(self, kind, phases, channel, source, ok):
        plan = AdversaryPlan(eve=EveStrategy(kind, phases=phases, channel=channel))
        cfg = ProtocolConfig(n=3, k=2, m=8, source=source)
        if ok:
            plan.validate(cfg)
        else:
            with pytest.raises(ValueError, match="adversary.eve.channel"):
                plan.validate(cfg)

    @pytest.mark.parametrize("kind, basis, phases, key", [
        ("intercept_resend", "computational", (), "adversary.eve.phases"),
        ("pns", "computational", (), "adversary.eve.phases"),
        ("none", "computational", (), None),
        ("intercept_resend", "random", (1, 2, 3), None),
        ("none", "random", (1, 2, 3), None),
        ("measure_resend", "random", (1,), "adversary.eve.basis"),
        ("entangle_measure", "random", (2,), "adversary.eve.basis"),
        ("pns", "random", (3,), "adversary.eve.basis"),
    ])
    def test_eve_must_act_as_configured(self, kind, basis, phases, key):
        plan = AdversaryPlan(eve=EveStrategy(kind, basis, phases=phases))
        cfg = ProtocolConfig(n=3, k=2, m=8)
        if key is None:
            plan.validate(cfg)
        else:
            with pytest.raises(ValueError, match=key):
                plan.validate(cfg)

    def test_honest_messages_untouched(self):
        # A run falsifies exactly the messages of the agents that the
        # schedule names as an action's liars.
        behavior = RogueBehavior((2,), ("lie_phase2_report",))
        sched = _schedule(ProtocolConfig(n=5, k=3, m=8),
                          AdversaryPlan(rogues=behavior))
        assert sched.phase2.read == (2,)
        assert sched.phase1.read == sched.phase3.read == ()
        assert sched.phase1_lies == sched.oracle == sched.report == ()

    def test_bit_flip_changes_exactly_one_bit(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            msg = random_bits(12, rng)
            (out,) = falsify([msg], 12, "bit_flip", None, rng)
            assert (out ^ msg).bit_count() == 1

    def test_fixed_mode(self):
        rng = np.random.default_rng(72)
        fixed = "0110"
        assert falsify([bv("1111")], 4, "fixed", fixed, rng) == [0b0110]
        with pytest.raises(ValueError):
            falsify([bv("11")], 2, "fixed", fixed, rng)

    def test_fixed_mode_requires_value(self):
        with pytest.raises(ValueError):
            RogueBehavior((0,), ("lie_phase2_report",), mode="fixed")

    @pytest.mark.parametrize("text", ["012", "1 0", "0b10"])
    def test_fixed_value_must_be_bits(self, text):
        with pytest.raises(ValueError, match="not a bit string"):
            RogueBehavior((0,), ("lie_phase1_comms",), mode="fixed",
                          fixed_value=text)

    def test_falsify_random_is_seeded(self):
        a = falsify([bv("0000")], 4, "random", None, np.random.default_rng(73))
        b = falsify([bv("0000")], 4, "random", None, np.random.default_rng(73))
        assert a == b

    @staticmethod
    def one_lie(payload, length, mode, fixed_value, rng):
        """One lie drawn on its own, as a per-lie call draws it."""
        if mode == "bit_flip":
            return payload ^ (1 << int(rng.integers(length)))
        if mode == "random":
            return random_bits(length, rng)
        return int(fixed_value, 2)

    @pytest.mark.parametrize("mode", ["bit_flip", "random", "fixed"])
    @pytest.mark.parametrize("length", [8, 16, 144])
    def test_batch_is_the_stream_of_one_call_per_lie(self, mode, length):
        # 144 bits is an n*m phase-2 report wider than one 64-bit word.
        # The generator's next draw pins the stream after the batch.
        fixed = ("110" * length)[:length]
        for count in (1, 2, 5, 16):
            seed = [74, length, count]
            payloads = [random_bits(length, np.random.default_rng([*seed, i]))
                        for i in range(count)]
            batched = np.random.default_rng(seed)
            one_by_one = np.random.default_rng(seed)
            got = falsify(payloads, length, mode, fixed, batched)
            expect = [self.one_lie(p, length, mode, fixed, one_by_one)
                      for p in payloads]
            assert got == expect
            assert all(0 <= lie < 1 << length for lie in got)
            assert (batched.bit_generator.random_raw()
                    == one_by_one.bit_generator.random_raw())


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

    def test_rejects_secrets_outside_n_m_bits(self):
        cfg = AuditSize(2, 1)
        for bad in (0b100, -1):
            with pytest.raises(ValueError, match="n\\*m = 2 bits"):
                leakage_audit(EveStrategy(), cfg, bad, 0, phase=1)
            with pytest.raises(ValueError, match="n\\*m = 2 bits"):
                leakage_audit(EveStrategy(), cfg, 0, bad, phase=3)

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

    def test_passive_audit_past_the_enumerator(self):
        # (4, 2) would need 2^32 assignments to enumerate.
        tv = leakage_audit(
            EveStrategy(), AuditSize(4, 2), bv("10101010"), bv("01010101"),
            phase=1,
        )
        assert tv == 0

    def test_random_basis_phase1_leaks_a_quarter_per_position(self):
        # Only when both taps read a position in X does Eve see the whole
        # XOR chain, which carries the source's kick there.
        eve = EveStrategy("intercept_resend", basis="random")
        cfg = AuditSize(2, 1)
        assert leakage_audit(eve, cfg, bv("00"), bv("01"), phase=1) == Fraction(1, 4)
        # Two differing positions: 1 - (3/4)^2.
        assert leakage_audit(eve, cfg, bv("10"), bv("01"), phase=1) == Fraction(7, 16)


# -- the audit against its references -----------------------------------------

# A size with a source: "third_party" sends the source's register too.
SourcedSize = namedtuple("SourcedSize", "n m source")

FIXED_KINDS = ("none", "measure_resend", "intercept_resend", "entangle_measure",
               "pns")
RANDOM_BASIS = EveStrategy("intercept_resend", basis="random")
PATTERN_SIZES = [(2, 1), (2, 2), (3, 2), (4, 1), (5, 2), (6, 1)]


@st.composite
def audit_cases(draw, sizes, kinds=FIXED_KINDS, channels=(None, 0, 1),
                basis="computational"):
    """(strategy, size, s, s_prime, phase) with two distinct secrets."""
    n, m = draw(st.sampled_from(sizes))
    s = draw(st.integers(0, (1 << (n * m)) - 1))
    diff = draw(st.integers(1, (1 << (n * m)) - 1))
    strategy = EveStrategy(
        draw(st.sampled_from(kinds)),
        basis=basis,
        channel=draw(st.sampled_from(channels)),
    )
    return (strategy, AuditSize(n, m), s, s ^ diff,
            draw(st.sampled_from((1, 2, 3))))


class TestAuditMatchesEnumerator:
    """Fixed reads against the brute-force enumerator, at every size it reaches."""

    @pytest.mark.parametrize("channel", [None, 0, 1])
    @pytest.mark.parametrize("kind", FIXED_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_toy_size(self, kind, channel, data):
        strategy, size, s, s2, phase = data.draw(
            audit_cases([(2, 1)], (kind,), (channel,))
        )
        assert leakage_audit(strategy, size, s, s2, phase) == reference_audit(
            strategy, size, s, s2, phase
        )

    # The enumerator takes up to 2 s per view here; a fixed draw keeps the
    # cost steady.
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(audit_cases([(2, 2), (3, 1)]))
    @example((EveStrategy("pns"), AuditSize(2, 2), bv("1001"), bv("0011"), 2))
    @example((EveStrategy("intercept_resend", channel=1), AuditSize(3, 1),
              bv("101"), bv("000"), 1))
    def test_largest_sizes(self, case):
        assert leakage_audit(*case) == reference_audit(*case)


def read_law_span(r, reads):
    """Spanning vectors of one position's outcomes under the sampler's law.

    `reads` pairs each tapped channel with 1 (X read), 0 (Z read) or None
    (entangling read, one more draw); the vectors pack the r register bits,
    then Eve's bit per read.
    """
    count = r + 1 + sum(x is None for _, x in reads)

    def point(draws):
        return sum(bit << i for i, bit in enumerate(_read_law(r, 1, reads, iter(draws))))

    zero = point([0] * count)
    return [point([int(i == k) for i in range(count)]) ^ zero
            for k in range(count)]


def pattern_share(kick, visible, tapped, r, read="random"):
    """Share of the tapped channels' read patterns whose view separates, one
    rank test each: every Z/X pattern for a "random" read, else the one
    all-Z or all-entangling pattern."""
    channels = [ch for ch in range(r) if tapped >> ch & 1]
    seen = visible | ((1 << len(channels)) - 1) << r
    patterns = {
        "random": list(product((0, 1), repeat=len(channels))),
        "z": [(0,) * len(channels)],
        "entangle": [(None,) * len(channels)],
    }[read]
    hits = 0
    for xs in patterns:
        span = read_law_span(r, list(zip(channels, xs)))
        hits += not in_span(kick & visible, [v & seen for v in span])
    return Fraction(hits, len(patterns))


def register_positions(n, m, diff, phase):
    """(kick, visible, count) of every position, stated register by register."""
    rows = Counter()
    if phase == 3:
        for j in range(m):
            kick = {0: diff >> j & 1, 1: diff >> (m + j) & 1}
            rows[(sum(b << reg for reg, b in kick.items()), 0b11)] += 1
        return rows
    for j in range(n * m):
        owner = j // m
        kicked = n if phase == 1 else owner
        shown = ([n] + [i for i in range(n) if i != owner] if phase == 1
                 else list(range(n)))
        rows[((diff >> j & 1) << kicked, sum(1 << reg for reg in shown))] += 1
    return rows


class TestRandomBasisAudit:
    """The closed form against per-pattern rank tests on the sampler's read
    law for every read, and random-basis interception against the dense
    statevector."""

    def test_share_rule_exhaustive_to_three_registers(self):
        for r in (2, 3):
            for case in product(range(1 << r), repeat=3):  # kick, visible, tapped
                assert _separating_share(*case, (1 << r) - 1) \
                    == pattern_share(*case, r), case

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_share_rule_up_to_six_taps(self, data):
        r = data.draw(st.integers(4, 7))
        masks = st.integers(0, (1 << r) - 1)
        tapped = data.draw(masks.filter(lambda t: 0 < t.bit_count() <= 6))
        kick, visible = data.draw(masks), data.draw(masks)
        assert _separating_share(kick, visible, tapped, (1 << r) - 1) \
            == pattern_share(kick, visible, tapped, r)

    # Half the draws are random-basis interception, half the fixed reads.
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(*(audit_cases(PATTERN_SIZES, kinds, (None, 0, 1, 2, 5), basis)
                       for kinds, basis in [(("intercept_resend",), "random"),
                                            (FIXED_KINDS, "computational")])),
           st.sampled_from(("alice", "third_party")))
    def test_audit_matches_pattern_rank_tests(self, case, source):
        strategy, size, s, s2, phase = case
        size = SourcedSize(size.n, size.m, source)
        r = 2 if phase == 3 else size.n + 1
        sent = 2 if phase == 3 else size.n + (source == "third_party")
        taps = strategy.taps_for(phase, range(sent))
        tapped = sum(1 << ch for ch in taps)
        read = next(iter(taps.values()), "z")  # one read for every tap
        rows = register_positions(size.n, size.m, s ^ s2, phase)
        kept = Fraction(1)
        for (kick, visible), count in rows.items():
            kept *= (1 - pattern_share(kick, visible, tapped, r, read)) ** count
        assert leakage_audit(strategy, size, s, s2, phase) == 1 - kept

    @pytest.mark.parametrize("source, phase, expected", [
        ("alice", 1, Fraction(1, 4)),
        ("alice", 2, Fraction(1, 2)),
        ("alice", 3, Fraction(1, 2)),
        # An X read on the sent source register shows the source's kick.
        ("third_party", 1, Fraction(1, 2)),
        ("third_party", 2, Fraction(1, 2)),
    ])
    def test_dense_statevector_agrees(self, source, phase, expected):
        # n = 2, m = 1, secrets 00 and 01 differ at position 0 only, and
        # every position is its own tuple, so the view there carries every
        # difference.  The plug-in TV of the ~36 view values is biased up by
        # about 0.05 at this many shots, so the event that separates is
        # learned on one half of the shots and measured on the other.
        rng = np.random.default_rng(90 + phase)
        shots = 2000
        sent = 3 if phase < 3 and source == "third_party" else 2
        samples = [dense_views(phase, bv(text), shots, rng, sent)
                   for text in ("00", "01")]
        half = shots // 2
        first = [Counter(views[:half]) for views in samples]
        event = {v for v in first[0] if first[0][v] > first[1][v]}
        second = [sum(v in event for v in views[half:]) for views in samples]
        assert abs(Fraction(second[0] - second[1], shots - half) - expected) < 0.05
        assert leakage_audit(RANDOM_BASIS, SourcedSize(2, 1, source), bv("00"),
                             bv("01"), phase) == expected


class _Recorder:
    """A generator that records its `integers` draws: the dense reference
    draws each random-basis read's basis with one."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = []

    def integers(self, *args, **kwargs):
        value = self.rng.integers(*args, **kwargs)
        self.drawn.append(int(value))
        return value

    def __getattr__(self, name):
        return getattr(self.rng, name)


def dense_views(phase, s, shots, rng, sent):
    """Eve's view at position 0 of `shots` dense n = 2, m = 1 rounds, with
    random-basis taps on the first `sent` channels: Eve's bases, the public
    register bits and Eve's bits."""
    if phase == 3:
        r, p, kicks, shown = 2, 1, {0: s & 1, 1: s >> 1 & 1}, (0, 1)
    else:
        # Phase 1 hides agent 0's own segment, position 0; in phase 2 each
        # agent kicks its own segment.
        r, p = 3, 2
        kicks = {2: s} if phase == 1 else {i: s & 1 << i for i in range(2)}
        shown = (2, 1) if phase == 1 else (0, 1)
    taps = dict.fromkeys(range(sent), "random")
    rec = _Recorder(rng)
    outcomes = dense_outcomes(r, p, kicks, shots, rec, taps)
    per_shot = sent * p
    assert len(rec.drawn) == per_shot * shots  # one basis per tapped qubit
    views = []
    for k, out in enumerate(outcomes):
        bases = rec.drawn[per_shot * k:per_shot * (k + 1):p]  # position 0 per channel
        views.append((tuple(bases),
                      tuple(out.registers[reg] & 1 for reg in shown),
                      tuple(out.eve[ch] & 1 for ch in range(sent))))
    return views


class TestAuditAtScale:
    @pytest.mark.parametrize("strategy", [
        EveStrategy(kind) for kind in FIXED_KINDS] + [RANDOM_BASIS],
        ids=list(FIXED_KINDS) + ["intercept_resend_random"])
    def test_full_size_audit_is_fast(self, strategy):
        rng = np.random.default_rng(95)
        size = AuditSize(15, 16)
        s = random_bits(240, rng)
        for phase in (1, 2, 3):
            start = time.perf_counter()
            leakage_audit(strategy, size, s, 0, phase)
            assert time.perf_counter() - start < 0.1, phase

    def test_random_basis_full_size_values(self):
        size = AuditSize(15, 16)
        one, zero = 1, 0
        # One differing position: phase 1 needs all 15 taps to read it in X;
        # in phase 2 its owner's tap alone reads it in X half the time.
        assert leakage_audit(RANDOM_BASIS, size, one, zero, 1) == Fraction(1, 1 << 15)
        assert leakage_audit(RANDOM_BASIS, size, one, zero, 2) == Fraction(1, 2)

    @pytest.mark.parametrize("strategy", [EveStrategy("entangle_measure"),
                                          RANDOM_BASIS],
                             ids=["entangle_measure", "intercept_resend_random"])
    def test_run_protocol_audit_writes_every_phase(self, strategy):
        cfg = ProtocolConfig(n=15, k=8, m=16, decoys=0)
        rng = np.random.default_rng(96)
        report = run_protocol(cfg, random_secret(cfg, rng), AdversaryPlan(eve=strategy),
                              rng=rng, audit=True).to_dict()
        leakage = report["leakage"]
        assert all(leakage[f"phase{ph}_tv"] is not None for ph in (1, 2, 3))
        assert not any(key.endswith("_note") for key in leakage)
