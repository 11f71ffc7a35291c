"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every tolerance is pinned here; all randomness is seeded, so the suite is
deterministic.
"""

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from dpvqss.adversary import (
    AdversaryPlan,
    AuditSize,
    EveStrategy,
    RogueBehavior,
    leakage_audit,
)
from dpvqss.bitvec import random_bits
from dpvqss.cli import main, oracle_check_case
from dpvqss.entangle import decoy_mismatches
from dpvqss.metrics import eta1, eta2, eta3, wilson_interval
from dpvqss.protocol import (
    Aborted,
    ProtocolConfig,
    Transcript,
    phase2_verify,
    random_secret,
    run_protocol,
)
from dpvqss.qsim import dense_outcomes
from dpvqss.threshold import (
    AmbiguousDecodeError,
    FIELDS,
    SplitConfig,
    reconstruct,
    robust_decode,
)
from threshold_reference import on_one_polynomial, reference_decode

ORACLE_CASES = ((2, 1), (2, 2), (3, 1))
HONEST = AdversaryPlan()


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {cid}: {description}")
        raise
    print(f"[PASS] {cid}: {description}")


def xor_all(vectors):
    acc = vectors[0]
    for v in vectors[1:]:
        acc = acc ^ v
    return acc


def test_c1_hadamard_entanglement_property_oracle():
    with criterion("C1", "dense-reference outcome XOR always equals the secret"):
        start = time.monotonic()
        rng = np.random.default_rng(2024_01)
        violations = 0
        for n, m in ORACLE_CASES:
            for _ in range(8):
                s = random_bits(n * m, rng)
                for out in dense_outcomes(n + 1, n * m, {n: s}, 2000, rng):
                    if xor_all(list(out.registers.values())) != s:
                        violations += 1
        elapsed = time.monotonic() - start
        assert violations == 0
        assert elapsed < 60.0


def test_c2_sampler_oracle_equivalence():
    with criterion("C2", "sampler and oracle distributions are identical"):
        for n, m in ORACLE_CASES:
            results = oracle_check_case(n, m, secrets=8, seed=2024_02)
            for res in results:
                assert res["max_deviation"] <= 1e-12


def test_c3_verification_soundness():
    with criterion("C3", "honest verification proceeds; any lie aborts"):
        rng = np.random.default_rng(2024_03)

        cfg = ProtocolConfig(n=5, k=3, m=16)
        for _ in range(1000):
            s = random_bits(80, rng)
            inputs = [(s >> (16 * i)) & 0xFFFF for i in range(5)]
            phase2_verify(cfg, inputs, s, HONEST, rng, Transcript(), [])

        cfg16 = ProtocolConfig(n=4, k=3, m=4)  # n*m = 16
        lie = AdversaryPlan(rogues=RogueBehavior(
            (2,), ("lie_phase2_report",), mode="random"))
        for _ in range(1000):
            s = random_bits(16, rng)
            inputs = [(s >> (4 * i)) & 0xF for i in range(4)]
            with pytest.raises(Aborted):
                phase2_verify(cfg16, inputs, s, lie, rng, Transcript(), [])

        flip = AdversaryPlan(rogues=RogueBehavior(
            (0,), ("lie_phase2_report",), mode="bit_flip"))
        for cfg_f, width in ((ProtocolConfig(n=2, k=2, m=1), 1),
                             (ProtocolConfig(n=5, k=3, m=16), 16)):
            for _ in range(500):
                s = random_bits(cfg_f.n * width, rng)
                inputs = [(s >> (width * i)) & ((1 << width) - 1)
                          for i in range(cfg_f.n)]
                with pytest.raises(Aborted):
                    phase2_verify(cfg_f, inputs, s, flip, rng, Transcript(), [])


def test_c4_threshold_secrecy_exhaustive():
    with criterion("C4", "k-1 shares are consistent with every secret equally"):
        start = time.monotonic()
        gf = FIELDS[4]
        for k, n in ((2, 3), (3, 4)):
            cfg = SplitConfig(k, n, 4)
            xs = [i + 1 for i in range(n)]
            # counts[(subset, observed)][secret] over all polynomials
            counts: dict = {}
            for coeffs in product(range(16), repeat=k):
                shares = tuple(gf.poly_eval(list(coeffs), x) for x in xs)
                secret = coeffs[0]
                for subset in combinations(range(n), k - 1):
                    observed = tuple(shares[i] for i in subset)
                    bucket = counts.setdefault((subset, observed), Counter())
                    bucket[secret] += 1
                # Every k-subset reconstructs the exact secret.
                for subset in combinations(range(n), k):
                    claims = {i: shares[i] for i in subset}
                    assert reconstruct(claims, cfg, 4) == secret
            for (subset, observed), bucket in counts.items():
                # Every candidate secret explains the observation in exactly
                # one way: the view carries no information about it.
                assert set(bucket) == set(range(16))
                assert set(bucket.values()) == {1}
        assert time.monotonic() - start < 10.0


def test_c5_loyal_recovery_at_sound_radius():
    with criterion("C5", "one phase-3 liar never stops loyal recovery; "
                         "beyond the radius decoding reports ambiguity"):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        plan = AdversaryPlan(rogues=RogueBehavior(
            (3,), ("lie_phase3_oracle", "lie_phase3_report"), mode="random"))
        for t in range(1000):
            rng = np.random.default_rng([2024_05, t])
            secret = random_secret(cfg, rng)
            rep = run_protocol(cfg, secret, plan, rng=rng)
            assert rep.verdict == "proceed"
            d = rep.to_dict()
            for idx, agent in d["agents"].items():
                if agent["loyal"]:
                    assert agent["recovered_secret"], (t, idx)

        # (3, 4) with two colluding liars on a shared fake polynomial:
        # t = 2 > floor((n-k)/2), so the tie must surface as ambiguity.
        # The honest shares come from a fixed polynomial, not a draw, and
        # no quadratic fits all four claims, whatever the random stream.
        gf = FIELDS[4]
        cfg2 = SplitConfig(3, 4, 4)
        honest = [0x5, 0x8, 0x2]
        fake = [0xC, 0x1, 0x9]
        shares = [gf.poly_eval(fake if i in (1, 3) else honest, i + 1)
                  for i in range(cfg2.n)]
        assert not on_one_polynomial(shares, cfg2, gf)
        with pytest.raises(AmbiguousDecodeError) as err:
            robust_decode(shares, cfg2, 4)
        assert reference_decode(shares, cfg2, 4) == (None, err.value.support)


def _decoy_detection_rate(d, trials, seed):
    rng = np.random.default_rng(seed)
    return sum(decoy_mismatches(d, 1, 1, rng)[0] > 0 for _ in range(trials))


def test_c6_decoy_detection():
    with criterion("C6", "intercept-resend is caught at the 1-(3/4)^d rate, "
                         "monotone in d"):
        target = 1.0 - 0.75 ** 16
        hits = _decoy_detection_rate(16, 1000, 2024_06)
        assert hits / 1000 >= 0.98
        lo, hi = wilson_interval(hits, 1000)
        assert lo <= target <= hi
        rates = [
            _decoy_detection_rate(d, 1000, 2024_60 + d) / 1000
            for d in (1, 2, 4, 8, 16)
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))


def test_c7_entangle_measure_disruption():
    with criterion("C7", "an entangling tap on verification always aborts"):
        cfg = ProtocolConfig(n=2, k=2, m=8, decoys=0)  # n*m = 16
        plan = AdversaryPlan(eve=EveStrategy("entangle_measure", phases=(2,)))
        rng = np.random.default_rng(2024_07)
        aborts = 0
        trials = 1000
        for _ in range(trials):
            s = random_bits(16, rng)
            inputs = [(s >> (8 * i)) & 0xFF for i in range(2)]
            try:
                phase2_verify(cfg, inputs, s, plan, rng, Transcript(), [])
            except Aborted:
                aborts += 1
        assert aborts / trials >= 1.0 - 2.0 ** -16


def test_c8_leakage_audit():
    with criterion("C8", "passive and tapping eavesdroppers learn exactly "
                         "nothing (phase 1/2) or only the pair XOR (phase 3)"):
        cfg = AuditSize(2, 1)
        s, s2 = 0b10, 0b01
        assert leakage_audit(EveStrategy(), cfg, s, s2, phase=1) == Fraction(0)
        assert leakage_audit(
            EveStrategy("entangle_measure"), cfg, s, s2, phase=1
        ) == Fraction(0)
        assert leakage_audit(EveStrategy(), cfg, s, s2, phase=2) == Fraction(0)

        cfg3 = AuditSize(2, 2)
        equal_xor, other_xor = (0b1001, 0b0110), 0b1111
        for eve in (EveStrategy(), EveStrategy("entangle_measure")):
            assert leakage_audit(eve, cfg3, *equal_xor, phase=3) == Fraction(0)
            assert leakage_audit(
                eve, cfg3, equal_xor[0], other_xor, phase=3
            ) == Fraction(1)


def test_c9_efficiency_formulas():
    with criterion("C9", "exact efficiency ratios and their numeric trend"):
        assert eta1(3, 4) == Fraction(12, 49)
        assert eta2(3, 4) == Fraction(4, 17)
        assert eta3(4) == Fraction(4, 5)
        # As m grows with n fixed, |eta - 1/n| decreases monotonically; the
        # exact limit of both ratios is 1/(n+1), so the residual gap to 1/n
        # settles at 1/(n(n+1)) and "about 1/n" holds in the many-agent
        # regime.
        for n in range(2, 11):
            gap1 = [abs(eta1(n, 1 << e) - Fraction(1, n)) for e in range(11)]
            gap2 = [abs(eta2(n, 1 << e) - Fraction(1, n)) for e in range(11)]
            assert all(a > b for a, b in zip(gap1, gap1[1:]))
            assert all(a > b for a, b in zip(gap2, gap2[1:]))
            floor = Fraction(1, n * (n + 1))
            assert gap1[-1] - floor < Fraction(1, 4000)
            assert gap2[-1] - floor < Fraction(1, 4000)
            assert abs(eta1(n, 1 << 10) - Fraction(1, n + 1)) < Fraction(1, 4000)


def test_c10_performance():
    with criterion("C10", "n=5 m=128 run under 1 s; 10^4-trial sweep under 60 s"):
        big = ProtocolConfig(n=5, k=3, m=128)
        rng = np.random.default_rng(2024_10)
        secret = random_secret(big, rng)
        start = time.monotonic()
        rep = run_protocol(big, secret, HONEST, rng=rng)
        single = time.monotonic() - start
        assert rep.verdict == "proceed"
        assert single < 1.0

        cfg = ProtocolConfig(n=5, k=3, m=16)
        start = time.monotonic()
        proceeds = 0
        for t in range(10_000):
            trial_rng = np.random.default_rng([2024_10, t])
            trial_secret = random_secret(cfg, trial_rng)
            rep = run_protocol(cfg, trial_secret, HONEST, rng=trial_rng,
                               seed=2024_10, trial=t)
            proceeds += rep.to_dict()["verdict"] == "proceed"
        elapsed = time.monotonic() - start
        assert proceeds == 10_000
        assert elapsed < 60.0


def test_c11_determinism(tmp_path, capsys):
    with criterion("C11", "identical (config, seed) gives byte-identical "
                          "JSON-lines output"):
        cfg_text = (
            "protocol.n = 5\nprotocol.k = 3\nprotocol.m = 16\n"
            "adversary.rogues.agents = 4\n"
            "adversary.rogues.actions = lie_phase3_report\n"
            "trials = 25\nseed = 11\n"
        )
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(cfg_text)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
        blob = out_a.read_bytes()
        assert blob == out_b.read_bytes()
        assert len(blob.splitlines()) == 25
        capsys.readouterr()
