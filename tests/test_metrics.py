from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dpvqss.adversary import AdversaryPlan
from dpvqss.metrics import (
    MixedConfigError,
    efficiency_report,
    empirical_stats,
    eta1,
    eta2,
    eta3,
    wilson_interval,
)
from dpvqss.protocol import ProtocolConfig, run_protocol
from chi_square import homogeneity_p


class TestEfficiency:
    def test_reference_values(self):
        assert eta1(3, 4) == Fraction(12, 49)
        assert eta2(3, 4) == Fraction(4, 17)
        assert eta3(4) == Fraction(4, 5)

    def test_exact_reduction(self):
        # 12/51 reduces to 4/17 in exact arithmetic.
        assert eta2(3, 4).numerator == 4
        assert eta2(3, 4).denominator == 17

    def test_in_unit_interval(self):
        for n in range(2, 8):
            for m in (1, 3, 64):
                for f in (eta1(n, m), eta2(n, m), eta3(m)):
                    assert 0 < f <= 1

    def test_convergence_toward_reciprocal_n(self):
        # |eta - 1/n| shrinks strictly monotonically as m grows.  The exact
        # m -> infinity limit is 1/(n+1), so the residual gap to 1/n levels
        # off at 1/(n(n+1)), vanishing only for large n: "about 1/n" is a
        # many-agent approximation.
        for n in range(2, 11):
            target = Fraction(1, n)
            floor = Fraction(1, n * (n + 1))
            last1 = last2 = None
            for exp in range(0, 11):
                m = 1 << exp
                gap1 = abs(eta1(n, m) - target)
                gap2 = abs(eta2(n, m) - target)
                if last1 is not None:
                    assert gap1 < last1
                    assert gap2 < last2
                last1, last2 = gap1, gap2
            assert last1 - floor < Fraction(1, 4000)
            assert last2 - floor < Fraction(1, 4000)
            # The true limit at fixed n: both ratios home in on 1/(n+1).
            assert abs(eta1(n, 1 << 10) - Fraction(1, n + 1)) < Fraction(1, 4000)
            assert abs(eta2(n, 1 << 10) - Fraction(1, n + 1)) < Fraction(1, 4000)

    def test_eta3_approaches_one(self):
        assert eta3(1 << 10) == Fraction(1024, 1025)

    def test_report_rendering(self):
        d = efficiency_report(3, 4)
        assert d["eta1"] == {"num": 12, "den": 49, "decimal": "0.244898"}

    def test_size_validation(self):
        with pytest.raises(ValueError):
            eta1(1, 4)
        with pytest.raises(ValueError):
            eta3(0)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(990, 1000)
        assert lo < 0.99 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_boundaries(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == pytest.approx(1.0)
        assert lo < 1.0


class TestChiSquare:
    def test_identical_samples_high_p(self):
        rng = np.random.default_rng(110)
        a = Counter(rng.integers(0, 16, size=20_000).tolist())
        b = Counter(rng.integers(0, 16, size=20_000).tolist())
        assert homogeneity_p(a, b) > 0.001

    def test_disjoint_samples_low_p(self):
        a = Counter({0: 1000})
        b = Counter({1: 1000})
        assert homogeneity_p(a, b) < 1e-6


class TestEmpiricalStats:
    def batch(self, n_runs, seed0):
        cfg = ProtocolConfig(n=5, k=3, m=16)
        secret = bytes([1, 2])
        return [
            run_protocol(cfg, secret, AdversaryPlan(),
                         rng=np.random.default_rng(seed0 + t), seed=seed0 + t,
                         trial=t).to_dict()
            for t in range(n_runs)
        ]

    def test_honest_batch(self):
        stats = empirical_stats(self.batch(50, 1000))
        assert stats["trials"] == 50
        assert stats["abort"]["rate"] == 0.0
        assert stats["recovery"]["rate"] == 1.0
        assert stats["ambiguity"]["rate"] == 0.0
        lo, hi = stats["recovery"]["wilson95"]
        assert hi == 1.0

    def test_mixed_configs_rejected(self):
        reports = self.batch(2, 2000)
        other = dict(reports[1])
        other["config_hash"] = "deadbeef00000000"
        with pytest.raises(MixedConfigError):
            empirical_stats([reports[0], other])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            empirical_stats([])
