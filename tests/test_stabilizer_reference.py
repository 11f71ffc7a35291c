import numpy as np

from dpvqss.qsim import StateVector
from stabilizer_reference import stabilizer_support, uniform_law


class TestStabilizerSupport:
    """The tableau reference against exact dense probabilities."""

    def test_random_circuits_match_dense_statevector(self):
        # General H/CNOT circuits, where (unlike the protocol's) the support
        # can miss the all-zero outcome, so the stabilizer signs matter.
        rng = np.random.default_rng(66)
        offsets = 0
        for _ in range(400):
            q = int(rng.integers(1, 5))
            sv = StateVector(q)
            gates = []
            for _ in range(int(rng.integers(1, 16))):
                if q > 1 and rng.random() < 0.5:
                    c, t = (int(x) for x in rng.choice(q, 2, replace=False))
                    sv.apply_cnot(c, t)
                    gates.append(("cnot", c, t))
                else:
                    a = int(rng.integers(q))
                    sv.apply_h(a)
                    gates.append(("h", a))
            offset, basis = stabilizer_support(q, gates)
            offsets += offset != 0
            law = uniform_law(offset, basis)
            probs = np.abs(sv.amps) ** 2
            assert np.allclose(
                [law[i] for i in range(1 << q)], probs, rtol=0, atol=1e-12
            ), gates
        assert offsets > 0
