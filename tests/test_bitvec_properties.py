"""Property-based checks of the bit-vector algebra."""

from hypothesis import given
from hypothesis import strategies as st

from dpvqss.bitvec import BitVector


@st.composite
def vectors(draw, length=None, count=1):
    if length is None:
        length = draw(st.integers(1, 96))
    values = draw(st.lists(st.integers(0, (1 << length) - 1),
                           min_size=count, max_size=count))
    return [BitVector(v, length) for v in values]


class TestXorGroup:
    @given(vectors(count=3))
    def test_abelian_group(self, vs):
        a, b, c = vs
        zero = BitVector.zeros(a.length)
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ b == b ^ a
        assert a ^ zero == a
        assert a ^ a == zero

    @given(vectors(count=2))
    def test_dot_is_bilinear_through_xor(self, vs):
        a, b = vs
        assert (a ^ b).dot(a) == a.dot(a) ^ b.dot(a)
        assert (a ^ b).value.bit_count() % 2 == (
            a.value.bit_count() + b.value.bit_count()
        ) % 2
