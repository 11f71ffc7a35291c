"""Property-based checks of the bit-vector and segment algebra."""

from hypothesis import given
from hypothesis import strategies as st

from dpvqss.bitvec import (
    BitVector,
    SegmentedVector,
    concat_segments,
    extend_segment,
)


@st.composite
def vectors(draw, length=None, count=1):
    if length is None:
        length = draw(st.integers(1, 96))
    values = draw(st.lists(st.integers(0, (1 << length) - 1),
                           min_size=count, max_size=count))
    return [BitVector(v, length) for v in values]


@st.composite
def segment_layouts(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 16))
    return n, m, draw(vectors(length=m, count=n))


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
        assert (a ^ b).weight() % 2 == (a.weight() + b.weight()) % 2


class TestSegments:
    @given(segment_layouts())
    def test_concat_then_segment_round_trip(self, layout):
        n, m, parts = layout
        whole = concat_segments(parts)
        assert whole.length == n * m
        assert SegmentedVector(whole, n, m).segments() == parts

    @given(segment_layouts())
    def test_segment_then_concat_round_trip(self, layout):
        n, m, parts = layout
        whole = concat_segments(parts)
        assert concat_segments(SegmentedVector(whole, n, m).segments()) == whole

    @given(segment_layouts(), st.data())
    def test_extend_segment_fills_only_its_segment(self, layout, data):
        n, m, parts = layout
        i = data.draw(st.integers(0, n - 1))
        extended = SegmentedVector(extend_segment(parts[i], i, n), n, m)
        for j, seg in enumerate(extended.segments()):
            assert seg == (parts[i] if j == i else BitVector.zeros(m))

    @given(segment_layouts())
    def test_extended_segments_sum_to_the_concatenation(self, layout):
        n, m, parts = layout
        total = BitVector.zeros(n * m)
        for i, part in enumerate(parts):
            total = total ^ extend_segment(part, i, n)
        assert total == concat_segments(parts)
