"""Property-based checks of the field, the sharing scheme and the decoder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpvqss.threshold import (
    FIELDS,
    AmbiguousDecodeError,
    SplitConfig,
    pack,
    reconstruct,
    robust_decode,
)
from threshold_reference import div, exhaustive_decode

widths = st.sampled_from(sorted(FIELDS))


def elements(w, **kwargs):
    return st.lists(st.integers(0, (1 << w) - 1), **kwargs)


@st.composite
def field_triples(draw):
    w = draw(widths)
    a, b, c = draw(elements(w, min_size=3, max_size=3))
    return FIELDS[w], a, b, c


@st.composite
def configs(draw, max_n):
    w = draw(widths)
    n = draw(st.integers(2, min(max_n, (1 << w) - 1)))
    k = draw(st.integers(n // 2 + 1, n))
    return SplitConfig(k, n, w)


def evaluate(cfg, polys, agent):
    """Agent's share of the polynomial vector, as its element tuple."""
    return tuple(cfg.field.poly_eval(p, agent + 1) for p in polys)


@st.composite
def polynomial_vectors(draw, cfg):
    """One degree < k polynomial per secret element, element count 1..3."""
    count = draw(st.integers(1, 3))
    return [draw(elements(cfg.w, min_size=cfg.k, max_size=cfg.k))
            for _ in range(count)]


@st.composite
def claimed_share_sets(draw):
    """n claimed shares in agent order, as element tuples, any number of
    them false.

    Liars either send independent random values or all sit on one fake
    polynomial vector (colluding); the liar count ranges from 0 to n, so it
    covers both sides of the floor((n-k)/2) radius.
    """
    cfg = draw(configs(max_n=11))
    polys = draw(polynomial_vectors(cfg))
    shares = [evaluate(cfg, polys, i) for i in range(cfg.n)]
    liars = draw(st.lists(st.integers(0, cfg.n - 1), unique=True,
                          max_size=cfg.n))
    if draw(st.booleans()):
        fake = [draw(elements(cfg.w, min_size=cfg.k, max_size=cfg.k))
                for _ in polys]
        for i in liars:
            shares[i] = evaluate(cfg, fake, i)
    else:
        for i in liars:
            value = draw(elements(cfg.w, min_size=len(polys),
                                  max_size=len(polys)))
            shares[i] = tuple(value)
    return shares, cfg


def decode_outcome(decode, *args):
    # Candidates compare as sets: sorted ints and sorted tuples order
    # differently.
    try:
        return decode(*args)
    except AmbiguousDecodeError as err:
        return "ambiguous", err.support, set(err.candidates)


def reference_outcome(shares, cfg):
    """The reference search's outcome with its element tuples packed."""
    outcome = decode_outcome(exhaustive_decode, shares, cfg)
    if outcome[0] == "ambiguous":
        return "ambiguous", outcome[1], {pack(c, cfg.w) for c in outcome[2]}
    return pack(outcome[0], cfg.w), outcome[1]


class TestFieldAxioms:
    @given(field_triples())
    def test_ring_axioms(self, triple):
        gf, a, b, c = triple
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0

    @given(field_triples())
    def test_inverse_and_division(self, triple):
        gf, a, b, _ = triple
        if b == 0:
            with pytest.raises(ZeroDivisionError):
                div(gf, a, b)
            return
        assert gf.mul(b, gf.inv(b)) == 1
        assert gf.inv(gf.inv(b)) == b
        assert gf.mul(div(gf, a, b), b) == a
        assert div(gf, a, b) == gf.mul(a, gf.inv(b))


class TestSharing:
    @given(st.data())
    def test_reconstruct_from_any_k_subset(self, data):
        cfg = data.draw(configs(max_n=15))
        polys = data.draw(polynomial_vectors(cfg))
        agents = data.draw(st.lists(st.integers(0, cfg.n - 1), unique=True,
                                    min_size=cfg.k, max_size=cfg.k))
        claims = {j: pack(evaluate(cfg, polys, j), cfg.w) for j in agents}
        assert (reconstruct(claims, cfg, cfg.w * len(polys))
                == pack([p[0] for p in polys], cfg.w))


class TestDecoderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(claimed_share_sets())
    def test_matches_exhaustive_search(self, case):
        # The decoder takes claim j as agent j's m-bit int; the reference
        # takes agent j's element tuple and answers in element tuples,
        # packed here.
        shares, cfg = case
        claims = [pack(s, cfg.w) for s in shares]
        assert (decode_outcome(robust_decode, claims, cfg, cfg.w * len(shares[0]))
                == reference_outcome(shares, cfg))
