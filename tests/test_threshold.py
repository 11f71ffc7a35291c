import collections
import itertools
import json

import numpy as np
import pytest

from dpvqss import protocol, threshold
from dpvqss.adversary import AdversaryPlan
from dpvqss.bitvec import cut
from dpvqss.threshold import (
    FIELDS,
    AmbiguousDecodeError,
    InsufficientSharesError,
    ShareIntegrityError,
    SplitConfig,
    decode_views,
    pack,
    reconstruct,
    robust_decode,
    split,
    unpack,
)
from dpvqss.protocol import ProtocolConfig, run_protocol
from dense_reference import scripted
from threshold_reference import (
    lagrange_weights,
    on_one_polynomial,
    reference_decode,
    split_reference,
)

GF16 = FIELDS[4]
GF256 = FIELDS[8]


def shares_of(secret, cfg, m, rng):
    """`split`'s aggregated word cut into the n shares."""
    return cut(split(secret, cfg, m, rng), cfg.n, m)


class TestField:
    @pytest.mark.parametrize("w", sorted(FIELDS))
    def test_generator_is_primitive(self, w):
        # Its powers visit every nonzero element once, so log is a bijection.
        gf = FIELDS[w]
        assert sorted(gf.exp[:gf.order - 1]) == list(range(1, gf.order))

    def test_axioms_exhaustive_gf16(self):
        els = range(16)
        for a, b in itertools.product(els, els):
            assert GF16.mul(a, b) == GF16.mul(b, a)
        for a, b, c in itertools.product(els, els, els):
            assert GF16.mul(GF16.mul(a, b), c) == GF16.mul(a, GF16.mul(b, c))
            assert GF16.mul(a, b ^ c) == GF16.mul(a, b) ^ GF16.mul(a, c)
        for a in range(1, 16):
            assert GF16.mul(a, GF16.inv(a)) == 1
            assert GF16.mul(a, 1) == a

    def test_axioms_randomized_gf256(self):
        rng = np.random.default_rng(10)
        trip = rng.integers(0, 256, size=(100_000, 3))
        for a, b, c in trip:
            a, b, c = int(a), int(b), int(c)
            assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))
            assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)
        for a in range(1, 256):
            assert GF256.mul(a, GF256.inv(a)) == 1

    def test_tables_match_slow_multiply(self):
        for gf in (GF16, GF256):
            rng = np.random.default_rng(11)
            for _ in range(500):
                a = int(rng.integers(0, gf.order))
                b = int(rng.integers(0, gf.order))
                assert gf.mul(a, b) == gf._slow_mul(a, b)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF16.inv(0)


class TestKernel:
    @pytest.mark.parametrize("w", [4, 8])
    def test_tables_match_per_element_multiply(self, w):
        gf = FIELDS[w]
        mask = (1 << w) - 1
        for c in range(gf.order):
            table = gf.tables[c]
            assert len(table) == 256
            for b in range(256):
                expect = 0
                for shift in range(0, 8, w):
                    expect |= gf.mul(c, b >> shift & mask) << shift
                assert table[b] == expect, (c, b)

    @pytest.mark.parametrize("w", [4, 8])
    def test_combine_matches_per_element_sum(self, w):
        gf = FIELDS[w]
        rng = np.random.default_rng(30 + w)
        for _ in range(300):
            outputs, terms, count = (int(v) for v in rng.integers(1, 6, size=3))
            rows = rng.integers(0, gf.order, size=(outputs, terms)).tolist()
            values = rng.integers(0, gf.order, size=(terms, count)).tolist()
            expect = []
            for weights in rows:
                elements = []
                for e in range(count):
                    acc = 0
                    for c, row in zip(weights, values):
                        acc ^= gf.mul(c, row[e])
                    elements.append(acc)
                expect.append(pack(elements, w))
            assert gf.combine(gf.resolve(rows),
                              [pack(row, w) for row in values]) == expect

    def test_split_matches_per_element_reference(self):
        # Same shares in the same segments and the same generator state
        # afterwards, so runs that go on drawing see the same stream.  At
        # w = 4 an odd element count ends a share mid-byte, so both the byte
        # and the shift placement run.
        for n, k in ((2, 2), (3, 2), (5, 3), (7, 4), (9, 5), (15, 8)):
            for w in (4, 8):
                for elements in (1, 2, 3, 4, 16, 17):
                    seed = [n, k, w, elements]
                    secret = [int(e) for e in np.random.default_rng(seed)
                              .integers(0, 1 << w, size=elements)]
                    cfg, m = SplitConfig(k, n, w), elements * w
                    rng, ref_rng = (np.random.default_rng(seed) for _ in "ab")
                    word = split(pack(secret, w), cfg, m, rng)
                    ref = split_reference(secret, cfg, ref_rng)
                    assert word == sum(pack(s, w) << (i * m)
                                       for i, s in enumerate(ref))
                    assert (rng.bit_generator.state
                            == ref_rng.bit_generator.state)

    @staticmethod
    def check_lagrange_rows(w, xs, targets):
        # Each weight's table holds the weight itself at byte 1, so equal
        # tables mean equal weights.
        gf = FIELDS[w]
        rows = threshold._lagrange_rows(w, xs, targets)
        assert [[table[1] for table in row] for row in rows] == [
            lagrange_weights(xs, x, gf) for x in targets]

    @pytest.mark.parametrize("w", [4, 8])
    def test_lagrange_weights_match_product_formula(self, w):
        # Every node set of every accepted size n <= 9, at every target
        # 0 .. n, the nodes included; the weights are exact field elements.
        for n, k in SIZES:
            for xs in itertools.combinations(range(1, n + 1), k):
                self.check_lagrange_rows(w, xs, tuple(range(n + 1)))

    def test_lagrange_weights_at_n255(self):
        # The fill of an honest n = 255 trial: the first k = 128 agents
        # predict every other claim and the secret.
        self.check_lagrange_rows(8, tuple(range(1, 129)), (*range(129, 256), 0))


class TestSplitConfig:
    def test_valid(self):
        SplitConfig(2, 3, 4)
        SplitConfig(3, 5, 8)

    def test_majority_constraint(self):
        with pytest.raises(ValueError):
            SplitConfig(2, 4, 8)  # k = n/2 violates k > n/2
        with pytest.raises(ValueError):
            SplitConfig(1, 1, 8)

    def test_field_too_small(self):
        with pytest.raises(ValueError):
            SplitConfig(9, 16, 4)


class TestSplitReconstruct:
    def test_hand_worked_shares(self):
        # f(x) = 0xA + 0x3 x over GF(16): shares 0x9, 0xC, 0xF at x = 1, 2, 3.
        assert [GF16.poly_eval([0xA, 0x3], x) for x in (1, 2, 3)] == [0x9, 0xC, 0xF]
        cfg = SplitConfig(2, 3, 4)
        claims = {0: 0x9, 1: 0xC, 2: 0xF}
        for pair in itertools.combinations(claims.items(), 2):
            assert reconstruct(dict(pair), cfg, 4) == 0xA

    def test_single_share_reveals_nothing(self):
        # Every value of a lone share is produced by exactly one polynomial
        # per candidate secret, so all 16 secrets stay equally likely.
        cfg = SplitConfig(2, 3, 4)
        for agent in range(cfg.n):
            for observed in range(16):
                counts = {
                    sec: sum(
                        1
                        for c1 in range(16)
                        if GF16.poly_eval([sec, c1], agent + 1) == observed
                    )
                    for sec in range(16)
                }
                assert set(counts.values()) == {1}

    @pytest.mark.parametrize("n, k", [(3, 2), (5, 3)])
    def test_any_k_minus_1_shares_are_uniform(self, n, k):
        # At w = m = 4 each of the k-1 random terms is one coefficient, so
        # every draw can be enumerated: for every secret, any k-1 agents'
        # shares take each of their 16^(k-1) values exactly once.
        cfg = SplitConfig(k, n, 4)
        draws = list(itertools.product(range(16), repeat=k - 1))
        for secret in range(16):
            seen = {agents: collections.Counter()
                    for agents in itertools.combinations(range(n), k - 1)}
            for draw in draws:
                shares = cut(split(secret, cfg, 4, scripted(draw)), n, 4)
                for agents, counts in seen.items():
                    counts[tuple(shares[j] for j in agents)] += 1
            for counts in seen.values():
                assert len(counts) == len(draws)
                assert set(counts.values()) == {1}

    def test_threshold_boundary_k_equals_n(self):
        cfg = SplitConfig(2, 2, 4)
        rng = np.random.default_rng(12)
        claims = dict(enumerate(shares_of(0x7, cfg, 4, rng)))
        assert reconstruct(claims, cfg, 4) == 0x7
        with pytest.raises(InsufficientSharesError):
            reconstruct({1: claims[1]}, cfg, 4)

    def test_round_trip_many_configs(self):
        rng = np.random.default_rng(13)
        for n in range(2, 8):
            for k in range(max(2, n // 2 + 1), n + 1):
                for w in (4, 8):
                    if n >= 1 << w:
                        continue
                    cfg = SplitConfig(k, n, w)
                    for _ in range(25):
                        secret = pack(rng.integers(0, 1 << w, size=3).tolist(), w)
                        claims = shares_of(secret, cfg, 3 * w, rng)
                        assert len(claims) == n
                        assert max(claims) >> (3 * w) == 0
                        chosen = rng.choice(n, size=k, replace=False).tolist()
                        subset = {j: claims[j] for j in chosen}
                        assert reconstruct(subset, cfg, 3 * w) == secret

    def test_split_rejects_bad_width_or_range(self):
        cfg = SplitConfig(2, 3, 4)
        rng = np.random.default_rng(14)
        for secret, m in ((1 << 8, 8), (-1, 8), (1, 6), (0, 0)):
            with pytest.raises(ValueError):
                split(secret, cfg, m, rng)

    def test_agents_outside_roster_rejected(self):
        # Claims are keyed by agent, so an agent can claim only once; the
        # keys must name agents 0..n-1.
        cfg = SplitConfig(2, 3, 4)
        claims = shares_of(1, cfg, 4, np.random.default_rng(14))
        for bad in (-1, 3):
            with pytest.raises(ShareIntegrityError):
                reconstruct({0: claims[0], bad: claims[1]}, cfg, 4)

    def test_width_must_match_field(self):
        # The kernel scales with GF(2^w)'s tables, so m must be whole w-bit
        # elements, and every claim m bits wide.
        byte_field = SplitConfig(2, 3, 8)
        for m in (4, 12, 0):
            with pytest.raises(ShareIntegrityError):
                reconstruct({0: 0x2, 1: 0x4}, byte_field, m)
        for bad in (0x1234, -1):
            with pytest.raises(ShareIntegrityError):
                reconstruct({0: 0x12, 1: bad}, byte_field, 8)


class TestRobustDecode:
    def test_all_honest(self):
        cfg = SplitConfig(3, 5, 8)
        rng = np.random.default_rng(15)
        secret = pack([10, 20, 30], 8)
        shares = shares_of(secret, cfg, 24, rng)
        decoded, support = robust_decode(shares, cfg, 24)
        assert decoded == secret
        assert support == 5

    def test_one_false_share_within_radius(self):
        # t = 1 <= floor((5-3)/2): decoding must stay unique and correct.
        cfg = SplitConfig(3, 5, 8)
        rng = np.random.default_rng(16)
        for _ in range(1000):
            secret = pack(rng.integers(0, 256, size=2).tolist(), 8)
            shares = shares_of(secret, cfg, 16, rng)
            liar = int(rng.integers(0, 5))
            forged = tuple(int(e) for e in rng.integers(0, 256, size=2))
            shares[liar] = pack(forged, 8)
            decoded, support = robust_decode(shares, cfg, 16)
            assert decoded == secret
            assert support >= 4

    def test_colluding_pair_forces_ambiguity(self):
        # Two false shares on a common fake polynomial at (3, 4) exceed the
        # floor((n-k)/2) radius; the tie must surface, not be guessed away.
        # The shares come from fixed polynomials, not a draw, so that no
        # change to the random stream can put all four on one quadratic.
        cfg = SplitConfig(3, 4, 4)
        honest_poly = [0x5, 0x3, 0xE]
        fake_poly = [0xB, 0x2, 0x7]  # distinct constant term
        shares = [GF16.poly_eval(fake_poly if i in (2, 3) else honest_poly,
                                 i + 1) for i in range(cfg.n)]
        assert not on_one_polynomial(shares, cfg, GF16)
        with pytest.raises(AmbiguousDecodeError) as err:
            robust_decode(shares, cfg, 4)
        assert err.value.support >= 3
        assert reference_decode(shares, cfg, 4) == (None, err.value.support)

    def test_agrees_with_reconstruct_when_unambiguous(self):
        cfg = SplitConfig(3, 5, 4)
        rng = np.random.default_rng(18)
        for _ in range(200):
            secret = pack(rng.integers(0, 16, size=2).tolist(), 4)
            shares = shares_of(secret, cfg, 8, rng)
            decoded, _ = robust_decode(shares, cfg, 8)
            assert decoded == reconstruct(dict(enumerate(shares[: cfg.k])), cfg, 8)

    def test_false_first_share_decodes_without_exhaustive_search(self, monkeypatch):
        # The lie at index 0 spoils the interpolation from the first k
        # shares, so the answer has to come from Berlekamp-Welch.
        cfg = SplitConfig(8, 15, 8)
        rng = np.random.default_rng(20)
        secret = pack([0x42, 0x17, 0xC3], 8)
        shares = shares_of(secret, cfg, 24, rng)
        shares[0] ^= 0x5A5A5A

        def refuse(claims, cfg):
            raise AssertionError("exhaustive search entered")

        monkeypatch.setattr(threshold, "_exhaustive_decode", refuse)
        assert robust_decode(shares, cfg, 24) == (secret, 14)

    def test_errors_spread_over_elements_fall_back(self, monkeypatch):
        # Each element has one error, within the radius of 2, but the three
        # false shares together exceed it: only the search may answer.
        cfg = SplitConfig(5, 9, 8)
        rng = np.random.default_rng(21)
        secret = pack([0x11, 0x22, 0x33], 8)
        shares = shares_of(secret, cfg, 24, rng)
        for liar, e in ((6, 0), (7, 1), (8, 2)):
            shares[liar] ^= 0xFF << (8 * e)
        fallbacks = []

        def spy(claims, cfg):
            fallbacks.append(cfg)
            return exhaustive(claims, cfg)

        exhaustive = threshold._exhaustive_decode
        monkeypatch.setattr(threshold, "_exhaustive_decode", spy)
        assert robust_decode(shares, cfg, 24) == (secret, 6)
        assert len(fallbacks) == 1

    def test_requires_full_roster(self):
        cfg = SplitConfig(3, 5, 8)
        rng = np.random.default_rng(19)
        shares = shares_of(pack([1, 2], 8), cfg, 16, rng)
        with pytest.raises(ShareIntegrityError):
            robust_decode(shares[:4], cfg, 16)

    def test_rejects_claims_wider_than_m(self):
        cfg = SplitConfig(3, 5, 8)
        shares = shares_of(pack([1, 2], 8), cfg, 16, np.random.default_rng(19))
        for bad in (1 << 16, -1):
            claims = list(shares)
            claims[2] = bad
            with pytest.raises(ShareIntegrityError):
                robust_decode(claims, cfg, 16)
        with pytest.raises(ShareIntegrityError):
            robust_decode(shares, cfg, 12)  # not a multiple of w


# Every (n, k) that SplitConfig accepts with n <= 9.
SIZES = [(n, k) for n in range(2, 10) for k in range(n // 2 + 1, n + 1)]


class TestDecodeViews:
    """`decode_views` returns, per view, what `robust_decode` returns on it:
    (secret, support), or (None, support) where it raises
    AmbiguousDecodeError."""

    @staticmethod
    def check(views, cfg, m):
        views = list(dict.fromkeys(views))
        expect = {}
        for view in views:
            try:
                expect[view] = robust_decode(view, cfg, m)
            except AmbiguousDecodeError as err:
                expect[view] = None, err.support
        assert decode_views(views, cfg, m) == expect
        return expect

    @staticmethod
    def shares(cfg, m, rng):
        return shares_of(int(rng.integers(0, 1 << m)), cfg, m, rng)

    @pytest.mark.parametrize("n, k", SIZES)
    def test_one_random_liar_at_each_index(self, n, k):
        # As in phase 3: every other agent holds a fresh lie for the liar's
        # claim, and the liar holds every true share.
        cfg, m = SplitConfig(k, n, 4), 8
        rng = np.random.default_rng([40, n, k])
        for liar in range(n):
            claims = self.shares(cfg, m, rng)
            views = []
            for i in range(n):
                view = list(claims)
                if i != liar:
                    view[liar] = int(rng.integers(0, 1 << m))
                views.append(tuple(view))
            self.check(views, cfg, m)

    @pytest.mark.parametrize("n, k", SIZES)
    def test_fixed_colluders_at_the_tie_and_past_the_radius(self, n, k):
        # t = r + 1 and r + 2 colluders, first or last, claim one fake
        # polynomial that meets the true one on `a` honest positions; the
        # loyal agents hold those claims, each colluder every true share.
        # With a = n - 2t the two polynomials tie at support n - t, unless
        # a third candidate fits more claims by chance: every loyal view
        # decodes as the scalar exhaustive search does.
        cfg, m = SplitConfig(k, n, 4), 8
        gf, radius = cfg.field, (n - k) // 2
        rng = np.random.default_rng([41, n, k])
        ties = 0
        for t in range(radius + 1, min(radius + 2, n - 1) + 1):
            for colluders in (range(t), range(n - t, n)):
                honest = [j for j in range(n) if j not in colluders]
                for a in range(max(0, k - t), min(k - 1, len(honest)) + 1):
                    claims = self.shares(cfg, m, rng)
                    nodes = honest[:a] + list(colluders)[:k - a]
                    values = [claims[j] if j in honest else
                              int(rng.integers(0, 1 << m)) for j in nodes]
                    rows = threshold._lagrange_rows(
                        4, tuple(j + 1 for j in nodes),
                        tuple(j + 1 for j in colluders))
                    fake = dict(zip(colluders, gf.combine(rows, values)))
                    loyal = tuple(fake.get(j, c) for j, c in enumerate(claims))
                    got = self.check([loyal, tuple(claims)], cfg, m)
                    expect = reference_decode(loyal, cfg, m)
                    assert got[loyal] == expect
                    if a == n - 2 * t and any(fake[j] != claims[j]
                                              for j in colluders):
                        ties += expect == (None, n - t)
        assert ties or n == k

    @pytest.mark.parametrize("n, k", SIZES)
    def test_views_agreeing_on_fewer_than_k_positions(self, n, k):
        # View i falsifies the e claims from position i on, for the first
        # v views: every position is falsified somewhere (v = n), or only
        # the last k - 1 positions are alike in all views (v = n - k + 1).
        cfg, m = SplitConfig(k, n, 4), 8
        rng = np.random.default_rng([42, n, k])
        for e in (1, (n - k) // 2 + 1):
            for v in (n, n - k + 1):
                claims = self.shares(cfg, m, rng)
                views = []
                for i in range(v):
                    view = list(claims)
                    for j in range(i, i + e):
                        view[j % n] ^= int(rng.integers(1, 1 << m))
                    views.append(tuple(view))
                self.check(views, cfg, m)

    @pytest.mark.parametrize("n, k", [(n, k) for n, k in SIZES if n - k < 2])
    def test_no_or_one_agent_outside_the_subset(self, n, k):
        # At n - k = 0 the interpolating subset leaves no agent to check,
        # at n - k = 1 one: every view, honest or with one claim changed,
        # decodes as the scalar exhaustive search does.
        cfg, m = SplitConfig(k, n, 4), 8
        rng = np.random.default_rng([44, n, k])
        claims = tuple(self.shares(cfg, m, rng))
        views = [claims] + [
            claims[:i] + (claims[i] ^ int(rng.integers(1, 1 << m)),)
            + claims[i + 1:] for i in range(n)]
        got = self.check(views, cfg, m)
        assert got == {view: reference_decode(view, cfg, m) for view in views}
        assert got[claims][1] == n

    def test_agreed_prediction_decodes_without_robust_decode(self,
                                                             monkeypatch):
        # One liar at agent 0 of n = 9 spoils each view's first k claims;
        # the k claims alike in every view decode them all.
        cfg, m = SplitConfig(5, 9, 8), 16
        rng = np.random.default_rng(43)
        claims = shares_of(0xBEEF, cfg, m, rng)
        views = [(claims[0],) + tuple(claims[1:])]
        views += [(claims[0] ^ (i + 1),) + tuple(claims[1:]) for i in range(8)]

        def refuse(claims, cfg, m):
            raise AssertionError("a view decoded alone")

        monkeypatch.setattr(threshold, "robust_decode", refuse)
        assert decode_views(views, cfg, m) == {
            view: (0xBEEF, 9 - (view[0] != claims[0])) for view in views}

    def test_no_views(self):
        assert decode_views([], SplitConfig(3, 5, 4), 8) == {}


class TestShareEncoding:
    def test_bits_round_trip(self):
        bits = pack((0xAB, 0x01, 0xFF), 8)
        assert bits.bit_length() == 24
        assert unpack(bits, 24, 8) == (0xAB, 0x01, 0xFF)

    def test_element_zero_least_significant(self):
        assert pack((0x1, 0x2), 4) == 0b00100001

    @staticmethod
    def rendered(view, m, w):
        """A report's tokens for one view, through its frame's template."""
        n = len(view)
        cfg = ProtocolConfig(n=n, k=n // 2 + 1, m=m, w=w)
        return json.loads(f"[{protocol._frame(cfg, AdversaryPlan())[-1] % view}]")

    def test_token_format(self):
        assert self.rendered((0, pack((0xAB, 0x01), 8)), 16, 8) == [
            "0:0000", "1:01ab"]
        assert self.rendered((0xA, 0), 4, 4) == ["0:a", "1:0"]

    @pytest.mark.parametrize("w", [4, 8])
    def test_token_matches_element_join(self, w):
        # The token renders the packed claim; this is its per-element
        # reference, element 0 rightmost.
        rng = np.random.default_rng(20 + w)
        for _ in range(200):
            elements = int(rng.integers(1, 9))
            value = tuple(int(v) for v in rng.integers(0, 1 << w, size=elements))
            agent = int(rng.integers(0, 15))
            digits = (w + 3) // 4
            joined = "".join(format(v, f"0{digits}x") for v in reversed(value))
            # The claim at its agent's place in a view of at least two
            # (and at most 15, the agents GF(16) has points for).
            view = (0,) * agent + (pack(value, w),) + (0,) * (agent < 1)
            assert (self.rendered(view, w * elements, w)[agent]
                    == f"{agent}:{joined}")


class TestByteOrder:
    @pytest.mark.parametrize("hexed, w, elements", [
        ("a3", 4, (0x3, 0xA)),
        ("beef", 4, (0xF, 0xE, 0xE, 0xB)),
        ("beef", 8, (0xEF, 0xBE)),
    ], ids=["a3-w4", "beef-w4", "beef-w8"])
    def test_secret_bytes_read_big_endian(self, hexed, w, elements):
        # A secret's bytes, read big-endian, are its packed elements with
        # element 0 least significant; the report renders them back as the
        # same hex, and every agent decodes the same int.
        secret = bytes.fromhex(hexed)
        bits = int.from_bytes(secret, "big")
        assert unpack(bits, 8 * len(secret), w) == elements
        cfg = ProtocolConfig(n=3, k=2, m=8 * len(secret), w=w)
        report = run_protocol(cfg, secret, seed=5)
        assert report.verdict == "proceed"
        assert report.to_dict()["secret"] == hexed
        for agent in report.agents:
            assert agent.loyal
            assert agent.reconstructed == bits
