"""(k, n) threshold sharing over GF(2^w) with robust majority decoding.

Shares are vectors of field elements; the share for agent i is the
evaluation of per-element random polynomials at x = i + 1, so shares of
one secret all have the same bit length m = w * element_count.  Element 0
sits in the least significant w bits of the share's bit form, an m-bit int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

# Published reduction polynomials: x^4+x+1 and x^8+x^4+x^3+x+1.
REDUCTION_POLY = {4: 0x13, 8: 0x11B}


class InsufficientSharesError(ValueError):
    """Fewer than k shares supplied."""


class ShareIntegrityError(ValueError):
    """Duplicate or malformed shares supplied."""


class AmbiguousDecodeError(Exception):
    """Maximal-consistency decoding found a tie between distinct secrets."""

    def __init__(self, support: int, candidates: list[tuple[int, ...]]):
        self.support = support
        self.candidates = candidates
        super().__init__(
            f"{len(candidates)} distinct candidates tied at support {support}"
        )


class GF:
    """GF(2^w) arithmetic via log/exp tables over a fixed reduction polynomial."""

    def __init__(self, width: int, poly: int):
        self.width = width
        self.order = 1 << width
        self.poly = poly
        self.exp = [0] * (2 * (self.order - 1))
        self.log = [0] * self.order
        g = self._find_generator()
        x = 1
        for i in range(self.order - 1):
            self.exp[i] = x
            self.log[x] = i
            x = self._slow_mul(x, g)
        for i in range(self.order - 1, 2 * (self.order - 1)):
            self.exp[i] = self.exp[i - (self.order - 1)]

    def _slow_mul(self, a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            if a & self.order:
                a ^= self.poly
            b >>= 1
        return acc

    def _find_generator(self) -> int:
        for g in range(2, self.order):
            seen = set()
            x = 1
            for _ in range(self.order - 1):
                seen.add(x)
                x = self._slow_mul(x, g)
            if len(seen) == self.order - 1:
                return g
        raise ValueError(f"no generator found for polynomial {self.poly:#x}")

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self.exp[self.order - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate sum(coeffs[d] * x^d) by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc


FIELDS = {w: GF(w, poly) for w, poly in REDUCTION_POLY.items()}


@dataclass(frozen=True)
class SplitConfig:
    k: int
    n: int
    w: int = 8

    def __post_init__(self):
        if self.w not in FIELDS:
            raise ValueError(f"unsupported field width {self.w}, pick one of {sorted(FIELDS)}")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"need 2 <= k <= n, got k={self.k}, n={self.n}")
        if 2 * self.k <= self.n:
            raise ValueError(f"need k > n/2, got k={self.k}, n={self.n}")
        if self.n >= 1 << self.w:
            raise ValueError(
                f"field GF(2^{self.w}) too small for {self.n} evaluation points"
            )

    @property
    def field(self) -> GF:
        return FIELDS[self.w]


@dataclass(frozen=True)
class Share:
    """One agent's share: field elements evaluated at x = agent_index + 1."""

    agent_index: int
    value: tuple[int, ...]
    width: int

    def __post_init__(self):
        if self.agent_index < 0:
            raise ValueError("agent index must be nonnegative")
        if not self.value:
            raise ValueError("share carries no elements")
        if any(not 0 <= v < (1 << self.width) for v in self.value):
            raise ValueError("share element out of field range")

    @property
    def x(self) -> int:
        return self.agent_index + 1

    @property
    def bit_length(self) -> int:
        return self.width * len(self.value)

    def to_bits(self) -> int:
        """The elements packed into one bit_length-bit int."""
        acc = 0
        for e, v in enumerate(self.value):
            acc |= v << (e * self.width)
        return acc

    @classmethod
    def from_bits(cls, bits: int, length: int, agent_index: int,
                  width: int) -> "Share":
        """Unpack a length-bit int into length / width elements."""
        if length % width:
            raise ValueError(f"bit length {length} not a multiple of w={width}")
        mask = (1 << width) - 1
        value = tuple((bits >> (e * width)) & mask for e in range(length // width))
        return cls(agent_index, value, width)

    def token(self) -> str:
        """Serialized form "index:hex-value" used in JSON reports.

        Each element fills whole hex digits (w is 4 or 8), so the bit form in
        hex reads element 0 rightmost.
        """
        digits = (self.width + 3) // 4
        return f"{self.agent_index}:" + format(
            self.to_bits(), f"0{digits * len(self.value)}x"
        )


def split(secret: Sequence[int], cfg: SplitConfig, rng) -> list[Share]:
    """Split per-element with uniformly random degree-(k-1) polynomials."""
    if not secret:
        raise ValueError("secret must be nonempty")
    gf = cfg.field
    if any(not 0 <= e < gf.order for e in secret):
        raise ValueError(f"secret elements must lie in [0, {gf.order})")
    polys = [
        [e] + [int(c) for c in rng.integers(0, gf.order, size=cfg.k - 1)]
        for e in secret
    ]
    return [
        Share(i, tuple(gf.poly_eval(p, i + 1) for p in polys), cfg.w)
        for i in range(cfg.n)
    ]


def _lagrange_weights(xs: Sequence[int], x_target: int, gf: GF) -> list[int]:
    weights = []
    for xi in xs:
        num, den = 1, 1
        for xj in xs:
            if xj == xi:
                continue
            num = gf.mul(num, x_target ^ xj)
            den = gf.mul(den, xi ^ xj)
        weights.append(gf.div(num, den))
    return weights


@lru_cache(maxsize=8192)
def _cached_weights(w: int, xs: tuple[int, ...], x_target: int) -> tuple[int, ...]:
    return tuple(_lagrange_weights(xs, x_target, FIELDS[w]))


def _check_distinct(shares: Sequence[Share]):
    indices = [s.agent_index for s in shares]
    if len(set(indices)) != len(indices):
        raise ShareIntegrityError(f"duplicate agent indices in {sorted(indices)}")
    widths = {s.width for s in shares}
    counts = {len(s.value) for s in shares}
    if len(widths) != 1 or len(counts) != 1:
        raise ShareIntegrityError("shares disagree on width or element count")


def reconstruct(shares: Sequence[Share], cfg: SplitConfig) -> tuple[int, ...]:
    """Lagrange-interpolate each element at x = 0 from any k shares."""
    if len(shares) < cfg.k:
        raise InsufficientSharesError(
            f"got {len(shares)} shares, need at least k={cfg.k}"
        )
    _check_distinct(shares)
    used = sorted(shares, key=lambda s: s.agent_index)[: cfg.k]
    gf = cfg.field
    weights = _cached_weights(cfg.w, tuple(s.x for s in used), 0)
    n_elems = len(used[0].value)
    secret = []
    for e in range(n_elems):
        acc = 0
        for w_i, s in zip(weights, used):
            acc ^= gf.mul(w_i, s.value[e])
        secret.append(acc)
    return tuple(secret)


def _roster(claimed: Sequence[Share], cfg: SplitConfig) -> list[Share]:
    """Check that there is exactly one share per agent; return them in index order."""
    if len(claimed) != cfg.n:
        raise ShareIntegrityError(
            f"expected exactly one share per agent ({cfg.n}), got {len(claimed)}"
        )
    _check_distinct(claimed)
    if sorted(s.agent_index for s in claimed) != list(range(cfg.n)):
        raise ShareIntegrityError("agent indices must cover 0..n-1")
    return sorted(claimed, key=lambda s: s.agent_index)


def robust_decode(
    claimed: Sequence[Share], cfg: SplitConfig
) -> tuple[tuple[int, ...], int]:
    """Decode n claimed shares by the maximal-consistency rule.

    Every k-subset defines a candidate polynomial vector; the winner is the
    candidate consistent with the most claimed shares (its support).  Unique
    and correct whenever the number of false shares t satisfies
    t <= floor((n-k)/2).  Ties between distinct candidate secrets raise
    AmbiguousDecodeError.

    The result equals that of the exhaustive search over all C(n, k)
    subsets, which runs only as the last of three steps.  With
    r = floor((n-k)/2), two distinct candidates agree on at most k-1 shares,
    so a candidate with support >= n - r beats every other one:

    1. Interpolate from the first k shares; return if the support is at
       least n - r.
    2. Otherwise decode each field element by Berlekamp-Welch with r errors
       (a linear solve and one polynomial division).  If the decoded
       polynomials miss at most r shares in all, return them with support
       n minus the missed count.
    3. Otherwise run the exhaustive search.
    """
    ordered = _roster(claimed, cfg)
    n, k, gf = cfg.n, cfg.k, cfg.field
    radius = (n - k) // 2
    n_elems = len(ordered[0].value)
    mul = gf.mul

    xs = tuple(s.x for s in ordered[:k])
    first_values = [s.value for s in ordered[:k]]

    def value_at(weights, e):
        acc = 0
        for w_i, vals in zip(weights, first_values):
            acc ^= mul(w_i, vals[e])
        return acc

    # The first k shares are the interpolation nodes, so they always agree.
    misses = 0
    for share in ordered[k:]:
        weights = _cached_weights(cfg.w, xs, share.x)
        if any(value_at(weights, e) != share.value[e] for e in range(n_elems)):
            misses += 1
            if misses > radius:
                break
    else:
        weights = _cached_weights(cfg.w, xs, 0)
        return tuple(value_at(weights, e) for e in range(n_elems)), n - misses

    all_xs = [s.x for s in ordered]
    secret = []
    missed: set[int] = set()
    for e in range(n_elems):
        poly = _berlekamp_welch(all_xs, [s.value[e] for s in ordered], k, radius, gf)
        if poly is None:
            break
        missed.update(
            i for i, s in enumerate(ordered) if gf.poly_eval(poly, s.x) != s.value[e]
        )
        if len(missed) > radius:
            break
        secret.append(poly[0])
    else:
        return tuple(secret), n - len(missed)

    return _exhaustive_decode(ordered, cfg)


def _berlekamp_welch(
    xs: Sequence[int], ys: Sequence[int], k: int, t: int, gf: GF
) -> list[int] | None:
    """Coefficients of a degree < k polynomial P with P(x_i) = y_i at all but
    at most t points, or None when the key equation shows there is none.

    Solves Q(x_i) = y_i * E(x_i) for Q of degree < k + t and monic E of
    degree t, then divides: P = Q / E.  Callers must still count the points
    P misses, because a solution can exist while more than t points are off.
    """
    n_q = k + t
    cols = n_q + t
    rows = []
    for x, y in zip(xs, ys):
        powers = [1]
        for _ in range(n_q - 1):
            powers.append(gf.mul(powers[-1], x))
        rows.append(
            powers + [gf.mul(y, p) for p in powers[:t]] + [gf.mul(y, powers[t])]
        )
    solution = _solve(rows, cols, gf)
    if solution is None:
        return None
    q = solution[:n_q]
    err_locator = solution[n_q:] + [1]
    # Long division by the monic error locator; P is the quotient.
    quotient = [0] * k
    for d in range(n_q - 1, t - 1, -1):
        c = q[d]
        quotient[d - t] = c
        if c:
            for j in range(t + 1):
                q[d - t + j] ^= gf.mul(c, err_locator[j])
    if any(q[:t]):
        return None
    return quotient


def _solve(rows: list[list[int]], cols: int, gf: GF) -> list[int] | None:
    """One solution of the augmented system over GF(2^w), free unknowns set
    to 0, or None if it is inconsistent.  Reduces `rows` in place."""
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = gf.inv(rows[r][c])
        pivot_row = [gf.mul(inv, v) for v in rows[r]]
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                for j in range(c, cols + 1):
                    row[j] ^= gf.mul(f, pivot_row[j])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(row[cols] for row in rows[r:]):
        return None
    solution = [0] * cols
    for i, c in enumerate(pivots):
        solution[c] = rows[i][cols]
    return solution


def _exhaustive_decode(
    claimed: Sequence[Share], cfg: SplitConfig
) -> tuple[tuple[int, ...], int]:
    """Maximal-consistency decoding by trying every k-subset of the shares.

    The fallback of `robust_decode` past the unique-decoding radius, and the
    reference that its fast steps are tested against.
    """
    ordered = _roster(claimed, cfg)
    gf = cfg.field
    n_elems = len(ordered[0].value)
    all_xs = [s.x for s in ordered]

    best_support = -1
    best_secrets: dict[tuple[int, ...], int] = {}
    mul = gf.mul
    for subset in combinations(range(cfg.n), cfg.k):
        xs = tuple(all_xs[i] for i in subset)
        subset_values = [ordered[i].value for i in subset]

        def value_at(x, e):
            acc = 0
            for w_i, vals in zip(_cached_weights(cfg.w, xs, x), subset_values):
                acc ^= mul(w_i, vals[e])
            return acc

        support = 0
        for share in ordered:
            if all(value_at(share.x, e) == share.value[e] for e in range(n_elems)):
                support += 1
        secret = tuple(value_at(0, e) for e in range(n_elems))
        if support == cfg.n:
            # Consistent with every claimed share: nothing can beat it, and
            # any other full-support subset interpolates the same polynomial.
            return secret, support
        if support > best_support:
            best_support = support
            best_secrets = {secret: support}
        elif support == best_support:
            best_secrets.setdefault(secret, support)

    if len(best_secrets) > 1:
        raise AmbiguousDecodeError(best_support, sorted(best_secrets))
    (secret,) = best_secrets
    return secret, best_support


def bytes_to_elements(data: bytes, w: int) -> tuple[int, ...]:
    """Encode a byte string as field elements, element 0 least significant.

    The byte string is read big-endian (data[0] most significant), matching
    the usual hex rendering of secrets.
    """
    if w == 8:
        return tuple(reversed(data))
    if w == 4:
        out = []
        for byte in reversed(data):
            out.append(byte & 0xF)
            out.append(byte >> 4)
        return tuple(out)
    raise ValueError(f"unsupported width {w}")


def elements_to_bytes(elements: Sequence[int], w: int) -> bytes:
    if w == 8:
        return bytes(reversed(elements))
    if w == 4:
        if len(elements) % 2:
            raise ValueError("odd nibble count cannot round-trip to bytes")
        return bytes(
            elements[i] | (elements[i + 1] << 4)
            for i in range(len(elements) - 2, -1, -2)
        )
    raise ValueError(f"unsupported width {w}")
