"""(k, n) threshold sharing over GF(2^w) with robust majority decoding.

The secret and every share are m-bit strings, vectors of m / w field
elements; agent i's share evaluates per-element random polynomials at
x = i + 1.  Each is one packed int, element 0 in its least significant w
bits, so a secret's bytes read big-endian are already packed.  `split`
returns the aggregated n*m-bit word, agent i's share in segment i (see
`bitvec`); `robust_decode` takes the n claimed shares (claims), one per
agent in agent order, `reconstruct` takes any k or more of them keyed by
agent, and both return the secret; `decode_views` decodes many claim lists
(views) at once.  How a report renders a claim is `protocol`'s alone.

Multiplying each w-bit element of a claim by one field constant maps each
byte through a 256-entry table, so one term of a polynomial (`split`) or
Lagrange (`GF.combine`) sum over a whole claim is one `bytes.translate`.
The cached weight rows (`_vandermonde`, `_lagrange_rows`, `_fit`) hold
those tables already resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import eq
from typing import Collection, Mapping, Sequence

from .bitvec import cut, join, random_words

# Published reduction polynomials: x^4+x+1 and x^8+x^4+x^3+x+1, and a
# primitive element of each field: x, and x+1, since x has order 51 mod 0x11B.
REDUCTION_POLY = {4: 0x13, 8: 0x11B}
GENERATOR = {4: 2, 8: 3}


class InsufficientSharesError(ValueError):
    """Fewer than k claims supplied."""


class ShareIntegrityError(ValueError):
    """Claims of the wrong count, agents or width supplied."""


class AmbiguousDecodeError(Exception):
    """Maximal-consistency decoding found a tie between distinct secrets."""

    def __init__(self, support: int, candidates: list[int]):
        self.support = support
        self.candidates = candidates
        super().__init__(
            f"{len(candidates)} distinct candidates tied at support {support}"
        )


class GF:
    """GF(2^w) arithmetic via log/exp tables of a primitive element's powers."""

    def __init__(self, width: int, poly: int, generator: int):
        self.width = width
        self.order = 1 << width
        self.poly = poly
        self.exp = [0] * (2 * (self.order - 1))
        self.log = [0] * self.order
        x = 1
        for i in range(self.order - 1):
            self.exp[i] = x
            self.log[x] = i
            x = self._slow_mul(x, generator)
        for i in range(self.order - 1, 2 * (self.order - 1)):
            self.exp[i] = self.exp[i - (self.order - 1)]
        self.tables = _ScaleTables(self)

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

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self.exp[self.order - 1 - self.log[a]]

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate sum(coeffs[d] * x^d) by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc

    def resolve(self, rows: Sequence[Sequence[int]]) -> tuple[tuple[bytes, ...], ...]:
        """Rows of weights as rows of their scale tables, for `combine`."""
        return tuple(tuple(self.tables[c] for c in row) for row in rows)

    def combine(self, rows: Sequence[Sequence[bytes]],
                packed: Sequence[int]) -> list[int]:
        """Per row of resolved weights, the XOR over i of row[i] times every
        w-bit element of packed[i].

        Elements never straddle a byte (w is 4 or 8), so scaling a packed
        int by a constant maps each of its bytes through one table, the
        weight's entry in the row.
        """
        size = (max(packed).bit_length() + 7) >> 3
        blocks = [p.to_bytes(size, "little") for p in packed]
        out = []
        for row in rows:
            acc = 0
            for table, block in zip(row, blocks):
                acc ^= int.from_bytes(block.translate(table), "little")
            out.append(acc)
        return out


class _ScaleTables(dict):
    """Per field constant c, the 256-byte map that multiplies each w-bit
    element of a byte by c; built on first use."""

    def __init__(self, gf: GF):
        super().__init__()
        self.gf = gf

    def __missing__(self, c: int) -> bytes:
        exp, log = self.gf.exp, self.gf.log
        row = [0] * self.gf.order
        if c:
            row[1:] = [exp[log[c] + log[v]] for v in range(1, self.gf.order)]
        if self.gf.width == 8:
            table = bytes(row)
        else:
            table = bytes([row[b & 15] | row[b >> 4] << 4 for b in range(256)])
        self[c] = table
        return table


def pack(elements: Sequence[int], w: int) -> int:
    """Field elements as one int, element e in bits e*w .. e*w+w-1."""
    acc = 0
    for e, v in enumerate(elements):
        acc |= v << (e * w)
    return acc


def unpack(bits: int, m: int, w: int) -> tuple[int, ...]:
    """The m / w field elements of an m-bit int, element 0 first."""
    mask = (1 << w) - 1
    return tuple(bits >> shift & mask for shift in range(0, m, w))


FIELDS = {w: GF(w, poly, GENERATOR[w]) for w, poly in REDUCTION_POLY.items()}


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


def split(secret: int, cfg: SplitConfig, m: int, rng) -> int:
    """Split an m-bit secret with one uniformly random degree-(k-1)
    polynomial per w-bit element; returns the aggregated n*m-bit word,
    agent i's share in segment i."""
    if m < 1 or m % cfg.w:
        raise ValueError(
            f"secret width m={m} is not a positive multiple of w={cfg.w}"
        )
    if not 0 <= secret < 1 << m:
        raise ValueError(f"secret must be an {m}-bit int")
    # Term d packs coefficient d of every element's polynomial, so the k-1
    # random terms are uniform m-bit ints: one raw draw.  Segment x - 1
    # gets x^d times term d, one translate per agent, in whole bytes, save
    # term 0, the secret, which has weight 1 at every agent: it is repeated.
    size = (m + 7) // 8
    word = int.from_bytes(secret.to_bytes(size, "little") * cfg.n, "little")
    for term, tables in zip(random_words(cfg.k - 1, m, rng),
                            _vandermonde(cfg.w, cfg.n, cfg.k)):
        block = term.to_bytes(size, "little")
        word ^= int.from_bytes(
            b"".join([block.translate(table) for table in tables]), "little")
    # A share that ends mid-byte moves from its whole bytes to its m bits.
    return join(cut(word, cfg.n, 8 * size), m) if m % 8 else word


@lru_cache(maxsize=None)
def _vandermonde(w: int, n: int, k: int) -> tuple[tuple[bytes, ...], ...]:
    """Rows x^1 .. x^(k-1) in GF(2^w) for x = 1 .. n, resolved."""
    gf = FIELDS[w]
    return gf.resolve(
        [gf.exp[gf.log[x] * d % (gf.order - 1)] for x in range(1, n + 1)]
        for d in range(1, k)
    )


@lru_cache(maxsize=8192)
def _lagrange_rows(w: int, xs: tuple[int, ...],
                   targets: tuple[int, ...]) -> tuple[tuple[bytes, ...], ...]:
    """Per target, the weights that interpolate at it from the nodes xs,
    resolved.  Barycentric form: weight i at x is l(x) v_i / (x - x_i), for
    l(x) the product of x - x_j over all nodes and 1 / v_i that over the
    nodes j != i at x_i, found once, so a target costs O(k)."""
    gf = FIELDS[w]
    exp, log, q = gf.exp, gf.log, gf.order - 1
    log_v = [-sum(log[xi ^ xj] for xj in xs if xj != xi) % q for xi in xs]

    def row(x):
        log_l = sum(log[x ^ xj] for xj in xs)
        return [exp[(log_l + lv - log[x ^ xi]) % q]
                for xi, lv in zip(xs, log_v)]
    return gf.resolve([int(xi == x) for xi in xs] if x in xs else row(x)
                      for x in targets)


def reconstruct(claims: Mapping[int, int], cfg: SplitConfig, m: int) -> int:
    """Lagrange-interpolate at x = 0 from the m-bit claims, keyed by agent,
    of the k lowest agents; returns the secret."""
    if len(claims) < cfg.k:
        raise InsufficientSharesError(
            f"got {len(claims)} claims, need at least k={cfg.k}"
        )
    if any(not 0 <= j < cfg.n for j in claims):
        raise ShareIntegrityError(
            f"agents {sorted(claims)} are not all in 0..{cfg.n - 1}"
        )
    _check_width(claims.values(), cfg, m)
    used = sorted(claims)[: cfg.k]
    rows = _lagrange_rows(cfg.w, tuple(j + 1 for j in used), (0,))
    (secret,) = cfg.field.combine(rows, [claims[j] for j in used])
    return secret


def _check_views(views: Sequence[Sequence[int]], cfg: SplitConfig, m: int):
    """Check that every view holds exactly one m-bit claim per agent."""
    if not views:
        return
    wrong = set(map(len, views)) - {cfg.n}
    if wrong:
        raise ShareIntegrityError(
            f"expected exactly one claim per agent ({cfg.n}), got {min(wrong)}"
        )
    _check_width([min(map(min, views)), max(map(max, views))], cfg, m)


def _check_width(claims: Collection[int], cfg: SplitConfig, m: int):
    """Check that m is a positive multiple of w and every claim m bits."""
    if m < 1 or m % cfg.w:
        raise ShareIntegrityError(
            f"claim width m={m} is not a positive multiple of w={cfg.w}"
        )
    if min(claims) < 0 or max(claims) >> m:
        raise ShareIntegrityError(f"claims must be {m}-bit ints")


def robust_decode(
    claims: Sequence[int], cfg: SplitConfig, m: int
) -> tuple[int, int]:
    """Decode n claimed m-bit shares, claim j agent j's, by the
    maximal-consistency rule.

    Every k-subset defines a candidate polynomial vector; the winner is the
    candidate consistent with the most claims (its support).  Unique and
    correct whenever the number of false claims t satisfies
    t <= floor((n-k)/2).  Ties between distinct candidate secrets raise
    AmbiguousDecodeError.  Returns the m-bit secret and the support.

    The result equals that of the exhaustive search over all C(n, k)
    subsets, which runs only as the last of three steps.  With
    r = floor((n-k)/2), two distinct candidates agree on at most k-1 claims,
    so a candidate with support >= n - r beats every other one:

    1. Interpolate from the first k claims; return if the support is at
       least n - r.
    2. Otherwise decode each field element by Berlekamp-Welch with r errors
       (a linear solve and one polynomial division).  If the decoded
       polynomials miss at most r claims in all, return them with support
       n minus the missed count.
    3. Otherwise run the exhaustive search.
    """
    _check_views((claims,), cfg, m)
    n, k, w, gf = cfg.n, cfg.k, cfg.w, cfg.field
    radius = (n - k) // 2
    secret, (support,) = _candidate((claims,), tuple(range(k)), cfg)
    if support >= n - radius:
        return secret, support

    xs = range(1, n + 1)
    columns = [unpack(c, m, w) for c in claims]
    elements = []
    missed: set[int] = set()
    for e in range(m // w):
        ys = [col[e] for col in columns]
        poly = _berlekamp_welch(xs, ys, k, radius, gf)
        if poly is None:
            break
        missed.update(
            i for i, y in enumerate(ys) if gf.poly_eval(poly, i + 1) != y
        )
        if len(missed) > radius:
            break
        elements.append(poly[0])
    else:
        return pack(elements, w), n - len(missed)

    return _exhaustive_decode(claims, cfg)


def decode_views(views: Sequence[tuple[int, ...]], cfg: SplitConfig,
                 m: int) -> dict[tuple[int, ...], tuple[int | None, int]]:
    """`robust_decode` of each view (n claims), keyed by the view; an
    ambiguous view maps to (None, its tied support).  A candidate with
    support >= n - r is what `robust_decode` returns, whichever k claims it
    came from (see there), so one interpolation from the first k positions
    alike in every view decodes each view it fits that well; only the
    others decode alone.  Every view's count and width is checked in one
    pass, and every view is scored against one interpolation.
    """
    _check_views(views, cfg, m)
    decoded = {}
    agreed = [j for j, column in enumerate(zip(*views))
              if column.count(column[0]) == len(column)]
    if len(agreed) >= cfg.k:
        secret, supports = _candidate(views, tuple(agreed[:cfg.k]), cfg)
        for view, support in zip(views, supports):
            if support >= cfg.n - (cfg.n - cfg.k) // 2:
                decoded[view] = secret, support
    for view in views:
        if view not in decoded:
            try:
                decoded[view] = robust_decode(view, cfg, m)
            except AmbiguousDecodeError as err:
                decoded[view] = None, err.support
    return decoded


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


def _candidate(views: Sequence[Sequence[int]], subset: tuple[int, ...],
               cfg: SplitConfig) -> tuple[int, list[int]]:
    """Interpolate from the claims of the agents in `subset` (k of them,
    alike in every view); returns the secret and, per view, the number of
    its claims the polynomials fit."""
    others, rows = _fit(cfg, subset)
    *predicted, secret = cfg.field.combine(rows, [views[0][i] for i in subset])
    return secret, [cfg.k + sum(map(eq, predicted, map(view.__getitem__, others)))
                    for view in views]


@lru_cache(maxsize=8192)
def _fit(cfg: SplitConfig, subset: tuple[int, ...]):
    """The agents outside `subset` (none at k = n) and the resolved rows
    that interpolate their claims, then the secret, from the subset's."""
    others = tuple(j for j in range(cfg.n) if j not in subset)
    return others, _lagrange_rows(cfg.w, tuple(i + 1 for i in subset),
                                  (*(j + 1 for j in others), 0))


def _exhaustive_decode(claims: Sequence[int], cfg: SplitConfig) -> tuple[int, int]:
    """Maximal-consistency decoding by trying every k-subset of the claims:
    the fallback of `robust_decode` past the unique-decoding radius."""
    best_support = -1
    best_secrets: set[int] = set()
    for subset in combinations(range(cfg.n), cfg.k):
        secret, (support,) = _candidate((claims,), subset, cfg)
        if support == cfg.n:
            # Consistent with every claim: nothing can beat it, and any
            # other full-support subset interpolates the same polynomial.
            return secret, support
        if support > best_support:
            best_support = support
            best_secrets = {secret}
        elif support == best_support:
            best_secrets.add(secret)

    candidates = sorted(best_secrets)
    if len(candidates) > 1:
        raise AmbiguousDecodeError(best_support, candidates)
    return candidates[0], best_support
