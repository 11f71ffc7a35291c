"""Per-element scalar references for the packed GF(2^w) kernel.

`split_reference` is the split that evaluates each element's polynomial
with `GF.poly_eval`, reading coefficient d of element e from the w-bit
element e of the d-th drawn term.  `lagrange_weights` is the product
formula for one target's interpolation weights, and `div` the field
division it uses; `on_one_polynomial` checks with them whether one
polynomial fits single-element claims.  `exhaustive_decode` is the
maximal-consistency search over all k-subsets of the claims, one scalar
Lagrange sum per element.  The split and the search hold a share or claim
as its tuple of field elements, one tuple per agent in agent order;
`reference_decode` runs the search on packed claims.  Tests check
`threshold.split`, `threshold._lagrange_rows` and the decoders against
them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from dpvqss.bitvec import random_words
from dpvqss.threshold import (
    FIELDS,
    AmbiguousDecodeError,
    GF,
    ShareIntegrityError,
    SplitConfig,
    pack,
    unpack,
)


def split_reference(
    secret: Sequence[int], cfg: SplitConfig, rng
) -> list[tuple[int, ...]]:
    """Split per-element with uniformly random degree-(k-1) polynomials;
    returns agent i's elements at x = i + 1, in agent order.

    The k-1 random coefficients of every element come from one
    `random_words` draw of k-1 terms, each as wide as the secret.
    """
    gf, w, m = cfg.field, cfg.w, len(secret) * cfg.w
    terms = [unpack(t, m, w) for t in random_words(cfg.k - 1, m, rng)]
    polys = [[e] + [term[i] for term in terms] for i, e in enumerate(secret)]
    return [tuple(gf.poly_eval(p, i + 1) for p in polys) for i in range(cfg.n)]


def div(gf: GF, a: int, b: int) -> int:
    """a / b in gf; raises ZeroDivisionError at b = 0."""
    return gf.mul(a, gf.inv(b))


def lagrange_weights(xs: Sequence[int], x_target: int, gf: GF) -> list[int]:
    """The weights that interpolate at x_target from the nodes xs: the
    product of (x_target - x_j) / (x_i - x_j) over j != i, per node i."""
    weights = []
    for xi in xs:
        num, den = 1, 1
        for xj in xs:
            if xj == xi:
                continue
            num = gf.mul(num, x_target ^ xj)
            den = gf.mul(den, xi ^ xj)
        weights.append(div(gf, num, den))
    return weights


def on_one_polynomial(claims: Sequence[int], cfg: SplitConfig, gf: GF) -> bool:
    """Whether one polynomial of degree < k fits every one of the n
    single-element claims, claim i at x = i + 1: the one through the first
    k fits the rest."""
    xs = list(range(1, cfg.k + 1))
    for x, claim in zip(range(cfg.k + 1, cfg.n + 1), claims[cfg.k:]):
        value = 0
        for weight, y in zip(lagrange_weights(xs, x, gf), claims):
            value ^= gf.mul(weight, y)
        if value != claim:
            return False
    return True


@lru_cache(maxsize=8192)
def _cached_weights(w: int, xs: tuple[int, ...], x_target: int) -> tuple[int, ...]:
    return tuple(lagrange_weights(xs, x_target, FIELDS[w]))


def exhaustive_decode(
    claimed: Sequence[tuple[int, ...]], cfg: SplitConfig
) -> tuple[tuple[int, ...], int]:
    """Maximal-consistency decoding by trying every k-subset of the claims,
    claim i agent i's elements."""
    if len(claimed) != cfg.n:
        raise ShareIntegrityError(
            f"expected exactly one claim per agent ({cfg.n}), got {len(claimed)}"
        )
    if len({len(c) for c in claimed}) != 1:
        raise ShareIntegrityError("claims disagree on element count")
    gf = cfg.field
    n_elems = len(claimed[0])
    all_xs = list(range(1, cfg.n + 1))

    best_support = -1
    best_secrets: dict[tuple[int, ...], int] = {}
    mul = gf.mul
    for subset in combinations(range(cfg.n), cfg.k):
        xs = tuple(all_xs[i] for i in subset)
        subset_values = [claimed[i] for i in subset]

        def value_at(x, e):
            acc = 0
            for w_i, vals in zip(_cached_weights(cfg.w, xs, x), subset_values):
                acc ^= mul(w_i, vals[e])
            return acc

        support = 0
        for x, claim in zip(all_xs, claimed):
            if all(value_at(x, e) == claim[e] for e in range(n_elems)):
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


def reference_decode(
    view: Sequence[int], cfg: SplitConfig, m: int
) -> tuple[int | None, int]:
    """`exhaustive_decode` of a view of packed m-bit claims: the packed
    secret and its support, or None and the tied support."""
    try:
        secret, support = exhaustive_decode(
            [unpack(c, m, cfg.w) for c in view], cfg)
    except AmbiguousDecodeError as err:
        return None, err.support
    return pack(secret, cfg.w), support
