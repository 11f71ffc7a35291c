"""Per-element scalar references for the packed GF(2^w) kernel.

`split_reference` is the split that evaluates each element's polynomial
with `GF.poly_eval`, drawing one coefficient row per element.
`exhaustive_decode` is the maximal-consistency search over all k-subsets of
the claims, one scalar Lagrange sum per element.  Both hold a share or claim
as its tuple of field elements, one tuple per agent in agent order.  Tests
check `threshold.split` and `threshold.robust_decode` against them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from dpvqss.threshold import (
    FIELDS,
    AmbiguousDecodeError,
    ShareIntegrityError,
    SplitConfig,
    _lagrange_weights,
)


def split_reference(
    secret: Sequence[int], cfg: SplitConfig, rng
) -> list[tuple[int, ...]]:
    """Split per-element with uniformly random degree-(k-1) polynomials;
    returns agent i's elements at x = i + 1, in agent order."""
    gf = cfg.field
    polys = [
        [e] + [int(c) for c in rng.integers(0, gf.order, size=cfg.k - 1)]
        for e in secret
    ]
    return [tuple(gf.poly_eval(p, i + 1) for p in polys) for i in range(cfg.n)]


@lru_cache(maxsize=8192)
def _cached_weights(w: int, xs: tuple[int, ...], x_target: int) -> tuple[int, ...]:
    return tuple(_lagrange_weights(xs, x_target, FIELDS[w]))


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
