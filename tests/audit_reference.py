"""Brute-force leakage audit: the toy-size reference for `leakage_audit`.

It enumerates every assignment of the measured register vectors and Eve's
outcome vectors, so it reaches only a few bits: (n, m) = (2, 2) or (3, 1)
in phases 1 and 2.  It has its own model of the tap physics, independent of
the sampler's read law, and does not model random-basis interception.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from dpvqss.adversary import EveStrategy
from dpvqss.bitvec import CapacityError

# The audit enumerates every free bit exactly; cap the exponent.
AUDIT_BIT_BOUND = 20


def _iter_assignments(widths: list[int], constraint: int | None):
    """Yield tuples of variable values, each of the given bit width.

    With a constraint, the assignment is uniform over solutions of
    XOR(vars) = constraint (the last variable is solved); otherwise all
    variables are free and uniform.
    """
    free = widths[:-1] if constraint is not None else widths
    if sum(free) > AUDIT_BIT_BOUND:
        raise CapacityError(
            f"audit would enumerate 2^{sum(free)} assignments "
            f"(bound 2^{AUDIT_BIT_BOUND})"
        )
    for values in product(*(range(1 << w) for w in free)):
        if constraint is None:
            yield values
        else:
            acc = constraint
            for v in values:
                acc ^= v
            yield values + (acc,)


def _mask_out_segment(value: int, seg: int, m: int, n: int) -> int:
    """Drop segment `seg` from an n*m-bit value, keeping the rest packed."""
    low = value & ((1 << (seg * m)) - 1)
    high = value >> ((seg + 1) * m)
    return low | (high << (seg * m))


def view_distribution(
    strategy: EveStrategy, n: int, m: int, s: int, phase: int
) -> dict[tuple, Fraction]:
    """Exact distribution of Eve's view for one phase under the n*m-bit
    secret s.

    Variables are the measured register vectors (agents then the source) plus
    one outcome vector per entangling tap, or one shared by all measuring
    taps.  What Eve sees:

    - phase 1: every classical payload of the fan-out round, i.e. all of the
      source's vector and every agent vector with its own segment hidden;
    - phase 2: the agents' reported vectors (the source's stays private);
    - phase 3: both exchanged vectors of the audited pair (agents 0 and 1).
    """
    if phase not in (1, 2, 3):
        raise ValueError(f"unknown phase {phase}")
    kind = strategy.kind if strategy.is_active_in(phase) else "none"
    if kind == "pns":  # a perfect extra entangled copy
        kind = "entangle_measure"
    if kind == "intercept_resend" and strategy.basis == "random":
        raise ValueError("exact audit does not model random-basis interception")

    if phase == 3:
        width = m
        n_regs = 2
        constraint = (s ^ s >> m) & ((1 << m) - 1)
        channels = [0, 1]
    else:
        width = n * m
        n_regs = n + 1
        if not 0 <= s < 1 << width:
            raise ValueError(f"secret {s:#x} does not fit in n*m bits")
        constraint = s
        channels = list(range(n))
    if strategy.channel is not None:
        channels = [ch for ch in channels if ch == strategy.channel]

    n_eve = len(channels) if kind != "none" else 0
    # Entangling ancillas join the XOR chain, one outcome vector each.  The
    # first measuring tap collapses every tuple instead: the registers go
    # free and uniform, and all tapped channels read one shared vector.
    measuring = n_eve > 0 and kind in ("measure_resend", "intercept_resend")
    if measuring:
        widths = [width] * (n_regs + 1)
        constraint_arg = None
    else:
        widths = [width] * (n_regs + n_eve)
        constraint_arg = constraint

    total_free = len(widths) - (1 if constraint_arg is not None else 0)
    dist: dict[tuple, Fraction] = {}
    weight = Fraction(1, 1 << (total_free * width))
    for values in _iter_assignments(widths, constraint_arg):
        regs = values[:n_regs]  # agents 0..n-1 (or the pair), then the source
        eve_vals = values[n_regs:] * n_eve if measuring else values[n_regs:]
        if phase == 1:
            a = regs[-1]
            visible = [a] + [
                _mask_out_segment(regs[j], j, m, n) for j in range(n)
            ]
        elif phase == 2:
            visible = list(regs[:-1])
        else:
            visible = list(regs)
        key = tuple(visible) + tuple(eve_vals)
        dist[key] = dist.get(key, Fraction(0)) + weight
    return dist


def reference_audit(
    strategy: EveStrategy, cfg, s: int, s_prime: int, phase: int
) -> Fraction:
    """Exact total variation distance between Eve's views under two n*m-bit
    secrets.

    `cfg` needs only n and m attributes (AuditSize works).  A result of 0
    means the strategy reveals nothing that distinguishes the two secrets.
    """
    da = view_distribution(strategy, cfg.n, cfg.m, s, phase)
    db = view_distribution(strategy, cfg.n, cfg.m, s_prime, phase)
    keys = set(da) | set(db)
    return sum(
        (abs(da.get(k, Fraction(0)) - db.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    ) / 2
