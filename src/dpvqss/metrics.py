"""Qubit-efficiency ratios (exact rationals) and empirical run statistics."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence


def eta1(n: int, m: int) -> Fraction:
    """Distribution-phase efficiency: n*m useful bits over (n+1)*n*m + 1 qubits."""
    _check_sizes(n, m)
    return Fraction(n * m, (n + 1) * n * m + 1)


def eta2(n: int, m: int) -> Fraction:
    """Verification-phase efficiency: n*m useful bits over (n+1)*n*m + n qubits."""
    _check_sizes(n, m)
    return Fraction(n * m, (n + 1) * n * m + n)


def eta3(m: int) -> Fraction:
    """Consolidation-phase efficiency: 2m bits over 2(m+1) qubits per pair."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return Fraction(2 * m, 2 * (m + 1))


def _check_sizes(n: int, m: int):
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")


def efficiency_report(n: int, m: int) -> dict:
    """eta1..eta3 of size (n, m), each rendered as {"num", "den",
    "decimal"}; a fresh dict per call."""
    def render(f: Fraction) -> dict:
        return {"num": f.numerator, "den": f.denominator,
                "decimal": f"{float(f):.6f}"}

    return {"eta1": render(eta1(n, m)), "eta2": render(eta2(n, m)),
            "eta3": render(eta3(m))}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    z = 1.96
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * ((phat * (1 - phat) / trials + z * z / (4 * trials * trials)) ** 0.5) / denom
    return max(0.0, center - half), min(1.0, center + half)


class MixedConfigError(ValueError):
    """empirical_stats refuses batches that mix configurations."""


def empirical_stats(reports: Sequence[dict]) -> dict:
    """Aggregate a batch of uniform-config run reports.

    Rates carry Wilson 95% intervals.  Recovery and ambiguity rates are
    computed over loyal agents of runs that proceeded to consolidation.
    """
    if not reports:
        raise ValueError("empty report batch")
    hashes = {r["config_hash"] for r in reports}
    if len(hashes) != 1:
        raise MixedConfigError(f"mixed configurations in batch: {sorted(hashes)}")

    trials = len(reports)
    aborts = sum(1 for r in reports if r["verdict"] == "abort")
    detections = sum(1 for r in reports if r["detection_events"])
    decoy_aborts = sum(
        1 for r in reports
        if r["abort"] and r["abort"]["cause"] == "decoy_mismatch"
    )
    recovered = 0
    ambiguous = 0
    loyal_agent_runs = 0
    for r in reports:
        if r["verdict"] != "proceed":
            continue
        for agent in r["agents"].values():
            if not agent["loyal"]:
                continue
            loyal_agent_runs += 1
            if agent["recovered_secret"]:
                recovered += 1
            if agent["ambiguous"]:
                ambiguous += 1

    def rate(successes, total):
        if total == 0:
            return {"rate": None, "wilson95": None, "n": 0}
        lo, hi = wilson_interval(successes, total)
        return {
            "rate": successes / total,
            "wilson95": [lo, hi],
            "n": total,
        }

    counts = Counter(r["verdict"] for r in reports)
    return {
        "trials": trials,
        "verdicts": dict(sorted(counts.items())),
        "abort": rate(aborts, trials),
        "decoy_abort": rate(decoy_aborts, trials),
        "detection": rate(detections, trials),
        "recovery": rate(recovered, loyal_agent_runs),
        "ambiguity": rate(ambiguous, loyal_agent_runs),
    }
