"""Chi-square tests for the tests' sampling gates."""

import numpy as np
from scipy.stats import chi2, chi2_contingency


def homogeneity_p(counts_a, counts_b):
    """The p-value of Pearson's statistic that two outcome-count tables
    share one distribution, cells pooled across both samples (a 2 x K
    contingency table over the K outcomes seen in either)."""
    cells = sorted(set(counts_a) | set(counts_b))
    table = [[counts.get(cell, 0) for cell in cells]
             for counts in (counts_a, counts_b)]
    return chi2_contingency(table, correction=False).pvalue


def binomial_fit_p(counts, trials, rate):
    """The p-value of Pearson's statistic that each cell of `counts` is an
    independent Binomial(trials, rate) count: one degree of freedom per
    cell, as no parameter is fitted."""
    counts = np.asarray(counts, dtype=float)
    stat = ((counts - trials * rate) ** 2
            / (trials * rate * (1 - rate))).sum()
    return chi2.sf(stat, counts.size)
