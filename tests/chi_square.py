"""Two-sample chi-square homogeneity test for the tests' sampling gates."""

from scipy.stats import chi2_contingency


def homogeneity_p(counts_a, counts_b):
    """The p-value of Pearson's statistic that two outcome-count tables
    share one distribution, cells pooled across both samples (a 2 x K
    contingency table over the K outcomes seen in either)."""
    cells = sorted(set(counts_a) | set(counts_b))
    table = [[counts.get(cell, 0) for cell in cells]
             for counts in (counts_a, counts_b)]
    return chi2_contingency(table, correction=False).pvalue
