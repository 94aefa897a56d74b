"""Fitting one head to one task from raw arrays, for tests.

``methods.fit_statistics`` takes the support-only fit that
``methods.support_fits`` builds; this is that two-step path for a single
head.
"""

from mahabench.methods import fit_statistics, support_fits


def fit_head(head, support_x, support_y, query_x):
    """``head`` fitted to one (support, query) pair."""
    return fit_statistics(head, support_fits([head], support_x, support_y, query_x)[0])
