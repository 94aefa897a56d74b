"""Comparing sampled tasks, for tests."""

import numpy as np


def tasks_equal(a, b) -> bool:
    """Field-wise equality of two ``EpisodicTask``s, float bit patterns included."""
    return (
        a.domain_id == b.domain_id
        and a.seed == b.seed
        and a.way == b.way
        and a.dims == b.dims
        and np.array_equal(a.support_x, b.support_x)
        and np.array_equal(a.support_y, b.support_y)
        and np.array_equal(a.query_x, b.query_x)
        and np.array_equal(a.query_y, b.query_y)
    )
