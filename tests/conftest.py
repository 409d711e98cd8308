"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _same_parts(a, b) -> bool:
    """True iff partitions a and b have the same parts, whatever their part ids.

    Both must leave the same items uncovered; on the covered items, the
    (a id, b id) pairs must match a's parts to b's one to one.
    """
    covered = a.labels >= 0
    if not np.array_equal(covered, b.labels >= 0):
        return False
    pairs = np.unique(np.column_stack([a.labels, b.labels])[covered], axis=0)
    return len(pairs) == a.n_parts == b.n_parts


@pytest.fixture
def same_parts():
    """The partition comparison that ignores part ids (``_same_parts``)."""
    return _same_parts
