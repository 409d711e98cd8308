"""Fixtures and graph helpers shared by the test modules."""

import numpy as np
import pytest

from metaclust.data_model import WeightedGraph


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


def graph_from_edges(n, edges):
    """The ``WeightedGraph`` on n vertices with the given (u, v, w) rows as its edges."""
    weights = np.full((n, n), np.inf)
    rows = np.asarray(edges, dtype=float).reshape(-1, 3)
    u, v = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    weights[u, v] = weights[v, u] = rows[:, 2]
    return WeightedGraph(weights)


def graph_edges(graph):
    """The (u, v, w) edges of ``graph`` with u < v, in row-major order of its weight matrix."""
    u, v = np.triu_indices(graph.n_vertices, 1)
    w = graph.w[u, v]
    edge = np.isfinite(w)
    return zip(u[edge].tolist(), v[edge].tolist(), w[edge].tolist())
