"""Fixtures, graph and pair-feature helpers and the pinned numeric environment shared by the test modules."""

import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import metaclust
from metaclust.clusterers import default_rngs, kmeans
from metaclust.data_model import Partition, WeightedGraph, derive_seed
from metaclust.similarity_net import _feature_rows

# Bit-level results (digests, bitwise comparisons of BLAS output) were recorded
# with this numpy and this BLAS; under any other they may differ in the last bits.
PINNED_NUMPY = "2.4.6"
PINNED_BLAS = "scipy-openblas 0.3.31.188.0"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and takes no mode
        blas = {}
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def skip_unless_pinned_numpy_and_blas():
    """Skip the calling test, naming the difference, under any numpy or BLAS but the pinned ones."""
    found = (np.__version__, _blas())
    if found != (PINNED_NUMPY, PINNED_BLAS):
        pytest.skip(f"bits were recorded with numpy {PINNED_NUMPY} and {PINNED_BLAS}; found numpy {found[0]} and {found[1]}")


def run_python_child(code: str, blas_threads: str, timeout: float = 120) -> str:
    """The stdout of ``python -c code`` run with ``blas_threads`` OpenBLAS threads
    and the package's source and this directory on its path."""
    src = str(Path(metaclust.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout)
    assert child.returncode == 0, child.stderr
    return child.stdout


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


KmeansRun = namedtuple("KmeansRun", "partition centers inertia")


def best_kmeans(points, k, restarts=1, seed=0, *, sq_dist=None):
    """The first least-inertia run of ``kmeans`` over ``restarts`` runs
    seeded ``derive_seed(seed, r)``, the selection ``run_spec`` makes, as a
    ``KmeansRun`` whose partition is built with ``Partition``'s checks."""
    rngs = default_rngs(derive_seed(seed, r) for r in range(restarts))
    labels, sizes, centers, inertias = kmeans(points, k, rngs, sq_dist=sq_dist)
    best = int(np.argmin(inertias))
    partition = Partition(n_items=labels.shape[1], labels=labels[best])
    assert np.array_equal(partition.sizes, sizes[best])
    return KmeansRun(partition, centers[best], float(inertias[best]))


def pair_features(pairs):
    """The (m, 75) feature rows of every pair of a ``PairSet``, in pair order."""
    return _feature_rows(pairs.points, pairs.covariances, pairs.rows_i, pairs.rows_j, pairs.blocks)


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
