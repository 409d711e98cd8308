"""The fitted meta-model coefficients, pinned by digest.

No result file holds the meta-k or algo-select coefficients, so a change
that moves their bits without flipping a decision would otherwise pass
unseen.  This test fits both models on small fixed repositories and compares
the sha256 of each model's coefficient array (one row of weights, then the
intercept, per candidate) with recorded digests.  The bits depend on numpy and its BLAS, so under any other
numpy or BLAS version the test skips and names the difference.
"""

import hashlib

import numpy as np
import pytest

from metaclust.cli import default_family
from metaclust.clusterers import ClustererSpec
from metaclust.data_model import SynthSpec, make_synthetic_repository
from metaclust.meta_pipelines import repo_runs, train_algo_select, train_meta_k

PINNED_NUMPY = "2.4.6"
PINNED_BLAS = "scipy-openblas 0.3.31.188.0"

META_K_SHA256 = "7fa62ab88dab1660e37f6a13430ac31d1f3a335e1abe122b24b9972bd4844bc7"
ALGO_SELECT_SHA256 = "8616323f36a3a6ad8cb3c609711070f84bfb9d1b8598008006062f81e24f263c"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and takes no mode
        blas = {}
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


@pytest.fixture(autouse=True)
def pinned_environment():
    found = (np.__version__, _blas())
    if found != (PINNED_NUMPY, PINNED_BLAS):
        pytest.skip(f"digests were recorded with numpy {PINNED_NUMPY} and {PINNED_BLAS}; found numpy {found[0]} and {found[1]}")


def digest(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype=np.float64).tobytes()).hexdigest()


def test_meta_k_coefficients():
    repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=40, seed=7))
    model = train_meta_k(repo_runs(repo, range(2, 6), 3, seed=7), range(2, 6))
    assert model.coef.shape == (4, 2)
    assert digest(model.coef) == META_K_SHA256


def test_algo_select_coefficients():
    # A member with k > n fails on every problem, so failure rows are pinned too.
    repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=40, dims=(2, 4), seed=7))
    family = default_family() + [ClustererSpec(kind="agglo_ward", k=50)]
    model = train_algo_select(family, repo.problems, seed=7)
    assert model.coef.shape == (11, 6) and model.n_failed_rows == 8
    assert digest(model.coef) == ALGO_SELECT_SHA256
