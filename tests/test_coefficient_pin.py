"""The fitted meta-model coefficients and the trained pair net, pinned by digest.

No result file holds the meta-k or algo-select coefficients or the MLP's
parameters, so a change that moves their bits without flipping a decision
would otherwise pass unseen.  These tests fit the models on small fixed
repositories and compare the sha256 of each model's coefficient array (one
row of weights, then the intercept, per candidate), of the trained MLP's
flat parameter vector and of its predicted probabilities (one set predicted
whole, one predicted part by part) with recorded digests.  Every digest must
hold in children with 1 and with 2 OpenBLAS threads.  The bits depend on
numpy and its BLAS, so under any other numpy or BLAS version the tests skip
and name the difference.
"""

import hashlib

import numpy as np
import pytest

from conftest import run_python_child, skip_unless_pinned_numpy_and_blas
from metaclust.cli import default_family
from metaclust.clusterers import ClustererSpec
from metaclust.data_model import SynthSpec, make_synthetic_repository
from metaclust.meta_pipelines import member_records, repo_runs, train_algo_select, train_meta_k

META_K_SHA256 = "70eac2718fa73c4bdeb6456a8bb3997f00ae46a74632ff8c5c48f0e100b0912d"
ALGO_SELECT_SHA256 = "cf9afa3dd81a457484fb1d1974f55bc08a3709f579c178f04ac1da52329a93ef"

# The MLP is trained on 2-5 dimensional problems, so only 25 of the 75
# feature columns are active; with 75 the first-layer weight gradient's bits
# depend on the BLAS thread count.
MLP_PARAMS_SHA256 = "a98d058347c48f4df2974a5f9cac21bc6aebd5c3026a63d161bb06792da53b05"
MLP_PROBABILITIES_SHA256 = "f2579234df4f12ba092601385c1f3b5b6b2c3c0d536f859ab77b44d86a971c26"
# The probabilities of a 9,000-pair set predicted in two balanced parts of its
# 25 active columns by ``_predict_pairs``.  Recorded from one whole-matrix
# ``predict_features`` call on all 75 columns of the same rows, so it also
# shows that neither the parts nor the dropped columns move a bit.
MLP_PART_PROBABILITIES_SHA256 = "7a5232523c64445a1b37b46887fab832988f1032f76b358c595f2f7917f159ba"

# Trains on a small repository's meta-train set, predicts its meta-ET set whole,
# then predicts a larger meta-ET set part by part; prints the three digests,
# one a line.
MLP_CHILD = """
import hashlib

import numpy as np

from conftest import pair_features
from metaclust.data_model import SynthSpec, make_synthetic_repository
from metaclust.similarity_net import PREDICT_ROWS, _predict_pairs, predict_features, sample_pair_splits, train_mlp

repo = make_synthetic_repository(SynthSpec(n_problems=12, n_points=60, dims=(2, 5), seed=7))
meta_train, _meta_it, meta_et = sample_pair_splits(repo, max_pairs=300)
model = train_mlp(meta_train, epochs=2)
probabilities, _decisions = predict_features(model, pair_features(meta_et))
_meta_train, _meta_it, larger = sample_pair_splits(repo, max_pairs=1500)
assert len(larger) > PREDICT_ROWS
part_probabilities, _decisions = _predict_pairs(model, larger)
for array in (model.params, probabilities, part_probabilities):
    print(hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest())
"""


@pytest.fixture(autouse=True)
def pinned_environment():
    skip_unless_pinned_numpy_and_blas()


def digest(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype=np.float64).tobytes()).hexdigest()


def meta_k_coef():
    repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=40, seed=7))
    return train_meta_k(*repo_runs(repo, range(2, 6), 3, seed=7))


def algo_select_records():
    # A member with k > n fails on every problem, so failure rows are pinned too.
    repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=40, dims=(2, 4), seed=7))
    family = default_family() + [ClustererSpec(kind="agglo_ward", k=50)]
    return member_records(family, repo.problems, seed=7)


def test_meta_k_coefficients():
    coef = meta_k_coef()
    assert coef.shape == (4, 2)
    assert digest(coef) == META_K_SHA256


def test_algo_select_coefficients():
    records = algo_select_records()
    coef = train_algo_select(records)
    n_flagged = sum(int(np.count_nonzero(~record.has_features)) for record in records)
    assert coef.shape == (11, 6) and n_flagged == 8
    assert digest(coef) == ALGO_SELECT_SHA256


# Fits both meta-models in a child; prints their two digests, one a line.
COEF_CHILD = """
from metaclust.meta_pipelines import train_algo_select
from test_coefficient_pin import algo_select_records, digest, meta_k_coef

print(digest(meta_k_coef()))
print(digest(train_algo_select(algo_select_records())))
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_coefficients_do_not_depend_on_the_blas_thread_count(blas_threads):
    assert run_python_child(COEF_CHILD, blas_threads).split() == [META_K_SHA256, ALGO_SELECT_SHA256]


def test_mlp_parameters_and_probabilities():
    for blas_threads in ("1", "2"):
        assert run_python_child(MLP_CHILD, blas_threads).split() == [
            MLP_PARAMS_SHA256,
            MLP_PROBABILITIES_SHA256,
            MLP_PART_PROBABILITIES_SHA256,
        ], blas_threads
