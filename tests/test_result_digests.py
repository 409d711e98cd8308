"""The benchmark's result files, pinned by digest.

The seed-7 ``kgrid`` and ``linkage`` repositories of ``perfbench/workloads.py``
are generated and their pipelines run with the workload flags through
``cli.main``, in a child with one BLAS thread.  The sha256 of each result CSV
must equal the digest recorded here, so a change that moves a result bit fails
in tier 1 instead of only in a hand check.  The bits depend on numpy and its
BLAS, so under any other numpy or BLAS version the test skips and names the
difference.
"""

import json

from conftest import run_python_child, skip_unless_pinned_numpy_and_blas

BLAS_THREADS = "1"

RESULT_SHA256 = {
    "kgrid/meta-k/meta_k.csv": "293101258a0a61f82495e56b0d9521d9b2b5da762a8c801ab990d7a69464d0c3",
    "kgrid/outliers/outliers.csv": "a1aa80aef91464c672eb3ae97d47895b272d5aa264cf19291a16798425f608fb",
    "linkage/algo-select/algo_select.csv": "7729c3a9a0deedebc3dbd1e5130fa8a0eac98a7c4cf04f1fb3dfd4868f15216b",
    "linkage/fit-threshold/threshold_profile.csv": "043b40c705cd429ecf1abf766f12765e3162b24099096577177a215c2998c233",
    "linkage/meta-scale/meta_scale.csv": "b02c150c8d679584a687b3a4b7fb688f8bb6575c7f2a700d5fa8095d0b961807",
}

# Writes each workload's repository and runs its pipelines in a temporary
# directory; prints {relative path: sha256} of every CSV the pipelines write.
DIGEST_CHILD = """
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import metaclust

sys.path.insert(0, str(Path(metaclust.__file__).resolve().parents[2] / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS

from metaclust import cli
from metaclust.data_model import SynthSpec, make_synthetic_repository, save_repository

digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in ("kgrid", "linkage"):
        workload = WORKLOADS[name]
        out = Path(tmp) / name
        repo_dir = out / "repo"
        save_repository(make_synthetic_repository(SynthSpec(seed=DEFAULT_SEED, **workload.synth)), repo_dir)
        for pipeline, *flags in workload.pipelines:
            argv = ["run", pipeline, "--repo", str(repo_dir), "--seed", str(DEFAULT_SEED), "--out", str(out / pipeline)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + flags) == 0, pipeline
            for path in sorted((out / pipeline).glob("*.csv")):
                digests[path.relative_to(Path(tmp)).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


def test_benchmark_result_files_match_recorded_digests():
    skip_unless_pinned_numpy_and_blas()
    digests = json.loads(run_python_child(DIGEST_CHILD, BLAS_THREADS))
    assert {path: digests.get(path) for path in RESULT_SHA256} == RESULT_SHA256
