"""The benchmark's result files, pinned by digest.

The ``kgrid`` and ``linkage`` repositories of ``perfbench/workloads.py`` are
generated at seeds 7 (the workload seed) and 3, the ``linkage`` one also at
seed 11, and their pipelines run with the workload flags and that seed through
``cli.main``, in children with one and with two BLAS threads; the seed-7
``pairnet`` repository runs its pipeline with the workload's own pipeline seed
in both children.  The sha256 of
each result CSV must equal the digest recorded here, so a change that moves a
result bit fails in tier 1 instead of only in a hand check.  The bits depend
on numpy and its BLAS, so under any other numpy or BLAS version the test skips
and names the difference.
"""

import json

from conftest import run_python_child, skip_unless_pinned_numpy_and_blas

# (workload seed, workload) cases of each child, by its BLAS thread count.
CASES = {
    "1": [(7, "kgrid"), (7, "linkage"), (3, "kgrid"), (3, "linkage"), (11, "linkage"), (7, "pairnet")],
    "2": [(7, "kgrid"), (7, "linkage"), (3, "kgrid"), (3, "linkage"), (11, "linkage"), (7, "pairnet")],
}

RESULT_SHA256 = {
    "seed7/kgrid/meta-k/meta_k.csv": "293101258a0a61f82495e56b0d9521d9b2b5da762a8c801ab990d7a69464d0c3",
    "seed7/kgrid/outliers/outliers.csv": "a1aa80aef91464c672eb3ae97d47895b272d5aa264cf19291a16798425f608fb",
    "seed7/linkage/algo-select/algo_select.csv": "7729c3a9a0deedebc3dbd1e5130fa8a0eac98a7c4cf04f1fb3dfd4868f15216b",
    "seed7/linkage/fit-threshold/threshold_profile.csv": "043b40c705cd429ecf1abf766f12765e3162b24099096577177a215c2998c233",
    "seed7/linkage/meta-scale/meta_scale.csv": "b02c150c8d679584a687b3a4b7fb688f8bb6575c7f2a700d5fa8095d0b961807",
    "seed3/kgrid/meta-k/meta_k.csv": "b3fa07d4b2e4b84e48e887e1ee7f26dd4db357dd3bac0b21cc45b5ca7fb853c8",
    "seed3/kgrid/outliers/outliers.csv": "85f846afd4b98e398ee1b93df3648ae0ed7b6280a0c52aba7b0ac39abd597d49",
    "seed3/linkage/algo-select/algo_select.csv": "4a06032b15cbaba66a890f3448dc762873d465e261380683b698f8f46c33748f",
    "seed3/linkage/fit-threshold/threshold_profile.csv": "64db6e6c48d39568eea9fd8030b174425bf03f5af099225a562fbe0e920dfd5b",
    "seed3/linkage/meta-scale/meta_scale.csv": "8947e2503ed77f59cf7d7929fd1aaa4fdc1b3992e275fd65157398fd47aa67f3",
    "seed11/linkage/algo-select/algo_select.csv": "d137bdc4c65abdacc4bfd1b24bd3d69e467e394a2ee919116681d5081e7f0de9",
    "seed11/linkage/fit-threshold/threshold_profile.csv": "71cdbd0cf1b248f07da11274e6fcc4184b9cbe814cbf402010b9efac2936dba9",
    "seed11/linkage/meta-scale/meta_scale.csv": "04f829b41f66afe46a8ad96c088499d399eb255fa38c54d4aa42028e96f90436",
    "seed7/pairnet/bsf/bsf.csv": "3e63894b60b7c9ef45e169014ba85d97ad35219ab7c731ac91dab01cfacb732c",
}

# Writes the repository of each (seed, workload) in CASES and runs its
# pipelines in a temporary directory; prints {relative path: sha256} of every
# CSV they write.  The test puts the CASES line in front.
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
from workloads import WORKLOADS

from metaclust import cli
from metaclust.data_model import SynthSpec, make_synthetic_repository, save_repository

digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for seed, name in CASES:
        workload = WORKLOADS[name]
        out = Path(tmp) / f"seed{seed}" / name
        repo_dir = out / "repo"
        save_repository(make_synthetic_repository(SynthSpec(seed=seed, **workload.synth)), repo_dir)
        pipeline_seed = seed if workload.pipeline_seed is None else workload.pipeline_seed
        for pipeline, *flags in workload.pipelines:
            argv = ["run", pipeline, "--repo", str(repo_dir), "--seed", str(pipeline_seed), "--out", str(out / pipeline)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + flags) == 0, pipeline
            for path in sorted((out / pipeline).glob("*.csv")):
                digests[path.relative_to(Path(tmp)).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


def test_benchmark_result_files_match_recorded_digests():
    skip_unless_pinned_numpy_and_blas()
    for blas_threads, cases in CASES.items():
        digests = json.loads(run_python_child(f"CASES = {cases!r}\n" + DIGEST_CHILD, blas_threads))
        prefixes = tuple(f"seed{seed}/{name}/" for seed, name in cases)
        expected = {path: sha for path, sha in RESULT_SHA256.items() if path.startswith(prefixes)}
        assert {path: digests.get(path) for path in expected} == expected, blas_threads
