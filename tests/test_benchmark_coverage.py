"""The benchmark's traced coverage set, checked without a benchmark run.

``perfbench/workloads.py`` names, for each workload, the traced functions its
pipelines call (``layers_used``), and a traced benchmark run fails when the
called set differs.  This test installs the benchmark's tracer in this process
and runs each workload's pipelines on a tiny repository of its kind, so a
change that drops or adds a traced call fails here, not only in a traced run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from metaclust import cli  # noqa: E402
from metaclust.data_model import SynthSpec, make_synthetic_repository, save_repository  # noqa: E402

# Flags appended to the workload's own: argparse keeps the last value given.
TINY_FLAGS = {"bsf": ("--max-pairs", "200", "--epochs", "1")}


def traced_tiny_run(name, tmp_path) -> Tracer:
    """Run workload ``name``'s pipelines on a tiny repository (8 problems of 40 points) under the tracer."""
    workload = WORKLOADS[name]
    synth = {**workload.synth, "n_problems": 8, "n_points": 40}
    repo = tmp_path / "repo"
    save_repository(make_synthetic_repository(SynthSpec(seed=DEFAULT_SEED, **synth)), repo)
    seed = DEFAULT_SEED if workload.pipeline_seed is None else workload.pipeline_seed
    tracer = Tracer()
    tracer.install()
    try:
        for pipeline, *flags in workload.pipelines:
            argv = ["run", pipeline, "--repo", str(repo), "--seed", str(seed), "--out", str(tmp_path / pipeline)]
            assert cli.main(argv + flags + list(TINY_FLAGS.get(pipeline, ()))) == cli.EXIT_OK, pipeline
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_calls_exactly_its_layers(name, tmp_path):
    workload = WORKLOADS[name]
    called = {span.name for span in traced_tiny_run(name, tmp_path).spans}
    assert called == workload.layers_used, (sorted(called - workload.layers_used), sorted(workload.layers_used - called))


def test_threshold_sweep_edge_count(tmp_path):
    # The sweep's per-layer work count reads ``WeightedGraph.n_edges``: every
    # problem's complete graph, 40 * 39 / 2 edges, counted once.
    work = traced_tiny_run("linkage", tmp_path).work
    assert work["erm_meta.fit_threshold_kruskal.edges"] == 8 * (40 * 39 // 2)
