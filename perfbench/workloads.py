"""The benchmark's workloads: generated repositories, pipelines and expected traffic.

Each workload is a synthetic repository (generated from the workload seed by
``make_synthetic_repository``) plus the ``metaclust run`` pipelines driven on
it.  The workload seed is also every pipeline's ``--seed``, except where a
workload fixes ``pipeline_seed``.  ``layers_used`` names the traced functions
the workload must reach; every other traced function must not be called on it
(see ``tracer.TRACED``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # SynthSpec keyword arguments, without the seed
    pipelines: tuple  # (pipeline name, *extra run flags)
    layers_used: frozenset  # traced functions with calls > 0
    pipeline_seed: Optional[int] = None  # None: the workload seed

    def describe(self) -> str:
        s = self.synth
        dims = s["dims"]
        return (
            f"{s['n_problems']} problems x {s['n_points']} points, {dims[0]}-{dims[1]} dims, "
            f"outlier_fraction={s.get('outlier_fraction', 0.0)}"
        )


_KGRID_USED = frozenset(
    {
        "cli.cmd_run_meta_k",
        "cli.cmd_run_outliers",
        "data_model.load_repository",
        "data_model.split_repository",
        "data_model.Partition",
        "metrics.silhouette_score",
        "metrics.adjusted_rand_index",
        "clusterers.kmeans",
        "regression.fit_least_squares",
        "regression.predict",
        "meta_pipelines.repo_runs",
        "meta_pipelines.generate_runs",
        "meta_pipelines.train_meta_k",
        "meta_pipelines.evaluate_meta_k",
        "meta_pipelines.sweep_outlier_fraction",
    }
)

_LINKAGE_USED = frozenset(
    {
        "cli.cmd_run_algo_select",
        "cli.cmd_run_fit_threshold",
        "cli.cmd_run_meta_scale",
        "data_model.load_repository",
        "data_model.split_repository",
        "data_model.dataset_to_distance_graph",
        "data_model.Partition",
        "data_model.WeightedGraph",
        "metrics.silhouette_score",
        "metrics.adjusted_rand_index",
        "metrics.clustering_loss",
        "clusterers.kmeans",
        "clusterers.agglomerative",
        "clusterers.run_spec",
        "clusterers.single_linkage_threshold",
        "regression.phi_features",
        "regression.symmetric_eigen_extrema",
        "regression.fit_least_squares",
        "regression.predict",
        "erm_meta.fit_threshold_kruskal",
        "erm_meta.fit_meta_scale",
        "meta_pipelines.train_algo_select",
        "meta_pipelines.select_algorithm",
        "meta_pipelines.evaluate_algo_select",
    }
)

_PAIRNET_USED = frozenset(
    {
        "cli.cmd_run_bsf",
        "data_model.load_repository",
        "data_model.Partition",
        "similarity_net.sample_pair_splits",
        "similarity_net.build_pair_features",
        "similarity_net.train_mlp",
        "similarity_net.nll_loss_and_grads",
        "similarity_net.adadelta_step",
        "similarity_net.predict_features",
        "similarity_net.evaluate_bsf",
    }
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kgrid",
            why="k-means/silhouette run grid of meta-k and the outlier sweep, recomputed per split",
            synth=dict(n_problems=16, n_points=100, dims=(2, 2), n_clusters=(2, 4), outlier_fraction=0.03),
            pipelines=(
                ("meta-k", "--train-frac", "0.5,0.7", "--repeats", "1"),
                ("outliers", "--train-frac", "0.7", "--repeats", "1", "--p-grid", "0,0.03"),
            ),
            layers_used=_KGRID_USED,
        ),
        Workload(
            name="linkage",
            why="O(n^3) agglomerative linkage in algo-select plus the Kruskal threshold sweep",
            synth=dict(n_problems=16, n_points=150, dims=(2, 5), n_clusters=(2, 4)),
            pipelines=(
                ("algo-select", "--train-frac", "0.5", "--repeats", "1"),
                ("fit-threshold",),
                ("meta-scale", "--train-frac", "0.5", "--repeats", "2"),
            ),
            layers_used=_LINKAGE_USED,
        ),
        Workload(
            name="pairnet",
            why="per-pair feature build and MLP training of bsf; the memory-heavy workload",
            synth=dict(n_problems=24, n_points=100, dims=(2, 5), n_clusters=(2, 4)),
            pipelines=(("bsf", "--repeats", "1"),),
            layers_used=_PAIRNET_USED,
            # bsf's --seed draws which datasets feed training, and so how many
            # pairs are built and trained on (a binomial count over the 24
            # datasets, about +-15% of the work between seeds).  A fixed
            # pipeline seed keeps the work equal across workload seeds; the
            # datasets still come from the workload seed.
            pipeline_seed=0,
        ),
    )
}
