"""Parameter names that the benchmark's tracer binds by name.

``perfbench/tracer.py`` binds the arguments of a few traced functions to
their signatures and reads them by parameter name (work counts and repeated
work keys).  A rename would otherwise fail only inside a traced benchmark run.
"""

import inspect
import re
from pathlib import Path

import pytest

from metaclust import clusterers, erm_meta, meta_pipelines, metrics

BOUND_PARAMETERS = [
    (meta_pipelines.generate_runs, ("dataset", "theta", "k_range", "restarts", "seed")),
    (clusterers.run_spec, ("spec", "points")),
    (clusterers.agglomerative, ("points", "k")),
    (erm_meta.fit_threshold_kruskal, ("train",)),
    (metrics.silhouette_score, ("points",)),
]


@pytest.mark.parametrize("fn,names", BOUND_PARAMETERS, ids=[fn.__name__ for fn, _names in BOUND_PARAMETERS])
def test_bound_parameters_exist(fn, names):
    assert set(names) <= set(inspect.signature(fn).parameters)


def test_list_covers_every_name_the_tracer_reads():
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    read = set(re.findall(r'\ba\["(\w+)"\]', source))
    assert read and read == {name for _fn, names in BOUND_PARAMETERS for name in names}
