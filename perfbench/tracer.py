"""Span tracing of metaclust's public functions, from outside the package.

``install`` wraps every function in ``TRACED`` in its defining module and at
every other binding of the same object inside the package (``from
metaclust.x import f`` copies the reference, so patching only the defining
module would miss those callers).  ``Partition`` and ``WeightedGraph`` are
timed by wrapping their ``__post_init__`` on the class, so ``isinstance``
checks still see the real classes.

Each call becomes one span (id, parent id, run id, name, start, end).  Spans
stay in memory and are written out once, by ``write_spans``.  Self time,
wasted-work ratios and the per-layer metric names are computed here, from
plain data, so they can be tested without running the package.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import inspect
import itertools
import re
import sys
import time
from collections import Counter, namedtuple

import numpy as np

TRACED = {
    "cli": (
        "cmd_run_meta_k",
        "cmd_run_outliers",
        "cmd_run_algo_select",
        "cmd_run_fit_threshold",
        "cmd_run_meta_scale",
        "cmd_run_bsf",
    ),
    "data_model": ("load_repository", "split_repository", "dataset_to_distance_graph", "Partition", "WeightedGraph"),
    "metrics": ("silhouette_score", "adjusted_rand_index", "clustering_loss"),
    "clusterers": ("kmeans", "agglomerative", "run_spec", "single_linkage_threshold"),
    "regression": ("phi_features", "symmetric_eigen_extrema", "fit_least_squares", "predict"),
    "erm_meta": ("fit_threshold_kruskal", "fit_meta_scale"),
    "meta_pipelines": (
        "repo_runs",
        "generate_runs",
        "train_meta_k",
        "evaluate_meta_k",
        "sweep_outlier_fraction",
        "train_algo_select",
        "select_algorithm",
        "evaluate_algo_select",
    ),
    "similarity_net": (
        "sample_pair_splits",
        "build_pair_features",
        "train_mlp",
        "nll_loss_and_grads",
        "adadelta_step",
        "predict_features",
        "evaluate_bsf",
    ),
}

TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

# Functions whose escaping exceptions are reported, including ones a caller swallows.
FAILURE_COUNTED = (
    "clusterers.run_spec",
    "regression.phi_features",
    "meta_pipelines.select_algorithm",
) + tuple(f"cli.{fn}" for fn in TRACED["cli"])

USEFUL_RATIOS = ("meta_pipelines.generate_runs", "clusterers.run_spec")

WORK_COUNTS = (
    "clusterers.agglomerative.merges",
    "erm_meta.fit_threshold_kruskal.edges",
    "metrics.silhouette_score.points",
)

OVERHEAD_RATIO = "trace.overhead_ratio"

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

Span = namedtuple("Span", "span_id parent_id run_id name start end")


def per_layer_metric_names() -> list:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for fn in TRACED_NAMES:
        names += [f"{fn}.calls", f"{fn}.self_s"]
        if fn in FAILURE_COUNTED:
            names.append(f"{fn}.failed")
    names += [f"{fn}.useful_ratio" for fn in USEFUL_RATIOS]
    names += list(WORK_COUNTS)
    names.append(OVERHEAD_RATIO)
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Per span name: summed duration minus the part covered by child spans."""
    children = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    totals = Counter()
    for s in spans:
        kids = children.get(s.span_id, ())
        totals[s.name] += (s.end - s.start) - covered_length(kids, s.start, s.end)
    return dict(totals)


def useful_ratio(keys) -> float:
    """Distinct keys over calls; 1.0 when there were no calls (nothing wasted)."""
    keys = list(keys)
    return len(set(keys)) / len(keys) if keys else 1.0


def points_digest(points) -> tuple:
    arr = np.ascontiguousarray(points, dtype=float)
    return arr.shape, hashlib.sha1(arr.tobytes()).hexdigest()


def _generate_runs_key(a) -> tuple:
    return (a["dataset"].id, float(a["theta"]), tuple(a["k_range"]), a["restarts"], a["seed"])


def _run_spec_key(a) -> tuple:
    return (a["spec"], points_digest(a["points"]))


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans = []
        self.failed = Counter()
        self.work = Counter()
        self.keys = {name: [] for name in USEFUL_RATIOS}
        self.run_id = ""
        self._ids = itertools.count()
        self._stack = []
        self._patches = []

    def _observe(self, name: str, a) -> None:
        if name == "meta_pipelines.generate_runs":
            self.keys[name].append(_generate_runs_key(a))
        elif name == "clusterers.run_spec":
            self.keys[name].append(_run_spec_key(a))
        elif name == "clusterers.agglomerative":
            self.work["clusterers.agglomerative.merges"] += len(a["points"]) - a["k"]
        elif name == "erm_meta.fit_threshold_kruskal":
            self.work["erm_meta.fit_threshold_kruskal.edges"] += sum(g.n_edges for g, _truth in a["train"])
        elif name == "metrics.silhouette_score":
            self.work["metrics.silhouette_score.points"] += len(a["points"])

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        observed = name in USEFUL_RATIOS or any(w.startswith(name + ".") for w in WORK_COUNTS)
        signature = inspect.signature(fn) if observed else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._observe(name, bound.arguments)
            span_id = next(self._ids)
            parent_id = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent_id, self.run_id, name, start, end))

        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every traced function at its definition and at every package binding."""
        for layer in TRACED:
            importlib.import_module(f"metaclust.{layer}")
        package = [m for key, m in sys.modules.items() if key == "metaclust" or key.startswith("metaclust.")]
        for layer, fns in TRACED.items():
            module = sys.modules[f"metaclust.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name)
                if inspect.isclass(original):
                    self._patch(original, "__post_init__", self.wrap(name, original.__post_init__))
                    continue
                wrapped = self.wrap(name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)


_SPAN_HEADER = ["span_id", "parent_id", "run_id", "name", "start", "end"]


def write_spans(spans, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SPAN_HEADER)
        for s in spans:
            parent = "" if s.parent_id is None else s.parent_id
            writer.writerow([s.span_id, parent, s.run_id, s.name, repr(s.start), repr(s.end)])


def read_spans(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != _SPAN_HEADER:
            raise ValueError(f"{path}: not a span file")
        return [
            Span(int(i), int(p) if p else None, run, name, float(a), float(b))
            for i, p, run, name, a, b in reader
        ]
