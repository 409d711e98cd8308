"""Tests of the benchmark's own logic: self time, wasted-work ratios, metric names, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_invariants, check_reference, encode_reference  # noqa: E402
from tracer import (  # noqa: E402
    METRIC_NAME,
    TRACED_NAMES,
    Span,
    Tracer,
    covered_length,
    per_layer_metric_names,
    read_spans,
    self_times,
    useful_ratio,
    write_spans,
)
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(span_id, parent_id, name, start, end, run_id="r"):
    return Span(span_id, parent_id, run_id, name, start, end)


def test_self_time_nested_spans():
    spans = [_span(2, 1, "c", 2.0, 3.0), _span(1, 0, "b", 1.0, 4.0), _span(0, None, "a", 0.0, 10.0)]
    assert self_times(spans) == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})


def test_self_time_sibling_spans_and_repeated_names():
    spans = [
        _span(1, 0, "b", 1.0, 2.0),
        _span(2, 0, "b", 3.0, 5.0),
        _span(3, 0, "c", 6.0, 6.5),
        _span(0, None, "a", 0.0, 10.0),
    ]
    assert self_times(spans) == pytest.approx({"a": 6.5, "b": 3.0, "c": 0.5})


def test_self_time_zero_length_spans():
    spans = [_span(1, 0, "z", 2.0, 2.0), _span(2, 0, "z", 2.0, 2.0), _span(0, None, "a", 0.0, 1.5)]
    assert self_times(spans) == pytest.approx({"a": 1.5, "z": 0.0})


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (5.0, 5.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    spans = [_span(1, 0, "b", 1.0, 3.0), _span(2, 0, "c", 2.0, 4.0), _span(0, None, "a", 0.0, 5.0)]
    assert self_times(spans)["a"] == pytest.approx(2.0)


def test_spans_round_trip_through_file(tmp_path):
    spans = [_span(0, None, "a", 0.125, 1.0 / 3.0, "meta-k"), _span(1, 0, "b", 0.2, 0.3, "meta-k")]
    write_spans(spans, tmp_path / "spans.csv")
    assert read_spans(tmp_path / "spans.csv") == spans


def test_useful_ratio_on_synthetic_generate_runs_calls():
    # Two splits recompute the same (dataset, theta, k-range, restarts, seed) cells.
    cells = [("synth-0000", 0.0, (2, 3), 10, 11), ("synth-0001", 0.0, (2, 3), 10, 12)]
    calls = cells * 2 + [("synth-0000", 0.03, (2, 3), 10, 11)] * 2
    assert useful_ratio(calls) == pytest.approx(3 / 6)
    assert useful_ratio([]) == 1.0


def test_useful_ratio_on_synthetic_run_spec_calls():
    from metaclust.clusterers import ClustererSpec

    tracer = Tracer()
    calls = []

    def fake_run_spec(spec, points):
        calls.append(spec)

    traced = tracer.wrap("clusterers.run_spec", fake_run_spec)
    pts_a = np.arange(6.0).reshape(3, 2)
    pts_b = pts_a + 1.0
    spec = ClustererSpec(kind="kmeans")
    other = ClustererSpec(kind="agglo_single")
    for s, p in [(spec, pts_a), (spec, pts_a.copy()), (other, pts_a), (spec, pts_b)]:
        traced(s, p)
    traced(points=pts_b, spec=spec)
    assert len(calls) == 5
    assert useful_ratio(tracer.keys["clusterers.run_spec"]) == pytest.approx(3 / 5)


def test_wrapper_records_parent_failures_and_run_id():
    tracer = Tracer()
    tracer.run_id = "bsf"

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap("m.inner", inner)

    def outer(x):
        try:
            return inner_t(x)
        except ValueError:
            return 0

    outer_t = tracer.wrap("m.outer", outer)
    assert outer_t(1) == 1 and outer_t(-1) == 0
    assert tracer.failed == {"m.inner": 1}
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [s.parent_id for s in by_name["m.inner"]] == [s.span_id for s in by_name["m.outer"]]
    assert all(s.run_id == "bsf" and s.end >= s.start for s in tracer.spans)


def test_install_patches_every_package_binding_and_uninstall_restores():
    import metaclust
    from metaclust import cli, clusterers, data_model, meta_pipelines, regression

    original = meta_pipelines.kmeans
    tracer = Tracer()
    tracer.install()
    try:
        assert clusterers.kmeans is meta_pipelines.kmeans is not original
        assert cli.repo_runs is meta_pipelines.repo_runs
        assert regression.silhouette_score is metaclust.silhouette_score
        part = data_model.Partition(n_items=2, parts=((0,), (1,)))
        assert isinstance(part, data_model.Partition)
        assert any(s.name == "data_model.Partition" for s in tracer.spans)
    finally:
        tracer.uninstall()
    assert meta_pipelines.kmeans is original is clusterers.kmeans


def test_metric_names_follow_the_grammar_and_match_benchmark_json():
    names = per_layer_metric_names()
    assert len(names) == 93 == len(set(names))
    assert all(METRIC_NAME.match(n) for n in names)
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["per_layer"]] == names
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert METRIC_NAME.match(metric["name"])


def test_metric_name_grammar_rejects_bad_names():
    for bad in ["", ".calls", "a b", "a/b", "x" * 65, "_lead"]:
        assert not METRIC_NAME.match(bad)


def test_every_workload_uses_only_traced_functions():
    for workload in WORKLOADS.values():
        assert workload.layers_used <= set(TRACED_NAMES)


def _outliers_table(best):
    rows = [[0.7, r, p, 0.9, b] for (r, p), b in zip([(0, 0.0), (0, 0.03), (1, 0.0), (1, 0.03)], best)]
    return np.array(rows, dtype=float)


def test_outliers_check_needs_exactly_one_best_per_split():
    header = ["train_frac", "repeat", "p", "ari_meta", "is_best"]
    flags = ("--train-frac", "0.7", "--repeats", "2", "--p-grid", "0,0.03")
    assert check_invariants("outliers", flags, _outliers_table([1, 0, 0, 1]), header, None) == []
    problems = check_invariants("outliers", flags, _outliers_table([1, 1, 0, 1]), header, None)
    assert any("is_best" in p for p in problems)


def test_invariants_reject_out_of_range_and_wrong_row_count():
    header = ["repeat", "acc_meta_it", "acc_meta_et", "acc_majority_it", "acc_majority_et"]
    good = np.array([[0, 0.9, 0.8, 0.6, 0.5]])
    assert check_invariants("bsf", ("--repeats", "1"), good, header, None) == []
    assert check_invariants("bsf", ("--repeats", "2"), good, header, None)
    assert check_invariants("bsf", ("--repeats", "1"), good * [1, 1, 2, 1, 1], header, None)
    assert check_invariants("bsf", ("--repeats", "1"), good * [1, np.nan, 1, 1, 1], header, None)


def test_threshold_profile_reference_round_trip():
    r = np.array([0.0, 0.5, 0.7, 1.1, 2.0])
    loss = np.array([0.4, 0.3, 0.3, 0.3, 1.0])
    table = np.column_stack([r, loss])
    ref = encode_reference("fit-threshold", table)
    assert ref["run_starts"] == [0, 1, 4]
    assert check_reference("fit-threshold", table, ref) == []
    drifted = table.copy()
    drifted[2, 1] += 1e-6
    assert check_reference("fit-threshold", drifted, ref)
    within = table * (1 + 1e-12)
    assert check_reference("fit-threshold", within, ref) == []
