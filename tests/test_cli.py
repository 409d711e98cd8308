"""End-to-end command-line flows on tiny synthetic repositories."""

import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from metaclust import cli, meta_pipelines
from metaclust.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from metaclust.data_model import FLOAT_FORMAT, SynthSpec, make_synthetic_repository, save_repository

GOLDEN = Path(__file__).parent / "golden"
OVERFLOW = "points are too large: squared distances between them would overflow float64"


@pytest.fixture()
def repo_dir(tmp_path):
    out = tmp_path / "repo"
    rc = main([
        "synth", "--problems", "6", "--points", "30", "--clusters-min", "2",
        "--clusters-max", "3", "--seed", "11", "--out", str(out),
    ])
    assert rc == EXIT_OK
    return out


def read_bytes(path):
    return path.read_bytes()


class TestSynth:
    def test_writes_manifest_and_files(self, repo_dir):
        manifest = json.loads((repo_dir / "manifest.json").read_text())
        assert len(manifest) == 6
        for entry in manifest:
            assert (repo_dir / entry["path"]).exists()
        assert (repo_dir / "config.json").exists()

    def test_rerun_byte_identical(self, repo_dir, tmp_path):
        again = tmp_path / "again"
        rc = main([
            "synth", "--problems", "6", "--points", "30", "--clusters-min", "2",
            "--clusters-max", "3", "--seed", "11", "--out", str(again),
        ])
        assert rc == EXIT_OK
        for entry in json.loads((repo_dir / "manifest.json").read_text()):
            assert read_bytes(repo_dir / entry["path"]) == read_bytes(again / entry["path"])


class TestRunMetaScale:
    def test_rows_and_config(self, repo_dir, tmp_path):
        out = tmp_path / "ms"
        rc = main([
            "run", "meta-scale", "--repo", str(repo_dir), "--train-frac", "0.5",
            "--repeats", "3", "--seed", "4", "--out", str(out),
        ])
        assert rc == EXIT_OK
        lines = (out / "meta_scale.csv").read_text().splitlines()
        assert lines[0] == "train_frac,repeat,r_star,mean_test_loss"
        assert len(lines) == 4
        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 4 and config["repeats"] == 3

    def test_rerun_byte_identical(self, repo_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main([
                "run", "meta-scale", "--repo", str(repo_dir), "--train-frac", "0.5,0.7",
                "--repeats", "2", "--seed", "1", "--out", str(out),
            ])
            assert rc == EXIT_OK
            outs.append(out)
        assert read_bytes(outs[0] / "meta_scale.csv") == read_bytes(outs[1] / "meta_scale.csv")


class TestRunFitThreshold:
    def test_profile_and_stdout(self, repo_dir, tmp_path, capsys):
        out = tmp_path / "ft"
        rc = main(["run", "fit-threshold", "--repo", str(repo_dir), "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("r_star=")
        lines = (out / "threshold_profile.csv").read_text().splitlines()
        assert lines[0] == "r,mean_loss"
        assert len(lines) > 2


class TestFloatFormat:
    VALUES = [-1.0, 0.0, -0.0, 5e-324, 0.1, 1e16, 1 / 3]

    def test_float_pairs_match_the_csv_writer(self, tmp_path):
        # The one-pass profile writer and the per-cell csv writer give the same bytes.
        first = np.array(self.VALUES)
        second = first[::-1].copy()
        cli._write_float_pairs(tmp_path / "fast.csv", ["r", "mean_loss"], first, second)
        cli._write_csv(tmp_path / "cells.csv", ["r", "mean_loss"], zip(first.tolist(), second.tolist()))
        fast = read_bytes(tmp_path / "fast.csv")
        assert fast == read_bytes(tmp_path / "cells.csv")
        assert fast.splitlines()[1:4] == [b"-1,0.33333333333333331", b"0,10000000000000000", b"-0,0.10000000000000001"]

    def test_float_pairs_longer_than_one_chunk(self, tmp_path):
        # Two full chunks and a partial third, including the tricky values.
        rng = np.random.default_rng(12)
        first = np.concatenate([rng.standard_normal(2 * cli._CHUNK_ROWS + 5) * 1e3, self.VALUES])
        second = np.cumsum(rng.uniform(0.0, 1.0, first.size)) / 7.0
        cli._write_float_pairs(tmp_path / "fast.csv", ["r", "mean_loss"], first, second)
        cli._write_csv(tmp_path / "cells.csv", ["r", "mean_loss"], zip(first.tolist(), second.tolist()))
        fast = read_bytes(tmp_path / "fast.csv")
        assert fast == read_bytes(tmp_path / "cells.csv")
        assert fast.count(b"\r\n") == first.size + 1

    @pytest.mark.parametrize("extra", [0, 1])
    def test_float_pairs_at_the_chunk_size(self, tmp_path, extra):
        # Exactly one full chunk, and one row past it.
        rng = np.random.default_rng(14)
        first = rng.standard_normal(cli._CHUNK_ROWS + extra) * 1e3
        second = np.round(rng.uniform(0.0, 1.0, first.size), 2)
        cli._write_float_pairs(tmp_path / "fast.csv", ["r", "mean_loss"], first, second)
        cli._write_csv(tmp_path / "cells.csv", ["r", "mean_loss"], zip(first.tolist(), second.tolist()))
        fast = read_bytes(tmp_path / "fast.csv")
        assert fast == read_bytes(tmp_path / "cells.csv")
        assert fast.count(b"\r\n") == first.size + 1

    def test_float_pairs_with_repeated_losses_across_chunks(self, tmp_path):
        # Each distinct loss is formatted once: 0.0 and -0.0 must keep their own
        # text, and repeats on both sides of a chunk boundary must get the same.
        rng = np.random.default_rng(13)
        losses = np.array([0.0, -0.0, 1 / 3, 5e-324])
        n = 3 * cli._CHUNK_ROWS + 7
        second = losses[rng.integers(0, losses.size, n)]
        for boundary in (cli._CHUNK_ROWS, 2 * cli._CHUNK_ROWS):
            second[boundary - 2 : boundary + 2] = losses
        first = np.arange(n) / 9.0
        cli._write_float_pairs(tmp_path / "fast.csv", ["r", "mean_loss"], first, second)
        cli._write_csv(tmp_path / "cells.csv", ["r", "mean_loss"], zip(first.tolist(), second.tolist()))
        fast = read_bytes(tmp_path / "fast.csv")
        assert fast == read_bytes(tmp_path / "cells.csv")
        assert {line.split(b",")[1] for line in fast.splitlines()[1:]} == {b"0", b"-0", b"0.33333333333333331", b"4.9406564584124654e-324"}


class TestRunMetaK:
    def test_row_contract(self, repo_dir, tmp_path):
        out = tmp_path / "mk"
        rc = main([
            "run", "meta-k", "--repo", str(repo_dir), "--train-frac", "0.5",
            "--repeats", "2", "--k-min", "2", "--k-max", "4", "--restarts", "2",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        lines = (out / "meta_k.csv").read_text().splitlines()
        assert lines[0] == "train_frac,repeat,rmse_meta,rmse_baseline,ari_meta,ari_baseline"
        assert len(lines) == 3


class TestRunOutliers:
    def test_long_format(self, repo_dir, tmp_path):
        out = tmp_path / "ol"
        rc = main([
            "run", "outliers", "--repo", str(repo_dir), "--train-frac", "0.5",
            "--repeats", "1", "--k-min", "2", "--k-max", "3", "--restarts", "2",
            "--p-grid", "0,0.05", "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        lines = (out / "outliers.csv").read_text().splitlines()
        assert lines[0] == "train_frac,repeat,p,ari_meta,is_best"
        assert len(lines) == 3  # 1 repeat x 2 grid points
        best_flags = [line.split(",")[-1] for line in lines[1:]]
        assert best_flags.count("1") == 1


class TestGolden:
    """Result files byte-compared with ones checked in under tests/golden/.

    The golden files were written by exactly these commands.  A change that
    moves them changes the numbers the pipelines report and must say so.
    """

    SPLIT_FLAGS = [
        "--train-frac", "0.5,0.7", "--repeats", "2", "--k-min", "2", "--k-max", "5",
        "--restarts", "3", "--seed", "3",
    ]
    P_GRID = ["--p-grid", "0,0.02"]

    @pytest.fixture()
    def golden_repo(self, tmp_path):
        out = tmp_path / "golden_repo"
        rc = main([
            "synth", "--problems", "8", "--points", "50", "--dims-max", "3", "--clusters-min", "2",
            "--clusters-max", "4", "--separation", "6", "--outlier-frac", "0.04", "--seed", "11",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        return out

    @staticmethod
    def count_calls(monkeypatch, module):
        calls = []
        real = module.repo_runs

        def counted(*args, **kwargs):
            calls.append(kwargs.get("theta", 0.0))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "repo_runs", counted)
        return calls

    def test_meta_k(self, golden_repo, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, cli)
        out = tmp_path / "mk"
        rc = main(["run", "meta-k", "--repo", str(golden_repo), *self.SPLIT_FLAGS, "--out", str(out)])
        assert rc == EXIT_OK
        assert read_bytes(out / "meta_k.csv") == read_bytes(GOLDEN / "meta_k.csv")
        assert len(calls) == 1  # one grid shared by the 4 splits

    def test_outliers(self, golden_repo, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, meta_pipelines)
        out = tmp_path / "ol"
        rc = main([
            "run", "outliers", "--repo", str(golden_repo), *self.SPLIT_FLAGS, *self.P_GRID,
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert read_bytes(out / "outliers.csv") == read_bytes(GOLDEN / "outliers.csv")
        assert calls == [0.0, 0.02]  # one grid per p, shared by the 4 splits

    def test_outliers_raw_norm(self, golden_repo, tmp_path):
        out = tmp_path / "ol"
        rc = main([
            "run", "outliers", "--repo", str(golden_repo), *self.SPLIT_FLAGS, *self.P_GRID, "--raw-norm",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert read_bytes(out / "outliers.csv") == read_bytes(GOLDEN / "outliers_raw_norm.csv")

    def test_bsf(self, golden_repo, tmp_path):
        out = tmp_path / "bsf"
        rc = main([
            "run", "bsf", "--repo", str(golden_repo), "--max-pairs", "200", "--epochs", "2",
            "--repeats", "2", "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert read_bytes(out / "bsf.csv") == read_bytes(GOLDEN / "bsf.csv")


    def test_algo_select(self, golden_repo, tmp_path):
        out = tmp_path / "as"
        rc = main([
            "run", "algo-select", "--repo", str(golden_repo), "--train-frac", "0.5,0.7", "--repeats", "2",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert read_bytes(out / "algo_select.csv") == read_bytes(GOLDEN / "algo_select.csv")

    @pytest.mark.parametrize("split_flags", [["0.5", "--repeats", "1"], ["0.5,0.7", "--repeats", "2"]],
                             ids=["1-split", "4-splits"])
    def test_algo_select_runs_each_member_once_per_problem(self, golden_repo, tmp_path, monkeypatch, split_flags):
        calls = Counter()
        for name in ("run_spec", "adjusted_rand_index"):
            real = getattr(meta_pipelines, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(meta_pipelines, name, counted)
        rc = main([
            "run", "algo-select", "--repo", str(golden_repo), "--train-frac", *split_flags,
            "--seed", "3", "--out", str(tmp_path / "as"),
        ])
        assert rc == EXIT_OK
        members_x_problems = len(cli.default_family()) * 8
        assert calls == {"run_spec": members_x_problems, "adjusted_rand_index": members_x_problems}

    def test_algo_select_separated(self, tmp_path):
        # Without outliers the members' ARIs differ (0.70-0.71), so this file
        # pins which member each selection picks.
        repo = tmp_path / "separated_repo"
        rc = main([
            "synth", "--problems", "12", "--points", "40", "--dims-max", "3", "--separation", "6",
            "--seed", "5", "--out", str(repo),
        ])
        assert rc == EXIT_OK
        out = tmp_path / "as"
        rc = main([
            "run", "algo-select", "--repo", str(repo), "--train-frac", "0.5", "--repeats", "2",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert read_bytes(out / "algo_select.csv") == read_bytes(GOLDEN / "algo_select_separated.csv")

    def test_fit_threshold(self, golden_repo, tmp_path):
        out = tmp_path / "ft"
        rc = main(["run", "fit-threshold", "--repo", str(golden_repo), "--seed", "3", "--out", str(out)])
        assert rc == EXIT_OK
        assert read_bytes(out / "threshold_profile.csv") == read_bytes(GOLDEN / "threshold_profile.csv")

    def test_meta_scale(self, golden_repo, tmp_path):
        out = tmp_path / "ms"
        rc = main([
            "run", "meta-scale", "--repo", str(golden_repo), "--train-frac", "0.5,0.7", "--repeats", "2",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert read_bytes(out / "meta_scale.csv") == read_bytes(GOLDEN / "meta_scale.csv")


class TestReport:
    def test_aggregation(self, repo_dir, tmp_path):
        run_out = tmp_path / "ms"
        main([
            "run", "meta-scale", "--repo", str(repo_dir), "--train-frac", "0.5",
            "--repeats", "4", "--seed", "4", "--out", str(run_out),
        ])
        rep_out = tmp_path / "rep"
        rc = main([
            "report", "--input", str(run_out / "meta_scale.csv"),
            "--group", "train_frac", "--value", "mean_test_loss", "--out", str(rep_out),
        ])
        assert rc == EXIT_OK
        lines = (rep_out / "report.csv").read_text().splitlines()
        assert lines[0] == "train_frac,mean,stddev,ci95_halfwidth"
        assert len(lines) == 2

    def test_constant_value_zero_stddev(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("g,v\na,2.0\na,2.0\na,2.0\n")
        out = tmp_path / "rep"
        rc = main(["report", "--input", str(src), "--group", "g", "--value", "v", "--out", str(out)])
        assert rc == EXIT_OK
        row = (out / "report.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == 2.0 and float(row[2]) == 0.0

    def test_empty_input_io_error(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("g,v\n")
        rc = main(["report", "--input", str(src), "--group", "g", "--value", "v", "--out", str(tmp_path / "r")])
        assert rc == EXIT_IO

    def test_unknown_column_config_error(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("g,v\na,1\n")
        rc = main(["report", "--input", str(src), "--group", "nope", "--value", "v", "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG


def _corrupt_cell(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    path = repo / manifest[0]["path"]
    lines = path.read_text().splitlines()
    lines[1] = "abc" + lines[1][lines[1].index(","):]
    path.write_text("\n".join(lines) + "\n")


def _non_utf8_file(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    (repo / manifest[0]["path"]).write_bytes(b"\xff\xfef0,label\n")


def _drop_has_labels(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    del manifest[0]["has_labels"]
    (repo / "manifest.json").write_text(json.dumps(manifest))


def _manifest_object(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    (repo / "manifest.json").write_text(json.dumps({"problems": manifest}))


def _invalid_json(repo):
    (repo / "manifest.json").write_text('[{"id": "a",')


def _sparse_label_ids(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    path = repo / manifest[0]["path"]
    text = path.read_text()
    path.write_text(text.replace(",1\n", ",2\n"))  # class ids {0, 2}: not dense


def _single_class_file(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    path = repo / manifest[0]["path"]
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [row[: row.rindex(",")] + ",0" for row in rows]) + "\n")


def _has_labels_false(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    manifest[0]["has_labels"] = False
    (repo / "manifest.json").write_text(json.dumps(manifest))


def _duplicate_dataset_id(repo):
    manifest = json.loads((repo / "manifest.json").read_text())
    manifest[1]["id"] = manifest[0]["id"]
    (repo / "manifest.json").write_text(json.dumps(manifest))


class TestErrorContracts:
    def test_bad_train_frac(self, repo_dir, tmp_path):
        rc = main([
            "run", "meta-scale", "--repo", str(repo_dir), "--train-frac", "1.5",
            "--repeats", "1", "--out", str(tmp_path / "x"),
        ])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "pipeline,flag,value,message",
        [
            ("outliers", "--p-grid", "0,abc", "bad --p-grid list: '0,abc'"),
            ("outliers", "--p-grid", "0,1", "--p-grid values must lie in [0, 1)"),
            ("outliers", "--p-grid", "-0.01", "--p-grid values must lie in [0, 1)"),
            ("outliers", "--p-grid", "", "--p-grid values must lie in [0, 1)"),
            ("outliers", "--p-grid", "0,0.05,0", "--p-grid repeats a value: '0,0.05,0'"),
            ("meta-scale", "--train-frac", "0", "--train-frac values must lie in (0, 1)"),
            ("meta-scale", "--train-frac", "0.5,0.50", "--train-frac repeats a value: '0.5,0.50'"),
        ],
        ids=["p_non_numeric", "p_one", "p_negative", "p_empty", "p_repeated", "frac_zero", "frac_repeated"],
    )
    def test_bad_list_flag_rejected(self, repo_dir, tmp_path, capsys, pipeline, flag, value, message):
        out = tmp_path / "x"
        rc = main(["run", pipeline, "--repo", str(repo_dir), flag, value, "--repeats", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "pipeline,flags,message",
        [
            ("meta-k", ["--train-frac", "abc"], "bad --train-frac list: 'abc'"),
            ("meta-k", ["--k-min", "5", "--k-max", "3"], "need 2 <= --k-min <= --k-max"),
            ("algo-select", ["--train-frac", "abc"], "bad --train-frac list: 'abc'"),
            ("outliers", ["--train-frac", "abc"], "bad --train-frac list: 'abc'"),
            ("outliers", ["--p-grid", "abc"], "bad --p-grid list: 'abc'"),
            ("meta-scale", ["--train-frac", "abc"], "bad --train-frac list: 'abc'"),
        ],
        ids=["meta_k_frac", "meta_k_k_range", "algo_select_frac", "outliers_frac", "outliers_p_grid", "meta_scale_frac"],
    )
    def test_bad_flag_rejected_before_loading(self, tmp_path, capsys, pipeline, flags, message):
        # A bad flag is a configuration error even when --repo does not exist.
        out = tmp_path / "x"
        rc = main(["run", pipeline, "--repo", str(tmp_path / "nowhere"), *flags, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308", "1e200"])
    def test_non_finite_separation_rejected(self, tmp_path, capsys, value):
        # 1e308 and 1e200 are finite, but the squared distance between planted
        # outliers, (40 * separation * 4)^2 * 2, is not.
        out = tmp_path / "x"
        rc = main(["synth", "--problems", "3", "--separation", value, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("error: separation must be finite") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline", ["fit-threshold", "meta-scale"])
    def test_overflowing_distance_is_data_error(self, repo_dir, tmp_path, capsys, pipeline):
        manifest = json.loads((repo_dir / "manifest.json").read_text())
        path = repo_dir / manifest[0]["path"]
        lines = path.read_text().splitlines()
        lines[1] = "1e200" + lines[1][lines[1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x"
        rc = main(["run", pipeline, "--repo", str(repo_dir), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_IO
        assert err == f"error: {path}: {OVERFLOW}\n"
        assert not out.exists()

    @pytest.mark.parametrize("pipeline", ["meta-k", "algo-select", "outliers", "fit-threshold", "meta-scale", "bsf"])
    def test_empty_manifest_is_data_error(self, tmp_path, capsys, pipeline):
        repo = tmp_path / "repo"
        repo.mkdir()
        (repo / "manifest.json").write_text("[]")
        out = tmp_path / "x"
        rc = main(["run", pipeline, "--repo", str(repo), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_IO
        assert err == f"error: {repo / 'manifest.json'}: manifest lists no datasets\n"
        assert not out.exists()

    def test_missing_repo(self, tmp_path):
        rc = main([
            "run", "fit-threshold", "--repo", str(tmp_path / "nowhere"),
            "--out", str(tmp_path / "x"),
        ])
        assert rc == EXIT_IO

    def test_bad_k_range(self, repo_dir, tmp_path):
        rc = main([
            "run", "meta-k", "--repo", str(repo_dir), "--k-min", "5", "--k-max", "3",
            "--train-frac", "0.5", "--repeats", "1", "--out", str(tmp_path / "x"),
        ])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "corrupt",
        [
            _corrupt_cell,
            _non_utf8_file,
            _drop_has_labels,
            _manifest_object,
            _invalid_json,
            _sparse_label_ids,
            _single_class_file,
            _has_labels_false,
            _duplicate_dataset_id,
        ],
        ids=[
            "non_numeric_cell",
            "non_utf8_file",
            "entry_without_has_labels",
            "manifest_not_array",
            "invalid_json",
            "sparse_label_ids",
            "single_class_file",
            "has_labels_false",
            "duplicate_dataset_id",
        ],
    )
    def test_bad_repository_data(self, repo_dir, tmp_path, capsys, corrupt):
        corrupt(repo_dir)
        rc = main(["run", "fit-threshold", "--repo", str(repo_dir), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == EXIT_IO
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_oversized_cell_is_data_error(self, repo_dir, tmp_path, capsys):
        # A cell over csv.field_size_limit() (131,072 characters) makes the
        # csv reader raise.
        manifest = json.loads((repo_dir / "manifest.json").read_text())
        path = repo_dir / manifest[0]["path"]
        lines = path.read_text().splitlines()
        lines[1] = "1" * (csv.field_size_limit() + 1) + lines[1][lines[1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x"
        rc = main(["run", "meta-scale", "--repo", str(repo_dir), "--repeats", "1", "--out", str(out)])
        assert rc == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: field larger than field limit ({csv.field_size_limit()})\n"
        assert not out.exists()

    def test_oversized_report_cell_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("g,v\na," + "1" * (csv.field_size_limit() + 1) + "\n")
        rc = main(["report", "--input", str(src), "--group", "g", "--value", "v", "--out", str(tmp_path / "r")])
        assert rc == EXIT_IO
        assert capsys.readouterr().err == f"error: {src}: field larger than field limit ({csv.field_size_limit()})\n"

    @pytest.mark.parametrize(
        "content",
        [b"g,v\na,xyz\n", b"g,v\na\n", b"\xff\xfeg,v\na,1\n"],
        ids=["non_numeric_value", "short_row", "non_utf8_file"],
    )
    def test_bad_report_data(self, tmp_path, capsys, content):
        src = tmp_path / "in.csv"
        src.write_bytes(content)
        rc = main(["report", "--input", str(src), "--group", "g", "--value", "v", "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == EXIT_IO
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_report_row_longer_than_header_is_data_error(self, tmp_path, capsys):
        # The extra cell is not dropped: the row is rejected, as a short row is.
        src = tmp_path / "in.csv"
        src.write_text("g,v\na,1,junk\na,3\n")
        out = tmp_path / "r"
        rc = main(["report", "--input", str(src), "--group", "g", "--value", "v", "--out", str(out)])
        assert rc == EXIT_IO
        assert capsys.readouterr().err == f"error: {src}: row 2 has more cells than the header\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "pipeline,flag,value",
        [
            ("meta-k", "--repeats", "0"),
            ("meta-k", "--restarts", "0"),
            ("algo-select", "--repeats", "-1"),
            ("outliers", "--restarts", "-3"),
            ("meta-scale", "--repeats", "0"),
            ("bsf", "--repeats", "-2"),
            ("bsf", "--epochs", "0"),
            ("bsf", "--batch", "0"),
        ],
    )
    def test_count_below_one_rejected(self, repo_dir, tmp_path, capsys, pipeline, flag, value):
        out = tmp_path / "x"
        rc = main(["run", pipeline, "--repo", str(repo_dir), flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith(f"error: {flag} must be at least 1") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "synth_flags,message",
        [
            (["--problems", "1", "--points", "30"], "could not populate both dataset categories"),
            (["--problems", "3", "--points", "30", "--dims-min", "11", "--dims-max", "11"], "no qualifying datasets"),
            (["--problems", "4", "--points", "3", "--clusters-max", "2"], "repository too small"),
        ],
        ids=["one_dataset", "every_dataset_too_wide", "datasets_too_small"],
    )
    def test_bsf_unusable_repository_is_data_error(self, tmp_path, capsys, synth_flags, message):
        repo = tmp_path / "repo"
        assert main(["synth", *synth_flags, "--seed", "1", "--out", str(repo)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["run", "bsf", "--repo", str(repo), "--repeats", "1", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == EXIT_IO
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_bsf_max_pairs_one_rejected(self, repo_dir, tmp_path, capsys, value):
        out = tmp_path / "x"
        rc = main(["run", "bsf", "--repo", str(repo_dir), "--max-pairs", value, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == f"error: --max-pairs must be at least 2, got {value}\n"
        assert not out.exists()


def _bad_points(kind, points):
    """Replacement points for one problem of the bad-data contract."""
    if kind == "identical":
        return np.full_like(points, 1.5)
    if kind == "collinear":  # (x, 3x) at 1e9 scale: sigma_min is roundoff, possibly below zero
        x = points[:, 0]
        return np.column_stack([x * 1e9, 3 * x * 1e9])
    if kind == "shifted":
        return points + 1e160
    if kind == "scaled":  # distances fit float64; covariance eigenvalues near 1e200 enter algo-select's meta-features
        return points * 1e100
    huge = points.copy()
    huge[0, 0] = 1e200
    return huge


# Small runs of every pipeline; algo-select's two splits both test problem 0,
# and its first split trains on problem 4.
BAD_DATA_PIPELINES = {
    "meta-k": ["--train-frac", "0.5", "--repeats", "2", "--k-max", "3", "--restarts", "2"],
    "algo-select": ["--train-frac", "0.5", "--repeats", "2"],
    "outliers": ["--train-frac", "0.5", "--repeats", "1", "--p-grid", "0,0.05", "--k-max", "3", "--restarts", "2"],
    "fit-threshold": [],
    "meta-scale": ["--train-frac", "0.5", "--repeats", "2"],
    "bsf": ["--repeats", "1", "--epochs", "1", "--max-pairs", "200"],
}


class TestBadDataContract:
    """Degenerate but representable points run; points whose distances overflow exit 2."""

    @pytest.fixture(scope="class")
    def bad_repos(self, tmp_path_factory):
        repo = make_synthetic_repository(SynthSpec(n_problems=8, n_points=40, seed=5))
        repos = {}
        for kind in ("identical", "collinear", "shifted", "huge", "scaled"):
            i = 4 if kind == "scaled" else 0
            ds, truth = repo.problems[i]
            out = tmp_path_factory.mktemp(kind)
            manifest = json.loads(save_repository(repo, out).read_text())
            rows = [",".join(FLOAT_FORMAT % v for v in row) for row in _bad_points(kind, ds.points).tolist()]
            lines = ["f0,f1,label"] + [f"{row},{label}" for row, label in zip(rows, truth.labels.tolist())]
            path = out / manifest[i]["path"]
            path.write_text("\n".join(lines) + "\n")
            repos[kind] = (out, path)
        return repos

    @pytest.mark.parametrize("pipeline", sorted(BAD_DATA_PIPELINES))
    @pytest.mark.parametrize("kind", ["identical", "collinear", "scaled"])
    def test_degenerate_points_run(self, bad_repos, tmp_path, capsys, kind, pipeline):
        repo, _path = bad_repos[kind]
        rc = main(["run", pipeline, "--repo", str(repo), "--out", str(tmp_path / "x"), *BAD_DATA_PIPELINES[pipeline]])
        assert rc == EXIT_OK and capsys.readouterr().err == ""

    @pytest.mark.parametrize("pipeline", sorted(BAD_DATA_PIPELINES))
    @pytest.mark.parametrize("kind", ["shifted", "huge"])
    def test_overflowing_points_exit_2(self, bad_repos, tmp_path, capsys, kind, pipeline):
        repo, path = bad_repos[kind]
        out = tmp_path / "x"
        rc = main(["run", pipeline, "--repo", str(repo), "--out", str(out), *BAD_DATA_PIPELINES[pipeline]])
        assert rc == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: {OVERFLOW}\n"
        assert not out.exists()
