"""End-to-end command-line flows on tiny synthetic repositories."""

import json
from pathlib import Path

import pytest

from metaclust import cli, meta_pipelines
from metaclust.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


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


class TestErrorContracts:
    def test_bad_train_frac(self, repo_dir, tmp_path):
        rc = main([
            "run", "meta-scale", "--repo", str(repo_dir), "--train-frac", "1.5",
            "--repeats", "1", "--out", str(tmp_path / "x"),
        ])
        assert rc == EXIT_CONFIG

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
        [_corrupt_cell, _non_utf8_file, _drop_has_labels, _manifest_object, _invalid_json, _sparse_label_ids],
        ids=[
            "non_numeric_cell",
            "non_utf8_file",
            "entry_without_has_labels",
            "manifest_not_array",
            "invalid_json",
            "sparse_label_ids",
        ],
    )
    def test_bad_repository_data(self, repo_dir, tmp_path, capsys, corrupt):
        corrupt(repo_dir)
        rc = main(["run", "fit-threshold", "--repo", str(repo_dir), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == EXIT_IO
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
