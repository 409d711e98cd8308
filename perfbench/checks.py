"""Correctness checks on the result CSVs of one workload pass.

For every seed the checks are invariants: the expected header and row count,
finite values, ARI in [-1, 1], accuracies and losses in [0, 1], exactly one
``is_best`` per (train_frac, repeat) of ``outliers.csv``, and strictly
increasing thresholds in ``threshold_profile.csv`` that equal the distinct
pairwise distances of the repository.  For the default seed every cell is
also compared with the reference values in ``reference/``, at ``REL_TOL`` /
``ABS_TOL``.  The 178k-row threshold profile is kept there run-length
encoded: each ``mean_loss`` cell is compared with its run's value, and the
threshold at the start of each run with the stored one.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_FAMILY = [
    f"{kind}{suffix}"
    for kind in ("kmeans", "agglo_single", "agglo_complete", "agglo_average", "agglo_ward")
    for suffix in ("", "-N")
]

# pipeline -> (result CSV, header); defaults of the flags that set its row count.
OUTPUTS = {
    "meta-k": ("meta_k.csv", ["train_frac", "repeat", "rmse_meta", "rmse_baseline", "ari_meta", "ari_baseline"]),
    "outliers": ("outliers.csv", ["train_frac", "repeat", "p", "ari_meta", "is_best"]),
    "algo-select": ("algo_select.csv", ["train_frac", "repeat", "ari_meta"] + [f"ari_{m}" for m in _FAMILY]),
    "fit-threshold": ("threshold_profile.csv", ["r", "mean_loss"]),
    "meta-scale": ("meta_scale.csv", ["train_frac", "repeat", "r_star", "mean_test_loss"]),
    "bsf": ("bsf.csv", ["repeat", "acc_meta_it", "acc_meta_et", "acc_majority_it", "acc_majority_et"]),
}
_FLAG_DEFAULTS = {"--train-frac": "0.7", "--repeats": "10", "--p-grid": "0,0.01,0.02,0.03,0.04,0.05"}


def _flag(flags, name: str) -> str:
    flags = list(flags)
    return flags[flags.index(name) + 1] if name in flags else _FLAG_DEFAULTS[name]


def _count(flags, name: str) -> int:
    value = _flag(flags, name)
    return int(value) if name == "--repeats" else len([t for t in value.split(",") if t])


def read_table(path: Path) -> tuple:
    """(header, float matrix) of a result CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]], dtype=float).reshape(-1, len(rows[0]))


def repository_distances(repo_dir: Path) -> np.ndarray:
    """Sorted distinct pairwise Euclidean distances over all datasets of a saved repository."""
    with open(repo_dir / "manifest.json", encoding="utf-8") as fh:
        entries = json.load(fh)
    dists = []
    for entry in entries:
        data = np.loadtxt(repo_dir / entry["path"], delimiter=",", skiprows=1, ndmin=2)
        pts = data[:, :-1] if entry["has_labels"] else data
        iu = np.triu_indices(pts.shape[0], 1)
        dists.append(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))[iu])
    return np.unique(np.concatenate(dists))


def _close(a, b) -> np.ndarray:
    return np.isclose(a, b, rtol=REL_TOL, atol=ABS_TOL)


def _in_range(table, header, prefix: str, lo: float, hi: float, problems: list) -> None:
    for j, col in enumerate(header):
        if col.startswith(prefix) and np.any((table[:, j] < lo) | (table[:, j] > hi)):
            problems.append(f"{col} outside [{lo}, {hi}]")


def check_invariants(pipeline: str, flags, table, header, repo_dir: Path) -> list:
    """Problems with one result table that hold for any seed; empty when it is correct."""
    _name, expected_header = OUTPUTS[pipeline]
    if header != expected_header:
        return [f"header {header} != {expected_header}"]
    if not np.all(np.isfinite(table)):
        return ["non-finite value"]
    problems = []
    if pipeline == "fit-threshold":
        dists = repository_distances(repo_dir)
        if table.shape[0] != dists.size + 1:
            problems.append(f"{table.shape[0]} rows, expected {dists.size + 1}")
        elif not np.all(_close(table[1:, 0], dists)):
            problems.append("thresholds differ from the repository's pairwise distances")
        if np.any(np.diff(table[:, 0]) <= 0):
            problems.append("thresholds do not strictly increase")
        _in_range(table, header, "mean_loss", 0.0, 1.0, problems)
        return problems

    expected_rows = _count(flags, "--repeats")
    if pipeline != "bsf":
        expected_rows *= _count(flags, "--train-frac")
    if pipeline == "outliers":
        expected_rows *= _count(flags, "--p-grid")
    if table.shape[0] != expected_rows:
        problems.append(f"{table.shape[0]} rows, expected {expected_rows}")
    _in_range(table, header, "ari", -1.0, 1.0, problems)
    _in_range(table, header, "acc", 0.0, 1.0, problems)
    _in_range(table, header, "mean_test_loss", 0.0, 1.0, problems)
    _in_range(table, header, "rmse", 0.0, math.inf, problems)
    if pipeline == "meta-scale" and np.any(table[:, 2] <= 0):
        problems.append("r_star must be positive")
    if pipeline == "outliers":
        best = table[:, 4]
        if not np.all((best == 0) | (best == 1)):
            problems.append("is_best must be 0 or 1")
        for key in {(float(row[0]), float(row[1])) for row in table}:
            group = (table[:, 0] == key[0]) & (table[:, 1] == key[1])
            if best[group].sum() != 1:
                problems.append(f"(train_frac, repeat)={key} has {int(best[group].sum())} is_best rows")
    return problems


def encode_reference(pipeline: str, table) -> dict:
    """Reference values of one result table, as stored in ``reference/``."""
    if pipeline != "fit-threshold":
        return {"rows": table.tolist()}
    loss = table[:, 1]
    starts = np.flatnonzero(np.r_[True, loss[1:] != loss[:-1]])
    return {
        "n_rows": int(table.shape[0]),
        "run_starts": starts.tolist(),
        "mean_loss": loss[starts].tolist(),
        "r": table[starts, 0].tolist(),
    }


def check_reference(pipeline: str, table, reference: dict) -> list:
    """Problems of a result table against its reference values; empty when within tolerance."""
    if pipeline != "fit-threshold":
        expected = np.array(reference["rows"], dtype=float).reshape(-1, table.shape[1])
        if expected.shape != table.shape:
            return [f"shape {table.shape} != reference {expected.shape}"]
        bad = [tuple(int(i) for i in cell) for cell in np.argwhere(~_close(table, expected))[:5]]
        return [f"cell {cell} = {table[cell]!r}, reference {expected[cell]!r}" for cell in bad]
    if table.shape[0] != reference["n_rows"]:
        return [f"{table.shape[0]} rows, reference {reference['n_rows']}"]
    starts = np.array(reference["run_starts"], dtype=int)
    lengths = np.diff(np.r_[starts, table.shape[0]])
    problems = []
    if not np.all(_close(table[:, 1], np.repeat(reference["mean_loss"], lengths))):
        problems.append("mean_loss differs from the reference profile")
    if not np.all(_close(table[starts, 0], reference["r"])):
        problems.append("thresholds at loss changes differ from the reference")
    return problems


def load_reference(workload: str, seed: int):
    """Reference values of a workload at a seed, or None when none are kept."""
    path = REFERENCE_DIR / f"{workload}-seed{seed}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(workload, pass_dir: Path, reference) -> dict:
    """Problems per pipeline of one pass (pipelines with none map to [])."""
    with open(pass_dir / "pass.json", encoding="utf-8") as fh:
        record = json.load(fh)
    results = {}
    for entry, (pipeline, *flags) in zip(record["pipelines"], workload.pipelines):
        if entry["exit_code"] != 0:
            results[pipeline] = [f"exit code {entry['exit_code']}" + (f": {entry['error']}" if entry["error"] else "")]
            continue
        csv_name, _header = OUTPUTS[pipeline]
        try:
            header, table = read_table(pass_dir / pipeline / csv_name)
        except (OSError, ValueError) as exc:
            results[pipeline] = [f"{csv_name}: {exc}"]
            continue
        problems = check_invariants(pipeline, flags, table, header, pass_dir / "repo")
        if not problems and reference is not None:
            problems = check_reference(pipeline, table, reference[pipeline])
        results[pipeline] = [f"{csv_name}: {p}" for p in problems]
    return results
