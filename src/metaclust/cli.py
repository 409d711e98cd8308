"""Command-line experiment harness.

Subcommands:

* ``synth``: generate a synthetic blob repository (CSV files + manifest).
* ``run``: execute one of the experiment pipelines against a repository and
  emit a result CSV plus a copy of the resolved configuration.
* ``report``: aggregate a result CSV into per-group mean / stddev / 95% CI.

Exit codes: 0 success, 1 invalid configuration, 2 IO or data error.  All
floats are serialized with 17 significant digits and every command is a
deterministic function of its flags, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from metaclust.clusterers import KINDS, ClustererSpec
from metaclust.data_model import (
    FLOAT_FORMAT,
    DataError,
    SplitSpec,
    SynthSpec,
    dataset_to_distance_graph,
    load_repository,
    make_synthetic_repository,
    save_repository,
    split_repository,
)
from metaclust.erm_meta import fit_meta_scale, fit_threshold_kruskal
from metaclust.meta_pipelines import (
    evaluate_algo_select,
    evaluate_meta_k,
    member_records,
    repo_runs,
    sweep_outlier_fraction,
    train_algo_select,
    train_meta_k,
)
from metaclust.metrics import clustering_loss
from metaclust.similarity_net import evaluate_bsf, sample_pair_splits, train_mlp

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


class ConfigError(Exception):
    """Invalid experiment configuration."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


_CHUNK_ROWS = 8192  # rows per format; a whole profile's strings at once would take tens of MB


def _write_float_pairs(path: Path, header, first, second) -> None:
    """Two float columns, one format per chunk of rows: the bytes ``_write_csv`` writes for them.

    Each distinct bit pattern of ``second`` is formatted once (a threshold
    profile repeats few loss values over many rows); patterns, not values,
    so 0.0 and -0.0 keep their own text.  Each chunk is one ``%`` of its
    rows' line format over the chunk's values, interleaved row by row.
    """
    patterns, which = np.unique(np.ascontiguousarray(second, dtype=np.float64).view(np.int64), return_inverse=True)
    texts = np.array([FLOAT_FORMAT % v for v in patterns.view(np.float64).tolist()], dtype=object)
    line = f"{FLOAT_FORMAT},%s\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(first), _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            rows = first[chunk].tolist()
            values = [None] * (2 * len(rows))
            values[0::2] = rows
            values[1::2] = texts[which[chunk]].tolist()
            fh.write(line * len(rows) % tuple(values))


def _write_config(out_dir: Path, args: argparse.Namespace) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, default=str)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_result(args, name: str, header, rows) -> None:
    """Write a run's result CSV and config.json into --out; print the row count."""
    out = _out_dir(args)
    _write_csv(out / name, header, rows)
    _write_config(out, args)
    print(f"wrote {out / name} ({len(rows)} rows)")


def _parse_fractions(text: str, flag: str, zero_ok: bool = False) -> list:
    """A comma list of distinct floats in (0, 1), or in [0, 1) if ``zero_ok``."""
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad {flag} list: {text!r}")
    if not values or any(not (0.0 < v < 1.0 or (zero_ok and v == 0.0)) for v in values):
        raise ConfigError(f"{flag} values must lie in {'[' if zero_ok else '('}0, 1)")
    if len(set(values)) != len(values):
        raise ConfigError(f"{flag} repeats a value: {text!r}")
    return values


def _splits(args) -> list:
    """(frac, repeat, SplitSpec) for every --train-frac x --repeats cell, in that order.

    Every pipeline calls this before it loads the repository, so a bad list
    fails before any work.
    """
    fracs = _parse_fractions(args.train_frac, "--train-frac")
    return [(frac, repeat, SplitSpec(frac, repeat, args.seed)) for frac in fracs for repeat in range(args.repeats)]


# The smallest usable value of each count flag; a training pair needs two rows.
_COUNT_MINIMUMS = {"repeats": 1, "restarts": 1, "max_pairs": 2, "epochs": 1, "batch": 1}


def _check_counts(args) -> None:
    """Reject a count flag below its minimum; argparse accepts any int, and exit 2 is for data errors."""
    for name, minimum in _COUNT_MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least {minimum}, got {value}")


def _k_range(args) -> tuple:
    if not (2 <= args.k_min <= args.k_max):
        raise ConfigError("need 2 <= --k-min <= --k-max")
    return tuple(range(args.k_min, args.k_max + 1))


def _load_repo(args):
    repo_path = Path(args.repo)
    manifest = repo_path / "manifest.json" if repo_path.is_dir() else repo_path
    return load_repository(manifest, seed=args.seed)


def default_family() -> list:
    """The five base algorithms (``KINDS``) with k = 2, each with and without normalization."""
    return [
        ClustererSpec(kind=kind, k=2, normalize_first=norm, restarts=10) for kind in KINDS for norm in (False, True)
    ]


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_problems=args.problems,
        n_points=args.points,
        dims=(args.dims_min, args.dims_max),
        n_clusters=(args.clusters_min, args.clusters_max),
        separation=args.separation,
        outlier_fraction=args.outlier_frac,
        seed=args.seed,
    )
    repo = make_synthetic_repository(spec)
    out = _out_dir(args)
    manifest = save_repository(repo, out)
    _write_config(out, args)
    print(f"wrote {len(repo)} datasets and {manifest}")
    return EXIT_OK


def cmd_run_meta_k(args) -> int:
    k_range = _k_range(args)
    splits = _splits(args)
    repo = _load_repo(args)
    grids = repo_runs(repo, k_range, args.restarts, args.seed)
    rows = []
    for frac, repeat, split in splits:
        train_idx, test_idx = split_repository(repo, split)
        model = train_meta_k([grids[i] for i in train_idx])
        ev = evaluate_meta_k(model, [grids[i] for i in test_idx])
        rows.append((frac, repeat, ev.rmse_meta, ev.rmse_baseline, ev.mean_ari_meta, ev.mean_ari_baseline))
    header = ["train_frac", "repeat", "rmse_meta", "rmse_baseline", "ari_meta", "ari_baseline"]
    _write_result(args, "meta_k.csv", header, rows)
    return EXIT_OK


def cmd_run_algo_select(args) -> int:
    splits = _splits(args)
    repo = _load_repo(args)
    family = default_family()
    records = member_records(family, repo.problems, args.seed)
    rows = []
    for frac, repeat, split in splits:
        train_idx, test_idx = split_repository(repo, split)
        model = train_algo_select([records[i] for i in train_idx])
        ari_meta, per_member = evaluate_algo_select(model, [records[i] for i in test_idx])
        rows.append([frac, repeat, ari_meta] + per_member)
    header = ["train_frac", "repeat", "ari_meta"] + [f"ari_{spec.name}" for spec in family]
    _write_result(args, "algo_select.csv", header, rows)
    return EXIT_OK


def cmd_run_outliers(args) -> int:
    k_range = _k_range(args)
    p_grid = _parse_fractions(args.p_grid, "--p-grid", zero_ok=True)
    cells = _splits(args)
    repo = _load_repo(args)
    splits = [split for _frac, _repeat, split in cells]
    results = sweep_outlier_fraction(repo, splits, p_grid, k_range, args.restarts, args.seed, use_raw_norm=args.raw_norm)
    rows = []
    for (frac, repeat, _split), result in zip(cells, results):
        for p, ari in result.per_p:
            rows.append((frac, repeat, p, ari, int(p == result.best_p)))
    _write_result(args, "outliers.csv", ["train_frac", "repeat", "p", "ari_meta", "is_best"], rows)
    return EXIT_OK


def cmd_run_fit_threshold(args) -> int:
    repo = _load_repo(args)
    train = [(dataset_to_distance_graph(ds), truth) for ds, truth in repo.problems]
    result = fit_threshold_kruskal(train)
    out = _out_dir(args)
    _write_float_pairs(out / "threshold_profile.csv", ["r", "mean_loss"], result.r, result.mean_loss)
    _write_config(out, args)
    print(f"r_star={_fmt(result.r_star)} min_mean_loss={_fmt(result.min_mean_loss)}")
    return EXIT_OK


def cmd_run_meta_scale(args) -> int:
    splits = _splits(args)
    repo = _load_repo(args)
    graphs = [(dataset_to_distance_graph(ds), truth) for ds, truth in repo.problems]
    rows = []
    for frac, repeat, split in splits:
        train_idx, test_idx = split_repository(repo, split)
        rule = fit_meta_scale([graphs[i] for i in train_idx])
        losses = [clustering_loss(truth.n_items, truth, rule(g)) for g, truth in (graphs[i] for i in test_idx)]
        rows.append((frac, repeat, rule.r_star, sum(losses) / len(losses)))
    _write_result(args, "meta_scale.csv", ["train_frac", "repeat", "r_star", "mean_test_loss"], rows)
    return EXIT_OK


def cmd_run_bsf(args) -> int:
    repo = _load_repo(args)
    rows = []
    for repeat in range(args.repeats):
        split = sample_pair_splits(repo, seed=repeat, max_pairs=args.max_pairs)
        model = train_mlp(split.meta_train, epochs=args.epochs, batch=args.batch, seed=repeat)
        ev = evaluate_bsf(model, split)
        rows.append((repeat, ev.acc_meta_it, ev.acc_meta_et, ev.acc_majority_it, ev.acc_majority_et))
    _write_result(args, "bsf.csv", ["repeat", "acc_meta_it", "acc_meta_et", "acc_majority_it", "acc_majority_et"], rows)
    return EXIT_OK


def cmd_report(args) -> int:
    in_path = Path(args.input)
    with open(in_path, newline="", encoding="utf-8") as fh:
        try:
            data = list(csv.DictReader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a cell over csv.field_size_limit()
            raise DataError(f"{in_path}: {exc}") from None
    if not data:
        raise OSError(f"{in_path}: no data rows")
    group_cols = args.group.split(",")
    value_col = args.value
    for col in group_cols + [value_col]:
        if col not in data[0]:
            raise ConfigError(f"column {col!r} not in {in_path}")

    groups: dict = {}
    for r, row in enumerate(data):
        if None in row:  # csv.DictReader keeps a row's cells past the header under the key None
            raise DataError(f"{in_path}: row {r + 2} has more cells than the header")
        if any(row[c] is None for c in group_cols + [value_col]):
            raise DataError(f"{in_path}: row {r + 2} has fewer cells than the header")
        try:
            value = float(row[value_col])
        except ValueError:
            raise DataError(f"{in_path}: row {r + 2}, column {value_col}: non-numeric cell {row[value_col]!r}") from None
        groups.setdefault(tuple(row[c] for c in group_cols), []).append(value)

    rows = []
    for key in sorted(groups):
        vals = groups[key]
        n = len(vals)
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / (n - 1) if n > 1 else 0.0
        std = math.sqrt(var)
        ci95 = 1.96 * std / math.sqrt(n)
        rows.append(list(key) + [mean, std, ci95])
    out = _out_dir(args)
    _write_csv(out / "report.csv", group_cols + ["mean", "stddev", "ci95_halfwidth"], rows)
    print(f"wrote {out / 'report.csv'} ({len(rows)} groups)")
    return EXIT_OK


def _add_common(parser, repo=True):
    if repo:
        parser.add_argument("--repo", required=True, help="repository directory or manifest path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output directory")


def _add_split_flags(parser):
    parser.add_argument("--train-frac", default="0.7", help="comma list of training fractions")
    parser.add_argument("--repeats", type=int, default=10)


def _add_k_flags(parser):
    parser.add_argument("--k-min", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=10)
    parser.add_argument("--restarts", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metaclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic repository")
    synth.add_argument("--problems", type=int, required=True)
    synth.add_argument("--points", type=int, default=100)
    synth.add_argument("--dims-min", type=int, default=2)
    synth.add_argument("--dims-max", type=int, default=2)
    synth.add_argument("--clusters-min", type=int, default=2)
    synth.add_argument("--clusters-max", type=int, default=4)
    synth.add_argument("--separation", type=float, default=10.0)
    synth.add_argument("--outlier-frac", type=float, default=0.0)
    _add_common(synth, repo=False)
    synth.set_defaults(func=cmd_synth)

    run = sub.add_parser("run", help="run an experiment pipeline")
    run_sub = run.add_subparsers(dest="pipeline", required=True)

    meta_k = run_sub.add_parser("meta-k")
    _add_common(meta_k)
    _add_split_flags(meta_k)
    _add_k_flags(meta_k)
    meta_k.set_defaults(func=cmd_run_meta_k)

    algo = run_sub.add_parser("algo-select")
    _add_common(algo)
    _add_split_flags(algo)
    algo.set_defaults(func=cmd_run_algo_select)

    outliers = run_sub.add_parser("outliers")
    _add_common(outliers)
    _add_split_flags(outliers)
    _add_k_flags(outliers)
    outliers.add_argument("--p-grid", default="0,0.01,0.02,0.03,0.04,0.05")
    outliers.add_argument("--raw-norm", action="store_true", help="prune by raw norm instead of distance to mean")
    outliers.set_defaults(func=cmd_run_outliers)

    fit_thresh = run_sub.add_parser("fit-threshold")
    _add_common(fit_thresh)
    fit_thresh.set_defaults(func=cmd_run_fit_threshold)

    meta_scale = run_sub.add_parser("meta-scale")
    _add_common(meta_scale)
    _add_split_flags(meta_scale)
    meta_scale.set_defaults(func=cmd_run_meta_scale)

    bsf = run_sub.add_parser("bsf")
    _add_common(bsf)
    bsf.add_argument("--repeats", type=int, default=10)
    bsf.add_argument("--max-pairs", type=int, default=2500)
    bsf.add_argument("--epochs", type=int, default=10)
    bsf.add_argument("--batch", type=int, default=250)
    bsf.set_defaults(func=cmd_run_bsf)

    report = sub.add_parser("report", help="aggregate a result CSV")
    report.add_argument("--input", required=True)
    report.add_argument("--group", required=True, help="comma list of grouping columns")
    report.add_argument("--value", required=True, help="value column to aggregate")
    report.add_argument("--out", required=True)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (DataError, OSError) as exc:  # before ValueError: a DataError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
