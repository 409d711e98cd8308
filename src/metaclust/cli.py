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

from metaclust.clusterers import ClustererSpec
from metaclust.data_model import (
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
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_config(out_dir: Path, args: argparse.Namespace) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, default=str)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_fractions(text: str) -> list:
    try:
        fracs = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad --train-frac list: {text!r}")
    if not fracs or any(not (0.0 < f < 1.0) for f in fracs):
        raise ConfigError("--train-frac values must lie in (0, 1)")
    return fracs


def _parse_p_grid(text: str) -> list:
    try:
        grid = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad --p-grid list: {text!r}")
    if not grid or any(not (0.0 <= p < 1.0) for p in grid):
        raise ConfigError("--p-grid values must lie in [0, 1)")
    return grid


def _k_range(args) -> tuple:
    if not (2 <= args.k_min <= args.k_max):
        raise ConfigError("need 2 <= --k-min <= --k-max")
    return tuple(range(args.k_min, args.k_max + 1))


def _load_repo(args):
    repo_path = Path(args.repo)
    manifest = repo_path / "manifest.json" if repo_path.is_dir() else repo_path
    return load_repository(manifest, seed=args.seed)


def default_family(k: int = 2) -> list:
    """Five base algorithms, each with and without normalization."""
    kinds = ("kmeans", "agglo_single", "agglo_complete", "agglo_average", "agglo_ward")
    return [
        ClustererSpec(kind=kind, k=k, normalize_first=norm, restarts=10)
        for kind in kinds
        for norm in (False, True)
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
    repo = _load_repo(args)
    k_range = _k_range(args)
    fracs = _parse_fractions(args.train_frac)
    records = repo_runs(repo, k_range, args.restarts, args.seed)
    rows = []
    for frac in fracs:
        for repeat in range(args.repeats):
            train_idx, test_idx = split_repository(repo, SplitSpec(frac, repeat, args.seed))
            model = train_meta_k([records[i] for i in train_idx], k_range)
            ev = evaluate_meta_k(model, [records[i] for i in test_idx])
            rows.append((frac, repeat, ev.rmse_meta, ev.rmse_baseline, ev.mean_ari_meta, ev.mean_ari_baseline))
    out = _out_dir(args)
    _write_csv(out / "meta_k.csv", ["train_frac", "repeat", "rmse_meta", "rmse_baseline", "ari_meta", "ari_baseline"], rows)
    _write_config(out, args)
    print(f"wrote {out / 'meta_k.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_run_algo_select(args) -> int:
    repo = _load_repo(args)
    family = default_family(k=2)
    names = [spec.name for spec in family]
    rows = []
    for frac in _parse_fractions(args.train_frac):
        for repeat in range(args.repeats):
            train_idx, test_idx = split_repository(repo, SplitSpec(frac, repeat, args.seed))
            train = [repo.problems[i] for i in train_idx]
            test = [repo.problems[i] for i in test_idx]
            model = train_algo_select(family, train, seed=args.seed)
            ari_meta, per_member = evaluate_algo_select(model, test)
            rows.append([frac, repeat, ari_meta] + [per_member[name] for name in names])
    out = _out_dir(args)
    header = ["train_frac", "repeat", "ari_meta"] + [f"ari_{name}" for name in names]
    _write_csv(out / "algo_select.csv", header, rows)
    _write_config(out, args)
    print(f"wrote {out / 'algo_select.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_run_outliers(args) -> int:
    repo = _load_repo(args)
    k_range = _k_range(args)
    p_grid = _parse_p_grid(args.p_grid)
    cells = [(frac, repeat) for frac in _parse_fractions(args.train_frac) for repeat in range(args.repeats)]
    results = sweep_outlier_fraction(
        repo,
        [SplitSpec(frac, repeat, args.seed) for frac, repeat in cells],
        p_grid,
        k_range,
        args.restarts,
        args.seed,
        use_raw_norm=args.raw_norm,
    )
    rows = []
    for (frac, repeat), result in zip(cells, results):
        for p, ari in result.per_p:
            rows.append((frac, repeat, p, ari, int(p == result.best_p)))
    out = _out_dir(args)
    _write_csv(out / "outliers.csv", ["train_frac", "repeat", "p", "ari_meta", "is_best"], rows)
    _write_config(out, args)
    print(f"wrote {out / 'outliers.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_run_fit_threshold(args) -> int:
    repo = _load_repo(args)
    train = [(dataset_to_distance_graph(ds), truth) for ds, truth in repo.problems]
    result = fit_threshold_kruskal(train)
    out = _out_dir(args)
    _write_csv(out / "threshold_profile.csv", ["r", "mean_loss"], result.profile)
    _write_config(out, args)
    print(f"r_star={_fmt(result.r_star)} min_mean_loss={_fmt(result.min_mean_loss)}")
    return EXIT_OK


def cmd_run_meta_scale(args) -> int:
    repo = _load_repo(args)
    graphs = [(dataset_to_distance_graph(ds), truth) for ds, truth in repo.problems]
    rows = []
    for frac in _parse_fractions(args.train_frac):
        for repeat in range(args.repeats):
            train_idx, test_idx = split_repository(repo, SplitSpec(frac, repeat, args.seed))
            rule = fit_meta_scale([graphs[i] for i in train_idx])
            losses = [clustering_loss(truth.n_items, truth, rule(g)) for g, truth in (graphs[i] for i in test_idx)]
            rows.append((frac, repeat, rule.r_star, sum(losses) / len(losses)))
    out = _out_dir(args)
    _write_csv(out / "meta_scale.csv", ["train_frac", "repeat", "r_star", "mean_test_loss"], rows)
    _write_config(out, args)
    print(f"wrote {out / 'meta_scale.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_run_bsf(args) -> int:
    repo = _load_repo(args)
    rows = []
    for repeat in range(args.repeats):
        split = sample_pair_splits(repo, seed=repeat, max_pairs=args.max_pairs)
        model = train_mlp(split.meta_train, epochs=args.epochs, batch=args.batch, seed=repeat)
        ev = evaluate_bsf(model, split)
        rows.append((repeat, ev.acc_meta_it, ev.acc_meta_et, ev.acc_majority_it, ev.acc_majority_et))
    out = _out_dir(args)
    _write_csv(out / "bsf.csv", ["repeat", "acc_meta_it", "acc_meta_et", "acc_majority_it", "acc_majority_et"], rows)
    _write_config(out, args)
    print(f"wrote {out / 'bsf.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_report(args) -> int:
    in_path = Path(args.input)
    with open(in_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        data = list(reader)
    if not data:
        raise OSError(f"{in_path}: no data rows")
    group_cols = args.group.split(",")
    value_col = args.value
    for col in group_cols + [value_col]:
        if col not in data[0]:
            raise ConfigError(f"column {col!r} not in {in_path}")

    groups: dict = {}
    for row in data:
        key = tuple(row[c] for c in group_cols)
        groups.setdefault(key, []).append(float(row[value_col]))

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
        return args.func(args)
    except (DataError, OSError) as exc:  # before ValueError: a DataError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
