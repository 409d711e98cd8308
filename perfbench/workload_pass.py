"""One pass of one workload, in a fresh process started by ``run.py``.

    python3 perfbench/workload_pass.py --workload kgrid --seed 7 --out DIR [--trace 1 | --setup-only]

Set-up (importing metaclust, generating the repository and writing it with
``save_repository``) is timed first.  Then each pipeline of the workload is
driven through ``metaclust.cli.main(["run", ...])`` in this process; the wall
time runs from the first pipeline call until the last result file is written.
Timings, exit codes and peak RSS go to ``DIR/pass.json``; a traced pass also
writes its spans to ``DIR/spans.csv``.  Result CSVs stay in ``DIR/<pipeline>/``
for ``run.py`` to check.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and takes no mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np

    from metaclust import cli
    from metaclust.data_model import SynthSpec, make_synthetic_repository, save_repository

    repo_dir = out / "repo"
    save_repository(make_synthetic_repository(SynthSpec(seed=args.seed, **workload.synth)), repo_dir)
    record = {"setup_s": time.perf_counter() - t0, "environment": _environment(np)}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer, useful_ratio, write_spans

            tracer = Tracer()
            tracer.install()
        pipelines = []
        start = time.perf_counter()
        seed = args.seed if workload.pipeline_seed is None else workload.pipeline_seed
        for name, *flags in workload.pipelines:
            if tracer is not None:
                tracer.run_id = name
            argv = ["run", name, "--repo", str(repo_dir), "--seed", str(seed), "--out", str(out / name)]
            error = None
            try:
                code = cli.main(argv + flags)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code, error = None, traceback.format_exc()
            pipelines.append({"pipeline": name, "exit_code": code, "error": error})
        record["wall_s"] = time.perf_counter() - start
        record["pipelines"] = pipelines
        if tracer is not None:
            tracer.uninstall()
            write_spans(tracer.spans, out / "spans.csv")
            record["failed"] = dict(tracer.failed)
            record["work"] = dict(tracer.work)
            record["useful_ratio"] = {name: useful_ratio(keys) for name, keys in tracer.keys.items()}

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out / "pass.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
