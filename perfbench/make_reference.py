"""Regenerate the reference values in ``reference/`` from the current program.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload at the default seed, checks the
seed-independent invariants and writes ``reference/<workload>-seed<seed>.json``.
A change that moves these values must say so in its description.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import OUTPUTS, REFERENCE_DIR, check_pass, encode_reference, read_table
from run import OUT_DIR, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        out = OUT_DIR / f"reference-{workload.name}"
        try:
            record, _seconds, err = run_child(workload.name, DEFAULT_SEED, out)
            if record is None:
                print(f"{workload.name}: pass failed: {err}", file=sys.stderr)
                return 1
            problems = {p: msgs for p, msgs in check_pass(workload, out, None).items() if msgs}
            if problems:
                print(f"{workload.name}: {problems}", file=sys.stderr)
                return 1
            reference = {}
            for pipeline, *_flags in workload.pipelines:
                _header, table = read_table(out / pipeline / OUTPUTS[pipeline][0])
                reference[pipeline] = encode_reference(pipeline, table)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        path = REFERENCE_DIR / f"{workload.name}-seed{DEFAULT_SEED}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
