"""Record the golden CLI documents the benchmark's gate compares against.

  PYTHONPATH=src python3 perfbench/make_goldens.py [--check-seed N]

Records each invocation's exit code and exact stdout, timing off, at the
engine's default seed.  Outputs do not depend on the seed, so one golden
serves every seed; `--check-seed N` instead compares a run at seed N with
the committed goldens and exits 1 on any difference.  Re-record only when
an intended output change lands, and say so in the change.
"""

from __future__ import annotations

import argparse
import json

from nilcomm.config import DEFAULT_SEED

import spec
from gate import golden_path, load_golden, strip_seed
from worker import run_cli


def record(workload: str, seed: int) -> list[dict]:
    out = []
    for argv in spec.invocations(workload, seed):
        code, stdout = run_cli(argv)
        out.append({"argv": strip_seed(argv), "exit_code": code, "stdout": stdout})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-seed", type=int, default=None)
    args = parser.parse_args()
    status = 0
    for workload in spec.WORKLOADS:
        if args.check_seed is not None:
            same = record(workload, args.check_seed) == load_golden(workload)
            print(f"{workload}: seed {args.check_seed} "
                  f"{'matches' if same else 'DIFFERS FROM'} the golden")
            status |= not same
            continue
        doc = {"workload": workload, "seed": DEFAULT_SEED,
               "invocations": record(workload, DEFAULT_SEED)}
        golden_path(workload).parent.mkdir(exist_ok=True)
        golden_path(workload).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{workload}: recorded {len(doc['invocations'])} invocations")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
