"""nilcomm benchmark: one workload, one seed, one run.

Run from the root of a checkout:

  python3 perfbench/run.py --workload registry --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Every metric is printed by name with its unit; the last line of stdout is
one JSON object {correct, attempted, failed, metrics}.  A copy of the
result, with provenance and every sample, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RESULTS = ROOT / ".bench_results"

CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The checkout's sources first on the path; a fixed string-hash seed, so
    set and dict layouts, and the time they take, repeat from run to run."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                PYTHONHASHSEED="0")


def run_worker(args, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout (git is
    not asked there, so it cannot report a repository that encloses it)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summary(samples: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, count."""
    n = len(samples)
    text = f"median of n={n}"
    if n > 10:
        k = n - 10  # the k-th smallest has n - k = 10 samples above it
        text += f", p{100 * k // n}={sorted(samples)[k - 1]:.6g}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text


def end_to_end(report: dict) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, from times on the worker's SpeedClock; their
    notes; and the same medians in raw seconds, which are printed only."""
    passes = report["passes"]
    setup = report["setup_s"]
    walls = [p["scaled_s"] for p in passes]
    rates = [(p["ops"] - p["failed"]) / p["scaled_s"] for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "scaled_wall_s": statistics.median(walls),
        "scaled_ops_per_s": statistics.median(rates),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "setup_s": summary(setup),
        "scaled_wall_s": summary(walls),
        "scaled_ops_per_s": summary(rates),
        "peak_rss_mb": "one worker process, after its first pass",
    }
    raw = {
        "setup_s": statistics.median(report["setup_raw_s"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ops_per_s": statistics.median((p["ops"] - p["failed"]) / p["wall_s"]
                                       for p in passes),
    }
    return values, notes, raw


def main() -> int:
    parser = argparse.ArgumentParser(description="nilcomm benchmark")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args()

    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        print(text, end="")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "nilcomm" / "cli.py").is_file():
        print(f"perfbench: no nilcomm sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = RESULTS / f"{stem}-spans.json" if args.trace else None
    report = run_worker(args, spans)

    passes = report["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    units = dict((n, u) for n, u, *_ in spec.END_TO_END + spec.PER_LAYER)
    if args.trace:
        values, notes, raw = report["layers"], {}, {}
    else:
        values, notes, raw = end_to_end(report)
    provenance = {
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": {"name": args.workload, "why": spec.WORKLOADS[args.workload],
                     "invocations": spec.invocations(args.workload, args.seed)},
    }

    print(f"nilcomm benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} passes")
    print("provenance: python {python}, numpy {numpy}, nproc {nproc}, "
          "commit {commit}".format(**provenance))
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:14.6g} {units[name]}{note}")
    if raw:
        print("  raw seconds, not scaled to the host's speed: " + ", ".join(
            f"{name} {value:.6g}" for name, value in raw.items()))
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for reason in [r for p in passes for r in p["reasons"]][:20]:
        print(f"  FAILED {reason}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in values.items()}}
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {**result, "error_rate": failed / attempted, "raw": raw,
         "provenance": provenance, "setup_samples_s": report["setup_s"],
         "setup_raw_samples_s": report["setup_raw_s"],
         "speed_probes": report["probes"], "passes": passes}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
