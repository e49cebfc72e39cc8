"""Run one workload in a fresh interpreter and print a JSON report.

run.py starts this with the checkout's src/ first on PYTHONPATH.  The
process runs nothing but this workload.  Its peak RSS is read after the
first pass and before the gate builds its replay structures, so it is the
workload's own: the first pass's witness replays wait until then.

Untraced, it repeats whole passes: one, then another only while the median
pass still fits in --seconds, so a run never measures much past it.  Its
set-up samples are taken between CLI calls, spread over the same seconds.
Untraced passes and set-up samples are timed twice: in raw seconds, and on
a hostspeed.SpeedClock, which scales out the shared host's changes of
speed; the end-to-end metrics are the scaled times.
Traced, it runs one untraced pass, then one pass with the layer tracer
installed; the difference between the two walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spec
from gate import Gate, load_golden
from hostspeed import SpeedClock
from tracer import Tracer

SETUP_REPEATS = 20
# An import of about 0.2 s needs probes closer together than a pass does.
SETUP_CODE = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
              "import time, hostspeed; c = hostspeed.SpeedClock(0.005); c.start(); "
              "t, s = time.perf_counter(), c.now(); import nilcomm.cli; "
              "nilcomm.cli.build_parser(); s, t = c.now() - s, time.perf_counter() - t; "
              "c.stop(); print(s, t)")


class SetupSampler:
    """Set-up samples spread over an untraced run.

    Each sample is a fresh interpreter that imports nilcomm and builds the
    CLI parser, timed on its own SpeedClock and in raw seconds.  They are
    taken between CLI calls with the pass clocks stopped, at an even rate
    over --seconds, so they meet the host at the speeds the passes meet it
    at rather than all at one moment.
    """

    def __init__(self, repeats: int, seconds: float):
        self.repeats, self.seconds = repeats, max(seconds, 1e-9)
        self.start = perf_counter()
        self.samples: list[float] = []
        self.raw_samples: list[float] = []

    def take_due(self) -> None:
        """Take the samples due by now."""
        due = self.repeats * min(1.0, (perf_counter() - self.start) / self.seconds)
        while len(self.samples) < due:
            self._take()

    def finish(self) -> None:
        while len(self.samples) < self.repeats:
            self._take()

    def _take(self) -> None:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        scaled, raw = done.stdout.strip().splitlines()[-1].split()
        self.samples.append(float(scaled))
        self.raw_samples.append(float(raw))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in-process: (exit code, stdout)."""
    from nilcomm import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def make_gate(workload: str, seed: int) -> Gate:
    """The workload's gate, without the replay structures that
    build_replay() adds; until then it defers classify witness replays."""
    from nilcomm import DEFAULT_CONFIG

    return Gate(workload, load_golden(workload), None,
                DEFAULT_CONFIG.with_overrides(seed=seed))


def build_replay(gate: Gate) -> None:
    """Give the gate its replay structures.

    Classify witnesses are replayed on a module elaborated here, apart from
    the one the CLI decided on; only expressions whose golden has a failing
    verdict need one.  Building them is not timed.
    """
    from nilcomm import dsl

    modules = {}
    if gate.workload == "classify":
        for entry in gate.golden:
            doc = json.loads(entry["stdout"])
            if any(e.get("holds") is False for e in doc["results"]):
                module = dsl.elaborate(dsl.parse_structure(entry["argv"][1]),
                                       gate.config)
                modules[module.descriptor] = module
    gate.module_for = modules.get


def run_pass(calls: list[list[str]], gate: Gate, tracer: Tracer | None = None,
             sampler: SetupSampler | None = None,
             clock: SpeedClock | None = None) -> dict:
    """Every invocation once, each checked by the gate inside the clocks;
    they stop while the sampler takes set-up samples between calls.  With
    a running SpeedClock the pass is also timed on it (scaled_s)."""
    scaled = clock.now if clock is not None else lambda: 0.0
    ops = 0
    paused = paused_scaled = 0.0
    failed_ops: list[list[int]] = []
    reasons: list[str] = []
    call_s: list[float] = []
    start, start_scaled = perf_counter(), scaled()
    for i, argv in enumerate(calls):
        if tracer is not None:
            tracer.op = i
        t = perf_counter()
        try:
            n, bad = gate.check(i, argv, *run_cli(argv))
        except Exception as exc:  # a raising op is a failed op, not an abort
            n = gate.ops_of(i)
            bad = {op: f"raised {type(exc).__name__}: {exc}" for op in range(n)}
        call_s.append(perf_counter() - t)
        ops += n
        failed_ops += [[i, op] for op in sorted(bad)]
        reasons += [f"{argv[0]} call {i} op {op}: {why}"
                    for op, why in sorted(bad.items())]
        if sampler is not None:
            t, s = perf_counter(), scaled()
            sampler.take_due()
            paused += perf_counter() - t
            paused_scaled += scaled() - s
    return {"wall_s": perf_counter() - start - paused,
            "scaled_s": (scaled() - start_scaled - paused_scaled
                         if clock is not None else None), "ops": ops,
            "failed": len(failed_ops), "failed_ops": failed_ops,
            "call_s": call_s, "reasons": reasons}


def settle(report: dict, late: dict, calls: list[list[str]]) -> None:
    """Count the failures of a pass's deferred replays in its report."""
    for i, bad in sorted(late.items()):
        for op, why in sorted(bad.items()):
            if [i, op] not in report["failed_ops"]:
                report["failed_ops"].append([i, op])
            report["reasons"].append(f"{calls[i][0]} call {i} op {op}: {why}")
    report["failed"] = len(report["failed_ops"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="file to write the traced pass's spans to")
    args = parser.parse_args()

    import numpy

    calls = spec.invocations(args.workload, args.seed)
    gate = make_gate(args.workload, args.seed)
    start = perf_counter()
    sampler = clock = None
    if not args.trace:
        sampler = SetupSampler(SETUP_REPEATS, args.seconds)
        clock = SpeedClock()
        clock.start()
    passes = [run_pass(calls, gate, sampler=sampler, clock=clock)]
    # before the gate's own structures exist; later passes only add
    # allocator slack, and how many fit depends on the host's speed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t = perf_counter()
    build_replay(gate)
    settle(passes[0], gate.replay_deferred(), calls)
    untimed = perf_counter() - t
    layers = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(calls, gate, tracer))
        finally:
            tracer.uninstall()
        layers = tracer.metrics(passes[1]["wall_s"], passes[0]["wall_s"])
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                           "spans": tracer.spans}, fh)
    else:
        while True:
            typical = statistics.median(p["wall_s"] for p in passes)
            if perf_counter() - start - untimed + typical > args.seconds:
                break
            passes.append(run_pass(calls, gate, sampler=sampler, clock=clock))
        clock.stop()
        sampler.finish()
    print(json.dumps({
        "passes": passes,
        "setup_s": sampler.samples if sampler else [],
        "setup_raw_s": sampler.raw_samples if sampler else [],
        "probes": len(clock.probes) if clock else 0,
        "layers": layers,
        "peak_rss_mb": None if args.trace else peak_kb / 1024,
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
