"""The benchmark's own tests: the gate must catch what it claims to catch,
the traced run must report every per-layer metric, the speed clock must
follow its probe, and the spec must match BENCHMARK.json.

  python3 -m pytest -q perfbench

Kept out of the repository's test suite: they build real structures and
take about twenty seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
from gate import Gate, load_golden  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import build_replay, make_gate, run_cli  # noqa: E402

SEED = 1729


@pytest.fixture(scope="module")
def gates():
    gates = {w: make_gate(w, SEED) for w in spec.WORKLOADS}
    for gate in gates.values():
        build_replay(gate)
    return gates


def _check_golden(gate: Gate, index: int, golden: list[dict]):
    """Run the gate on a golden entry as if the CLI had printed it."""
    entry = golden[index]
    argv = entry["argv"] + ["--seed", str(SEED)]
    return Gate(gate.workload, golden, gate.module_for, gate.config).check(
        index, argv, entry["exit_code"], entry["stdout"])


def _rewrite(golden: list[dict], index: int, edit) -> list[dict]:
    """A copy of golden whose entry `index` has edit applied to its document;
    output and golden stay byte-identical, so only the deeper checks can
    catch the change."""
    golden = copy.deepcopy(golden)
    doc = json.loads(golden[index]["stdout"])
    edit(doc)
    golden[index]["stdout"] = json.dumps(doc, indent=2) + "\n"
    return golden


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_goldens_pass_the_gate(gates, workload):
    golden = load_golden(workload)
    for i in range(len(golden)):
        n, bad = _check_golden(gates[workload], i, golden)
        assert n >= 1 and bad == {}


def test_search_golden_covers_63_instances(gates):
    assert gates["search"].ops_of(0) == 63


def test_tampered_golden_fails(gates):
    gate = gates["search"]
    golden = copy.deepcopy(gate.golden)
    golden[0]["stdout"] = golden[0]["stdout"].replace('"match": false', '"match": true', 1)
    argv = golden[0]["argv"] + ["--seed", str(SEED)]
    n, bad = Gate("search", golden).check(0, argv, 0, gate.golden[0]["stdout"])
    assert len(bad) == 1


def test_changed_output_fails_byte_comparison(gates):
    gate = gates["classify"]
    entry = gate.golden[3]
    argv = entry["argv"] + ["--seed", str(SEED)]
    n, bad = gate.check(3, argv, 0, entry["stdout"].replace("  ", "   ", 1))
    assert bad


def test_flipped_verdict_fails_implications(gates):
    gate = gates["search"]

    def flip(doc):  # semicommutative without weakly-semicommutative
        doc["results"][0]["verdicts"]["weakly-semicommutative"] = False

    golden = _rewrite(gate.golden, 0, flip)
    n, bad = _check_golden(gate, 0, golden)
    assert list(bad) == [0] and "weakly-semicommutative" in bad[0]


def test_flipped_classify_verdict_fails(gates):
    gate = gates["classify"]
    idx = next(i for i, e in enumerate(gate.golden)
               if '"holds": false' in e["stdout"])

    def flip(doc):
        for e in doc["results"]:
            if e.get("property") == "reduced-i":
                e["holds"], e["witness"] = True, None
            if e.get("property") == "semicommutative":
                e["holds"] = False

    n, bad = _check_golden(gate, idx, _rewrite(gate.golden, idx, flip))
    assert bad and "reduced-i holds but semicommutative does not" in bad[0]


def test_witness_that_does_not_replay_fails(gates):
    gate = gates["classify"]
    idx = next(i for i, e in enumerate(gate.golden)
               if '"holds": false' in e["stdout"])

    def corrupt(doc):
        for e in doc["results"]:
            if e.get("holds") is False:
                e["witness"]["a"] = 0  # the zero ring element violates nothing

    n, bad = _check_golden(gate, idx, _rewrite(gate.golden, idx, corrupt))
    assert bad and "does not replay" in bad[0]


def test_deferred_witness_that_does_not_replay_fails(gates):
    gate = gates["classify"]
    idx = next(i for i, e in enumerate(gate.golden)
               if '"holds": false' in e["stdout"])

    def corrupt(doc):
        for e in doc["results"]:
            if e.get("holds") is False:
                e["witness"]["a"] = 0

    golden = _rewrite(gate.golden, idx, corrupt)
    deferred = Gate("classify", golden, None, gate.config)
    entry = golden[idx]
    n, bad = deferred.check(idx, entry["argv"] + ["--seed", str(SEED)],
                            entry["exit_code"], entry["stdout"])
    assert bad == {} and len(deferred.deferred) == 1
    deferred.module_for = gate.module_for
    late = deferred.replay_deferred()
    assert list(late) == [idx] and "does not replay" in late[idx][0]


def test_settle_counts_a_late_failure_once():
    from worker import settle

    calls = [["classify", "x"], ["classify", "y"]]
    report = {"failed": 1, "failed_ops": [[0, 0]], "reasons": ["first"]}
    settle(report, {0: {0: "late"}, 1: {0: "late"}}, calls)
    assert report["failed"] == 2 and len(report["reasons"]) == 3


def test_registry_refutation_that_does_not_replay_fails(gates):
    gate = gates["registry"]
    doc = json.loads(gate.golden[0]["stdout"])
    refuted = [i for i, e in enumerate(doc["results"]) if e["status"] == "refuted"]
    assert len(refuted) == 2

    def corrupt(doc):
        w = doc["results"][refuted[0]]["detail"]["witness"]
        w["expect"] = not w.get("expect", True)

    n, bad = _check_golden(gate, 0, _rewrite(gate.golden, 0, corrupt))
    assert list(bad) == [refuted[0]] and "did not replay" in bad[refuted[0]]


def test_raising_op_counts_as_failed(gates, monkeypatch):
    from nilcomm import cli
    from worker import run_pass

    def broken(argv):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "main", broken)
    report = run_pass(spec.invocations("search", SEED), gates["search"])
    assert report["failed"] == report["ops"] == 63
    assert "RuntimeError" in report["reasons"][0]


def test_tracer_reports_every_metric_and_restores_bindings():
    from nilcomm import cli, deciders, harness, rings

    originals = (cli.main, deciders.decide, harness.run_check, rings.ZnRing.__init__)
    small = [["verify-paper", "--only", "theta_iso,lemma_squarefree", "--nmax", "30"],
             ["classify", "matmod(2, regular(Z(2)))", "--properties",
              spec.CLASSIFY_PROPERTIES],
             ["search", "zn", "--n", "2..6", "--pattern", spec.SEARCH_PATTERN]]
    for argv in small:
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main is not originals[0]
            run_cli(argv)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(1.0, 1.0)
        assert list(metrics) == [name for name, _, _ in spec.PER_LAYER]
        assert metrics["cli.self_s"] > 0 and metrics["dsl.parse_s"] >= 0
        assert metrics["rings.build_calls"] > 0
        assert all(span[2] >= span[1] for span in tracer.spans)
    assert (cli.main, deciders.decide, harness.run_check,
            rings.ZnRing.__init__) == originals


def _scaled_busy_time(seconds: float) -> float:
    """SpeedClock time of `seconds` of raw busy work."""
    from hostspeed import SpeedClock

    clock = SpeedClock(0.005)
    clock.start()
    try:
        start, end = clock.now(), time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return clock.now() - start
    finally:
        clock.stop()


def test_speed_clock_counts_slow_probes_as_a_slow_host(monkeypatch):
    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    normal = _scaled_busy_time(0.4)
    one = hostspeed.probe
    monkeypatch.setattr(hostspeed, "probe", lambda: (one(), one()))
    halved = _scaled_busy_time(0.4)
    # the same raw time counts about half when probes take twice as long;
    # wide limits, because the host's speed moves between the two
    assert 0.3 < halved / normal < 0.75
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _run(args, cwd):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    done = _run(["--workload", "search", "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [n for n, *_ in names]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "search", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_spec_names_match_the_engine():
    from nilcomm.deciders import MODULE_PROPERTIES
    from nilcomm.harness import registered_ids

    assert spec.MODULE_PROPERTIES == MODULE_PROPERTIES
    assert list(spec.CHECK_IDS) == registered_ids()
