import json
import os
import re
import signal
import time
from collections import Counter
from contextlib import contextmanager
from random import Random

import numpy as np
import pytest

import nilcomm.harness as harness
import nilcomm.modules as modules
import nilcomm.rings as rings
import oracle
from nilcomm import (
    FULL,
    AxiomError,
    HarnessOptions,
    InvalidParameterError,
    check_commutative_ring_prop,
    check_example_matrix,
    check_example_tn,
    check_example_tn_field,
    check_example_vn,
    check_example_zpn,
    check_hom_transfer,
    check_lemma_matrix_nil,
    check_lemma_squarefree,
    check_t_submodule,
    check_tor_t_sets,
    check_torsion_free_props,
    cyclic_submodule,
    elaborate_text,
    exit_code,
    check_ring_axioms,
    make_matrix_ring,
    make_poly_quotient_ring,
    make_product_module,
    make_product_ring,
    make_ring_hom,
    make_zn,
    matrix_module,
    MatrixShape,
    registered_ids,
    regular_module,
    reverify_refutation,
    run_all,
    run_check,
)
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.nilpotency import is_nilpotent_squared
from nilcomm.harness import DEFAULT_SAMPLES
from nilcomm.rings import ZnRing

from conftest import draw_ids, record_sampled_draws
from test_rings import _SkewZn

# the fixed inventory of registered claim checks
EXPECTED_CHECK_IDS = [
    "lemma_squarefree",
    "matrix_nil_coverage",
    "zpn_hierarchy",
    "matrix_semicommutativity",
    "tn_zpn_not_nil_semicommutative",
    "tn_field_not_nil_semicommutative",
    "vn_not_nil_semicommutative",
    "torsion_free_collapse",
    "criterion_equivalence",
    "submodule_equivalence",
    "commutative_nilpotency_transfer",
    "hom_transfer",
    "torsion_vs_regular_torsion",
    "t_set_submodule",
    "localization_wellformed",
    "localization_transfer",
    "nil_module_properties",
    "submodules_inherit",
    "quotient_by_torsion",
    "theta_iso",
]

EXPECTED_STATUSES = {
    "lemma_squarefree": "confirmed",
    "matrix_nil_coverage": "confirmed",
    "zpn_hierarchy": "confirmed",
    "matrix_semicommutativity": "confirmed",
    "tn_zpn_not_nil_semicommutative": "confirmed",
    "tn_field_not_nil_semicommutative": "confirmed",
    "vn_not_nil_semicommutative": "confirmed",
    "torsion_free_collapse": "confirmed",
    "criterion_equivalence": "confirmed",
    "submodule_equivalence": "confirmed",
    "commutative_nilpotency_transfer": "confirmed",
    "hom_transfer": "confirmed",
    "torsion_vs_regular_torsion": "confirmed",
    "t_set_submodule": "confirmed",
    "localization_wellformed": "confirmed",
    # the zero-divisor multiplicative set breaks the transfer biconditional
    "localization_transfer": "refuted",
    # the full 2x2 matrix module is nil yet not semicommutative
    "nil_module_properties": "refuted",
    "submodules_inherit": "confirmed",
    "quotient_by_torsion": "confirmed",
    "theta_iso": "confirmed",
}


@pytest.fixture(scope="module")
def suite_reports():
    return run_all(options=HarnessOptions(nmax=400, samples=300))


def test_registry_covers_claim_inventory():
    assert registered_ids() == EXPECTED_CHECK_IDS
    assert len(registered_ids()) >= 14


def test_suite_statuses(suite_reports):
    assert len(suite_reports) == len(EXPECTED_CHECK_IDS)
    for report in suite_reports:
        assert report.status == EXPECTED_STATUSES[report.check_id], report.check_id
        assert report.detail.get("reason") != "internal-error"


def test_refuted_reports_carry_replayable_witnesses(suite_reports):
    refuted = [r for r in suite_reports if r.status == "refuted"]
    assert len(refuted) == 2
    for report in refuted:
        assert "witness" in report.detail
        assert reverify_refutation(report)


def test_exit_codes(suite_reports):
    assert exit_code(suite_reports) == 2
    confirmed_only = [r for r in suite_reports if r.status == "confirmed"]
    assert exit_code(confirmed_only) == 0


def _cpus(monkeypatch, *cpus):
    """Let run_all see cpus as the CPUs this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def _counting_forks(monkeypatch) -> list:
    """The pids of the children os.fork starts from here on, in order."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def test_suite_is_deterministic(monkeypatch):
    opts = HarnessOptions(nmax=60, samples=50)
    only = ["lemma_squarefree", "zpn_hierarchy", "localization_transfer",
            "theta_iso"]
    first = [r.to_json_dict() for r in run_all(options=opts, only=only)]
    second = [r.to_json_dict() for r in run_all(options=opts, only=only)]
    assert first == second
    # serial on one CPU, the lemma in a helper process on two (whatever the
    # host has): the same reports
    forks = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 0)
    serial = [r.to_json_dict() for r in run_all(options=opts, only=only)]
    assert forks == []
    _cpus(monkeypatch, 0, 1)
    split = [r.to_json_dict() for r in run_all(options=opts, only=only)]
    assert len(forks) == 1
    assert serial == split == first


def test_only_a_mixed_selection_on_two_cpus_forks(monkeypatch):
    forks = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 0, 1)
    opts = HarnessOptions(nmax=30, samples=20)
    for only in (["lemma_squarefree"], ["theta_iso", "zpn_hierarchy"]):
        run_all(options=opts, only=only)
    assert forks == []
    mixed = ["lemma_squarefree", "theta_iso"]
    for missing in ("sched_getaffinity", "fork"):
        monkeypatch.delattr(os, missing)
        run_all(options=opts, only=mixed)
    assert forks == []


def _instances(monkeypatch, check_id, instances):
    """Give the registered check check_id the instance list instances."""
    monkeypatch.setitem(harness._REGISTRY, check_id,
                        harness._REGISTRY[check_id]._replace(instances=instances))


def test_a_helper_that_dies_gives_a_skipped_report_naming_its_status(monkeypatch, capsys):
    from nilcomm.cli import main

    _cpus(monkeypatch, 0, 1)
    argv = ["verify-paper", "--nmax", "60", "--samples", "50", "--format", "json"]
    assert main(argv) == 2
    before = json.loads(capsys.readouterr().out)["results"]
    parent = os.getpid()

    def dies(cfg, opts):  # in a helper process; raises if run here instead
        if os.getpid() == parent:
            raise RuntimeError("the lemma ran in the parent process")
        os._exit(3)

    _instances(monkeypatch, "lemma_squarefree", dies)
    forks = _counting_forks(monkeypatch)
    assert main(argv) == 1
    after = json.loads(capsys.readouterr().out)["results"]
    assert len(forks) == 1
    assert [r["check_id"] for r in after] == EXPECTED_CHECK_IDS
    assert (after[0]["status"], after[0]["detail"]) == ("skipped", {
        "reason": "internal-error",
        "error": "the helper process exited with status 3 and sent no report"})
    assert after[1:] == before[1:]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_helper_report_larger_than_a_pipe_buffer_arrives_whole(monkeypatch):
    _cpus(monkeypatch, 0, 1)
    forks = _counting_forks(monkeypatch)
    detail = {"reason": "padding", "filler": list(range(100_000))}  # about 0.5 MB pickled
    _instances(monkeypatch, "lemma_squarefree",
               lambda cfg, opts: [harness._skipped("lemma_squarefree", detail)])
    lemma, theta = run_all(only=["lemma_squarefree", "theta_iso"])
    assert len(forks) == 1
    assert (lemma.status, lemma.detail) == ("skipped", detail)
    assert theta.status == "confirmed"


def test_run_all_leaves_no_helper_process(monkeypatch):
    _cpus(monkeypatch, 0, 1)
    forks = _counting_forks(monkeypatch)
    ended, waitpid = [], os.waitpid

    def recording(pid, options):  # each reaped child's wait status
        done = waitpid(pid, options)
        ended.append(done[1])
        return done

    monkeypatch.setattr(os, "waitpid", recording)
    only = ["lemma_squarefree", "theta_iso"]
    run_all(only=only)
    assert len(forks) == 1 and os.WEXITSTATUS(ended[-1]) == 0
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)

    def interrupted(cfg, opts):
        raise KeyboardInterrupt

    # the parent leaves while the helper still runs its check, which would
    # take a minute: the helper is killed, then reaped
    _instances(monkeypatch, "lemma_squarefree", lambda cfg, opts: time.sleep(60))
    _instances(monkeypatch, "theta_iso", interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_all(only=only)
    assert time.perf_counter() - start < 30
    assert len(forks) == 2 and os.WTERMSIG(ended[-1]) == signal.SIGKILL
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)


def test_the_helper_flushes_no_inherited_buffer_and_runs_no_exit_hook(monkeypatch, tmp_path):
    import atexit

    _cpus(monkeypatch, 0, 1)
    forks = _counting_forks(monkeypatch)
    parent = os.getpid()

    def hook():  # a child that ran it would leave its mark
        if os.getpid() != parent:
            (tmp_path / "hook").write_text("ran")

    atexit.register(hook)
    try:
        with open(tmp_path / "buffered", "w") as out:
            out.write("written once")  # still in this process's buffer at the fork
            run_all(options=HarnessOptions(nmax=30, samples=20),
                    only=["lemma_squarefree", "theta_iso"])
    finally:
        atexit.unregister(hook)
    assert len(forks) == 1
    assert (tmp_path / "buffered").read_text() == "written once"
    assert not (tmp_path / "hook").exists()


def test_run_all_selection():
    reports = run_all(only=["lemma_squarefree"],
                      options=HarnessOptions(nmax=50))
    assert len(reports) == 1
    assert reports[0].check_id == "lemma_squarefree"
    with pytest.raises(InvalidParameterError):
        run_all(only=["no_such_check"])
    with pytest.raises(InvalidParameterError):
        run_check("no_such_check")


def test_lemma_squarefree_small():
    report = check_lemma_squarefree(100)
    assert report.status == "confirmed"
    assert report.detail["checked"] == 99
    assert report.detail["mismatches"] == []


def test_matrix_nil_modes(m4z2_module):
    full = check_lemma_matrix_nil(2, make_zn(2), regular_module(make_zn(2)))
    assert full.status == "confirmed"
    assert full.detail["mode"] == "full"
    assert full.detail["nil_size"] == 16

    sampled = check_lemma_matrix_nil(4, make_zn(2), regular_module(make_zn(2)),
                                     sample=250)
    assert sampled.status == "confirmed"
    assert sampled.detail["mode"] == "sampled-witness"
    assert sampled.detail["passes"] == 250


def test_the_matrix_nil_sample_refuses_a_module_with_no_nonzero_element():
    z2 = make_zn(2)
    zero = cyclic_submodule(regular_module(z2), 0)
    full = check_lemma_matrix_nil(2, z2, zero)
    assert (full.status, full.detail["size"]) == ("confirmed", 1)
    # the draw of nonzero ids would never end
    with pytest.raises(InvalidParameterError, match=re.escape(
            "matmod(2, cyclic(regular(Z(2)), 0)): no nonzero element to sample")):
        check_lemma_matrix_nil(2, z2, zero, sample=3)


@pytest.mark.parametrize("samples", [0, -3])
def test_sample_counts_below_one_are_rejected(samples):
    # a count below one would confirm the 4x4 nil claim on no replays
    with pytest.raises(InvalidParameterError):
        HarnessOptions(samples=samples)
    with pytest.raises(InvalidParameterError):
        check_lemma_matrix_nil(4, make_zn(2), regular_module(make_zn(2)),
                               sample=samples)
    with pytest.raises(InvalidParameterError):
        check_example_matrix(4, 2, sample=samples)


def test_nmax_below_two_is_rejected():
    # Z(2) is the least modulus; nmax 1 would confirm on no moduli at all
    with pytest.raises(InvalidParameterError):
        HarnessOptions(nmax=1)
    with pytest.raises(InvalidParameterError):
        check_lemma_squarefree(1)
    assert check_lemma_squarefree(2).detail["checked"] == 1


def test_zpn_instances():
    for p, n in ((2, 2), (3, 2), (2, 3), (5, 2)):
        report = check_example_zpn(p, n)
        assert report.status == "confirmed", (p, n)
        assert report.detail["pinned_triple"]["verified"]
    with pytest.raises(InvalidParameterError):
        check_example_zpn(3, 1)


def test_matrix_example_n2_and_n4():
    small = check_example_matrix(2, 2)
    assert small.status == "confirmed"
    assert small.detail["full"]["nil_semicommutative"]["holds"] is True
    assert small.detail["full"]["semicommutative_observed"]["holds"] is False

    big = check_example_matrix(4, 2, sample=200)
    assert big.status == "confirmed"
    replay = big.detail["replay"]
    assert replay["ak_is_zero"] and replay["alk_matches"]
    assert replay["alk_single_entry_at"] == [1, 4]


def test_counterexample_checks():
    for fn in (check_example_tn, check_example_tn_field, check_example_vn):
        report = fn(2, 2)
        assert report.status == "confirmed", fn.__name__
        assert report.detail["full_verdict"]["holds"] is False
        assert report.detail["replay_witness"]["verified"]
        assert report.detail["nil_certificate"]["verified"]


def test_torsion_free_props_skip_and_confirm():
    confirmed = check_torsion_free_props(regular_module(make_zn(5)))
    assert confirmed.status == "confirmed"
    skipped = check_torsion_free_props(regular_module(make_zn(4)))
    assert skipped.status == "skipped"
    assert "torsion-free" in skipped.detail["reason"]


def test_commutative_ring_prop_shapes():
    confirmed = check_commutative_ring_prop(make_zn(6))
    assert confirmed.status == "confirmed"
    assert confirmed.detail["hypothesis"] is True

    z8 = check_commutative_ring_prop(make_zn(8))
    assert z8.status == "skipped"
    assert z8.detail["hypothesis"] is False
    assert z8.detail["implication_ok"] is False  # recorded even when skipped

    z4 = check_commutative_ring_prop(make_zn(4))
    assert z4.status == "skipped"
    assert z4.detail["hypothesis"] is False

    with pytest.raises(InvalidParameterError):
        check_commutative_ring_prop(
            make_matrix_ring(MatrixShape("full", 2), make_zn(2)))


def test_hom_transfer_shapes():
    from nilcomm import zn_reduction_hom, identity_hom

    both_fail = check_hom_transfer(zn_reduction_hom(8, 4),
                                   regular_module(make_zn(4)))
    assert both_fail.status == "confirmed"
    assert both_fail.detail["target_verdict"]["holds"] is False
    assert both_fail.detail["source_verdict"]["holds"] is False

    ident = check_hom_transfer(identity_hom(make_zn(3)),
                               regular_module(make_zn(3)))
    assert ident.status == "confirmed"

    z2 = make_zn(2)
    pair = make_product_ring([make_zn(2), make_zn(2)])
    diag = make_ring_hom(z2, pair, lambda a: a * 2 + a)
    skipped = check_hom_transfer(diag, regular_module(pair))
    assert skipped.status == "skipped"


def test_tor_t_and_t_submodule_checks():
    assert check_tor_t_sets().status == "confirmed"
    assert check_t_submodule(regular_module(make_zn(3))).status == "confirmed"
    not_domain = check_t_submodule(regular_module(make_zn(6)))
    assert not_domain.status == "skipped"


def test_internal_error_becomes_skipped_report(monkeypatch):
    import inspect

    import nilcomm.harness as harness

    def boom(cfg, opts):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(harness._REGISTRY, "theta_iso",
                        harness._CheckDef("theta_iso",
                                          harness._REGISTRY["theta_iso"].claim,
                                          boom))
    report = run_check("theta_iso")
    assert report.status == "skipped"
    assert report.detail["reason"] == "internal-error"
    assert report.detail["error"] == "RuntimeError: synthetic failure"
    # the innermost frame: the raise in boom
    assert report.detail["at"] == f"test_harness.py:{inspect.getsourcelines(boom)[1] + 1}"
    assert exit_code([report]) == 1


def test_runtime_is_measured_but_suppressed_in_serialization(suite_reports):
    some = suite_reports[0]
    assert some.runtime_ms >= 0
    assert some.to_json_dict()["runtime_ms"] == 0
    assert some.to_json_dict(timing=True)["runtime_ms"] == some.runtime_ms


def test_zero_cap_skips_full_scans_but_keeps_witness_checks():
    cfg = DEFAULT_CONFIG.with_overrides(decision_cap=0)
    opts = HarnessOptions(nmax=40, samples=40)
    skipped = run_all(cfg, opts, only=["zpn_hierarchy", "theta_iso"])
    assert all(r.status == "skipped" for r in skipped)
    assert all(r.detail["reason"].startswith("cap") for r in skipped)
    witness_mode = run_all(cfg, opts, only=["matrix_nil_coverage",
                                            "lemma_squarefree"])
    by_id = {r.check_id: r for r in witness_mode}
    assert by_id["lemma_squarefree"].status == "confirmed"
    nil_cov = by_id["matrix_nil_coverage"]
    assert nil_cov.status == "confirmed"
    modes = [inst["detail"]["mode"]
             for inst in nil_cov.detail["instances"]]
    assert set(modes) == {"sampled-witness"}


def test_localization_wellformed_serializes_class_tables(suite_reports):
    report = next(r for r in suite_reports
                  if r.check_id == "localization_wellformed")
    table = report.detail["ring"]["class_table"]
    assert table == [[0, 1], [1, 1], [2, 1]]


# ---------------------------------------------------------------------------
# The batched single-unit nil replay against the per-sample loop


@pytest.mark.parametrize("shape_n, base_n, seed", [(4, 2, 1729), (4, 2, 7), (3, 3, 1729)])
def test_batched_nil_replay_matches_the_per_sample_loop(shape_n, base_n, seed):
    cfg = DEFAULT_CONFIG.with_overrides(seed=seed)
    base = make_zn(base_n, cfg)
    base_module = regular_module(base, cfg)
    module = matrix_module(MatrixShape(FULL, shape_n), base, base_module, cfg)
    assert module.ring.size * module.size > cfg.decision_cap  # the sampled path
    detail = check_lemma_matrix_nil(shape_n, base, base_module, config=cfg).detail
    passes, failures = oracle.matrix_nil_replay(module, base, base_module,
                                                DEFAULT_SAMPLES, seed)
    assert detail["mode"] == "sampled-witness"
    assert (detail["samples"], detail["passes"], detail["failures"]) == (
        DEFAULT_SAMPLES, passes, failures)
    assert failures == []


def test_batched_nil_replay_reports_planted_failures_in_draw_order(monkeypatch):
    base = make_zn(3)
    base_module = regular_module(base)
    module = matrix_module(MatrixShape(FULL, 3), base, base_module)
    vact, zero = module.vact, module.zero
    # the planted defect: every element whose id is a multiple of 5 is
    # killed by the whole ring, so its witness unit r gives r*m = 0 (the
    # pointwise act reads vact, so it carries the defect too)
    module.vact = lambda r, m: np.where(np.asarray(m) % 5 == 0, zero, vact(r, m))
    monkeypatch.setattr(harness, "matrix_module", lambda *args: module)
    report = check_lemma_matrix_nil(3, base, base_module, sample=400)
    passes, failures = oracle.matrix_nil_replay(module, base, base_module, 400,
                                                DEFAULT_CONFIG.seed)
    ms = [f["m"] for f in failures]
    assert ms and all(m % 5 == 0 for m in ms) and ms != sorted(ms)
    assert (report.detail["samples"], report.detail["passes"],
            report.detail["failures"]) == (400, passes, failures)
    assert report.status == "refuted"
    assert report.detail["witness"]["m"] == ms[0]


# ---------------------------------------------------------------------------
# The intern table of one run_all


def _inside_run(monkeypatch, build):
    """build(cfg)'s result, called as a registered check inside run_all."""
    out = []

    def check(cfg, opts):
        out.append(build(cfg))
        return [harness._report("theta_iso", {})]

    monkeypatch.setitem(harness._REGISTRY, "theta_iso", harness._CheckDef(
        "theta_iso", harness._REGISTRY["theta_iso"].claim, check))
    [report] = run_all(only=["theta_iso"])
    assert report.status == "confirmed", report.detail
    return out[0]


def _every_constructor(cfg):
    z2, z4 = make_zn(2, cfg), make_zn(4, cfg)
    return [z2, z4, regular_module(z2, cfg),
            make_matrix_ring(MatrixShape(FULL, 2), z2, cfg),
            matrix_module(MatrixShape(FULL, 2), z2, regular_module(z2, cfg), cfg),
            make_product_ring([z2, z4], cfg),
            make_poly_quotient_ring(z2, 3, cfg),
            make_product_module((regular_module(z4, cfg), regular_module(z4, cfg)), cfg)]


def _count_validations(monkeypatch) -> Counter:
    validated = Counter()
    for owner, name in ((rings, "check_ring_axioms"), (modules, "check_module_axioms")):
        def counting(structure, *args, _original=getattr(owner, name), **kwargs):
            validated[type(structure), structure.descriptor, structure.config] += 1
            return _original(structure, *args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return validated


def test_run_all_builds_and_validates_each_key_once(monkeypatch):
    validated = _count_validations(monkeypatch)
    first, second, same_config, other_config = _inside_run(monkeypatch, lambda cfg: (
        _every_constructor(cfg), _every_constructor(cfg),
        _every_constructor(cfg.with_overrides()),  # equal, not identical
        _every_constructor(cfg.with_overrides(seed=7))))
    assert all(a is b is c for a, b, c in zip(first, second, same_config))
    assert not any(a is b for a, b in zip(first, other_config))
    assert len({id(s) for s in first}) == len(first)
    assert first[4].ring is first[3] and first[2].ring is first[0]
    assert set(validated.values()) == {1}
    # one per key at each seed: the eight structures and the factor regular(Z(4))
    assert len(validated) == 2 * (len(first) + 1)


def test_run_all_validates_the_4x4_structures_once(monkeypatch):
    validated = _count_validations(monkeypatch)
    run_all(options=HarnessOptions(samples=50),
            only=["matrix_nil_coverage", "matrix_semicommutativity"])
    counts = {desc: n for (_, desc, _), n in validated.items()}
    assert counts["M(4, Z(2))"] == counts["matmod(4, regular(Z(2)))"] == 1


def test_constructors_build_afresh_outside_run_all():
    structures = [_every_constructor(DEFAULT_CONFIG) for _ in range(2)]
    assert not any(a is b for a, b in zip(*structures))


def test_a_failed_build_leaves_no_entry(monkeypatch):
    def build_twice(cfg):
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidParameterError) as err:
                make_zn(1, cfg)
            messages.append(str(err.value))
        return messages

    first, second = _inside_run(monkeypatch, build_twice)
    assert first == second == "Z(n) needs n >= 2, got 1"


def test_directly_built_classes_are_not_interned(monkeypatch):
    clean, skew, again = _inside_run(monkeypatch, lambda cfg: (
        make_zn(50, cfg), _SkewZn(50, cfg), make_zn(50, cfg)))
    assert again is clean and skew is not clean
    assert (clean.mul(2, 3), skew.mul(2, 3)) == (6, 7)
    with pytest.raises(AxiomError):
        check_ring_axioms(skew)


def test_reports_do_not_depend_on_earlier_checks(suite_reports):
    # each check alone, in its own run, reports what it did in the full run
    opts = HarnessOptions(nmax=400, samples=300)
    for report in suite_reports:
        [alone] = run_all(options=opts, only=[report.check_id])
        assert alone.to_json_dict() == report.to_json_dict(), report.check_id


@pytest.mark.parametrize("expr", ["regular(Z(12))", "trimod(2, regular(Z(4)))",
                                  "induced(zred(8, 4), regular(Z(4)))"])
def test_cyclic_submodules_in_element_order_with_their_generators(expr):
    module = elaborate_text(expr)
    got = [(sub.descriptor, sub.embedding, gens)
           for sub, gens in harness._cyclic_submodules(module, module.config)]
    # one submodule per distinct orbit, at its least generator
    want = {}
    for m in module.elements():
        key = tuple(sorted({module.act(r, m) for r in module.ring.elements()}))
        want.setdefault(key, (f"cyclic({module.descriptor}, {m})", key, []))[2].append(m)
    assert got == list(want.values())


@pytest.mark.parametrize("witness,message", [
    # at expect False, a replay of the id -2 (read as 2) used to succeed
    ({"kind": "nilpotent-element", "descriptor": "regular(Z(4))", "m": -2,
      "expect": False}, "element -2 is not in regular(Z(4)) (size 4)"),
    ({"kind": "annihilator", "descriptor": "regular(Z(4))", "r": 1, "m": 9,
      "expect_zero": False}, "element 9 is not in regular(Z(4)) (size 4)"),
    ({"kind": "annihilator", "descriptor": "regular(Z(4))", "r": 5, "m": 1,
      "expect_zero": False}, "element 5 is not in Z(4) (size 4)"),
])
def test_a_witness_naming_no_element_does_not_replay(witness, message):
    with pytest.raises(InvalidParameterError) as exc:
        reverify_refutation(witness)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The light Z(n) of lemma_squarefree, validated in groups

_LIGHT = harness._light_config(DEFAULT_CONFIG)


def _planted(hook, n, x, y):
    """ZnRing's hook with one planted defect: at (x, y) in Z(n) it gains 1.
    It reads self.n elementwise, so it also serves a column of moduli."""
    base = getattr(ZnRing, hook)
    return lambda self, a, b: (base(self, a, b) + (self.n == n) * (a == x) * (b == y)) % self.n


# (n, hook, x, y, the failure it plants): n = 30 is checked exhaustively, its
# module taking the ring's scan; up to 64 every id is a spot id, so the
# module's spot laws repeat the ring's; the module's families draw other rows
_PLANTS = [
    (30, "_vmul", 0, 1, "Z(30): one is not a multiplicative identity at 0"),
    (30, "_vmul", 0, 0, "Z(30): right distributivity fails at (0, 0, 0)"),
    (53, "_vmul", 0, 1, "Z(53): one is not a multiplicative identity at 0"),
    (53, "_vmul", 0, 4, "Z(53): right distributivity fails"),
    (53, "_vadd", 1, 6, "regular(Z(53)): module addition not commutative"),
    (53, "_vmul", 0, 0, "regular(Z(53)): (r+s)m != rm+sm"),
    (53, "_vmul", 0, 3, "regular(Z(53)): r(m+n) != rm+rn"),
    (97, "_vmul", 1, 1, "Z(97): one is not a multiplicative identity at 1"),
    (97, "_vmul", 1, 47, "Z(97): mul not associative"),
    (97, "_vmul", 1, 0, "regular(Z(97)): act(1, m) != m at m=0"),
    (97, "_vadd", 2, 71, "regular(Z(97)): module addition not associative"),
    (97, "_vmul", 0, 13, "regular(Z(97)): (rs)m != r(sm)"),
    (97, "_vmul", 0, 18, "regular(Z(97)): r(m+n) != rm+rn"),
]


@pytest.mark.parametrize("n, hook, x, y, failure", _PLANTS)
def test_a_planted_defect_in_a_group_reports_the_per_structure_error(
        monkeypatch, n, hook, x, y, failure):
    monkeypatch.setattr(ZnRing, hook, _planted(hook, n, x, y))
    opts = HarnessOptions(nmax=n + 20)
    grouped = run_check("lemma_squarefree", options=opts)
    # the loop of per-structure builds and checks that the groups replace
    monkeypatch.setattr(harness, "regular_zn_modules", lambda ns, cfg: (
        [harness._reg_zn(n, cfg)] for n in ns))
    alone = run_check("lemma_squarefree", options=opts)
    assert alone.status == "skipped" and alone.detail["reason"] == "internal-error"
    assert alone.detail["error"].startswith("AxiomError: " + failure)
    # the same message, raised at the same line
    assert (grouped.status, grouped.detail) == (alone.status, alone.detail)


def test_groups_take_each_structures_own_draw(monkeypatch):
    groups, grouped_rows = [], rings.grouped_rows
    monkeypatch.setattr(rings, "grouped_rows", lambda group: (
        groups.append(group), grouped_rows(group))[1])
    assert check_lemma_squarefree(200).status == "confirmed"
    checked = {s.descriptor: (s, r) for group in groups for s, r in group}
    assert len(checked) == 2 * 160  # Z(41)..Z(200) and their regular modules
    for n in (41, 64, 65, 200):
        for desc, sizes in ((f"Z({n})", [(n, n, n)]),
                            (f"regular(Z({n}))", [(n, n, n)] * 3)):
            rng = Random(rings._stable_seed(_LIGHT, desc))
            drawn = [draw_ids(rng, 64, *f) for f in [(n,)] * (n > 64) + sizes]
            want = drawn if n > 64 else [np.arange(n)[:, None], *drawn]
            got = rings.sampled_rows(*checked[desc], 64)
            assert [r.tolist() for r in got] == [w.tolist() for w in want], desc
    # each group's stages are its structures' own rows, concatenated
    for group in groups:
        rows = [rings.sampled_rows(s, r, 64) for s, r in group]
        for (block, _), stage in zip(grouped_rows(group), zip(*rows)):
            assert block.tolist() == np.concatenate(stage).tolist()
    # a per-structure check of the same ring hands first_broken the same rows
    first_broken_rows, _ = record_sampled_draws(monkeypatch)
    check_ring_axioms(ZnRing(65, _LIGHT, validate=False))
    assert first_broken_rows == [r.tolist() for r in rings.sampled_rows(*checked["Z(65)"], 64)]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("regular", [False, True])
@pytest.mark.parametrize("ns, dtype", [
    ((41, 63, 64, 65, 200, 997, 1000), np.int32),
    ((41, 46340), np.int32),  # 46340^2 < 2^31
    ((41, 46341), np.int64),  # 46341^2 > 2^31
])
def test_a_mixed_group_gathers_each_structures_sampled_rows(seed, regular, ns, dtype):
    # up to 64 elements every id is a spot id; above, 64 drawn ones
    cfg = _LIGHT.with_overrides(seed=seed)
    zs = [ZnRing(n, cfg, validate=False) for n in ns]
    group = [(modules.RegularModule(z, cfg, validate=False) if regular else z, z) for z in zs]
    rows = [rings.sampled_rows(s, r, 64) for s, r in group]
    stages = rings.grouped_rows(group)
    assert len(stages) == len(rows[0]) == (4 if regular else 2)
    for (block, moduli), stage in zip(stages, zip(*rows)):
        assert block.dtype == moduli.dtype == dtype
        assert block.tolist() == np.concatenate(stage).tolist()
        assert moduli.tolist() == [z.n for z, part in zip(zs, stage) for _ in part]
    # no product of two ids overflows: every law holds
    assert rings.zn_laws_hold(group)


def test_only_the_exhaustive_z_n_are_checked_one_at_a_time(monkeypatch):
    validated = _count_validations(monkeypatch)
    holds, zn_laws_hold = [], modules.zn_laws_hold
    monkeypatch.setattr(modules, "zn_laws_hold", lambda checks: (
        holds.append(len(checks)), zn_laws_hold(checks))[1])
    assert check_lemma_squarefree(200).status == "confirmed"
    assert sorted({desc for _, desc, _ in validated}) == sorted(
        [f"Z({n})" for n in range(2, 41)] + [f"regular(Z({n}))" for n in range(2, 41)])
    # groups of 73 pairs: 65536 ids / (14 ids a row * 64 rows)
    assert holds == [2 * 73, 2 * 73, 2 * 14]


def test_a_subclass_with_its_own_arithmetic_is_not_grouped():
    skew, plain = _SkewZn(50, _LIGHT), ZnRing(50, _LIGHT, validate=False)
    assert rings.zn_laws_hold([(plain, plain)])
    assert not rings.zn_laws_hold([(plain, plain), (skew, skew)])


def test_run_all_interns_no_light_z_n(monkeypatch):
    _cpus(monkeypatch, 0)  # the lemma in this process, beside the table
    tables = []

    @contextmanager
    def keeping():  # rings.interning, its table kept past the block
        with rings.interning():
            tables.append(rings._built.get())
            yield

    monkeypatch.setattr(harness, "interning", keeping)
    reports = run_all(options=HarnessOptions(nmax=200, samples=50))
    assert reports[0].detail["checked"] == 199
    # the light Z(n) are built afresh and dropped: no key holds their config
    [table] = tables
    assert "regular(Z(2))" in {s.descriptor for s in table.values()}
    assert _LIGHT not in {key[-1] for key in table}
    assert not any(s.config == _LIGHT for s in table.values())


@pytest.mark.parametrize("hook, x, y, ring_fails", [("_vmul", 1, 1, True),
                                                    ("_vmul", 1, 0, False)])
def test_a_failing_group_interns_nothing_past_the_failure(monkeypatch, hook, x, y, ring_fails):
    monkeypatch.setattr(ZnRing, hook, _planted(hook, 97, x, y))
    with rings.interning():
        with pytest.raises(AxiomError, match=re.escape(
                "Z(97): one is not a multiplicative identity at 1" if ring_fails
                else "regular(Z(97)): act(1, m) != m at m=0")):
            check_lemma_squarefree(120)
        assert rings._built.get() == {}


# ---------------------------------------------------------------------------
# The squared criterion of lemma_squarefree, one pass a group


def test_one_squared_pass_a_group_equals_the_per_structure_criterion():
    groups = list(modules.regular_zn_modules(range(2, 1001), _LIGHT))
    assert [len(group) for group in groups] == [39] + [73] * 13 + [11]
    reg = [module for group in groups for module in group]
    least = [t for group in groups for t in harness._one_is_nilpotent(group)]
    assert least == [is_nilpotent_squared(module, 1) for module in reg]
    # one group of every n in 2..1000 misses no t of any column
    assert harness._one_is_nilpotent(reg[::7]) == least[::7]
    # on both sides of the int32 rule; 46340 = 2^2 * 5 * 7 * 331, 46341 = 3^2 * 19 * 271
    wide = [harness._reg_zn(n, _LIGHT) for n in (46340, 46341)]
    assert harness._one_is_nilpotent(wide) == [(True, 23170), (True, 15447)]


def test_a_column_of_the_squared_pass_sees_only_its_own_elements(monkeypatch):
    # 150 * 150 = 0 planted in Z(97), where 150 is no element: a pass over
    # t < 200 must not find that t for the column of Z(97)
    vmul = ZnRing._vmul
    monkeypatch.setattr(ZnRing, "_vmul", lambda self, a, b: np.where(
        (self.n == 97) & (a == 150) & (b == 150), 0, vmul(self, a, b)))
    group = [harness._reg_zn(97, _LIGHT), harness._reg_zn(200, _LIGHT)]
    assert harness._one_is_nilpotent(group) == [(False, None), (True, 20)]
    assert [is_nilpotent_squared(m, 1) for m in group] == [(False, None), (True, 20)]


def test_only_groups_of_z_n_with_their_own_arithmetic_share_the_pass(monkeypatch):
    skew = modules.RegularModule(_SkewZn(50, _LIGHT), _LIGHT, validate=False)
    plain = [harness._reg_zn(12, _LIGHT), harness._reg_zn(49, _LIGHT),
             regular_module(make_zn(8)), harness._reg_zn(50, _LIGHT)]
    alone, one_each = [], harness.is_nilpotent_squared
    monkeypatch.setattr(harness, "is_nilpotent_squared", lambda module, m: (
        alone.append(module), one_each(module, m))[1])
    # a group of ZnRing's own arithmetic, a tabulated Z(8) among them, in one pass
    assert harness._one_is_nilpotent(plain) == [one_each(m, 1) for m in plain]
    assert alone == []
    # a group holding a subclass with arithmetic of its own, one module at a time
    mixed = [*plain[:2], skew, *plain[2:]]
    assert harness._one_is_nilpotent(mixed) == [one_each(m, 1) for m in mixed]
    assert alone == mixed
    assert one_each(skew, 1) != one_each(harness._reg_zn(50, _LIGHT), 1)


def test_a_planted_criterion_defect_reports_as_the_per_structure_loop(monkeypatch):
    # 161^2 = -1 in Z(997), so the planted 161 * 161 = 0 makes 1 nilpotent
    monkeypatch.setattr(ZnRing, "_vmul", _planted("_vmul", 997, 161, 161))
    grouped = check_lemma_squarefree(1000)
    # the loop of per-structure builds and criterion calls that the groups replace
    monkeypatch.setattr(harness, "regular_zn_modules", lambda ns, cfg: (
        [harness._reg_zn(n, cfg)] for n in ns))
    monkeypatch.setattr(harness, "_one_is_nilpotent", lambda group: [
        is_nilpotent_squared(module, 1) for module in group])
    alone = check_lemma_squarefree(1000)
    assert grouped.status == "refuted"
    assert grouped.detail["mismatches"] == [
        {"n": 997, "nilpotent": True, "square_free": True, "witness": 161}]
    assert (grouped.status, grouped.detail) == (alone.status, alone.detail)
    assert reverify_refutation(grouped)
