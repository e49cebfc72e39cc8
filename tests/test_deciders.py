import itertools
import json

import pytest

from nilcomm import (
    DecisionCapError,
    check_submodule_equivalence,
    is_nil_semicommutative,
    is_reduced_i,
    is_reduced_ii,
    is_semicommutative,
    is_weakly_semicommutative,
    cyclic_submodule,
    make_matrix_ring,
    make_zn,
    MatrixShape,
    nil_set,
    ring_is_nil_semicommutative,
    ring_is_semicommutative,
    verify_nonsemicommutative_witness,
    verify_not_nil_semicommutative_witness,
)
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.deciders import MODULE_PROPERTIES, PROP_NIL_SEMI, PROP_SEMICOMMUTATIVE, decide
from nilcomm.rings import FULL, UPPER

from conftest import mat_mod, zn_module


def brute_min_violation(module, trigger, violates):
    """Independent scan; first hit in (a, m, r) order is the minimum."""
    for a in module.ring.elements():
        for m in module.elements():
            if not trigger(a, m):
                continue
            for r in module.ring.elements():
                if violates(a, r, m):
                    return (a, m, r)
    return None


def test_z4_verdicts(z4_module):
    assert is_semicommutative(z4_module).holds is True
    assert is_weakly_semicommutative(z4_module).holds is True
    nil = is_nil_semicommutative(z4_module)
    assert nil.holds is False
    assert nil.witness == (1, 2, 1)
    assert nil.method == "exhaustive"
    red1 = is_reduced_i(z4_module)
    assert red1.holds is False and red1.witness == (2, 1, 1)
    red2 = is_reduced_ii(z4_module)
    assert red2.holds is False and red2.witness == (2, 1, 2)
    assert "a*x = r*m" in red2.explanation


def test_fields_and_squarefree_hold_everything(z6_module):
    for module in (zn_module(3), zn_module(5), z6_module):
        for prop in MODULE_PROPERTIES:
            assert decide(module, prop).holds is True


def test_m2z2_verdicts(m2z2_module):
    semi = is_semicommutative(m2z2_module)
    assert semi.holds is False
    assert semi.witness == (1, 2, 4)  # (e22, e21, e12) in the canonical encoding
    assert is_nil_semicommutative(m2z2_module).holds is True
    assert is_weakly_semicommutative(m2z2_module).holds is True


def test_counterexample_modules_fail_nil_semicommutativity(
        t2z2_module, t2z4_module, v2z2_module):
    for module in (t2z2_module, t2z4_module, v2z2_module):
        assert is_nil_semicommutative(module).holds is False


def test_witness_minimality_matches_brute_force(z4_module, m2z2_module):
    nils4 = nil_set(z4_module)
    got = decide(z4_module, PROP_NIL_SEMI)
    act = z4_module.act
    expected = brute_min_violation(
        z4_module,
        lambda a, m: act(a, m) in nils4,
        lambda a, r, m: act(a, act(r, m)) not in nils4)
    a, m, r = expected
    assert got.witness == (a, r, m)

    act2 = m2z2_module.act
    zero = m2z2_module.zero
    expected2 = brute_min_violation(
        m2z2_module,
        lambda a, m: act2(a, m) == zero,
        lambda a, r, m: act2(a, act2(r, m)) != zero)
    a, m, r = expected2
    assert decide(m2z2_module, PROP_SEMICOMMUTATIVE).witness == (a, r, m)


def test_repeated_decisions_are_identical(t2z4_module):
    # the shared module (nil set cached after the first call) and two fresh
    # builds of it must give the same verdict bytes
    modules = (t2z4_module, mat_mod(UPPER, 2, 4), mat_mod(UPPER, 2, 4))
    results = [json.dumps(decide(m, PROP_NIL_SEMI, DEFAULT_CONFIG).to_json_dict())
               for m in modules]
    assert results[0] == results[1] == results[2]
    assert json.loads(results[0])["holds"] is False


def test_zero_module_holds_everything(z4_module):
    zero_mod = cyclic_submodule(z4_module, 0)
    for prop in MODULE_PROPERTIES:
        assert decide(zero_mod, prop).holds is True


def test_witness_only_mode_above_cap(m4z2_module):
    verdict = decide(m4z2_module, PROP_SEMICOMMUTATIVE, mode="auto")
    assert verdict.holds is None
    assert verdict.method == "witness-only"

    ring = m4z2_module.ring
    one = ring.base.one
    a_grid = [[0] * 4 for _ in range(4)]
    a_grid[0][1] = one
    a_grid[0][2] = ring.base.neg(one)
    A = ring.from_entries(a_grid)
    k_grid = [[0] * 4 for _ in range(4)]
    k_grid[1][3] = 1
    k_grid[2][3] = 1
    K = m4z2_module.from_entries(k_grid)
    L = ring.unit(1, 2, one)
    hinted = decide(m4z2_module, PROP_SEMICOMMUTATIVE, mode="auto",
                    witness_hint=(A, L, K))
    assert hinted.holds is False
    assert hinted.method == "witness-only"
    assert hinted.witness == (A, L, K)


def test_exhaustive_mode_raises_above_cap(m4z2_module):
    with pytest.raises(DecisionCapError):
        decide(m4z2_module, PROP_SEMICOMMUTATIVE, mode="exhaustive")


def test_sampled_mode_is_labeled_and_deterministic(z4_module):
    first = decide(z4_module, PROP_NIL_SEMI, sample=400)
    second = decide(z4_module, PROP_NIL_SEMI, sample=400)
    assert first.method == "sampled"
    assert first.to_json_dict() == second.to_json_dict()
    assert first.holds is False  # violations are dense enough to hit

    clean = decide(zn_module(3), PROP_NIL_SEMI, sample=50)
    assert clean.holds is None
    assert clean.method == "sampled"


def test_ring_deciders():
    for n in (4, 6, 9, 12):
        ring = make_zn(n)
        assert ring_is_semicommutative(ring).holds is True
        assert ring_is_nil_semicommutative(ring).holds is True
    m2 = make_matrix_ring(MatrixShape(FULL, 2), make_zn(2))
    bad = ring_is_semicommutative(m2)
    assert bad.holds is False
    a, r, b = bad.witness
    assert m2.mul(a, b) == m2.zero
    assert m2.mul(a, m2.mul(r, b)) != m2.zero
    t2 = make_matrix_ring(MatrixShape("upper", 2), make_zn(2))
    assert ring_is_nil_semicommutative(t2).holds is True


def test_ring_deciders_follow_the_ring_config():
    # 125 triples: past a cap of 100, so only force lets the scan run
    forced = make_zn(5, DEFAULT_CONFIG.with_overrides(decision_cap=100, force=True))
    assert ring_is_semicommutative(forced).holds is True
    assert ring_is_nil_semicommutative(forced).holds is True
    capped = make_zn(5, DEFAULT_CONFIG.with_overrides(decision_cap=100))
    for decider in (ring_is_semicommutative, ring_is_nil_semicommutative):
        with pytest.raises(DecisionCapError):
            decider(capped)


def test_witness_verifiers(m2z2_module, t2z4_module, v2z2_module, t2z2_module):
    ring = m2z2_module.ring
    e12 = ring.unit(0, 1, 1)
    e21 = ring.unit(1, 0, 1)
    assert verify_nonsemicommutative_witness(m2z2_module, e12, e21, e12)
    assert not verify_nonsemicommutative_witness(m2z2_module, ring.zero, e21, e12)

    t24 = t2z4_module
    A = t24.ring.unit(0, 0, 1)
    K = t24.unit(0, 0, 1)
    L = t24.ring.unit(0, 0, 2)
    assert verify_not_nil_semicommutative_witness(t24, A, L, K)

    t22 = t2z2_module
    assert verify_not_nil_semicommutative_witness(
        t22, t22.ring.scalar(1), t22.ring.unit(0, 1, 1), t22.scalar(1))

    v22 = v2z2_module
    assert verify_not_nil_semicommutative_witness(
        v22, v22.ring.scalar(1), v22.ring.superdiag(1, 1), v22.scalar(1))
    # the same triple is not a plain semicommutativity witness: A*K != 0
    assert not verify_nonsemicommutative_witness(
        v22, v22.ring.scalar(1), v22.ring.superdiag(1, 1), v22.scalar(1))


def test_hierarchy_implications(hierarchy_zoo):
    for module in hierarchy_zoo:
        nil = is_nil_semicommutative(module).holds
        weak = is_weakly_semicommutative(module).holds
        semi = is_semicommutative(module).holds
        red1 = is_reduced_i(module).holds
        assert not nil or weak
        assert not red1 or semi
        assert not semi or weak


def test_torsion_free_collapse(hierarchy_zoo):
    from nilcomm import is_torsion_free

    for module in hierarchy_zoo:
        if not is_torsion_free(module):
            continue
        verdicts = {is_semicommutative(module).holds,
                    is_weakly_semicommutative(module).holds,
                    is_nil_semicommutative(module).holds}
        assert verdicts == {True}


def test_submodule_equivalence_reports(z4_module, t2z4_module):
    rep = check_submodule_equivalence(z4_module)
    assert rep.status == "confirmed"
    assert rep.detail["module_holds"] is False
    assert rep.detail["all_submodules_hold"] is False

    rep3 = check_submodule_equivalence(zn_module(3))
    assert rep3.status == "confirmed"
    assert rep3.detail["module_holds"] is True

    rep24 = check_submodule_equivalence(t2z4_module)
    assert rep24.status == "confirmed"
    assert rep24.detail["module_holds"] is False


def test_verdict_serialization(z4_module):
    v = is_nil_semicommutative(z4_module)
    payload = v.to_json_dict()
    assert payload["property"] == "nil-semicommutative"
    assert payload["holds"] is False
    assert payload["witness"] == {"a": 1, "r": 2, "m": 1,
                                  "a_render": "1", "r_render": "2",
                                  "m_render": "1"}
    assert payload["descriptor"] == "regular(Z(4))"
