"""Planted refutations for the witness kinds the default registry never
refutes.

Each plant below makes one check refute: it plants a defect in what the
check evaluates (a nilpotency criterion, a module's action, a torsion set,
an isomorphism test) or in what it is handed (a multiplicative set).  The
goldens pin the report's JSON bytes.  The report's witness must replay
under the same plant, since the replay evaluates the same things, and the
same witness with one field tampered must not.  Regenerate (only when an
output change is intended) with

  PYTHONPATH=src python tests/test_witness_kinds.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nilcomm.harness as harness
import nilcomm.nilpotency as nilpotency
from nilcomm import (
    FULL,
    InvalidParameterError,
    MatrixShape,
    check_lemma_matrix_nil,
    check_t_submodule,
    check_tor_t_sets,
    check_torsion_free_props,
    make_zn,
    matrix_module,
    regular_module,
    reverify_refutation,
    run_check,
)
from nilcomm.deciders import PROP_NIL_SEMI, PROP_SEMICOMMUTATIVE, PROP_WEAKLY, triple_witness
from nilcomm.rings import interning

GOLDEN = Path(__file__).resolve().parent / "goldens" / "witness_kinds.json"

# plant name -> (plant(mp) returning the refuted report, tampered fields)
CASES: dict = {}


def _case(name: str, **tamper):
    def deco(plant):
        CASES[name] = (plant, tamper)
        return plant
    return deco


def _plant_killer(mp, descriptor: str, m: int, t: int) -> None:
    """The squared criterion on the module named descriptor finds t as the
    least killer of m (-1: none, so m is not nilpotent)."""
    real = nilpotency.squared_killers

    def planted(module, ms=None):
        least = real(module, ms)
        if not isinstance(module, list) and module.descriptor == descriptor:
            ids = np.arange(module.size) if ms is None else np.asarray(ms)
            least = np.where(ids == m, t, least)
        return least

    mp.setattr(nilpotency, "squared_killers", planted)


def _plant_torsion(mp, descriptor: str, **fields) -> None:
    """torsion_sets of the module named descriptor, with fields replaced."""
    real = harness.torsion_sets
    mp.setattr(harness, "torsion_sets", lambda module, config=None: (
        replace(real(module, config), **fields) if module.descriptor == descriptor
        else real(module, config)))


@_case("matrix-nil-gap/full", m=6)
def _full_gap(mp):
    # 5 is no longer nilpotent in the full scan of matmod(2, regular(Z(2)))
    _plant_killer(mp, "matmod(2, regular(Z(2)))", 5, -1)
    z2 = make_zn(2)
    return check_lemma_matrix_nil(2, z2, regular_module(z2))


@_case("matrix-nil-gap/sampled", m=2)
def _sampled_gap(mp):
    # every ring element fixes each odd id of matmod(4, regular(Z(2))), so
    # none of them is nilpotent; planted after the module is built and
    # validated, and found again by the check and the replay through the
    # interning block the tests run in
    z2 = make_zn(2)
    module = matrix_module(MatrixShape(FULL, 4), z2, regular_module(z2))
    vact = module.vact
    mp.setattr(module, "vact", lambda r, m: np.where(np.asarray(m) % 2 == 1, m,
                                                     vact(r, m)))
    return check_lemma_matrix_nil(4, z2, regular_module(z2), sample=20)


@_case("nilpotent-element", m=2)
def _nilpotent_element(mp):
    # 1 * 1 * 1 = 0 != 1 * 1 in the planted criterion of the field Z(3)
    _plant_killer(mp, "regular(Z(3))", 1, 1)
    return check_torsion_free_props(regular_module(make_zn(3)))


@_case("criterion-mismatch", m=3)
def _criterion_mismatch(mp):
    # the squared criterion misses 1 in regular(Z(4)); the power one finds (2, 2)
    _plant_killer(mp, "regular(Z(4))", 1, -1)
    return run_check("criterion_equivalence")


@_case("annihilator", m=1)
def _annihilator(mp):
    # the regular-torsion set of Z(6) planted equal to its torsion set
    real = harness.torsion_sets
    mp.setattr(harness, "torsion_sets", lambda module, config=None: replace(
        real(module, config), t=real(module, config).tor))
    return check_tor_t_sets()


@_case("t-closure", descriptor="regular(Z(5))")
def _t_closure(mp):
    _plant_torsion(mp, "regular(Z(3))", t_closed_add=False)
    return check_t_submodule(regular_module(make_zn(3)))


@_case("class-count", expected=4)
def _class_count(mp):
    # Z(12) is localized at the closure of {3} where the check asks for {2}
    real = harness.multiplicative_closure
    mp.setattr(harness, "multiplicative_closure", lambda ring, gens, config=None:
               real(ring, [3] if list(gens) == [2] else gens, config))
    return run_check("localization_wellformed")


@_case("theta-failure", n=3)
def _theta_failure(mp):
    real = harness.verify_theta_iso
    mp.setattr(harness, "verify_theta_iso", lambda base, n, config=None: (
        False if (base.descriptor, n) == ("Z(3)", 2) else real(base, n, config)))
    return run_check("theta_iso")


def _report_bytes(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_planted_refutation_replays_and_a_tampered_one_does_not(goldens, name):
    plant, tamper = CASES[name]
    with pytest.MonkeyPatch.context() as mp, interning():
        report = plant(mp)
        assert _report_bytes(report) == goldens[name]
        witness = report.detail["witness"]
        assert witness["kind"] == name.split("/")[0]
        assert reverify_refutation(report) is True
        assert reverify_refutation({**witness, **tamper}) is False


def test_every_witness_kind_has_a_planted_refutation():
    planted = {name.split("/")[0] for name in CASES}
    elsewhere = {"not-semicommutative", "not-nil-semicommutative",  # failure_witnesses
                 "squarefree-mismatch"}  # the planted _vmul of test_harness
    assert planted | elsewhere == set(harness.WITNESS_KINDS)
    assert not planted & elsewhere


@pytest.mark.parametrize("prop,kind", [
    (PROP_SEMICOMMUTATIVE, "not-semicommutative"),
    (PROP_WEAKLY, "not-nil-semicommutative"),
    (PROP_NIL_SEMI, "not-nil-semicommutative"),
])
def test_triple_payloads_carry_their_kinds_fields_in_order(prop, kind):
    fields = harness.WITNESS_KINDS[kind].fields
    assert list(triple_witness(prop, "regular(Z(4))", (1, 2, 1))) == ["kind", *fields]
    assert list(triple_witness(prop, "regular(Z(4))", (1, 2, 1), expect=False)) == [
        "kind", *fields, "expect"]
    assert triple_witness(prop, "regular(Z(4))", (1, 2, 1))["kind"] == kind


@pytest.mark.parametrize("witness,message", [
    ({"kind": "annihilator"}, "annihilator witness has no field 'descriptor'"),
    ({"kind": "theta-failure", "base_n": 2}, "theta-failure witness has no field 'n'"),
    ({"descriptor": "regular(Z(4))", "m": 1}, "witness has no field 'kind'"),
    (["not-semicommutative", "regular(Z(4))"], "a witness is a dict, got list"),
    ({"kind": "nilpotent"}, "unknown witness kind 'nilpotent'"),
])
def test_a_malformed_witness_raises_a_typed_error(witness, message):
    with pytest.raises(InvalidParameterError) as exc:
        reverify_refutation(witness)
    assert str(exc.value) == message


if __name__ == "__main__":
    out = {}
    for case_name, (case_plant, _) in CASES.items():
        with pytest.MonkeyPatch.context() as patch, interning():
            out[case_name] = _report_bytes(case_plant(patch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    sys.exit(0)
