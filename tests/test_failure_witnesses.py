"""Byte-for-byte goldens for refuted claim reports and their witnesses.

The default registry refutes only two checks, so most of the code that
builds a refutation witness never runs there.  Each plant below flips
decider verdicts (a holding verdict fails at a fixed triple, a failing
one holds) or makes the pinned-triple replay fail, and runs one check.
The goldens pin the report's JSON bytes and what replaying its witness
returns, and each triple witness must reach one pointwise replay, of the
property its kind names.  Regenerate (only when an output change is intended) with

  PYTHONPATH=src python tests/test_failure_witnesses.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import nilcomm.deciders as deciders
import nilcomm.harness as harness
import nilcomm.localization as localization
from nilcomm.deciders import PROP_NIL_SEMI, PROP_RING_NIL_SEMI, PROP_SEMICOMMUTATIVE

GOLDEN = Path(__file__).resolve().parent / "goldens" / "failure_witnesses.json"

# every registered check that asks a decider for a verdict
DECIDING_CHECKS = (
    "zpn_hierarchy",
    "matrix_semicommutativity",
    "tn_zpn_not_nil_semicommutative",
    "tn_field_not_nil_semicommutative",
    "vn_not_nil_semicommutative",
    "torsion_free_collapse",
    "submodule_equivalence",
    "commutative_nilpotency_transfer",
    "hom_transfer",
    "t_set_submodule",
    "localization_transfer",
    "nil_module_properties",
    "submodules_inherit",
    "quotient_by_torsion",
)

# which verdicts a plant flips, by (descriptor, property)
FLIPS = {
    "every": lambda desc, prop: True,
    "nil-semicommutative": lambda desc, prop: prop == PROP_NIL_SEMI,
    "modules": lambda desc, prop: prop != PROP_RING_NIL_SEMI,
    "induced": lambda desc, prop: desc.startswith("induced("),
    "quotients": lambda desc, prop: desc.startswith("quot("),
    "cyclic": lambda desc, prop: desc.startswith("cyclic("),
    "Z(3)": lambda desc, prop: desc == "regular(Z(3))",
    "replay": None,  # no verdict flips; the pinned-triple replay fails
}

# flipping every verdict refutes nine checks; where flipping both sides of
# a comparison leaves a check confirmed, or a second witness path exists,
# a targeted plant reaches it
PLANTS = [(cid, "every") for cid in DECIDING_CHECKS] + [
    ("zpn_hierarchy", "nil-semicommutative"),
    ("torsion_free_collapse", "nil-semicommutative"),
    ("nil_module_properties", "nil-semicommutative"),
    ("commutative_nilpotency_transfer", "modules"),
    ("hom_transfer", "induced"),
    ("quotient_by_torsion", "quotients"),
    ("submodules_inherit", "cyclic"),
    ("submodule_equivalence", "Z(3)"),
    ("matrix_semicommutativity", "replay"),
]

# the property each triple kind's replay tests
TRIPLE_KINDS = {
    "not-semicommutative": PROP_SEMICOMMUTATIVE,
    "not-nil-semicommutative": PROP_NIL_SEMI,
}


def _flip(verdict, flips, ring_size, size):
    if not flips(verdict.descriptor, verdict.property) or verdict.holds is None:
        return verdict
    if verdict.holds:
        triple = (ring_size - 1, 1 % ring_size, size - 1)
        return replace(verdict, holds=False, witness=triple, witness_render=None)
    return replace(verdict, holds=True, witness=None, witness_render=None)


def _plant(mp, flip: str) -> None:
    flips = FLIPS[flip]
    if flips is None:
        mp.setattr(harness, "verify_nonsemicommutative_witness",
                   lambda module, a, r, m: False)
        return
    real_decide = deciders.decide
    real_ring = deciders.ring_is_nil_semicommutative

    def decide(module, prop, config=None, **kw):
        verdict = real_decide(module, prop, config, **kw)
        return _flip(verdict, flips, module.ring.size, module.size)

    def ring_decide(ring, config=None):
        return _flip(real_ring(ring, config), flips, ring.size, ring.size)

    # the is_* wrappers and localization's call-time import read
    # deciders.decide; a module-level binding elsewhere is replaced too
    for mod in (deciders, harness, localization):
        mp.setattr(mod, "decide", decide, raising=False)
    mp.setattr(harness, "ring_is_nil_semicommutative", ring_decide)


def _key(check_id: str, flip: str) -> str:
    return f"{check_id}/{flip}"


def planted_report(check_id: str, flip: str):
    with pytest.MonkeyPatch.context() as mp:
        _plant(mp, flip)
        return harness.run_check(check_id)


def _replay(report) -> tuple[bool, list]:
    """Replay the witness, recording each pointwise replay it reached: the
    property and the module's descriptor, then a, r and m of each triple."""
    calls = []
    real = harness.replay

    def spy(module, prop, a, r, m):
        calls.append((prop, module.descriptor, *map(list, (a, r, m))))
        return real(module, prop, a, r, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "replay", spy)
        return harness.reverify_refutation(report), calls


def record(check_id: str, flip: str) -> dict:
    report = planted_report(check_id, flip)
    replays, _ = _replay(report) if report.status == "refuted" else (None, [])
    return {"report": json.dumps(report.to_json_dict(), indent=2),
            "replays": replays}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("check_id,flip", PLANTS,
                         ids=[_key(c, f) for c, f in PLANTS])
def test_planted_refutation_matches_golden(goldens, check_id, flip):
    report = planted_report(check_id, flip)
    replays, calls = (_replay(report) if report.status == "refuted"
                      else (None, []))
    got = {"report": json.dumps(report.to_json_dict(), indent=2),
           "replays": replays}
    assert got == goldens[_key(check_id, flip)]
    assert (report.status == "refuted") == ("witness" in report.detail)
    witness = report.detail.get("witness")
    if witness is not None and witness["kind"] in TRIPLE_KINDS:
        assert calls == [(TRIPLE_KINDS[witness["kind"]], witness["descriptor"],
                          [witness["a"]], [witness["r"]], [witness["m"]])]


def test_plants_reach_every_triple_witness_path(goldens):
    refuted = [key for key, entry in goldens.items()
               if json.loads(entry["report"])["status"] == "refuted"]
    flipped_all = {k.split("/")[0] for k in refuted if k.endswith("/every")}
    assert flipped_all == set(DECIDING_CHECKS) - {
        "commutative_nilpotency_transfer", "hom_transfer", "t_set_submodule",
        "submodules_inherit", "quotient_by_torsion"}
    for check_id, flip in PLANTS[len(DECIDING_CHECKS):]:
        assert _key(check_id, flip) in refuted


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({_key(c, f): record(c, f) for c, f in PLANTS},
                                 indent=1) + "\n")
    sys.exit(0)
