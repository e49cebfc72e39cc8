import pytest

from nilcomm import (
    FULL,
    UPPER,
    DecisionCapError,
    InvalidParameterError,
    MatrixShape,
    MultiplicativeSet,
    NonCentralGeneratorError,
    ZeroAbsorbedError,
    check_localization_transfer,
    check_ring_axioms,
    check_module_axioms,
    is_nil_semicommutative,
    localize_module,
    localize_ring,
    make_matrix_ring,
    make_zn,
    multiplicative_closure,
    regular_module,
    reverify_refutation,
)

from nilcomm.config import DEFAULT_CONFIG

from conftest import zn_module


def test_closure_of_two_in_z12():
    s = multiplicative_closure(make_zn(12), [2])
    assert s.members == (1, 2, 4, 8)


def test_closure_of_nothing_is_one():
    s = multiplicative_closure(make_zn(9), [])
    assert s.members == (1,)


def test_closure_zero_absorbed_reports_chain():
    with pytest.raises(ZeroAbsorbedError) as exc:
        multiplicative_closure(make_zn(4), [2])
    assert exc.value.chain == (2, 2)
    with pytest.raises(ZeroAbsorbedError):
        multiplicative_closure(make_zn(4), [0])


def test_closure_rejects_non_central_generator():
    m2 = make_matrix_ring(MatrixShape(FULL, 2), make_zn(2))
    e12 = m2.unit(0, 1, 1)
    with pytest.raises(NonCentralGeneratorError):
        multiplicative_closure(m2, [e12])


def test_localized_ring_of_z12():
    z12 = make_zn(12)
    s = multiplicative_closure(z12, [2])
    loc = localize_ring(z12, s)
    assert loc.size == 3
    assert loc.descriptor == "loc(Z(12), {1, 2, 4, 8})"
    check_ring_axioms(loc, exhaustive=True)
    # inverting 2 collapses the residues mod 3
    assert all(loc.project(a) == loc.project(a + 3) for a in range(9))


def test_localized_module_of_z12():
    z12 = make_zn(12)
    s = multiplicative_closure(z12, [2])
    locm = localize_module(regular_module(z12), s)
    assert locm.size == 3
    check_module_axioms(locm, exhaustive=True)


def test_projections_are_homomorphisms():
    z12 = make_zn(12)
    s = multiplicative_closure(z12, [2])
    loc = localize_ring(z12, s)
    for a in z12.elements():
        for b in z12.elements():
            assert loc.project(z12.add(a, b)) == loc.add(loc.project(a),
                                                         loc.project(b))
            assert loc.project(z12.mul(a, b)) == loc.mul(loc.project(a),
                                                         loc.project(b))
    module = regular_module(z12)
    locm = localize_module(module, s)
    ring = locm.ring
    for r in z12.elements():
        for m in module.elements():
            assert (locm.project(module.act(r, m))
                    == locm.act(ring.project(r), locm.project(m)))


def test_unit_denominator_localization_is_bijective():
    for ring in (make_zn(5), make_matrix_ring(MatrixShape(UPPER, 2), make_zn(2))):
        s = MultiplicativeSet(ring, (ring.one,))
        loc = localize_ring(ring, s)
        assert loc.size == ring.size
        assert len({loc.project(r) for r in ring.elements()}) == ring.size


def test_unit_localization_of_z4_preserves_verdicts():
    z4 = make_zn(4)
    s = multiplicative_closure(z4, [3])
    assert s.members == (1, 3)
    loc = localize_ring(z4, s)
    assert loc.size == 4
    rep = check_localization_transfer(regular_module(z4), s)
    assert rep.status == "confirmed"
    assert rep.detail["source"]["holds"] is False
    assert rep.detail["localized"]["holds"] is False


def test_transfer_identity_set_on_field():
    z3 = make_zn(3)
    rep = check_localization_transfer(zn_module(3), multiplicative_closure(z3, []))
    assert rep.status == "confirmed"


def test_transfer_raises_at_the_decision_cap():
    # a cap is not the check's to report: run_check turns it into "cap: ..."
    cfg = DEFAULT_CONFIG.with_overrides(decision_cap=10)
    z3 = make_zn(3, cfg)
    with pytest.raises(DecisionCapError, match=r"regular\(Z\(3\)\)"):
        check_localization_transfer(regular_module(z3, cfg),
                                    multiplicative_closure(z3, [], cfg), cfg)


def test_transfer_z12_zero_divisor_set_is_refuted_with_witness():
    z12 = make_zn(12)
    s = multiplicative_closure(z12, [2])
    rep = check_localization_transfer(regular_module(z12), s)
    assert rep.status == "refuted"
    assert rep.detail["source"]["holds"] is False
    assert rep.detail["localized"]["holds"] is True
    assert rep.detail["witness"]["kind"] == "not-nil-semicommutative"
    assert reverify_refutation(rep)


def test_localized_module_verdict_matches_field():
    z12 = make_zn(12)
    s = multiplicative_closure(z12, [2])
    locm = localize_module(regular_module(z12), s)
    assert is_nil_semicommutative(locm).holds is True


def test_mismatched_set_rejected():
    z12 = make_zn(12)
    s = multiplicative_closure(z12, [2])
    with pytest.raises(InvalidParameterError):
        localize_module(zn_module(6), s)
