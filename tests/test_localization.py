import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracle
from nilcomm import (
    FULL,
    UPPER,
    AxiomError,
    DecisionCapError,
    FiniteModule,
    InvalidParameterError,
    MatrixShape,
    MultiplicativeSet,
    NonCentralGeneratorError,
    ZeroAbsorbedError,
    check_localization_transfer,
    check_ring_axioms,
    elaborate_text,
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
from nilcomm.rings import check_laws

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


def test_closure_reports_an_out_of_range_generator_before_a_zero_one():
    with pytest.raises(InvalidParameterError, match=re.escape(
            "element 9 is not in Z(4) (size 4)")):
        multiplicative_closure(make_zn(4), [0, 9])


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
    check_ring_axioms(loc)
    assert loc.laws_exact
    # inverting 2 collapses the residues mod 3
    assert all(loc.project(a) == loc.project(a + 3) for a in range(9))


def test_localized_module_of_z12():
    z12 = make_zn(12)
    s = multiplicative_closure(z12, [2])
    locm = localize_module(regular_module(z12), s)
    assert locm.size == 3
    assert check_laws(locm, locm.ring)  # exact, and every law instance passed


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


def test_localized_module_refuses_its_own_pairs_above_the_decision_cap():
    # 144 * 4 = 576 module pairs (331776 relation checks) against a ring of
    # 12 * 4 = 48 pairs (2304 checks): only the module's guard can fire
    expr = "locmod(prodmod(regular(Z(12)), regular(Z(12))), {2})"
    cfg = DEFAULT_CONFIG.with_overrides(decision_cap=100000)
    with pytest.raises(DecisionCapError,
                       match=r"^locmod\(prodmod\(regular\(Z\(12\)\), regular\(Z\(12\)\)\), "
                             r"\{1, 2, 4, 8\}\): relation scan of 576\^2 checks exceeds cap "
                             r"100000; re-run with force to override$"):
        elaborate_text(expr, cfg)
    module = elaborate_text(expr, cfg.with_overrides(force=True))
    assert (module.ring.size, module.size) == (3, 9)  # Z(3) and Z(3)^2


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
    for members in ((1, 2), (2, 4, 8)):  # not closed; no 1
        with pytest.raises(InvalidParameterError, match="lacks 1 or is not closed"):
            localize_ring(z12, MultiplicativeSet(z12, members))


# 2I in M(2, Z(3)): a central scalar, and a unit
_TWO_I = make_matrix_ring(MatrixShape(FULL, 2), make_zn(3)).scalar(2)

# (module expression, generators of S, tabulate_threshold or None)
localization_inputs = st.one_of(
    # cyclic S in Z(n), zero divisors included: powers of g never reach 0
    st.integers(2, 30).flatmap(lambda n: st.tuples(
        st.just(f"regular(Z({n}))"),
        st.integers(1, n - 1).filter(
            lambda g: all(pow(g, k, n) for k in range(1, n + 1))).map(lambda g: [g]),
        st.sampled_from([None, 0]))),
    # S = {1, e} for the idempotent e = (1, 0) (id b) or (0, 1) (id 1)
    st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(lambda ab: st.tuples(
        st.just(f"regular(prod(Z({ab[0]}), Z({ab[1]})))"),
        st.sampled_from([[ab[1]], [1]]), st.just(None))),
    st.tuples(st.just("matmod(2, regular(Z(3)))"), st.sampled_from([[], [_TWO_I]]),
              st.just(None)),
)


@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(localization_inputs)
@example(("regular(Z(12))", [2], None))
@example(("regular(Z(12))", [2], 0))  # untabulated: every op is structural
@example(("regular(prod(Z(2), Z(3)))", [3], None))
@example(("matmod(2, regular(Z(3)))", [_TWO_I], None))
def test_localization_matches_oracle(case):
    expr, gens, threshold = case
    cfg = DEFAULT_CONFIG if threshold is None else DEFAULT_CONFIG.with_overrides(
        tabulate_threshold=threshold)
    module = elaborate_text(expr, cfg)
    ring = module.ring
    s = multiplicative_closure(ring, gens, cfg)
    assume(module.size * len(s.members) <= 200)
    loc, locm = localize_ring(ring, s, cfg), localize_module(module, s, cfg)
    assert loc.tabulated is locm.tabulated is (threshold is None)
    ring_cls, ring_reps, add, mul = oracle.ring_fractions(ring, s.members)
    mod_cls, mod_reps, madd, act = oracle.module_fractions(module, s.members,
                                                           ring_cls, ring_reps)
    for engine, cls, reps, numerators in ((loc, ring_cls, ring_reps, ring),
                                          (locm, mod_cls, mod_reps, module)):
        # pair id s_index * |numerators| + x is the (denominator, numerator) order
        assert engine.class_of.tolist() == [cls[(x, u)] for u in s.members
                                            for x in numerators.elements()]
        assert engine.class_table() == [list(p) for p in reps]
        assert [engine.project(x) for x in numerators.elements()] == [
            cls[(x, ring.one)] for x in numerators.elements()]
        assert engine.zero == cls[(numerators.zero, ring.one)]
    assert loc.one == ring_cls[(ring.one, ring.one)]
    assert loc.add_table().tolist() == add
    assert loc.mul_table().tolist() == mul
    assert locm.add_table().tolist() == madd
    assert locm.act_table().tolist() == act


class _MovedCell(FiniteModule):
    """regular(Z(12)) with one action cell moved: r.m gains 1 at (r, m) = cell.
    Built unvalidated, so only the localization can catch it."""

    def __init__(self, cell):
        super().__init__(make_zn(12), 12, f"moved{cell}", DEFAULT_CONFIG)
        self.cell = cell
        self.zero = 0
        self._seal(validate=False)

    def _vadd(self, m, n):
        return (m + n) % 12

    def _vneg(self, m):
        return (-m) % 12

    def _vact(self, r, m):
        return (r * m + (r == self.cell[0]) * (m == self.cell[1])) % 12


@pytest.mark.parametrize("r", [2, 4, 8])
def test_moved_denominator_cell_breaks_the_relation(r):
    s = multiplicative_closure(make_zn(12), [2])
    for m in range(12):
        with pytest.raises(AxiomError, match=re.escape(
                f"locmod(moved({r}, {m}), {{1, 2, 4, 8}}): the fraction relation "
                "is not an equivalence relation at ")):
            localize_module(_MovedCell((r, m)), s)


def test_moved_cell_outside_the_set_is_ill_defined():
    # 3 is not in S, so the relation never reads the moved cell; 3/1 acting on
    # 5/1 gives 4/1, but on 2/1, its class representative, gives 6/1
    s = multiplicative_closure(make_zn(12), [2])
    with pytest.raises(AxiomError, match=re.escape(
            "locmod(moved(3, 5), {1, 2, 4, 8}): the action is not well defined "
            "at (3, 1) . (5, 1)")):
        localize_module(_MovedCell((3, 5)), s)
