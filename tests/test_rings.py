import re
from random import Random

import numpy as np
import pytest

from nilcomm import (
    FULL,
    SPECIAL_UPPER,
    UPPER,
    V_TYPE,
    AxiomError,
    DecisionCapError,
    FiniteRing,
    InvalidHomError,
    InvalidParameterError,
    MatrixShape,
    SizeCapError,
    center,
    check_module_axioms,
    check_ring_axioms,
    elaborate_text,
    make_matrix_ring,
    make_poly_quotient_ring,
    make_product_ring,
    make_ring_hom,
    make_zn,
    multiplicative_closure,
    nil_ring_set,
    nilpotency_degree,
    regular_elements,
    regular_module,
    ring_is_nil_semicommutative,
    torsion_sets,
    verify_theta_iso,
    zn_reduction_hom,
)
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.modules import RegularModule
import nilcomm.rings as rings
from nilcomm.rings import (
    MatrixRing,
    PolyQuotientRing,
    ZnRing,
    _stable_seed,
    draw_families,
    exact_fits,
    shape_fill,
)

import oracle
from conftest import draw_ids, loop_products, record_sampled_draws


def test_zn_basics():
    z2 = make_zn(2)
    assert z2.size == 2
    assert z2.add(1, 1) == 0
    z12 = make_zn(12)
    assert z12.mul(5, 5) == 1
    assert z12.neg(5) == 7
    assert z12.sub(3, 5) == 10


def test_zn_rejects_small_n():
    with pytest.raises(InvalidParameterError):
        make_zn(1)
    with pytest.raises(InvalidParameterError):
        make_zn(0)


def test_power():
    z5 = make_zn(5)
    assert z5.power(2, 0) == 1
    assert z5.power(2, 4) == 1
    assert z5.power(3, 3) == 2


@pytest.mark.parametrize("kind,n,base_n,expected_free", [
    (FULL, 2, 2, 4),
    (FULL, 3, 2, 9),
    (UPPER, 2, 4, 3),
    (UPPER, 3, 2, 6),
    (SPECIAL_UPPER, 2, 2, 2),
    (SPECIAL_UPPER, 3, 3, 4),
    (V_TYPE, 2, 2, 2),
    (V_TYPE, 3, 3, 3),
])
def test_matrix_ring_sizes(kind, n, base_n, expected_free):
    ring = make_matrix_ring(MatrixShape(kind, n), make_zn(base_n))
    assert ring.size == base_n ** expected_free


def test_matrix_unit_encoding_is_row_major_big_endian():
    m2 = make_matrix_ring(MatrixShape(FULL, 2), make_zn(2))
    assert m2.unit(0, 0, 1) == 8
    assert m2.unit(0, 1, 1) == 4
    assert m2.unit(1, 0, 1) == 2
    assert m2.unit(1, 1, 1) == 1
    assert m2.one == 9
    assert m2.zero == 0
    assert m2.render(9) == "[[1, 0], [0, 1]]"


def test_matrix_unit_products():
    m2 = make_matrix_ring(MatrixShape(FULL, 2), make_zn(2))
    e11 = m2.unit(0, 0, 1)
    e12 = m2.unit(0, 1, 1)
    e21 = m2.unit(1, 0, 1)
    assert m2.mul(e12, e21) == e11
    assert m2.mul(e12, e12) == m2.zero
    assert m2.mul(e21, e12) == m2.unit(1, 1, 1)


def test_upper_shape_rejects_below_diagonal():
    t2 = make_matrix_ring(MatrixShape(UPPER, 2), make_zn(2))
    with pytest.raises(InvalidParameterError):
        t2.unit(1, 0, 1)
    assert t2.unit(1, 0, 0) == t2.zero


def test_vtype_multiplication_law():
    # (aI + bV)(cI + dV) = (ac)I + (ad + bc)V when V squares to zero
    v2 = make_matrix_ring(MatrixShape(V_TYPE, 2), make_zn(2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    lhs = v2.mul(v2.from_entries([[a, b], [0, a]]),
                                 v2.from_entries([[c, d], [0, c]]))
                    rhs = v2.from_entries([[(a * c) % 2, (a * d + b * c) % 2],
                                           [0, (a * c) % 2]])
                    assert lhs == rhs


def test_special_upper_vs_vtype_differ_at_n3():
    s3 = make_matrix_ring(MatrixShape(SPECIAL_UPPER, 3), make_zn(2))
    v3 = make_matrix_ring(MatrixShape(V_TYPE, 3), make_zn(2))
    assert s3.size == 2 ** 4
    assert v3.size == 2 ** 3
    # s3 admits unequal first and second superdiagonal slots, v3 does not
    s3.from_entries([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InvalidParameterError):
        v3.from_entries([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_product_ring():
    p = make_product_ring([make_zn(4), make_zn(3)])
    assert p.size == 12
    single = make_product_ring([make_zn(2)])
    assert single.size == 2
    assert single.mul(1, 1) == 1
    pair = make_product_ring([make_zn(2), make_zn(2)])
    e = pair.size  # encode (1, 0) = 1 * 2 + 0
    idem = 2
    assert pair.mul(idem, idem) == idem


def test_product_ring_crt_isomorphism_with_z12():
    z12 = make_zn(12)
    p = make_product_ring([make_zn(4), make_zn(3)])
    crt = make_ring_hom(z12, p, lambda k: (k % 4) * 3 + (k % 3))
    assert crt.surjective
    assert len(set(crt.map)) == z12.size


def test_poly_quotient():
    pq1 = make_poly_quotient_ring(make_zn(5), 1)
    assert pq1.size == 5
    iso = make_ring_hom(make_zn(5), pq1, lambda a: a)
    assert iso.surjective

    pq2 = make_poly_quotient_ring(make_zn(2), 2)
    x = pq2.from_coefficients([0, 1])
    assert pq2.mul(x, x) == pq2.zero

    pq3 = make_poly_quotient_ring(make_zn(3), 2)
    lhs = pq3.mul(pq3.from_coefficients([1, 1]), pq3.from_coefficients([1, 2]))
    assert lhs == pq3.one
    assert pq3.render(pq3.from_coefficients([1, 2])) == "1+2x"


def _ids(mask):
    return np.flatnonzero(mask).tolist()


def test_center():
    assert _ids(center(make_zn(12))) == list(range(12))
    m2 = make_matrix_ring(MatrixShape(FULL, 2), make_zn(2))
    assert _ids(center(m2)) == sorted([m2.zero, m2.one])
    t2 = make_matrix_ring(MatrixShape(UPPER, 2), make_zn(2))
    assert _ids(center(t2)) == sorted([t2.zero, t2.one])


def test_regular_elements():
    assert _ids(regular_elements(make_zn(6))) == [1, 5]
    assert _ids(regular_elements(make_zn(5))) == [1, 2, 3, 4]
    assert _ids(regular_elements(make_zn(4))) == [1, 3]


def test_nil_ring_set():
    assert _ids(nil_ring_set(make_zn(4))) == [0, 2]
    assert _ids(nil_ring_set(make_zn(6))) == [0]
    t2 = make_matrix_ring(MatrixShape(UPPER, 2), make_zn(2))
    assert _ids(nil_ring_set(t2)) == sorted([t2.zero, t2.unit(0, 1, 1)])


def test_regular_and_nil_disjoint_and_one_regular(hierarchy_zoo):
    for module in hierarchy_zoo:
        ring = module.ring
        regs = regular_elements(ring)
        nils = nil_ring_set(ring)
        assert not (regs & nils).any()
        assert regs[ring.one]


# every ring family, T(4, Z(2)) at 1024 elements, and nilpotents of degree 5
# (x in polyq(Z(2), 5)) and 6 (2 in Z(64)), past two squarings
_MASK_RINGS = ["Z(1000)", "Z(64)", "polyq(Z(2), 5)", "T(4, Z(2))", "S(3, Z(4))",
               "prod(Z(4), Z(6))", "loc(Z(12), {2})"]


@pytest.mark.parametrize("expr", _MASK_RINGS)
@pytest.mark.parametrize("threshold", [1024, 0])
def test_ring_masks_equal_their_definitions(expr, threshold):
    ring = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=threshold))
    assert ring.tabulated is (threshold > 0)
    mul = ring.mul_table().tolist()
    for mask, want in ((center(ring), oracle.ring_center_flags(mul)),
                       (regular_elements(ring), oracle.ring_regular_flags(mul, ring.zero)),
                       (nil_ring_set(ring), oracle.ring_nil_flags(mul, ring.zero))):
        assert mask.dtype == bool and mask.tolist() == want


@pytest.mark.parametrize("expr", _MASK_RINGS)
@pytest.mark.parametrize("threshold", [1024, 0])
def test_nil_mask_equals_the_power_walk(expr, threshold):
    ring = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=threshold))
    assert nil_ring_set(ring).tolist() == [nilpotency_degree(ring, a) is not None
                                           for a in ring.elements()]


def test_nilpotency_degree():
    z8 = make_zn(8)
    assert nilpotency_degree(z8, 0) == 1
    assert nilpotency_degree(z8, 2) == 3
    assert nilpotency_degree(z8, 4) == 2
    assert nilpotency_degree(z8, 3) is None


def test_is_commutative():
    for ring, commutative in ((make_zn(9), True),
                              (make_matrix_ring(MatrixShape(FULL, 2), make_zn(2)), False),
                              (make_matrix_ring(MatrixShape(V_TYPE, 3), make_zn(2)), True)):
        assert bool(center(ring).all()) is commutative


def test_construction_cap():
    with pytest.raises(SizeCapError, match=re.escape(
            "M(4, Z(4)): size 4294967296 exceeds the construction cap 1048576")):
        make_matrix_ring(MatrixShape(FULL, 4), make_zn(4))
    # 2^90000 elements: too many digits for int() to print
    with pytest.raises(SizeCapError, match=re.escape(
            "M(300, Z(2)): size of 90001 bits exceeds the construction cap 1048576")):
        make_matrix_ring(MatrixShape(FULL, 300), make_zn(2))


def test_an_over_cap_shape_is_refused_before_its_positions_exist(monkeypatch):
    def unbuilt(kind, n):
        raise AssertionError(f"free positions of {kind} {n} built")

    monkeypatch.setattr(rings, "_digit_grid", unbuilt)
    for expr in ("M(100000, Z(2))", "matmod(100000, regular(Z(2)))"):
        with pytest.raises(SizeCapError, match=re.escape(
                "M(100000, Z(2)): size of at least 10000000001 bits exceeds "
                "the construction cap 1048576")):
            elaborate_text(expr)


@pytest.mark.parametrize("kind", [FULL, UPPER, SPECIAL_UPPER, V_TYPE])
def test_shape_counts_are_the_free_position_counts(kind):
    for n in range(1, 7):
        shape = MatrixShape(kind, n)
        assert shape.count == len(shape.free_positions())


# each kind's free positions, written out cell by cell
_LISTED_POSITIONS = {
    FULL: lambda n: tuple((i, j) for i in range(n) for j in range(n)),
    UPPER: lambda n: tuple((i, j) for i in range(n) for j in range(n) if i <= j),
    SPECIAL_UPPER: lambda n: ((0, 0),) + tuple((i, j) for i in range(n) for j in range(n)
                                               if i < j),
    V_TYPE: lambda n: tuple((0, j) for j in range(n)),
}


@pytest.mark.parametrize("kind", [FULL, UPPER, SPECIAL_UPPER, V_TYPE])
def test_free_positions_are_the_listed_ones(kind):
    for n in range(1, 7):
        assert MatrixShape(kind, n).free_positions() == _LISTED_POSITIONS[kind](n)
    assert MatrixShape(kind, 3).free_positions() == {
        FULL: ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)),
        UPPER: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
        SPECIAL_UPPER: ((0, 0), (0, 1), (0, 2), (1, 2)),
        V_TYPE: ((0, 0), (0, 1), (0, 2))}[kind]


@pytest.mark.parametrize("kind, rows, message", [
    (FULL, [[1, 0, 0], [0, 1, 0]], "M(3, Z(3)): expected an 3x3 entry grid"),
    (UPPER, [[1, 0, 0], [0, 1, 0], [0, 2, 1]],
     "T(3, Z(3)): entry (2,1) must be 0 in a upper matrix, got 2"),
    (SPECIAL_UPPER, [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
     "S(3, Z(3)): entry (1,1) must be 1 in a special-upper matrix, got 2"),
    (V_TYPE, [[1, 2, 0], [0, 1, 1], [0, 0, 1]],
     "V(3, Z(3)): entry (1,2) must be 2 in a v-type matrix, got 1"),
])
def test_from_entries_names_the_first_off_shape_cell(kind, rows, message):
    ring = make_matrix_ring(MatrixShape(kind, 3), make_zn(3))
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        ring.from_entries(rows)


@pytest.mark.parametrize("threshold", [1024, 16])
def test_pointwise_ops_return_plain_ints(threshold):
    module = elaborate_text("regular(M(2, Z(3)))",
                            DEFAULT_CONFIG.with_overrides(tabulate_threshold=threshold))
    ring = module.ring
    assert module.tabulated is (threshold == 1024)
    for value in (ring.add(5, 7), ring.neg(5), ring.sub(5, 7), ring.mul(5, 7),
                  module.add(5, 7), module.neg(5), module.sub(5, 7), module.act(5, 7)):
        assert type(value) is int


def test_trivial_ring_rejected_via_custom_class():
    class Trivial(FiniteRing):
        def __init__(self):
            super().__init__(1, "trivial", DEFAULT_CONFIG)
            self.zero = 0
            self.one = 0
            self._seal()

        def _vadd(self, a, b):
            return np.zeros_like(a + b)

        def _vmul(self, a, b):
            return np.zeros_like(a * b)

        def _vneg(self, a):
            return np.zeros_like(a)

    with pytest.raises(InvalidParameterError, match=r"trivial ring \(0 = 1\)"):
        Trivial()


class _MaxRing(FiniteRing):
    """Z(3)'s sum with max as its product: 1 is no identity, as max(1, 0) = 1."""

    def __init__(self, validate=True, config=DEFAULT_CONFIG):
        super().__init__(3, "broken", config)
        self.zero = 0
        self.one = 1
        self._seal(validate)

    def _vadd(self, a, b):
        return (a + b) % 3

    def _vmul(self, a, b):
        return np.maximum(a, b)

    def _vneg(self, a):
        return (-a) % 3


def test_axiom_check_catches_broken_mul():
    with pytest.raises(AxiomError, match="one is not a multiplicative identity"):
        _MaxRing()
    # a tabulated ring checks its spot laws at every element, even where it
    # draws fewer spot ids than it has elements
    sampled = DEFAULT_CONFIG.with_overrides(full_check_budget=0, validation_samples=1)
    with pytest.raises(AxiomError, match=re.escape(
            "broken: one is not a multiplicative identity at 0")):
        check_ring_axioms(_MaxRing(validate=False, config=sampled))


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("high", [False, True])
def test_an_out_of_range_sum_fails_the_range_check_not_the_generator_search(n, high):
    ring = ZnRing(n, validate=False)
    add = ring.add_table()
    add[3, 4] = add[4, 3] = n if high else -1
    with pytest.raises(AxiomError, match=re.escape(f"Z({n}): add table has out-of-range ids")):
        check_ring_axioms(ring)


def test_full_axiom_validation_on_small_structures(t2z4_module, m2z2_module):
    for ring in (make_zn(12), make_zn(16),
                 make_matrix_ring(MatrixShape(UPPER, 2), make_zn(4)),
                 m2z2_module.ring,
                 make_poly_quotient_ring(make_zn(3), 2),
                 make_product_ring([make_zn(4), make_zn(3)]),
                 t2z4_module.ring):
        check_ring_axioms(ring)
        assert ring.laws_exact


def test_sampled_axiom_validation_on_large_ring(m4z2_module):
    check_ring_axioms(m4z2_module.ring)
    assert not m4z2_module.ring.laws_exact


class _SkewZn(ZnRing):
    """Z(n) with a planted product defect: a * b gains 1 when a, b > 1.  Zero,
    negatives and one still behave, so only the sampled triples can catch it.
    Built unvalidated, so a test can run the check itself."""

    def _seal(self, validate=True):
        super()._seal(validate=False)

    def _vmul(self, a, b):
        return (a * b + (a > 1) * (b > 1)) % self.n


# each ring law of a sampled triple, replayed through the pointwise ops
_RING_LAW_REPLAYS = {
    "add is not commutative": lambda r, a, b, c: r.add(a, b) != r.add(b, a),
    "add not associative":
        lambda r, a, b, c: r.add(r.add(a, b), c) != r.add(a, r.add(b, c)),
    "mul not associative":
        lambda r, a, b, c: r.mul(r.mul(a, b), c) != r.mul(a, r.mul(b, c)),
    "left distributivity fails":
        lambda r, a, b, c: r.mul(a, r.add(b, c)) != r.add(r.mul(a, b), r.mul(a, c)),
    "right distributivity fails":
        lambda r, a, b, c: r.mul(r.add(b, c), a) != r.add(r.mul(b, a), r.mul(c, a)),
}


def test_sampled_ring_check_reports_the_first_drawn_broken_triple():
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0, full_check_budget=0)
    messages = []
    for _ in range(2):  # two fresh rings under one config
        ring = _SkewZn(50, cfg)
        assert not ring.tabulated and not exact_fits(cfg, 1, 50, 50)
        with pytest.raises(AxiomError) as err:
            check_ring_axioms(ring)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    law, ids = re.fullmatch(r"Z\(50\): (.+) at \(([\d, ]+)\)", messages[0]).groups()
    named = [int(x) for x in ids.split(", ")]
    # the named ids break the named law when replayed pointwise (the
    # commutativity message names two ids; its law ignores a third)
    assert _RING_LAW_REPLAYS[law](ring, *named, *[0] * (3 - len(named)))
    # and they lead the first drawn triple to break a law, that law the first
    rng = Random(_stable_seed(cfg, ring.descriptor))  # 50 <= samples: no spot draws
    triple, first_law = next(
        (t, name) for t in draw_ids(rng, cfg.validation_samples, 50, 50, 50).tolist()
        for name, broken in _RING_LAW_REPLAYS.items() if broken(ring, *t))
    assert (first_law, triple[:len(named)]) == (law, named)


@pytest.mark.parametrize("make, message", [
    (lambda cfg: _SkewZn(50, cfg), "Z(50): mul not associative at (38, 21, 40)"),
    (lambda cfg: _SkewAddZn(50, cfg), "Z(50): add not associative at (13, 39, 2)")])
def test_a_tabulated_sampled_ring_whose_proof_fails_reports_the_first_drawn_triple(
        monkeypatch, make, message):
    # tabulated, under a budget the exact check does not fit: one draw, and
    # the first drawn broken triple
    sampled = DEFAULT_CONFIG.with_overrides(full_check_budget=0)
    ring = make(sampled)
    assert ring.tabulated and not exact_fits(sampled, 1, 50, 50)
    _, draws = record_sampled_draws(monkeypatch)
    with pytest.raises(AxiomError) as err:
        check_ring_axioms(ring)
    assert (str(err.value), len(draws)) == (message, 1)
    law, ids = re.fullmatch(r"Z\(50\): (.+) at \(([\d, ]+)\)", message).groups()
    assert _RING_LAW_REPLAYS[law](ring, *map(int, ids.split(", ")))
    assert not ring.laws_exact
    # under the default budget the proof fits (one generator), fails, and
    # the locator names the defect without a draw
    del draws[:]
    ring = make(DEFAULT_CONFIG)
    assert exact_fits(DEFAULT_CONFIG, 1, 50, 50)
    with pytest.raises(AxiomError):
        check_ring_axioms(ring)
    assert draws == [] and not ring.laws_exact


class _OneCellZn(ZnRing):
    """Z(n) with one planted product defect, (n-1)(n-1) gaining 1: so few
    triples meet it that the sampled draw misses it.  Built unvalidated."""

    def _seal(self, validate=True):
        super()._seal(validate=False)

    def _vmul(self, a, b):
        return (a * b + (a == self.n - 1) * (b == self.n - 1)) % self.n


def test_a_defect_the_draw_misses_is_located_once_the_proof_fails(monkeypatch):
    # sampled, 2000 drawn triples break no law
    check_ring_axioms(_OneCellZn(127, DEFAULT_CONFIG.with_overrides(full_check_budget=0)))
    ring = _OneCellZn(127, DEFAULT_CONFIG)
    _, draws = record_sampled_draws(monkeypatch)
    with pytest.raises(AxiomError) as err:
        check_ring_axioms(ring)  # the proof fails, and the locator names the defect
    assert draws == []
    assert str(err.value) == "Z(127): right distributivity fails at (126, 1, 125)"
    assert _RING_LAW_REPLAYS["right distributivity fails"](ring, 126, 1, 125)


@pytest.mark.parametrize("n, proven", [(41, True), (128, True), (256, True), (257, False)])
def test_a_tabulated_sampled_ring_draws_nothing_when_its_proof_fits(monkeypatch, n, proven):
    # Z(n) has one additive generator: the rule's n^2 fits 2^16 up to n = 256
    checked, draws = record_sampled_draws(monkeypatch)
    ring = make_zn(n)
    assert ring.tabulated
    assert ring.laws_exact == proven == exact_fits(ring.config, 1, n, n)
    assert len(draws) == (not proven) and len(checked) == 1 + (not proven)


@pytest.mark.parametrize("samples", [40, 50])  # 50 elements: spot ids drawn below 50 samples
def test_sampled_ring_check_draws_once_what_consecutive_draws_gave(monkeypatch, samples):
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0, full_check_budget=0,
                                        validation_samples=samples)
    ring = make_zn(50, cfg)
    checked, draws = record_sampled_draws(monkeypatch)
    check_ring_axioms(ring)
    assert len(draws) == 1
    rng = Random(_stable_seed(cfg, ring.descriptor))
    spots = draw_ids(rng, samples, 50) if samples < 50 else np.arange(50)[:, None]
    assert checked == [spots.tolist(), draw_ids(rng, samples, 50, 50, 50).tolist()]


def test_one_draw_of_families_equals_one_draw_each():
    families = [(7,), (5, 6, 7), (3, 3, 1000)]
    fused, rng = draw_families(Random(11), 33, families), Random(11)
    assert [x.tolist() for x in fused] == [draw_ids(rng, 33, *f).tolist() for f in families]


def _python_digits(eid, radices):
    """Mixed-radix digits of one id by repeated divmod, most significant first."""
    digits = []
    for r in reversed(radices):
        eid, d = divmod(eid, r)
        digits.append(d)
    return digits[::-1]


def _assert_decodes(structure, ids, shifted):
    codec = structure.codec
    assert (codec.shifts is not None) is shifted
    want = [_python_digits(e, codec.radices) for e in ids.tolist()]
    for typed in (ids, ids.astype(np.int32)):  # tables hold int32 ids
        assert codec.digits(typed).tolist() == want
    if hasattr(structure, "grid"):
        zero = structure.base.zero
        assert structure.grid(ids).tolist() == [shape_fill(structure.shape, d, zero)
                                                for d in want]


@pytest.mark.parametrize("expr, shifted", [
    ("M(2, Z(4))", True), ("T(3, Z(2))", True), ("polyq(Z(4), 3)", True),
    ("prod(Z(2), Z(8))", True), ("M(2, Z(6))", False), ("prod(Z(2), Z(6))", False)])
def test_power_of_two_codecs_decode_like_division(expr, shifted):
    ring = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=0))
    _assert_decodes(ring, np.arange(ring.size), shifted)


def test_untabulated_power_of_two_codecs_decode_drawn_ids(m4z2_module):
    for structure in (m4z2_module.ring, m4z2_module):
        assert not structure.tabulated
        _assert_decodes(structure, draw_ids(Random(7), 64, structure.size)[:, 0], True)


def test_pair_scans_honour_the_decision_cap():
    # the 64 pairs refuse alike whether or not the ring stores its tables
    for threshold in (1024, 0):
        capped = make_zn(8, DEFAULT_CONFIG.with_overrides(decision_cap=63,
                                                          tabulate_threshold=threshold))
        assert capped.tabulated is (threshold > 0)
        for pair_scan in (center, regular_elements, nil_ring_set):
            with pytest.raises(DecisionCapError):
                pair_scan(capped)
    forced = make_zn(8, DEFAULT_CONFIG.with_overrides(decision_cap=63, force=True))
    assert _ids(center(forced)) == list(range(8))
    assert _ids(regular_elements(forced)) == [1, 3, 5, 7]
    assert _ids(nil_ring_set(forced)) == [0, 2, 4, 6]


# Each entry point's scan count and a call under a config.  The hom and the
# axiom checks read the config their structures are built with; the others
# take it as an argument, which governs even a ring built under a cap that
# refuses the same scan (Z(12)'s 144 pairs under _CAP143), and which the
# ring decider and the torsion scan pass to their nested pair scans.
_CAP143 = DEFAULT_CONFIG.with_overrides(decision_cap=143)


@pytest.mark.parametrize("count, call", [
    (64, lambda cfg: make_ring_hom(make_zn(8, cfg), make_zn(4, cfg), lambda a: a % 4)),
    (64, lambda cfg: verify_theta_iso(make_zn(2), 3, cfg)),
    (144, lambda cfg: multiplicative_closure(make_zn(12, _CAP143), [5], cfg)),
    (144, lambda cfg: center(make_zn(12, _CAP143), cfg)),
    (144, lambda cfg: regular_elements(make_zn(12, _CAP143), cfg)),
    (144, lambda cfg: nil_ring_set(make_zn(12, _CAP143), cfg)),
    (1728, lambda cfg: ring_is_nil_semicommutative(make_zn(12, _CAP143), cfg)),
    (144, lambda cfg: torsion_sets(regular_module(make_zn(12, _CAP143)), cfg)),
], ids=["make_ring_hom", "verify_theta_iso", "multiplicative_closure", "center",
        "regular_elements", "nil_ring_set", "ring_is_nil_semicommutative", "torsion_sets"])
def test_entry_points_refuse_one_below_their_count(count, call):
    below = DEFAULT_CONFIG.with_overrides(decision_cap=count - 1)
    with pytest.raises(DecisionCapError, match=f"exceeds cap {count - 1}; re-run with force"):
        call(below)
    for cfg in (below.with_overrides(decision_cap=count), below.with_overrides(force=True)):
        call(cfg)


def test_ring_hom_validation():
    h = zn_reduction_hom(8, 4)
    assert h.surjective
    assert h(6) == 2
    assert h.map[h.source.zero] == h.target.zero
    with pytest.raises(InvalidParameterError):
        zn_reduction_hom(8, 3)
    z4 = make_zn(4)
    with pytest.raises(InvalidHomError):
        make_ring_hom(z4, z4, lambda a: (2 * a) % 4)  # 1 does not map to 1
    with pytest.raises(InvalidHomError):
        make_ring_hom(z4, make_zn(2), lambda a: a)  # out of range


def test_non_surjective_hom_detected():
    z2 = make_zn(2)
    pair = make_product_ring([make_zn(2), make_zn(2)])
    diag = make_ring_hom(z2, pair, lambda a: a * 2 + a)
    assert not diag.surjective


@pytest.mark.parametrize("base_n,n", [
    (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2),
    (8, 2),
])
def test_theta_isomorphism(base_n, n):
    assert verify_theta_iso(make_zn(base_n), n)


def test_theta_check_catches_a_wrong_polynomial_product(monkeypatch):
    # the product of Z_3[x]/(x^2 - x): a ring of the same size with the same
    # zero and one, but x * x = x where the shift matrices give V * V = 0
    def folded(self, a, b):
        (a0, a1), (b0, b1) = (np.moveaxis(self.codec.digits(x), -1, 0) for x in (a, b))
        return self.codec.ids(np.stack([a0 * b0 % 3, (a0 * b1 + a1 * b0 + a1 * b1) % 3],
                                       axis=-1))

    monkeypatch.setattr(PolyQuotientRing, "_vmul", folded)
    ring = make_poly_quotient_ring(make_zn(3), 2)  # passes the ring axioms
    x = ring.from_coefficients([0, 1])
    assert ring.mul(x, x) == x
    assert not verify_theta_iso(make_zn(3), 2)


def _loop_mul(ring, a, b):
    """a * b by the plain loop over the entries, through the base's pointwise ops."""
    base = ring.base
    if isinstance(ring, PolyQuotientRing):
        return ring.from_coefficients(oracle.truncated_product(
            ring.coefficients(a), ring.coefficients(b), base.mul, base.add, base.zero))
    return ring.from_entries(oracle.grid_product(
        ring.entries(a), ring.entries(b), base.mul, base.add, base.zero))


@pytest.mark.parametrize("expr", ["M(2, Z(3))", "T(3, Z(2))", "S(3, Z(3))", "V(3, Z(4))",
                                  "polyq(Z(4), 3)", "S(2, prod(Z(2), Z(2)))"])
@pytest.mark.parametrize("tabulate", [True, False])
def test_entry_products_match_the_plain_loop(expr, tabulate):
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=1024 if tabulate else 0)
    ring = elaborate_text(expr, cfg)
    assert ring.tabulated is tabulate
    a, b = (x.ravel() for x in np.meshgrid(np.arange(ring.size), np.arange(ring.size)))
    want = [_loop_mul(ring, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert ring.vmul(a, b).tolist() == want
    assert ring.mul_table()[a, b].tolist() == want


def test_untabulated_products_match_the_plain_loop_on_drawn_ids(m4z2_module):
    ring = m4z2_module.ring
    assert not ring.tabulated
    a, b = draw_ids(Random(5), 64, ring.size, ring.size).T
    want = [_loop_mul(ring, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert ring.vmul(a, b).tolist() == want
    assert [ring.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == want


class _UncheckedMatrixRing(MatrixRing):
    """A matrix ring built without its axiom check, so its entries may be
    a ring with a planted defect."""

    def _seal(self, validate=True):
        super()._seal(validate=False)


@pytest.mark.parametrize("tabulate", [True, False])
def test_matrix_products_keep_a_planted_entry_defect(tabulate):
    # Z(3) with 2 * 2 = 2: a Z(n) subclass must not take the plain Z(n) product
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=1024 if tabulate else 0)
    shape = MatrixShape(FULL, 2)
    ring = _UncheckedMatrixRing(shape, _SkewZn(3, cfg), cfg)
    honest = make_matrix_ring(shape, make_zn(3, cfg), cfg)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(ring.size), np.arange(ring.size)))
    got = ring.vmul(a, b).tolist()
    assert got == [_loop_mul(ring, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert got != honest.vmul(a, b).tolist()


def _layout_ring(expr, cfg):
    """The ring of expr; "M(2, skew Z(3))" is the 2x2 matrices over _SkewZn(3)
    and "V(3, skew-add Z(3))" the v-type ones over _SkewAddZn(3), unchecked."""
    if expr == "M(2, skew Z(3))":
        return _UncheckedMatrixRing(MatrixShape(FULL, 2), _SkewZn(3, cfg), cfg)
    if expr == "V(3, skew-add Z(3))":
        return _UncheckedMatrixRing(MatrixShape(V_TYPE, 3), _SkewAddZn(3, cfg), cfg)
    return elaborate_text(expr, cfg)


# every digitwise ring layout: matrix shapes, truncated polynomials, products
@pytest.mark.parametrize("expr", ["M(2, Z(3))", "T(3, Z(2))", "S(3, Z(3))", "V(3, Z(4))",
                                  "polyq(Z(4), 3)", "prod(Z(2), Z(6))",
                                  "S(2, prod(Z(2), Z(2)))", "M(2, skew Z(3))"])
@pytest.mark.parametrize("tabulate", [True, False])
def test_composed_add_tables_match_the_op_and_the_plain_loop(expr, tabulate):
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=1024 if tabulate else 0)
    ring = _layout_ring(expr, cfg)
    assert ring.tabulated is tabulate
    table = ring.add_table()
    assert table.dtype == np.int32
    assert np.array_equal(table, rings.op_table(ring._vadd, ring.size, ring.size, ring.cells))
    assert table.tolist() == oracle.layout_add_table(ring)


class _SkewAddZn(ZnRing):
    """Z(n) with a planted sum defect: 2 + 2 gains 1.  Still commutative, with
    zero and negatives intact; built unvalidated."""

    def _seal(self, validate=True):
        super()._seal(validate=False)

    def _vadd(self, a, b):
        return (a + b + (a == 2) * (b == 2)) % self.n


# the four shapes at n = 2 and 3 over Z(n), n a power of two and not, and over
# entries whose product does not commute or whose sum is not associative
@pytest.mark.parametrize("expr", [
    "M(2, Z(3))", "M(3, Z(2))", "T(2, Z(3))", "T(3, Z(2))", "S(2, Z(4))", "S(3, Z(3))",
    "V(2, Z(6))", "V(3, Z(4))", "V(2, T(2, Z(2)))", "M(2, skew Z(3))", "V(3, skew-add Z(3))"])
@pytest.mark.parametrize("tabulate", [True, False])
def test_mul_tables_from_entry_tables_match_the_op_and_the_plain_loop(
        monkeypatch, expr, tabulate):
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=1024 if tabulate else 0)
    ring = _layout_ring(expr, cfg)
    assert ring.tabulated is tabulate
    table = ring.mul_table()
    assert table.dtype == np.int32
    assert np.array_equal(table, rings.op_table(ring._vmul, ring.size, ring.size, ring.cells))
    a, b, want = loop_products(ring, expr, _loop_mul)
    assert table[a, b].tolist() == want
    monkeypatch.setattr(rings, "_BLOCK_CELLS", 1)
    assert np.array_equal(ring._tabulate_product(), table)


@pytest.mark.parametrize("kind, threshold, message", [
    (FULL, 1024, "M(2, Z(3)): left distributivity fails at (35, 33, 53)"),  # sampled
    (FULL, 0, "M(2, Z(3)): left distributivity fails at (35, 33, 53)"),
    (UPPER, 1024, "T(2, Z(3)): add not associative at (1, 1, 2)"),  # exact
    (UPPER, 0, "T(2, Z(3)): add not associative at (1, 1, 2)")])  # untabulated, exact
def test_matrix_ring_over_a_broken_sum_fails_its_check_as_before(kind, threshold, message):
    # the same messages as an add table built entry by entry through op_table;
    # the budget lies between T(2, Z(3))'s 3 * 27^2 and M(2, Z(3))'s 4 * 81^2
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=threshold, full_check_budget=2 ** 14)
    with pytest.raises(AxiomError) as err:
        MatrixRing(MatrixShape(kind, 2), _SkewAddZn(3, cfg), cfg)
    assert str(err.value) == message


def test_untabulated_matrix_ring_over_a_broken_sum_samples_above_the_budget():
    # one generator's 27^2 over the budget: the sampled regime's first drawn break
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0, full_check_budget=27 ** 2 - 1)
    with pytest.raises(AxiomError) as err:
        MatrixRing(MatrixShape(UPPER, 2), _SkewAddZn(3, cfg), cfg)
    assert str(err.value) == "T(2, Z(3)): add not associative at (19, 26, 16)"


class _UncheckedRegularModule(RegularModule):
    """A ring's regular module built without its axiom check."""

    def _seal(self, validate=True, share_ring_ops=False):
        super()._seal(False, share_ring_ops)


# each spot law of a ring or a module, replayed at an id through the pointwise
# ops, and each module law at the ids of a triple (keyed by its message)
_SPOT_REPLAYS = {
    "zero is not an additive identity": lambda s, a: s.add(s.zero, a) != a,
    "neg fails": lambda s, a: s.add(a, s.neg(a)) != s.zero,
    "one is not a multiplicative identity":
        lambda r, a: r.mul(r.one, a) != a or r.mul(a, r.one) != a,
    "act(1, m) != m": lambda M, m: M.act(M.ring.one, m) != m,
}
_MODULE_LAW_REPLAYS = {
    "module addition not commutative": lambda M, a, b, c: M.add(a, b) != M.add(b, a),
    "module addition not associative":
        lambda M, a, b, c: M.add(M.add(a, b), c) != M.add(a, M.add(b, c)),
    "(r+s)m != rm+sm":
        lambda M, r, s, m: M.act(M.ring.add(r, s), m) != M.add(M.act(r, m), M.act(s, m)),
    "(rs)m != r(sm)": lambda M, r, s, m: M.act(M.ring.mul(r, s), m) != M.act(r, M.act(s, m)),
    "r(m+n) != rm+rn":
        lambda M, r, m, n: M.act(r, M.add(m, n)) != M.add(M.act(r, m), M.act(r, n)),
}
# a ring law's instance as its regular module names it: the module law, and
# the positions of the ring's ids in the module's
_AS_MODULE_LAW = {
    "zero is not an additive identity": ("zero is not an additive identity", (0,)),
    "neg fails": ("neg fails", (0,)),
    "one is not a multiplicative identity": ("act(1, m) != m", (0,)),
    "add is not commutative": ("module addition not commutative", (0, 1)),
    "add not associative": ("module addition not associative", (0, 1, 2)),
    "mul not associative": ("(rs)m != r(sm)", (0, 1, 2)),
    "left distributivity fails": ("r(m+n) != rm+rn", (0, 1, 2)),
    "right distributivity fails": ("(r+s)m != rm+sm", (1, 2, 0)),
}


def _law_at(message, descriptor):
    """The law a check's message names, and its ids."""
    law, ids = re.fullmatch(re.escape(descriptor) + r": (.+) at (?:m=)?\(?([\d, ]+)\)?",
                            message).groups()
    return law, [int(x) for x in ids.split(", ")]


@pytest.mark.parametrize("make", [lambda: _SkewZn(5, DEFAULT_CONFIG),
                                  lambda: _SkewAddZn(3, DEFAULT_CONFIG),
                                  lambda: _MaxRing(validate=False)],
                         ids=["skew-mul", "skew-add", "max"])
def test_ring_and_regular_module_scans_name_one_broken_law_instance(make):
    ring = make()
    module = _UncheckedRegularModule(ring)
    found = []
    for check, structure in ((check_ring_axioms, ring), (check_module_axioms, module)):
        with pytest.raises(AxiomError) as err:
            check(structure)  # exact: a few elements fit the default budget
        found.append(_law_at(str(err.value), structure.descriptor))
    (ring_law, ring_ids), (module_law, module_ids) = found
    # each message's ids break the law it names, replayed pointwise
    for structure, law, ids in ((ring, ring_law, ring_ids), (module, module_law, module_ids)):
        if law in _SPOT_REPLAYS:
            assert _SPOT_REPLAYS[law](structure, *ids)
        else:
            replays = _MODULE_LAW_REPLAYS if structure is module else _RING_LAW_REPLAYS
            assert replays[law](structure, *ids, *[0] * (3 - len(ids)))
    # and the two messages name the same instance
    law, order = _AS_MODULE_LAW[ring_law]
    assert (module_law, module_ids) == (law, [ring_ids[i] for i in order])
