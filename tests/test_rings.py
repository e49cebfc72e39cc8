import numpy as np
import pytest

from nilcomm import (
    FULL,
    SPECIAL_UPPER,
    UPPER,
    V_TYPE,
    AxiomError,
    FiniteRing,
    InvalidHomError,
    InvalidParameterError,
    MatrixShape,
    SizeCapError,
    center,
    check_ring_axioms,
    make_matrix_ring,
    make_poly_quotient_ring,
    make_product_ring,
    make_ring_hom,
    make_zn,
    nil_ring_set,
    nilpotency_degree,
    regular_elements,
    verify_theta_iso,
    zn_reduction_hom,
)
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.rings import PolyQuotientRing


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


def test_center():
    assert center(make_zn(12)) == frozenset(range(12))
    m2 = make_matrix_ring(MatrixShape(FULL, 2), make_zn(2))
    assert center(m2) == frozenset({m2.zero, m2.one})
    t2 = make_matrix_ring(MatrixShape(UPPER, 2), make_zn(2))
    assert center(t2) == frozenset({t2.zero, t2.one})


def test_regular_elements():
    assert regular_elements(make_zn(6)) == frozenset({1, 5})
    assert regular_elements(make_zn(5)) == frozenset({1, 2, 3, 4})
    assert regular_elements(make_zn(4)) == frozenset({1, 3})


def test_nil_ring_set():
    assert nil_ring_set(make_zn(4)) == frozenset({0, 2})
    assert nil_ring_set(make_zn(6)) == frozenset({0})
    t2 = make_matrix_ring(MatrixShape(UPPER, 2), make_zn(2))
    assert nil_ring_set(t2) == frozenset({t2.zero, t2.unit(0, 1, 1)})


def test_regular_and_nil_disjoint_and_one_regular(hierarchy_zoo):
    for module in hierarchy_zoo:
        ring = module.ring
        regs = regular_elements(ring)
        nils = nil_ring_set(ring)
        assert not regs & nils
        assert ring.one in regs


def test_nilpotency_degree():
    z8 = make_zn(8)
    assert nilpotency_degree(z8, 0) == 1
    assert nilpotency_degree(z8, 2) == 3
    assert nilpotency_degree(z8, 4) == 2
    assert nilpotency_degree(z8, 3) is None


def test_is_commutative():
    assert make_zn(9).is_commutative()
    assert not make_matrix_ring(MatrixShape(FULL, 2), make_zn(2)).is_commutative()
    assert make_matrix_ring(MatrixShape(V_TYPE, 3), make_zn(2)).is_commutative()


def test_construction_cap():
    with pytest.raises(SizeCapError):
        make_matrix_ring(MatrixShape(FULL, 4), make_zn(4))


def test_trivial_ring_rejected_via_custom_class():
    class Trivial(FiniteRing):
        def __init__(self):
            super().__init__(1, "trivial", DEFAULT_CONFIG)
            self.zero = 0
            self.one = 0
            self._seal()

        def _add(self, a, b):
            return 0

        def _mul(self, a, b):
            return 0

        def _neg(self, a):
            return 0

    with pytest.raises(InvalidParameterError):
        Trivial()


def test_axiom_check_catches_broken_mul():
    class Broken(FiniteRing):
        """mul(a, b) = a + b is not associative with the rest of the axioms."""

        def __init__(self):
            super().__init__(3, "broken", DEFAULT_CONFIG)
            self.zero = 0
            self.one = 1
            self._seal()

        def _add(self, a, b):
            return (a + b) % 3

        def _mul(self, a, b):
            return max(a, b)

        def _neg(self, a):
            return (-a) % 3

    with pytest.raises(AxiomError):
        Broken()


def test_full_axiom_validation_on_small_structures(t2z4_module, m2z2_module):
    for ring in (make_zn(12), make_zn(16),
                 make_matrix_ring(MatrixShape(UPPER, 2), make_zn(4)),
                 m2z2_module.ring,
                 make_poly_quotient_ring(make_zn(3), 2),
                 make_product_ring([make_zn(4), make_zn(3)])):
        check_ring_axioms(ring, exhaustive=True)
    check_ring_axioms(t2z4_module.ring, exhaustive=True)


def test_sampled_axiom_validation_on_large_ring(m4z2_module):
    check_ring_axioms(m4z2_module.ring, exhaustive=False, samples=2000)


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
