"""The engine against the definition-level oracle, on drawn structures.

Hypothesis draws small structure expressions (every module constructor of
the DSL, under about 256 elements) with a fixed derandomized example list,
so the suite stays deterministic.
"""

import itertools
from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import draw_ids
from nilcomm import (
    FULL,
    SPECIAL_UPPER,
    UPPER,
    V_TYPE,
    MatrixShape,
    elaborate_text,
    nil_set,
    ring_is_nil_semicommutative,
    ring_is_semicommutative,
    torsion_sets,
)
from nilcomm import deciders
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.deciders import MODULE_PROPERTIES, decide, decide_many, replay

# (a, r, m) triples the oracle's plain loops visit per property
TRIPLE_BUDGET = 1 << 15

# the matrix, product and truncated-polynomial rings and modules drawn below
LAYOUT_RINGS = ["T(2, Z(2))", "T(2, Z(3))", "S(2, Z(3))", "S(3, Z(2))",
                "V(2, Z(4))", "V(3, Z(3))", "M(2, Z(2))", "polyq(Z(2), 4)",
                "polyq(Z(3), 2)", "prod(Z(2), Z(6))", "prod(Z(3), polyq(Z(2), 2))",
                # matrices whose entries are not Z(n): the generic entry product
                "S(2, prod(Z(2), Z(2)))", "V(2, polyq(Z(2), 2))"]
LAYOUT_MODULES = ["matmod(2, regular(Z(2)))", "trimod(2, regular(Z(2)))",
                  "trimod(2, regular(Z(3)))", "trimod(3, regular(Z(2)))",
                  "smod(2, regular(Z(4)))", "smod(3, regular(Z(2)))",
                  "vmod(2, regular(Z(5)))", "vmod(3, regular(Z(3)))",
                  "trimod(2, prodmod(regular(Z(2)), regular(Z(2))))"]

small_rings = st.one_of(
    st.integers(2, 16).map(lambda n: f"Z({n})"),
    st.sampled_from(LAYOUT_RINGS),
)


@st.composite
def modules(draw):
    base = draw(st.one_of(
        small_rings.map(lambda r: f"regular({r})"),
        st.sampled_from(LAYOUT_MODULES),
        # a generator whose powers never reach 0
        st.integers(2, 16).flatmap(lambda n: st.integers(1, n - 1).filter(
            lambda s: all(pow(s, k, n) for k in range(1, n))).map(
            lambda s: f"locmod(regular(Z({n})), {{{s}}})")),
        st.sampled_from(["induced(zred(8, 4), regular(Z(4)))",
                         "induced(zred(12, 6), regular(Z(6)))",
                         "induced(idhom(T(2, Z(2))), regular(T(2, Z(2))))"]),
    ))
    size = elaborate_text(base).size
    elem = st.integers(0, size - 1)
    return draw(st.one_of(
        st.just(base),
        elem.map(lambda e: f"cyclic({base}, {e})"),
        st.lists(elem, min_size=1, max_size=2).map(
            lambda gs: f"gen({base}, {{{', '.join(map(str, gs))}}})"),
        elem.map(lambda e: f"quot({base}, gen({base}, {{{e}}}))"),
        elem.map(lambda e: f"prodmod({base}, cyclic({base}, {e}))"),
    ))


def _oracle_flags(act, mul, zero, prop, nil, triples):
    bad = oracle.violates(act, mul, zero, prop, nil)
    return [bad(a, r, m) for a, r, m in zip(*triples.tolist())]


@pytest.mark.parametrize("expr", [
    "regular(Z(12))", "matmod(2, regular(Z(2)))", "trimod(2, regular(Z(3)))",
    "vmod(2, regular(Z(4)))", "regular(polyq(Z(2), 3))",
    "prodmod(regular(Z(4)), cyclic(regular(Z(4)), 2))",
    "quot(regular(Z(8)), gen(regular(Z(8)), {4}))",
])
def test_replay_through_structural_ops_matches_oracle(expr):
    # no tables: every product and every nil test goes through the
    # structures' own vectorized operations
    module = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=0))
    assert not module.tabulated
    act, mul, zero = oracle.tables(module)
    nil = oracle.nil_flags(act, zero)
    triples = np.indices((module.ring.size, module.ring.size, module.size)).reshape(3, -1)
    for prop in MODULE_PROPERTIES:
        assert replay(module, prop, *triples).tolist() == _oracle_flags(
            act, mul, zero, prop, nil, triples), prop


def test_least_witness_past_the_first_word_of_rows():
    # the scan packs 64 rows a into a word: 136 rows take three words, the
    # last one 8 rows and 56 zero padding bits, and three least witnesses
    # lie in the second word
    ring = "regular(prod(T(2, Z(2)), Z(17)))"
    module = elaborate_text(f"quot({ring}, gen({ring}, {{1}}))")
    assert (module.ring.size, module.size) == (136, 8)
    act, mul, zero = oracle.tables(module)
    nil = oracle.nil_flags(act, zero)
    rows = []
    for prop in MODULE_PROPERTIES:
        want = oracle.least_violation(act, mul, zero, prop, nil)
        assert decide(module, prop).witness == want, prop
        rows.append(want[0])
    assert sorted(rows) == [34, 34, 68, 68, 68]


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(modules())
# a quotient whose ring is larger than the module
@example("quot(induced(zred(8, 4), regular(Z(4))), gen(induced(zred(8, 4), regular(Z(4))), {2}))")
# matrix entries that are not Z(n), whatever the draws reach
@example("regular(S(2, prod(Z(2), Z(2))))")
@example("regular(V(2, polyq(Z(2), 2)))")
@example("trimod(2, prodmod(regular(Z(2)), regular(Z(2))))")
# a wide module: one word of rows, 62 of its bits padding, for 256 columns
@example(f"prodmod({', '.join(['regular(Z(2))'] * 8)})")
def test_engine_matches_oracle(expr):
    module = elaborate_text(expr)
    nr, nm = module.ring.size, module.size
    assume(nm <= 256 and nr * nr * nm <= TRIPLE_BUDGET)
    act, mul, zero = oracle.tables(module)

    nil = oracle.nil_flags(act, zero)
    engine_nil = nil_set(module)
    assert engine_nil.flags.tolist() == nil
    assert {m: t for m, t in enumerate(engine_nil.killers.tolist()) if t >= 0} == \
        oracle.squared_witnesses(act, mul, zero)

    holds = {}
    triples = np.indices((nr, nr, nm)).reshape(3, -1)
    for prop in MODULE_PROPERTIES:
        verdict = decide(module, prop)
        want = oracle.least_violation(act, mul, zero, prop, nil)
        assert verdict.witness == want, (prop, verdict, want)
        assert verdict.holds is (want is None)
        assert all(type(x) is int for x in verdict.witness or ())
        holds[prop] = verdict.holds
        # replay on every triple, and on the least one alone
        assert replay(module, prop, *triples).tolist() == _oracle_flags(
            act, mul, zero, prop, nil, triples), prop
        if want is not None:
            assert replay(module, prop, *([x] for x in want)).tolist() == [True]
    assert not holds["reduced-i"] or holds["semicommutative"]
    assert not holds["semicommutative"] or holds["weakly-semicommutative"]
    assert not holds["nil-semicommutative"] or holds["weakly-semicommutative"]

    ts = torsion_sets(module)
    assert tuple(sum(1 << m for m in np.flatnonzero(flags).tolist())
                 for flags in (ts.tor, ts.t)) == oracle.torsion_masks(act, mul, zero,
                                                                      module.ring.zero)

    ring = module.ring
    if ring.size ** 3 <= TRIPLE_BUDGET:
        ring_nil = oracle.ring_nil_flags(mul, ring.zero)
        for decider, prop, flags in (
                (ring_is_semicommutative, "semicommutative", ring_nil),
                (ring_is_nil_semicommutative, "nil-semicommutative", ring_nil)):
            want = oracle.least_violation(mul, mul, ring.zero, prop, flags)
            assert decider(ring).witness == want


# every subset of the five properties in every order, each with its first
# property repeated at the end
ORDERS = [[*props, *props[:1]] for k in range(len(MODULE_PROPERTIES) + 1)
          for props in itertools.permutations(MODULE_PROPERTIES, k)]

# the 136-element ring on its 8-element quotient: least witnesses in rows 68
# (the second word of rows) and 34 (the first)
QUOT136 = ("quot(regular(prod(T(2, Z(2)), Z(17))), "
           "gen(regular(prod(T(2, Z(2)), Z(17))), {1}))")


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(modules())
@example(QUOT136)
# 68 rows a, two words: semicommutativity holds over both, the nil,
# reduced-i and reduced-ii scans stop in the first
@example("regular(prod(Z(4), Z(17)))")
def test_decide_many_is_a_loop_of_decide(expr):
    # the shared state is built afresh for each order, so each property
    # reads masks and orbit words that the ones before it built; the loop
    # it must equal is the oracle's least witnesses
    module = elaborate_text(expr)
    nr, nm = module.ring.size, module.size
    assume(nr * nr * nm <= 1 << 19)
    want = {prop: decide(module, prop) for prop in MODULE_PROPERTIES}
    act, mul, zero = oracle.tables(module)
    nil = oracle.nil_flags(act, zero)
    assert [want[p].witness for p in MODULE_PROPERTIES] == [
        oracle.least_violation(act, mul, zero, p, nil) for p in MODULE_PROPERTIES]
    for props in ORDERS:
        assert decide_many(module, props) == [want[p] for p in props], props
    ring = module.ring
    if ring.size ** 3 <= 1 << 19:
        mul = ring.mul_table().tolist()
        ring_nil = oracle.ring_nil_flags(mul, ring.zero)
        for decider, prop in ((ring_is_semicommutative, "semicommutative"),
                              (ring_is_nil_semicommutative, "nil-semicommutative")):
            assert decider(ring).witness == oracle.least_violation(
                mul, mul, ring.zero, prop, ring_nil), prop


def test_complement_words_equal_packing_the_violation():
    # a*x != 0 and a*x not nil reuse their triggers' words complemented, with
    # the padding rows of the last word cleared: the same words as packing
    # the violation itself.  The verdicts cannot show the padding (a
    # trigger's padding bits are zero), so the words are compared here
    module = elaborate_text(QUOT136)
    scan = deciders._module_scan(module, module.config)
    for prop in MODULE_PROPERTIES:
        violation = deciders._PROPERTIES[prop].violation
        words = deciders._lanes(violation(scan, scan.rows, scan.cols))
        assert np.array_equal(scan.packed(violation)[1], words), prop


# a matrix module over regular(R) against the regular module of the matrix
# ring: the same ids, zero, + and product, so the same verdicts, least
# witnesses and nil set.  The four shapes at n <= 3 over Z(2), Z(3), Z(4) and
# the noncommutative T(2, Z(2)), each up to the oracle's 256 elements
MATRIX_OVER_REGULAR = [
    (f"{mod}({n}, regular({base}))", f"regular({ring}({n}, {base}))")
    for mod, ring, kind in (("matmod", "M", FULL), ("trimod", "T", UPPER),
                            ("smod", "S", SPECIAL_UPPER), ("vmod", "V", V_TYPE))
    for base, size in (("Z(2)", 2), ("Z(3)", 3), ("Z(4)", 4), ("T(2, Z(2))", 8))
    for n in (1, 2, 3) if size ** MatrixShape(kind, n).count <= 256]


@pytest.mark.parametrize("expr, regular_expr", MATRIX_OVER_REGULAR)
def test_matrix_module_over_a_regular_module_is_the_regular_module_of_its_ring(
        expr, regular_expr):
    module, regular = elaborate_text(expr), elaborate_text(regular_expr)
    assert module.shares_ring_ops and module.ring.descriptor == regular.ring.descriptor
    # the action table it would build from its entries is the one it shares
    assert np.array_equal(module._tabulate_product(), module.ring.mul_table())
    assert [(v.property, v.holds, v.witness) for v in decide_many(module, MODULE_PROPERTIES)] == [
        (v.property, v.holds, v.witness) for v in decide_many(regular, MODULE_PROPERTIES)]
    nils = nil_set(module), nil_set(regular)
    assert [(s.flags.tolist(), s.killers.tolist()) for s in nils] == [
        (s.flags.tolist(), s.killers.tolist()) for s in reversed(nils)]


def test_a_nested_matrix_module_shares_its_rings_ops():
    module = elaborate_text("matmod(2, matmod(2, regular(Z(2))))")
    assert module.shares_ring_ops and not module.tabulated
    assert module.vact == module.ring.vmul
    r, m = draw_ids(Random(5), 512, module.ring.size, module.size).T
    assert module.vact(r, m).tolist() == module._vact(r, m).tolist()
