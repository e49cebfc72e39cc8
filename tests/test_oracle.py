"""The engine against the definition-level oracle, on drawn structures.

Hypothesis draws small structure expressions (every module constructor of
the DSL, under about 256 elements) with a fixed derandomized example list,
so the suite stays deterministic.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracle
from nilcomm import (
    elaborate_text,
    nil_set,
    ring_is_nil_semicommutative,
    ring_is_semicommutative,
    torsion_sets,
)
from nilcomm.deciders import MODULE_PROPERTIES, decide

# (a, r, m) triples the oracle's plain loops visit per property
TRIPLE_BUDGET = 1 << 15

small_rings = st.one_of(
    st.integers(2, 16).map(lambda n: f"Z({n})"),
    st.sampled_from(["T(2, Z(2))", "T(2, Z(3))", "S(2, Z(3))", "S(3, Z(2))",
                     "V(2, Z(4))", "V(3, Z(3))", "M(2, Z(2))", "polyq(Z(2), 4)",
                     "polyq(Z(3), 2)", "prod(Z(2), Z(6))", "prod(Z(3), polyq(Z(2), 2))"]),
)


@st.composite
def modules(draw):
    base = draw(st.one_of(
        small_rings.map(lambda r: f"regular({r})"),
        st.sampled_from(["matmod(2, regular(Z(2)))", "trimod(2, regular(Z(2)))",
                         "trimod(2, regular(Z(3)))", "trimod(3, regular(Z(2)))",
                         "smod(2, regular(Z(4)))", "smod(3, regular(Z(2)))",
                         "vmod(2, regular(Z(5)))", "vmod(3, regular(Z(3)))"]),
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


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(modules())
# a quotient whose ring is larger than the module
@example("quot(induced(zred(8, 4), regular(Z(4))), gen(induced(zred(8, 4), regular(Z(4))), {2}))")
def test_engine_matches_oracle(expr):
    module = elaborate_text(expr)
    nr, nm = module.ring.size, module.size
    assume(nm <= 256 and nr * nr * nm <= TRIPLE_BUDGET)
    act, mul, zero = oracle.tables(module)

    nil = oracle.nil_flags(act, zero)
    engine_nil = nil_set(module)
    assert engine_nil.flags().tolist() == nil
    assert engine_nil.witnesses == {m: (t, 2) for m, t in
                                    oracle.squared_witnesses(act, mul, zero).items()}

    holds = {}
    for prop in MODULE_PROPERTIES:
        verdict = decide(module, prop, mode="exhaustive")
        want = oracle.least_violation(act, mul, zero, prop, nil)
        assert verdict.witness == want, (prop, verdict, want)
        assert verdict.holds is (want is None)
        assert all(type(x) is int for x in verdict.witness or ())
        holds[prop] = verdict.holds
    assert not holds["reduced-i"] or holds["semicommutative"]
    assert not holds["semicommutative"] or holds["weakly-semicommutative"]
    assert not holds["nil-semicommutative"] or holds["weakly-semicommutative"]

    ts = torsion_sets(module)
    assert (ts.tor_mask, ts.t_mask) == oracle.torsion_masks(act, mul, zero,
                                                            module.ring.zero)

    ring = module.ring
    if ring.size ** 3 <= TRIPLE_BUDGET:
        ring_nil = oracle.ring_nil_flags(mul, ring.zero)
        for decider, prop, flags in (
                (ring_is_semicommutative, "semicommutative", ring_nil),
                (ring_is_nil_semicommutative, "nil-semicommutative", ring_nil)):
            want = oracle.least_violation(mul, mul, ring.zero, prop, flags)
            assert decider(ring).witness == want
