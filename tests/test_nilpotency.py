import gc
import weakref

import pytest

from nilcomm import (
    DecisionCapError,
    InvalidParameterError,
    cyclic_submodule,
    elaborate_text,
    is_nil_module,
    is_nilpotent_power,
    is_nilpotent_squared,
    is_torsion_free,
    make_product_module,
    make_zn,
    nil_set,
    regular_module,
    torsion_sets,
)
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.deciders import MODULE_PROPERTIES, decide, decide_many
from nilcomm.harness import _light_config

from conftest import zn_module


def oracle_nil_zn(n):
    """Brute-force nilpotent set of the Z_n-module Z_n over plain integers."""
    members = set()
    for m in range(n):
        if m == 0:
            members.add(m)
            continue
        for t in range(n):
            if (t * t * m) % n == 0 and (t * m) % n != 0:
                members.add(m)
                break
    return members


def oracle_least_witness_zn(n, m):
    for t in range(n):
        if (t * t * m) % n == 0 and (t * m) % n != 0:
            return t
    return None


@pytest.mark.parametrize("n", list(range(2, 31)))
def test_zn_nil_sets_match_integer_oracle(n):
    module = zn_module(n)
    expected = oracle_nil_zn(n)
    ns = nil_set(module)
    assert set(ns.members()) == expected
    for m in range(n):
        assert is_nilpotent_squared(module, m)[0] == (m in expected)
        assert is_nilpotent_power(module, m)[0] == (m in expected)


def test_frozen_nil_sets(z4_module, z6_module, z12_module, m2z2_module):
    assert nil_set(z4_module).members() == [0, 1, 3]
    assert nil_set(z6_module).members() == [0]
    assert nil_set(z12_module).members() == [0, 1, 3, 5, 7, 9, 11]
    assert nil_set(m2z2_module).members() == list(range(16))
    assert nil_set(zn_module(8)).members() == [0, 1, 2, 3, 5, 6, 7]


def test_witnesses_certify_membership(z4_module, z12_module, t2z2_module):
    for module in (z4_module, z12_module, t2z2_module):
        ns = nil_set(module)
        for m in ns.members():
            t = int(ns.killers[m])
            if m == module.zero:
                assert t == -1
                continue
            assert module.act(module.ring.power(t, 2), m) == module.zero
            assert module.act(t, m) != module.zero


def test_witness_is_least(z4_module, z12_module):
    for module, n in ((z4_module, 4), (z12_module, 12)):
        ns = nil_set(module)
        for m, t in enumerate(ns.killers.tolist()):
            assert (None if t < 0 else t) == oracle_least_witness_zn(n, m)


def test_squared_criterion_examples(z6_module, z12_module):
    assert is_nilpotent_squared(z12_module, 1) == (True, 6)
    assert is_nilpotent_squared(z12_module, 0) == (True, None)
    assert is_nilpotent_squared(z6_module, 1) == (False, None)


def _loop_squared(module, m):
    """The squared criterion by a plain loop over the ring, least t first."""
    act, mul, zero = module.act, module.ring.mul, module.zero
    if m == zero:
        return True, None
    for t in module.ring.elements():
        if act(t, m) != zero and act(mul(t, t), m) == zero:
            return True, t
    return False, None


@pytest.mark.parametrize("expr,light", [
    ("trimod(2, regular(Z(4)))", False),
    ("matmod(2, regular(Z(4)))", False),
    ("regular(Z(360))", True),
    ("matmod(2, regular(Z(4)))", True),
])
def test_squared_criterion_matches_the_plain_loop(expr, light, monkeypatch):
    module = elaborate_text(expr, _light_config(DEFAULT_CONFIG) if light else None)
    assert module.tabulated is not light
    monkeypatch.setattr(module, "act_table", lambda: pytest.fail("built an action table"))
    assert ([is_nilpotent_squared(module, m) for m in module.elements()]
            == [_loop_squared(module, m) for m in module.elements()])


def test_power_criterion_examples(z6_module):
    ok, witness = is_nilpotent_power(zn_module(8), 1)
    assert ok and witness == (2, 3)
    r, k = witness
    module = zn_module(8)
    assert module.act(module.ring.power(r, k), 1) == 0
    assert module.act(module.ring.power(r, k - 1), 1) != 0
    assert is_nilpotent_power(z6_module, 3) == (False, None)


def test_power_witness_certifies_on_matrix_module(m2z2_module):
    for m in m2z2_module.elements():
        ok, witness = is_nilpotent_power(m2z2_module, m)
        assert ok
        if witness is not None:
            r, k = witness
            assert k >= 2
            ring = m2z2_module.ring
            assert m2z2_module.act(ring.power(r, k), m) == m2z2_module.zero
            assert m2z2_module.act(ring.power(r, k - 1), m) != m2z2_module.zero


def test_criteria_agree_on_matrix_modules(t2z2_module, t2z4_module, v2z2_module,
                                          m2z2_module):
    for module in (t2z2_module, t2z4_module, v2z2_module, m2z2_module):
        for m in module.elements():
            assert (is_nilpotent_squared(module, m)[0]
                    == is_nilpotent_power(module, m)[0])


def test_is_nil_module(m2z2_module, z4_module):
    assert is_nil_module(m2z2_module)
    assert not is_nil_module(zn_module(2))
    assert is_nil_module(cyclic_submodule(z4_module, 0))


def test_nil_set_cap():
    module = regular_module(make_zn(7))
    tiny = DEFAULT_CONFIG.with_overrides(decision_cap=10)
    with pytest.raises(DecisionCapError):
        nil_set(module, tiny)


@pytest.mark.parametrize("compute", [nil_set, torsion_sets])
def test_cached_sets_still_respect_the_callers_cap(compute):
    # a set one caller computed must not slip past another caller's cap
    module = regular_module(make_zn(12))
    compute(module)
    with pytest.raises(DecisionCapError):
        compute(module, DEFAULT_CONFIG.with_overrides(decision_cap=10))
    forced = DEFAULT_CONFIG.with_overrides(decision_cap=10, force=True)
    assert compute(module, forced) is compute(module)
    # a forced caller governs the scans inside too: the ring's regular elements
    cap100 = DEFAULT_CONFIG.with_overrides(decision_cap=100)
    capped = regular_module(make_zn(12, cap100), cap100)
    with pytest.raises(DecisionCapError):
        compute(capped)
    assert compute(capped, cap100.with_overrides(force=True)) is compute(capped, forced)


@pytest.mark.parametrize("expr", ["regular(Z(12))", "matmod(2, regular(Z(4)))"])
def test_a_decided_module_is_freed_without_the_cyclic_collector(expr):
    # the cached nil and torsion sets name their module by its descriptor, so
    # dropping the module frees it and its tables at once
    module = elaborate_text(expr)
    gc.disable()
    try:
        for prop in MODULE_PROPERTIES:
            decide(module, prop)
        assert nil_set(module).to_json_dict()["descriptor"] == expr
        torsion_sets(module)
        gone = weakref.ref(module)
        del module
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("expr", ["Z(4)", "M(2, Z(4))", "matmod(2, regular(Z(4)))"])
def test_an_untabulated_structure_is_freed_without_the_cyclic_collector(expr):
    # its structural ops are its class's hooks, not bound methods of itself
    # kept on it, so dropping it frees it at once, also after a decision has
    # built its product table
    structure = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=0))
    assert not structure.tabulated
    gc.disable()
    try:
        if hasattr(structure, "ring"):
            decide_many(structure, MODULE_PROPERTIES)
        assert structure.add(structure.zero, structure.zero) == structure.zero
        gone = weakref.ref(structure)
        del structure
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("expr, tabulated", [("regular(Z(12))", True),
                                             ("matmod(2, regular(Z(4)))", False)])
def test_nil_flags_are_built_once_and_read_only(expr, tabulated):
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=16)
    module = elaborate_text(expr, cfg)
    assert module.tabulated is tabulated
    nils = nil_set(module)
    flags = nils.flags
    assert flags.tolist() == [m in nils for m in module.elements()]
    assert nil_set(module).flags is flags
    for array in (flags, nils.killers):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[1]


def test_torsion_sets_z6(z6_module):
    ts = torsion_sets(z6_module)
    assert ts.tor_members() == [0, 2, 3, 4]
    assert ts.t_members() == [0]
    assert 3 in ts.tor_members() and 3 not in ts.t_members()
    # 2 + 3 = 5 escapes the torsion set, so it is not a submodule here
    assert not ts.tor_closed_add
    assert ts.t_is_submodule


def test_torsion_free_modules():
    assert is_torsion_free(zn_module(3))
    assert is_torsion_free(zn_module(5))
    assert not is_torsion_free(zn_module(4))
    pair = make_product_module([zn_module(3), zn_module(3)])
    assert is_torsion_free(pair)
    assert torsion_sets(pair).tor_members() == [0]


def test_t_subset_of_tor(hierarchy_zoo):
    for module in hierarchy_zoo:
        ts = torsion_sets(module)
        assert not (ts.t & ~ts.tor).any()


def test_torsion_free_implies_trivial_nil(hierarchy_zoo):
    for module in hierarchy_zoo:
        if is_torsion_free(module):
            assert nil_set(module).members() == [module.zero]


def test_submodule_nil_sets_embed(z12_module, t2z4_module):
    for parent in (z12_module, zn_module(8), t2z4_module):
        parent_nil = nil_set(parent)
        for g in range(0, parent.size, 3):
            sub = cyclic_submodule(parent, g)
            for m in nil_set(sub).members():
                assert sub.embed(m) in parent_nil


def test_nilset_serialization(z4_module):
    payload = nil_set(z4_module).to_json_dict()
    assert payload["members"] == [0, 1, 3]
    assert payload["witnesses"]["1"] == {"t": 2, "k": 2}
    assert payload["descriptor"] == "regular(Z(4))"


def test_nilpotency_criteria_refuse_ids_of_no_element():
    tabulated = zn_module(4)
    for criterion in (is_nilpotent_squared, is_nilpotent_power):
        for m in (-1, 4):
            with pytest.raises(InvalidParameterError, match=f"element {m} is not in"):
                criterion(tabulated, m)
    # decoding drops an id's bits above the size: 70000 would be read as 4464
    untabulated = elaborate_text("matmod(4, regular(Z(2)))")
    assert not untabulated.tabulated
    with pytest.raises(InvalidParameterError) as exc:
        is_nilpotent_squared(untabulated, 70000)
    assert str(exc.value) == ("element 70000 is not in matmod(4, regular(Z(2))) "
                              "(size 65536)")
