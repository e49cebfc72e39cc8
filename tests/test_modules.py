import re
from random import Random

import numpy as np
import pytest

from nilcomm import (
    FULL,
    UPPER,
    AxiomError,
    DecisionCapError,
    FiniteModule,
    InvalidParameterError,
    MatrixShape,
    ShapeMismatchError,
    center,
    check_module_axioms,
    check_ring_axioms,
    cyclic_submodule,
    elaborate_text,
    identity_hom,
    induced_module,
    make_product_module,
    make_product_ring,
    make_zn,
    matrix_module,
    quotient_module,
    regular_module,
    ring_is_nil_semicommutative,
    ring_is_semicommutative,
    submodule_generated,
    zn_reduction_hom,
)
import nilcomm.harness as harness
import nilcomm.rings as rings
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.deciders import MODULE_PROPERTIES, decide
from nilcomm.modules import SubModule, orbit
from nilcomm.nilpotency import squared_killers
from nilcomm.rings import ZnRing, _stable_seed, check_laws, exact_fits, first_broken

import oracle
from conftest import draw_ids, loop_products, mat_mod, record_sampled_draws, zn_module
from test_rings import _MODULE_LAW_REPLAYS, _SkewZn, _UncheckedRegularModule


def test_regular_module_shares_ring_ops(z4_module):
    assert z4_module.size == 4
    assert z4_module.act(2, 2) == 0
    assert z4_module.add(3, 3) == 2
    assert z4_module.neg(1) == 3
    assert z4_module.vact is z4_module.ring.vmul


def test_regular_module_over_matrix_ring(m2z2_module):
    reg = regular_module(m2z2_module.ring)
    assert reg.size == 16 and reg.ring.size == 16
    e12 = reg.ring.unit(0, 1, 1)
    e21 = reg.ring.unit(1, 0, 1)
    assert reg.act(e12, e21) == reg.ring.unit(0, 0, 1)


def test_matrix_module_sizes(m2z2_module, t2z4_module):
    assert m2z2_module.size == 16
    assert m2z2_module.ring.size == 16
    assert t2z4_module.size == 64
    assert t2z4_module.ring.size == 64


def test_matrix_module_unit_action(m2z2_module):
    ring = m2z2_module.ring
    e12 = ring.unit(0, 1, 1)
    e21 = ring.unit(1, 0, 1)
    e11 = ring.unit(0, 0, 1)
    for k in m2z2_module.elements():
        assert (m2z2_module.act(e12, m2z2_module.act(e21, k))
                == m2z2_module.act(e11, k))


def test_matrix_module_shape_mismatch():
    z2 = make_zn(2)
    z4 = make_zn(4)
    with pytest.raises(ShapeMismatchError):
        matrix_module(MatrixShape(FULL, 2), z4, regular_module(z2))


def test_cyclic_submodule(z4_module, z6_module):
    sub = cyclic_submodule(z4_module, 2)
    assert sub.size == 2
    assert sub.embedding == (0, 2)
    assert sub.embed(sub.zero) == 0
    zero_sub = cyclic_submodule(z4_module, 0)
    assert zero_sub.size == 1
    whole = cyclic_submodule(z6_module, 1)
    assert whole.size == 6
    with pytest.raises(InvalidParameterError):
        cyclic_submodule(z4_module, 7)


def test_submodule_generated(z12_module):
    empty = submodule_generated(z12_module, [])
    assert empty.size == 1
    unital = submodule_generated(zn_module(8), [1])
    assert unital.size == 8
    two_three = submodule_generated(z12_module, [2, 3])
    assert two_three.size == 12


def test_submodule_ops_match_parent(z12_module):
    sub = cyclic_submodule(z12_module, 2)  # {0, 2, 4, 6, 8, 10}
    assert sub.size == 6
    a = sub.class_of[4]
    b = sub.class_of[10]
    assert sub.embed(sub.add(a, b)) == 2
    assert sub.embed(sub.act(5, a)) == 8


def test_submodule_rejects_non_closed_set(z4_module):
    with pytest.raises(InvalidParameterError):
        SubModule(z4_module, (0, 1), "bad", DEFAULT_CONFIG)


def test_quotient_module(z4_module):
    sub = cyclic_submodule(z4_module, 2)
    q = quotient_module(z4_module, sub)
    assert q.size == 2
    whole = cyclic_submodule(z4_module, 1)
    assert quotient_module(z4_module, whole).size == 1
    zero_sub = cyclic_submodule(z4_module, 0)
    q_triv = quotient_module(z4_module, zero_sub)
    assert q_triv.size == 4
    assert all(q_triv.add(a, b) == z4_module.add(a, b)
               for a in range(4) for b in range(4))


def test_quotient_rejects_foreign_submodule(z4_module, z6_module):
    sub6 = cyclic_submodule(z6_module, 2)
    with pytest.raises(InvalidParameterError):
        quotient_module(z4_module, sub6)


class _MovedCell(FiniteModule):
    """regular(Z(12)) with one cell of one operation moved: the sum (op "add")
    or the action (op "act") gains 1 at cell.  Built unvalidated, so only the
    quotient's own scans can catch it."""

    def __init__(self, op, cell):
        super().__init__(make_zn(12), 12, f"moved-{op}{cell}", DEFAULT_CONFIG)
        self.op, self.cell = op, cell
        self.zero = 0
        self._seal(validate=False)

    def _bump(self, op, a, b):
        return (op == self.op) * (a == self.cell[0]) * (b == self.cell[1])

    def _vadd(self, m, n):
        return (m + n + self._bump("add", m, n)) % 12

    def _vneg(self, m):
        return (-m) % 12

    def _vact(self, r, m):
        return (r * m + self._bump("act", r, m)) % 12


@pytest.mark.parametrize("op, cell, gen, message", [
    # 5 + 6 lands on 0, so the coset of 0 takes 5 in as well
    ("add", (5, 6), 6, "quot(moved-add(5, 6), ...): the cosets of the subset do not "
                       "partition the module; the subset is not closed"),
    ("add", (3, 5), 6, "quot(moved-add(3, 5), cyclic(moved-add(3, 5), 6)): addition "
                       "is not well defined at cosets (3, 5)"),
    # the least bad parent pair (3, 5) names cosets, not parent ids
    ("add", (3, 5), 3, "quot(moved-add(3, 5), cyclic(moved-add(3, 5), 3)): addition "
                       "is not well defined at cosets (0, 2)"),
    ("act", (2, 7), 4, "quot(moved-act(2, 7), cyclic(moved-act(2, 7), 4)): the action "
                       "is not well defined at (r=2, coset 3)"),
    ("act", (3, 5), 3, "quot(moved-act(3, 5), cyclic(moved-act(3, 5), 3)): the action "
                       "is not well defined at (r=3, coset 2)"),
])
def test_planted_parent_quotient_failures(op, cell, gen, message):
    parent = _MovedCell(op, cell)
    with pytest.raises(AxiomError) as err:
        quotient_module(parent, cyclic_submodule(parent, gen))
    assert str(err.value) == message


@pytest.mark.parametrize("expr, count, scan", [
    ("cyclic(regular(Z(12)), 2)", 6 * 12, "closure"),  # 6 members, 12 ring elements
    ("gen(regular(Z(12)), {4})", 3 * 12, "closure"),  # the loop's last pass: {0, 4, 8}
    ("quot(regular(Z(12)), cyclic(regular(Z(12)), 4))", 12 * 12, "coset"),
])
def test_submodule_and_quotient_scans_obey_the_decision_cap(expr, count, scan):
    below = DEFAULT_CONFIG.with_overrides(decision_cap=count - 1)
    with pytest.raises(DecisionCapError, match=re.escape(
            f"{expr}: {scan} scan of {count} pairs exceeds cap {count - 1}")):
        elaborate_text(expr, below)
    for config in (DEFAULT_CONFIG.with_overrides(decision_cap=count),
                   below.with_overrides(force=True)):
        assert elaborate_text(expr, config).descriptor == expr


def test_derived_structures_take_their_operands_config():
    cfg = DEFAULT_CONFIG.with_overrides(decision_cap=100, force=True)
    module = regular_module(make_zn(12, cfg))
    sub = cyclic_submodule(module, 1)
    derived = (module, sub, submodule_generated(module, [4]), quotient_module(module, sub),
               make_product_module([module, zn_module(12)]))
    assert all(d.config is cfg for d in derived)
    # the operand's cap bounds the closure scans it was not given
    capped = regular_module(make_zn(12, cfg.with_overrides(force=False)))
    for build in (lambda: cyclic_submodule(capped, 1),
                  lambda: submodule_generated(capped, [1])):
        with pytest.raises(DecisionCapError, match="closure scan of 144 pairs exceeds cap 100"):
            build()
    # interned under the config it resolves to, given or not
    with rings.interning():
        ring = make_zn(5, cfg)
        assert regular_module(ring) is regular_module(ring, cfg)


def test_induced_module():
    h = zn_reduction_hom(8, 4)
    ind = induced_module(h, zn_module(4))
    assert ind.ring.size == 8
    assert ind.act(6, 1) == 2
    assert ind.act(5, 1) == 1
    ident = identity_hom(make_zn(5))
    same = induced_module(ident, zn_module(5))
    assert all(same.act(r, m) == (r * m) % 5 for r in range(5) for m in range(5))


def test_product_module():
    pm = make_product_module([zn_module(3), zn_module(3)])
    assert pm.size == 9
    # element (1, 2) has id 1 * 3 + 2 = 5; scaling by 2 gives (2, 4 mod 3) = (2, 1)
    assert pm.act(2, 5) == 2 * 3 + 1
    assert pm.render(5) == "(1, 2)"
    with pytest.raises(InvalidParameterError):
        make_product_module([zn_module(3), zn_module(4)])


def test_full_module_axiom_validation(t2z4_module, m2z2_module, v2z2_module):
    for module in (zn_module(12), m2z2_module, v2z2_module,
                   make_product_module([zn_module(3), zn_module(3)]), t2z4_module):
        assert check_laws(module, module.ring)  # its own exact check, not its ring's


def test_sampled_module_axiom_validation(m4z2_module):
    assert not check_laws(m4z2_module, m4z2_module.ring)


def test_module_axiom_check_catches_broken_action():
    class BadAction(FiniteModule):
        """act(r, m) = m + r breaks act(0, m) = 0 and multiplicativity."""

        def __init__(self):
            ring = make_zn(4)
            super().__init__(ring, 4, "bad-action", DEFAULT_CONFIG)
            self.zero = 0
            self._seal()

        def _vadd(self, m, n):
            return (m + n) % 4

        def _vact(self, r, m):
            return (m + r) % 4

        def _vneg(self, m):
            return (-m) % 4

    with pytest.raises(AxiomError, match=r"act\(1, m\) != m at m=0"):
        BadAction()


class _TwistedAction(FiniteModule):
    """Z(n) acted on by Z(n) x Z(n) through (a, b) m = (2a - b) m: additive
    and unital in r, but (rs)m != r(sm) for most triples.  Built unvalidated,
    so a test can run the check itself."""

    def __init__(self, n, config):
        ring = make_product_ring([make_zn(n, config)] * 2, config)
        super().__init__(ring, n, f"twisted({n})", config)
        self.n = n
        self.zero = 0
        self._seal(validate=False)

    def _vadd(self, m, k):
        return (m + k) % self.n

    def _vneg(self, m):
        return (-m) % self.n

    def _vact(self, r, m):
        a, b = np.divmod(r, self.n)  # the product ring's first factor leads
        return ((2 * a - b) * m) % self.n


def test_sampled_module_check_catches_a_planted_action_defect():
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0, full_check_budget=0)
    messages = []
    for _ in range(2):  # two fresh modules under one config
        module = _TwistedAction(12, cfg)
        assert not exact_fits(cfg, 1, module.size, module.ring.size)
        with pytest.raises(AxiomError) as err:
            check_module_axioms(module)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    r, s, m = map(int, re.fullmatch(
        r"twisted\(12\): \(rs\)m != r\(sm\) at \((\d+), (\d+), (\d+)\)",
        messages[0]).groups())
    ring = module.ring
    assert module.act(ring.mul(r, s), m) != module.act(r, module.act(s, m))
    # and they are the first drawn broken triple when each family is drawn
    # on its own, in order
    assert messages[0] == _first_drawn_break(module)[0]


def _first_drawn_break(module):
    """The message of the first broken drawn triple, replaying one
    draw_ids call per family (no spot draw: the module has at most
    validation_samples elements), and the families that break at all."""
    cfg, nm, nr = module.config, module.size, module.ring.size
    assert nm <= cfg.validation_samples
    rng = Random(_stable_seed(cfg, module.descriptor))
    found = []
    for sizes, messages in zip(((nm, nm, nm), (nr, nr, nm), (nr, nm, nm)),
                               rings._MODULE_LAWS):
        drawn = draw_ids(rng, cfg.validation_samples, *sizes).tolist()
        found += [f"{module.descriptor}: " + message.format(*t)
                  for t in drawn for message in messages
                  if _MODULE_LAW_REPLAYS[message.split(" at ")[0]](module, *t)][:1]
    return found


class _SkewAction(FiniteModule):
    """Z(n) over itself with r * m gaining 1 when r, m > 1: unital, and the
    module addition is Z(n)'s, but (r+s)m, (rs)m and r(m+n) all fail to
    expand for some triples.  Built unvalidated."""

    def __init__(self, n, config):
        super().__init__(make_zn(n, config), n, f"skew({n})", config)
        self.n = n
        self.zero = 0
        self._seal(validate=False)

    def _vadd(self, m, k):
        return (m + k) % self.n

    def _vneg(self, m):
        return (-m) % self.n

    def _vact(self, r, m):
        return (r * m + (r > 1) * (m > 1)) % self.n


def test_sampled_module_check_reports_the_earlier_of_two_broken_families():
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0, full_check_budget=0)
    module = _SkewAction(50, cfg)
    assert not exact_fits(cfg, 1, 50, 50)
    with pytest.raises(AxiomError) as err:
        check_module_axioms(module)
    second, third = _first_drawn_break(module)  # the addition family holds
    assert "r(m+n)" in third and "r(m+n)" not in second
    assert str(err.value) == second


class _SkewSum(FiniteModule):
    """Z(n) over itself with 1 + 2 gaining 1: zero and negatives still behave,
    but + is neither commutative at (1, 2) nor associative at (1, 1, 1).
    Built unvalidated."""

    def __init__(self, n, config):
        super().__init__(make_zn(n, config), n, f"skew-sum({n})", config)
        self.n = n
        self.zero = 0
        self._seal(validate=False)

    def _vadd(self, m, k):
        return (m + k + (m == 1) * (k == 2)) % self.n

    def _vneg(self, m):
        return (-m) % self.n

    def _vact(self, r, m):
        return (r * m) % self.n


@pytest.mark.parametrize("overrides", [{}, {"full_check_budget": 1}])  # exact, sampled
def test_a_tabulated_module_checks_its_sum_commutes_at_every_pair(overrides):
    # before the spot laws, the proof and the drawn families
    module = _SkewSum(5, DEFAULT_CONFIG.with_overrides(**overrides))
    assert module.tabulated
    with pytest.raises(AxiomError, match=re.escape(
            "skew-sum(5): module addition not commutative at (1, 2)")):
        check_module_axioms(module)


def _reference_rows(module) -> list:
    """The rows a sampled check of module draws, by the tests' reference
    draw from its descriptor's seed: the spot ids (every id when tabulated
    or not above the sample count), then each family's."""
    cfg, nm, nr = module.config, module.size, module.ring.size
    samples = cfg.validation_samples
    rng = Random(_stable_seed(cfg, module.descriptor))
    spots = draw_ids(rng, samples, nm) if samples < nm else None
    if spots is None or module.tabulated:
        spots = np.arange(nm)[:, None]
    return [spots.tolist()] + [draw_ids(rng, samples, *sizes).tolist()
                               for sizes in ((nm, nm, nm), (nr, nr, nm), (nr, nm, nm))]


@pytest.mark.parametrize("samples", [30, 40])  # 36 elements: spot ids drawn below 36 samples
def test_sampled_module_check_draws_once_what_consecutive_draws_gave(monkeypatch, samples):
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0, full_check_budget=0,
                                        validation_samples=samples)
    module = elaborate_text("prodmod(regular(Z(6)), regular(Z(6)))", cfg)
    checked, draws = record_sampled_draws(monkeypatch)
    check_module_axioms(module)
    assert len(draws) == 1
    assert checked == _reference_rows(module)


def _record_law_scans(monkeypatch) -> list:
    """The descriptor of every ring and module whose laws the shared table
    kernel scans from here on."""
    scanned, scan_laws = [], rings._scan_laws
    monkeypatch.setattr(rings, "_scan_laws", lambda structure, *tables: (
        scanned.append(structure.descriptor), scan_laws(structure, *tables))[1])
    return scanned


@pytest.mark.parametrize("ring_expr", [*(f"Z({n})" for n in range(2, 41)), "M(2, Z(2))",
                                       "T(2, Z(2))", "prod(Z(2), Z(4))", "polyq(Z(2), 3)"])
def test_regular_module_takes_its_rings_exhaustive_scan(monkeypatch, ring_expr):
    scanned = _record_law_scans(monkeypatch)
    module = elaborate_text(f"regular({ring_expr})")
    assert module.shares_ring_ops and module.ring.laws_exact
    assert scanned[-1] == ring_expr  # the ring scanned last, the module not at all
    # the same laws still pass the module's own scan when it is asked for
    del scanned[:]
    assert check_laws(module, module.ring)
    assert scanned == [module.descriptor]


@pytest.mark.parametrize("ring_expr, overrides", [
    # the rings are proven at 1, 3 and 4 additive generators, and so are their
    # modules under the same config: they take the proof and draw nothing
    ("Z(41)", {}), ("T(2, Z(4))", {}),
    ("Z(20)", {"full_check_budget": 20 ** 2 - 1}),  # the module's own rule samples
    ("M(2, Z(3))", {})])
def test_a_sampled_regular_module_draws_its_own_samples(monkeypatch, ring_expr, overrides):
    ring = elaborate_text(f"regular({ring_expr})").ring
    assert ring.laws_exact
    cfg = DEFAULT_CONFIG.with_overrides(**overrides)
    checked, draws = record_sampled_draws(monkeypatch)
    regular_module(ring, cfg)
    if not overrides:
        assert draws == [] and checked == []
    else:
        # one draw; the spot laws at every id, then each family's samples
        assert len(draws) == 1
        assert [len(rows) for rows in checked] == [ring.size] + [cfg.validation_samples] * 3


@pytest.mark.parametrize("make, message", [
    (lambda cfg: _SkewAction(50, cfg), "skew(50): (r+s)m != rm+sm at (3, 49, 23)"),
    (lambda cfg: _SkewAction(90, cfg), "skew(90): (rs)m != r(sm) at (10, 85, 1)"),
    (lambda cfg: _UncheckedRegularModule(_SkewZn(50, cfg)),
     "regular(Z(50)): (r+s)m != rm+sm at (21, 12, 5)")])
def test_a_planted_defect_the_proof_finds_reports_the_first_drawn_triple(
        monkeypatch, make, message):
    # tabulated, under a budget the exact check does not fit: one draw, and
    # the drawn families report the first drawn broken triple
    sampled = DEFAULT_CONFIG.with_overrides(full_check_budget=0)
    module = make(sampled)
    assert module.tabulated and not exact_fits(sampled, 1, module.size, module.ring.size)
    _, draws = record_sampled_draws(monkeypatch)
    with pytest.raises(AxiomError) as err:
        check_module_axioms(module)
    assert len(draws) == 1
    assert str(err.value) == message == _first_drawn_break(module)[0]
    # under the default budget the proof finds the same defect, and nothing
    # is drawn
    del draws[:]
    module = make(DEFAULT_CONFIG)
    assert exact_fits(DEFAULT_CONFIG, len(module.additive_generators()),
                      module.size, module.ring.size)
    with pytest.raises(AxiomError):
        check_module_axioms(module)
    assert draws == []


@pytest.mark.parametrize("n", [2, 40])
def test_regular_module_over_an_untabulated_ring_scans_its_own_laws(monkeypatch, n):
    # one regime rule for rings and modules: the light ring's n^2 fits the
    # budget, so the ring checks its laws exactly, untabulated, and its module
    # takes that check as its own
    cfg = harness._light_config(DEFAULT_CONFIG)
    scanned = _record_law_scans(monkeypatch)
    ring = make_zn(n, cfg)
    assert not ring.tabulated and ring.laws_exact
    regular_module(ring, cfg)
    assert scanned == [f"Z({n})"]


@pytest.mark.parametrize("light", [False, True])
@pytest.mark.parametrize("expr", ["Z(2)", "polyq(Z(2), 3)", "Z(40)", "Z(41)", "T(2, Z(4))"])
def test_a_ring_scans_its_laws_exactly_when_they_fit_the_budget(expr, light):
    cfg = harness._light_config(DEFAULT_CONFIG) if light else DEFAULT_CONFIG
    ring = elaborate_text(expr, cfg)
    assert ring.tabulated is not light
    # every one fits 2^16; the light budget holds Z(40), not Z(41) or T(2, Z(4))
    assert ring.laws_exact == (not light or ring.size <= 40) == exact_fits(
        cfg, len(ring.additive_generators()), ring.size, ring.size)


def test_regular_module_over_a_broken_ring_fails_its_own_scan():
    ring = _SkewZn(5, DEFAULT_CONFIG)  # built without its check
    with pytest.raises(AxiomError, match=re.escape(
            "regular(Z(5)): (r+s)m != rm+sm at (1, 1, 2)")):
        regular_module(ring)
    with pytest.raises(AxiomError):
        check_ring_axioms(ring)
    assert not ring.laws_exact


@pytest.mark.parametrize("expr", ["matmod(2, regular(Z(2)))", "trimod(3, regular(Z(2)))",
                                  "smod(3, regular(Z(3)))", "vmod(3, regular(Z(4)))",
                                  "matmod(2, matmod(1, regular(Z(3))))"])
def test_a_matrix_module_over_a_regular_module_takes_its_rings_exact_check(
        monkeypatch, expr):
    scanned = _record_law_scans(monkeypatch)
    _, draws = record_sampled_draws(monkeypatch)
    module = elaborate_text(expr)
    assert module.shares_ring_ops and module.ring.laws_exact
    assert module.act_table() is module.ring.mul_table()
    assert module.add_table() is module.ring.add_table()
    # the ring scanned last, the module not at all, and nothing drawn
    assert scanned[-1] == module.ring.descriptor and module.descriptor not in scanned
    assert draws == []


@pytest.mark.parametrize("expr, nbytes", [
    # 3 families of 3 ids, 2000 rows, 8 bytes an id; M(4, Z(2)) draws its
    # 65536 spot ids too, untabulated
    ("matmod(2, regular(Z(4)))", 144000), ("smod(3, regular(Z(4)))", 144000),
    ("matmod(4, regular(Z(2)))", 160000)])
def test_a_matrix_module_over_a_sampled_ring_draws_its_own_samples(
        monkeypatch, expr, nbytes):
    checked, draws = record_sampled_draws(monkeypatch)
    module = elaborate_text(expr)
    assert module.shares_ring_ops and not module.ring.laws_exact
    # the ring's draw, then the module's own, seeded by its descriptor
    assert len(draws) == 2 and draws[-1] == nbytes
    assert checked[-4:] == _reference_rows(module)


def test_a_matrix_module_over_a_product_base_keeps_its_own_tables_and_check(monkeypatch):
    scanned = _record_law_scans(monkeypatch)
    checked, draws = record_sampled_draws(monkeypatch)
    module = elaborate_text("matmod(2, prodmod(regular(Z(2)), regular(Z(2))))")
    assert not module.shares_ring_ops and module.tabulated
    assert module.act_table() is module._product_rows
    assert not np.array_equal(module.act_table(), module.ring.mul_table())
    # M(2, Z(2)) is proven; the module's 256 elements at 8 additive
    # generators exceed the budget, so it draws its own samples
    assert scanned[-1] == module.ring.descriptor
    assert draws == [144000] and checked[-4:] == _reference_rows(module)


@pytest.mark.parametrize("overrides, message", [
    ({}, "M(2, Z(3)): right distributivity fails at (2, 1, 1)"),  # exact
    ({"full_check_budget": 0}, "M(2, Z(3)): mul not associative at (35, 33, 53)")])
def test_a_matrix_module_over_a_broken_ring_is_refused_by_the_rings_check(
        overrides, message):
    cfg = DEFAULT_CONFIG.with_overrides(**overrides)
    skew = _SkewZn(3, cfg)  # built without its check
    with pytest.raises(AxiomError) as err:
        matrix_module(MatrixShape(FULL, 2), skew, _UncheckedRegularModule(skew), cfg)
    assert str(err.value) == message


def _record_table_builds(monkeypatch) -> list:
    """The (rows, cols) of every operation table built from here on."""
    builds = []
    op_table = rings.op_table
    monkeypatch.setattr(rings, "op_table", lambda op, rows, cols, cells: (
        builds.append((rows, cols)), op_table(op, rows, cols, cells))[1])
    return builds


def test_untabulated_module_builds_its_action_table_once(monkeypatch):
    expr = "matmod(2, regular(Z(4)))"
    module = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=200))
    assert not module.tabulated
    builds = _record_table_builds(monkeypatch)
    verdicts = [decide(module, prop) for prop in MODULE_PROPERTIES]
    assert builds == [(16, 16)]  # the entry table of the one action table
    tabulated = elaborate_text(expr)
    assert tabulated.tabulated
    assert [(v.holds, v.witness) for v in verdicts] == [
        (v.holds, v.witness) for v in (decide(tabulated, p) for p in MODULE_PROPERTIES)]


def test_a_regular_module_checks_its_own_tables():
    # T(2, Z(6)) has 216 elements: tabulated, and sampled as |R|^3 exceeds the budget
    ring = elaborate_text("T(2, Z(6))")
    assert ring.tabulated and not ring.laws_exact
    module = regular_module(ring)
    assert module.add_table() is ring.add_table() and module.act_table() is ring.mul_table()
    # the shared tables, broken after the ring's check passed, fail the module's
    ring.mul_table()[3, 4] = 216
    with pytest.raises(AxiomError, match=re.escape(
            "regular(T(2, Z(6))): act table has out-of-range ids")):
        regular_module(ring)
    # and so do the tables of a ring built unchecked
    unchecked = ZnRing(50, validate=False)
    assert unchecked.tabulated
    unchecked.mul_table()[3, 4] = 50
    with pytest.raises(AxiomError, match=re.escape(
            "regular(Z(50)): act table has out-of-range ids")):
        regular_module(unchecked)
    skewed = ZnRing(50, validate=False)
    skewed.add_table()[3, 4] = 8
    with pytest.raises(AxiomError, match=re.escape(
            "regular(Z(50)): module addition not commutative at (3, 4)")):
        regular_module(skewed)


def test_untabulated_regular_module_and_its_ring_build_one_product_table(monkeypatch):
    # the action table of a regular module is its ring's mul table
    expr = "regular(M(2, Z(4)))"
    module = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=200))
    assert not module.ring.tabulated
    builds = _record_table_builds(monkeypatch)

    def verdicts(module):
        return [(v.holds, v.witness) for v in (
            ring_is_semicommutative(module.ring), ring_is_nil_semicommutative(module.ring),
            *(decide(module, prop) for prop in MODULE_PROPERTIES))]

    untabulated = verdicts(module)
    assert builds == [(16, 16)]  # the entry table of the one mul table
    assert untabulated == verdicts(elaborate_text(expr))


@pytest.mark.parametrize("expr", [
    "regular(Z(12))", "matmod(2, regular(Z(2)))", "induced(zred(8, 4), regular(Z(4)))",
    "trimod(2, regular(Z(3)))", "quot(regular(Z(12)), gen(regular(Z(12)), {4}))"])
@pytest.mark.parametrize("threshold", [1024, 0])
def test_orbits_are_the_sets_of_products(expr, threshold):
    module = elaborate_text(expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=threshold))
    for m in module.elements():
        want = sorted({module.act(r, m) for r in module.ring.elements()})
        assert orbit(module, m) == want
        assert cyclic_submodule(module, m).embedding == tuple(want)


def test_nested_matrix_free_position_counts():
    # element counts follow |base|^(free positions) even when nested
    light = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0,
                                          validation_samples=300)
    t2 = mat_mod(UPPER, 2, 2).ring
    nested = matrix_module(MatrixShape(UPPER, 2), t2, mat_mod(UPPER, 2, 2), light)
    assert nested.size == t2.size ** 3
    assert nested.ring.size == t2.size ** 3


def _loop_act(module, r, m):
    """r * m by the plain loop over the entries, through the base's pointwise ops."""
    base = module.base
    return module.from_entries(oracle.grid_product(
        module.ring.entries(r), module.entries(m), base.act, base.add, base.zero))


@pytest.mark.parametrize("expr", [
    "matmod(2, regular(Z(3)))", "trimod(3, regular(Z(2)))", "smod(3, regular(Z(3)))",
    "vmod(3, regular(Z(4)))", "trimod(2, prodmod(regular(Z(2)), regular(Z(2))))"])
@pytest.mark.parametrize("tabulate", [True, False])
def test_matrix_actions_match_the_plain_loop(expr, tabulate):
    module = elaborate_text(
        expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=1024 if tabulate else 0))
    assert module.tabulated is tabulate
    r, m = (x.ravel() for x in np.meshgrid(np.arange(module.ring.size), np.arange(module.size)))
    want = [_loop_act(module, x, y) for x, y in zip(r.tolist(), m.tolist())]
    assert module.vact(r, m).tolist() == want
    assert module.act_table()[r, m].tolist() == want


def test_untabulated_actions_match_the_plain_loop_on_drawn_ids(m4z2_module):
    module = m4z2_module
    assert not module.tabulated
    r, m = draw_ids(Random(6), 64, module.ring.size, module.size).T
    want = [_loop_act(module, x, y) for x, y in zip(r.tolist(), m.tolist())]
    assert module.vact(r, m).tolist() == want
    assert [module.act(x, y) for x, y in zip(r.tolist(), m.tolist())] == want


# every digitwise module layout: the four matrix shapes and products
@pytest.mark.parametrize("expr", [
    "matmod(2, regular(Z(3)))", "trimod(3, regular(Z(2)))", "smod(3, regular(Z(3)))",
    "vmod(3, regular(Z(4)))", "prodmod(regular(Z(8)), regular(Z(8)))",
    "trimod(2, prodmod(regular(Z(2)), regular(Z(2))))"])
@pytest.mark.parametrize("tabulate", [True, False])
def test_composed_add_tables_match_the_op_and_the_plain_loop(expr, tabulate):
    module = elaborate_text(
        expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=1024 if tabulate else 0))
    assert module.tabulated is tabulate
    table = module.add_table()
    assert table.dtype == np.int32
    assert np.array_equal(
        table, rings.op_table(module._vadd, module.size, module.size, module.cells))
    assert table.tolist() == oracle.layout_add_table(module)


def test_tabulated_matrix_module_builds_only_its_product_tables(monkeypatch):
    builds = _record_table_builds(monkeypatch)
    assert elaborate_text("matmod(2, regular(Z(4)))").tabulated
    # Z(4)'s add and mul, then the 16x16 entry table of the mul table of
    # M(2, Z(4)), which the module shares as its action table; the 256x256
    # add table is composed from Z(4)'s
    assert builds == [(4, 4), (4, 4), (16, 16)]


def test_composed_add_table_reads_a_repeated_part_once(monkeypatch):
    module = elaborate_text("matmod(2, regular(Z(4)))",
                            DEFAULT_CONFIG.with_overrides(tabulate_threshold=0))
    builds = _record_table_builds(monkeypatch)
    module.add_table()
    assert builds == [(4, 4)]  # Z(4)'s, read for all four digits


@pytest.mark.parametrize("expr", ["regular(Z(6))", "matmod(2, regular(Z(2)))",
                                  "trimod(2, regular(Z(3)))", "prodmod(regular(Z(6)), regular(Z(6)))"])
def test_pointwise_ops_of_tabulated_structures_read_their_tables(expr):
    module = elaborate_text(expr)
    ring = module.ring
    assert module.tabulated and ring.tabulated
    for s, op, table in ((module, module.act, module.act_table()),
                         (ring, ring.mul, ring.mul_table())):
        for r, a, b in draw_ids(Random(2), 50, ring.size, s.size, s.size).tolist():
            got = (s.add(a, b), op(r, a), s.neg(a))
            assert all(type(v) is int for v in got)
            assert got == (s.add_table()[a, b], table[r, a], s.vneg(a))


# the four shapes at n = 2 and 3 over regular(Z(n)), n a power of two and not,
# a product base and a nested matrix module whose entry ring does not commute
@pytest.mark.parametrize("expr", [
    "matmod(2, regular(Z(3)))", "matmod(3, regular(Z(2)))", "trimod(2, regular(Z(3)))",
    "trimod(3, regular(Z(2)))", "smod(2, regular(Z(4)))", "smod(3, regular(Z(3)))",
    "vmod(2, regular(Z(6)))", "vmod(3, regular(Z(4)))",
    "trimod(2, prodmod(regular(Z(2)), regular(Z(2))))", "vmod(2, trimod(2, regular(Z(2))))"])
@pytest.mark.parametrize("tabulate", [True, False])
def test_act_tables_from_entry_tables_match_the_op_and_the_plain_loop(
        monkeypatch, expr, tabulate):
    module = elaborate_text(
        expr, DEFAULT_CONFIG.with_overrides(tabulate_threshold=1024 if tabulate else 0))
    assert module.tabulated is tabulate
    table = module.act_table()
    assert table.dtype == np.int32
    assert np.array_equal(table, rings.op_table(
        module._vact, module.ring.size, module.size, module.cells))
    a, b, want = loop_products(module, expr, _loop_act)
    assert table[a, b].tolist() == want
    monkeypatch.setattr(rings, "_BLOCK_CELLS", 1)
    assert np.array_equal(module._tabulate_product(), table)


def _planted_law(module):
    """A law broken at some drawn (a, b): a + b = 0 with a nonzero, or a + a = b."""
    return lambda a, b: ((module.vadd(a, b) == module.zero) & (a != module.zero),
                         module.vadd(a, a) == b)


@pytest.mark.parametrize("expr", ["regular(Z(60))", "matmod(2, regular(Z(3)))"])
@pytest.mark.parametrize("threshold", [1024, 0])
def test_block_size_never_changes_a_result(monkeypatch, expr, threshold):
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=threshold)

    def results():
        module = elaborate_text(expr, cfg)  # fresh: no table or nil set kept
        with pytest.raises(AxiomError) as err:
            first_broken(module, draw_ids(Random(3), 400, module.size, module.size),
                         _planted_law(module), ("sum {0} + {1} is zero", "{0} + {0} = {1}"))
        return (str(err.value), squared_killers(module).tolist(),
                squared_killers(module, np.arange(module.size)).tolist(),
                np.flatnonzero(center(module.ring)).tolist(),
                [(v.holds, v.witness) for v in (decide(module, p) for p in MODULE_PROPERTIES)])

    default = results()
    monkeypatch.setattr(rings, "_BLOCK_CELLS", 1)
    assert rings.row_blocks(3, 1) == [(0, 1), (1, 2), (2, 3)]
    assert results() == default
