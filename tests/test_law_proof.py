"""The generator proof of the ring and module laws (rings.laws_proven) and
the exact checker built on it (rings._scan_laws), against the plain loops of
oracle.law_failure on honest, perturbed and hand-built tables; and the one
rule for when a structure's check is exact (rings.exact_fits)."""

import importlib.util
from itertools import permutations
from pathlib import Path
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import nilcomm.harness as harness
import nilcomm.modules as modules
import nilcomm.rings as rings
from nilcomm import AxiomError, check_module_axioms, check_ring_axioms, elaborate_text, make_zn
from nilcomm.config import DEFAULT_CONFIG
from nilcomm.rings import _scan_laws, additive_generators, exact_fits, laws_proven

from conftest import record_sampled_draws
from test_modules import _SkewAction, _SkewSum
from test_oracle import LAYOUT_MODULES, LAYOUT_RINGS
from test_rings import _SkewAddZn, _SkewZn, _UncheckedRegularModule

# _scan_laws' four messages in the oracle's law order, for a table named "t"
_NAMED = SimpleNamespace(descriptor="t")
_MESSAGES = ("assoc at ({0}, {1}, {2})", "rdist at ({0}, {1}, {2})",
             "compat at ({0}, {1}, {2})", "ldist at ({0}, {1}, {2})")


def _tables(structure):
    """(add, act, ring add, ring mul): a ring's act is its mul."""
    ring = getattr(structure, "ring", structure)
    act = structure.mul_table() if ring is structure else structure.act_table()
    return structure.add_table(), act, ring.add_table(), ring.mul_table()


def _assert_exact(add, act, radd, rmul):
    """laws_proven holds exactly where + commutes and the loops find no broken
    law, and _scan_laws raises the loops' first broken law, or passes.
    Returns the loops' finding."""
    tables = [np.asarray(t, dtype=np.int32) for t in (add, act, radd, rmul)]
    found = oracle.law_failure(*(t.tolist() for t in tables))
    commutative = bool((tables[0] == tables[0].T).all())
    assert laws_proven(*tables) == (commutative and found is None)
    if found is None:
        _scan_laws(_NAMED, *tables, _MESSAGES)
    else:
        with pytest.raises(AxiomError) as err:
            _scan_laws(_NAMED, *tables, _MESSAGES)
        assert str(err.value) == "t: " + _MESSAGES[found[0]].format(*found[1])
    return found


@pytest.mark.parametrize("expr", [*(f"Z({n})" for n in range(2, 41)),
                                  *LAYOUT_RINGS, *LAYOUT_MODULES])
def test_honest_tables_are_proven(expr):
    # a ring's tables are also its regular module's
    assert _assert_exact(*_tables(elaborate_text(expr))) is None


@pytest.mark.parametrize("expr", ["Z(6)", "prod(Z(2), Z(4))", "T(2, Z(2))", "polyq(Z(3), 2)",
                                  "trimod(2, regular(Z(3)))", "vmod(2, regular(Z(5)))"])
@pytest.mark.parametrize("which", ["add", "product"])
def test_single_cell_perturbations_agree_with_the_loops(expr, which):
    # one cell of the add table (and its mirror, so + still commutes) or of
    # the product table changed, at seeded places; a ring's add and mul are
    # also its scalar ring's
    structure = elaborate_text(expr)
    own = not hasattr(structure, "ring")
    rng, broken = Random(f"{expr} {which}"), 0
    for _ in range(25):
        add, act, radd, rmul = (t.copy() for t in _tables(structure))
        if own:
            radd, rmul = add, act
        n = len(add)
        if which == "add":
            i, j = rng.randrange(n), rng.randrange(n)
            add[i, j] = add[j, i] = (add[i, j] + rng.randrange(1, n)) % n
        else:
            i, j = rng.randrange(len(act)), rng.randrange(n)
            act[i, j] = (act[i, j] + rng.randrange(1, n)) % n
        broken += _assert_exact(add, act, radd, rmul) is not None
    assert broken > 0


def _zn(n, act=lambda r, m: r * m):
    """Z(n) tables, its action on itself given by act."""
    r, m = np.ogrid[:n, :n]
    return (r + m) % n, act(r, m) % n, (r + m) % n, (r * m) % n


def _xor_module_over_z2(f):
    """(Z(2))^2 as ids 0..3 under XOR, 0 acting as zero and 1 as the map f."""
    add = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    return add, np.array([[0] * 4, f]), np.array([[0, 1], [1, 0]]), np.array([[0, 0], [0, 1]])


def _half_sum(n):
    """A commutative + on Z(n) that is not associative: a+b halved up from the
    integer sum; acted on by zero."""
    a, b = np.ogrid[:n, :n]
    return (a + b + 1) // 2 % n, np.zeros((n, n), dtype=int), *_zn(n)[2:]


@pytest.mark.parametrize("tables, law", [
    (_half_sum(5), 0),  # only + associativity fails
    (_zn(5, lambda r, m: r * r * m), 1),  # only (r+s)m = rm+sm fails
    (_zn(5, lambda r, m: 2 * r * m), 2),  # only (rs)m = r(sm) fails
    (_xor_module_over_z2([0, 1, 2, 1]), 3)])  # only r(m+n) = rm+rn fails
def test_each_law_breaking_alone_is_not_proven(tables, law):
    found = _assert_exact(*tables)
    assert found is not None and found[0] == law


def test_a_table_one_does_not_generate():
    # Z(3) x Z(3) as ids 3a+b over Z(3), r acting as r^2 on a and as r on b:
    # (r+s)m = rm+sm fails only off the multiples of 1 = (0, 1)
    ids = np.arange(9)
    a, b = ids // 3, ids % 3
    r = np.arange(3)[:, None]
    add = (a[:, None] + a) % 3 * 3 + (b[:, None] + b) % 3
    act = r * r * a % 3 * 3 + r * b % 3
    tables = add, act, *_zn(3)[2:]
    assert additive_generators(add) == [1, 3]
    assert laws_proven(*tables, gens=[1])  # the closure of {1} is not every id
    found = _assert_exact(*tables)
    assert found is not None and found[1][2] >= 3


def test_a_noncommutative_sum_with_every_law_is_not_proven():
    # x+y = x is associative, and acting as the identity every law holds; + does
    # not commute, so _scan_laws falls to the locator, which passes
    add = np.repeat(np.arange(4)[:, None], 4, axis=1)
    tables = add, np.repeat(np.arange(4)[None, :], 2, axis=0), *_zn(2)[2:]
    assert additive_generators(add) == [1, 2, 3, 0]  # 0 reached last
    assert _assert_exact(*tables) is None


def test_a_noncommutative_sum_breaks_a_law_its_generators_keep():
    # S3 under composition, 1 = (0 1) and 2 = (1 2) generating it, over Z(2):
    # 0 acts trivially and 1 as the identity, so (1+1)m = m+m holds at the
    # two transpositions but not at a 3-cycle; only commutativity can tell
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    assert sorted(perms) == sorted(permutations(range(3)))
    add = np.array([[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
                    for p in perms])
    tables = add, np.array([[0] * 6, list(range(6))]), *_zn(2)[2:]
    assert additive_generators(add) == [1, 2]
    found = _assert_exact(*tables)
    assert found is not None and found[0] == 1 and found[1][2] >= 4


@pytest.mark.parametrize("expr, gens", [
    ("Z(12)", [1]), ("prod(Z(2), Z(2))", [1, 2]), ("prod(Z(2), Z(4))", [1, 4]),
    ("M(2, Z(3))", [1, 3, 9, 27]), ("T(2, Z(4))", [1, 4, 16])])
def test_additive_generators_reach_every_id(expr, gens):
    structure = elaborate_text(expr)
    add = structure.add_table()
    assert additive_generators(add) == gens
    # a search allowed fewer generators than it needs gives up, and so does
    # the structure's, whose generators are kept once found
    assert additive_generators(add, len(gens)) == gens
    assert additive_generators(add, len(gens) - 1) is None
    assert structure.additive_generators() == gens
    assert structure.additive_generators(len(gens) - 1) is None
    reached = set(gens)
    while True:  # the closure under +, one sum at a time
        grown = reached | {int(add[x, y]) for x in reached for y in reached}
        if grown == reached:
            break
        reached = grown
    assert reached == set(range(len(add)))


def _exhaustive_messages(threshold):
    """Each planted defect's exact-check message, as the plain scan of every
    triple reported it before the proof."""
    cfg = DEFAULT_CONFIG.with_overrides(tabulate_threshold=threshold)
    return [
        (_SkewZn(5, cfg), "Z(5): right distributivity fails at (2, 1, 1)"),
        (_SkewZn(50, cfg), "Z(50): right distributivity fails at (2, 1, 1)"),
        (_SkewAddZn(3, cfg), "Z(3): add not associative at (1, 1, 2)"),
        (_SkewAddZn(7, cfg), "Z(7): add not associative at (1, 1, 2)"),
        (_SkewAddZn(50, cfg), "Z(50): add not associative at (1, 1, 2)"),
        (_UncheckedRegularModule(_SkewZn(5, cfg)),
         "regular(Z(5)): (r+s)m != rm+sm at (1, 1, 2)"),
        (_UncheckedRegularModule(_SkewZn(50, cfg)),
         "regular(Z(50)): (r+s)m != rm+sm at (1, 1, 2)"),
        (_UncheckedRegularModule(_SkewAddZn(7, cfg)),
         "regular(Z(7)): module addition not associative at (1, 1, 2)"),
        (_SkewSum(5, cfg), "skew-sum(5): module addition not commutative at (1, 2)"),
        (_SkewSum(12, cfg), "skew-sum(12): module addition not commutative at (1, 2)"),
        (_SkewAction(5, cfg), "skew(5): (r+s)m != rm+sm at (1, 1, 2)"),
        (_SkewAction(50, cfg), "skew(50): (r+s)m != rm+sm at (1, 1, 2)"),
        (_SkewAction(90, cfg), "skew(90): (r+s)m != rm+sm at (1, 1, 2)")]


@pytest.mark.parametrize("threshold", [1024, 0])  # tabulated and not
def test_planted_defects_keep_their_exhaustive_messages(monkeypatch, threshold):
    # the proof fails and the locator names the least failing triple; nothing
    # is drawn
    _, draws = record_sampled_draws(monkeypatch)
    for structure, message in _exhaustive_messages(threshold):
        ring = getattr(structure, "ring", structure)
        assert exact_fits(structure.config, len(structure.additive_generators()),
                          structure.size, ring.size)
        check = check_ring_axioms if ring is structure else check_module_axioms
        with pytest.raises(AxiomError) as err:
            check(structure)
        assert str(err.value) == message
    assert draws == []


# ---------------------------------------------------------------------------
# The one rule for when the check is exact (rings.exact_fits)


def test_the_rule_is_exact_wherever_either_earlier_rule_was():
    # the two rules it replaced, inlined: the full scan's triples,
    # max(|R|^2|M|, |R||M|^2, |M|^3), and the proof's cells at |G| generators,
    # |G|(|M|^2 + |R||M| + 2|R|^2); each exact where it fit the budget and the cap
    sizes = np.array([1, 2, 3, 4, 5, 8, 9, 16, 27, 40, 41, 64, 81, 128, 129, 256, 257, 1024])
    nm, nr, g = np.meshgrid(sizes, sizes, sizes, indexing="ij")
    within = g <= nm  # every structure has |G| <= |M|
    nm, nr, g = nm[within], nr[within], g[within]
    triples = np.maximum.reduce([nr * nr * nm, nr * nm * nm, nm ** 3])
    cells = g * (nm * nm + nr * nm + 2 * nr * nr)
    counted = g * np.maximum.reduce([nm * nm, nr * nm, nr * nr])
    for budget in (0, 27, 40 ** 2, 2 ** 16, 2 ** 20):
        for cap, force in ((26, False), (2 ** 16, False), (2 ** 24, False), (26, True)):
            cfg = DEFAULT_CONFIG.with_overrides(full_check_budget=budget, decision_cap=cap,
                                                force=force)
            exact = np.frompyfunc(lambda *x: exact_fits(cfg, *x), 3, 1)(g, nm, nr).astype(bool)
            fits = [(cost <= budget) & ((cost <= cap) | force) for cost in (triples, cells)]
            # the rule: |G| max(|M|^2, |R||M|, |R|^2) within the budget and the cap
            assert (exact == ((counted <= budget) & ((counted <= cap) | force))).all()
            # exact wherever either earlier rule fit
            assert not ((fits[0] | fits[1]) & ~exact).any()
            # and the proof runs at most four times the counted cost
            assert (cells[exact] <= 4 * budget).all()
    # induced(zred(128, 2), prodmod(regular(Z(2)), regular(Z(2)))), 4 elements at
    # 2 generators over 128: 65536 triples fit 2^16, 66592 proof cells do not
    module = elaborate_text("induced(zred(128, 2), prodmod(regular(Z(2)), regular(Z(2))))")
    assert len(module.additive_generators()) == 2 and module.ring.size == 128
    assert exact_fits(module.config, 2, 4, 128)


def _classify_corpus():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    loader = importlib.util.spec_from_file_location("perfbench_spec", path)
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    return spec.CLASSIFY_CORPUS


# classify structures the earlier rules sampled: each draws nothing now
_NEWLY_EXACT = {"T(3, Z(2))", "trimod(3, regular(Z(2)))", "M(2, Z(3))",
                "matmod(2, regular(Z(3)))"}


@pytest.mark.parametrize("expr", [*_classify_corpus(),
                                  *(f"regular(Z({n}))" for n in range(2, 65))])
def test_benchmark_structures_are_exact_by_the_rule(monkeypatch, expr):
    # the classify corpus and the structures of search zn --n 2..64
    calls, check_laws = [], rings.check_laws

    def record(structure, ring, exact=False):
        calls.append((structure, ring, check_laws(structure, ring, exact)))
        return calls[-1][2]

    monkeypatch.setattr(rings, "check_laws", record)
    monkeypatch.setattr(modules, "check_laws", record)
    _, draws = record_sampled_draws(monkeypatch)
    elaborate_text(expr)
    assert calls
    for structure, ring, exact in calls:
        assert exact == exact_fits(structure.config, len(structure.additive_generators()),
                                   structure.size, ring.size), structure.descriptor
        assert exact or structure.descriptor not in _NEWLY_EXACT
        if structure is ring:
            assert ring.laws_exact == exact
    assert len(draws) == sum(not exact for *_, exact in calls)  # one draw per sampled check


def test_a_light_z_n_is_exact_up_to_40():
    light = harness._light_config(DEFAULT_CONFIG)
    for n in (2, 39, 40, 41, 42, 128, 129, 256, 257):
        ring = make_zn(n, light)
        assert not ring.tabulated and ring.laws_exact == (n <= 40)
