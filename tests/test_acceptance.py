"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines on
passing runs as well).
"""

import json
import time

from nilcomm import (
    check_lemma_matrix_nil,
    check_localization_transfer,
    cyclic_submodule,
    is_nil_semicommutative,
    is_nilpotent_power,
    is_nilpotent_squared,
    is_reduced_i,
    is_semicommutative,
    is_weakly_semicommutative,
    induced_module,
    localize_module,
    localize_ring,
    make_product_module,
    make_zn,
    multiplicative_closure,
    nil_set,
    quotient_module,
    regular_module,
    reverify_refutation,
    torsion_sets,
    verify_not_nil_semicommutative_witness,
    verify_theta_iso,
    zn_reduction_hom,
)
from nilcomm.cli import main as cli_main
from nilcomm.config import DEFAULT_CONFIG

from conftest import zn_module


def criterion(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def is_square_free(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def test_criterion_01_squarefree_lemma():
    light = DEFAULT_CONFIG.with_overrides(tabulate_threshold=0,
                                          validation_samples=64)
    start = time.perf_counter()
    mismatches = []
    for n in range(2, 1001):
        module = regular_module(make_zn(n, light), light)
        if is_nilpotent_squared(module, 1)[0] == is_square_free(n):
            mismatches.append(n)
    elapsed = time.perf_counter() - start
    criterion(1, "square-free criterion matches nilpotency of 1 for n in 2..1000",
              not mismatches and elapsed < 10.0,
              f"{elapsed:.2f}s, mismatches={mismatches[:5]}")


def test_criterion_02_criterion_equivalence(t2z2_module, t2z4_module,
                                            v2z2_module, m2z2_module):
    modules = [zn_module(n) for n in range(2, 17)]
    modules += [t2z2_module, t2z4_module, v2z2_module, m2z2_module]
    disagreements = 0
    checked = 0
    for module in modules:
        assert module.ring.size * module.size <= 2 ** 16
        for m in module.elements():
            checked += 1
            if is_nilpotent_squared(module, m)[0] != is_nilpotent_power(module, m)[0]:
                disagreements += 1
    criterion(2, "both nilpotency criteria agree on every element",
              disagreements == 0,
              f"{checked} elements across {len(modules)} modules")


def test_criterion_03_z4_hierarchy_split(z4_module):
    semi = is_semicommutative(z4_module)
    weak = is_weakly_semicommutative(z4_module)
    nil = is_nil_semicommutative(z4_module)
    ok = (semi.holds is True and weak.holds is True
          and nil.holds is False and nil.witness == (1, 2, 1))
    criterion(3, "Z_4 splits the hierarchy with minimal witness (a=1, m=1, r=2)",
              ok, f"witness={nil.witness}")


def test_criterion_04_matrix_nil_coverage(m2z2_module):
    nils = nil_set(m2z2_module)
    sampled = check_lemma_matrix_nil(4, make_zn(2), regular_module(make_zn(2)),
                                     sample=1000)
    ok = (nils.count == 16 and nils.covers_module()
          and sampled.status == "confirmed"
          and sampled.detail["passes"] == 1000)
    criterion(4, "matrix nil coverage: 16/16 exhaustive, 1000/1000 sampled",
              ok, f"full={nils.count}/16, sampled={sampled.detail['passes']}/1000")


def test_criterion_05_matrix_witness_replay(m4z2_module):
    module = m4z2_module
    ring = module.ring
    one = ring.base.one
    a_grid = [[0] * 4 for _ in range(4)]
    a_grid[0][1] = one
    a_grid[0][2] = ring.base.neg(one)
    A = ring.from_entries(a_grid)
    k_grid = [[0] * 4 for _ in range(4)]
    k_grid[1][3] = 1
    k_grid[2][3] = 1
    K = module.from_entries(k_grid)
    L = ring.unit(1, 2, one)
    ak = module.act(A, K)
    alk = module.act(A, module.act(L, K))
    ok = ak == module.zero and alk == module.unit(0, 3, 1)
    criterion(5, "4x4 replay: AK = 0 and ALK has its only entry at (1, 4)",
              ok, f"ALK={module.render(alk)}")


def test_criterion_06_counterexample_witnesses(t2z4_module, t2z2_module,
                                               v2z2_module):
    t24, t22, v22 = t2z4_module, t2z2_module, v2z2_module
    cases = [
        (t24, (t24.ring.unit(0, 0, 1), t24.ring.unit(0, 0, 2), t24.unit(0, 0, 1))),
        (t22, (t22.ring.scalar(1), t22.ring.unit(0, 1, 1), t22.scalar(1))),
        (v22, (v22.ring.scalar(1), v22.ring.superdiag(1, 1), v22.scalar(1))),
    ]
    ok = True
    details = []
    for module, (a, r, m) in cases:
        full = is_nil_semicommutative(module)
        witness_ok = verify_not_nil_semicommutative_witness(module, a, r, m)
        details.append(f"{module.descriptor}: full={full.holds}, replay={witness_ok}")
        ok = ok and full.holds is False and witness_ok
    criterion(6, "T_2(Z_4), T_2(Z_2), V_2(Z_2) refuted with verified witnesses",
              ok, "; ".join(details))


def test_criterion_07_theta_isomorphism():
    results = [verify_theta_iso(make_zn(2), 2),
               verify_theta_iso(make_zn(2), 3),
               verify_theta_iso(make_zn(3), 2)]
    criterion(7, "coefficient map is a ring isomorphism for (Z_2,2), (Z_2,3), "
                 "(Z_3,2)", all(results), str(results))


def test_criterion_08_torsion_free_collapse():
    modules = [zn_module(p) for p in (2, 3, 5)]
    modules.append(make_product_module([zn_module(3), zn_module(3)]))
    ok = True
    for module in modules:
        nils = nil_set(module)
        verdicts = {is_semicommutative(module).holds,
                    is_nil_semicommutative(module).holds,
                    is_weakly_semicommutative(module).holds}
        ok = ok and nils.members() == [module.zero] and verdicts == {True}
    criterion(8, "torsion-free modules: nil set {0} and all three verdicts hold",
              ok)


def test_criterion_09_hom_transfer():
    hom = zn_reduction_hom(8, 4)
    base = zn_module(4)
    over_z4 = is_nil_semicommutative(base)
    over_z8 = is_nil_semicommutative(induced_module(hom, base))
    ok = over_z4.holds is False and over_z8.holds is False
    criterion(9, "Z_8 -> Z_4 pullback preserves the (negative) verdict",
              ok, f"target={over_z4.holds}, source={over_z8.holds}")


def test_criterion_10_localization():
    z12 = make_zn(12)
    s12 = multiplicative_closure(z12, [2])
    loc = localize_ring(z12, s12)
    locm = localize_module(regular_module(z12), s12)

    z4 = make_zn(4)
    unit_rep = check_localization_transfer(regular_module(z4),
                                           multiplicative_closure(z4, [3]))

    stress = check_localization_transfer(regular_module(z12), s12)
    stress_ok = stress.status in ("confirmed", "refuted")
    replayable = True
    if stress.status == "refuted":
        stress_ok = stress_ok and "witness" in stress.detail
        replayable = reverify_refutation(stress)
    ok = (loc.size == 3 and locm.size == 3
          and unit_rep.status == "confirmed" and stress_ok and replayable)
    criterion(10, "localization: |loc(Z_12,{1,2,4,8})| = 3, unit-set transfer "
                  "confirmed, stress case reported with replayable witnesses",
              ok, f"stress={stress.status}")


def test_criterion_11_torsion_sets(z6_module):
    ts = torsion_sets(z6_module)
    ok = (3 in ts.tor_members() and 3 not in ts.t_members()
          and ts.t_members() == [0] and ts.tor_members() == [0, 2, 3, 4])
    criterion(11, "Z_6: 3 is torsion, not regular-torsion; T(M) = {0}",
              ok, f"tor={ts.tor_members()}, t={ts.t_members()}")


def test_criterion_12_hierarchy_suite(hierarchy_zoo, z4_module, z12_module):
    structures = list(hierarchy_zoo)
    structures.append(localize_module(z12_module,
                                      multiplicative_closure(z12_module.ring, [2])))
    structures.append(quotient_module(z4_module, cyclic_submodule(z4_module, 2)))
    violations = []
    for module in structures:
        nil = is_nil_semicommutative(module).holds
        weak = is_weakly_semicommutative(module).holds
        semi = is_semicommutative(module).holds
        red1 = is_reduced_i(module).holds
        if nil and not weak:
            violations.append((module.descriptor, "nil->weak"))
        if red1 and not semi:
            violations.append((module.descriptor, "reduced->semi"))
        if semi and not weak:
            violations.append((module.descriptor, "semi->weak"))
    criterion(12, "hierarchy implications hold across the structure zoo",
              not violations, f"{len(structures)} structures, "
                              f"violations={violations}")


def test_criterion_13_determinism(capsys):
    args = ["verify-paper", "--format", "json", "--seed", "7", "--nmax", "300",
            "--samples", "200"]
    code1 = cli_main(args)
    first = capsys.readouterr().out
    code2 = cli_main(args)
    second = capsys.readouterr().out
    ok = first == second and code1 == code2 == 2
    doc = json.loads(first)
    criterion(13, "verify-paper output is byte-identical across runs",
              ok and doc["summary"]["refuted"] == 2,
              f"{len(first)} bytes, exit={code1}")
