"""A registry of named desk-scale checks for the nil-semicommutativity
hierarchy of finite modules.

Each check re-verifies one claim on concrete finite structures and returns
a CheckReport: confirmed, refuted (with a witness a single evaluation can
replay), or skipped with a reason.  Refutation is a first-class outcome;
the suite verifies claims rather than assuming them.  Each witness kind is
one row of WITNESS_KINDS, which gives its payload's fields and its replay.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass
from functools import partial
from random import Random
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .config import EngineConfig, resolve
from .deciders import (
    PROP_NIL_SEMI,
    PROP_SEMICOMMUTATIVE,
    PROP_WEAKLY,
    TRIPLE_KINDS,
    decide_many,
    is_nil_semicommutative,
    replay,
    ring_is_nil_semicommutative,
    triple_witness,
    verify_nonsemicommutative_witness,
    verify_not_nil_semicommutative_witness,
)
from .errors import DecisionCapError, InvalidParameterError
from .localization import (
    LOCALIZATION_TRANSFER_CLAIM,
    check_localization_transfer,
    localize_module,
    localize_ring,
    multiplicative_closure,
)
from .modules import (
    FiniteModule,
    cyclic_submodule,
    induced_module,
    make_product_module,
    matrix_module,
    orbit,
    quotient_module,
    regular_module,
    regular_zn_modules,
    submodule_generated,
)
from .nilpotency import (
    is_nil_module,
    is_nilpotent_power,
    is_nilpotent_squared,
    is_torsion_free,
    nil_set,
    torsion_sets,
)
from .reports import CONFIRMED, REFUTED, SKIPPED, CheckReport, claim_report
from .rings import (
    FULL,
    UPPER,
    V_TYPE,
    FiniteRing,
    MatrixShape,
    RingHom,
    ZnRing,
    center,
    identity_hom,
    interning,
    make_zn,
    nil_ring_set,
    nilpotency_degree,
    product_dtype,
    regular_elements,
    row_blocks,
    verify_theta_iso,
    zn_reduction_hom,
)


DEFAULT_SAMPLES = 1000
_SEMI_WEAK_NIL = (PROP_SEMICOMMUTATIVE, PROP_WEAKLY, PROP_NIL_SEMI)


@dataclass(frozen=True)
class HarnessOptions:
    """Desk-scale parameters for the registered checks."""

    nmax: int = 1000
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        _at_least("nmax", self.nmax, 2)
        _at_least("samples", self.samples, 1)


class _CheckDef(NamedTuple):
    """One registered claim: instances(cfg, opts) returns the reports of the
    check's instances, which run_check combines into one.  interns_nothing
    states that the check builds no structure through the intern table of
    run_all, so it shares none with another check (see run_all)."""

    check_id: str
    claim: str
    instances: Callable
    interns_nothing: bool = False


def registered_ids() -> list[str]:
    return list(_REGISTRY)


# ---------------------------------------------------------------------------
# Shared builders


def _light_config(cfg: EngineConfig) -> EngineConfig:
    # bulk loops over many throwaway rings: skip tables, trim sampling, and
    # check Z(n) exactly only up to n = 40
    return cfg.with_overrides(tabulate_threshold=0, validation_samples=64,
                              full_check_budget=40 ** 2)


def _reg_zn(n: int, cfg: EngineConfig) -> FiniteModule:
    return regular_module(make_zn(n, cfg), cfg)


def _mat_mod(kind: str, n: int, base_n: int, cfg: EngineConfig) -> FiniteModule:
    base = make_zn(base_n, cfg)
    return matrix_module(MatrixShape(kind, n), base, regular_module(base, cfg), cfg)


def _at_least(name: str, value: int, least: int) -> None:
    """Refuse a count that would confirm a claim on no instances."""
    if value < least:
        raise InvalidParameterError(f"{name} must be at least {least}, got {value}")


def _is_square_free(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def _report(check_id: str, detail: dict, witness: dict | None = None) -> CheckReport:
    """A registered check's report (see reports.claim_report)."""
    return claim_report(check_id, _REGISTRY[check_id].claim, detail, witness)


def _skipped(check_id: str, detail: dict) -> CheckReport:
    return CheckReport(check_id, _REGISTRY[check_id].claim, SKIPPED, detail)


# ---------------------------------------------------------------------------
# Witness kinds


class _WitnessKind(NamedTuple):
    """One kind of refutation witness: the payload's fields after "kind", in
    payload order, and its replay, which takes the structure the descriptor
    field names (None for a kind without one), the witness and the config,
    and is True when one evaluation reproduces what the witness records."""

    fields: tuple[str, ...]
    replay: Callable


def _replay_triple(module, w: dict, cfg: EngineConfig) -> bool:
    violated = replay(module, TRIPLE_KINDS[w["kind"]], [w["a"]], [w["r"]], [w["m"]])
    return bool(violated[0]) == w.get("expect", True)


def _replay_annihilator(module, w: dict, cfg: EngineConfig) -> bool:
    module.ring.check_ids(w["r"])
    module.check_ids(w["m"])
    return (module.act(w["r"], w["m"]) == module.zero) == w["expect_zero"]


# the triple kinds' payloads come from deciders.triple_witness, with an
# optional "expect" (True by default) after these fields
WITNESS_KINDS = {
    **dict.fromkeys(TRIPLE_KINDS, _WitnessKind(("descriptor", "a", "r", "m"), _replay_triple)),
    "squarefree-mismatch": _WitnessKind(("n",), lambda _, w, cfg:
        is_nilpotent_squared(_reg_zn(w["n"], cfg), 1)[0] == _is_square_free(w["n"])),
    "matrix-nil-gap": _WitnessKind(("descriptor", "m"), lambda module, w, cfg:
        not is_nilpotent_squared(module, w["m"])[0]),
    "nilpotent-element": _WitnessKind(("descriptor", "m", "expect"), lambda module, w, cfg:
        is_nilpotent_squared(module, w["m"])[0] == w["expect"]),
    "criterion-mismatch": _WitnessKind(("descriptor", "m"), lambda module, w, cfg:
        is_nilpotent_squared(module, w["m"])[0] != is_nilpotent_power(module, w["m"])[0]),
    "annihilator": _WitnessKind(("descriptor", "r", "m", "expect_zero"), _replay_annihilator),
    "t-closure": _WitnessKind(("descriptor",), lambda module, w, cfg:
        not torsion_sets(module, cfg).t_is_submodule),
    "class-count": _WitnessKind(("descriptor", "expected", "got"), lambda structure, w, cfg:
        structure.size != w["expected"]),
    "theta-failure": _WitnessKind(("base_n", "n"), lambda _, w, cfg:
        not verify_theta_iso(make_zn(w["base_n"], cfg), w["n"], cfg)),
}


# the type of each payload field: ids and counts are ints (a bool is none),
# the fields below are not
_FIELD_TYPES = {"descriptor": str, "expect": bool, "expect_zero": bool}


def _witness(kind: str, **values) -> dict:
    """The payload of a witness of kind, its fields in the table's order."""
    return {"kind": kind, **{name: values[name] for name in WITNESS_KINDS[kind].fields}}


# ---------------------------------------------------------------------------
# Single-instance check operations (public; the registry lists instances)


def check_lemma_squarefree(n_max: int, config: EngineConfig | None = None) -> CheckReport:
    """1 is nilpotent in the Z_n-module Z_n exactly when n is not square free,
    settled one list of regular_zn_modules at a time (see _one_is_nilpotent)."""
    _at_least("nmax", n_max, 2)
    cfg = _light_config(resolve(config))
    mismatches = []
    for group in regular_zn_modules(range(2, n_max + 1), cfg):
        for module, (nilpotent, witness) in zip(group, _one_is_nilpotent(group)):
            n = module.ring.n
            if nilpotent == _is_square_free(n):
                mismatches.append({"n": n, "nilpotent": nilpotent,
                                   "square_free": _is_square_free(n),
                                   "witness": witness})
    detail = {"n_max": n_max, "checked": n_max - 1, "mismatches": mismatches}
    return _report("lemma_squarefree", detail,
                   _witness("squarefree-mismatch", n=mismatches[0]["n"])
                   if mismatches else None)


def _one_is_nilpotent(group: list) -> list:
    """is_nilpotent_squared(module, 1) for each regular Z(n) of group.  Where
    every ring has ZnRing's own arithmetic, one pass settles them all: the
    squared criterion at m = 1 through ZnRing._vmul under each n, with ids
    t >= n masked off, in the product_dtype of the largest n.  Otherwise
    each module is settled alone."""
    if not all(module.ring.own_arithmetic() for module in group):
        return [is_nilpotent_squared(module, 1) for module in group]
    top = max(module.ring.n for module in group)
    n = np.array([module.ring.n for module in group], dtype=product_dtype(top))
    vmul = partial(ZnRing._vmul, SimpleNamespace(n=n))
    least = np.full(len(n), -1)
    for lo, hi in row_blocks(top, len(n)):
        t = np.arange(lo, hi, dtype=n.dtype)[:, None]
        hit = (t < n) & (vmul(t, 1) != 0) & (vmul(vmul(t, t), 1) == 0)
        found = hit.any(axis=0) & (least < 0)
        least[found] = lo + hit.argmax(axis=0)[found]
        if (least >= 0).all():
            break
    return [(True, t) if t >= 0 else (False, None) for t in least.tolist()]


def check_lemma_matrix_nil(shape_n: int, base: FiniteRing, base_module: FiniteModule,
                           sample: int | None = None,
                           config: EngineConfig | None = None) -> CheckReport:
    """Every element of the full matrix module over the full matrix ring is
    nilpotent (n >= 2); below the cap by full scan, above it (or when sample
    is given) by replaying the constructive single-unit witness on sample
    random nonzero matrices, DEFAULT_SAMPLES by default."""
    cfg = resolve(config, base_module)
    if shape_n < 2:
        raise InvalidParameterError("the matrix nil claim needs n >= 2")
    if sample is not None:
        _at_least("samples", sample, 1)
    module = matrix_module(MatrixShape(FULL, shape_n), base, base_module, cfg)
    pairs = module.ring.size * module.size
    if sample is None and pairs <= cfg.decision_cap:
        nils = nil_set(module, cfg)
        covered = nils.covers_module()
        detail = {
            "descriptor": module.descriptor,
            "mode": "full",
            "size": module.size,
            "nil_size": nils.count,
            "covered": covered,
        }
        return _report("matrix_nil_coverage", detail, None if covered else _witness(
            "matrix-nil-gap", descriptor=module.descriptor, m=int(np.argmin(nils.flags))))

    if module.size == 1:  # the draw below would never find a nonzero id
        raise InvalidParameterError(f"{module.descriptor}: no nonzero element to sample")
    count = sample if sample is not None else DEFAULT_SAMPLES
    rng = Random(cfg.seed)
    ring, zero = module.ring, module.zero
    draw = iter(lambda: rng.randrange(module.size), None)  # seeded ids, endless
    ks = np.array([next(k for k in draw if k != zero) for _ in range(count)])
    # the witness rule at first nonzero entry (i, j): the unit r = E(j, i)
    # off the diagonal, E(l, i) on it (l = 1 at i = 0, else 0); r*r*k = 0 != r*k
    units = np.array([ring.unit(j if i != j else int(i == 0), i, base.one)
                      for i in range(shape_n) for j in range(shape_n)])
    failures = []
    for lo, hi in row_blocks(count, module.cells):
        k = ks[lo:hi]
        r = units[(module.grid(k) != base_module.zero).reshape(hi - lo, -1).argmax(axis=1)]
        bad = (module.vact(ring.vmul(r, r), k) != zero) | (module.vact(r, k) == zero)
        failures += [{"m": m, "r": u} for m, u in zip(k[bad].tolist(), r[bad].tolist())]
    detail = {
        "descriptor": module.descriptor,
        "mode": "sampled-witness",
        "samples": count,
        "passes": count - len(failures),
        "failures": failures,
    }
    return _report("matrix_nil_coverage", detail, _witness(
        "matrix-nil-gap", descriptor=module.descriptor, m=failures[0]["m"]) if failures else None)


def check_example_zpn(p: int, n: int, config: EngineConfig | None = None) -> CheckReport:
    """Z_{p^n} (n >= 2) splits the hierarchy: semicommutative and weakly
    semicommutative but not nil-semicommutative, with the explicit
    violating triple (1, p^(n-1), 1)."""
    cfg = resolve(config)
    if n < 2:
        raise InvalidParameterError("the prime-power split needs n >= 2")
    module = _reg_zn(p ** n, cfg)
    semi, weak, nil = decide_many(module, _SEMI_WEAK_NIL, cfg)
    pinned = (1, p ** (n - 1) % p ** n, 1)
    pinned_ok = verify_not_nil_semicommutative_witness(module, *pinned)
    ok = (semi.holds is True and weak.holds is True and nil.holds is False
          and pinned_ok)
    detail = {
        "descriptor": module.descriptor,
        "p": p,
        "n": n,
        "semicommutative": semi.to_json_dict(),
        "weakly_semicommutative": weak.to_json_dict(),
        "nil_semicommutative": nil.to_json_dict(),
        "pinned_triple": {"a": pinned[0], "r": pinned[1], "m": pinned[2],
                          "verified": pinned_ok},
    }
    witness = None
    if not ok:
        witness = (semi.witness_payload() if semi.holds is False else
                   triple_witness(PROP_NIL_SEMI, module.descriptor, pinned,
                                  expect=False))
    return _report("zpn_hierarchy", detail, witness)


def check_example_matrix(shape_n: int, base_size: int,
                         config: EngineConfig | None = None,
                         sample: int = DEFAULT_SAMPLES) -> CheckReport:
    """Full matrix modules are nil-semicommutative for n >= 2 while an
    explicit construction breaks semicommutativity at n >= 4; for n >= 4
    the nil claim rests on sample witness replays."""
    _at_least("samples", sample, 1)
    cfg = resolve(config)
    base = make_zn(base_size, cfg)
    detail: dict = {}
    if shape_n == 2:
        module = _mat_mod(FULL, 2, base_size, cfg)
        nil, semi = decide_many(module, (PROP_NIL_SEMI, PROP_SEMICOMMUTATIVE), cfg)
        detail["full"] = {
            "descriptor": module.descriptor,
            "nil_semicommutative": nil.to_json_dict(),
            "semicommutative_observed": semi.to_json_dict(),
        }
        return _report("matrix_semicommutativity", detail,
                       None if nil.holds is True else nil.witness_payload())

    # n >= 4: replay the printed construction over the given base: with
    # A = E(1,2) - E(1,3), L = E(2,3) and K = m(E(2,n) + E(3,n)), AK = 0
    # while ALK = m E(1,n)
    module = _mat_mod(FULL, shape_n, base_size, cfg)
    ring = module.ring
    one = base.one
    A = ring.add(ring.unit(0, 1, one), ring.unit(0, 2, base.neg(one)))
    m_entry = 1  # any nonzero entry of the base module
    K = module.add(module.unit(1, shape_n - 1, m_entry), module.unit(2, shape_n - 1, m_entry))
    L = ring.unit(1, 2, one)
    ak = module.act(A, K)
    alk = module.act(A, module.act(L, K))
    expected_alk = module.unit(0, shape_n - 1, m_entry)
    witness_ok = verify_nonsemicommutative_witness(module, A, L, K)
    replay_ok = (ak == module.zero and alk == expected_alk and witness_ok)
    detail["replay"] = {
        "descriptor": module.descriptor,
        "a": A, "r": L, "m": K,
        "ak_is_zero": ak == module.zero,
        "alk": module.render(alk),
        "alk_single_entry_at": [1, shape_n],
        "alk_matches": alk == expected_alk,
        "witness_verified": witness_ok,
    }
    sampled = check_lemma_matrix_nil(shape_n, base, regular_module(base, cfg),
                                     sample=sample, config=cfg)
    detail["sampled_nil"] = sampled.detail
    witness = None
    if not replay_ok or sampled.status != CONFIRMED:
        witness = triple_witness(PROP_SEMICOMMUTATIVE, module.descriptor,
                                 (A, L, K), expect=replay_ok)
    return _report("matrix_semicommutativity", detail, witness)


def _not_nil_semicommutative_instance(check_id: str, module: FiniteModule,
                                      witness_triple, nil_cert,
                                      cfg: EngineConfig) -> CheckReport:
    """Shared body for the three triangular/shift counterexample checks:
    the module must fail nil-semicommutativity by full scan and the given
    triple must verify as a violation.  nil_cert = (p_element, power) shows
    act(p^power, a*m) = 0 with act(p, a*m) != 0."""
    verdict = is_nil_semicommutative(module, cfg)
    a, r, m = witness_triple
    triple_ok = verify_not_nil_semicommutative_witness(module, a, r, m)
    am = module.act(a, m)
    p_elem, power = nil_cert
    cert_ok = (module.act(module.ring.power(p_elem, power), am) == module.zero
               and module.act(p_elem, am) != module.zero)
    ok = verdict.holds is False and triple_ok and cert_ok
    detail = {
        "descriptor": module.descriptor,
        "full_verdict": verdict.to_json_dict(),
        "replay_witness": {"a": a, "r": r, "m": m, "verified": triple_ok,
                           "a_render": module.ring.render(a),
                           "r_render": module.ring.render(r),
                           "m_render": module.render(m)},
        "nil_certificate": {"p": p_elem, "power": power, "verified": cert_ok},
    }
    return _report(check_id, detail, None if ok else triple_witness(
        PROP_NIL_SEMI, module.descriptor, witness_triple, expect=triple_ok))


def check_example_tn(p: int, n: int, config: EngineConfig | None = None) -> CheckReport:
    """Upper triangular matrices over Z_{p^n} are not nil-semicommutative."""
    cfg = resolve(config)
    module = _mat_mod(UPPER, n, p ** n, cfg)
    ring = module.ring
    one = ring.base.one
    A = ring.unit(0, 0, one)
    K = module.unit(0, 0, 1)
    L = ring.unit(0, 0, p ** (n - 1) % p ** n)
    P = ring.unit(0, 0, p % p ** n)
    return _not_nil_semicommutative_instance("tn_zpn_not_nil_semicommutative",
                                             module, (A, L, K), (P, n), cfg)


def check_example_tn_field(p: int, n: int,
                           config: EngineConfig | None = None) -> CheckReport:
    """Upper triangular matrices over the field Z_p are not
    nil-semicommutative even though Z_p itself is."""
    cfg = resolve(config)
    module = _mat_mod(UPPER, n, p, cfg)
    ring = module.ring
    A = ring.scalar((p - 1) % p)
    K = module.scalar(1)
    L = ring.unit(0, n - 1, (p - 1) % p)
    P = ring.unit(0, n - 1, 1)
    return _not_nil_semicommutative_instance("tn_field_not_nil_semicommutative",
                                             module, (A, L, K), (P, 2), cfg)


def check_example_vn(p: int, n: int, config: EngineConfig | None = None) -> CheckReport:
    """The shift-polynomial matrix module over Z_p is not nil-semicommutative."""
    cfg = resolve(config)
    module = _mat_mod(V_TYPE, n, p, cfg)
    ring = module.ring
    A = ring.scalar((p - 1) % p)
    K = module.scalar(1)
    L = ring.superdiag((p - 1) % p, n - 1)
    V = ring.superdiag(1, 1)
    return _not_nil_semicommutative_instance("vn_not_nil_semicommutative",
                                             module, (A, L, K), (V, n), cfg)


def check_torsion_free_props(module: FiniteModule,
                             config: EngineConfig | None = None) -> CheckReport:
    """Torsion-free modules have nil set {0} and the three semicommutativity
    properties all hold (hence coincide)."""
    cfg = resolve(config, module)
    if not is_torsion_free(module, cfg):
        return _skipped("torsion_free_collapse",
                        {"descriptor": module.descriptor,
                         "reason": "module is not torsion-free"})
    nils = nil_set(module, cfg)
    nil_trivial = nils.members() == [module.zero]
    verdicts = dict(zip(
        ("semicommutative", "nil_semicommutative", "weakly_semicommutative"),
        decide_many(module, (PROP_SEMICOMMUTATIVE, PROP_NIL_SEMI, PROP_WEAKLY), cfg)))
    all_hold = all(v.holds is True for v in verdicts.values())
    detail = {
        "descriptor": module.descriptor,
        "nil_members": nils.members(),
        "nil_trivial": nil_trivial,
        "verdicts": {k: v.to_json_dict() for k, v in verdicts.items()},
        "all_hold": all_hold,
    }
    witness = None
    if not nil_trivial:
        bad = next(m for m in nils.members() if m != module.zero)
        witness = _witness("nilpotent-element", descriptor=module.descriptor,
                           m=bad, expect=True)
    elif not all_hold:
        witness = next(v for v in verdicts.values()
                       if v.holds is not True).witness_payload()
    return _report("torsion_free_collapse", detail, witness)


def check_commutative_ring_prop(ring: FiniteRing,
                                config: EngineConfig | None = None) -> CheckReport:
    """Over a commutative ring whose nonzero nilpotents all have nilpotency
    degree above two, a nil-semicommutative ring gives a
    nil-semicommutative regular module."""
    cfg = resolve(config, ring)
    if not center(ring, cfg).all():
        raise InvalidParameterError(
            f"{ring.descriptor}: this transfer statement wants a commutative ring")
    degrees = {}
    hypothesis = True
    for a in np.flatnonzero(nil_ring_set(ring, cfg)).tolist():
        if a == ring.zero:
            continue
        deg = nilpotency_degree(ring, a)
        degrees[str(a)] = deg
        if deg is not None and deg <= 2:
            hypothesis = False
    ring_v = ring_is_nil_semicommutative(ring, cfg)
    module_v = is_nil_semicommutative(regular_module(ring, cfg), cfg)
    implication_ok = (not ring_v.holds) or bool(module_v.holds)
    detail = {
        "descriptor": ring.descriptor,
        "hypothesis": hypothesis,
        "nilpotency_degrees": degrees,
        "ring_nil_semicommutative": ring_v.to_json_dict(),
        "module_nil_semicommutative": module_v.to_json_dict(),
        "implication_ok": implication_ok,
    }
    if not hypothesis:
        detail["reason"] = "hypothesis fails: some nonzero nilpotent has degree <= 2"
        return _skipped("commutative_nilpotency_transfer", detail)
    return _report("commutative_nilpotency_transfer", detail,
                   None if implication_ok else module_v.witness_payload())


def check_hom_transfer(hom: RingHom, module: FiniteModule,
                       config: EngineConfig | None = None) -> CheckReport:
    """Along a surjective ring hom, a module and its pullback agree on
    nil-semicommutativity."""
    cfg = resolve(config, module)
    if not hom.surjective:
        return _skipped("hom_transfer", {"hom": hom.descriptor,
                                         "reason": "the hom is not surjective"})
    target_v = is_nil_semicommutative(module, cfg)
    pulled = induced_module(hom, module, cfg)
    source_v = is_nil_semicommutative(pulled, cfg)
    agree = target_v.holds == source_v.holds
    detail = {
        "hom": hom.descriptor,
        "descriptor": module.descriptor,
        "induced_descriptor": pulled.descriptor,
        "target_verdict": target_v.to_json_dict(),
        "source_verdict": source_v.to_json_dict(),
        "agree": agree,
    }
    failing = target_v if target_v.holds is False else source_v
    return _report("hom_transfer", detail,
                   None if agree else failing.witness_payload())


def check_tor_t_sets(config: EngineConfig | None = None) -> CheckReport:
    """In the Z_6-module Z_6, 3 is torsion but not regular-torsion, and the
    regular-torsion set collapses to {0}."""
    cfg = resolve(config)
    module = _reg_zn(6, cfg)
    ts = torsion_sets(module, cfg)
    facts = {
        "tor": ts.tor_members(),
        "t": ts.t_members(),
        "three_in_tor": 3 in ts.tor_members(),
        "three_in_t": 3 in ts.t_members(),
    }
    ok = (facts["tor"] == [0, 2, 3, 4] and facts["t"] == [0]
          and facts["three_in_tor"] and not facts["three_in_t"])
    detail = {"descriptor": module.descriptor, **facts}
    return _report("torsion_vs_regular_torsion", detail, None if ok else
                   _witness("annihilator", descriptor=module.descriptor,
                            r=2, m=3, expect_zero=True))


def check_t_submodule(module: FiniteModule,
                      config: EngineConfig | None = None) -> CheckReport:
    """For a nil-semicommutative module over a finite domain (hence a
    field), the regular-torsion set is a submodule."""
    cfg = resolve(config, module)
    ring = module.ring
    if regular_elements(ring, cfg).sum() != ring.size - 1:
        return _skipped("t_set_submodule", {"descriptor": module.descriptor,
                                            "reason": "the ring is not a domain"})
    verdict = is_nil_semicommutative(module, cfg)
    if verdict.holds is not True:
        return _skipped("t_set_submodule",
                        {"descriptor": module.descriptor,
                         "reason": "the module is not nil-semicommutative"})
    ts = torsion_sets(module, cfg)
    ok = ts.t_is_submodule
    detail = {
        "descriptor": module.descriptor,
        "t": ts.t_members(),
        "t_closed_add": ts.t_closed_add,
        "t_closed_act": ts.t_closed_act,
    }
    return _report("t_set_submodule", detail, None if ok else
                   _witness("t-closure", descriptor=module.descriptor))


def _cyclic_submodules(module: FiniteModule, cfg: EngineConfig):
    """Yield each distinct cyclic submodule Rm once, at its least generator
    m, with the list of its generators; the list fills in as the scan of
    the module's elements goes on."""
    generators: dict[tuple[int, ...], list[int]] = {}
    for m in module.elements():
        # the orbit alone identifies the submodule; build each one once
        key = tuple(orbit(module, m))
        if key in generators:
            generators[key].append(m)
        else:
            generators[key] = [m]
            yield cyclic_submodule(module, m, cfg), generators[key]


def check_submodule_equivalence(module: FiniteModule,
                                config: EngineConfig | None = None) -> CheckReport:
    """Compare nil-semicommutativity of a module against all of its cyclic
    submodules; the two are asserted equivalent."""
    cfg = resolve(config, module)
    whole = is_nil_semicommutative(module, cfg)
    verdicts = []
    subs = []
    for sub, generators in _cyclic_submodules(module, cfg):
        verdict = is_nil_semicommutative(sub, cfg)
        verdicts.append(verdict)
        subs.append({
            "descriptor": sub.descriptor,
            "generators": generators,
            "size": sub.size,
            "holds": verdict.holds,
            "witness": verdict.to_json_dict()["witness"],
        })
    all_hold = all(v.holds for v in verdicts)
    equivalent = bool(whole.holds) == all_hold
    detail = {
        "descriptor": module.descriptor,
        "module_holds": whole.holds,
        "module_witness": whole.to_json_dict()["witness"],
        "cyclic_submodules": subs,
        "all_submodules_hold": all_hold,
        "equivalent": equivalent,
    }
    witness = None
    if not equivalent:
        failing = (whole if whole.holds is False
                   else next(v for v in verdicts if not v.holds))
        witness = failing.witness_payload()
    return _report("submodule_equivalence", detail, witness)


# ---------------------------------------------------------------------------
# Registered checks (desk-scale defaults)


def _merge(check_id: str, reports: list[CheckReport]) -> CheckReport:
    """One report over several instance reports: refuted by the first
    refuted instance's witness, skipped when every instance skipped."""
    detail: dict = {"instances": [{k: v for k, v in r.to_json_dict().items()
                                   if k != "runtime_ms"} for r in reports]}
    if all(r.status == SKIPPED for r in reports):
        detail["reason"] = "; ".join(r.detail.get("reason", "") for r in reports)
        return _skipped(check_id, detail)
    return _report(check_id, detail, next(
        (r.detail["witness"] for r in reports if r.status == REFUTED), None))


def _first_witness(check_id: str, instances) -> CheckReport:
    """One report over (entry, witness) instances, refuted by the first
    instance that carries a witness."""
    entries = []
    witness = None
    for entry, found in instances:
        entries.append(entry)
        witness = witness or found
    return _report(check_id, {"instances": entries}, witness)


def _pair(n: int, cfg: EngineConfig) -> FiniteModule:
    return make_product_module([_reg_zn(n, cfg), _reg_zn(n, cfg)], cfg)


def _criterion_equivalence(cfg: EngineConfig) -> CheckReport:
    modules = [_reg_zn(n, cfg) for n in range(2, 13)]
    modules += [
        _mat_mod(UPPER, 2, 2, cfg),
        _mat_mod(UPPER, 2, 4, cfg),
        _mat_mod(V_TYPE, 2, 2, cfg),
        _mat_mod(FULL, 2, 2, cfg),
    ]
    checked = 0
    disagreements = []
    for module in modules:
        for m in module.elements():
            sq, _ = is_nilpotent_squared(module, m)
            pw, _ = is_nilpotent_power(module, m)
            checked += 1
            if sq != pw:
                disagreements.append({"descriptor": module.descriptor, "m": m,
                                      "squared": sq, "power": pw})
    detail = {
        "structures": [m.descriptor for m in modules],
        "elements_checked": checked,
        "disagreements": disagreements,
    }
    first = disagreements[0] if disagreements else None
    return _report("criterion_equivalence", detail, first and _witness(
        "criterion-mismatch", descriptor=first["descriptor"], m=first["m"]))


def _localization_wellformed(cfg: EngineConfig) -> CheckReport:
    z12 = make_zn(12, cfg)
    s12 = multiplicative_closure(z12, [2], cfg)
    loc = localize_ring(z12, s12, cfg)
    locm = localize_module(regular_module(z12, cfg), s12, cfg)
    proj_hom = all(
        loc.project(z12.add(a, b)) == loc.add(loc.project(a), loc.project(b))
        and loc.project(z12.mul(a, b)) == loc.mul(loc.project(a), loc.project(b))
        for a in z12.elements() for b in z12.elements())
    base_mod = locm.base
    proj_act = all(
        locm.project(base_mod.act(r, m)) == locm.act(loc.project(r), locm.project(m))
        for r in z12.elements() for m in base_mod.elements())
    z5 = make_zn(5, cfg)
    loc5 = localize_ring(z5, multiplicative_closure(z5, [], cfg), cfg)
    unit_bijective = len({loc5.project(r) for r in z5.elements()}) == z5.size
    ok = loc.size == 3 and locm.size == 3 and proj_hom and proj_act and unit_bijective
    detail = {
        "ring": {"descriptor": loc.descriptor, "size": loc.size,
                 "expected_size": 3, "class_table": loc.class_table()},
        "module": {"descriptor": locm.descriptor, "size": locm.size,
                   "expected_size": 3, "class_table": locm.class_table()},
        "projection_is_hom": proj_hom,
        "projection_respects_action": proj_act,
        "unit_set_projection_bijective": unit_bijective,
    }
    return _report("localization_wellformed", detail, None if ok else
                   _witness("class-count", descriptor=loc.descriptor,
                            expected=3, got=loc.size))


def _nil_module_properties(cfg: EngineConfig) -> CheckReport:
    def instance(module):
        if not is_nil_module(module, cfg):
            return {"descriptor": module.descriptor,
                    "reason": "not a nil module, skipped"}, None
        semi, weak, nil = decide_many(module, _SEMI_WEAK_NIL, cfg)
        entry = {
            "descriptor": module.descriptor,
            "nil_module": True,
            "semicommutative": semi.to_json_dict(),
            "weakly_semicommutative": weak.to_json_dict(),
            "nil_semicommutative": nil.to_json_dict(),
        }
        bad = next((v for v in (semi, weak, nil) if v.holds is not True), None)
        return entry, bad and bad.witness_payload()

    zero_mod = cyclic_submodule(_reg_zn(4, cfg), 0, cfg)
    return _first_witness("nil_module_properties",
                          [instance(m) for m in (zero_mod, _mat_mod(FULL, 2, 2, cfg))])


def _submodules_inherit(cfg: EngineConfig) -> CheckReport:
    def instance(module):
        whole = is_nil_semicommutative(module, cfg)
        if whole.holds is not True:
            return {"descriptor": module.descriptor,
                    "reason": "parent not nil-semicommutative, skipped"}, None
        count = 0
        bad = None
        for sub, _ in _cyclic_submodules(module, cfg):
            count += 1
            v = is_nil_semicommutative(sub, cfg)
            if v.holds is not True:
                bad = v
                break
        return ({"descriptor": module.descriptor,
                 "distinct_cyclic_submodules": count,
                 "all_inherit": bad is None}, bad and bad.witness_payload())

    parents = [_mat_mod(FULL, 2, 2, cfg), _reg_zn(3, cfg), _reg_zn(6, cfg), _pair(2, cfg)]
    return _first_witness("submodules_inherit", [instance(m) for m in parents])


def _quotient_by_torsion(cfg: EngineConfig) -> CheckReport:
    def instance(module):
        if not is_torsion_free(module, cfg):
            return {"descriptor": module.descriptor,
                    "reason": "not torsion-free, skipped"}, None
        ts = torsion_sets(module, cfg)
        torsion_sub = submodule_generated(module, ts.tor_members(), cfg)
        quotient = quotient_module(module, torsion_sub, cfg)
        whole = is_nil_semicommutative(module, cfg)
        quot_v = is_nil_semicommutative(quotient, cfg)
        agree = whole.holds == quot_v.holds
        failing = whole if whole.holds is False else quot_v
        return ({"descriptor": module.descriptor,
                 "quotient_descriptor": quotient.descriptor,
                 "module_holds": whole.holds,
                 "quotient_holds": quot_v.holds,
                 "agree": agree}, None if agree else failing.witness_payload())

    modules = [_reg_zn(3, cfg), _reg_zn(5, cfg), _pair(3, cfg), _reg_zn(4, cfg)]
    return _first_witness("quotient_by_torsion", [instance(m) for m in modules])


def _theta_iso(cfg: EngineConfig) -> CheckReport:
    def instance(base_n, n):
        ok = verify_theta_iso(make_zn(base_n, cfg), n, cfg)
        return ({"base": f"Z({base_n})", "n": n, "isomorphic": ok},
                None if ok else _witness("theta-failure", base_n=base_n, n=n))

    cases = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)]
    return _first_witness("theta_iso", [instance(*case) for case in cases])


# the claims in registry order, each with the reports of its instances at
# the given config and options, which run_check combines
_REGISTRY: dict[str, _CheckDef] = {check.check_id: check for check in (
    _CheckDef("lemma_squarefree",
              "1 is nilpotent in the Z_n-module Z_n exactly when n has a "
              "repeated prime factor",
              lambda cfg, opts: [check_lemma_squarefree(opts.nmax, cfg)],
              interns_nothing=True),
    _CheckDef("matrix_nil_coverage",
              "over the full matrix ring, every matrix with module entries is "
              "nilpotent (n >= 2)",
              lambda cfg, opts: [
                  check_lemma_matrix_nil(n, make_zn(base_n, cfg), _reg_zn(base_n, cfg), sample, cfg)
                  for n, base_n, sample in ((2, 2, None), (2, 4, None), (4, 2, opts.samples))]),
    _CheckDef("zpn_hierarchy",
              "Z_{p^n} with n >= 2 is semicommutative and weakly semicommutative "
              "but not nil-semicommutative, violated at (1, p^(n-1), 1)",
              lambda cfg, opts: [check_example_zpn(p, n, cfg)
                                 for p, n in ((2, 2), (3, 2), (2, 3))]),
    _CheckDef("matrix_semicommutativity",
              "full matrix modules are nil-semicommutative for n >= 2, and an "
              "explicit pair breaks semicommutativity at n >= 4",
              lambda cfg, opts: [check_example_matrix(2, 2, cfg),
                                 check_example_matrix(4, 2, cfg, sample=opts.samples)]),
    _CheckDef("tn_zpn_not_nil_semicommutative",
              "upper triangular matrices over Z_{p^n} (n >= 2) are not "
              "nil-semicommutative",
              lambda cfg, opts: [check_example_tn(2, 2, cfg)]),
    _CheckDef("tn_field_not_nil_semicommutative",
              "upper triangular matrices over the field Z_p are not "
              "nil-semicommutative (n >= 2)",
              lambda cfg, opts: [check_example_tn_field(2, 2, cfg)]),
    _CheckDef("vn_not_nil_semicommutative",
              "shift-polynomial matrices over the field Z_p are not "
              "nil-semicommutative (n >= 2)",
              lambda cfg, opts: [check_example_vn(2, 2, cfg)]),
    _CheckDef("torsion_free_collapse",
              "a torsion-free module has nil set {0} and is semicommutative, "
              "nil-semicommutative and weakly semicommutative alike",
              lambda cfg, opts: [check_torsion_free_props(m, cfg) for m in (
                  _reg_zn(2, cfg), _reg_zn(3, cfg), _reg_zn(5, cfg), _pair(3, cfg))]),
    _CheckDef("criterion_equivalence",
              "the squared and the power nilpotency criteria agree on every "
              "element of every test module",
              lambda cfg, opts: [_criterion_equivalence(cfg)]),
    _CheckDef("submodule_equivalence",
              "a module is nil-semicommutative exactly when every cyclic "
              "submodule is",
              lambda cfg, opts: [check_submodule_equivalence(m, cfg) for m in (
                  _reg_zn(4, cfg), _reg_zn(3, cfg), _reg_zn(6, cfg), _mat_mod(UPPER, 2, 2, cfg),
                  _mat_mod(FULL, 2, 2, cfg), _mat_mod(UPPER, 2, 4, cfg))]),
    _CheckDef("commutative_nilpotency_transfer",
              "for a commutative ring whose nonzero nilpotents have degree "
              "above two, ring nil-semicommutativity passes to the regular "
              "module",
              lambda cfg, opts: [check_commutative_ring_prop(make_zn(n, cfg), cfg)
                                 for n in (6, 4, 8)]),
    _CheckDef("hom_transfer",
              "along a surjective ring hom, a module and its pullback agree on "
              "nil-semicommutativity",
              lambda cfg, opts: [
                  check_hom_transfer(zn_reduction_hom(8, 4, cfg), _reg_zn(4, cfg), cfg),
                  check_hom_transfer(identity_hom(make_zn(3, cfg)), _reg_zn(3, cfg), cfg),
                  check_hom_transfer(zn_reduction_hom(6, 3, cfg), _reg_zn(3, cfg), cfg)]),
    _CheckDef("torsion_vs_regular_torsion",
              "in the Z_6-module Z_6, 3 is torsion but not regular-torsion and "
              "the regular-torsion set is {0}",
              lambda cfg, opts: [check_tor_t_sets(cfg)]),
    _CheckDef("t_set_submodule",
              "over a finite domain, the regular-torsion set of a "
              "nil-semicommutative module is a submodule",
              lambda cfg, opts: [check_t_submodule(m, cfg)
                                 for m in (_reg_zn(3, cfg), _pair(2, cfg))]),
    _CheckDef("localization_wellformed",
              "fraction classes, class counts and projection maps of central "
              "localizations behave as computed partitions require",
              lambda cfg, opts: [_localization_wellformed(cfg)]),
    _CheckDef("localization_transfer", LOCALIZATION_TRANSFER_CLAIM,
              lambda cfg, opts: [check_localization_transfer(
                  _reg_zn(n, cfg), multiplicative_closure(make_zn(n, cfg), gens, cfg), cfg)
                  for n, gens in ((3, []), (4, [3]), (12, [2]))]),
    _CheckDef("nil_module_properties",
              "a nil module is semicommutative, nil-semicommutative and weakly "
              "semicommutative",
              lambda cfg, opts: [_nil_module_properties(cfg)]),
    _CheckDef("submodules_inherit",
              "every cyclic submodule of a nil-semicommutative module is "
              "nil-semicommutative",
              lambda cfg, opts: [_submodules_inherit(cfg)]),
    _CheckDef("quotient_by_torsion",
              "for a torsion-free module, nil-semicommutativity agrees with "
              "that of the quotient by its torsion submodule",
              lambda cfg, opts: [_quotient_by_torsion(cfg)]),
    _CheckDef("theta_iso",
              "reading shift-polynomial coefficients as truncated polynomial "
              "coefficients is a ring isomorphism",
              lambda cfg, opts: [_theta_iso(cfg)]),
)}


# ---------------------------------------------------------------------------
# Runner


def run_check(check_id: str, config: EngineConfig | None = None,
              options: HarnessOptions | None = None) -> CheckReport:
    """Run one registered check: a single instance's report as it is,
    several merged into one; internal errors become skipped reports."""
    if check_id not in _REGISTRY:
        raise InvalidParameterError(f"unknown check id {check_id!r}")
    cfg = resolve(config)
    opts = options or HarnessOptions()
    start = time.perf_counter()
    try:
        reports = _REGISTRY[check_id].instances(cfg, opts)
        report = reports[0] if len(reports) == 1 else _merge(check_id, reports)
    except DecisionCapError as exc:
        report = _skipped(check_id, {"reason": f"cap: {exc}"})
    except Exception as exc:  # a failed check must not abort the suite
        from traceback import extract_tb
        frame = extract_tb(exc.__traceback__)[-1]  # where it was raised
        report = _skipped(check_id, {
            "reason": "internal-error",
            "error": f"{type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno}"})
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    return report


def run_all(config: EngineConfig | None = None,
            options: HarnessOptions | None = None,
            only: list[str] | None = None) -> list[CheckReport]:
    """Run every registered check (or a selection), reports in registry
    order, each structure built once per run (see rings.interning).  The
    checks that intern nothing run in a helper process beside the others
    where _helper_ids allows; the reports are the same either way."""
    ids = registered_ids()
    if only:
        unknown = [cid for cid in only if cid not in _REGISTRY]
        if unknown:
            raise InvalidParameterError(f"unknown check ids: {', '.join(unknown)}; "
                                        f"known ids: {', '.join(ids)}")
        ids = [cid for cid in ids if cid in set(only)]
    helper = _helper_ids(ids)
    with interning():
        if not helper:
            return [run_check(cid, config, options) for cid in ids]
        reports = _run_beside_helper(helper, [cid for cid in ids if cid not in helper],
                                     config, options)
    return [reports[cid] for cid in ids]


def _helper_ids(ids: list[str]) -> list[str]:
    """The checks of ids that run in a helper process: those that intern
    nothing, when another check runs beside them, os.fork exists and this
    process may run on two CPUs or more; none otherwise."""
    helper = [cid for cid in ids if _REGISTRY[cid].interns_nothing]
    affinity = getattr(os, "sched_getaffinity", None)
    if (not helper or len(helper) == len(ids) or not hasattr(os, "fork")
            or affinity is None or len(affinity(0)) < 2):
        return []
    return helper


def _run_beside_helper(helper: list[str], rest: list[str], config, options) -> dict:
    """The reports of helper, run in a forked child, and of rest, run here
    meanwhile, by check id.  The child pickles its reports into a pipe and
    leaves through os._exit, so it flushes no inherited buffer and runs no
    exit hook.  The pipe is read to its end before the child is reaped, so
    reports of any size pass; the child is reaped in any case, and killed
    first when this process leaves early.  A child that ends with another
    status than 0, or sends nothing, gives each of its checks a skipped
    internal-error report naming the status."""
    read_fd, write_fd = os.pipe()
    # fork, not spawn: a spawned child would import the package again, about
    # as long as the lemma itself; the child calls no BLAS routine, so
    # numpy's idle BLAS threads hold no lock it needs
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump([run_check(cid, config, options) for cid in helper], out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            reports = {cid: run_check(cid, config, options) for cid in rest}
            sent = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0 and sent:
        reports.update(zip(helper, pickle.loads(sent)))
        return reports
    ended = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
    return {**reports, **{cid: _skipped(cid, {
        "reason": "internal-error",
        "error": f"the helper process {ended} and sent no report"}) for cid in helper}}


def exit_code(reports: list[CheckReport]) -> int:
    """0 all confirmed (or cleanly skipped), 2 refutations, 1 internal errors."""
    if any(r.detail.get("reason") == "internal-error" for r in reports):
        return 1
    if any(r.status == REFUTED for r in reports):
        return 2
    return 0


def reverify_refutation(report_or_witness, config: EngineConfig | None = None) -> bool:
    """Replay a refuted report's stored witness with one evaluation call,
    through its kind's entry in WITNESS_KINDS.  A witness that is no dict,
    lacks its kind or a field its kind lists, or holds a field of another
    type than _FIELD_TYPES gives it, raises InvalidParameterError."""
    from .dsl import elaborate_text

    cfg = resolve(config)
    witness = (report_or_witness.detail.get("witness")
               if isinstance(report_or_witness, CheckReport) else report_or_witness)
    if not witness:
        return False
    if not isinstance(witness, dict):
        raise InvalidParameterError(f"a witness is a dict, got {type(witness).__name__}")
    kind = witness.get("kind")
    spec = WITNESS_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise InvalidParameterError("witness has no field 'kind'" if kind is None
                                    else f"unknown witness kind {kind!r}")
    optional = ("expect",) if kind in TRIPLE_KINDS and "expect" in witness else ()
    for name in (*spec.fields, *optional):
        if name not in witness:
            raise InvalidParameterError(f"{kind} witness has no field {name!r}")
        want, value = _FIELD_TYPES.get(name, int), witness[name]
        if type(value) is not want:
            raise InvalidParameterError(f"{kind} witness field {name!r} must be "
                                        f"{want.__name__}, got {type(value).__name__}")
    structure = (elaborate_text(witness["descriptor"], cfg)
                 if "descriptor" in spec.fields else None)
    return spec.replay(structure, witness, cfg)
