"""A registry of named desk-scale checks for the nil-semicommutativity
hierarchy of finite modules.

Each check re-verifies one claim on concrete finite structures and returns
a CheckReport: confirmed, refuted (with a witness a single evaluation can
replay), or skipped with a reason.  Refutation is a first-class outcome;
the suite verifies claims rather than assuming them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from random import Random

from .config import EngineConfig, resolve
from .deciders import (
    PROP_NIL_SEMI,
    PROP_SEMICOMMUTATIVE,
    is_nil_semicommutative,
    is_semicommutative,
    is_weakly_semicommutative,
    ring_is_nil_semicommutative,
    triple_witness,
    verify_nonsemicommutative_witness,
    verify_not_nil_semicommutative_witness,
)
from .errors import DecisionCapError, InvalidParameterError
from .localization import (
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
    quotient_module,
    regular_module,
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
from .reports import CONFIRMED, REFUTED, SKIPPED, CheckReport, strip_runtime
from .rings import (
    FULL,
    UPPER,
    V_TYPE,
    FiniteRing,
    MatrixShape,
    RingHom,
    identity_hom,
    make_zn,
    nil_ring_set,
    nilpotency_degree,
    verify_theta_iso,
    zn_reduction_hom,
)


@dataclass(frozen=True)
class HarnessOptions:
    """Desk-scale parameters for the registered checks."""

    nmax: int = 1000
    samples: int = 1000


@dataclass(frozen=True)
class _CheckDef:
    check_id: str
    claim: str
    runner: object


_REGISTRY: dict[str, _CheckDef] = {}


def _register(check_id: str, claim: str):
    def deco(fn):
        _REGISTRY[check_id] = _CheckDef(check_id, claim, fn)
        return fn
    return deco


def registered_ids() -> list[str]:
    return list(_REGISTRY)


def registry_claims() -> dict[str, str]:
    return {cid: cd.claim for cid, cd in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# Shared builders


def _light_config(cfg: EngineConfig) -> EngineConfig:
    # bulk loops over many throwaway rings: skip tables, trim sampling
    return cfg.with_overrides(tabulate_threshold=0, validation_samples=64)


def _reg_zn(n: int, cfg: EngineConfig) -> FiniteModule:
    return regular_module(make_zn(n, cfg), cfg)


def _mat_mod(kind: str, n: int, base_n: int, cfg: EngineConfig) -> FiniteModule:
    base = make_zn(base_n, cfg)
    return matrix_module(MatrixShape(kind, n), base, regular_module(base, cfg), cfg)


def _is_square_free(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def _verdict_entry(v) -> dict:
    return strip_runtime(v.to_json_dict())


def _report(check_id: str, detail: dict, witness: dict | None = None) -> CheckReport:
    """A registered check's report: refuted exactly when it carries a
    witness, which goes last in the detail; confirmed otherwise."""
    if witness is not None:
        detail["witness"] = witness
    return CheckReport(check_id, _REGISTRY[check_id].claim,
                       CONFIRMED if witness is None else REFUTED, detail)


def _skipped(check_id: str, detail: dict) -> CheckReport:
    return CheckReport(check_id, _REGISTRY[check_id].claim, SKIPPED, detail)


# ---------------------------------------------------------------------------
# Single-instance check operations (public; the registry wraps them)


def check_lemma_squarefree(n_max: int, config: EngineConfig | None = None) -> CheckReport:
    """1 is nilpotent in the Z_n-module Z_n exactly when n is not square free."""
    cfg = _light_config(resolve(config))
    mismatches = []
    for n in range(2, n_max + 1):
        module = _reg_zn(n, cfg)
        nilpotent, witness = is_nilpotent_squared(module, 1)
        if nilpotent == _is_square_free(n):
            mismatches.append({"n": n, "nilpotent": nilpotent,
                               "square_free": _is_square_free(n),
                               "witness": witness})
    detail = {"n_max": n_max, "checked": n_max - 1, "mismatches": mismatches}
    return _report("lemma_squarefree", detail,
                   {"kind": "squarefree-mismatch", "n": mismatches[0]["n"]}
                   if mismatches else None)


def check_lemma_matrix_nil(shape_n: int, base: FiniteRing, base_module: FiniteModule,
                           sample: int | None = None,
                           config: EngineConfig | None = None) -> CheckReport:
    """Every element of the full matrix module over the full matrix ring is
    nilpotent (n >= 2); below the cap by full scan, above it by replaying
    the constructive single-unit witness on random nonzero matrices."""
    cfg = resolve(config)
    if shape_n < 2:
        raise InvalidParameterError("the matrix nil claim needs n >= 2")
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
        gap = None if covered else next(m for m in module.elements() if m not in nils)
        return _report("matrix_nil_coverage", detail, _nil_gap(module, gap))

    count = sample if sample is not None else cfg.sample_count
    rng = Random(cfg.seed)
    ring = module.ring
    failures = []
    for _ in range(count):
        k_id = module.zero
        while k_id == module.zero:
            k_id = rng.randrange(module.size)
        grid = module.entries(k_id)
        i, j = next((i, j) for i in range(shape_n) for j in range(shape_n)
                    if grid[i][j] != base_module.zero)
        if i != j:
            r = ring.unit(j, i, base.one)
        else:
            l = 0 if i != 0 else 1
            r = ring.unit(l, i, base.one)
        r_sq_k = module.act(ring.mul(r, r), k_id)
        r_k = module.act(r, k_id)
        if not (r_sq_k == module.zero and r_k != module.zero):
            failures.append({"m": k_id, "r": r})
    detail = {
        "descriptor": module.descriptor,
        "mode": "sampled-witness",
        "samples": count,
        "passes": count - len(failures),
        "failures": failures,
    }
    return _report("matrix_nil_coverage", detail,
                   _nil_gap(module, failures[0]["m"] if failures else None))


def _nil_gap(module: FiniteModule, m: int | None) -> dict | None:
    """The witness of a non-nilpotent element m of the module, if any."""
    return (None if m is None else
            {"kind": "matrix-nil-gap", "descriptor": module.descriptor, "m": m})


def check_example_zpn(p: int, n: int, config: EngineConfig | None = None) -> CheckReport:
    """Z_{p^n} (n >= 2) splits the hierarchy: semicommutative and weakly
    semicommutative but not nil-semicommutative, with the explicit
    violating triple (1, p^(n-1), 1)."""
    cfg = resolve(config)
    if n < 2:
        raise InvalidParameterError("the prime-power split needs n >= 2")
    module = _reg_zn(p ** n, cfg)
    semi = is_semicommutative(module, cfg, mode="exhaustive")
    weak = is_weakly_semicommutative(module, cfg, mode="exhaustive")
    nil = is_nil_semicommutative(module, cfg, mode="exhaustive")
    pinned = (1, p ** (n - 1) % p ** n, 1)
    pinned_ok = verify_not_nil_semicommutative_witness(module, *pinned, config=cfg)
    ok = (semi.holds is True and weak.holds is True and nil.holds is False
          and pinned_ok)
    detail = {
        "descriptor": module.descriptor,
        "p": p,
        "n": n,
        "semicommutative": _verdict_entry(semi),
        "weakly_semicommutative": _verdict_entry(weak),
        "nil_semicommutative": _verdict_entry(nil),
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
                         sample: int | None = None) -> CheckReport:
    """Full matrix modules are nil-semicommutative for n >= 2 while an
    explicit construction breaks semicommutativity at n >= 4."""
    cfg = resolve(config)
    base = make_zn(base_size, cfg)
    detail: dict = {}
    if shape_n == 2:
        module = _mat_mod(FULL, 2, base_size, cfg)
        nil = is_nil_semicommutative(module, cfg, mode="exhaustive")
        semi = is_semicommutative(module, cfg, mode="exhaustive")
        detail["full"] = {
            "descriptor": module.descriptor,
            "nil_semicommutative": _verdict_entry(nil),
            "semicommutative_observed": _verdict_entry(semi),
        }
        return _report("matrix_semicommutativity", detail,
                       None if nil.holds is True else nil.witness_payload())

    # n >= 4: replay the printed construction over the given base
    module = matrix_module(MatrixShape(FULL, shape_n), base,
                           regular_module(base, cfg), cfg)
    ring = module.ring
    one = base.one
    a_grid = [[base.zero] * shape_n for _ in range(shape_n)]
    a_grid[0][1] = one
    a_grid[0][2] = base.neg(one)
    A = ring.from_entries(a_grid)
    m_entry = 1  # any nonzero entry of the base module
    k_grid = [[module.base.zero] * shape_n for _ in range(shape_n)]
    k_grid[1][shape_n - 1] = m_entry
    k_grid[2][shape_n - 1] = m_entry
    K = module.from_entries(k_grid)
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
                                     sample=sample or cfg.sample_count, config=cfg)
    detail["sampled_nil"] = strip_runtime(sampled.detail)
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
    verdict = is_nil_semicommutative(module, cfg, mode="exhaustive")
    a, r, m = witness_triple
    triple_ok = verify_not_nil_semicommutative_witness(module, a, r, m, config=cfg)
    am = module.act(a, m)
    p_elem, power = nil_cert
    cert_ok = (module.act(module.ring.power(p_elem, power), am) == module.zero
               and module.act(p_elem, am) != module.zero)
    ok = verdict.holds is False and triple_ok and cert_ok
    detail = {
        "descriptor": module.descriptor,
        "full_verdict": _verdict_entry(verdict),
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
    cfg = resolve(config if config is not None else module.config)
    if not is_torsion_free(module, cfg):
        return _skipped("torsion_free_collapse",
                        {"descriptor": module.descriptor,
                         "reason": "module is not torsion-free"})
    nils = nil_set(module, cfg)
    nil_trivial = nils.members() == [module.zero]
    verdicts = {
        "semicommutative": is_semicommutative(module, cfg, mode="exhaustive"),
        "nil_semicommutative": is_nil_semicommutative(module, cfg, mode="exhaustive"),
        "weakly_semicommutative": is_weakly_semicommutative(module, cfg,
                                                            mode="exhaustive"),
    }
    all_hold = all(v.holds is True for v in verdicts.values())
    detail = {
        "descriptor": module.descriptor,
        "nil_members": nils.members(),
        "nil_trivial": nil_trivial,
        "verdicts": {k: _verdict_entry(v) for k, v in verdicts.items()},
        "all_hold": all_hold,
    }
    witness = None
    if not nil_trivial:
        bad = next(m for m in nils.members() if m != module.zero)
        witness = {"kind": "nilpotent-element", "descriptor": module.descriptor,
                   "m": bad, "expect": True}
    elif not all_hold:
        witness = next(v for v in verdicts.values()
                       if v.holds is not True).witness_payload()
    return _report("torsion_free_collapse", detail, witness)


def check_commutative_ring_prop(ring: FiniteRing,
                                config: EngineConfig | None = None) -> CheckReport:
    """Over a commutative ring whose nonzero nilpotents all have nilpotency
    degree above two, a nil-semicommutative ring gives a
    nil-semicommutative regular module."""
    cfg = resolve(config)
    if not ring.is_commutative():
        raise InvalidParameterError(
            f"{ring.descriptor}: this transfer statement wants a commutative ring")
    degrees = {}
    hypothesis = True
    for a in nil_ring_set(ring):
        if a == ring.zero:
            continue
        deg = nilpotency_degree(ring, a)
        degrees[str(a)] = deg
        if deg is not None and deg <= 2:
            hypothesis = False
    ring_v = ring_is_nil_semicommutative(ring, cfg)
    module_v = is_nil_semicommutative(regular_module(ring, cfg), cfg,
                                      mode="exhaustive")
    implication_ok = (not ring_v.holds) or bool(module_v.holds)
    detail = {
        "descriptor": ring.descriptor,
        "hypothesis": hypothesis,
        "nilpotency_degrees": degrees,
        "ring_nil_semicommutative": _verdict_entry(ring_v),
        "module_nil_semicommutative": _verdict_entry(module_v),
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
    cfg = resolve(config)
    if not hom.surjective:
        return _skipped("hom_transfer", {"hom": hom.descriptor,
                                         "reason": "the hom is not surjective"})
    target_v = is_nil_semicommutative(module, cfg, mode="exhaustive")
    pulled = induced_module(hom, module, cfg)
    source_v = is_nil_semicommutative(pulled, cfg, mode="exhaustive")
    agree = target_v.holds == source_v.holds
    detail = {
        "hom": hom.descriptor,
        "descriptor": module.descriptor,
        "induced_descriptor": pulled.descriptor,
        "target_verdict": _verdict_entry(target_v),
        "source_verdict": _verdict_entry(source_v),
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
                   {"kind": "annihilator", "descriptor": module.descriptor,
                    "r": 2, "m": 3, "expect_zero": True})


def check_t_submodule(module: FiniteModule,
                      config: EngineConfig | None = None) -> CheckReport:
    """For a nil-semicommutative module over a finite domain (hence a
    field), the regular-torsion set is a submodule."""
    cfg = resolve(config if config is not None else module.config)
    ring = module.ring
    from .rings import regular_elements
    if len(regular_elements(ring)) != ring.size - 1:
        return _skipped("t_set_submodule", {"descriptor": module.descriptor,
                                            "reason": "the ring is not a domain"})
    verdict = is_nil_semicommutative(module, cfg, mode="exhaustive")
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
                   {"kind": "t-closure", "descriptor": module.descriptor})


def _cyclic_submodules(module: FiniteModule, cfg: EngineConfig):
    """Yield each distinct cyclic submodule Rm once, at its least generator
    m, with the list of its generators; the list fills in as the scan of
    the module's elements goes on."""
    generators: dict[tuple[int, ...], list[int]] = {}
    for m in module.elements():
        # the orbit alone identifies the submodule; build each one once
        key = tuple(sorted({module.act(r, m) for r in module.ring.elements()}))
        if key in generators:
            generators[key].append(m)
        else:
            generators[key] = [m]
            yield cyclic_submodule(module, m, cfg), generators[key]


def check_submodule_equivalence(module: FiniteModule,
                                config: EngineConfig | None = None) -> CheckReport:
    """Compare nil-semicommutativity of a module against all of its cyclic
    submodules; the two are asserted equivalent."""
    cfg = resolve(config if config is not None else module.config)
    whole = is_nil_semicommutative(module, cfg, mode="exhaustive")
    verdicts = []
    subs = []
    for sub, generators in _cyclic_submodules(module, cfg):
        verdict = is_nil_semicommutative(sub, cfg, mode="exhaustive")
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
    detail: dict = {"instances": [strip_runtime(r.to_json_dict()) for r in reports]}
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


@_register("lemma_squarefree",
           "1 is nilpotent in the Z_n-module Z_n exactly when n has a "
           "repeated prime factor")
def _run_lemma_squarefree(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    return check_lemma_squarefree(opts.nmax, cfg)


@_register("matrix_nil_coverage",
           "over the full matrix ring, every matrix with module entries is "
           "nilpotent (n >= 2)")
def _run_matrix_nil(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    reports = [
        check_lemma_matrix_nil(2, make_zn(2, cfg), _reg_zn(2, cfg), config=cfg),
        check_lemma_matrix_nil(2, make_zn(4, cfg), _reg_zn(4, cfg), config=cfg),
        check_lemma_matrix_nil(4, make_zn(2, cfg), _reg_zn(2, cfg),
                               sample=opts.samples, config=cfg),
    ]
    return _merge("matrix_nil_coverage", reports)


@_register("zpn_hierarchy",
           "Z_{p^n} with n >= 2 is semicommutative and weakly semicommutative "
           "but not nil-semicommutative, violated at (1, p^(n-1), 1)")
def _run_zpn(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    reports = [check_example_zpn(2, 2, cfg), check_example_zpn(3, 2, cfg),
               check_example_zpn(2, 3, cfg)]
    return _merge("zpn_hierarchy", reports)


@_register("matrix_semicommutativity",
           "full matrix modules are nil-semicommutative for n >= 2, and an "
           "explicit pair breaks semicommutativity at n >= 4")
def _run_matrix_semi(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    reports = [check_example_matrix(2, 2, cfg),
               check_example_matrix(4, 2, cfg, sample=opts.samples)]
    return _merge("matrix_semicommutativity", reports)


@_register("tn_zpn_not_nil_semicommutative",
           "upper triangular matrices over Z_{p^n} (n >= 2) are not "
           "nil-semicommutative")
def _run_tn(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    return check_example_tn(2, 2, cfg)


@_register("tn_field_not_nil_semicommutative",
           "upper triangular matrices over the field Z_p are not "
           "nil-semicommutative (n >= 2)")
def _run_tn_field(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    return check_example_tn_field(2, 2, cfg)


@_register("vn_not_nil_semicommutative",
           "shift-polynomial matrices over the field Z_p are not "
           "nil-semicommutative (n >= 2)")
def _run_vn(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    return check_example_vn(2, 2, cfg)


@_register("torsion_free_collapse",
           "a torsion-free module has nil set {0} and is semicommutative, "
           "nil-semicommutative and weakly semicommutative alike")
def _run_torsion_free(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    z3 = _reg_zn(3, cfg)
    pair = make_product_module([_reg_zn(3, cfg), _reg_zn(3, cfg)], cfg)
    reports = [check_torsion_free_props(_reg_zn(2, cfg), cfg),
               check_torsion_free_props(z3, cfg),
               check_torsion_free_props(_reg_zn(5, cfg), cfg),
               check_torsion_free_props(pair, cfg)]
    return _merge("torsion_free_collapse", reports)


@_register("criterion_equivalence",
           "the squared and the power nilpotency criteria agree on every "
           "element of every test module")
def _run_criterion_equivalence(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
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
    return _report("criterion_equivalence", detail, first and {
        "kind": "criterion-mismatch", "descriptor": first["descriptor"],
        "m": first["m"]})


@_register("submodule_equivalence",
           "a module is nil-semicommutative exactly when every cyclic "
           "submodule is")
def _run_submodule_equivalence(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    modules = [_reg_zn(4, cfg), _reg_zn(3, cfg), _reg_zn(6, cfg),
               _mat_mod(UPPER, 2, 2, cfg), _mat_mod(FULL, 2, 2, cfg),
               _mat_mod(UPPER, 2, 4, cfg)]
    return _merge("submodule_equivalence",
                  [check_submodule_equivalence(module, cfg) for module in modules])


@_register("commutative_nilpotency_transfer",
           "for a commutative ring whose nonzero nilpotents have degree "
           "above two, ring nil-semicommutativity passes to the regular "
           "module")
def _run_commutative(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    reports = [check_commutative_ring_prop(make_zn(6, cfg), cfg),
               check_commutative_ring_prop(make_zn(4, cfg), cfg),
               check_commutative_ring_prop(make_zn(8, cfg), cfg)]
    return _merge("commutative_nilpotency_transfer", reports)


@_register("hom_transfer",
           "along a surjective ring hom, a module and its pullback agree on "
           "nil-semicommutativity")
def _run_hom_transfer(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    reports = [
        check_hom_transfer(zn_reduction_hom(8, 4, cfg), _reg_zn(4, cfg), cfg),
        check_hom_transfer(identity_hom(make_zn(3, cfg)), _reg_zn(3, cfg), cfg),
        check_hom_transfer(zn_reduction_hom(6, 3, cfg), _reg_zn(3, cfg), cfg),
    ]
    return _merge("hom_transfer", reports)


@_register("torsion_vs_regular_torsion",
           "in the Z_6-module Z_6, 3 is torsion but not regular-torsion and "
           "the regular-torsion set is {0}")
def _run_tor_t(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    return check_tor_t_sets(cfg)


@_register("t_set_submodule",
           "over a finite domain, the regular-torsion set of a "
           "nil-semicommutative module is a submodule")
def _run_t_submodule(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    pair = make_product_module([_reg_zn(2, cfg), _reg_zn(2, cfg)], cfg)
    reports = [check_t_submodule(_reg_zn(3, cfg), cfg),
               check_t_submodule(pair, cfg)]
    return _merge("t_set_submodule", reports)


@_register("localization_wellformed",
           "fraction classes, class counts and projection maps of central "
           "localizations behave as computed partitions require")
def _run_localization_wellformed(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
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
                   {"kind": "class-count", "descriptor": loc.descriptor,
                    "expected": 3, "got": loc.size})


@_register("localization_transfer",
           "a module is nil-semicommutative exactly when its localization at "
           "a central multiplicative set is")
def _run_localization_transfer(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    z3 = make_zn(3, cfg)
    z4 = make_zn(4, cfg)
    z12 = make_zn(12, cfg)
    reports = [
        check_localization_transfer(regular_module(z3, cfg),
                                    multiplicative_closure(z3, [], cfg), cfg),
        check_localization_transfer(regular_module(z4, cfg),
                                    multiplicative_closure(z4, [3], cfg), cfg),
        check_localization_transfer(regular_module(z12, cfg),
                                    multiplicative_closure(z12, [2], cfg), cfg),
    ]
    return _merge("localization_transfer", reports)


@_register("nil_module_properties",
           "a nil module is semicommutative, nil-semicommutative and weakly "
           "semicommutative")
def _run_nil_module_properties(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    def instance(module):
        if not is_nil_module(module, cfg):
            return {"descriptor": module.descriptor,
                    "reason": "not a nil module, skipped"}, None
        semi = is_semicommutative(module, cfg, mode="exhaustive")
        weak = is_weakly_semicommutative(module, cfg, mode="exhaustive")
        nil = is_nil_semicommutative(module, cfg, mode="exhaustive")
        entry = {
            "descriptor": module.descriptor,
            "nil_module": True,
            "semicommutative": _verdict_entry(semi),
            "weakly_semicommutative": _verdict_entry(weak),
            "nil_semicommutative": _verdict_entry(nil),
        }
        bad = next((v for v in (semi, weak, nil) if v.holds is not True), None)
        return entry, bad and bad.witness_payload()

    zero_mod = cyclic_submodule(_reg_zn(4, cfg), 0, cfg)
    return _first_witness("nil_module_properties",
                          [instance(m) for m in (zero_mod, _mat_mod(FULL, 2, 2, cfg))])


@_register("submodules_inherit",
           "every cyclic submodule of a nil-semicommutative module is "
           "nil-semicommutative")
def _run_submodules_inherit(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    def instance(module):
        whole = is_nil_semicommutative(module, cfg, mode="exhaustive")
        if whole.holds is not True:
            return {"descriptor": module.descriptor,
                    "reason": "parent not nil-semicommutative, skipped"}, None
        count = 0
        bad = None
        for sub, _ in _cyclic_submodules(module, cfg):
            count += 1
            v = is_nil_semicommutative(sub, cfg, mode="exhaustive")
            if v.holds is not True:
                bad = v
                break
        return ({"descriptor": module.descriptor,
                 "distinct_cyclic_submodules": count,
                 "all_inherit": bad is None}, bad and bad.witness_payload())

    pair = make_product_module([_reg_zn(2, cfg), _reg_zn(2, cfg)], cfg)
    parents = [_mat_mod(FULL, 2, 2, cfg), _reg_zn(3, cfg), _reg_zn(6, cfg), pair]
    return _first_witness("submodules_inherit", [instance(m) for m in parents])


@_register("quotient_by_torsion",
           "for a torsion-free module, nil-semicommutativity agrees with "
           "that of the quotient by its torsion submodule")
def _run_quotient_by_torsion(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    def instance(module):
        if not is_torsion_free(module, cfg):
            return {"descriptor": module.descriptor,
                    "reason": "not torsion-free, skipped"}, None
        ts = torsion_sets(module, cfg)
        torsion_sub = submodule_generated(module, ts.tor_members(), cfg)
        quotient = quotient_module(module, torsion_sub, cfg)
        whole = is_nil_semicommutative(module, cfg, mode="exhaustive")
        quot_v = is_nil_semicommutative(quotient, cfg, mode="exhaustive")
        agree = whole.holds == quot_v.holds
        failing = whole if whole.holds is False else quot_v
        return ({"descriptor": module.descriptor,
                 "quotient_descriptor": quotient.descriptor,
                 "module_holds": whole.holds,
                 "quotient_holds": quot_v.holds,
                 "agree": agree}, None if agree else failing.witness_payload())

    pair = make_product_module([_reg_zn(3, cfg), _reg_zn(3, cfg)], cfg)
    modules = [_reg_zn(3, cfg), _reg_zn(5, cfg), pair, _reg_zn(4, cfg)]
    return _first_witness("quotient_by_torsion", [instance(m) for m in modules])


@_register("theta_iso",
           "reading shift-polynomial coefficients as truncated polynomial "
           "coefficients is a ring isomorphism")
def _run_theta(cfg: EngineConfig, opts: HarnessOptions) -> CheckReport:
    cases = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)]
    results = []
    bad = None
    for base_n, n in cases:
        ok = verify_theta_iso(make_zn(base_n, cfg), n, cfg)
        results.append({"base": f"Z({base_n})", "n": n, "isomorphic": ok})
        if not ok and bad is None:
            bad = (base_n, n)
    return _report("theta_iso", {"instances": results}, bad and
                   {"kind": "theta-failure", "base_n": bad[0], "n": bad[1]})


# ---------------------------------------------------------------------------
# Runner


def run_check(check_id: str, config: EngineConfig | None = None,
              options: HarnessOptions | None = None) -> CheckReport:
    """Run one registered check; internal errors become skipped reports."""
    if check_id not in _REGISTRY:
        raise InvalidParameterError(f"unknown check id {check_id!r}")
    cfg = resolve(config)
    opts = options or HarnessOptions()
    start = time.perf_counter()
    try:
        report = _REGISTRY[check_id].runner(cfg, opts)
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
    """Run every registered check (or a selection) in registry order."""
    ids = registered_ids()
    if only:
        unknown = [cid for cid in only if cid not in _REGISTRY]
        if unknown:
            raise InvalidParameterError(f"unknown check ids: {', '.join(unknown)}")
        ids = [cid for cid in ids if cid in set(only)]
    return [run_check(cid, config, options) for cid in ids]


def exit_code(reports: list[CheckReport]) -> int:
    """0 all confirmed (or cleanly skipped), 2 refutations, 1 internal errors."""
    if any(r.detail.get("reason") == "internal-error" for r in reports):
        return 1
    if any(r.status == REFUTED for r in reports):
        return 2
    return 0


def reverify_refutation(report_or_witness, config: EngineConfig | None = None) -> bool:
    """Replay a refuted report's stored witness with one evaluation call."""
    from .dsl import elaborate_text

    cfg = resolve(config)
    if isinstance(report_or_witness, CheckReport):
        witness = report_or_witness.detail.get("witness")
    else:
        witness = report_or_witness
    if not witness:
        return False
    kind = witness["kind"]
    if kind == "squarefree-mismatch":
        module = regular_module(make_zn(witness["n"], cfg), cfg)
        return is_nilpotent_squared(module, 1)[0] == _is_square_free(witness["n"])
    if kind == "theta-failure":
        return not verify_theta_iso(make_zn(witness["base_n"], cfg), witness["n"], cfg)
    if kind == "class-count":
        structure = elaborate_text(witness["descriptor"], cfg)
        return structure.size != witness["expected"]
    module = elaborate_text(witness["descriptor"], cfg)
    if kind == "not-nil-semicommutative":
        got = verify_not_nil_semicommutative_witness(
            module, witness["a"], witness["r"], witness["m"], config=cfg)
        return got == witness.get("expect", True)
    if kind == "not-semicommutative":
        got = verify_nonsemicommutative_witness(
            module, witness["a"], witness["r"], witness["m"])
        return got == witness.get("expect", True)
    if kind == "nilpotent-element":
        return is_nilpotent_squared(module, witness["m"])[0] == witness["expect"]
    if kind == "matrix-nil-gap":
        return not is_nilpotent_squared(module, witness["m"])[0]
    if kind == "criterion-mismatch":
        m = witness["m"]
        return is_nilpotent_squared(module, m)[0] != is_nilpotent_power(module, m)[0]
    if kind == "annihilator":
        return (module.act(witness["r"], witness["m"]) == module.zero) == \
            witness["expect_zero"]
    if kind == "t-closure":
        return not torsion_sets(module, cfg).t_is_submodule
    raise InvalidParameterError(f"unknown witness kind {kind!r}")
