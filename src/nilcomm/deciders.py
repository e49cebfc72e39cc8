"""Deciders for the module and ring semicommutativity properties.

Each decider scans the full (a, r, m) space under the decision cap and
returns a Verdict: holds, or fails with the lexicographically least
violating triple in (a, m, r) order.  Above the cap the decider either
refuses (exhaustive mode) or degrades to witness-only mode, where a
supplied witness can still settle the answer negatively.  Sampling never
happens silently; it is a separate, labeled mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

import numpy as np

from .config import EngineConfig, resolve
from .errors import DecisionCapError, InvalidParameterError
from .modules import FiniteModule
from .nilpotency import is_nilpotent_squared, nil_set
from .rings import FiniteRing, first_true, nil_ring_set, scan

PROP_SEMICOMMUTATIVE = "semicommutative"
PROP_WEAKLY = "weakly-semicommutative"
PROP_NIL_SEMI = "nil-semicommutative"
PROP_REDUCED_I = "reduced-i"
PROP_REDUCED_II = "reduced-ii"
PROP_RING_SEMI = "ring-semicommutative"
PROP_RING_NIL_SEMI = "ring-nil-semicommutative"

MODULE_PROPERTIES = (
    PROP_SEMICOMMUTATIVE,
    PROP_WEAKLY,
    PROP_NIL_SEMI,
    PROP_REDUCED_I,
    PROP_REDUCED_II,
)
RING_PROPERTIES = (PROP_RING_SEMI, PROP_RING_NIL_SEMI)

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_WITNESS = "witness-only"
METHOD_SAMPLED = "sampled"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property decision.

    witness is the violating triple (a, r, m) when holds is False; holds is
    None when the method could not settle the property.
    """

    property: str
    holds: bool | None
    method: str
    witness: tuple[int, int, int] | None
    descriptor: str
    explanation: str = ""
    witness_render: tuple[str, str, str] | None = None

    def to_json_dict(self) -> dict:
        w = None
        if self.witness is not None:
            a, r, m = self.witness
            w = {"a": a, "r": r, "m": m}
            if self.witness_render is not None:
                w["a_render"], w["r_render"], w["m_render"] = self.witness_render
        return {
            "property": self.property,
            "holds": self.holds,
            "method": self.method,
            "witness": w,
            "descriptor": self.descriptor,
            "explanation": self.explanation,
        }

    def witness_payload(self, expect: bool | None = None) -> dict:
        """The replayable witness of this failing verdict (see triple_witness)."""
        return triple_witness(self.property, self.descriptor, self.witness, expect)


def triple_witness(prop: str, descriptor: str, triple,
                   expect: bool | None = None) -> dict:
    """The witness payload of a refuted claim for the violating triple
    (a, r, m) of one property on the module named by descriptor.

    A semicommutativity violation replays as one; a weak or a
    nil-semicommutativity violation (am is nilpotent in both) replays as a
    nil-semicommutativity violation.  expect, when given, is what the
    replay must return."""
    a, r, m = triple
    kind = ("not-semicommutative" if prop == PROP_SEMICOMMUTATIVE
            else "not-nil-semicommutative")
    payload = {"kind": kind, "descriptor": descriptor, "a": a, "r": r, "m": m}
    if expect is not None:
        payload["expect"] = expect
    return payload


def _module_renders(module: FiniteModule, triple) -> tuple[str, str, str]:
    a, r, m = triple
    return (module.ring.render(a), module.ring.render(r), module.render(m))


def _ring_renders(ring: FiniteRing, triple) -> tuple[str, str, str]:
    a, r, b = triple
    return (ring.render(a), ring.render(r), ring.render(b))


# ---------------------------------------------------------------------------
# Scan machinery


def _scan(act: np.ndarray, zero: int, prop: str, nil=None, squares=None):
    """Least violation (a, m, r) of a property over an action table, or None.

    A violation is a triggered (a, m) and an r with bad[a, r*m].  Each block
    of a gathers act[a, act[:, ms]] for its triggered columns ms only; the
    C-order least hit keeps the (a, m, r) order of the least witness."""
    if prop == PROP_REDUCED_I:
        trigger = lambda a: act[squares[a]] == zero
    elif prop == PROP_NIL_SEMI:
        trigger = lambda a: nil[act[a]]
    else:
        trigger = lambda a: act[a] == zero
    if prop in (PROP_WEAKLY, PROP_NIL_SEMI):
        bad = lambda a: ~nil[act[a]]
    elif prop == PROP_REDUCED_II:
        bad = lambda a: _nonzero_images(act[a], zero)
    else:
        bad = lambda a: act[a] != zero

    def block(lo, hi):
        hot = trigger(slice(lo, hi))
        ms = np.flatnonzero(hot.any(axis=0))
        hit = first_true(bad(slice(lo, hi))[:, act[:, ms].T] & hot[:, ms, None], lo)
        return None if hit is None else (hit[0], int(ms[hit[1]]), hit[2])

    return scan(act.shape[0], act.size, block)


def _nonzero_images(rows: np.ndarray, zero: int) -> np.ndarray:
    """Per row a of the action table, the nonzero elements of aM."""
    image = np.zeros(rows.shape, dtype=bool)
    np.put_along_axis(image, rows, True, axis=1)
    image[:, zero] = False
    return image


def _predicates(module: FiniteModule, prop: str, nil_member: Callable[[int], bool]):
    """Trigger and violation predicates for one module property."""
    act = module.act
    mul = module.ring.mul
    zero = module.zero
    if prop == PROP_SEMICOMMUTATIVE:
        return (lambda a, m: act(a, m) == zero,
                lambda a, r, m: act(a, act(r, m)) != zero)
    if prop == PROP_WEAKLY:
        return (lambda a, m: act(a, m) == zero,
                lambda a, r, m: not nil_member(act(a, act(r, m))))
    if prop == PROP_NIL_SEMI:
        return (lambda a, m: nil_member(act(a, m)),
                lambda a, r, m: not nil_member(act(a, act(r, m))))
    if prop == PROP_REDUCED_I:
        return (lambda a, m: act(mul(a, a), m) == zero,
                lambda a, r, m: act(a, act(r, m)) != zero)
    raise InvalidParameterError(f"unknown module property {prop!r}")


def _sampled_scan(module, trigger, violates, count: int, seed: int):
    rng = Random(seed)
    nr = module.ring.size
    nm = module.size
    for _ in range(count):
        a = rng.randrange(nr)
        m = rng.randrange(nm)
        if not trigger(a, m):
            continue
        r = rng.randrange(nr)
        if violates(a, r, m):
            return (a, m, r)
    return None


# ---------------------------------------------------------------------------
# Module deciders


def decide(module: FiniteModule, prop: str, config: EngineConfig | None = None,
           mode: str = "auto", witness_hint=None,
           sample: int | None = None) -> Verdict:
    """Decide one module property.

    mode "exhaustive" refuses above the decision cap; "auto" degrades to
    witness-only there; "witness" skips the scan outright.  sample=N runs a
    labeled sampled scan instead (never the default).
    """
    cfg = resolve(config if config is not None else module.config)
    desc = module.descriptor
    if prop not in MODULE_PROPERTIES:
        raise InvalidParameterError(f"unknown module property {prop!r}")

    triples = module.ring.size * module.ring.size * module.size
    allowed = triples <= cfg.decision_cap or cfg.force

    if sample is not None:
        nil_member = _pointwise_nil(module)
        if prop == PROP_REDUCED_II:
            raise InvalidParameterError("reduced-ii has no sampled mode")
        trigger, violates = _predicates(module, prop, nil_member)
        hit = _sampled_scan(module, trigger, violates, sample, cfg.seed)
        if hit is not None:
            a, m, r = hit
            return Verdict(prop, False, METHOD_SAMPLED, (a, r, m), desc,
                           explanation=f"violation found within {sample} samples",
                           witness_render=_module_renders(module, (a, r, m)))
        return Verdict(prop, None, METHOD_SAMPLED, None, desc,
                       explanation=f"no violation in {sample} samples")

    if mode == "exhaustive" and not allowed:
        raise DecisionCapError(
            f"{desc}: {prop} scan of {triples} (a, r, m) triples exceeds cap "
            f"{cfg.decision_cap}; re-run with force to override",
            cfg.decision_cap,
        )
    if mode == "witness" or (mode == "auto" and not allowed):
        return _witness_only(module, prop, witness_hint, desc, cfg)

    nil = squares = None
    if prop in (PROP_WEAKLY, PROP_NIL_SEMI):
        nil = nil_set(module, cfg).flags()
    if prop == PROP_REDUCED_I:
        squares = module.ring.squares()
    hit = _scan(module.act_table(), module.zero, prop, nil, squares)
    if hit is None:
        return Verdict(prop, True, METHOD_EXHAUSTIVE, None, desc)
    a, m, r = hit
    expl = ""
    if prop == PROP_REDUCED_II:
        # r*m = a*x != 0 for the least such x
        w = module.act(r, m)
        x = next(x for x in module.elements() if module.act(a, x) == w)
        expl = f"a*x = r*m = {module.render(w)} != 0 with x = {module.render(x)}"
    return Verdict(prop, False, METHOD_EXHAUSTIVE, (a, r, m), desc,
                   explanation=expl,
                   witness_render=_module_renders(module, (a, r, m)))


def _pointwise_nil(module: FiniteModule) -> Callable[[int], bool]:
    """Nil membership by per-element scan, for structures too big to tabulate."""
    if module._nil_cache is not None:
        cached = module._nil_cache
        return lambda x: x in cached
    memo: dict[int, bool] = {}

    def member(x: int) -> bool:
        got = memo.get(x)
        if got is None:
            got = is_nilpotent_squared(module, x)[0]
            memo[x] = got
        return got

    return member


def _witness_only(module, prop, hint, desc, cfg) -> Verdict:
    if hint is None:
        return Verdict(prop, None, METHOD_WITNESS, None, desc,
                       explanation="above the decision cap and no witness supplied")
    a, r, m = hint
    nil_member = _pointwise_nil(module)
    if prop == PROP_REDUCED_II:
        raise InvalidParameterError("reduced-ii has no witness-only mode")
    trigger, violates = _predicates(module, prop, nil_member)
    if trigger(a, m) and violates(a, r, m):
        return Verdict(prop, False, METHOD_WITNESS, (a, r, m), desc,
                       explanation="supplied witness verified",
                       witness_render=_module_renders(module, (a, r, m)))
    return Verdict(prop, None, METHOD_WITNESS, None, desc,
                   explanation="supplied witness did not verify")


def is_semicommutative(module, config=None, **kw) -> Verdict:
    """am = 0 forces aRm = 0."""
    return decide(module, PROP_SEMICOMMUTATIVE, config, **kw)


def is_weakly_semicommutative(module, config=None, **kw) -> Verdict:
    """am = 0 forces aRm inside the nil set."""
    return decide(module, PROP_WEAKLY, config, **kw)


def is_nil_semicommutative(module, config=None, **kw) -> Verdict:
    """am nilpotent forces aRm inside the nil set."""
    return decide(module, PROP_NIL_SEMI, config, **kw)


def is_reduced_i(module, config=None, **kw) -> Verdict:
    """a^2 m = 0 forces aRm = 0."""
    return decide(module, PROP_REDUCED_I, config, **kw)


def is_reduced_ii(module, config=None, **kw) -> Verdict:
    """am = 0 forces aM and Rm to intersect only in zero."""
    return decide(module, PROP_REDUCED_II, config, **kw)


# ---------------------------------------------------------------------------
# Ring deciders


def _decide_ring(ring: FiniteRing, prop: str,
                 config: EngineConfig | None = None) -> Verdict:
    cfg = resolve(config if config is not None else ring.config)
    desc = ring.descriptor
    triples = ring.size ** 3
    if triples > cfg.decision_cap and not cfg.force:
        raise DecisionCapError(
            f"{desc}: {prop} scan of {triples} triples exceeds cap "
            f"{cfg.decision_cap}; re-run with force to override",
            cfg.decision_cap,
        )
    # the ring acting on itself, with the module scan's trigger and violation
    nil = None
    if prop == PROP_RING_NIL_SEMI:
        nil = np.zeros(ring.size, dtype=bool)
        nil[sorted(nil_ring_set(ring))] = True
    hit = _scan(ring.mul_table(), ring.zero,
                PROP_SEMICOMMUTATIVE if nil is None else PROP_NIL_SEMI, nil)
    if hit is None:
        return Verdict(prop, True, METHOD_EXHAUSTIVE, None, desc)
    a, b, r = hit
    return Verdict(prop, False, METHOD_EXHAUSTIVE, (a, r, b), desc,
                   witness_render=_ring_renders(ring, (a, r, b)))


def ring_is_semicommutative(ring: FiniteRing, config=None) -> Verdict:
    """ab = 0 forces aRb = 0."""
    return _decide_ring(ring, PROP_RING_SEMI, config)


def ring_is_nil_semicommutative(ring: FiniteRing, config=None) -> Verdict:
    """ab nilpotent forces aRb nilpotent."""
    return _decide_ring(ring, PROP_RING_NIL_SEMI, config)


# ---------------------------------------------------------------------------
# Single-shot witness verification (no size restriction)


def verify_nonsemicommutative_witness(module: FiniteModule, a: int, r: int,
                                      m: int) -> bool:
    """True when am = 0 yet a(rm) != 0: a semicommutativity violation."""
    act = module.act
    zero = module.zero
    return act(a, m) == zero and act(a, act(r, m)) != zero


def verify_not_nil_semicommutative_witness(module: FiniteModule, a: int, r: int,
                                           m: int,
                                           config: EngineConfig | None = None) -> bool:
    """True when am is nilpotent yet a(rm) is not: a nil-semicommutativity
    violation.  Nilpotency of both products is decided by the squared
    criterion's full scan over the ring."""
    act = module.act
    am_nil, _ = is_nilpotent_squared(module, act(a, m))
    arm_nil, _ = is_nilpotent_squared(module, act(a, act(r, m)))
    return am_nil and not arm_nil
