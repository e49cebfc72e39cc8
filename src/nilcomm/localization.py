"""Localization of finite rings and modules at central multiplicative sets.

Fractions are pairs (numerator, denominator in S) under the relation
(r, s) ~ (r', s') iff u(rs' - r's) = 0 for some u in S; the module side
uses u(s'm - sm') = 0.  Classes are formed by partition against canonical
representatives and the relation is re-verified to be class-consistent,
so symmetry and transitivity faults surface at construction.  Operation
well-definedness is validated exhaustively over all representative pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EngineConfig, resolve
from .errors import (
    AxiomError,
    DecisionCapError,
    InvalidParameterError,
    NonCentralGeneratorError,
    ZeroAbsorbedError,
)
from .modules import FiniteModule
from .nilpotency import nil_set
from .reports import CheckReport
from .rings import FiniteRing, center


@dataclass(frozen=True)
class MultiplicativeSet:
    """A multiplicatively closed central subset containing 1, avoiding 0."""

    ring: FiniteRing
    members: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def render(self) -> str:
        return "{" + ", ".join(str(x) for x in self.members) + "}"


def multiplicative_closure(ring: FiniteRing, gens,
                           config: EngineConfig | None = None) -> MultiplicativeSet:
    """Smallest multiplicatively closed set containing the generators and 1.

    Generators must be central and nonzero; the closure must not reach 0
    (the offending product chain is reported when it does).
    """
    gens = sorted(set(gens))
    cen = center(ring)
    for g in gens:
        if not 0 <= g < ring.size:
            raise InvalidParameterError(f"generator {g} is not in {ring.descriptor}")
        if g == ring.zero:
            raise ZeroAbsorbedError(
                f"{ring.descriptor}: 0 cannot generate a multiplicative set", (g,))
        if g not in cen:
            raise NonCentralGeneratorError(
                f"{ring.descriptor}: generator {ring.render(g)} is not central")
    chains: dict[int, tuple[int, ...]] = {ring.one: (ring.one,)}
    queue = list(gens)
    for g in gens:
        chains.setdefault(g, (g,))
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = ring.mul(x, g)
            if y == ring.zero:
                chain = chains[x] + (g,)
                text = " * ".join(ring.render(c) for c in chain)
                raise ZeroAbsorbedError(
                    f"{ring.descriptor}: product chain {text} reached 0", chain)
            if y not in chains:
                chains[y] = chains[x] + (g,)
                queue.append(y)
    members = tuple(sorted(chains))
    # Central generators give a mul-closed set; keep the guarantee explicit.
    for a in members:
        for b in members:
            if ring.mul(a, b) not in chains:
                raise AxiomError(
                    f"{ring.descriptor}: closure not multiplicatively closed at "
                    f"({a}, {b})")
    return MultiplicativeSet(ring, members)


def _partition(pairs, related, what: str):
    """Group pairs into classes against canonical reps, then verify that the
    relation agrees with the partition everywhere (this is exactly the
    symmetry and transitivity of the relation on this instance)."""
    class_of: dict[tuple[int, int], int] = {}
    reps: list[tuple[int, int]] = []
    for p in pairs:
        for cid, rep in enumerate(reps):
            if related(rep, p):
                class_of[p] = cid
                break
        else:
            class_of[p] = len(reps)
            reps.append(p)
    for p in pairs:
        for q in pairs:
            if related(p, q) != (class_of[p] == class_of[q]):
                raise AxiomError(
                    f"{what}: the fraction relation is not an equivalence "
                    f"relation at {p} vs {q}")
    return class_of, reps


class LocalizedRing(FiniteRing):
    """The ring of fractions over a central multiplicative set."""

    def __init__(self, base: FiniteRing, mset: MultiplicativeSet,
                 config: EngineConfig | None = None):
        config = resolve(config)
        if mset.ring is not base and mset.ring.descriptor != base.descriptor:
            raise InvalidParameterError(
                f"multiplicative set belongs to {mset.ring.descriptor}, "
                f"not {base.descriptor}")
        self.base = base
        self.mset = mset
        descriptor = f"loc({base.descriptor}, {mset.render()})"
        pair_count = base.size * len(mset.members)
        if pair_count * pair_count > resolve(config).decision_cap and not config.force:
            raise DecisionCapError(
                f"{descriptor}: {pair_count}^2 relation checks exceed cap "
                f"{config.decision_cap}", config.decision_cap)
        mul, sub, zero = base.mul, base.sub, base.zero
        smembers = mset.members

        def related(p, q):
            r1, s1 = p
            r2, s2 = q
            diff = sub(mul(r1, s2), mul(r2, s1))
            return any(mul(u, diff) == zero for u in smembers)

        # canonical order: least (denominator, numerator)
        pairs = [(r, s) for s in smembers for r in base.elements()]
        pairs.sort(key=lambda p: (p[1], p[0]))
        class_of, reps = _partition(pairs, related, descriptor)
        self.class_of = class_of
        self.reps = tuple(reps)
        super().__init__(len(reps), descriptor, config)
        self.zero = class_of[(base.zero, base.one)]
        self.one = class_of[(base.one, base.one)]
        self._seal()
        self._validate_well_defined()

    def _op_on_pairs(self, p, q, which: str):
        base = self.base
        r1, s1 = p
        r2, s2 = q
        if which == "add":
            num = base.add(base.mul(r1, s2), base.mul(r2, s1))
        else:
            num = base.mul(r1, r2)
        return self.class_of[(num, base.mul(s1, s2))]

    def _add(self, a, b):
        return self._op_on_pairs(self.reps[a], self.reps[b], "add")

    def _mul(self, a, b):
        return self._op_on_pairs(self.reps[a], self.reps[b], "mul")

    def _neg(self, a):
        r, s = self.reps[a]
        return self.class_of[(self.base.neg(r), s)]

    def _validate_well_defined(self):
        members: list[list[tuple[int, int]]] = [[] for _ in self.reps]
        for p, cid in self.class_of.items():
            members[cid].append(p)
        for ca, group_a in enumerate(members):
            for cb, group_b in enumerate(members):
                want_add = self.add(ca, cb)
                want_mul = self.mul(ca, cb)
                for p in group_a:
                    for q in group_b:
                        if self._op_on_pairs(p, q, "add") != want_add:
                            raise AxiomError(
                                f"{self.descriptor}: addition not well defined "
                                f"at {p} + {q}")
                        if self._op_on_pairs(p, q, "mul") != want_mul:
                            raise AxiomError(
                                f"{self.descriptor}: product not well defined "
                                f"at {p} * {q}")

    def project(self, r: int) -> int:
        """Class of r/1."""
        return self.class_of[(r, self.base.one)]

    def class_table(self) -> list[list[int]]:
        """Canonical (numerator, denominator) representative per class id."""
        return [[r, s] for (r, s) in self.reps]

    def render(self, a):
        r, s = self.reps[a]
        return f"{self.base.render(r)}/{self.base.render(s)}"


class LocalizedModule(FiniteModule):
    """The module of fractions m/s over the localized ring."""

    def __init__(self, base: FiniteModule, mset: MultiplicativeSet,
                 config: EngineConfig | None = None):
        config = resolve(config)
        if mset.ring.descriptor != base.ring.descriptor:
            raise InvalidParameterError(
                f"multiplicative set belongs to {mset.ring.descriptor}, but the "
                f"module is over {base.ring.descriptor}")
        loc_ring = LocalizedRing(base.ring, mset, config)
        self.base = base
        self.mset = mset
        descriptor = f"locmod({base.descriptor}, {mset.render()})"
        act, msub, mzero = base.act, base.sub, base.zero
        smembers = mset.members

        def related(p, q):
            m1, s1 = p
            m2, s2 = q
            diff = msub(act(s2, m1), act(s1, m2))
            return any(act(u, diff) == mzero for u in smembers)

        pairs = [(m, s) for s in smembers for m in base.elements()]
        pairs.sort(key=lambda p: (p[1], p[0]))
        class_of, reps = _partition(pairs, related, descriptor)
        self.class_of = class_of
        self.reps = tuple(reps)
        super().__init__(loc_ring, len(reps), descriptor, config)
        rone = base.ring.one
        self.zero = class_of[(base.zero, rone)]
        self._seal()
        self._validate_well_defined()

    def _add_pairs(self, p, q):
        m1, s1 = p
        m2, s2 = q
        base = self.base
        num = base.add(base.act(s2, m1), base.act(s1, m2))
        return self.class_of[(num, base.ring.mul(s1, s2))]

    def _act_pair(self, ring_pair, p):
        r, s = ring_pair
        m, q = p
        return self.class_of[(self.base.act(r, m), self.base.ring.mul(s, q))]

    def _add(self, a, b):
        return self._add_pairs(self.reps[a], self.reps[b])

    def _act(self, r, m):
        return self._act_pair(self.ring.reps[r], self.reps[m])

    def _neg(self, a):
        m, s = self.reps[a]
        return self.class_of[(self.base.neg(m), s)]

    def _validate_well_defined(self):
        members: list[list[tuple[int, int]]] = [[] for _ in self.reps]
        for p, cid in self.class_of.items():
            members[cid].append(p)
        ring_members: list[list[tuple[int, int]]] = [[] for _ in self.ring.reps]
        for p, cid in self.ring.class_of.items():
            ring_members[cid].append(p)
        for ca, group_a in enumerate(members):
            for cb, group_b in enumerate(members):
                want = self.add(ca, cb)
                for p in group_a:
                    for q in group_b:
                        if self._add_pairs(p, q) != want:
                            raise AxiomError(
                                f"{self.descriptor}: addition not well defined "
                                f"at {p} + {q}")
        for cr, ring_group in enumerate(ring_members):
            for cm, group in enumerate(members):
                want = self.act(cr, cm)
                for rp in ring_group:
                    for p in group:
                        if self._act_pair(rp, p) != want:
                            raise AxiomError(
                                f"{self.descriptor}: the action is not well "
                                f"defined at {rp} . {p}")

    def project(self, m: int) -> int:
        """Class of m/1."""
        return self.class_of[(m, self.base.ring.one)]

    def class_table(self) -> list[list[int]]:
        """Canonical (numerator, denominator) representative per class id."""
        return [[m, s] for (m, s) in self.reps]

    def render(self, a):
        m, s = self.reps[a]
        return f"{self.base.render(m)}/{self.base.ring.render(s)}"


def localize_ring(ring: FiniteRing, mset: MultiplicativeSet,
                  config: EngineConfig | None = None) -> LocalizedRing:
    return LocalizedRing(ring, mset, config)


def localize_module(module: FiniteModule, mset: MultiplicativeSet,
                    config: EngineConfig | None = None) -> LocalizedModule:
    return LocalizedModule(module, mset, config)


def check_localization_transfer(module: FiniteModule, mset: MultiplicativeSet,
                                config: EngineConfig | None = None) -> CheckReport:
    """Run the nil-semicommutativity decider on a module and on its
    localization and report whether the two verdicts agree, as the
    transfer statement asserts they must."""
    from .deciders import PROP_NIL_SEMI, decide  # local imports avoid a cycle
    from .harness import _report

    cfg = resolve(config if config is not None else module.config)
    source = decide(module, PROP_NIL_SEMI, cfg, mode="exhaustive")
    localized = localize_module(module, mset, cfg)
    loc_verdict = decide(localized, PROP_NIL_SEMI, cfg, mode="exhaustive")
    agree = source.holds == loc_verdict.holds
    detail = {
        "descriptor": module.descriptor,
        "multiplicative_set": list(mset.members),
        "localized_descriptor": loc_verdict.descriptor,
        "localized_size": localized.size,
        "source": source.to_json_dict(),
        "localized": loc_verdict.to_json_dict(),
        "agree": agree,
    }
    failing = source if source.holds is False else loc_verdict
    return _report("localization_transfer", detail,
                   None if agree else failing.witness_payload())
