"""Localization of finite rings and modules at central multiplicative sets.

Fractions are pairs (numerator, denominator in S) under the relation
(x, s) ~ (y, t) iff u(tx - sy) = 0 for some u in S, with S acting on the
left of the ring and of the module alike.  Each pair's class is its least
related pair, read off row blocks of one relation mask built from the
S-annihilated set; a second pass checks that the relation is exactly that
partition, so symmetry and transitivity faults surface at construction.
Operation well-definedness is validated exhaustively over all pair ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EngineConfig, resolve
from .deciders import PROP_NIL_SEMI, decide
from .errors import (
    AxiomError,
    InvalidParameterError,
    NonCentralGeneratorError,
    ZeroAbsorbedError,
)
from .modules import FiniteModule
from .reports import CheckReport, claim_report
from .rings import ClassLayout, FiniteRing, center, first_true, row_blocks, scan

LOCALIZATION_TRANSFER_CLAIM = ("a module is nil-semicommutative exactly when its "
                               "localization at a central multiplicative set is")


@dataclass(frozen=True)
class MultiplicativeSet:
    """A multiplicatively closed central subset containing 1, avoiding 0."""

    ring: FiniteRing
    members: tuple[int, ...]

    def render(self) -> str:
        return "{" + ", ".join(str(x) for x in self.members) + "}"


def multiplicative_closure(ring: FiniteRing, gens,
                           config: EngineConfig | None = None) -> MultiplicativeSet:
    """Smallest multiplicatively closed set containing the generators and 1.

    Generators must be central and nonzero; the closure must not reach 0
    (the offending product chain is reported when it does).
    """
    central = center(ring, config)
    gens = sorted(set(gens))
    ring.check_ids(gens)
    for g in gens:
        if g == ring.zero:
            raise ZeroAbsorbedError(
                f"{ring.descriptor}: 0 cannot generate a multiplicative set", (g,))
        if not central[g]:
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
    members = np.array(sorted(chains))
    # Central generators give a mul-closed set; keep the guarantee explicit.
    hit = first_true(~np.isin(ring.vmul(members[:, None], members), members))
    if hit is not None:
        a, b = members[list(hit)].tolist()
        raise AxiomError(
            f"{ring.descriptor}: closure not multiplicatively closed at ({a}, {b})")
    return MultiplicativeSet(ring, tuple(members.tolist()))


class _Fractions(ClassLayout):
    """Fractions x/s of the numerators self.base (the ring itself, or a
    module) over S: the parent ids are the pairs s_index * |base| + x, S
    sorted making id order the (denominator, numerator) order, and each
    class is represented by its least pair."""

    def _form_classes(self, base, mset: MultiplicativeSet, scale, descriptor: str,
                      config: EngineConfig) -> int:
        """Bind base, mset, the pair layout and the classes, scale(s, x)
        being s.x on id arrays; return the class count.  The relation must
        agree with its partition everywhere: that is its symmetry and
        transitivity here.  Above the decision cap in relation checks
        (pairs^2) it refuses unless the config sets force."""
        self.base, self.mset, ring = base, mset, mset.ring
        pair_count = base.size * len(mset.members)
        config.refuse_above_cap(pair_count * pair_count,
                                f"{descriptor}: relation scan of {pair_count}^2 checks")
        self._members = members = np.array(sorted(mset.members))
        sindex = np.full(ring.size, -1)
        sindex[members] = np.arange(len(members))
        self._sprod = sindex[ring.vmul(members[:, None], members)]  # s_i s_j
        if sindex[ring.one] < 0 or (self._sprod < 0).any():
            raise InvalidParameterError(
                f"{descriptor}: {mset.render()} lacks 1 or is not closed")
        self._unit, self._n = sindex[ring.one], base.size
        self._scaled = base_scaled = scale(members[:, None], np.arange(base.size))
        killed = (base_scaled == base.zero).any(axis=0)  # u x = 0 for some u in S
        neg_scaled = base.vneg(base_scaled)
        s_of, x_of = np.divmod(np.arange(len(members) * base.size), base.size)
        self._pair_cells = base.cells
        cells = len(s_of) * base.cells

        def related(lo, hi):  # x/s ~ y/t iff u(t x - s y) = 0 for some u in S
            return killed[base.vadd(base_scaled[s_of, x_of[lo:hi, None]],
                                    neg_scaled[s_of[lo:hi, None], x_of])]

        least = np.concatenate([related(lo, hi).argmax(axis=1)
                                for lo, hi in row_blocks(len(s_of), cells)])
        self._reps, self.class_of = np.unique(least, return_inverse=True)
        cls = self.class_of
        hit = scan(len(s_of), cells, lambda lo, hi: first_true(
            related(lo, hi) != (cls[lo:hi, None] == cls), lo))
        if hit is not None:
            raise AxiomError(
                f"{descriptor}: the fraction relation is not an equivalence "
                f"relation at {self._fraction(hit[0])} vs {self._fraction(hit[1])}")
        return len(self._reps)

    def _fraction(self, p: int) -> tuple[int, int]:
        """(numerator, denominator) of a pair id."""
        s, x = divmod(int(p), self._n)
        return x, int(self._members[s])

    def _pair(self, s, x):
        return s * self._n + x

    def _parent_add(self, p, q):  # x/s + y/t = (t x + s y)/(s t)
        (s, x), (t, y) = np.divmod(p, self._n), np.divmod(q, self._n)
        return self._pair(self._sprod[s, t],
                          self.base.vadd(self._scaled[t, x], self._scaled[s, y]))

    def _parent_neg(self, p):
        s, x = np.divmod(p, self._n)
        return self._pair(s, self.base.vneg(x))

    def project(self, x: int) -> int:
        """Class of x/1."""
        return int(self.class_of[self._pair(self._unit, x)])

    def class_table(self) -> list[list[int]]:
        """Canonical (numerator, denominator) representative per class id."""
        return [list(self._fraction(p)) for p in self._reps]

    def render(self, a):
        x, s = self._fraction(self._reps[a])
        return f"{self.base.render(x)}/{self.mset.ring.render(s)}"


class LocalizedRing(_Fractions, FiniteRing):
    """The ring of fractions over a central multiplicative set."""

    def __init__(self, base: FiniteRing, mset: MultiplicativeSet,
                 config: EngineConfig | None = None):
        config = resolve(config, base)
        if mset.ring is not base and mset.ring.descriptor != base.descriptor:
            raise InvalidParameterError(
                f"multiplicative set belongs to {mset.ring.descriptor}, "
                f"not {base.descriptor}")
        descriptor = f"loc({base.descriptor}, {mset.render()})"
        super().__init__(self._form_classes(base, mset, base.vmul, descriptor, config),
                         descriptor, config)
        self.zero = self.project(base.zero)
        self.one = self.project(base.one)
        self._seal()
        fractions = lambda p, q: (self._fraction(p), self._fraction(q))
        self._check_well_defined("addition not well defined at {} + {}",
                                 self._parent_add, self.vadd, self.class_of, fractions)
        self._check_well_defined("product not well defined at {} * {}",
                                 self._parent_mul, self.vmul, self.class_of, fractions)

    def _parent_mul(self, p, q):  # (x/s)(y/t) = xy/(st)
        (s, x), (t, y) = np.divmod(p, self._n), np.divmod(q, self._n)
        return self._pair(self._sprod[s, t], self.base.vmul(x, y))


class LocalizedModule(_Fractions, FiniteModule):
    """The module of fractions m/s over the localized ring."""

    def __init__(self, base: FiniteModule, mset: MultiplicativeSet,
                 config: EngineConfig | None = None):
        config = resolve(config, base)
        if mset.ring.descriptor != base.ring.descriptor:
            raise InvalidParameterError(
                f"multiplicative set belongs to {mset.ring.descriptor}, but the "
                f"module is over {base.ring.descriptor}")
        loc_ring = LocalizedRing(base.ring, mset, config)
        self._ring_reps = loc_ring._reps
        descriptor = f"locmod({base.descriptor}, {mset.render()})"
        super().__init__(loc_ring, self._form_classes(base, mset, base.vact, descriptor,
                                                      config), descriptor, config)
        self.zero = self.project(base.zero)
        self._seal()
        self._check_well_defined("addition not well defined at {} + {}",
                                 self._parent_add, self.vadd, self.class_of,
                                 lambda p, q: (self._fraction(p), self._fraction(q)))
        self._check_well_defined("the action is not well defined at {} . {}",
                                 self._parent_act, self.vact, loc_ring.class_of,
                                 lambda rp, p: (loc_ring._fraction(rp), self._fraction(p)))

    def _parent_act(self, rp, p):  # (r/s)(m/t) = rm/(st)
        (s, r), (t, m) = np.divmod(rp, self.ring._n), np.divmod(p, self._n)
        return self._pair(self._sprod[s, t], self.base.vact(r, m))


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
    cfg = resolve(config, module)
    source = decide(module, PROP_NIL_SEMI, cfg)
    localized = localize_module(module, mset, cfg)
    loc_verdict = decide(localized, PROP_NIL_SEMI, cfg)
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
    return claim_report("localization_transfer", LOCALIZATION_TRANSFER_CLAIM, detail,
                        None if agree else failing.witness_payload())
