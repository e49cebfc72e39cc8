"""Finite left modules over finite rings, indexed like the rings are.

A module exposes vadd/vact/vneg on id arrays, their pointwise forms
add/act/neg on dense ids, a descriptor in the structure DSL, and the same
tabulate-small / compute-large split as the rings.  A module with its
ring's ids, zero, + and product (the regular module, and a matrix module over
one such) shares the ring's bound operations, tables and exact check outright.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .config import EngineConfig, resolve
from .errors import AxiomError, InvalidParameterError, ShapeMismatchError
from .rings import (
    FULL,
    SPECIAL_UPPER,
    UPPER,
    V_TYPE,
    ClassLayout,
    FiniteRing,
    FiniteStructure,
    MatrixLayout,
    MatrixShape,
    ProductLayout,
    RingHom,
    ZnRing,
    build,
    check_laws,
    componentwise,
    exact_fits,
    first_true,
    make_matrix_ring,
    row_blocks,
    scan,
    zn_laws_hold,
)

_MODULE_PREFIX = {FULL: "matmod", UPPER: "trimod", SPECIAL_UPPER: "smod", V_TYPE: "vmod"}


class FiniteModule(FiniteStructure):
    """Base class: a finite unitary left module on ids 0..size-1, its product
    the ring's action act.  shares_ring_ops marks one sealed with its ring's
    own operations, tables and additive generators: the regular module, and
    a matrix module over a module that shares them."""

    _kind, _product = "module", "vact"
    shares_ring_ops = False

    def __init__(self, ring: FiniteRing, size: int, descriptor: str,
                 config: EngineConfig, power: int = 1):
        super().__init__(size, descriptor, config, power)
        self.ring = ring
        self._nil_cache = None
        self._torsion_cache = None

    def _seal(self, validate: bool = True, share_ring_ops: bool = False) -> None:
        ring = self.ring
        if share_ring_ops:
            self.shares_ring_ops = True
            self.vadd, self.vact, self.vneg = ring.vadd, ring.vmul, ring.vneg
            self.vmatact, self.tabulated = ring.vmatmul, ring.tabulated
            self.add_table, self.act_table = ring.add_table, ring.mul_table
            self.additive_generators = ring.additive_generators
        else:
            self._bind(ring.size, max(self.size, ring.size) <= self.config.tabulate_threshold)
        if validate:
            check_module_axioms(self)

    def vact(self, r, m):
        return self._vact(r, m)

    vmatact = FiniteStructure._grid_product
    act_table = FiniteStructure._product_table

    def act(self, r: int, m: int) -> int:
        return int(self.vact(r, m))


# ---------------------------------------------------------------------------
# Concrete module families


class RegularModule(FiniteModule):
    """The ring seen as a left module over itself."""

    def __init__(self, ring: FiniteRing, config: EngineConfig | None = None,
                 validate: bool = True):
        config = resolve(config, ring)
        super().__init__(ring, ring.size, f"regular({ring.descriptor})", config)
        self.zero = ring.zero
        self._pair_cells = ring.cells
        self._seal(validate, share_ring_ops=True)

    def render(self, m):
        return self.ring.render(m)


class MatrixModule(MatrixLayout, FiniteModule):
    """Matrices with module entries, acted on by the same-shape matrix ring."""

    def __init__(self, shape: MatrixShape, base_ring: FiniteRing,
                 base_module: FiniteModule, config: EngineConfig | None = None):
        config = resolve(config, base_ring, base_module)
        if base_module.ring.descriptor != base_ring.descriptor:
            raise ShapeMismatchError(
                f"matrix module wants a module over {base_ring.descriptor}, "
                f"got one over {base_module.ring.descriptor}"
            )
        ring = make_matrix_ring(shape, base_ring, config)
        self.base = base_module
        descriptor = f"{_MODULE_PREFIX[shape.kind]}({shape.n}, {base_module.descriptor})"
        super().__init__(ring, base_module.size, descriptor, config, shape.count)
        self._lay_out(shape, base_module)
        self.zero = self.codec.encode([base_module.zero] * len(self.positions))
        self._seal(share_ring_ops=base_module.shares_ring_ops)

    def _vact(self, r, m):
        return self.ungrid(self.base.vmatact(self.ring.grid(r), self.grid(m)))

    def _tabulate_product(self):
        return self._entry_product_table(self.ring, self.base.vmatact)


class ProductModule(ProductLayout, FiniteModule):
    """Componentwise product of modules over one common ring."""

    def __init__(self, factors: Sequence[FiniteModule],
                 config: EngineConfig | None = None):
        factors = tuple(factors)
        config = resolve(config, factors)
        if not factors:
            raise InvalidParameterError("product module needs at least one factor")
        ring = factors[0].ring
        for f in factors[1:]:
            if f.ring.descriptor != ring.descriptor:
                raise InvalidParameterError(
                    "product module factors must share a ring, got "
                    f"{ring.descriptor} and {f.ring.descriptor}"
                )
        self.factors = factors
        size = math.prod(f.size for f in factors)
        descriptor = "prodmod(" + ", ".join(f.descriptor for f in factors) + ")"
        super().__init__(ring, size, descriptor, config)
        self._lay_out()
        self._seal()

    def _vact(self, r, m):
        return componentwise(self.codec, [f.vact for f in self.factors], m,
                             left=(r,))


class SubModule(ClassLayout, FiniteModule):
    """A submodule re-indexed densely, remembering its parent embedding: each
    member is its own class under the parent's ops."""

    def __init__(self, parent: FiniteModule, embedded_ids: Sequence[int],
                 descriptor: str, config: EngineConfig | None = None):
        config = resolve(config, parent)
        embedding = tuple(sorted(set(embedded_ids)))
        if parent.zero not in embedding:
            raise InvalidParameterError(f"{descriptor}: submodule must contain zero")
        if embedding[0] < 0 or embedding[-1] >= parent.size:
            raise InvalidParameterError(
                f"{descriptor}: embedded ids must be elements of {parent.descriptor}")
        pairs = len(embedding) * max(len(embedding), parent.ring.size)
        config.refuse_above_cap(pairs, f"{descriptor}: closure scan of {pairs} pairs")
        self.parent, self.embedding = parent, embedding
        self._reps, self.class_of = np.array(embedding), np.full(parent.size, -1)
        self.class_of[self._reps] = np.arange(len(embedding))
        self._parent_add, self._parent_neg, self._parent_act = parent.vadd, parent.vneg, parent.vact
        self._ring_reps, self._pair_cells = np.arange(parent.ring.size), parent.cells
        super().__init__(parent.ring, len(embedding), descriptor, config)
        self.zero = int(self.class_of[parent.zero])
        self._validate_closed()
        self._seal()

    def _validate_closed(self):
        parent = self.parent
        add_hit, act_hit = escapes(parent, self.class_of >= 0)
        if add_hit is not None:
            a, b = (self.embedding[i] for i in add_hit)
            raise InvalidParameterError(
                f"{self.descriptor}: not closed under addition at "
                f"({parent.render(a)}, {parent.render(b)})"
            )
        if act_hit is not None:
            r, i = act_hit
            raise InvalidParameterError(
                f"{self.descriptor}: not closed under the ring action at "
                f"(r={parent.ring.render(r)}, {parent.render(self.embedding[i])})"
            )

    def embed(self, m: int) -> int:
        """Parent id of a submodule element."""
        return self.embedding[m]

    def render(self, m):
        return self.parent.render(self.embedding[m])


class QuotientModule(ClassLayout, FiniteModule):
    """Cosets of a submodule under the parent's ops, validated well-defined."""

    def __init__(self, parent: FiniteModule, sub: SubModule,
                 config: EngineConfig | None = None):
        config = resolve(config, parent, sub)
        if not isinstance(sub, SubModule) or sub.parent.descriptor != parent.descriptor:
            raise InvalidParameterError(
                f"quotient wants a submodule of {parent.descriptor}, got "
                f"{sub.descriptor}"
            )
        descriptor = f"quot({parent.descriptor}, {sub.descriptor})"
        pairs = parent.size * max(parent.size, parent.ring.size)
        config.refuse_above_cap(pairs, f"{descriptor}: coset scan of {pairs} pairs")
        self.parent, self.sub = parent, sub
        emb = sub._reps
        # each coset m + N is represented by its least element
        least = np.concatenate([
            parent.vadd(np.arange(lo, hi)[:, None], emb).min(axis=1)
            for lo, hi in row_blocks(parent.size, len(emb) * parent.cells)])
        self._reps, self.class_of = np.unique(least, return_inverse=True)
        coset = self.class_of
        if not np.array_equal(np.flatnonzero(coset == coset[parent.zero]), emb):
            raise AxiomError(
                f"quot({parent.descriptor}, ...): the cosets of the subset do "
                "not partition the module; the subset is not closed"
            )
        self._parent_add, self._parent_neg, self._parent_act = parent.vadd, parent.vneg, parent.vact
        self._ring_reps, self._pair_cells = np.arange(parent.ring.size), parent.cells
        super().__init__(parent.ring, len(self._reps), descriptor, config)
        self.zero = int(coset[parent.zero])
        self._seal(validate=False)
        # p + q and r * p must land in the coset the representatives give
        self._check_well_defined("addition is not well defined at cosets ({}, {})",
                                 parent.vadd, self.vadd, coset,
                                 lambda p, q: (coset[p], coset[q]))
        self._check_well_defined("the action is not well defined at (r={}, coset {})",
                                 parent.vact, self.vact, np.arange(parent.ring.size),
                                 lambda r, p: (r, coset[p]))
        check_module_axioms(self)

    def render(self, m):
        return f"[{self.parent.render(int(self._reps[m]))}]"


class InducedModule(FiniteModule):
    """A module pulled back along a ring hom: r acts as map(r) did."""

    def __init__(self, hom: RingHom, base: FiniteModule,
                 config: EngineConfig | None = None):
        config = resolve(config, hom, base)
        if base.ring.descriptor != hom.target.descriptor:
            raise InvalidParameterError(
                f"induced module wants a module over {hom.target.descriptor}, "
                f"got one over {base.ring.descriptor}"
            )
        self.hom = hom
        self.base = base
        self._map = np.array(hom.map)
        descriptor = f"induced({hom.descriptor}, {base.descriptor})"
        super().__init__(hom.source, base.size, descriptor, config)
        self.zero = base.zero
        self._seal()

    def _vadd(self, m, n):
        return self.base.vadd(m, n)

    def _vact(self, r, m):
        return self.base.vact(self._map[r], m)

    def _vneg(self, m):
        return self.base.vneg(m)

    def render(self, m):
        return self.base.render(m)


def escapes(module: FiniteModule, inside: np.ndarray):
    """Where a subset (a bool mask over ids) leaks out: the least (i, j) with
    members[i] + members[j] outside and the least (r, j) with r * members[j]
    outside, each None when the subset is closed."""
    members = np.flatnonzero(inside)
    k = len(members)
    add_hit = scan(k, k * module.cells, lambda lo, hi: first_true(
        ~inside[module.vadd(members[lo:hi, None], members)], lo))
    act_hit = scan(module.ring.size, k * module.cells, lambda lo, hi: first_true(
        ~inside[module.vact(np.arange(lo, hi)[:, None], members)], lo))
    return add_hit, act_hit


# ---------------------------------------------------------------------------
# Constructors


def regular_module(ring: FiniteRing, config: EngineConfig | None = None) -> RegularModule:
    return build(RegularModule, ring, config=config)


# The ids in one row of the draws of a Z(n) and its regular module: the ring's
# spot id and (a, b, c), the module's spot id and its three families' triples.
_PAIR_ROW_IDS = 1 + 3 + 1 + 3 * 3


def regular_zn_modules(ns, config: EngineConfig | None = None):
    """Yield the regular modules of Z(n), n in ns, in order, as lists sized
    by row_blocks, each built afresh and never interned.  A list of the Z(n)
    that check_laws would sample untabulated is built unvalidated and checked
    together by zn_laws_hold, each structure on its own draw.  A list that
    fails is built and checked again one structure at a time, Z(n),
    regular(Z(n)), Z(n+1), ..., which raises the first failure's AxiomError;
    every other list is built that way from the start."""
    config = resolve(config)

    def light(n):  # builds unvalidated without raising; untabulated and sampled
        return (2 <= n <= config.construction_cap and n > config.tabulate_threshold
                and not exact_fits(config, 1, n, n))

    for grouped, run in groupby(ns, light):
        run = list(run)
        for lo, hi in row_blocks(len(run), _PAIR_ROW_IDS * config.validation_samples):
            group = [RegularModule(ZnRing(n, config, not grouped), config, not grouped)
                     for n in run[lo:hi]]
            if grouped and not zn_laws_hold([(s, m.ring) for m in group for s in (m.ring, m)]):
                group = [RegularModule(ZnRing(n, config), config) for n in run[lo:hi]]
            yield group


def matrix_module(shape: MatrixShape, base_ring: FiniteRing,
                  base_module: FiniteModule,
                  config: EngineConfig | None = None) -> MatrixModule:
    return build(MatrixModule, shape, base_ring, base_module, config=config)


def make_product_module(factors: Sequence[FiniteModule],
                        config: EngineConfig | None = None) -> ProductModule:
    return build(ProductModule, tuple(factors), config=config)


def cyclic_submodule(module: FiniteModule, m: int,
                     config: EngineConfig | None = None) -> SubModule:
    """The submodule Rm of everything the ring action reaches from m."""
    module.check_ids(m)
    return SubModule(module, orbit(module, m),
                     f"cyclic({module.descriptor}, {m})", config)


def orbit(module: FiniteModule, m: int) -> list[int]:
    """The sorted ids of Rm: the action of every ring element on m."""
    return np.unique(np.concatenate([module.vact(np.arange(lo, hi), m) for lo, hi
                                     in row_blocks(module.ring.size, module.cells)])).tolist()


def submodule_generated(module: FiniteModule, gens: Iterable[int],
                        config: EngineConfig | None = None) -> SubModule:
    """Closure of a generating set under addition and the ring action."""
    gens = sorted(set(gens))
    module.check_ids(gens)
    gens_text = "{" + ", ".join(str(g) for g in gens) + "}"
    descriptor = f"gen({module.descriptor}, {gens_text})"
    inside = np.zeros(module.size, dtype=bool)
    inside[[module.zero, *gens]] = True
    while True:  # add every sum and multiple of the members until none is new
        members = np.flatnonzero(inside)
        pairs = len(members) * max(len(members), module.ring.size)
        resolve(config, module).refuse_above_cap(pairs,
                                                 f"{descriptor}: closure scan of {pairs} pairs")
        for lo, hi in row_blocks(len(members), len(members) * module.cells):
            inside[module.vadd(members[lo:hi, None], members)] = True
        for lo, hi in row_blocks(module.ring.size, len(members) * module.cells):
            inside[module.vact(np.arange(lo, hi)[:, None], members)] = True
        if inside.sum() == len(members):
            break
    return SubModule(module, np.flatnonzero(inside).tolist(), descriptor, config)


def quotient_module(module: FiniteModule, sub: SubModule,
                    config: EngineConfig | None = None) -> QuotientModule:
    return QuotientModule(module, sub, config)


def induced_module(hom: RingHom, module: FiniteModule,
                   config: EngineConfig | None = None) -> InducedModule:
    return InducedModule(hom, module, config)


# ---------------------------------------------------------------------------
# Axiom validation


def check_module_axioms(module: FiniteModule) -> None:
    """Verify the unitary left module axioms by check_laws, taking a passed
    exact check of the ring (ring.laws_exact) as its own exact check's for a
    module sharing its ring's operations: each of its law instances is one
    of the ring's."""
    check_laws(module, module.ring, exact=module.shares_ring_ops and module.ring.laws_exact)
