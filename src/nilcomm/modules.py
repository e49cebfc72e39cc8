"""Finite left modules over finite rings, indexed like the rings are.

A module exposes add/act/neg on dense ids, their vectorized forms
vadd/vact/vneg on id arrays, a descriptor in the structure DSL, and the same
tabulate-small / compute-large split as the rings.  The regular module
shares its ring's bound operations and tables outright.
"""

from __future__ import annotations

import math
from functools import reduce
from random import Random
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import EngineConfig, resolve
from .errors import (
    AxiomError,
    DecisionCapError,
    InvalidParameterError,
    ShapeMismatchError,
    SizeCapError,
)
from .rings import (
    _OP_CELLS,
    FULL,
    SPECIAL_UPPER,
    UPPER,
    V_TYPE,
    FiniteRing,
    MatrixShape,
    MixedRadix,
    RingHom,
    _MatrixLayout,
    _stable_seed,
    componentwise,
    elementwise,
    first_true,
    grid_product,
    make_matrix_ring,
    op_table,
    row_blocks,
    scan,
    table_ops,
)

_MODULE_PREFIX = {FULL: "matmod", UPPER: "trimod", SPECIAL_UPPER: "smod", V_TYPE: "vmod"}


class FiniteModule:
    """Base class: a finite unitary left module on ids 0..size-1."""

    zero: int

    def __init__(self, ring: FiniteRing, size: int, descriptor: str,
                 config: EngineConfig):
        if size < 1:
            raise InvalidParameterError(f"module size must be positive, got {size}")
        if size > config.construction_cap:
            raise SizeCapError(
                f"{descriptor}: size {size} exceeds the construction cap "
                f"{config.construction_cap}",
                config.construction_cap,
            )
        self.ring = ring
        self.size = size
        self.descriptor = descriptor
        self.config = config
        self.tabulated = False
        self._add_rows = None
        self._act_rows = None
        self._neg_row = None
        self._nil_cache = None
        self._torsion_cache = None

    # Structural operations supplied by subclasses, pointwise or vectorized
    # as for rings; each falls back on its partner.
    def _add(self, m: int, n: int) -> int:
        return int(self._vadd(m, n))

    def _act(self, r: int, m: int) -> int:
        return int(self._vact(r, m))

    def _neg(self, m: int) -> int:
        return int(self._vneg(m))

    def _vadd(self, m, n):
        return elementwise(self._add, m, n)

    def _vact(self, r, m):
        return elementwise(self._act, r, m)

    def _vneg(self, m):
        return elementwise(self._neg, m)

    def _seal(self, validate: bool = True, share_ring_ops: bool = False) -> None:
        ring = self.ring
        threshold = self.config.tabulate_threshold
        if share_ring_ops:
            self.add, self.act, self.neg = ring.add, ring.mul, ring.neg
            self.vadd, self.vact, self.vneg = ring.vadd, ring.vmul, ring.vneg
            self.vsum = ring.vsum
            self.tabulated = ring.tabulated
        elif self.size <= threshold and ring.size <= threshold:
            add = op_table(self._vadd, self.size, self.size)
            act = op_table(self._vact, ring.size, self.size)
            neg = self._vneg(np.arange(self.size)).astype(np.int32)
            self._add_rows, self._act_rows, self._neg_row = add, act, neg
            (self.add, self.act, self.neg,
             self.vadd, self.vact, self.vneg) = table_ops(add, act, neg)
            self.tabulated = True
        else:
            self.add, self.act, self.neg = self._add, self._act, self._neg
            self.vadd, self.vact, self.vneg = self._vadd, self._vact, self._vneg
        if validate:
            check_module_axioms(self)

    add: Callable[[int, int], int]
    act: Callable[[int, int], int]
    neg: Callable[[int], int]

    def vsum(self, x: np.ndarray, axis: int) -> np.ndarray:
        return reduce(self.vadd, np.moveaxis(x, axis, 0))

    def add_table(self) -> np.ndarray:
        """The addition table: the stored one, else built from the ops."""
        return self._add_rows if self.tabulated else op_table(self.vadd, self.size, self.size)

    def act_table(self) -> np.ndarray:
        """The |R| x |M| action table: the stored one, else built."""
        return (self._act_rows if self.tabulated
                else op_table(self.vact, self.ring.size, self.size))

    def sub(self, m: int, n: int) -> int:
        return self.add(m, self.neg(n))

    def elements(self) -> range:
        return range(self.size)

    def render(self, m: int) -> str:
        return str(m)

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor} size={self.size}>"


# ---------------------------------------------------------------------------
# Concrete module families


class RegularModule(FiniteModule):
    """The ring seen as a left module over itself."""

    def __init__(self, ring: FiniteRing, config: EngineConfig | None = None):
        config = resolve(config)
        super().__init__(ring, ring.size, f"regular({ring.descriptor})", config)
        self.zero = ring.zero
        self._seal(share_ring_ops=True)

    def add_table(self):
        return self.ring.add_table()

    def act_table(self):
        return self.ring.mul_table()

    def render(self, m):
        return self.ring.render(m)


class MatrixModule(_MatrixLayout, FiniteModule):
    """Matrices with module entries, acted on by the same-shape matrix ring."""

    def __init__(self, shape: MatrixShape, base_ring: FiniteRing,
                 base_module: FiniteModule, config: EngineConfig | None = None):
        config = resolve(config)
        if base_module.ring.descriptor != base_ring.descriptor:
            raise ShapeMismatchError(
                f"matrix module wants a module over {base_ring.descriptor}, "
                f"got one over {base_module.ring.descriptor}"
            )
        ring = make_matrix_ring(shape, base_ring, config)
        self.base = base_module
        size = base_module.size ** len(shape.free_positions())
        descriptor = f"{_MODULE_PREFIX[shape.kind]}({shape.n}, {base_module.descriptor})"
        super().__init__(ring, size, descriptor, config)
        self._lay_out(shape, base_module)
        self.zero = self.codec.encode([base_module.zero] * len(self.positions))
        self._seal()

    def _vact(self, r, m):
        base = self.base
        return self.ungrid(grid_product(self.ring.grid(r), self.grid(m),
                                        base.vact, base.vsum))

    def render(self, m):
        return self._render_grid(m, self.base.render)


class ProductModule(FiniteModule):
    """Componentwise product of modules over one common ring."""

    def __init__(self, factors: Sequence[FiniteModule],
                 config: EngineConfig | None = None):
        config = resolve(config)
        factors = tuple(factors)
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
        self.codec = MixedRadix(f.size for f in factors)
        self.zero = self.codec.encode([f.zero for f in factors])
        self._seal()

    def _vadd(self, m, n):
        return componentwise(self.codec, [f.vadd for f in self.factors], m, n)

    def _vact(self, r, m):
        return componentwise(self.codec, [f.vact for f in self.factors], m,
                             left=(r,))

    def _vneg(self, m):
        return componentwise(self.codec, [f.vneg for f in self.factors], m)

    def render(self, m):
        comps = self.codec.decode(m)
        return "(" + ", ".join(f.render(c) for f, c in zip(self.factors, comps)) + ")"


class SubModule(FiniteModule):
    """A submodule re-indexed densely, remembering its parent embedding."""

    def __init__(self, parent: FiniteModule, embedded_ids: Sequence[int],
                 descriptor: str, config: EngineConfig | None = None):
        config = resolve(config)
        embedding = tuple(sorted(set(embedded_ids)))
        if parent.zero not in embedding:
            raise InvalidParameterError(f"{descriptor}: submodule must contain zero")
        if embedding[0] < 0 or embedding[-1] >= parent.size:
            raise InvalidParameterError(
                f"{descriptor}: embedded ids must be elements of {parent.descriptor}")
        self.parent = parent
        self.embedding = embedding
        self.index_of = {pid: i for i, pid in enumerate(embedding)}
        self._emb = np.array(embedding)
        # parent id -> submodule id, -1 outside the submodule
        self._pos = np.full(parent.size, -1)
        self._pos[self._emb] = np.arange(len(embedding))
        super().__init__(parent.ring, len(embedding), descriptor, config)
        self.zero = self.index_of[parent.zero]
        self._validate_closed()
        self._seal()

    def _validate_closed(self):
        parent = self.parent
        add_hit, act_hit = escapes(parent, self._pos >= 0)
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

    def _vadd(self, m, n):
        return self._pos[self.parent.vadd(self._emb[m], self._emb[n])]

    def _vact(self, r, m):
        return self._pos[self.parent.vact(r, self._emb[m])]

    def _vneg(self, m):
        return self._pos[self.parent.vneg(self._emb[m])]

    def render(self, m):
        return self.parent.render(self.embedding[m])


class QuotientModule(FiniteModule):
    """Cosets of a submodule, with operations validated well-defined."""

    def __init__(self, parent: FiniteModule, sub: SubModule,
                 config: EngineConfig | None = None):
        config = resolve(config)
        if not isinstance(sub, SubModule) or sub.parent.descriptor != parent.descriptor:
            raise InvalidParameterError(
                f"quotient wants a submodule of {parent.descriptor}, got "
                f"{sub.descriptor}"
            )
        self.parent = parent
        self.sub = sub
        emb = sub._emb
        # each coset m + N is represented by its least element
        least = np.concatenate([
            parent.vadd(np.arange(lo, hi)[:, None], emb).min(axis=1)
            for lo, hi in row_blocks(parent.size, len(emb) * _OP_CELLS)])
        reps, coset = np.unique(least, return_inverse=True)
        if not np.array_equal(np.flatnonzero(coset == coset[parent.zero]), emb):
            raise AxiomError(
                f"quot({parent.descriptor}, ...): the cosets of the subset do "
                "not partition the module; the subset is not closed"
            )
        self.reps, self.coset_of = reps, coset
        descriptor = f"quot({parent.descriptor}, {sub.descriptor})"
        super().__init__(parent.ring, len(reps), descriptor, config)
        self.zero = int(coset[parent.zero])
        self._validate_well_defined()
        self._seal()

    def _validate_well_defined(self):
        # p + q and r * p must land in the coset the representatives give
        parent, coset, ids = self.parent, self.coset_of, np.arange(self.parent.size)
        cosets = np.arange(self.size)
        add = self._vadd(cosets[:, None], cosets)
        hit = scan(parent.size, parent.size * _OP_CELLS, lambda lo, hi: first_true(
            coset[parent.vadd(ids[lo:hi, None], ids)] != add[coset[lo:hi, None], coset], lo))
        if hit is not None:
            raise AxiomError(f"{self.descriptor}: addition is not well defined "
                             f"at cosets ({coset[hit[0]]}, {coset[hit[1]]})")
        act = self._vact(np.arange(parent.ring.size)[:, None], cosets)
        hit = scan(parent.ring.size, parent.size * _OP_CELLS, lambda lo, hi: first_true(
            coset[parent.vact(np.arange(lo, hi)[:, None], ids)] != act[lo:hi][:, coset], lo))
        if hit is not None:
            raise AxiomError(f"{self.descriptor}: the action is not well defined "
                             f"at (r={hit[0]}, coset {coset[hit[1]]})")

    def _vadd(self, m, n):
        return self.coset_of[self.parent.vadd(self.reps[m], self.reps[n])]

    def _vact(self, r, m):
        return self.coset_of[self.parent.vact(r, self.reps[m])]

    def _vneg(self, m):
        return self.coset_of[self.parent.vneg(self.reps[m])]

    def render(self, m):
        return f"[{self.parent.render(int(self.reps[m]))}]"


class InducedModule(FiniteModule):
    """A module pulled back along a ring hom: r acts as map(r) did."""

    def __init__(self, hom: RingHom, base: FiniteModule,
                 config: EngineConfig | None = None):
        config = resolve(config)
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
    add_hit = scan(k, k * _OP_CELLS, lambda lo, hi: first_true(
        ~inside[module.vadd(members[lo:hi, None], members)], lo))
    act_hit = scan(module.ring.size, k * _OP_CELLS, lambda lo, hi: first_true(
        ~inside[module.vact(np.arange(lo, hi)[:, None], members)], lo))
    return add_hit, act_hit


# ---------------------------------------------------------------------------
# Constructors


def regular_module(ring: FiniteRing, config: EngineConfig | None = None) -> RegularModule:
    return RegularModule(ring, config)


def matrix_module(shape: MatrixShape, base_ring: FiniteRing,
                  base_module: FiniteModule,
                  config: EngineConfig | None = None) -> MatrixModule:
    return MatrixModule(shape, base_ring, base_module, config)


def make_product_module(factors: Sequence[FiniteModule],
                        config: EngineConfig | None = None) -> ProductModule:
    return ProductModule(factors, config)


def cyclic_submodule(module: FiniteModule, m: int,
                     config: EngineConfig | None = None) -> SubModule:
    """The submodule Rm of everything the ring action reaches from m."""
    if not 0 <= m < module.size:
        raise InvalidParameterError(
            f"element {m} is not in {module.descriptor} (size {module.size})"
        )
    orbit = {module.act(r, m) for r in module.ring.elements()}
    return SubModule(module, sorted(orbit),
                     f"cyclic({module.descriptor}, {m})", config)


def submodule_generated(module: FiniteModule, gens: Iterable[int],
                        config: EngineConfig | None = None) -> SubModule:
    """Closure of a generating set under addition and the ring action."""
    gens = sorted(set(gens))
    for g in gens:
        if not 0 <= g < module.size:
            raise InvalidParameterError(
                f"generator {g} is not in {module.descriptor}"
            )
    inside = np.zeros(module.size, dtype=bool)
    inside[[module.zero, *gens]] = True
    while True:  # add every sum and multiple of the members until none is new
        members = np.flatnonzero(inside)
        for lo, hi in row_blocks(len(members), len(members) * _OP_CELLS):
            inside[module.vadd(members[lo:hi, None], members)] = True
        for lo, hi in row_blocks(module.ring.size, len(members) * _OP_CELLS):
            inside[module.vact(np.arange(lo, hi)[:, None], members)] = True
        if inside.sum() == len(members):
            break
    gens_text = "{" + ", ".join(str(g) for g in gens) + "}"
    return SubModule(module, np.flatnonzero(inside).tolist(),
                     f"gen({module.descriptor}, {gens_text})", config)


def quotient_module(module: FiniteModule, sub: SubModule,
                    config: EngineConfig | None = None) -> QuotientModule:
    return QuotientModule(module, sub, config)


def induced_module(hom: RingHom, module: FiniteModule,
                   config: EngineConfig | None = None) -> InducedModule:
    return InducedModule(hom, module, config)


# ---------------------------------------------------------------------------
# Axiom validation


def check_module_axioms(module: FiniteModule, exhaustive: bool | None = None,
                        samples: int | None = None) -> None:
    """Verify the unitary left module axioms, raising AxiomError on failure.

    The full regime scans every (r, s, m) and (r, m, n) combination; the
    sampled regime draws random ones.  exhaustive=None picks from the
    construction budget.
    """
    cfg = module.config
    ring = module.ring
    nm = module.size
    nr = ring.size
    desc = module.descriptor
    cost = max(nr * nr * nm, nr * nm * nm, nm ** 3)
    over_cap = cost > cfg.decision_cap and not cfg.force
    if exhaustive is None:
        exhaustive = cost <= cfg.full_check_budget and not over_cap
    elif exhaustive and over_cap:
        raise DecisionCapError(
            f"{desc}: full module axiom scan of {cost} triples exceeds cap "
            f"{cfg.decision_cap}",
            cfg.decision_cap,
        )

    add, act, neg = module.add, module.act, module.neg
    radd, rmul = ring.add, ring.mul
    zero = module.zero
    rng = Random(_stable_seed(cfg, desc))
    count = samples if samples is not None else cfg.validation_samples

    # Unitary action and additive identity, checked elementwise when feasible.
    if exhaustive or nm <= count:
        unit_iter: Iterable[int] = range(nm)
    else:
        unit_iter = (rng.randrange(nm) for _ in range(count))
    for m in unit_iter:
        if act(ring.one, m) != m:
            raise AxiomError(f"{desc}: act(1, m) != m at m={m}")
        if add(zero, m) != m:
            raise AxiomError(f"{desc}: zero is not an additive identity at {m}")
        if add(m, neg(m)) != zero:
            raise AxiomError(f"{desc}: neg fails at {m}")

    if exhaustive:
        _scan_laws(module)
        return
    for _ in range(count):
        a, b, c = rng.randrange(nm), rng.randrange(nm), rng.randrange(nm)
        if add(a, b) != add(b, a):
            raise AxiomError(f"{desc}: module addition not commutative at ({a}, {b})")
        if add(add(a, b), c) != add(a, add(b, c)):
            raise AxiomError(f"{desc}: module addition not associative at ({a}, {b}, {c})")
    for _ in range(count):
        r, s, m = rng.randrange(nr), rng.randrange(nr), rng.randrange(nm)
        if act(radd(r, s), m) != add(act(r, m), act(s, m)):
            raise AxiomError(f"{desc}: (r+s)m != rm+sm at ({r}, {s}, {m})")
        if act(rmul(r, s), m) != act(r, act(s, m)):
            raise AxiomError(f"{desc}: (rs)m != r(sm) at ({r}, {s}, {m})")
    for _ in range(count):
        r, m, n = rng.randrange(nr), rng.randrange(nm), rng.randrange(nm)
        if act(r, add(m, n)) != add(act(r, m), act(r, n)):
            raise AxiomError(f"{desc}: r(m+n) != rm+rn at ({r}, {m}, {n})")


def _scan_laws(module: FiniteModule) -> None:
    """Every (a, b, c), (r, s, m) and (r, m, n) law by the scan kernel, first
    failure as a triple loop in that order meets it."""
    add, act = module.add_table(), module.act_table()
    radd, rmul = module.ring.add_table(), module.ring.mul_table()
    nm, nr = module.size, module.ring.size

    def group(lo, hi):
        pa = add[lo:hi]
        comm = np.broadcast_to((pa != add[:, lo:hi].T)[:, :, None], (hi - lo, nm, nm))
        return np.stack([comm, add[pa] != np.take(pa, add, axis=1)], axis=-1)

    def mixed(lo, hi):
        ar = act[lo:hi]
        return np.stack([act[radd[lo:hi]] != add[ar[:, None, :], act[None, :, :]],
                         act[rmul[lo:hi]] != np.take(ar, act, axis=1)], axis=-1)

    def dist(lo, hi):
        ar = act[lo:hi]
        return (np.take(ar, add, axis=1) != add[ar[:, :, None], ar[:, None, :]])[..., None]

    for broken, rows, cells, messages in (
            (group, nm, 2 * nm * nm, ("module addition not commutative at ({0}, {1})",
                                      "module addition not associative at ({0}, {1}, {2})")),
            (mixed, nr, 2 * nr * nm, ("(r+s)m != rm+sm at ({0}, {1}, {2})",
                                      "(rs)m != r(sm) at ({0}, {1}, {2})")),
            (dist, nr, nm * nm, ("r(m+n) != rm+rn at ({0}, {1}, {2})",))):
        hit = scan(rows, cells, lambda lo, hi: first_true(broken(lo, hi), lo))
        if hit is not None:
            raise AxiomError(f"{module.descriptor}: " + messages[hit[3]].format(*hit))
