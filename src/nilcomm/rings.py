"""Finite unital rings addressed by dense integer element ids.

Every ring exposes total operations vadd/vmul/vneg over broadcasting numpy
id arrays, the same operations add/mul/neg on single ids (plain ints read
off the vectorized ones), and a descriptor string that doubles as its
canonical serialized form (the same expressions the structure DSL parses).
Small rings store int32 operation tables built by the vectorized
operations; larger ones evaluate operations structurally per call.  Matrix
elements are indexed as base-|R| digit strings over the shape's free
positions in row-major order, first position most significant, so id 0 is
always the zero matrix when the base ring's zero has id 0.

The array layer below (one mixed-radix codec, table building and the block
scan kernel) also carries the modules, nil sets and deciders.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from random import Random
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .config import EngineConfig, resolve
from .errors import AxiomError, InvalidHomError, InvalidParameterError

# Matrix shape kinds.
FULL = "full"
UPPER = "upper"
SPECIAL_UPPER = "special-upper"
V_TYPE = "v-type"

_SHAPE_PREFIX = {FULL: "M", UPPER: "T", SPECIAL_UPPER: "S", V_TYPE: "V"}


@dataclass(frozen=True)
class MatrixShape:
    """An admissible pattern of n-by-n matrices.

    full admits every matrix; upper forces zeros below the diagonal;
    special-upper additionally forces equal diagonal entries; v-type admits
    exactly the matrices constant on each superdiagonal and zero below (the
    span of I, V, ..., V^(n-1) for the superdiagonal shift V).
    """

    kind: str
    n: int

    @property
    def count(self) -> int:
        """The number of free positions, in closed form."""
        n = self.n
        return {FULL: n * n, UPPER: n * (n + 1) // 2,
                SPECIAL_UPPER: n * (n - 1) // 2 + 1, V_TYPE: n}[self.kind]

    def __post_init__(self):
        if self.kind not in _SHAPE_PREFIX:
            raise InvalidParameterError(f"unknown matrix shape kind {self.kind!r}")
        if self.n < 1:
            raise InvalidParameterError(f"matrix dimension must be >= 1, got {self.n}")

    def digit_grid(self) -> np.ndarray:
        """Each cell's digit index, or -1 where it is forced to zero."""
        return _digit_grid(self.kind, self.n)

    def free_positions(self) -> tuple[tuple[int, int], ...]:
        """Each digit's first cell, in row-major order."""
        digits, first = np.unique(self.digit_grid(), return_index=True)
        return tuple(divmod(int(i), self.n) for i in first[digits >= 0])


@lru_cache(maxsize=None)
def _digit_grid(kind: str, n: int) -> np.ndarray:
    """The one definition of each shape: a read-only n x n grid of each
    cell's digit index, or -1 where the cell is forced to zero.  Cells
    sharing a digit hold equal entries.  Digits are numbered in the order of
    their cells' keys: a cell's row-major index, but 0 on special-upper's
    diagonal and k on v-type's superdiagonal k."""
    i, j = np.indices((n, n))
    key = {FULL: i * n + j, UPPER: np.where(i <= j, i * n + j, -1),
           SPECIAL_UPPER: np.where(i < j, i * n + j, np.where(i == j, 0, -1)),
           V_TYPE: np.where(i <= j, j - i, -1)}[kind].ravel()
    keys, digit = np.unique(key, return_inverse=True)
    grid = digit.reshape(n, n) - int(keys[0] < 0)
    grid.flags.writeable = False
    return grid


def shape_fill(shape: MatrixShape, digits, zero) -> list[list]:
    """The full n-by-n entry grid of one digit string; zero at forced cells."""
    values = [*digits, zero]  # a forced cell's digit -1 reads zero
    return [[values[d] for d in row] for row in shape.digit_grid().tolist()]


def shape_read(shape: MatrixShape, rows, zero, what: str = "matrix") -> list:
    """The digit string of an entry grid: its entries at the free positions,
    once filling them gives the grid back."""
    n = shape.n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidParameterError(f"{what}: expected an {n}x{n} entry grid")
    digits = [rows[i][j] for i, j in shape.free_positions()]
    filled = shape_fill(shape, digits, zero)
    for i, j in np.ndindex(n, n):
        if rows[i][j] != filled[i][j]:
            raise InvalidParameterError(
                f"{what}: entry ({i},{j}) must be {filled[i][j]} in a {shape.kind} "
                f"matrix, got {rows[i][j]}")
    return digits


def _stable_seed(config: EngineConfig, descriptor: str) -> int:
    return (config.seed << 16) ^ zlib.crc32(descriptor.encode("utf-8"))


# ---------------------------------------------------------------------------
# Array layer: the codec, operation tables and the block scan kernel


class MixedRadix:
    """Ids as mixed-radix digit strings, first digit most significant."""

    def __init__(self, radices: Iterable[int]):
        self.radices = tuple(radices)
        self.weights = np.cumprod((1,) + self.radices[:0:-1], dtype=np.int64)[::-1]
        self._radix = np.array(self.radices, dtype=np.int64)
        # power-of-two radices decode by shift and mask, with no division
        self.shifts = (np.array([w.bit_length() - 1 for w in self.weights.tolist()])
                       if all(r & (r - 1) == 0 for r in self.radices) else None)

    def encode(self, digits) -> int:
        """Id of one digit string; rejects out-of-range digits."""
        eid = 0
        for d, r in zip(digits, self.radices):
            if not 0 <= d < r:
                raise InvalidParameterError(
                    f"entry id {d} out of range for base of size {r}")
            eid = eid * r + d
        return eid

    def decode(self, eid: int) -> list[int]:
        return self.digits(eid).tolist()

    def digits(self, ids) -> np.ndarray:
        """Digit strings of an id array, along a new last axis."""
        return split(np.asarray(ids)[..., None], self.weights, self.shifts, self._radix)

    def ids(self, digits) -> np.ndarray:
        """Ids of digit strings laid along the last axis."""
        return digits @ self.weights


def split(ids: np.ndarray, weights, shifts, radix) -> np.ndarray:
    """ids // weights % radix; by shift and mask when shifts (the weights'
    base-2 logarithms, every radix a power of two) is not None."""
    return ids // weights % radix if shifts is None else ids >> shifts & radix - 1


# A block of a scan or a table build holds at most _BLOCK_CELLS cells, so
# temporaries stay small at any size; _OP_CELLS (a 4x4 matrix product grid) is
# the per-pair cost of a structural op whose layout states none.
_BLOCK_CELLS = 1 << 16
_OP_CELLS = 64


def row_blocks(rows: int, cells_per_row: int) -> list[tuple[int, int]]:
    step = max(1, _BLOCK_CELLS // max(1, cells_per_row))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def op_table(op, rows: int, cols: int, cells: int) -> np.ndarray:
    """rows x cols int32 table of a vectorized op costing cells per id pair."""
    out = np.empty((rows, cols), dtype=np.int32)
    right = np.arange(cols)
    for lo, hi in row_blocks(rows, cols * cells):
        out[lo:hi] = op(np.arange(lo, hi)[:, None], right)
    return out


def composed_table(parts) -> np.ndarray:
    """The add table of a digitwise layout from its parts' add tables, first
    part most significant, with no decoding: out[(p, x), (q, y)] is
    out[p, q] * r + t[x, y] for the next part's table t of r rows.  Each
    distinct part's table is read once."""
    tables = {part: part.add_table() for part in dict.fromkeys(parts)}
    out = np.zeros((1, 1), dtype=np.int32)
    for part in parts:
        t, r = tables[part], part.size
        out = (out[:, None, :, None] * r + t[None, :, None, :]).reshape(len(out) * r, -1)
    return out


def digitwise(codec: MixedRadix, op, *ids) -> np.ndarray:
    """Ids whose digit strings are op applied to the operands' digit strings."""
    return codec.ids(op(*(codec.digits(x) for x in ids)))


def componentwise(codec: MixedRadix, ops, *ids, left=()) -> np.ndarray:
    """Product-structure ids whose i-th digit is ops[i](*left, i-th digits)."""
    digits = [codec.digits(x) for x in ids]
    return codec.ids(np.stack([op(*left, *(d[..., i] for d in digits))
                               for i, op in enumerate(ops)], axis=-1))


def first_true(mask: np.ndarray, row: int = 0):
    """C-order least True index as ints (first one offset by row), or None."""
    if not mask.any():
        return None
    idx = np.unravel_index(int(mask.argmax()), mask.shape)
    return (int(idx[0]) + row, *(int(x) for x in idx[1:]))


def scan(rows: int, cells_per_row: int, block):
    """The least hit over row blocks: block(lo, hi) returns the least hit
    among rows lo..hi-1 (a tuple led by the row) or None.  Blocks run in row
    order and stop at the first hit."""
    return next(filter(None, (block(lo, hi) for lo, hi in row_blocks(rows, cells_per_row))),
                None)


# ---------------------------------------------------------------------------
# Rings


class FiniteStructure:
    """Base of rings and modules: ids 0..size-1 with + and - and one product,
    a ring's mul or a module's action.  Subclasses supply only the vectorized
    _vadd, _vneg and product; sealing binds them to int32 tables, or keeps
    them above the tabulate threshold, and a pointwise op reads its vectorized
    one as an int.  A layout sets its structural ops' per-pair cost, and a
    digitwise one its digits' parts."""

    _kind: str  # "ring" or "module", for the size check
    zero: int
    _pair_cells = _OP_CELLS
    _parts = None

    def __init__(self, size: int, descriptor: str, config: EngineConfig, power: int = 1):
        self.size = config.check_size(size, self._kind, descriptor, power)
        self.descriptor = descriptor
        self.config = config
        self.tabulated = False
        self._add_rows = None
        self._product_rows = None
        self._generators = None

    # the structural ops, read through the class: a bound method kept on the
    # instance would be a reference cycle, freed only by the cyclic collector
    def vadd(self, a, b):
        return self._vadd(a, b)

    def vneg(self, a):
        return self._vneg(a)

    def _bind(self, rows: int, tabulate: bool) -> None:
        """Over int32 tables when tabulate, shadow vadd, vneg and the product
        (named by _product; its left operand an id below rows) by table
        reads; else the structural ops serve."""
        self._left_size, self.tabulated = rows, tabulate
        if tabulate:
            add = self.add_table()
            prod = self._tabulate_product()
            neg = self._vneg(np.arange(self.size)).astype(np.int32)
            self._add_rows, self._product_rows = add, prod
            self.vadd, self.vneg = (lambda a, b: add[a, b]), neg.__getitem__
            setattr(self, self._product, lambda a, b: prod[a, b])

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(a, b))

    def neg(self, a: int) -> int:
        return int(self.vneg(a))

    @property
    def cells(self) -> int:
        """Block cells one id pair of an op takes: 1 for a table lookup, else
        the layout's cost of a structural op."""
        return 1 if self.tabulated else self._pair_cells

    def _grid_product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of entry grids, (..., n, k) x (..., k, p) id arrays, under
        this structure's + and product; a module's left grid holds ring ids."""
        products = getattr(self, self._product)(a[..., :, :, None], b[..., None, :, :])
        return reduce(self.vadd, np.moveaxis(products, -2, 0))

    def add_table(self) -> np.ndarray:
        """The addition table: the stored one, else composed from a digitwise
        layout's parts, else built from the op.  Product tables are built from
        the product itself (a matrix layout's from its entries' products):
        composing one from add tables would assume the distributive laws
        checked on it."""
        if self._add_rows is not None:
            return self._add_rows
        if self._parts is not None:
            return composed_table(self._parts)
        return op_table(self._vadd, self.size, self.size, self._pair_cells)

    def additive_generators(self, most: int | None = None) -> list[int] | None:
        """additive_generators of the add table, kept once found; None where
        it takes more than most."""
        if self._generators is None:
            found = additive_generators(self.add_table(), most)
            if found is None:
                return None
            self._generators = found
        return self._generators if most is None or len(self._generators) <= most else None

    def _product_table(self) -> np.ndarray:
        """The product table, one row per left operand: the stored one, else
        built on first use and kept, as a module's nil set is."""
        if self._product_rows is None:
            self._product_rows = self._tabulate_product()
        return self._product_rows

    def _tabulate_product(self) -> np.ndarray:
        """Build the product table from the structural product; a layout
        that defines its product by smaller tables overrides this."""
        return op_table(getattr(self, self._product), self._left_size, self.size,
                        self._pair_cells)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.size)

    def check_ids(self, *ids) -> None:
        """Refuse an id, or an id array, holding an id of no element."""
        for each in ids:
            for x in np.ravel(each).tolist():
                if not 0 <= x < self.size:
                    raise InvalidParameterError(
                        f"element {x} is not in {self.descriptor} (size {self.size})")

    def render(self, a: int) -> str:
        return str(a)

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor} size={self.size}>"


class FiniteRing(FiniteStructure):
    """Base class: a finite associative ring with identity on ids 0..size-1,
    its product mul.  laws_exact marks a ring whose every law instance has
    passed its exact axiom check."""

    _kind, _product = "ring", "vmul"
    one: int
    laws_exact = False

    def _seal(self, validate: bool = True) -> None:
        """Finalize construction: reject the trivial ring, bind ops, validate."""
        if self.zero == self.one:
            raise InvalidParameterError(
                f"{self.descriptor}: the trivial ring (0 = 1) is rejected"
            )
        self._bind(self.size, self.size <= self.config.tabulate_threshold)
        if validate:
            check_ring_axioms(self)

    def vmul(self, a, b):
        return self._vmul(a, b)

    vmatmul = FiniteStructure._grid_product
    mul_table = FiniteStructure._product_table

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            raise InvalidParameterError("ring power wants a non-negative exponent")
        result = self.one
        while k:
            if k & 1:
                result = self.mul(result, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return result


# ---------------------------------------------------------------------------
# Concrete ring families


class ZnRing(FiniteRing):
    """Integers modulo n; element id k is the residue k."""

    def __init__(self, n: int, config: EngineConfig | None = None, validate: bool = True):
        config = resolve(config)
        if n < 2:
            raise InvalidParameterError(f"Z(n) needs n >= 2, got {n}")
        self.n = n
        super().__init__(n, f"Z({n})", config)
        self.zero = 0
        self.one = 1
        self._seal(validate)

    # plain arithmetic serves ints and (int64) id arrays alike
    def _vadd(self, a, b):
        return (a + b) % self.n

    def _vmul(self, a, b):
        return (a * b) % self.n

    def _vneg(self, a):
        return (-a) % self.n

    _pair_cells = 1

    def own_arithmetic(self) -> bool:
        """Whether the class's hooks are ZnRing's own, which read nothing but
        self.n; a subclass may plant its own."""
        cls = type(self)
        return (cls._vadd, cls._vmul, cls._vneg) == (ZnRing._vadd, ZnRing._vmul, ZnRing._vneg)

    def vmatmul(self, a, b):
        if not self.own_arithmetic():
            return super().vmatmul(a, b)  # a subclass with its own arithmetic
        # each of the k summed products is below n**2 and n**k is within the
        # construction cap, so the int64 sum stays below cap**2 (2**40 by default)
        return np.matmul(a, b) % self.n


class _DigitLayout:
    """Ids as strings of base-|B| digits, B = self.base; + and - act digit by
    digit, so the add table is composed from B's."""

    def _digits(self, count: int, pair_cells: int) -> None:
        self.codec = MixedRadix([self.base.size] * count)
        self._parts, self._pair_cells = (self.base,) * count, pair_cells

    def _vadd(self, a, b):
        return digitwise(self.codec, self.base.vadd, a, b)

    def _vneg(self, a):
        return digitwise(self.codec, self.base.vneg, a)


class MatrixLayout(_DigitLayout):
    """Base-|B| digits over one shape's free positions, shared by matrix
    rings and matrix modules; grid() and ungrid() convert whole id arrays to
    entry grids and back.  A product of entry grids costs n^3 entry ops; a
    product table is assembled from one table of entry products."""

    def _lay_out(self, shape: MatrixShape, entries) -> None:
        self.shape = shape
        self.positions = shape.free_positions()
        p = len(self.positions)
        self._digits(p, shape.n ** 3 * entries.cells)
        self._entry_zero = entries.zero
        digit = shape.digit_grid()
        self._forced = digit < 0
        # an id divided by a weight past its top digit reads digit 0
        self._cell_weight = np.where(self._forced, entries.size ** p,
                                     self.codec.weights[digit])
        shifts = self.codec.shifts
        self._cell_shift = (None if shifts is None else
                            np.where(self._forced, (entries.size ** p).bit_length() - 1,
                                     shifts[digit]))
        self._free = tuple(np.array(ix) for ix in zip(*self.positions))

    def _entry_product_table(self, left, entry_product) -> np.ndarray:
        """The product table of left's elements times this layout's, from one
        entry table.  Entry (i, j) of a product is the fold over k of
        a_ik * b_kj, so it depends only on row i of a and column j of b: E
        holds entry_product (the entries' own grid product, same fold) of
        every row u and column v of entry ids, each read as a base-|B|
        number, and the table is the sum over free positions (i, j) of
        weight * E[row_i(a), col_j(b)], the ids ungrid() would give.  No law
        is assumed, and E is no larger than the table: every shape has at
        least n free positions."""
        n = self.shape.n
        rows, cols = MixedRadix([left.base.size] * n), MixedRadix([self.base.size] * n)
        entries = op_table(lambda u, v: entry_product(rows.digits(u)[..., None, :],
                                                      cols.digits(v)[..., :, None])[..., 0, 0],
                           left.base.size ** n, self.base.size ** n, n * self.base.cells)
        col_ids = np.swapaxes(self.grid(np.arange(self.size)), -1, -2) @ cols.weights
        out = np.zeros((left.size, self.size), dtype=np.int32)
        for lo, hi in row_blocks(left.size, self.size):
            row_ids, block = left.grid(np.arange(lo, hi)) @ rows.weights, out[lo:hi]
            for (i, j), w in zip(self.positions, self.codec.weights.tolist()):
                block += np.take(w * entries[row_ids[:, i]], col_ids[:, j], axis=1)
        return out

    def grid(self, ids) -> np.ndarray:
        """Entry ids of each element as an n x n grid on two new last axes."""
        cells = split(np.asarray(ids)[..., None, None], self._cell_weight, self._cell_shift,
                      self.codec.radices[0])
        if self._entry_zero:
            cells = np.where(self._forced, self._entry_zero, cells)
        return cells

    def ungrid(self, cells: np.ndarray) -> np.ndarray:
        """Ids of entry grids lying in the shape."""
        return self.codec.ids(cells[(..., *self._free)])

    def entries(self, eid: int):
        """Full n-by-n grid of base ids for one element."""
        return shape_fill(self.shape, self.codec.decode(eid), self._entry_zero)

    def from_entries(self, rows) -> int:
        """Element id of an entry grid; rejects grids outside the shape."""
        return self.codec.encode(shape_read(self.shape, rows, self._entry_zero,
                                            getattr(self, "descriptor", "matrix")))

    def _with_cells(self, cells, value: int) -> int:
        n = self.shape.n
        rows = [[self._entry_zero] * n for _ in range(n)]
        for i, j in cells:
            rows[i][j] = value
        return self.from_entries(rows)

    def unit(self, i: int, j: int, value: int) -> int:
        """Element with value at (i, j) and zeros elsewhere, if admissible."""
        return self._with_cells([(i, j)], value)

    def scalar(self, value: int) -> int:
        """value times the identity matrix."""
        return self._with_cells([(i, i) for i in range(self.shape.n)], value)

    def superdiag(self, value: int, k: int = 1) -> int:
        """value on superdiagonal k (the matrix value * V^k), zeros elsewhere."""
        return self._with_cells([(i, i + k) for i in range(self.shape.n - k)], value)

    def render(self, eid: int) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(self.base.render(x) for x in row) + "]"
            for row in self.entries(eid)) + "]"


class MatrixRing(MatrixLayout, FiniteRing):
    """Matrices over a base ring restricted to one shape's free positions."""

    def __init__(self, shape: MatrixShape, base: FiniteRing,
                 config: EngineConfig | None = None):
        config = resolve(config, base)
        self.base = base
        prefix = _SHAPE_PREFIX[shape.kind]
        super().__init__(base.size, f"{prefix}({shape.n}, {base.descriptor})", config,
                         shape.count)
        self._lay_out(shape, base)
        self.zero = self.codec.encode([base.zero] * len(self.positions))
        self.one = self.scalar(base.one)
        self._seal()

    def _vmul(self, a, b):
        return self.ungrid(self.base.vmatmul(self.grid(a), self.grid(b)))

    def _tabulate_product(self):
        return self._entry_product_table(self, self.base.vmatmul)


class ProductLayout:
    """Mixed-radix ids over the sizes of self.factors, shared by product
    rings and product modules; + and - act componentwise."""

    def _lay_out(self) -> None:
        self.codec = MixedRadix(f.size for f in self.factors)
        self.zero = self.codec.encode([f.zero for f in self.factors])
        self._parts, self._pair_cells = self.factors, sum(f.cells for f in self.factors)

    def _vadd(self, a, b):
        return componentwise(self.codec, [f.vadd for f in self.factors], a, b)

    def _vneg(self, a):
        return componentwise(self.codec, [f.vneg for f in self.factors], a)

    def render(self, a):
        comps = self.codec.decode(a)
        return "(" + ", ".join(f.render(c) for f, c in zip(self.factors, comps)) + ")"


class ClassLayout:
    """Elements as classes of a parent's ids (submodules, quotients and
    localizations): _reps[a] is the parent id representing element a and
    class_of[p] the element of parent id p, -1 outside a submodule.  Each op
    is a parent op (_parent_add, _parent_neg, _parent_mul, _parent_act) on
    representatives, an action's ring operand going through _ring_reps; the
    layout's per-pair cost is the parent op's."""

    def _vadd(self, a, b):
        return self.class_of[self._parent_add(self._reps[a], self._reps[b])]

    def _vneg(self, a):
        return self.class_of[self._parent_neg(self._reps[a])]

    def _vmul(self, a, b):
        return self.class_of[self._parent_mul(self._reps[a], self._reps[b])]

    def _vact(self, r, m):
        return self.class_of[self._parent_act(self._ring_reps[r], self._reps[m])]

    def _check_well_defined(self, law: str, parent_op, op, left_classes, name) -> None:
        """AxiomError at the least parent ids (p, q) where the class of
        parent_op(p, q) is not op on the classes of p and q (left_classes
        those of the left operand), law formatted with name(p, q)."""
        right = np.arange(len(self.class_of))
        hit = scan(len(left_classes), len(right) * self._pair_cells, lambda lo, hi: first_true(
            self.class_of[parent_op(np.arange(lo, hi)[:, None], right)]
            != op(left_classes[lo:hi, None], self.class_of), lo))
        if hit is not None:
            raise AxiomError(f"{self.descriptor}: " + law.format(*name(*hit)))


class ProductRing(ProductLayout, FiniteRing):
    """Componentwise product of finitely many rings."""

    def __init__(self, factors: Sequence[FiniteRing], config: EngineConfig | None = None):
        factors = tuple(factors)
        config = resolve(config, factors)
        if not factors:
            raise InvalidParameterError("product ring needs at least one factor")
        self.factors = factors
        size = math.prod(f.size for f in factors)
        descriptor = "prod(" + ", ".join(f.descriptor for f in factors) + ")"
        super().__init__(size, descriptor, config)
        self._lay_out()
        self.one = self.codec.encode([f.one for f in factors])
        self._seal()

    def _vmul(self, a, b):
        return componentwise(self.codec, [f.vmul for f in self.factors], a, b)


class PolyQuotientRing(_DigitLayout, FiniteRing):
    """Polynomials over a base ring truncated at degree n (x^n = 0).

    Elements are coefficient tuples (c0, ..., c_{n-1}); products drop every
    term of degree n or higher, and cost n^2 base ops.
    """

    def __init__(self, base: FiniteRing, n: int, config: EngineConfig | None = None):
        config = resolve(config, base)
        if n < 1:
            raise InvalidParameterError(f"polyq needs degree bound >= 1, got {n}")
        self.base = base
        self.degree = n
        super().__init__(base.size, f"polyq({base.descriptor}, {n})", config, n)
        self._digits(n, n * n * base.cells)
        self._shift = np.arange(n) - np.arange(n)[:, None]  # k - i at (i, k)
        self.zero = self.codec.encode([base.zero] * n)
        self.one = self.codec.encode([base.one] + [base.zero] * (n - 1))
        self._seal()

    def coefficients(self, eid: int):
        return self.codec.decode(eid)

    def from_coefficients(self, coeffs) -> int:
        if len(coeffs) != self.degree:
            raise InvalidParameterError(
                f"{self.descriptor}: expected {self.degree} coefficients"
            )
        return self.codec.encode(coeffs)

    def _vmul(self, a, b):
        # truncated convolution: c_k sums a_i * b_(k-i) over i <= k, so c is
        # the row of a's coefficients times the shifted b, whose row i is x^i b
        base, shift = self.base, self._shift
        shifted = np.where(shift >= 0, self.codec.digits(b)[..., shift], base.zero)
        return self.codec.ids(
            base.vmatmul(self.codec.digits(a)[..., None, :], shifted)[..., 0, :])

    def render(self, a):
        coeffs = self.coefficients(a)
        base = self.base
        terms = []
        for i, c in enumerate(coeffs):
            if c == base.zero:
                continue
            if i == 0:
                terms.append(base.render(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                terms.append(xpow if c == base.one else f"{base.render(c)}{xpow}")
        return "+".join(terms) if terms else base.render(base.zero)


# ---------------------------------------------------------------------------
# Constructors (the public spelling used throughout)

# The intern table of the current interning() block, None outside one.
_built: ContextVar[dict | None] = ContextVar("nilcomm_built", default=None)


@contextmanager
def interning():
    """Within the block, the canonical constructors (build) return the
    structure already built for the same key: the class, the plain arguments,
    the operand structures by identity and the EngineConfig.  A build that
    raises leaves no entry; outside every block each call builds afresh.
    Structures built by their classes directly, such as the light Z(n) of
    modules.regular_zn_modules, never enter the table."""
    token = _built.set({})
    try:
        yield
    finally:
        _built.reset(token)


def build(cls, *args, config: EngineConfig | None = None):
    """cls(*args, config), built afresh outside an interning() block; inside
    one, the structure entered under its key, built and entered at the first
    call.  Only the canonical constructors call it: a class called directly
    is never interned."""
    table = _built.get()
    if table is None:
        return cls(*args, config)
    key = (cls, *args, resolve(config, *args))
    if key not in table:
        table[key] = cls(*args, config)
    return table[key]


def make_zn(n: int, config: EngineConfig | None = None) -> ZnRing:
    """The ring of integers mod n, n >= 2."""
    return build(ZnRing, n, config=config)


def make_matrix_ring(shape: MatrixShape, base: FiniteRing,
                     config: EngineConfig | None = None) -> MatrixRing:
    """Matrices of one shape over a base ring."""
    return build(MatrixRing, shape, base, config=config)


def make_product_ring(factors: Sequence[FiniteRing],
                      config: EngineConfig | None = None) -> ProductRing:
    """Componentwise product of the given rings."""
    return build(ProductRing, tuple(factors), config=config)


def make_poly_quotient_ring(base: FiniteRing, n: int,
                            config: EngineConfig | None = None) -> PolyQuotientRing:
    """Truncated polynomial ring with x^n = 0."""
    return build(PolyQuotientRing, base, n, config=config)


# ---------------------------------------------------------------------------
# Derived element sets


def center(ring: FiniteRing, config: EngineConfig | None = None) -> np.ndarray:
    """Bool id mask of the elements commuting with the whole ring."""
    _guard_pairs(ring, "center", config)
    return _against_all(ring, lambda c, r: ring.vmul(c, r) == ring.vmul(r, c))


def _guard_pairs(ring: FiniteRing, what: str, config: EngineConfig | None) -> None:
    """The cap guard of a scan over every element pair of the ring, under
    the config given, else the ring's."""
    pairs = ring.size * ring.size
    resolve(config, ring).refuse_above_cap(pairs,
                                           f"{ring.descriptor}: {what} scan of {pairs} pairs")


def _against_all(ring: FiniteRing, test) -> np.ndarray:
    """For each element s, whether test(s, r) holds for every element r."""
    ids = np.arange(ring.size)
    return np.concatenate([test(ids[lo:hi, None], ids).all(axis=1)
                           for lo, hi in row_blocks(ring.size, ring.size * ring.cells)])


def regular_elements(ring: FiniteRing, config: EngineConfig | None = None) -> np.ndarray:
    """Bool id mask of the nonzero elements that are neither left nor right
    zero divisors."""
    _guard_pairs(ring, "regular element", config)
    mul, zero = ring.vmul, ring.zero
    regular = _against_all(ring, lambda s, r: (r == zero) | (
        (mul(s, r) != zero) & (mul(r, s) != zero)))
    regular[zero] = False
    return regular


def nil_ring_set(ring: FiniteRing, config: EngineConfig | None = None) -> np.ndarray:
    """Bool id mask of the nilpotent elements: those with a^(2^s) = 0 for
    2^s >= |R|, by s squarings of every id.  A nilpotent's powers before 0
    are distinct, so its degree is at most |R|."""
    _guard_pairs(ring, "nil set", config)
    nil = np.empty(ring.size, dtype=bool)
    for lo, hi in row_blocks(ring.size, ring.cells):
        x = np.arange(lo, hi)
        for _ in range((ring.size - 1).bit_length()):
            x = ring.vmul(x, x)
        nil[lo:hi] = x == ring.zero
    return nil


def nilpotency_degree(ring: FiniteRing, a: int) -> int | None:
    """Least k >= 1 with a^k = 0, or None if a is not nilpotent."""
    mul = ring.mul
    zero = ring.zero
    x = a
    k = 1
    seen = set()
    while True:
        if x == zero:
            return k
        if x in seen:
            return None
        seen.add(x)
        x = mul(x, a)
        k += 1


# ---------------------------------------------------------------------------
# Ring homomorphisms


@dataclass(frozen=True)
class RingHom:
    """A validated unital ring homomorphism given by an id table."""

    source: FiniteRing
    target: FiniteRing
    map: tuple[int, ...]
    surjective: bool
    descriptor: str

    def __call__(self, a: int) -> int:
        return self.map[a]


def make_ring_hom(source: FiniteRing, target: FiniteRing, mapping,
                  descriptor: str | None = None) -> RingHom:
    """Build a RingHom, validating every axiom exhaustively."""
    pairs = source.size * source.size
    source.config.refuse_above_cap(pairs, f"{source.descriptor}: hom validation over {pairs} pairs")
    if callable(mapping):
        table = tuple(mapping(a) for a in source.elements())
    else:
        table = tuple(mapping)
    if len(table) != source.size:
        raise InvalidHomError(
            f"hom table has {len(table)} entries, expected {source.size}"
        )
    for a, v in enumerate(table):
        if not 0 <= v < target.size:
            raise InvalidHomError(f"hom maps {a} to out-of-range id {v}", pair=(a,))
    if table[source.zero] != target.zero:
        raise InvalidHomError("hom does not preserve zero", pair=(source.zero,))
    if table[source.one] != target.one:
        raise InvalidHomError("hom does not preserve one", pair=(source.one,))
    t, ids = np.asarray(table), np.arange(source.size)

    def broken(lo, hi):  # [a, b, law]: a + b (law 0) or a * b (law 1) not preserved
        a = ids[lo:hi, None]
        return np.stack([t[source.vadd(a, ids)] != target.vadd(t[a], t),
                         t[source.vmul(a, ids)] != target.vmul(t[a], t)], axis=-1)

    hit = scan(source.size, 2 * source.size * (source.cells + target.cells),
               lambda lo, hi: first_true(broken(lo, hi), lo))
    if hit is not None:
        a, b, law = hit
        raise InvalidHomError(
            f"hom is not {('additive', 'multiplicative')[law]} at ({a}, {b})",
            pair=(a, b))
    surjective = len(set(table)) == target.size
    if descriptor is None:
        descriptor = f"hom({source.descriptor}, {target.descriptor})"
    return RingHom(source, target, table, surjective, descriptor)


def zn_reduction_hom(m: int, n: int, config: EngineConfig | None = None) -> RingHom:
    """The canonical surjection Z(m) -> Z(n) for n dividing m."""
    if m % n != 0:
        raise InvalidParameterError(f"zred({m}, {n}) needs {n} to divide {m}")
    src = make_zn(m, config)
    tgt = make_zn(n, config)
    return make_ring_hom(src, tgt, lambda a: a % n, descriptor=f"zred({m}, {n})")


def identity_hom(ring: FiniteRing) -> RingHom:
    """The identity map on a ring, packaged as a hom."""
    return make_ring_hom(ring, ring, lambda a: a,
                         descriptor=f"idhom({ring.descriptor})")


# ---------------------------------------------------------------------------
# The coefficient-reading map between V-shaped matrices and truncated polys


def verify_theta_iso(base: FiniteRing, n: int,
                     config: EngineConfig | None = None) -> bool:
    """Check that reading V-polynomial coefficients as x-coefficients is a
    bijective ring homomorphism from the v-type matrix ring onto the
    truncated polynomial ring of the same degree, exhaustively."""
    config = resolve(config, base)
    vring = make_matrix_ring(MatrixShape(V_TYPE, n), base, config)
    pring = make_poly_quotient_ring(base, n, config)
    try:
        theta = make_ring_hom(vring, pring, lambda a: pring.from_coefficients(
            vring.codec.decode(a)))
    except InvalidHomError:
        return False
    return theta.surjective and vring.size == pring.size


# ---------------------------------------------------------------------------
# Axiom validation


def module_laws(vadd, vact, radd, rmul):
    """The five left module laws, each a mask of where it fails on id arrays:
    + commutative at (a, b) and associative at (a, b, c); (r+s)m = rm+sm and
    (rs)m = r(sm) at (r, s, m); r(m+n) = rm+rn at (r, m, n)."""
    return (lambda a, b: vadd(a, b) != vadd(b, a),
            lambda a, b, c: vadd(vadd(a, b), c) != vadd(a, vadd(b, c)),
            lambda r, s, m: vact(radd(r, s), m) != vadd(vact(r, m), vact(s, m)),
            lambda r, s, m: vact(rmul(r, s), m) != vact(r, vact(s, m)),
            lambda r, m, n: vact(r, vadd(m, n)) != vadd(vact(r, m), vact(r, n)))


def law_set(zero, one, vadd, vneg, vact, radd, rmul, own: bool):
    """The spot laws of one id column and the family laws of three, each a
    function giving one mask per law, through module_laws.  A module's (own
    False): act(1, m) = m, zero and neg at m, then its families at (a, b, c),
    (r, s, m) and (r, m, n).  A ring's (own; act and rmul its mul, radd its
    add): zero, neg and both identities at a, then one family of all five
    laws at (a, b, c), right distributivity (b+c)a being (r+s)m at (b, c, a)."""
    comm, assoc, rdist, compat, ldist = module_laws(vadd, vact, radd, rmul)
    if own:
        return (lambda a: (vadd(zero, a) != a, vadd(a, vneg(a)) != zero,
                           (vact(one, a) != a) | (vact(a, one) != a)),
                [lambda a, b, c: (comm(a, b), assoc(a, b, c), compat(a, b, c),
                                  ldist(a, b, c), rdist(b, c, a))])
    return (lambda m: (vact(one, m) != m, vadd(zero, m) != m, vadd(m, vneg(m)) != zero),
            [lambda a, b, c: (comm(a, b), assoc(a, b, c)),
             lambda r, s, m: (rdist(r, s, m), compat(r, s, m)),
             lambda r, m, n: (ldist(r, m, n),)])


_RING_LAWS = tuple(law + " at ({0}, {1}, {2})" for law in (
    "add not associative", "mul not associative", "left distributivity fails",
    "right distributivity fails"))
_MODULE_LAWS = (("module addition not commutative at ({0}, {1})",
                 "module addition not associative at ({0}, {1}, {2})"),
                ("(r+s)m != rm+sm at ({0}, {1}, {2})", "(rs)m != r(sm) at ({0}, {1}, {2})"),
                ("r(m+n) != rm+rn at ({0}, {1}, {2})",))
# check_laws' messages, a ring's and then a module's: the spot laws', each
# family's and the exact check's; the ring's (r+s)m at (b, c, a) is (b+c)a.
_MESSAGES = {
    True: (("zero is not an additive identity at {0}", "neg fails at {0}",
            "one is not a multiplicative identity at {0}"),
           (("add is not commutative at ({0}, {1})", *_RING_LAWS),),
           (_RING_LAWS[0], "right distributivity fails at ({2}, {0}, {1})", *_RING_LAWS[1:3])),
    False: (("act(1, m) != m at m={0}", "zero is not an additive identity at {0}",
             "neg fails at {0}"), _MODULE_LAWS, sum(_MODULE_LAWS, ())[1:])}


def check_ring_axioms(ring: FiniteRing) -> None:
    """Verify the ring axioms by check_laws: its regular module's laws (act =
    mul) and the right identity a * 1 = a, sampled as one family of all five
    laws per (a, b, c).  ring.laws_exact records whether the check was
    exact."""
    ring.laws_exact = check_laws(ring, ring)


def exact_fits(config: EngineConfig, gens: int, n: int, nr: int) -> bool:
    """Whether check_laws checks a structure of n elements with gens additive
    generators over a scalar ring of nr exactly: when gens * max(n^2, nr*n,
    nr^2) fits the budget and the cap.  laws_proven runs at most four times
    that many cells."""
    cost = gens * _generator_share(n, nr)
    return cost <= config.full_check_budget and config.allows(cost)


def _generator_share(n: int, nr: int) -> int:
    return max(n * n, nr * n, nr * nr)


def _exact_generators(structure, nr: int) -> list[int] | None:
    """structure.additive_generators() when exact_fits holds at them over a
    scalar ring of nr, else None.  The search does not start where one
    generator does not fit, and stops past as many as the budget holds."""
    cfg, n = structure.config, structure.size
    if not exact_fits(cfg, 1, n, nr):
        return None
    gens = structure.additive_generators(cfg.full_check_budget // _generator_share(n, nr))
    return gens if gens is not None and exact_fits(cfg, len(gens), n, nr) else None


def check_laws(structure, ring: FiniteRing, exact: bool = False) -> bool:
    """Verify a ring's or module's axioms (law_set over its ops) over its
    scalar ring (a ring's is itself), raising AxiomError at the first failure;
    True when the check was exact, every law instance passing.

    The check is exact when exact_fits holds at the structure's additive
    generators, and then a passed exact check of the same tables (exact)
    counts as its own.  An exact check builds the tables if the structure
    has none.  Tabulated or exactly checked tables are range-checked, and +
    checked commutative at every pair.  Then either the spot laws hold at
    every id and _scan_laws proves the rest at the generators, naming the
    least failing triple where the proof fails, or the spot laws hold at the
    first of sampled_rows and each family at its validation_samples rows."""
    own = structure is ring
    spot_messages, family_messages, scan_messages = _MESSAGES[own]
    desc, n = structure.descriptor, structure.size
    gens = _exact_generators(structure, ring.size)
    if exact and gens is not None:
        return True
    drawn = (None if gens is not None else
             sampled_rows(structure, ring, structure.config.validation_samples))
    if structure.tabulated or gens is not None:
        add, act = structure.add_table(), structure.mul_table() if own else structure.act_table()
        for name, t in (("add", add), ("mul" if own else "act", act)):
            if t.min() < 0 or t.max() >= n:
                raise AxiomError(f"{desc}: {name} table has out-of-range ids")
        if not (add == add.T).all():
            raise AxiomError(f"{desc}: " + family_messages[0][0].format(*first_true(add != add.T)))
        tables = add, act, *((add, act) if own else (ring.add_table(), ring.mul_table()))
    spot_laws, families = law_set(structure.zero, ring.one, structure.vadd, structure.vneg,
                                  structure.vmul if own else structure.vact,
                                  ring.vadd, ring.vmul, own)
    first_broken(structure, np.arange(n)[:, None] if drawn is None else drawn[0],
                 spot_laws, spot_messages)
    if gens is not None:  # nothing was drawn
        _scan_laws(structure, *tables, scan_messages, gens)
        return True
    for laws, family, rows in zip(families, family_messages, drawn[1:]):
        first_broken(structure, rows, laws, family)
    return False


def _sampled_draw(structure, ring, count):
    """sampled_rows' draw: a generator seeded by the config and descriptor,
    whether it leads with count spot ids (above count elements), and the
    sizes of each family of count rows, the spot ids' then each law's."""
    n, nr, spotted = structure.size, ring.size, structure.size > count
    return (Random(_stable_seed(structure.config, structure.descriptor)), spotted,
            [(n,)] * spotted + ([(n,) * 3] if structure is ring else
                                [(n,) * 3, (nr, nr, n), (nr, n, n)]))


def sampled_rows(structure, ring: FiniteRing, count: int) -> list[np.ndarray]:
    """The rows the sampled regime checks, by _sampled_draw: the spot laws'
    ids, then count rows of each law family's ids.  The spot ids stand for
    every id unless the structure is tabulated."""
    rng, spotted, families = _sampled_draw(structure, ring, count)
    drawn = draw_families(rng, count, families)
    spot = drawn.pop(0) if spotted else None
    return [np.arange(structure.size)[:, None] if spot is None or structure.tabulated else spot,
            *drawn]


def product_dtype(n: int):
    """int32 where every product of two ids below n fits it, else int64."""
    return np.int32 if n * n < 2 ** 31 else np.int64


def grouped_rows(group) -> list[tuple[np.ndarray, np.ndarray]]:
    """sampled_rows of every (structure, ring) of group, all untabulated Z(n)
    or all their regular modules, of one config, stage by stage: a stage's
    rows of every structure concatenated, and each row's n, in the
    product_dtype of the largest n.  Each stage is a view of one row buffer,
    into which each structure's draw is reduced modulo its n (every id a
    Z(n) draws is below n)."""
    count = group[0][0].config.validation_samples
    draws = [_sampled_draw(s, r, count) for s, r in group]
    ns = [ring.n for _, ring in group]
    dtype = product_dtype(max(ns))
    spot_rows = [count if spotted else n for (_, spotted, _), n in zip(draws, ns)]
    k = len(draws[0][2]) - draws[0][1]  # law families, each of triples
    spots = sum(spot_rows)
    rows = np.empty(spots + k * len(group) * 3 * count, dtype=dtype)
    spot, triples = rows[:spots], rows[spots:].reshape(k, len(group), -1)
    at = 0
    for i, ((rng, spotted, _), n) in enumerate(zip(draws, ns)):
        words = np.frombuffer(rng.randbytes(8 * count * (spotted + 3 * k)), dtype="<u8")
        if spotted:
            np.remainder(words[:count], np.uint64(n), out=spot[at:at + count], casting="unsafe")
        else:
            spot[at:at + n] = np.arange(n)
        np.remainder(words[spotted * count:].reshape(k, -1), np.uint64(n),
                     out=triples[:, i], casting="unsafe")
        at += spot_rows[i]
    moduli = np.array(ns, dtype=dtype)
    per_triple = np.repeat(moduli, count)
    return [(spot[:, None], np.repeat(moduli, spot_rows)),
            *((family.reshape(-1, 3), per_triple) for family in triples)]


def zn_laws_hold(checks) -> bool:
    """Whether check_laws would pass each (structure, ring) of checks, ring
    an untabulated ZnRing in the sampled regime and structure the ring or its
    regular module.  The rings, then the modules, evaluate law_set once a
    stage of grouped_rows, through ZnRing's hooks under each row's n.  False
    where a ring's hooks are not ZnRing's own.  A failure is not located:
    check one structure at a time to report it."""
    if not all(ring.own_arithmetic() for _, ring in checks):
        return False
    for own in (True, False):
        group = [(structure, ring) for structure, ring in checks if (structure is ring) is own]
        for stage, (block, moduli) in enumerate(grouped_rows(group) if group else ()):
            vadd, vmul, vneg = (partial(hook, SimpleNamespace(n=moduli))
                                for hook in (ZnRing._vadd, ZnRing._vmul, ZnRing._vneg))
            spot_laws, families = law_set(0, 1, vadd, vneg, vmul, vadd, vmul, own)
            masks = (spot_laws, *families)[stage](*block.T)
            if any(map(np.any, masks)):
                return False
    return True


def additive_generators(add: np.ndarray, most: int | None = None) -> list[int] | None:
    """Ids G whose closure under the add table's + is every id: the least
    unreached id (0 last, as in a group every id reaches it), then the
    reached set C closed under + (C <- C u (C+C) until nothing new appears),
    until every id is reached; None once that takes more than most ids.  A
    sum outside 0..n-1 reads as the nearer end (np.put's clip), so a table
    that check_laws' range check rejects still ends the search."""
    n = len(add)
    reached, gens, count = np.zeros(n, dtype=bool), [], 0
    while count < n:
        if len(gens) == most:
            return None
        rest = np.flatnonzero(~reached[1:])
        gens.append(int(rest[0]) + 1 if len(rest) else 0)
        reached[gens[-1]] = True
        members = np.flatnonzero(reached)
        while True:
            for lo, hi in row_blocks(len(members), len(members)):
                np.put(reached, add[members[lo:hi, None], members], True, mode="clip")
            count = int(np.count_nonzero(reached))
            if count in (n, len(members)):
                break
            members = np.flatnonzero(reached)
    return gens


def laws_proven(add, act, radd, rmul, gens=None) -> bool:
    """Whether + is commutative at every pair of the add table and the four
    laws _scan_laws checks hold at every triple, read at the additive
    generators gens (additive_generators(add) when None) alone:
    (x+g)+y = x+(g+y), r(m+g) = rm+rg, (r+s)g = rg+sg and (rs)g = r(sg) for
    every x, y, m of M, r, s of R and g of G: |G|(|M|^2 + |R||M| + 2|R|^2)
    cells in row blocks.  Each law's set of good elements is closed under +,
    so holding at G it holds at every id G reaches, which is all of them:
    - + associative (Light's test): A = {a : (x+a)+y = x+(a+y) for all x, y}
      holds a+b with a and b, as (x+(a+b))+y = ((x+a)+b)+y = (x+a)+(b+y)
      = x+(a+(b+y)) = x+((a+b)+y);
    - r(m+n) = rm+rn, by associativity: for each r, {n : r(m+n) = rm+rn
      for all m} holds n+n', as r(m+(n+n')) = r((m+n)+n') = (rm+rn)+rn'
      = rm+(rn+rn') = rm+r(n+n');
    - (r+s)m = rm+sm, by associativity, commutativity and left
      distributivity: (r+s)(m+m') = (rm+sm)+(rm'+sm') = (rm+rm')+(sm+sm')
      = r(m+m')+s(m+m');
    - (rs)m = r(sm), by left distributivity: (rs)(m+m') = r(sm)+r(sm')
      = r(sm+sm') = r(s(m+m')).
    Where + does not commute nothing is proven, and the answer is False."""
    if not (add == add.T).all():
        return False
    g = np.array(additive_generators(add) if gens is None else gens)
    return not any(scan(rows, cells, lambda lo, hi: broken(lo, hi).any())
                   for broken, rows, cells, _ in _law_blocks(add, act, radd, rmul, g))


def _scan_laws(structure, add, act, radd, rmul, messages, gens=None) -> None:
    """Every law but commutativity on the add and act tables over the scalar
    ring's, exactly: laws_proven at gens, and where it fails the locator,
    which reads the laws at every id and fails where loops over (a, b, c) for
    + associative, (r, s, m) for (r+s)m and (rs)m, then (r, m, n) for r(m+n)
    first fail; one message each."""
    if laws_proven(add, act, radd, rmul, gens):
        return
    for broken, rows, cells, first in _law_blocks(add, act, radd, rmul, np.arange(len(add))):
        hit = scan(rows, cells, lambda lo, hi: first_true(broken(lo, hi), lo))
        if hit is not None:
            raise AxiomError(f"{structure.descriptor}: "
                             + messages[first + hit[3]].format(*hit[:3]))


def _law_blocks(add, act, radd, rmul, g):
    """The four scanned laws with one id among the ids g of M (the middle one
    of (x+g)+y, the last elsewhere), as three groups of (block, rows, cells
    per row, the group's first message): block(lo, hi) masks, (row, id, id,
    law), where for the rows lo..hi-1 (x+g)+y != x+(g+y) at (x, g, y);
    (r+s)g != rg+sg, then (rs)g != r(sg), at (r, s, g); and r(m+g) != rm+rg
    at (r, m, g).  With g every id, these are the locator's loops."""
    nm, nr, k = len(add), len(radd), len(g)
    add_g, act_g = add[g], act[:, g]  # g+y and rg

    def assoc(lo, hi):
        return (add[add[lo:hi, g]] != np.take(add[lo:hi], add_g, axis=1))[..., None]

    def mixed(lo, hi):
        return np.stack([act_g[radd[lo:hi]] != add[act_g[lo:hi, None, :], act_g[None, :, :]],
                         act_g[rmul[lo:hi]] != np.take(act[lo:hi], act_g, axis=1)], axis=-1)

    def dist(lo, hi):
        ar = act[lo:hi]
        return (np.take(ar, add[:, g], axis=1)
                != add[ar[:, :, None], act_g[lo:hi, None, :]])[..., None]

    return zip((assoc, mixed, dist), (nm, nr, nr), (k * nm, 2 * k * nr, k * nm), (0, 1, 3))


def draw_families(rng: Random, count: int, families) -> list[np.ndarray]:
    """For each sizes of families, count rows of ids, column j below sizes[j]
    (modulo bias at most size / 2**64), from one randbytes call: a family
    takes whole 64-bit words and the generator's bytes do not depend on how
    they are asked for, so the rows are those of one call per family."""
    raw = np.frombuffer(rng.randbytes(8 * count * sum(map(len, families))), dtype="<u8")
    out, lo = [], 0
    for sizes in families:
        hi = lo + count * len(sizes)
        out.append((raw[lo:hi].reshape(count, len(sizes))
                    % np.array(sizes, dtype=np.uint64)).astype(np.int64))
        lo = hi
    return out


def first_broken(structure, samples: np.ndarray, laws, messages) -> None:
    """AxiomError at the first sample row (in draw order) breaking a law, then
    the first law: laws(*columns) gives one mask per law for a block of rows,
    and messages[law] is formatted with the row's ids.  A row costs
    structure.cells block cells.  A block is located only once one of its
    masks holds a True."""
    def block(lo, hi):
        masks = laws(*samples[lo:hi].T)
        return (first_true(np.stack(masks, axis=-1), lo)
                if any(map(np.count_nonzero, masks)) else None)

    hit = scan(len(samples), structure.cells, block)
    if hit is not None:
        raise AxiomError(f"{structure.descriptor}: "
                         + messages[hit[1]].format(*samples[hit[0]].tolist()))
