"""Finite unital rings addressed by dense integer element ids.

Every ring exposes total add/mul/neg operations on ids 0..size-1, the same
operations vadd/vmul/vneg over broadcasting numpy id arrays, and a
descriptor string that doubles as its canonical serialized form (the same
expressions the structure DSL parses).  Small rings store int32 operation
tables built by the vectorized operations; larger ones evaluate operations
structurally per call.  Matrix elements are indexed as base-|R| digit
strings over the shape's free positions in row-major order, first position
most significant, so id 0 is always the zero matrix when the base ring's
zero has id 0.

The array layer below (one mixed-radix codec, table building and the block
scan kernel) also carries the modules, nil sets and deciders.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache, reduce
from random import Random
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import EngineConfig, resolve
from .errors import (
    AxiomError,
    DecisionCapError,
    InvalidHomError,
    InvalidParameterError,
    SizeCapError,
)

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

    def __post_init__(self):
        if self.kind not in _SHAPE_PREFIX:
            raise InvalidParameterError(f"unknown matrix shape kind {self.kind!r}")
        if self.n < 1:
            raise InvalidParameterError(f"matrix dimension must be >= 1, got {self.n}")

    def free_positions(self) -> tuple[tuple[int, int], ...]:
        return _free_positions(self.kind, self.n)


@lru_cache(maxsize=None)
def _free_positions(kind: str, n: int) -> tuple[tuple[int, int], ...]:
    if kind == FULL:
        return tuple((i, j) for i in range(n) for j in range(n))
    if kind == UPPER:
        return tuple((i, j) for i in range(n) for j in range(n) if i <= j)
    if kind == SPECIAL_UPPER:
        return ((0, 0),) + tuple((i, j) for i in range(n) for j in range(n) if i < j)
    # v-type: one digit per power of the shift matrix
    return tuple((0, j) for j in range(n))


def shape_fill(shape: MatrixShape, positions, digits, zero):
    """Expand free-position digits into a full n-by-n entry grid."""
    n = shape.n
    rows = [[zero] * n for _ in range(n)]
    if shape.kind == SPECIAL_UPPER:
        diag = digits[0]
        for i in range(n):
            rows[i][i] = diag
        for (i, j), d in zip(positions[1:], digits[1:]):
            rows[i][j] = d
    elif shape.kind == V_TYPE:
        for k, d in enumerate(digits):
            for i in range(n - k):
                rows[i][i + k] = d
    else:
        for (i, j), d in zip(positions, digits):
            rows[i][j] = d
    return rows


def shape_read(shape: MatrixShape, positions, rows, zero, what: str = "matrix"):
    """Read free-position digits off an entry grid, validating admissibility."""
    n = shape.n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidParameterError(f"{what}: expected an {n}x{n} entry grid")
    kind = shape.kind
    if kind in (UPPER, SPECIAL_UPPER, V_TYPE):
        for i in range(n):
            for j in range(i):
                if rows[i][j] != zero:
                    raise InvalidParameterError(
                        f"{what}: entry ({i},{j}) below the diagonal must be zero for {kind}"
                    )
    if kind == SPECIAL_UPPER:
        d = rows[0][0]
        for i in range(1, n):
            if rows[i][i] != d:
                raise InvalidParameterError(f"{what}: diagonal entries must agree for {kind}")
    if kind == V_TYPE:
        for k in range(n):
            d = rows[0][k]
            for i in range(1, n - k):
                if rows[i][i + k] != d:
                    raise InvalidParameterError(
                        f"{what}: superdiagonal {k} must be constant for {kind}"
                    )
    return [rows[i][j] for (i, j) in positions]


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
        return np.asarray(ids)[..., None] // self.weights % self._radix

    def ids(self, digits) -> np.ndarray:
        """Ids of digit strings laid along the last axis."""
        return digits @ self.weights


# A block of a scan or a table build holds at most _BLOCK_CELLS cells, so
# temporaries stay small at any size; a structural op may take _OP_CELLS
# cells per id pair (a 4x4 matrix product grid), so its blocks are narrower.
_BLOCK_CELLS = 1 << 16
_OP_CELLS = 64


def row_blocks(rows: int, cells_per_row: int) -> list[tuple[int, int]]:
    step = max(1, _BLOCK_CELLS // max(1, cells_per_row))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def op_table(op, rows: int, cols: int) -> np.ndarray:
    """rows x cols int32 table of a vectorized op over all id pairs."""
    out = np.empty((rows, cols), dtype=np.int32)
    right = np.arange(cols)
    for lo, hi in row_blocks(rows, cols * _OP_CELLS):
        out[lo:hi] = op(np.arange(lo, hi)[:, None], right)
    return out


def table_ops(add: np.ndarray, op: np.ndarray, neg: np.ndarray):
    """Pointwise add/op/neg, then vectorized ones, over three tables; the
    pointwise ones index memoryviews of the rows (plain ints, no copies)."""
    add_rows, op_rows = [memoryview(r) for r in add], [memoryview(r) for r in op]
    return ((lambda a, b: add_rows[a][b]), (lambda a, b: op_rows[a][b]),
            memoryview(neg).__getitem__,
            (lambda a, b: add[a, b]), (lambda a, b: op[a, b]), neg.__getitem__)


def elementwise(op, *ids) -> np.ndarray:
    """A pointwise op applied across broadcast id arrays."""
    return np.vectorize(op, otypes=[np.int64])(*ids)


def digitwise(codec: MixedRadix, op, *ids) -> np.ndarray:
    """Ids whose digit strings are op applied to the operands' digit strings."""
    return codec.ids(op(*(codec.digits(x) for x in ids)))


def grid_product(a: np.ndarray, b: np.ndarray, vmul, vsum) -> np.ndarray:
    """Matrix product of id grids under an entry product (a ring's or an
    action) and an entry sum."""
    return vsum(vmul(a[..., :, :, None], b[..., None, :, :]), -2)


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


class FiniteRing:
    """Base class: a finite associative ring with identity on ids 0..size-1."""

    zero: int
    one: int

    def __init__(self, size: int, descriptor: str, config: EngineConfig):
        if size < 1:
            raise InvalidParameterError(f"ring size must be positive, got {size}")
        if size > config.construction_cap:
            raise SizeCapError(
                f"{descriptor}: size {size} exceeds the construction cap "
                f"{config.construction_cap}",
                config.construction_cap,
            )
        self.size = size
        self.descriptor = descriptor
        self.config = config
        self.tabulated = False
        self._add_rows = None
        self._mul_rows = None
        self._neg_row = None
        self._commutative: bool | None = None

    # Structural operations supplied by subclasses: either the pointwise
    # _add/_mul/_neg on ids or the vectorized _vadd/_vmul/_vneg on id
    # arrays.  Each falls back on its partner.
    def _add(self, a: int, b: int) -> int:
        return int(self._vadd(a, b))

    def _mul(self, a: int, b: int) -> int:
        return int(self._vmul(a, b))

    def _neg(self, a: int) -> int:
        return int(self._vneg(a))

    def _vadd(self, a, b):
        return elementwise(self._add, a, b)

    def _vmul(self, a, b):
        return elementwise(self._mul, a, b)

    def _vneg(self, a):
        return elementwise(self._neg, a)

    def _seal(self, validate: bool = True) -> None:
        """Finalize construction: reject the trivial ring, bind ops, validate."""
        if self.zero == self.one:
            raise InvalidParameterError(
                f"{self.descriptor}: the trivial ring (0 = 1) is rejected"
            )
        n = self.size
        if n <= self.config.tabulate_threshold:
            add, mul = op_table(self._vadd, n, n), op_table(self._vmul, n, n)
            neg = self._vneg(np.arange(n)).astype(np.int32)
            self._add_rows, self._mul_rows, self._neg_row = add, mul, neg
            (self.add, self.mul, self.neg,
             self.vadd, self.vmul, self.vneg) = table_ops(add, mul, neg)
            self.tabulated = True
        else:
            self.add, self.mul, self.neg = self._add, self._mul, self._neg
            self.vadd, self.vmul, self.vneg = self._vadd, self._vmul, self._vneg
        if validate:
            check_ring_axioms(self)

    # Bound at seal time; declared for introspection.
    add: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    neg: Callable[[int], int]

    def vsum(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Sum of an id array along one axis."""
        return reduce(self.vadd, np.moveaxis(x, axis, 0))

    def add_table(self) -> np.ndarray:
        """The addition table: the stored one, else built from the ops."""
        return self._add_rows if self.tabulated else op_table(self.vadd, self.size, self.size)

    def mul_table(self) -> np.ndarray:
        return self._mul_rows if self.tabulated else op_table(self.vmul, self.size, self.size)

    def squares(self) -> np.ndarray:
        """t * t for every element t."""
        return np.concatenate([self.vmul(t, t) for t in (
            np.arange(lo, hi) for lo, hi in row_blocks(self.size, _OP_CELLS))])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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

    def elements(self) -> range:
        return range(self.size)

    def render(self, a: int) -> str:
        return str(a)

    def is_commutative(self) -> bool:
        if self._commutative is None:
            pairs = self.size * self.size
            if (not self.tabulated and pairs > self.config.decision_cap
                    and not self.config.force):
                raise DecisionCapError(
                    f"{self.descriptor}: commutativity scan of {pairs} pairs "
                    f"exceeds cap {self.config.decision_cap}",
                    self.config.decision_cap,
                )
            self._commutative = bool(_commuting(self).all())
        return self._commutative

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor} size={self.size}>"


# ---------------------------------------------------------------------------
# Concrete ring families


class ZnRing(FiniteRing):
    """Integers modulo n; element id k is the residue k."""

    def __init__(self, n: int, config: EngineConfig | None = None):
        config = resolve(config)
        if n < 2:
            raise InvalidParameterError(f"Z(n) needs n >= 2, got {n}")
        self.n = n
        super().__init__(n, f"Z({n})", config)
        self.zero = 0
        self.one = 1
        self._seal()

    # plain arithmetic serves ints and (int64) id arrays alike
    def _add(self, a, b):
        return (a + b) % self.n

    def _mul(self, a, b):
        return (a * b) % self.n

    def _neg(self, a):
        return (-a) % self.n

    _vadd, _vmul, _vneg = _add, _mul, _neg

    def vsum(self, x, axis):
        return x.sum(axis, dtype=np.int64) % self.n


class _MatrixLayout:
    """Base-|B| digits over one shape's free positions, shared by matrix
    rings and matrix modules; grid() and ungrid() convert whole id arrays to
    entry grids and back."""

    def _lay_out(self, shape: MatrixShape, entries) -> None:
        self.shape = shape
        self.positions = shape.free_positions()
        p = len(self.positions)
        self.codec = MixedRadix([entries.size] * p)
        self._entry_zero = entries.zero
        digit = np.array(shape_fill(shape, self.positions, range(p), -1))
        self._forced = digit < 0
        # an id divided by a weight past its top digit reads digit 0
        self._cell_weight = np.where(self._forced, entries.size ** p,
                                     self.codec.weights[digit])
        self._free = tuple(np.array(ix) for ix in zip(*self.positions))

    def grid(self, ids) -> np.ndarray:
        """Entry ids of each element as an n x n grid on two new last axes."""
        cells = np.asarray(ids)[..., None, None] // self._cell_weight % self.codec.radices[0]
        if self._entry_zero:
            cells = np.where(self._forced, self._entry_zero, cells)
        return cells

    def ungrid(self, cells: np.ndarray) -> np.ndarray:
        """Ids of entry grids lying in the shape."""
        return self.codec.ids(cells[(..., *self._free)])

    def _vadd(self, a, b):
        return digitwise(self.codec, self.base.vadd, a, b)

    def _vneg(self, a):
        return digitwise(self.codec, self.base.vneg, a)

    def entries(self, eid: int):
        """Full n-by-n grid of base ids for one element."""
        return shape_fill(self.shape, self.positions, self.codec.decode(eid),
                          self._entry_zero)

    def from_entries(self, rows) -> int:
        """Element id of an entry grid; rejects grids outside the shape."""
        digits = shape_read(self.shape, self.positions, rows, self._entry_zero,
                            what=getattr(self, "descriptor", "matrix"))
        return self.codec.encode(digits)

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

    def _render_grid(self, eid: int, render_entry) -> str:
        rows = self.entries(eid)
        return "[" + ", ".join(
            "[" + ", ".join(render_entry(x) for x in row) + "]" for row in rows
        ) + "]"


class MatrixRing(_MatrixLayout, FiniteRing):
    """Matrices over a base ring restricted to one shape's free positions."""

    def __init__(self, shape: MatrixShape, base: FiniteRing,
                 config: EngineConfig | None = None):
        config = resolve(config)
        self.base = base
        size = base.size ** len(shape.free_positions())
        prefix = _SHAPE_PREFIX[shape.kind]
        super().__init__(size, f"{prefix}({shape.n}, {base.descriptor})", config)
        self._lay_out(shape, base)
        self.zero = self.codec.encode([base.zero] * len(self.positions))
        self.one = self.scalar(base.one)
        self._seal()

    def _vmul(self, a, b):
        base = self.base
        return self.ungrid(grid_product(self.grid(a), self.grid(b),
                                        base.vmul, base.vsum))

    def render(self, a):
        return self._render_grid(a, self.base.render)


class ProductRing(FiniteRing):
    """Componentwise product of finitely many rings."""

    def __init__(self, factors: Sequence[FiniteRing], config: EngineConfig | None = None):
        config = resolve(config)
        factors = tuple(factors)
        if not factors:
            raise InvalidParameterError("product ring needs at least one factor")
        self.factors = factors
        size = math.prod(f.size for f in factors)
        descriptor = "prod(" + ", ".join(f.descriptor for f in factors) + ")"
        super().__init__(size, descriptor, config)
        self.codec = MixedRadix(f.size for f in factors)
        self.zero = self.codec.encode([f.zero for f in factors])
        self.one = self.codec.encode([f.one for f in factors])
        self._seal()

    def _vadd(self, a, b):
        return componentwise(self.codec, [f.vadd for f in self.factors], a, b)

    def _vmul(self, a, b):
        return componentwise(self.codec, [f.vmul for f in self.factors], a, b)

    def _vneg(self, a):
        return componentwise(self.codec, [f.vneg for f in self.factors], a)

    def render(self, a):
        comps = self.codec.decode(a)
        return "(" + ", ".join(f.render(c) for f, c in zip(self.factors, comps)) + ")"


class PolyQuotientRing(FiniteRing):
    """Polynomials over a base ring truncated at degree n (x^n = 0).

    Elements are coefficient tuples (c0, ..., c_{n-1}); products drop every
    term of degree n or higher.
    """

    def __init__(self, base: FiniteRing, n: int, config: EngineConfig | None = None):
        config = resolve(config)
        if n < 1:
            raise InvalidParameterError(f"polyq needs degree bound >= 1, got {n}")
        self.base = base
        self.degree = n
        super().__init__(base.size ** n, f"polyq({base.descriptor}, {n})", config)
        self.codec = MixedRadix([base.size] * n)
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

    def _vadd(self, a, b):
        return digitwise(self.codec, self.base.vadd, a, b)

    def _vneg(self, a):
        return digitwise(self.codec, self.base.vneg, a)

    def _vmul(self, a, b):
        # truncated convolution: c_k is the sum of a_i * b_(k-i) over i <= k,
        # so row i of the shifted b holds the coefficients of x^i b
        base, shift = self.base, self._shift
        shifted = np.where(shift >= 0, self.codec.digits(b)[..., shift], base.zero)
        return self.codec.ids(base.vsum(
            base.vmul(self.codec.digits(a)[..., :, None], shifted), -2))

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


def make_zn(n: int, config: EngineConfig | None = None) -> ZnRing:
    """The ring of integers mod n, n >= 2."""
    return ZnRing(n, config)


def make_matrix_ring(shape: MatrixShape, base: FiniteRing,
                     config: EngineConfig | None = None) -> MatrixRing:
    """Matrices of one shape over a base ring."""
    return MatrixRing(shape, base, config)


def make_product_ring(factors: Sequence[FiniteRing],
                      config: EngineConfig | None = None) -> ProductRing:
    """Componentwise product of the given rings."""
    return ProductRing(factors, config)


def make_poly_quotient_ring(base: FiniteRing, n: int,
                            config: EngineConfig | None = None) -> PolyQuotientRing:
    """Truncated polynomial ring with x^n = 0."""
    return PolyQuotientRing(base, n, config)


# ---------------------------------------------------------------------------
# Derived element sets


def center(ring: FiniteRing) -> frozenset[int]:
    """Elements commuting with the whole ring, computed exhaustively."""
    pairs = ring.size * ring.size
    if pairs > ring.config.decision_cap and not ring.config.force:
        raise DecisionCapError(
            f"{ring.descriptor}: center scan of {pairs} pairs exceeds cap "
            f"{ring.config.decision_cap}",
            ring.config.decision_cap,
        )
    return frozenset(np.flatnonzero(_commuting(ring)).tolist())


def _against_all(ring: FiniteRing, test) -> np.ndarray:
    """For each element s, whether test(s, r) holds for every element r."""
    ids = np.arange(ring.size)
    return np.concatenate([test(ids[lo:hi, None], ids).all(axis=1)
                           for lo, hi in row_blocks(ring.size, ring.size * _OP_CELLS)])


def _commuting(ring: FiniteRing) -> np.ndarray:
    return _against_all(ring, lambda c, r: ring.vmul(c, r) == ring.vmul(r, c))


def regular_elements(ring: FiniteRing) -> frozenset[int]:
    """Nonzero elements that are neither left nor right zero divisors."""
    mul, zero = ring.vmul, ring.zero
    regular = _against_all(ring, lambda s, r: (r == zero) | (
        (mul(s, r) != zero) & (mul(r, s) != zero)))
    regular[zero] = False
    return frozenset(np.flatnonzero(regular).tolist())


def nil_ring_set(ring: FiniteRing) -> frozenset[int]:
    """Elements with a^k = 0 for some k >= 1, by power iteration."""
    return frozenset(a for a in ring.elements()
                     if nilpotency_degree(ring, a) is not None)


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
    pairs = source.size * source.size
    if pairs > source.config.decision_cap and not source.config.force:
        raise DecisionCapError(
            f"hom validation over {pairs} pairs exceeds cap "
            f"{source.config.decision_cap}",
            source.config.decision_cap,
        )
    hit = _first_broken_pair(source, target, table)
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
    config = resolve(config)
    vring = make_matrix_ring(MatrixShape(V_TYPE, n), base, config)
    pring = make_poly_quotient_ring(base, n, config)
    pairs = vring.size * vring.size
    if pairs > config.decision_cap and not config.force:
        raise DecisionCapError(
            f"theta check over {pairs} pairs exceeds cap {config.decision_cap}",
            config.decision_cap,
        )
    theta = [pring.from_coefficients(vring.codec.decode(a)) for a in vring.elements()]
    if len(set(theta)) != vring.size or vring.size != pring.size:
        return False
    if theta[vring.zero] != pring.zero or theta[vring.one] != pring.one:
        return False
    return _first_broken_pair(vring, pring, theta) is None


def _first_broken_pair(source: FiniteRing, target: FiniteRing, table):
    """Least (a, b, law) where the id map breaks a + b (law 0) or a * b
    (law 1), or None when it preserves both."""
    t = np.asarray(table)
    ids = np.arange(source.size)

    def broken(lo, hi):
        a = ids[lo:hi, None]
        return np.stack([t[source.vadd(a, ids)] != target.vadd(t[a], t),
                         t[source.vmul(a, ids)] != target.vmul(t[a], t)], axis=-1)

    return scan(source.size, 2 * source.size * _OP_CELLS,
                lambda lo, hi: first_true(broken(lo, hi), lo))


# ---------------------------------------------------------------------------
# Axiom validation


_RING_LAWS = ("add not associative", "mul not associative",
              "left distributivity fails", "right distributivity fails")


def check_ring_axioms(ring: FiniteRing, exhaustive: bool | None = None,
                      samples: int | None = None) -> None:
    """Verify the ring axioms, raising AxiomError on the first failure.

    exhaustive=None picks a regime from the construction budget: a full
    triple scan when size^3 fits, sampling otherwise.  exhaustive=True
    forces the full scan (guarded by the decision cap).
    """
    cfg = ring.config
    n = ring.size
    desc = ring.descriptor
    over_cap = n ** 3 > cfg.decision_cap and not cfg.force
    if exhaustive is None:
        # auto regime: full when the budget and the cap both allow it
        exhaustive = (ring.tabulated and n ** 3 <= cfg.full_check_budget
                      and not over_cap)
    elif exhaustive and over_cap:
        raise DecisionCapError(
            f"{desc}: full axiom scan of {n ** 3} triples exceeds cap "
            f"{cfg.decision_cap}",
            cfg.decision_cap,
        )

    if ring.tabulated or exhaustive:
        add, mul = ring.add_table(), ring.mul_table()
        ar = np.arange(n)
        neg = ring.vneg(ar)
        for name, t in (("add", add), ("mul", mul)):
            if t.min() < 0 or t.max() >= n:
                raise AxiomError(f"{desc}: {name} table has out-of-range ids")
        if not (add == add.T).all():
            a, b = first_true(add != add.T)
            raise AxiomError(f"{desc}: add is not commutative at ({a}, {b})")
        if not (add[ring.zero] == ar).all():
            raise AxiomError(f"{desc}: zero is not an additive identity")
        if not (add[ar, neg] == ring.zero).all():
            raise AxiomError(f"{desc}: neg does not give additive inverses")
        if not (mul[ring.one] == ar).all() or not (mul[:, ring.one] == ar).all():
            raise AxiomError(f"{desc}: one is not a multiplicative identity")
        if exhaustive:
            mul_t = mul.T

            def broken(lo, hi):
                # (a, law, b, c) order: every law for one a before the next a
                pa, ma, mt = add[lo:hi], mul[lo:hi], mul_t[lo:hi]
                return np.stack([
                    add[pa] != np.take(pa, add, axis=1),
                    mul[ma] != np.take(ma, mul, axis=1),
                    np.take(ma, add, axis=1) != add[ma[:, :, None], ma[:, None, :]],
                    np.take(mt, add, axis=1) != add[mt[:, :, None], mt[:, None, :]],
                ], axis=1)

            hit = scan(n, 4 * n * n, lambda lo, hi: first_true(broken(lo, hi), lo))
            if hit is not None:
                a, law, b, c = hit
                raise AxiomError(f"{desc}: {_RING_LAWS[law]} at ({a}, {b}, {c})")
            return

    # Sampled regime: spot identities plus random triples.
    add_op, mul_op, neg_op = ring.add, ring.mul, ring.neg
    zero, one = ring.zero, ring.one
    rng = Random(_stable_seed(cfg, desc))
    count = samples if samples is not None else cfg.validation_samples
    if n <= count:
        unit_iter: Iterable[int] = range(n)
    else:
        unit_iter = (rng.randrange(n) for _ in range(count))
    for a in unit_iter:
        if add_op(zero, a) != a:
            raise AxiomError(f"{desc}: zero is not an additive identity at {a}")
        if add_op(a, neg_op(a)) != zero:
            raise AxiomError(f"{desc}: neg fails at {a}")
        if mul_op(one, a) != a or mul_op(a, one) != a:
            raise AxiomError(f"{desc}: one is not a multiplicative identity at {a}")
    for _ in range(count):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if add_op(a, b) != add_op(b, a):
            raise AxiomError(f"{desc}: add is not commutative at ({a}, {b})")
        if add_op(add_op(a, b), c) != add_op(a, add_op(b, c)):
            raise AxiomError(f"{desc}: add not associative at ({a}, {b}, {c})")
        if mul_op(mul_op(a, b), c) != mul_op(a, mul_op(b, c)):
            raise AxiomError(f"{desc}: mul not associative at ({a}, {b}, {c})")
        if mul_op(a, add_op(b, c)) != add_op(mul_op(a, b), mul_op(a, c)):
            raise AxiomError(f"{desc}: left distributivity fails at ({a}, {b}, {c})")
        if mul_op(add_op(b, c), a) != add_op(mul_op(b, a), mul_op(c, a)):
            raise AxiomError(f"{desc}: right distributivity fails at ({a}, {b}, {c})")
