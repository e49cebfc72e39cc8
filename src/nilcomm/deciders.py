"""Deciders for the module and ring semicommutativity properties.

Each property follows one pattern: a trigger on am (zero, or nilpotent)
forces a condition on aRm.  _PROPERTIES defines each module property once,
as a row of three tests over id arrays: the trigger's multiplier (a, or a^2),
the trigger test on that product times m, and the violation test on x = rm
given a.  Two evaluators read the table:

- decide scans the full (a, r, m) space over the action table and returns a
  Verdict: holds, or fails with the lexicographically least violating triple
  in (a, m, r) order.  r enters a row only through the orbit Rm, so the
  scan packs the rows a into 64-bit words and tests 64 of them at once
  against a whole orbit.  Above the decision cap (counted in nominal
  (a, r, m) triples) it refuses unless the config sets force.  The ring
  deciders run the same scan over the multiplication table.
- replay evaluates a row on given triples through vact/vmul, with nil
  membership by the squared criterion, so nothing is tabulated and no size
  limit applies.  The two witness verifiers are one call into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import EngineConfig, resolve
from .errors import InvalidParameterError
from .modules import FiniteModule
from .nilpotency import nil_set, squared_killers
from .rings import FiniteRing, nil_ring_set, row_blocks

PROP_SEMICOMMUTATIVE = "semicommutative"
PROP_WEAKLY = "weakly-semicommutative"
PROP_NIL_SEMI = "nil-semicommutative"
PROP_REDUCED_I = "reduced-i"
PROP_REDUCED_II = "reduced-ii"
PROP_RING_SEMI = "ring-semicommutative"
PROP_RING_NIL_SEMI = "ring-nil-semicommutative"

METHOD_EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property decision.

    witness is the violating triple (a, r, m) when holds is False.
    """

    property: str
    holds: bool
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


# the witness kinds of a violating triple, each with the property its replay
# tests
TRIPLE_KINDS = {"not-semicommutative": PROP_SEMICOMMUTATIVE,
                "not-nil-semicommutative": PROP_NIL_SEMI}
_TRIPLE_KIND_OF = {prop: kind for kind, prop in TRIPLE_KINDS.items()}


def triple_witness(prop: str, descriptor: str, triple,
                   expect: bool | None = None) -> dict:
    """The witness payload of a refuted claim for the violating triple
    (a, r, m) of one property on the module named by descriptor.

    A semicommutativity violation replays as one; a weak or a
    nil-semicommutativity violation (am is nilpotent in both) replays as a
    nil-semicommutativity violation.  expect, when given, is what the
    replay must return."""
    a, r, m = triple
    kind = _TRIPLE_KIND_OF.get(prop, _TRIPLE_KIND_OF[PROP_NIL_SEMI])
    payload = {"kind": kind, "descriptor": descriptor, "a": a, "r": r, "m": m}
    if expect is not None:
        payload["expect"] = expect
    return payload


def _renders(ring: FiniteRing, target, triple) -> tuple[str, str, str]:
    """The triple (a, r, m) rendered: a and r in the ring, m in the target."""
    a, r, m = triple
    return (ring.render(a), ring.render(r), target.render(m))


# ---------------------------------------------------------------------------
# The property table


class _Property(NamedTuple):
    """One module property: (a, r, m) violates it when trigger(multiplier(a)
    * m) holds and violation(a, r * m) does.  Each test takes its
    evaluator's ops and id arrays, and returns a bool array."""

    multiplier: Callable
    trigger: Callable
    violation: Callable


def _a(ops, a):
    return a


def _a_squared(ops, a):
    return ops.mul(a, a)


def _is_zero(ops, y):
    return y == ops.zero


def _is_nil(ops, y):
    return ops.nil(y)


def _ax_nonzero(ops, a, x):
    return ops.act(a, x) != ops.zero


def _ax_not_nil(ops, a, x):
    return ~ops.nil(ops.act(a, x))


def _nonzero_in_image(ops, a, x):
    return (x != ops.zero) & ops.in_image(a, x)


_PROPERTIES = {
    PROP_SEMICOMMUTATIVE: _Property(_a, _is_zero, _ax_nonzero),
    PROP_WEAKLY: _Property(_a, _is_zero, _ax_not_nil),
    PROP_NIL_SEMI: _Property(_a, _is_nil, _ax_not_nil),
    PROP_REDUCED_I: _Property(_a_squared, _is_zero, _ax_nonzero),
    PROP_REDUCED_II: _Property(_a, _is_zero, _nonzero_in_image),
}
MODULE_PROPERTIES = tuple(_PROPERTIES)

# the ring acting on itself, under the module rows
_RING_ROWS = {PROP_RING_SEMI: PROP_SEMICOMMUTATIVE, PROP_RING_NIL_SEMI: PROP_NIL_SEMI}


def _row(prop: str) -> _Property:
    if prop not in _PROPERTIES:
        raise InvalidParameterError(f"unknown module property {prop!r}")
    return _PROPERTIES[prop]


# ---------------------------------------------------------------------------
# The exhaustive scan over an action table


class _TableOps:
    """The scan's ops: products read from the action table, whose rows are
    every a (a column) and whose columns every x of M; nil flags computed on
    first use."""

    def __init__(self, table: np.ndarray, zero: int, mul, nil_flags):
        self.table, self.zero, self.mul = table, zero, mul
        self.rows = np.arange(table.shape[0])[:, None]
        self.cols = np.arange(table.shape[1])
        self._nil_flags, self._flags = nil_flags, None

    def act(self, a, x):
        # every row against every column is the table itself, not a gather
        return self.table if a is self.rows and x is self.cols else self.table[a, x]

    def nil(self, y):
        if self._flags is None:
            self._flags = self._nil_flags()
        # numpy indexes by intp; converting the int32 ids here is faster than
        # letting the fancy index convert them
        return self._flags[y.astype(np.intp)]

    def in_image(self, a, x):
        """x in aM, for a column a of rows and a row x of ids."""
        rows = self.act(a, self.cols)
        image = np.zeros(rows.shape, dtype=bool)
        np.put_along_axis(image, rows, True, axis=1)
        return image[:, x]


def _lanes(mask: np.ndarray) -> np.ndarray:
    """The columns of a bool mask as bit sets over its rows: entry [x, w]
    holds mask[64w:64w+64, x] in a uint64 word whose byte j, bit i, is row
    64w + 8j + i (see _least_bit); rows padded with zero bits to a multiple
    of 64."""
    packed = np.packbits(np.ascontiguousarray(mask.T), axis=1, bitorder="little")
    out = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view(np.uint64)


def _scan(ops: _TableOps, row: _Property):
    """Least violation (a, m, r) of a property row over the table, or None.

    The trigger hot[a, m] and bad[a, x] (the violation test on x = r*m) are
    evaluated once, for every row a over all of M, and packed along a: one
    uint64 word holds a column's bits for 64 rows.  (a, m) violates iff
    hot[a, m] and bad[a, r*m] for some r, so OR-ing bad's words at act[:, m]
    over r tests 64 rows at once against the whole orbit Rm.  That gathers
    |R| |M| ceil(|R|/64) words where a gather per triple visits |R|^2 |M|
    cells: never more, on any shape of table, so there is no other path.
    Words of rows run in order and stop at the first with a hit; its least
    row, then least column, is the least (a, m), and the least r is the
    first bad cell of a's row at act[:, m].

    Memory: the two packed masks take 8 ceil(|R|/64) bytes a column, at most
    the int32 table's 4 |R| once |R| >= 2; a block's index and gathered
    words take 8 bytes a cell each, so blocks are sized in bytes."""
    act, a, every = ops.table, ops.rows, ops.cols
    hot = row.trigger(ops, ops.act(row.multiplier(ops, a), every))
    bad = row.violation(ops, a, every)
    hot_words, bad_words = _lanes(hot), _lanes(bad)
    for w in range(hot_words.shape[1]):
        hits, lane = hot_words[:, w].copy(), bad_words[:, w].copy()
        for lo, hi in row_blocks(len(hits), 8 * len(act)):
            hits[lo:hi] &= np.bitwise_or.reduce(lane[act[:, lo:hi].astype(np.intp)], axis=0)
        hit = _least_bit(hits)
        if hit is not None:
            a, m = 64 * w + hit[0], hit[1]
            return a, m, int(bad[a, act[:, m]].argmax())
    return None


def _least_bit(words: np.ndarray):
    """(bit, index): the least bit set in any of the words, as packed by
    _lanes, then the least word with it; or None."""
    if not words.any():
        return None
    bit = int(np.unpackbits(np.bitwise_or.reduce(words).reshape(1).view(np.uint8),
                            bitorder="little").argmax())
    byte = words.view(np.uint8).reshape(len(words), 8)[:, bit // 8]
    return bit, int(np.flatnonzero(byte >> (bit % 8) & 1)[0])


def decide(module: FiniteModule, prop: str,
           config: EngineConfig | None = None) -> Verdict:
    """Decide one module property by exhaustive scan; above the decision cap
    it refuses with DecisionCapError unless the config sets force."""
    cfg = resolve(config, module)
    row = _row(prop)
    desc = module.descriptor
    triples = module.ring.size ** 2 * module.size
    cfg.refuse_above_cap(triples, f"{desc}: {prop} scan of {triples} (a, r, m) triples")
    act = module.act_table()
    hit = _scan(_TableOps(act, module.zero, module.ring.vmul,
                          lambda: nil_set(module, cfg).flags), row)
    if hit is None:
        return Verdict(prop, True, METHOD_EXHAUSTIVE, None, desc)
    a, m, r = hit
    expl = ""
    if prop == PROP_REDUCED_II:
        # r*m = a*x != 0 for the least such x
        w = int(act[r, m])
        x = int(np.flatnonzero(act[a] == w)[0])
        expl = f"a*x = r*m = {module.render(w)} != 0 with x = {module.render(x)}"
    return Verdict(prop, False, METHOD_EXHAUSTIVE, (a, r, m), desc,
                   explanation=expl,
                   witness_render=_renders(module.ring, module, (a, r, m)))


def is_semicommutative(module, config=None) -> Verdict:
    """am = 0 forces aRm = 0."""
    return decide(module, PROP_SEMICOMMUTATIVE, config)


def is_weakly_semicommutative(module, config=None) -> Verdict:
    """am = 0 forces aRm inside the nil set."""
    return decide(module, PROP_WEAKLY, config)


def is_nil_semicommutative(module, config=None) -> Verdict:
    """am nilpotent forces aRm inside the nil set."""
    return decide(module, PROP_NIL_SEMI, config)


def is_reduced_i(module, config=None) -> Verdict:
    """a^2 m = 0 forces aRm = 0."""
    return decide(module, PROP_REDUCED_I, config)


def is_reduced_ii(module, config=None) -> Verdict:
    """am = 0 forces aM and Rm to intersect only in zero."""
    return decide(module, PROP_REDUCED_II, config)


def _decide_ring(ring: FiniteRing, prop: str,
                 config: EngineConfig | None = None) -> Verdict:
    cfg = resolve(config, ring)
    desc = ring.descriptor
    cfg.refuse_above_cap(ring.size ** 3, f"{desc}: {prop} scan of {ring.size ** 3} triples")
    hit = _scan(_TableOps(ring.mul_table(), ring.zero, ring.vmul,
                          lambda: nil_ring_set(ring, cfg)),
                _PROPERTIES[_RING_ROWS[prop]])
    if hit is None:
        return Verdict(prop, True, METHOD_EXHAUSTIVE, None, desc)
    a, b, r = hit
    return Verdict(prop, False, METHOD_EXHAUSTIVE, (a, r, b), desc,
                   witness_render=_renders(ring, ring, (a, r, b)))


def ring_is_semicommutative(ring: FiniteRing, config=None) -> Verdict:
    """ab = 0 forces aRb = 0."""
    return _decide_ring(ring, PROP_RING_SEMI, config)


def ring_is_nil_semicommutative(ring: FiniteRing, config=None) -> Verdict:
    """ab nilpotent forces aRb nilpotent."""
    return _decide_ring(ring, PROP_RING_NIL_SEMI, config)


# ---------------------------------------------------------------------------
# Replay of given triples (no size restriction)


class _PointwiseOps:
    """The replay's ops: products through vact/vmul, nil membership by the
    squared criterion; nothing is tabulated."""

    def __init__(self, module: FiniteModule):
        self.module, self.zero = module, module.zero
        self.act, self.mul = module.vact, module.ring.vmul

    def nil(self, y):
        return (y == self.zero) | (squared_killers(self.module, y) >= 0)

    def in_image(self, a, x):
        """x in aM for each pair of id arrays a and x, over blocks of M."""
        module = self.module
        found = np.zeros(len(a), dtype=bool)
        for lo, hi in row_blocks(module.size, len(a) * module.cells):
            found |= (self.act(a[:, None], np.arange(lo, hi)) == x[:, None]).any(axis=1)
        return found


def replay(module: FiniteModule, prop: str, a, r, m) -> np.ndarray:
    """Where the triples (a, r, m), given as equal-length id arrays, violate
    prop on module; the violation test runs on triggered triples only."""
    row, ops = _row(prop), _PointwiseOps(module)
    a, r, m = np.asarray(a), np.asarray(r), np.asarray(m)
    module.ring.check_ids(a, r)
    module.check_ids(m)
    hot = np.flatnonzero(row.trigger(ops, ops.act(row.multiplier(ops, a), m)))
    out = np.zeros(len(a), dtype=bool)
    out[hot] = row.violation(ops, a[hot], ops.act(r[hot], m[hot]))
    return out


def verify_nonsemicommutative_witness(module: FiniteModule, a: int, r: int,
                                      m: int) -> bool:
    """True when am = 0 yet a(rm) != 0: a semicommutativity violation."""
    return bool(replay(module, PROP_SEMICOMMUTATIVE, [a], [r], [m])[0])


def verify_not_nil_semicommutative_witness(module: FiniteModule, a: int, r: int,
                                           m: int) -> bool:
    """True when am is nilpotent yet a(rm) is not: a nil-semicommutativity
    violation, nilpotency decided by the squared criterion over the ring."""
    return bool(replay(module, PROP_NIL_SEMI, [a], [r], [m])[0])
