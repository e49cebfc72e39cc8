"""Deciders for the module and ring semicommutativity properties.

Each property follows one pattern: a trigger on am (zero, or nilpotent)
forces a condition on aRm.  _PROPERTIES defines each module property once,
as a row of two tests over id arrays: the trigger on am (or a^2 m), and the
violation on x = rm given a.  The five rows share three triggers and three
violations, two of these a trigger's complement (_Not).  Two evaluators:

- decide scans the full (a, r, m) space over the action table and returns a
  Verdict: holds, or fails with the lexicographically least violating triple
  in (a, m, r) order.  r enters a row only through the orbit Rm, so the
  scan packs the rows a into 64-bit words and tests 64 of them at once
  against a whole orbit.  Above the decision cap (counted in nominal
  (a, r, m) triples) it refuses unless the config sets force.  Its scan
  state builds the table, each test's words (a complement's are its
  trigger's, inverted) and each word's orbit OR once, on first use.
  decide_many hands one state to a decide call per property: each still
  checks the cap before it builds anything and is the unit timed and counted
  per property.  The ring deciders run the scan over the mul table.
- replay evaluates a row on given triples through vact/vmul, with nil
  membership by the squared criterion, so nothing is tabulated and no size
  limit applies.  The two witness verifiers are one call into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """One module property: (a, r, m) violates it when trigger(a, m) holds
    and violation(a, r * m) does.  Each test takes its evaluator's ops and
    id arrays, and returns a bool array."""

    trigger: Callable
    violation: Callable


def _is_zero(ops, y):
    return y == ops.zero


def _is_nil(ops, y):
    return ops.nil(y)


class _On(NamedTuple):
    """The trigger "test holds at a*m", or at a^2*m when squared."""

    test: Callable
    squared: bool = False

    def __call__(self, ops, a, m):
        return self.test(ops, ops.act(ops.mul(a, a) if self.squared else a, m))


class _Not(NamedTuple):
    """The violation "the trigger (one on a*m) fails at (a, x)"."""

    trigger: _On

    def __call__(self, ops, a, x):
        return ~self.trigger(ops, a, x)


def _nonzero_in_image(ops, a, x):
    return (x != ops.zero) & ops.in_image(a, x)


_ZERO, _NIL = _On(_is_zero), _On(_is_nil)
_EVERY_ROW = lambda ops, a, x: np.ones((len(a), 1), dtype=bool)  # its words: the rows' bits
_PROPERTIES = {
    PROP_SEMICOMMUTATIVE: _Property(_ZERO, _Not(_ZERO)),
    PROP_WEAKLY: _Property(_ZERO, _Not(_NIL)),
    PROP_NIL_SEMI: _Property(_NIL, _Not(_NIL)),
    PROP_REDUCED_I: _Property(_On(_is_zero, squared=True), _Not(_ZERO)),
    PROP_REDUCED_II: _Property(_ZERO, _nonzero_in_image),
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


class _ScanState:
    """The scan's ops over an action table (rows every a, columns every x of
    M; a test's x is always every column), and what it builds on first use
    and keeps for every property decided over it: the table, nil flags,
    tests' packed masks and orbit ORs."""

    def __init__(self, table: Callable, target, ring: FiniteRing, nil_flags: Callable):
        self._table, self.zero, self.mul = table, target.zero, ring.vmul
        self.rows, self.cols = np.arange(ring.size), np.arange(target.size)
        self._nil_flags, self._flags, self._packed, self._orbits = nil_flags, None, {}, {}

    @cached_property
    def table(self) -> np.ndarray:
        return self._table()

    def act(self, a, x):
        # rows of the table: every row is the table itself, not a gather
        return self.table if a is self.rows else self.table[a]

    def nil(self, y):
        if self._flags is None:
            self._flags = self._nil_flags()
        # numpy indexes by intp; converting the int32 ids here is faster than
        # letting the fancy index convert them
        return self._flags[y.astype(np.intp)]

    def in_image(self, a, x):
        """x in aM, for the rows a and every x: set at each flat (a, a*x)."""
        at = self.act(a, x).astype(np.intp)
        at += np.arange(0, at.size, at.shape[1])[:, None]
        image = np.zeros(at.size, dtype=bool)
        image[at.ravel()] = True
        return image.reshape(at.shape)

    def packed(self, test):
        """(mask, words): a test at every row a and column, and its words (see
        _lanes); a _Not's are its trigger's inverted within the rows."""
        if test not in self._packed:
            if isinstance(test, _Not):
                mask, words = self.packed(test.trigger)
                self._packed[test] = ~mask, ~words & self.packed(_EVERY_ROW)[1]
            else:
                mask = test(self, self.rows, self.cols)
                self._packed[test] = mask, _lanes(mask)
        return self._packed[test]

    def orbit(self, violation, w: int) -> np.ndarray:
        """Entry m: the OR of the violation's word w over the orbit Rm, in
        blocks of columns sized in bytes (8 a cell each for index and word)."""
        if (violation, w) not in self._orbits:
            lane, act = self.packed(violation)[1][:, w].copy(), self.table
            out = self._orbits[violation, w] = np.empty_like(lane)
            for lo, hi in row_blocks(len(lane), 8 * len(act)):
                out[lo:hi] = np.bitwise_or.reduce(lane[act[:, lo:hi].astype(np.intp)], axis=0)
        return self._orbits[violation, w]

    def least_violation(self, row: _Property):
        """Least violation (a, m, r) of a property row, or None.  (a, m)
        violates iff the trigger holds there and the violation at (a, r*m)
        for some r, so a word of the trigger AND the violation's orbit OR
        tests 64 rows at once: |R| |M| ceil(|R|/64) words gathered, never
        more than a gather per triple's |R|^2 |M| cells.  Words run in order
        and stop at the first hit: its least row, then column, is the least
        (a, m), and the least r the first violated cell of a's row at
        act[:, m].  A packed mask takes 8 ceil(|R|/64) bytes a column, at
        most the int32 table's 4 |R| once |R| >= 2."""
        hot = self.packed(row.trigger)[1]
        for w in range(hot.shape[1]):
            hit = _least_bit(hot[:, w] & self.orbit(row.violation, w))
            if hit is not None:
                a, m = 64 * w + hit[0], hit[1]
                return a, m, int(self.packed(row.violation)[0][a, self.table[:, m]].argmax())
        return None


def _lanes(mask: np.ndarray) -> np.ndarray:
    """The columns of a bool mask as bit sets over its rows: entry [x, w]
    holds mask[64w:64w+64, x] in a little-endian uint64 word whose bit k is
    row 64w + k, on any platform; rows padded with zero bits to a multiple
    of 64."""
    packed = np.packbits(np.ascontiguousarray(mask.T), axis=1, bitorder="little")
    out = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def _least_bit(words: np.ndarray):
    """(bit, index): the least bit set in any of the words, as packed by
    _lanes, then the least word with it; or None."""
    top = int(np.bitwise_or.reduce(words))
    if not top:
        return None
    bit = (top & -top).bit_length() - 1
    return bit, int(np.flatnonzero(words >> bit & 1)[0])


def _module_scan(module: FiniteModule, cfg: EngineConfig) -> _ScanState:
    return _ScanState(module.act_table, module, module.ring, lambda: nil_set(module, cfg).flags)


def decide(module: FiniteModule, prop: str, config: EngineConfig | None = None,
           scan: _ScanState | None = None) -> Verdict:
    """Decide one module property by exhaustive scan; above the decision cap
    it refuses with DecisionCapError unless the config sets force.  scan is
    decide_many's shared state; without one, decide builds its own."""
    cfg = resolve(config, module)
    row, desc = _row(prop), module.descriptor
    triples = module.ring.size ** 2 * module.size
    cfg.refuse_above_cap(triples, f"{desc}: {prop} scan of {triples} (a, r, m) triples")
    scan = scan or _module_scan(module, cfg)
    hit = scan.least_violation(row)
    if hit is None:
        return Verdict(prop, True, METHOD_EXHAUSTIVE, None, desc)
    a, m, r = hit
    expl = ""
    if prop == PROP_REDUCED_II:
        # r*m = a*x != 0 for the least such x
        w = int(scan.table[r, m])
        x = int(np.flatnonzero(scan.table[a] == w)[0])
        expl = f"a*x = r*m = {module.render(w)} != 0 with x = {module.render(x)}"
    return Verdict(prop, False, METHOD_EXHAUSTIVE, (a, r, m), desc,
                   explanation=expl,
                   witness_render=_renders(module.ring, module, (a, r, m)))


def decide_many(module: FiniteModule, props, config: EngineConfig | None = None) -> list[Verdict]:
    """decide(module, p, config) for each p in props, in order, over one
    scan state whose masks the properties share (see the module docstring)."""
    cfg = resolve(config, module)
    scan = _module_scan(module, cfg)
    return [decide(module, prop, cfg, scan=scan) for prop in props]


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
    hit = _ScanState(ring.mul_table, ring, ring, lambda: nil_ring_set(ring, cfg)).least_violation(
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
    hot = np.flatnonzero(row.trigger(ops, a, m))
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
