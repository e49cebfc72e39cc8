"""Nilpotent and torsion element sets of a finite module.

An element m is nilpotent when m = 0 or some ring element t satisfies
t*t*m = 0 with t*m != 0; equivalently some r and k >= 2 satisfy
r^k m = 0 with r^(k-1) m != 0.  Both criteria are implemented: the squared
form is the workhorse (one linear scan over the ring per element), the
power form walks orbits and exists for cross-checking and witness variety.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EngineConfig, resolve
from .modules import FiniteModule, escapes
from .rings import regular_elements, row_blocks


@dataclass(eq=False)
class NilSet:
    """Nilpotent elements of one module, named by its descriptor (the module
    caches this set, so the set does not point back at it), as read-only
    arrays over its ids: flags[m] marks a member, and killers[m] is the least
    t with act(t, m) != 0 and act(t*t, m) = 0, so (t, 2) witnesses m, or -1
    where there is none (at zero, which needs none, and at every non-member)."""

    descriptor: str
    flags: np.ndarray
    killers: np.ndarray

    def __contains__(self, m: int) -> bool:
        return bool(self.flags[m])

    def members(self) -> list[int]:
        return np.flatnonzero(self.flags).tolist()

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def covers_module(self) -> bool:
        return bool(self.flags.all())

    def to_json_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "size": self.count,
            "members": self.members(),
            "witnesses": {str(m): {"t": t, "k": 2}
                          for m, t in enumerate(self.killers.tolist()) if t >= 0},
        }


@dataclass(eq=False)
class TorsionSets:
    """Torsion elements, split by what kind of ring element kills them.

    tor, a read-only bool array over ids, marks elements killed by some
    nonzero ring element; t marks those killed by some regular
    (non-zero-divisor) element.  The closure flags record whether each set
    is closed under addition and the ring action.
    """

    tor: np.ndarray
    t: np.ndarray
    tor_closed_add: bool
    tor_closed_act: bool
    t_closed_add: bool
    t_closed_act: bool

    def tor_members(self) -> list[int]:
        return np.flatnonzero(self.tor).tolist()

    def t_members(self) -> list[int]:
        return np.flatnonzero(self.t).tolist()

    @property
    def t_is_submodule(self) -> bool:
        return self.t_closed_add and self.t_closed_act


def squared_killers(module: FiniteModule, ms: np.ndarray | None = None) -> np.ndarray:
    """The squared criterion over an id array ms: for each m, the least t
    with t*m != 0 and (t*t)*m = 0, or -1 where there is none (m = 0 among
    them).  Blocks of t run in order and stop once every nonzero m has its
    t.  ms None means all of M, read from rows of the action table; an id
    array goes through vact, so nothing is tabulated."""
    ring, zero = module.ring, module.zero
    if ms is None:
        ms, times, cells = np.arange(module.size), module.act_table().__getitem__, 1
    else:
        times = lambda t: module.vact(t[:, None], ms)
        cells = module.cells
    least = np.full(len(ms), -1)
    open_ = ms != zero
    for lo, hi in row_blocks(ring.size, len(ms) * cells):
        t = np.arange(lo, hi)
        hit = (times(t) != zero) & (times(ring.vmul(t, t)) == zero)
        found = hit.any(axis=0) & open_
        least[found] = lo + hit.argmax(axis=0)[found]
        open_[found] = False
        if not open_.any():
            break
    return least


def is_nilpotent_squared(module: FiniteModule, m: int):
    """Squared criterion; returns (verdict, least witness t or None)."""
    module.check_ids(m)
    if m == module.zero:
        return True, None
    t = int(squared_killers(module, np.array([m]))[0])
    return (True, t) if t >= 0 else (False, None)


def is_nilpotent_power(module: FiniteModule, m: int):
    """Power criterion by orbit walking; returns (verdict, (r, k) or None).

    For each ring element r the walk m, rm, r^2 m, ... stops at the first
    zero (a witness when it happens at step k >= 2) or at a repeat (no
    witness for this r).
    """
    module.check_ids(m)
    if m == module.zero:
        return True, None
    act = module.act
    zero = module.zero
    for r in module.ring.elements():
        cur = act(r, m)
        if cur == zero:
            continue  # the first zero would be at k = 1, which is excluded
        seen = {m, cur}
        k = 1
        while True:
            nxt = act(r, cur)
            k += 1
            if nxt == zero:
                return True, (r, k)
            if nxt in seen:
                break
            seen.add(nxt)
            cur = nxt
    return False, None


def nil_set(module: FiniteModule, config: EngineConfig | None = None) -> NilSet:
    """All nilpotent elements with stored witnesses; cached per module, caps first."""
    cfg = resolve(config, module)
    pairs = module.ring.size * module.size
    cfg.refuse_above_cap(pairs, f"{module.descriptor}: nilpotency scan of {pairs} (t, m) pairs")
    if module._nil_cache is not None:
        return module._nil_cache
    killers = squared_killers(module)
    flags = killers >= 0
    flags[module.zero] = True
    flags.flags.writeable = killers.flags.writeable = False  # shared by every caller
    module._nil_cache = NilSet(module.descriptor, flags, killers)
    return module._nil_cache


def is_nil_module(module: FiniteModule, config: EngineConfig | None = None) -> bool:
    """True when every element of the module is nilpotent."""
    return nil_set(module, config).covers_module()


def torsion_sets(module: FiniteModule,
                 config: EngineConfig | None = None) -> TorsionSets:
    """Torsion and regular-torsion sets with closure flags; cached, caps first.

    The cap counts the largest of its pair scans: (t, m) for the torsion
    masks, the ring's element pairs for its regular elements, and the
    module's element pairs for additive closure."""
    cfg = resolve(config, module)
    pairs = max(module.ring.size, module.size) ** 2
    cfg.refuse_above_cap(pairs, f"{module.descriptor}: torsion scan of {pairs} pairs")
    if module._torsion_cache is not None:
        return module._torsion_cache
    killed = module.act_table() == module.zero
    killed[module.ring.zero] = False
    tor = killed.any(axis=0)
    t = killed[regular_elements(module.ring, cfg)].any(axis=0)
    tor[module.zero] = t[module.zero] = True
    tor_add, tor_act = (hit is None for hit in escapes(module, tor))
    t_add, t_act = (hit is None for hit in escapes(module, t))
    tor.flags.writeable = t.flags.writeable = False
    module._torsion_cache = TorsionSets(tor, t, tor_add, tor_act, t_add, t_act)
    return module._torsion_cache


def is_torsion_free(module: FiniteModule,
                    config: EngineConfig | None = None) -> bool:
    """True when only zero is a torsion element."""
    return np.count_nonzero(torsion_sets(module, config).tor) == 1  # zero alone
