"""Nilpotent and torsion element sets of a finite module.

An element m is nilpotent when m = 0 or some ring element t satisfies
t*t*m = 0 with t*m != 0; equivalently some r and k >= 2 satisfy
r^k m = 0 with r^(k-1) m != 0.  Both criteria are implemented: the squared
form is the workhorse (one linear scan over the ring per element), the
power form walks orbits and exists for cross-checking and witness variety.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EngineConfig, resolve
from .errors import DecisionCapError
from .modules import FiniteModule, escapes
from .rings import regular_elements, row_blocks


@dataclass
class NilSet:
    """Nilpotent elements of one module, as a bitmask plus witnesses.

    witnesses maps each nonzero member m to a pair (t, k) with
    act(t^k, m) = 0 and act(t, m) != 0; the zero element needs none.
    """

    module: FiniteModule
    mask: int
    witnesses: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __contains__(self, m: int) -> bool:
        return bool(self.mask >> m & 1)

    def members(self) -> list[int]:
        return [m for m in self.module.elements() if self.mask >> m & 1]

    def flags(self) -> np.ndarray:
        """Membership as a bool array indexed by element id."""
        n = self.module.size
        packed = np.frombuffer(self.mask.to_bytes((n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=n, bitorder="little").astype(bool)

    @property
    def count(self) -> int:
        return bin(self.mask).count("1")

    def covers_module(self) -> bool:
        return self.count == self.module.size

    def to_json_dict(self) -> dict:
        return {
            "descriptor": self.module.descriptor,
            "size": self.count,
            "members": self.members(),
            "witnesses": {
                str(m): {"t": t, "k": k} for m, (t, k) in sorted(self.witnesses.items())
            },
        }


@dataclass
class TorsionSets:
    """Torsion elements, split by what kind of ring element kills them.

    tor_mask marks elements killed by some nonzero ring element; t_mask
    marks elements killed by some regular (non-zero-divisor) element.  The
    closure flags record whether each set is closed under addition and the
    ring action.
    """

    module: FiniteModule
    tor_mask: int
    t_mask: int
    tor_closed_add: bool
    tor_closed_act: bool
    t_closed_add: bool
    t_closed_act: bool

    def tor_members(self) -> list[int]:
        return [m for m in self.module.elements() if self.tor_mask >> m & 1]

    def t_members(self) -> list[int]:
        return [m for m in self.module.elements() if self.t_mask >> m & 1]

    @property
    def tor_is_submodule(self) -> bool:
        return self.tor_closed_add and self.tor_closed_act

    @property
    def t_is_submodule(self) -> bool:
        return self.t_closed_add and self.t_closed_act

    def to_json_dict(self) -> dict:
        return {
            "descriptor": self.module.descriptor,
            "tor": self.tor_members(),
            "t": self.t_members(),
            "tor_is_submodule": self.tor_is_submodule,
            "t_is_submodule": self.t_is_submodule,
        }


def is_nilpotent_squared(module: FiniteModule, m: int,
                         config: EngineConfig | None = None):
    """Squared criterion; returns (verdict, least witness t or None)."""
    if m == module.zero:
        return True, None
    act = module.act
    mul = module.ring.mul
    zero = module.zero
    for t in module.ring.elements():
        if act(t, m) != zero and act(mul(t, t), m) == zero:
            return True, t
    return False, None


def is_nilpotent_power(module: FiniteModule, m: int,
                       config: EngineConfig | None = None):
    """Power criterion by orbit walking; returns (verdict, (r, k) or None).

    For each ring element r the walk m, rm, r^2 m, ... stops at the first
    zero (a witness when it happens at step k >= 2) or at a repeat (no
    witness for this r).
    """
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
    """All nilpotent elements with stored witnesses; cached per module."""
    if module._nil_cache is not None:
        return module._nil_cache
    cfg = resolve(config if config is not None else module.config)
    pairs = module.ring.size * module.size
    if pairs > cfg.decision_cap and not cfg.force:
        raise DecisionCapError(
            f"{module.descriptor}: nilpotency scan of {pairs} (t, m) pairs "
            f"exceeds cap {cfg.decision_cap}",
            cfg.decision_cap,
        )
    # the squared criterion for every m at once: the least t with t*m != 0
    # and (t*t)*m = 0, scanning blocks of t in order
    act, zero, nr = module.act_table(), module.zero, module.ring.size
    squares = module.ring.squares()
    least = np.full(module.size, -1)
    for lo, hi in row_blocks(nr, module.size):
        hit = (act[lo:hi] != zero) & (act[squares[lo:hi]] == zero)
        found = hit.any(axis=0) & (least < 0)
        least[found] = lo + hit[:, found].argmax(axis=0)
    least[zero] = -1
    members = least >= 0
    members[zero] = True
    witnesses = {m: (t, 2) for m, t in enumerate(least.tolist()) if t >= 0}
    result = NilSet(module, _bitmask(members), witnesses)
    module._nil_cache = result
    return result


def _bitmask(flags: np.ndarray) -> int:
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def is_nil_module(module: FiniteModule, config: EngineConfig | None = None) -> bool:
    """True when every element of the module is nilpotent."""
    return nil_set(module, config).covers_module()


def torsion_sets(module: FiniteModule,
                 config: EngineConfig | None = None) -> TorsionSets:
    """Torsion and regular-torsion element sets with closure flags; cached."""
    if module._torsion_cache is not None:
        return module._torsion_cache
    cfg = resolve(config if config is not None else module.config)
    pairs = module.ring.size * module.size
    if pairs > cfg.decision_cap and not cfg.force:
        raise DecisionCapError(
            f"{module.descriptor}: torsion scan of {pairs} pairs exceeds cap "
            f"{cfg.decision_cap}",
            cfg.decision_cap,
        )
    killed = module.act_table() == module.zero
    killed[module.ring.zero] = False
    tor = killed.any(axis=0)
    t = killed[sorted(regular_elements(module.ring))].any(axis=0)
    tor[module.zero] = t[module.zero] = True
    tor_add, tor_act = (hit is None for hit in escapes(module, tor))
    t_add, t_act = (hit is None for hit in escapes(module, t))
    result = TorsionSets(module, _bitmask(tor), _bitmask(t), tor_add, tor_act,
                         t_add, t_act)
    module._torsion_cache = result
    return result


def is_torsion_free(module: FiniteModule,
                    config: EngineConfig | None = None) -> bool:
    """True when only zero is a torsion element."""
    return torsion_sets(module, config).tor_mask == 1 << module.zero
