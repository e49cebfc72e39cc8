"""A definition-level oracle for the deciders, nil sets and torsion sets.

Plain loops over the raw operation tables: no caching, no threads and no
early exits.  Nil membership of a module element follows the power
criterion (r^k m = 0 with r^(k-1) m != 0 for some r and k >= 2), not the
engine's squared one.
"""


def tables(module):
    """(act, ring mul, zero) as nested lists."""
    return module.act_table().tolist(), module.ring.mul_table().tolist(), module.zero


def nil_flags(act, zero):
    flags = []
    for m in range(len(act[0])):
        hit = m == zero
        for row in act:
            prev = row[m]  # r^(k-1) m for k = 2, 3, ... past any orbit length
            for _ in range(len(act[0]) + 1):
                hit = hit or (row[prev] == zero and prev != zero)
                prev = row[prev]
        flags.append(hit)
    return flags


def ring_nil_flags(mul, zero):
    """a -> whether a^k = 0 for some k >= 1."""
    flags = []
    for a in range(len(mul)):
        power, hit = a, False
        for _ in range(len(mul)):
            hit = hit or power == zero
            power = mul[power][a]
        flags.append(hit)
    return flags


def squared_witnesses(act, mul, zero):
    """m -> the least t with t*m != 0 and (t*t)*m = 0, for each nonzero m."""
    out = {}
    for m in range(len(act[0])):
        ts = [t for t in range(len(act)) if act[t][m] != zero and act[mul[t][t]][m] == zero]
        if ts and m != zero:
            out[m] = min(ts)
    return out


def least_violation(act, mul, zero, prop, nil):
    """The least violating (a, r, m) in (a, m, r) order, or None."""
    R, M = range(len(act)), range(len(act[0]))
    images = [{act[a][x] for x in M} for a in R]
    violates = {
        "semicommutative": lambda a, r, m: act[a][m] == zero and act[a][act[r][m]] != zero,
        "weakly-semicommutative": lambda a, r, m: act[a][m] == zero and not nil[act[a][act[r][m]]],
        "nil-semicommutative": lambda a, r, m: nil[act[a][m]] and not nil[act[a][act[r][m]]],
        "reduced-i": lambda a, r, m: act[mul[a][a]][m] == zero and act[a][act[r][m]] != zero,
        "reduced-ii": lambda a, r, m: (act[a][m] == zero and act[r][m] != zero
                                       and act[r][m] in images[a]),
    }[prop]
    found = [(a, m, r) for a in R for m in M for r in R if violates(a, r, m)]
    return None if not found else (min(found)[0], min(found)[2], min(found)[1])


def torsion_masks(act, mul, zero, ring_zero):
    R, M = range(len(act)), range(len(act[0]))
    regular = [s for s in R if s != ring_zero and all(
        mul[s][r] != ring_zero and mul[r][s] != ring_zero for r in R if r != ring_zero)]
    tor = t = 1 << zero
    for m in M:
        for r in R:
            if r != ring_zero and act[r][m] == zero:
                tor |= 1 << m
                t |= (r in regular) << m
    return tor, t
