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


def violates(act, mul, zero, prop, nil):
    """The predicate (a, r, m) -> whether the triple violates prop, straight
    from the property's definition."""
    M = range(len(act[0]))
    images = [{act[a][x] for x in M} for a in range(len(act))]
    return {
        "semicommutative": lambda a, r, m: act[a][m] == zero and act[a][act[r][m]] != zero,
        "weakly-semicommutative": lambda a, r, m: act[a][m] == zero and not nil[act[a][act[r][m]]],
        "nil-semicommutative": lambda a, r, m: nil[act[a][m]] and not nil[act[a][act[r][m]]],
        "reduced-i": lambda a, r, m: act[mul[a][a]][m] == zero and act[a][act[r][m]] != zero,
        "reduced-ii": lambda a, r, m: (act[a][m] == zero and act[r][m] != zero
                                       and act[r][m] in images[a]),
    }[prop]


def least_violation(act, mul, zero, prop, nil):
    """The least violating (a, r, m) in (a, m, r) order, or None."""
    R, M = range(len(act)), range(len(act[0]))
    bad = violates(act, mul, zero, prop, nil)
    found = [(a, m, r) for a in R for m in M for r in R if bad(a, r, m)]
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


def grid_product(a, b, mul, add, zero):
    """Entry grids a (n x k) times b (k x p) by the triple loop, the entries
    multiplied by mul (a ring's product or an action) and summed by add."""
    out = [[zero] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            for t, x in enumerate(row):
                out[i][j] = add(out[i][j], mul(x, b[t][j]))
    return out


def truncated_product(a, b, mul, add, zero):
    """Coefficients of a * b with every term of degree len(a) or more dropped."""
    out = [zero] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:len(a) - i]):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def matrix_nil_replay(module, base, base_module, count, seed):
    """The single-unit nil witness replayed one sample at a time: count
    seeded nonzero m; at m's first nonzero entry (i, j) take the unit
    r = E(j, i), or E(l, i) with l = 1 at i = 0 (else 0) on the diagonal,
    and require r*r*m = 0 != r*m.  Returns (passes, failures in draw order)."""
    from random import Random

    rng, ring, n = Random(seed), module.ring, module.shape.n
    failures = []
    for _ in range(count):
        k_id = module.zero
        while k_id == module.zero:
            k_id = rng.randrange(module.size)
        grid = module.entries(k_id)
        i, j = next((i, j) for i in range(n) for j in range(n)
                    if grid[i][j] != base_module.zero)
        if i != j:
            r = ring.unit(j, i, base.one)
        else:
            l = 0 if i != 0 else 1
            r = ring.unit(l, i, base.one)
        r_sq_k = module.act(ring.mul(r, r), k_id)
        r_k = module.act(r, k_id)
        if not (r_sq_k == module.zero and r_k != module.zero):
            failures.append({"m": k_id, "r": r})
    return count - len(failures), failures
