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


def ring_center_flags(mul):
    """a -> whether a * r = r * a for every r."""
    R = range(len(mul))
    return [all(mul[a][r] == mul[r][a] for r in R) for a in R]


def ring_regular_flags(mul, zero):
    """s -> whether s is nonzero and s * r and r * s are nonzero for every
    nonzero r."""
    R = range(len(mul))
    return [s != zero and all(mul[s][r] != zero and mul[r][s] != zero for r in R if r != zero)
            for s in R]


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


def law_failure(add, act, radd, rmul):
    """The first broken law among + associative at (a, b, c), then (r+s)m =
    rm+sm and (rs)m = r(sm) at (r, s, m), then r(m+n) = rm+rn at (r, m, n),
    each loop in that order, as (0, 1, 2 or 3, the triple), or None."""
    M, R = range(len(add)), range(len(radd))
    for a in M:
        for b in M:
            for c in M:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return 0, (a, b, c)
    for r in R:
        for s in R:
            for m in M:
                if act[radd[r][s]][m] != add[act[r][m]][act[s][m]]:
                    return 1, (r, s, m)
                if act[rmul[r][s]][m] != act[r][act[s][m]]:
                    return 2, (r, s, m)
    for r in R:
        for m in M:
            for n in M:
                if act[r][add[m][n]] != add[act[r][m]][act[r][n]]:
                    return 3, (r, m, n)
    return None


def torsion_masks(act, mul, zero, ring_zero):
    R, M = range(len(act)), range(len(act[0]))
    regular = [s for s, flag in enumerate(ring_regular_flags(mul, ring_zero)) if flag]
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


def fraction_partition(pairs, related, what: str):
    """Group pairs into classes against canonical reps, then verify that the
    relation agrees with the partition everywhere (this is exactly the
    symmetry and transitivity of the relation on this instance)."""
    from nilcomm.errors import AxiomError

    class_of: dict[tuple[int, int], int] = {}
    reps: list[tuple[int, int]] = []
    for p in pairs:
        for cid, rep in enumerate(reps):
            if related(rep, p):
                class_of[p] = cid
                break
        else:
            class_of[p] = len(reps)
            reps.append(p)
    for p in pairs:
        for q in pairs:
            if related(p, q) != (class_of[p] == class_of[q]):
                raise AxiomError(
                    f"{what}: the fraction relation is not an equivalence "
                    f"relation at {p} vs {q}")
    return class_of, reps


def ring_fractions(base, smembers):
    """The ring of fractions of base over smembers by pointwise loops:
    (class_of, reps, add table, mul table), the (numerator, denominator)
    pairs keyed as tuples.  Raises AxiomError as the construction must."""
    from nilcomm.errors import AxiomError

    mul, sub, zero = base.mul, base.sub, base.zero

    def related(p, q):
        r1, s1 = p
        r2, s2 = q
        diff = sub(mul(r1, s2), mul(r2, s1))
        return any(mul(u, diff) == zero for u in smembers)

    pairs = [(r, s) for s in smembers for r in base.elements()]
    pairs.sort(key=lambda p: (p[1], p[0]))
    class_of, reps = fraction_partition(pairs, related, "ring")

    def op_on_pairs(p, q, which: str):
        r1, s1 = p
        r2, s2 = q
        if which == "add":
            num = base.add(base.mul(r1, s2), base.mul(r2, s1))
        else:
            num = base.mul(r1, r2)
        return class_of[(num, base.mul(s1, s2))]

    add = [[op_on_pairs(a, b, "add") for b in reps] for a in reps]
    prod = [[op_on_pairs(a, b, "mul") for b in reps] for a in reps]
    members: list[list[tuple[int, int]]] = [[] for _ in reps]
    for p, cid in class_of.items():
        members[cid].append(p)
    for ca, group_a in enumerate(members):
        for cb, group_b in enumerate(members):
            want_add = add[ca][cb]
            want_mul = prod[ca][cb]
            for p in group_a:
                for q in group_b:
                    if op_on_pairs(p, q, "add") != want_add:
                        raise AxiomError(
                            f"ring: addition not well defined at {p} + {q}")
                    if op_on_pairs(p, q, "mul") != want_mul:
                        raise AxiomError(
                            f"ring: product not well defined at {p} * {q}")
    return class_of, reps, add, prod


def module_fractions(base, smembers, ring_class_of, ring_reps):
    """The module of fractions of base over smembers by pointwise loops, over
    the ring of fractions ring_fractions gave: (class_of, reps, add table,
    action table).  Raises AxiomError as the construction must."""
    from nilcomm.errors import AxiomError

    act, msub, mzero = base.act, base.sub, base.zero

    def related(p, q):
        m1, s1 = p
        m2, s2 = q
        diff = msub(act(s2, m1), act(s1, m2))
        return any(act(u, diff) == mzero for u in smembers)

    pairs = [(m, s) for s in smembers for m in base.elements()]
    pairs.sort(key=lambda p: (p[1], p[0]))
    class_of, reps = fraction_partition(pairs, related, "module")

    def add_pairs(p, q):
        m1, s1 = p
        m2, s2 = q
        num = base.add(base.act(s2, m1), base.act(s1, m2))
        return class_of[(num, base.ring.mul(s1, s2))]

    def act_pair(ring_pair, p):
        r, s = ring_pair
        m, q = p
        return class_of[(base.act(r, m), base.ring.mul(s, q))]

    add = [[add_pairs(a, b) for b in reps] for a in reps]
    action = [[act_pair(r, m) for m in reps] for r in ring_reps]
    members: list[list[tuple[int, int]]] = [[] for _ in reps]
    for p, cid in class_of.items():
        members[cid].append(p)
    ring_members: list[list[tuple[int, int]]] = [[] for _ in ring_reps]
    for p, cid in ring_class_of.items():
        ring_members[cid].append(p)
    for ca, group_a in enumerate(members):
        for cb, group_b in enumerate(members):
            want = add[ca][cb]
            for p in group_a:
                for q in group_b:
                    if add_pairs(p, q) != want:
                        raise AxiomError(
                            f"module: addition not well defined at {p} + {q}")
    for cr, ring_group in enumerate(ring_members):
        for cm, group in enumerate(members):
            want = action[cr][cm]
            for rp in ring_group:
                for p in group:
                    if act_pair(rp, p) != want:
                        raise AxiomError(
                            f"module: the action is not well defined at {rp} . {p}")
    return class_of, reps, add, action


def layout_add_table(s):
    """The add table of a matrix, truncated-polynomial or product structure
    by the plain loop: each entry, coefficient or component added by its own
    structure's pointwise add."""
    if hasattr(s, "factors"):
        parts, split, join = s.factors, s.codec.decode, s.codec.encode
    elif hasattr(s, "coefficients"):
        parts, split, join = [s.base] * s.degree, s.coefficients, s.from_coefficients
    else:
        k = s.shape.n
        parts, split = [s.base] * k * k, lambda a: sum(s.entries(a), [])
        join = lambda d: s.from_entries([d[i:i + k] for i in range(0, k * k, k)])
    digits = [split(a) for a in s.elements()]
    return [[join([p.add(x, y) for p, x, y in zip(parts, da, db)]) for db in digits]
            for da in digits]
