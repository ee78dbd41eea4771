"""Bitmask oracles that decide the workloads' expected verdicts without gtskit.

A finite space on points 0..n-1 is a frozenset of int masks (bit i set means
point i belongs to the open).  Product points (i, j) use bit i * nb + j.
"""

from itertools import permutations


def bits(mask):
    """Indices of the set bits of a mask, ascending."""
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_topologies(n):
    """All labeled topologies on {0..n-1}, each a frozenset of masks."""
    full = (1 << n) - 1
    inner = list(range(1, full))
    found = []
    for pick in range(1 << len(inner)):
        T = {0, full}
        for i in bits(pick):
            T.add(inner[i])
        if all((a | c) in T and (a & c) in T for a in T for c in T):
            found.append(frozenset(T))
    return found


def canon_topology(T, n):
    """Least relabeling of a mask topology; equal keys mean homeomorphic."""
    best = None
    for p in permutations(range(n)):
        img = tuple(sorted(sum(1 << p[i] for i in bits(m)) for m in T))
        if best is None or img < best:
            best = img
    return best


def class_representatives(n):
    """One mask topology per homeomorphism class on n points."""
    reps = {}
    for T in mask_topologies(n):
        reps.setdefault(canon_topology(T, n), T)
    return [reps[k] for k in sorted(reps)]


def minimal_neighbourhoods(T, n):
    """The least open around each point; together they generate T."""
    full = (1 << n) - 1
    out = []
    for i in range(n):
        u = full
        for m in T:
            if m >> i & 1:
                u &= m
        out.append(u)
    return out


def union_closure(gens):
    """All unions of subfamilies of gens (the empty union included)."""
    closed = {0}
    for g in gens:
        closed |= {c | g for c in closed}
    return frozenset(closed)


def box_mask(u, v, nb):
    """The grid mask of the box u x v."""
    return sum(1 << (i * nb + j) for i in bits(u) for j in bits(v))


def product_opens(ta, tb, nb):
    """The product topology: every union of open boxes."""
    return union_closure({box_mask(u, v, nb) for u in ta for v in tb})


def project(mask, na, nb, side):
    """Image of a grid mask under the left (side 0) or right projection."""
    out = 0
    for k in bits(mask):
        out |= 1 << (k // nb if side == 0 else k % nb)
    return out


def preimage(values, mask):
    """Points x of a finite domain with values[x] in mask."""
    return sum(1 << x for x, y in enumerate(values) if mask >> y & 1)


def continuous_maps(t_dom, n_dom, t_cod, n_cod):
    """Every point map dom -> cod, as a value tuple, that pulls opens back open."""
    out = []
    for code in range(n_cod ** n_dom):
        values = tuple(code // n_cod ** x % n_cod for x in range(n_dom))
        if all(preimage(values, m) in t_dom for m in t_cod):
            out.append(values)
    return out


def stratified(strata, shares, epoch, rng):
    """An endless op sequence that mixes strata in fixed shares.

    strata maps a key to its classes, each a list of items; shares maps a
    key to its weight.  Every epoch of `epoch` ops gives each stratum its
    share of the slots, fills them by cycling through the stratum with its
    classes interleaved, and interleaves the strata.  So any prefix holds
    each stratum, and each class within it, in proportion, whatever the seed.
    """
    total = sum(shares.values())
    cursors = {k: _cycle(strata[k], rng) for k in sorted(strata, key=str)}
    while True:
        groups = [[next(cursors[k]) for _ in range(epoch * shares[k] // total)]
                  for k in sorted(strata, key=str)]
        yield from interleave(groups, rng)


def _cycle(classes, rng):
    while True:
        yield from interleave([rng.sample(c, len(c)) for c in classes], rng)


def interleave(groups, rng):
    """Merge groups so every prefix holds each group in proportion to its size.

    Item k of a group of size w sits at (k + offset) / w with a seeded offset,
    so any prefix of the result is within one item of exact proportions.
    """
    keyed = []
    for g, items in enumerate(groups):
        offset = rng.random()
        w = len(items)
        keyed.extend(((k + offset) / w, g, k, item)
                     for k, item in enumerate(items))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]
