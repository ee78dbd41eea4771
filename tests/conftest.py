"""Shared strategies for drawing sets, and a catalog of small finite spaces."""

from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import strategies as st

from gtskit.carriers import FiniteEnum, NatFC, Product, QLine
from gtskit.constructions import smallify
from gtskit.presentation import from_points, generate_finite_gts, points_of
from gtskit import setexpr as sx

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)

endpoints = st.one_of(
    rationals,
    st.just(sx.NEG_INF),
    st.just(sx.POS_INF),
)


@st.composite
def qline_sets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    parts = []
    for _ in range(n):
        lo = draw(endpoints)
        hi = draw(endpoints)
        if lo is sx.POS_INF or hi is sx.NEG_INF:
            continue
        if isinstance(lo, Fraction) and isinstance(hi, Fraction) and lo > hi:
            lo, hi = hi, lo
        lo_open = lo is sx.NEG_INF or draw(st.booleans())
        hi_open = hi is sx.POS_INF or draw(st.booleans())
        if lo == hi:
            lo_open = hi_open = False
        parts.append(sx.interval(lo, hi, lo_open, hi_open))
    out = sx.empty(QLine())
    for p in parts:
        out = sx.union(out, p)
    return out


@st.composite
def nat_sets(draw):
    elems = draw(st.sets(st.integers(min_value=0, max_value=12), max_size=5))
    if draw(st.booleans()):
        return sx.nat_cofinite(elems)
    return sx.nat_finite(elems)


ENUM3 = FiniteEnum(("a", "b", "c"))


@st.composite
def enum_sets(draw, carrier=ENUM3):
    picked = draw(st.sets(st.sampled_from(carrier.elements), max_size=3))
    return sx.atoms(carrier, picked)


ENUM2 = FiniteEnum(("x", "y"))
ENUM3_ENUM2 = Product(ENUM3, ENUM2)
ENUM3_QLINE = Product(ENUM3, QLine())
QLINE_ENUM2 = Product(QLine(), ENUM2)
ENUM2_ENUM2 = Product(ENUM2, ENUM2)
PAIRS_ENUM2 = Product(ENUM2_ENUM2, ENUM2)


@st.composite
def product_sets(draw, carrier, left, right):
    """A union of up to 3 drawn boxes on ``carrier``."""
    n = draw(st.integers(min_value=0, max_value=3))
    return sx.boxes(carrier, [(draw(left), draw(right)) for _ in range(n)])


# the product carriers cover a finite, an infinite and a product left factor
SETS = {
    "q": qline_sets(),
    "n": nat_sets(),
    "e": enum_sets(),
    "ee": product_sets(ENUM3_ENUM2, enum_sets(), enum_sets(ENUM2)),
    "eq": product_sets(ENUM3_QLINE, enum_sets(), qline_sets()),
    "qe": product_sets(QLINE_ENUM2, qline_sets(), enum_sets(ENUM2)),
    "pe": product_sets(
        PAIRS_ENUM2,
        product_sets(ENUM2_ENUM2, enum_sets(ENUM2), enum_sets(ENUM2)),
        enum_sets(ENUM2)),
}

any_sets = st.one_of(*SETS.values())


@st.composite
def same_carrier_pairs(draw):
    s = SETS[draw(st.sampled_from(sorted(SETS)))]
    return draw(s), draw(s)


@st.composite
def same_carrier_triples(draw):
    s = SETS[draw(st.sampled_from(sorted(SETS)))]
    return draw(s), draw(s), draw(s)


def sample_points(*sets):
    """Candidate points, in and around sets on one carrier, read off their
    forms (the box views of product sets).

    The atoms; the naturals 0-13; on the line every finite endpoint, the
    midpoints between neighbouring endpoints and one point past the first
    and the last; on a product, the pairs of its factors' candidates.
    """
    c = sets[0].carrier
    if isinstance(c, FiniteEnum):
        return list(c.elements)
    if isinstance(c, NatFC):
        return list(range(14))
    if isinstance(c, QLine):
        ends = sorted({Fraction(0)} | {
            Fraction(e) for S in sets for iv in S.form for e in (iv.lo, iv.hi)
            if e not in (sx.NEG_INF, sx.POS_INF)})
        mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        return ends + mids + [ends[0] - 1, ends[-1] + 1]
    lefts = sample_points(sx.empty(c.left), *(L for S in sets for L, _ in sx.box_view(S)))
    rights = sample_points(sx.empty(c.right), *(R for S in sets for _, R in sx.box_view(S)))
    return [(x, y) for x in lefts for y in rights]


# -- finite spaces as bitmask topologies ----------------------------------

def all_subsets(S):
    """Every subset of a finite set, smallest first: the brute-force
    reference that the listings of opens are checked against."""
    pts = points_of(S)
    return [from_points(S.carrier, c)
            for k in range(len(pts) + 1) for c in combinations(pts, k)]


def mask_topologies(n):
    """All labeled topologies on {0..n-1} as frozensets of bitmasks."""
    full = (1 << n) - 1
    inner = list(range(1, full))
    found = []
    for bits in range(1 << len(inner)):
        T = {0, full}
        b, i = bits, 0
        while b:
            if b & 1:
                T.add(inner[i])
            b >>= 1
            i += 1
        if all((a | c) in T and (a & c) in T for a in T for c in T):
            found.append(frozenset(T))
    return found


def canon_topology(T, n):
    """Least relabeling of a mask topology; keys homeomorphism classes."""
    best = None
    for p in permutations(range(n)):
        img = tuple(sorted(
            sum(1 << p[i] for i in range(n) if m >> i & 1) for m in T))
        if best is None or img < best:
            best = img
    return best


def mask_space(prefix, n, T):
    atoms = tuple(prefix + str(i) for i in range(n))
    c = FiniteEnum(atoms)
    gens = tuple(
        from_points(c, [atoms[i] for i in range(n) if m >> i & 1])
        for m in sorted(T))
    return generate_finite_gts(c, gens)


def small_catalog(prefix, max_size):
    """One small presentation per homeomorphism class, sizes 1..max_size."""
    out = []
    for n in range(1, max_size + 1):
        seen = set()
        for T in mask_topologies(n):
            key = canon_topology(T, n)
            if key in seen:
                continue
            seen.add(key)
            out.append(smallify(mask_space(prefix, n, T)))
    return out
