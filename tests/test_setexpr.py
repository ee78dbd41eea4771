"""Symbolic set algebra: forms, laws and a fixture of every operation.

``golden/set_algebra.json`` holds, for seeded sets on every carrier of
``conftest.SETS``, on products with a natural-number factor and on a
product with a product right factor, the renders of ``union``,
``intersect``, ``complement`` and ``minus``; ``is_subset``, ``is_empty``,
``is_whole`` and ``is_finite_pointset``; ``contains`` on
``conftest.sample_points``; ``points_of`` (or its error class) and the
``from_points`` round trip; and ``set_endpoints``.  The law tests below
check laws, not forms; the fixture catches a change of form that keeps them.

Regenerate the fixture only when a canonical form is meant to change:

    PYTHONPATH=src python tests/test_setexpr.py > tests/golden/set_algebra.json
"""

import dataclasses
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtskit.carriers import FiniteEnum, NatFC, Product, QLine
from gtskit.errors import CarrierMismatch, GtsError, UnrepresentablePoint
from gtskit.presentation import from_points, points_of
from gtskit import setexpr as sx
from gtskit.streams import ShrinkIntervals, set_endpoints

from conftest import (
    ENUM2,
    ENUM2_ENUM2,
    ENUM3,
    ENUM3_ENUM2,
    ENUM3_QLINE,
    PAIRS_ENUM2,
    QLINE_ENUM2,
    any_sets,
    qline_sets,
    same_carrier_pairs,
    same_carrier_triples,
    sample_points,
)


def iv(lo, hi, lo_open=True, hi_open=True):
    return sx.interval(lo, hi, lo_open, hi_open)


def test_interval_normalization_merges_touching():
    # (0,1] u (1,2) collapses into one interval
    s = sx.union(iv(0, 1, True, False), iv(1, 2))
    assert sx.render(s) == "(0,2)"
    # (0,1) u (1,2) keeps the puncture
    s = sx.union(iv(0, 1), iv(1, 2))
    assert sx.render(s) == "(0,1) u (1,2)"
    # adding the point heals it
    s = sx.union(s, sx.qpoint(1))
    assert sx.render(s) == "(0,2)"


def test_interval_complement_exact():
    s = iv(0, 1, False, True)  # [0,1)
    c = sx.complement(s)
    assert sx.render(c) == "(-inf,0) u [1,+inf)"
    assert sx.union(s, c).is_whole()
    assert sx.intersect(s, c).is_empty()


def test_point_rendering_roundtrip_values():
    s = sx.union(iv(0, Fraction(1, 2)), sx.qpoint(3))
    assert sx.render(s) == "(0,1/2) u [3,3]"


def test_nat_cofinite_ops():
    a = sx.nat_cofinite([0, 1])
    b = sx.nat_finite([1, 2])
    assert sx.render(sx.union(a, b)) == "co{0}"
    assert sx.render(sx.intersect(a, b)) == "{2}"
    assert sx.render(sx.complement(a)) == "{0,1}"
    assert sx.render(sx.minus(a, b)) == "co{0,1,2}"


def test_enum_ops():
    c = FiniteEnum(("a", "b", "c"))
    ab = sx.atoms(c, ["a", "b"])
    bc = sx.atoms(c, ["b", "c"])
    assert sx.render(sx.intersect(ab, bc)) == "{b}"
    assert sx.render(sx.union(ab, bc)) == "{a,b,c}"
    assert sx.union(ab, bc).is_whole()


def test_carriers_compare_and_hash_by_their_fields():
    """Equality and hash read the compared fields only, as a generated
    dataclass's would, whatever each carrier keeps once it is asked.  A
    carrier without compared fields is one object per class."""
    def built():
        return [FiniteEnum(("b", "a", "c")), NatFC(), QLine(),
                Product(FiniteEnum(("y", "x")), QLine()),
                Product(NatFC(), Product(FiniteEnum(("q", "p")), FiniteEnum(("r",))))]

    def compared(c):
        return tuple(getattr(c, f.name) for f in dataclasses.fields(c) if f.compare)

    for c, d in zip(built(), built()):
        sx.whole(c)
        if c.finite:
            c.point_bits()
        assert (c is d) == (type(c) in (NatFC, QLine)), c
        assert c == d and hash(c) == hash(d) == hash(compared(c)), c
        with pytest.raises(dataclasses.FrozenInstanceError):
            c._hash = 0
    assert FiniteEnum(("c", "a", "b")) == FiniteEnum(("a", "b", "c"))
    assert FiniteEnum(("a", "b")) != FiniteEnum(("a", "c"))
    assert QLine() != NatFC() and NatFC() != QLine()
    assert Product(QLine(), NatFC()) != Product(NatFC(), QLine())
    assert len({QLine(), NatFC(), QLine()}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        FiniteEnum(("a",)).elements = ("b",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Product(QLine(), NatFC()).left = NatFC()


def _endpoint_grid():
    """Both sentinels, zero, negative values, equal values built in
    different ways, and numerators and denominators past 2**64."""
    big = 2 ** 64
    return [sx.NEG_INF, sx.POS_INF, Fraction(0), Fraction(0, 5), Fraction(-0),
            Fraction(-1), Fraction(-3, 2), Fraction(6, -4), Fraction("-1.5"),
            Fraction(1, 3), Fraction(2, 6), Fraction(1, 3) + Fraction(0),
            Fraction(big + 1, big), Fraction(2 * big + 2, 2 * big),
            Fraction(-(big + 1), big), Fraction(big ** 2 + 1, big + 3),
            Fraction(big ** 2 + 2, big + 3), Fraction(1, big), Fraction(-1, big)]


def test_endpoint_comparisons_agree_with_the_operators():
    grid = _endpoint_grid()
    for a in grid:
        for b in grid:
            assert sx._lt(a, b) == (a < b), (a, b)
            assert sx._eq(a, b) == (a == b), (a, b)


def _fraction_lo_key(iv):
    # the sort key of normalize_intervals as first written: the low itself,
    # then closed before open, compared by Fraction's and the sentinels' own
    # operators
    return (iv.lo, 1 if iv.lo_open else 0)


def _fraction_normalized(ivs):
    """normalize_intervals as first written, in Fraction comparisons."""
    out = []
    for iv in sorted(ivs, key=_fraction_lo_key):
        a = out[-1] if out else None
        if a is not None and (iv.lo < a.hi or (iv.lo == a.hi and not (a.hi_open and iv.lo_open))):
            out.pop()
            if a.hi < iv.hi:
                hi, hi_open = iv.hi, iv.hi_open
            elif iv.hi < a.hi:
                hi, hi_open = a.hi, a.hi_open
            else:
                hi, hi_open = a.hi, a.hi_open and iv.hi_open
            out.append(sx.Interval(a.lo, hi, a.lo_open, hi_open))
        else:
            out.append(iv)
    return tuple(out)


def _seeded_intervals(rng):
    """Up to six intervals over a few values, so that lows repeat open and
    closed; some start at -inf, end at +inf or are points."""
    values = sorted({Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)})
    out = []
    for _ in range(rng.randint(0, 6)):
        k = rng.randrange(len(values))
        lo, hi = values[k], values[rng.randrange(k, len(values))]
        lo_open, hi_open = rng.random() < 0.5, rng.random() < 0.5
        if rng.random() < 0.15:
            lo, lo_open = sx.NEG_INF, True
        if rng.random() < 0.15:
            hi, hi_open = sx.POS_INF, True
        if lo == hi:
            lo_open = hi_open = False
        out.append(sx.Interval(lo, hi, lo_open, hi_open))
    return out


def test_interval_sort_and_normalization_agree_with_fraction_comparisons():
    rng = random.Random(25)
    repeated = 0
    for _ in range(2000):
        ivs = _seeded_intervals(rng)
        lows = [_fraction_lo_key(iv) for iv in ivs]
        repeated += len(set(lows)) < len(lows)
        # the same order, stable among equal lows, and the same form
        assert sx._sorted_by_lo(ivs) == sorted(ivs, key=_fraction_lo_key), ivs
        assert sx.normalize_intervals(ivs) == _fraction_normalized(ivs), ivs
        assert sx.normalize_intervals(iter(ivs)) == _fraction_normalized(ivs), ivs
    assert repeated > 200


def test_intervals_hash_and_print_as_their_fields():
    for lo, hi in ((sx.NEG_INF, Fraction(1, 3)), (Fraction(-1), sx.POS_INF),
                   (Fraction(2, 6), Fraction(2 ** 64 + 1, 2 ** 64)), (sx.NEG_INF, sx.POS_INF)):
        for flags in ((True, True), (True, False), (False, True), (False, False)):
            iv = sx.Interval(lo, hi, *flags)
            assert hash(iv) == hash((lo, hi) + flags)
            assert repr(iv) == "Interval(lo=%r, hi=%r, lo_open=%r, hi_open=%r)" % ((lo, hi) + flags)
            assert iv == sx.Interval(lo, hi, *flags)
            assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (lo, hi) + flags


def test_mixed_carrier_rejected():
    with pytest.raises(CarrierMismatch):
        sx.union(sx.nat_finite([0]), iv(0, 1))


def test_contains_matrix():
    s = sx.union(iv(0, 1, False, True), sx.qpoint(2))
    assert sx.contains(s, 0)
    assert sx.contains(s, Fraction(1, 2))
    assert not sx.contains(s, 1)
    assert sx.contains(s, 2)
    assert not sx.contains(s, -1)


def test_closure_and_interior():
    s = sx.union(iv(0, 1), sx.qpoint(2))
    assert sx.render(sx.interval_closure(s)) == "[0,1] u [2,2]"
    assert sx.render(sx.interval_interior(s)) == "(0,1)"
    # idempotent
    assert sx.interval_closure(sx.interval_closure(s)) == sx.interval_closure(s)
    assert sx.interval_interior(sx.interval_interior(s)) == sx.interval_interior(s)


# -- algebraic laws -------------------------------------------------------

@given(same_carrier_pairs())
def test_union_commutes(pair):
    a, b = pair
    assert sx.union(a, b) == sx.union(b, a)


@given(same_carrier_pairs())
def test_intersect_commutes(pair):
    a, b = pair
    assert sx.intersect(a, b) == sx.intersect(b, a)


@given(same_carrier_triples())
def test_union_associates(triple):
    a, b, c = triple
    assert sx.union(sx.union(a, b), c) == sx.union(a, sx.union(b, c))


@given(same_carrier_triples())
def test_distributivity(triple):
    a, b, c = triple
    assert sx.intersect(a, sx.union(b, c)) == \
        sx.union(sx.intersect(a, b), sx.intersect(a, c))


@given(any_sets)
def test_complement_involution(a):
    assert sx.complement(sx.complement(a)) == a


@given(same_carrier_pairs())
def test_de_morgan(pair):
    a, b = pair
    assert sx.complement(sx.union(a, b)) == \
        sx.intersect(sx.complement(a), sx.complement(b))


@given(any_sets)
def test_idempotence_and_absorption(a):
    assert sx.union(a, a) == a
    assert sx.intersect(a, a) == a
    assert sx.union(a, sx.empty(a.carrier)) == a
    assert sx.intersect(a, sx.whole(a.carrier)) == a


@given(same_carrier_pairs())
def test_minus_is_intersection_with_complement(pair):
    a, b = pair
    assert sx.minus(a, b) == sx.intersect(a, sx.complement(b))


@given(same_carrier_pairs())
def test_subset_consistent_with_union(pair):
    a, b = pair
    assert sx.is_subset(a, b) == (sx.union(a, b) == b)


@given(qline_sets())
@settings(max_examples=60)
def test_normalization_is_canonical(a):
    # rebuilding from the rendered pieces gives the identical object
    rebuilt = sx.empty(QLine())
    for piece in a.form:
        rebuilt = sx.union(
            rebuilt,
            sx.interval(piece.lo, piece.hi, piece.lo_open, piece.hi_open),
        )
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)
    assert sx.intervals((p.lo, p.hi, p.lo_open, p.hi_open) for p in reversed(a.form)) == a


def _endpoints_are_exact(S):
    return all(type(e) is Fraction or e is sx.NEG_INF or e is sx.POS_INF
               for iv in S.form for e in (iv.lo, iv.hi))


@given(qline_sets(), qline_sets())
@settings(max_examples=60)
def test_line_forms_hold_fractions_and_the_two_infinities(a, b):
    for S in (a, b, sx.union(a, b), sx.intersect(a, b), sx.complement(a), sx.minus(a, b),
              sx.interval_closure(a), sx.interval_interior(a)):
        assert _endpoints_are_exact(S), sx.render(S)


def test_float_infinities_enter_as_the_two_infinities():
    S = sx.intervals([(float("-inf"), 0, True, False), (1, float("inf"), True, True)])
    assert S == sx.union(sx.interval(sx.NEG_INF, 0, True, False), sx.interval(1, sx.POS_INF))
    assert _endpoints_are_exact(S) and sx.render(S) == "(-inf,0] u (1,+inf)"
    assert ShrinkIntervals(float("-inf"), 1, 0, 1, 2).a is sx.NEG_INF
    # the sentinels hash as the floats did, so sets iterate in the same order
    assert (hash(sx.NEG_INF), hash(sx.POS_INF)) == (hash(float("-inf")), hash(float("inf")))
    assert sx.NEG_INF < Fraction(-10**9) < 0 < Fraction(10**9) < sx.POS_INF
    assert sx.NEG_INF <= sx.NEG_INF < sx.POS_INF and not sx.POS_INF <= 0


@given(same_carrier_pairs())
@settings(max_examples=60)
def test_contains_respects_ops(pair):
    a, b = pair
    union, meet = sx.union(a, b), sx.intersect(a, b)
    for x in sample_points(a, b):
        assert sx.contains(union, x) == (sx.contains(a, x) or sx.contains(b, x))
        assert sx.contains(meet, x) == \
            (sx.contains(a, x) and sx.contains(b, x))


def _point_boxes(carrier, points):
    return [(from_points(carrier.left, [x]), from_points(carrier.right, [y]))
            for x, y in points]


GRIDS = {
    ENUM3_ENUM2: [(x, y) for x in "abc" for y in "xy"],
    QLINE_ENUM2: [(Fraction(x), y) for x in (0, Fraction(1, 2), 1, 2) for y in "xy"],
    PAIRS_ENUM2: [((a, b), y) for a in "xy" for b in "xy" for y in "xy"],
}


def _grouped_by_fiber(points):
    """(left points, fiber) pairs of a finite product set, by brute force."""
    fiber_of = {}
    for x, y in points:
        fiber_of.setdefault(x, set()).add(y)
    lefts_of = {}
    for x, ys in fiber_of.items():
        lefts_of.setdefault(frozenset(ys), set()).add(x)
    return {(frozenset(xs), ys) for ys, xs in lefts_of.items()}


@given(st.sampled_from(sorted(GRIDS, key=repr)).flatmap(
    lambda c: st.tuples(st.just(c), st.lists(st.sampled_from(GRIDS[c]), unique=True),
                        st.randoms(use_true_random=False))))
@settings(max_examples=60)
def test_product_canonical_form_ignores_build_order(drawn):
    carrier, points, rng = drawn
    built = sx.boxes(carrier, _point_boxes(carrier, points))
    shuffled = list(points)
    rng.shuffle(shuffled)
    boxes = _point_boxes(carrier, points)
    rng.shuffle(boxes)
    for other in (from_points(carrier, shuffled), sx.boxes(carrier, boxes)):
        assert other == built
        assert hash(other) == hash(built)
        assert sx.render(other) == sx.render(built)
    assert sorted(built.finite_points()) == sorted(points)
    # one box per fiber, holding every left point with that fiber
    cells = [(frozenset(l.finite_points()), frozenset(r.finite_points()))
             for l, r in sx.box_view(built)]
    assert len(cells) == len(set(cells))
    assert set(cells) == _grouped_by_fiber(points)
    keys = [sx.render(l) for l, _ in sx.box_view(built)]
    assert keys == sorted(keys)


# -- finite carriers against a model on sets of points --------------------

def _model_points(c):
    """Every point of a finite carrier, sorted."""
    if isinstance(c, FiniteEnum):
        return sorted(c.elements)
    return [(x, y) for x in _model_points(c.left) for y in _model_points(c.right)]


def _model_boxes(c, P):
    """(cell, fiber) of each fiber of the product set P: the left points that
    have it; sorted by the rendered cell."""
    fiber_of = {}
    for x, y in P:
        fiber_of.setdefault(x, set()).add(y)
    cell_of = {}
    for x, ys in fiber_of.items():
        cell_of.setdefault(frozenset(ys), set()).add(x)
    return sorted(((frozenset(xs), ys) for ys, xs in cell_of.items()),
                  key=lambda b: _model_render(c.left, b[0]))


def _model_render(c, P):
    if not P:
        return "empty"
    if isinstance(c, FiniteEnum):
        return "{%s}" % ",".join(sorted(P))
    return " u ".join("box(%s ; %s)" % (_model_render(c.left, l), _model_render(c.right, r))
                      for l, r in _model_boxes(c, P))


def _model_order(c, P):
    """The points of P in the order points_of lists them."""
    if isinstance(c, FiniteEnum):
        return sorted(P)
    return [(x, y) for l, r in _model_boxes(c, P)
            for x in _model_order(c.left, l) for y in _model_order(c.right, r)]


MASKED = {
    "e": ENUM3,
    "ee": ENUM3_ENUM2,
    "pe": PAIRS_ENUM2,
    "ep": Product(ENUM2, ENUM2_ENUM2),
}


@pytest.mark.parametrize("name", MASKED)
def test_finite_sets_agree_with_a_model_on_sets_of_points(name):
    """On 40 seeded sets of each finite carrier, the renders, sort keys,
    point lists and inclusions of every operation's result are those of a
    model that keeps a set of points, and renders a product set by grouping
    its left points by fiber.  Each set is built from its points in a
    shuffled order, and every second set as a union of random boxes."""
    c, rng = MASKED[name], random.Random(name)
    pts = _model_points(c)
    assert points_of(sx.whole(c)) == pts

    def built(P):
        shuffled = list(P)
        rng.shuffle(shuffled)
        return from_points(c, shuffled)

    drawn = [frozenset(), frozenset(pts)]
    while len(drawn) < 40:
        drawn.append(frozenset(x for x in pts if rng.random() < 0.4))
        S = sx.random_set(c, rng)
        drawn.append(frozenset(x for x in pts if sx.contains(S, x)))
    full = frozenset(pts)
    for i, A in enumerate(drawn):
        B = drawn[(i + 1) % len(drawn)]
        a, b = built(A), built(B)
        assert sx.is_subset(a, b) == (A <= B) and sx.is_subset(b, a) == (B <= A)
        assert (a == b) == (A == B)
        for got, want in ((a, A), (sx.union(a, b), A | B), (sx.intersect(a, b), A & B),
                          (sx.minus(a, b), A - B), (sx.complement(a), full - A),
                          (sx.union_all(c, [a, b, sx.empty(c)]), A | B)):
            assert got == built(want) and hash(got) == hash(built(want))
            assert sx.render(got) == sx.sort_key(got) == _model_render(c, want)
            assert points_of(got) == _model_order(c, want)
            assert [x for x in pts if sx.contains(got, x)] == [x for x in pts if x in want]
            assert got.is_empty() == (not want) and got.is_whole() == (want == full)


# -- products built from disjoint cells -----------------------------------

def _shortcut_carriers():
    """One product per class of left factor, each built afresh."""
    enum2 = FiniteEnum(("x", "y"))
    return [Product(FiniteEnum(("a", "b", "c")), NatFC()), Product(NatFC(), enum2),
            Product(QLine(), NatFC()), Product(Product(enum2, enum2), QLine())]


# seeded pairs of random_set draws per carrier
SHORTCUT_SAMPLE = 150


@pytest.mark.parametrize("c", _shortcut_carriers(), ids=lambda c: c.describe())
def test_product_shortcuts_agree_with_the_splitting_pass(c):
    """intersect, complement, from_points and whole build their boxes with
    pairwise disjoint cells and skip the splitting pass.  On SHORTCUT_SAMPLE
    seeded pairs (a, b), each the union of two random sets, each form equals
    the one that the full canonicalize (``sx.boxes``) gives for the same set
    built box by box.
    """
    rng = random.Random(c.describe())
    L, R = c.left, c.right
    assert sx.whole(c).form == sx.boxes(c, [(sx.whole(L), sx.whole(R))]).form
    for _ in range(SHORTCUT_SAMPLE):
        a, b = [sx.union(sx.random_set(c, rng), sx.random_set(c, rng)) for _ in "ab"]
        meets = [(sx.intersect(la, lb), sx.intersect(ra, rb))
                 for la, ra in a.form for lb, rb in b.form]
        assert sx.intersect(a, b).form == sx.boxes(c, meets).form
        covered = sx.union_all(L, [l for l, _ in a.form])
        rest = [(sx.complement(covered), sx.whole(R))]
        rest += [(l, sx.complement(r)) for l, r in a.form]
        assert sx.complement(a).form == sx.boxes(c, rest).form
        inside = [x for x in sample_points(a, b) if sx.contains(a, x)]
        pts = rng.sample(inside, min(len(inside), 8))
        assert from_points(c, pts).form == sx.boxes(c, _point_boxes(c, pts)).form


def test_whole_is_kept_per_carrier_and_is_whole_compares_values():
    for c, twin in zip(_shortcut_carriers(), _shortcut_carriers()):
        assert c == twin and c is not twin
        assert sx.whole(c).form is sx.whole(c).form
        assert sx.whole(twin) == sx.whole(c) and sx.whole(twin).form is not sx.whole(c).form
        # a whole set on the twin, with factors on c's factors
        built = sx.boxes(twin, [(sx.whole(c.left), sx.whole(c.right))])
        assert built.is_whole() and built == sx.whole(c)
        rng = random.Random(c.describe())
        for _ in range(20):
            a = sx.random_set(twin, rng)
            assert sx.union(a, sx.complement(a)).is_whole()
            assert a.is_whole() == (sx.render(a) == sx.render(sx.whole(c)))


# -- golden replay of every operation -------------------------------------

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "set_algebra.json"

CARRIERS = {
    "q": QLine(), "n": NatFC(), "e": ENUM3, "ee": ENUM3_ENUM2,
    "eq": ENUM3_QLINE, "qe": QLINE_ENUM2, "pe": PAIRS_ENUM2,
    "ne": Product(NatFC(), ENUM2), "en": Product(ENUM2, NatFC()),
    "ep": Product(ENUM2, ENUM2_ENUM2),
}

LINE_ENDS = [sx.NEG_INF, -2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, 2, sx.POS_INF]


def _draw(c, rng):
    """A seeded set on ``c``: a few pieces, some of them points."""
    if isinstance(c, FiniteEnum):
        return sx.atoms(c, [x for x in c.elements if rng.random() < 0.5])
    if isinstance(c, NatFC):
        elems = rng.sample(range(8), rng.randint(0, 3))
        return sx.nat_cofinite(elems) if rng.random() < 0.4 else sx.nat_finite(elems)
    if isinstance(c, QLine):
        out = sx.empty(c)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                out = sx.union(out, sx.qpoint(rng.choice(LINE_ENDS[1:-1])))
                continue
            lo, hi = sorted(rng.sample(range(len(LINE_ENDS)), 2))
            out = sx.union(out, sx.interval(
                LINE_ENDS[lo], LINE_ENDS[hi], lo == 0 or rng.random() < 0.5,
                hi == len(LINE_ENDS) - 1 or rng.random() < 0.5))
        return out
    return sx.boxes(c, [(_draw(c.left, rng), _draw(c.right, rng))
                        for _ in range(rng.randint(1, 3))])


def _points(S):
    try:
        pts = points_of(S)
    except GtsError as e:
        return "error " + type(e).__name__
    back = from_points(S.carrier, pts)
    return [repr(pts), sx.render(back), back == S]


def record(name, sets=14):
    c, rng = CARRIERS[name], random.Random(name)
    drawn = [sx.empty(c), sx.whole(c)] + [_draw(c, rng) for _ in range(sets)]
    singles = [{
        "set": sx.render(a),
        "complement": sx.render(sx.complement(a)),
        "empty": a.is_empty(), "whole": a.is_whole(), "finite": a.is_finite_pointset(),
        "points": _points(a),
        "endpoints": sorted(map(str, set_endpoints(a))),
    } for a in drawn]
    pairs = []
    for i, a in enumerate(drawn):
        for step in (1, 3):
            b = drawn[(i + step) % len(drawn)]
            pairs.append({
                "sets": [sx.render(a), sx.render(b)],
                "union": sx.render(sx.union(a, b)),
                "intersect": sx.render(sx.intersect(a, b)),
                "minus": sx.render(sx.minus(a, b)),
                "subset": [sx.is_subset(a, b), sx.is_subset(b, a)],
                "contains": "".join("ab"[j] if sx.contains(S, x) else "-"
                                    for x in sample_points(a, b)
                                    for j, S in enumerate((a, b))),
            })
    return {"carrier": name, "sets": singles, "pairs": pairs}


def collect():
    return [record(name) for name in CARRIERS]


@pytest.mark.parametrize("name", CARRIERS)
def test_set_algebra_matches_golden(name):
    # read here, not at import, so that regenerating may truncate the file first
    want = {w["carrier"]: w for w in json.loads(FIXTURE.read_text())}
    assert record(name) == want[name]


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1))
