from fractions import Fraction

import pytest

from gtskit.audit import audit_axioms
from gtskit.carriers import FiniteEnum, NatFC
from gtskit.constructions import (
    direct_sum,
    glue,
    localize,
    product,
    smallify,
    subspace,
    summand_family,
    topologize,
)
from gtskit.errors import (
    BallNotOpen,
    NonSmallFactor,
    OverlapNotOpen,
    UnsupportedSubset,
)
from gtskit.families import FamilyExpr
from gtskit import library as lib
import gtskit.presentation
from gtskit.presentation import (
    All,
    AllSets,
    EssFin,
    GtsPresentation,
    enumerate_opens,
    generate_finite_gts,
    is_admissible,
    is_open,
    points_of,
    smallness,
)
from gtskit import setexpr as sx
from gtskit.streams import ShrinkIntervals

from conftest import all_subsets, small_catalog


# -- subspaces ------------------------------------------------------------

def test_open_subspace_of_line():
    X = lib.rational_interval_line()
    Y = subspace(X, sx.interval(0, 1))
    assert Y.support == sx.interval(0, 1)
    assert is_open(Y, sx.interval(0, Fraction(1, 2)))
    assert not is_open(Y, sx.interval(0, 1, True, False))
    assert isinstance(Y.policy, EssFin)


def test_closed_trace_opens():
    # [0,1] is small in the small line, so the trace presentation exists;
    # [0,1/2) is open in the trace: it is [0,1] cap (-1,1/2)
    X = lib.rational_interval_line()
    Y = subspace(X, sx.interval(0, 1, False, False))
    assert is_open(Y, sx.interval(0, Fraction(1, 2), False, True))
    assert not is_open(Y, sx.interval(0, Fraction(1, 2), False, False))


def test_trace_of_a_trace_is_the_trace_on_both_windows():
    # the chain a < b < c < d, cut to {b,c,d} and then to {c,d}: its opens
    # there are the traces of {a,b,c} and {a,b,c,d}
    c = FiniteEnum(("a", "b", "c", "d"))
    chain = generate_finite_gts(c, [sx.atoms(c, "a"), sx.atoms(c, "ab"), sx.atoms(c, "abc")])
    X = subspace(subspace(chain, sx.atoms(c, "bcd")), sx.atoms(c, "cd"))
    assert [S for S in all_subsets(X.support) if is_open(X, S)] == \
        [sx.empty(c), sx.atoms(c, "c"), sx.atoms(c, "cd")]


def test_bare_topological_subset_unsupported():
    X = lib.qline_topological()
    with pytest.raises(UnsupportedSubset):
        subspace(X, sx.interval(0, 1, False, False))


def test_localized_subspace_keeps_layers():
    X = lib.qline_localized()
    Y = subspace(X, sx.interval(0, 1, False, False))
    assert smallness(Y, Y.support).status == "Small"


def test_subspace_audits_clean():
    X = lib.rational_interval_line()
    Y = subspace(X, sx.interval(0, 1, False, False))
    assert audit_axioms(Y, budget=60, seed=1).ok()


# -- products -------------------------------------------------------------

def test_product_requires_small_factors():
    with pytest.raises(NonSmallFactor):
        product([lib.qline_topological(), lib.rational_interval_line()])


def test_finite_product_opens_count():
    A = lib.discrete_small_pair()
    P, projs = product([A, A])
    assert len(enumerate_opens(P)) == 16
    assert len(projs) == 2
    assert audit_axioms(P, budget=40, seed=0).ok()


def test_product_opens_are_the_union_closure_of_open_boxes():
    # criterion 7 only checks the projections of the opens it is given, so
    # compare every open of the 169 catalog products with a bitmask closure
    lefts, rights = small_catalog("a", 3), small_catalog("b", 3)
    for A in lefts:
        apts = points_of(A.support)
        for B in rights:
            bpts = points_of(B.support)
            P, _ = product([A, B])
            opens = enumerate_opens(P)
            assert len(set(opens)) == len(opens)

            def grid(S):
                return sum(1 << (apts.index(x) * len(bpts) + bpts.index(y))
                           for x, y in points_of(S))

            rows = [sum(1 << bpts.index(y) for y in points_of(V))
                    for V in enumerate_opens(B)]
            cols = [[apts.index(x) for x in points_of(U)] for U in enumerate_opens(A)]
            closure = {0}
            for u in cols:
                for v in rows:
                    b = sum(v << (i * len(bpts)) for i in u)
                    closure |= {m | b for m in closure}
            assert sorted(grid(O) for O in opens) == sorted(closure)
            if len(apts) * len(bpts) <= 6:
                brute = [S for S in all_subsets(P.support) if is_open(P, S)]
                assert sorted(brute, key=sx.sort_key) == opens


def test_product_enumeration_lists_no_factor(monkeypatch):
    # the boxes of the factors' least opens are read, never the factors' opens
    calls = []
    listed = gtskit.presentation.enumerate_opens

    def counted(X):
        calls.append(X)
        return listed(X)

    S = lib.sierpinski()
    P, _ = product([S, S])
    monkeypatch.setattr(gtskit.presentation, "enumerate_opens", counted)
    assert len(listed(P)) == 6
    assert calls == []


def test_product_openness_lists_the_left_factor_once(monkeypatch):
    # the left factor's cover test is built on the first is_open call of the
    # product's opens and kept: the Sierpinski space's opens are listed once
    calls = []
    listed = gtskit.presentation.listed_opens

    def counted(X):
        calls.append(X)
        return listed(X)

    S = lib.sierpinski()
    P, _ = product([S, S])
    c = S.carrier
    a, b, whole = sx.atoms(c, ["a"]), sx.atoms(c, ["b"]), sx.whole(c)
    sets = [sx.box(a, a), sx.box(whole, a), sx.box(a, whole), P.support,
            sx.box(b, whole), sx.union(sx.box(a, whole), sx.box(whole, a))]
    monkeypatch.setattr(gtskit.presentation, "listed_opens", counted)
    assert [is_open(P, U) for U in sets] == [True, True, True, True, False, True]
    assert calls == [S]


def test_product_unit_law():
    A = lib.discrete_small_pair()
    P, _ = product([A])
    assert P is A


def test_line_square_box_opens():
    L = lib.rational_interval_line()
    P, (p1, p2) = product([L, L])
    box = sx.box(sx.interval(0, 1), sx.interval(2, 3))
    assert is_open(P, box)
    half_open = sx.box(sx.interval(0, 1, False, True), sx.interval(2, 3))
    assert not is_open(P, half_open)
    assert sx.render(p1.image(box)) == "(0,1)"


def test_projection_preimage_is_cylinder():
    L = lib.rational_interval_line()
    P, (p1, _) = product([L, L])
    cyl = p1.preimage(sx.interval(0, 1))
    assert is_open(P, cyl)
    assert sx.contains(cyl, (Fraction(1, 2), Fraction(100)))


# -- gluing and sums ------------------------------------------------------

def sub_line(a, b):
    return subspace(lib.rational_interval_line(), sx.interval(a, b))


def test_glue_overlapping_intervals():
    X = glue([sub_line(0, 2), sub_line(1, 3)])
    assert X.support == sx.interval(0, 3)
    assert is_open(X, sx.interval(Fraction(1, 2), Fraction(5, 2)))
    assert audit_axioms(X, budget=50, seed=3).ok()


def test_glue_rejects_non_open_overlap():
    A = subspace(lib.rational_interval_line(), sx.interval(0, 2, True, False))
    B = sub_line(2, 3)
    # overlap {2} is not open on the left piece
    C = subspace(lib.rational_interval_line(), sx.interval(2, 3, False, True))
    with pytest.raises(OverlapNotOpen):
        glue([A, C])


def test_ten_summand_nat_sum():
    pieces = [
        subspace(lib.discrete_small_nat(), sx.nat_finite(range(10 * i, 10 * i + 10)))
        for i in range(10)
    ]
    X = direct_sum(pieces)
    fam = summand_family(X)
    assert is_admissible(X, fam).admissible
    # unions of summands are open, and each summand is closed
    from itertools import combinations
    sups = list(fam.finite_part)
    for i, j in combinations(range(10), 2):
        assert is_open(X, sx.union(sups[i], sups[j]))
    # each summand is closed: its complement within the support is open
    for s in sups:
        assert is_open(X, sx.minus(X.support, s))


def test_tagged_enum_sum():
    X = direct_sum([lib.discrete_pair(), lib.discrete_pair()])
    assert set(X.carrier.elements) == {"0.a", "0.b", "1.a", "1.b"}
    assert is_open(X, sx.atoms(X.carrier, ["0.a", "1.b"]))


# -- adjoints -------------------------------------------------------------

def test_smallify_idempotent():
    for X in lib.shipped().values():
        once = smallify(X)
        assert isinstance(once.policy, EssFin)
        assert smallify(once) is once


def test_smallify_keeps_opens():
    X = lib.qline_topological()
    Y = smallify(X)
    assert type(Y.opens) is type(X.opens)
    U = FamilyExpr(Y.carrier, (), (ShrinkIntervals(0, 1, 1, 1, 3),))
    assert is_admissible(X, U).admissible
    assert not is_admissible(Y, U).admissible


def test_topologize_weakly_discrete_is_discrete():
    X = lib.weakly_discrete_nat()
    T = topologize(X)
    assert isinstance(T.opens, AllSets)
    assert isinstance(T.policy, All)
    assert is_open(T, sx.nat_cofinite([0]))


def test_topologize_line_returns_weak_openness_predicate():
    X = lib.rational_interval_line()
    wo = topologize(X)
    assert callable(wo)
    assert wo(sx.interval(0, 1))
    assert not wo(sx.interval(0, 1, False, True))


def test_topologize_finite_closure():
    T = topologize(lib.sierpinski())
    assert {sx.render(S) for S in enumerate_opens(T)} == \
        {"empty", "{a}", "{a,b}"}


def test_localize_line():
    X = localize(lib.rational_interval_line())
    assert X.name.endswith("_loc")
    U = FamilyExpr(X.carrier, (), (ShrinkIntervals(0, 1, 1, 1, 3),))
    assert not is_admissible(X, U).admissible
    assert smallness(X, sx.whole(X.carrier)).status == "NotSmall"
    assert audit_axioms(X, budget=60, seed=7).ok()
