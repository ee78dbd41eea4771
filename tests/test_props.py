import pathlib
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, product as iproduct
from operator import and_

import pytest

from gtskit.carriers import FiniteEnum, NatFC, QLine
from gtskit.families import FamilyExpr
from gtskit import library as lib
import gtskit.presentation
import gtskit.props
from gtskit.constructions import direct_sum, glue, product, subspace
from gtskit.dsl import parse_document
from gtskit.maps import (
    Const,
    FiniteTable,
    Identity,
    NatPerm,
    NatShift,
    Pairing,
    PiecewiseAffine,
    SpaceMap,
    check_strict_continuity,
    identity_map,
    preimages_of_opens_open,
)
from gtskit.presentation import (
    All,
    AllSets,
    EssFin,
    ExplicitList,
    GtsPresentation,
    TraceOpens,
    enumerate_opens,
    from_mask,
    from_points,
    generate_finite_gts,
    is_open,
    least_opens,
    points_of,
)
from gtskit.props import (
    CANONICAL_INTERVAL_BASIS,
    SEPARATION_FLAGS,
    classify_map,
    components,
    is_basis,
    is_dense,
    quasi_components,
    separation_report,
)
from gtskit import setexpr as sx
from gtskit.streams import GrowBalls, ShrinkIntervals, Singletons, clip_stream
from gtskit.verdict import Verdict

from conftest import all_subsets, mask_space, mask_topologies, small_catalog

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "corpus"


# -- separation: brute-force oracle on finite spaces ----------------------

def oracle_separation(X):
    pts = points_of(X.support)
    opens = enumerate_opens(X)
    closeds = [sx.minus(X.support, O) for O in opens]
    singles = {x: from_points(X.carrier, [x]) for x in pts}
    targets = [F for F in closeds if not F.is_empty()] + list(singles.values())

    def sep(A, B):
        return any(
            sx.is_subset(A, U) and sx.is_subset(B, V)
            and sx.intersect(U, V).is_empty()
            for U in opens for V in opens)

    out = {}
    out["weakly_T1"] = all(
        any(sx.contains(O, x) and not sx.contains(O, y) for O in opens)
        for x in pts for y in pts if x != y)
    out["strongly_T1"] = all(
        sx.minus(X.support, singles[x]) in opens for x in pts)
    out["weakly_hausdorff"] = all(
        sep(singles[x], singles[y]) for x, y in combinations(pts, 2))
    out["weakly_regular"] = all(
        sep(singles[x], F)
        for x in pts for F in targets if not sx.contains(F, x))
    out["weakly_normal"] = all(
        sep(F, G) for F in targets for G in targets
        if sx.intersect(F, G).is_empty())
    out["strongly_hausdorff"] = out["weakly_hausdorff"] and out["strongly_T1"]
    out["strongly_regular"] = out["weakly_regular"] and out["strongly_T1"]
    out["strongly_normal"] = out["weakly_normal"] and out["strongly_T1"]
    return out


def all_topologies(atoms):
    c = FiniteEnum(atoms)
    pts = list(atoms)
    subsets = [from_points(c, s)
               for r in range(len(pts) + 1) for s in combinations(pts, r)]
    inner = [S for S in subsets if not S.is_empty() and not S.is_whole()]
    for r in range(len(inner) + 1):
        for picks in combinations(inner, r):
            T = set(picks) | {sx.empty(c), sx.whole(c)}
            if all(sx.union(a, b) in T and sx.intersect(a, b) in T
                   for a in T for b in T):
                yield c, tuple(sorted(T, key=sx.sort_key))


def test_separation_matches_oracle_on_all_3_point_topologies():
    for c, opens in all_topologies(("a", "b", "c")):
        X = generate_finite_gts(c, opens)
        rep = separation_report(X)
        want = oracle_separation(X)
        got = {k: rep.flags[k].yes for k in SEPARATION_FLAGS}
        assert got == want, [sx.render(S) for S in opens]


def mask_oracle_separation(n, T):
    """The oracle above, on a topology given as bitmasks over n points."""
    full, opens = (1 << n) - 1, sorted(T)
    singles = [1 << i for i in range(n)]
    targets = [full ^ O for O in opens if O != full] + singles

    def sep(A, B):
        return any(not U & V for U in opens if not A & ~U for V in opens if not B & ~V)

    out = {}
    out["weakly_T1"] = all(any(O >> x & 1 and not O >> y & 1 for O in opens)
                           for x in range(n) for y in range(n) if x != y)
    out["strongly_T1"] = all(full ^ s in T for s in singles)
    out["weakly_hausdorff"] = all(sep(a, b) for a, b in combinations(singles, 2))
    out["weakly_regular"] = all(sep(s, F) for s in singles for F in targets if not s & F)
    out["weakly_normal"] = all(sep(F, G) for F in targets for G in targets if not F & G)
    for strong in ("hausdorff", "regular", "normal"):
        out["strongly_" + strong] = out["weakly_" + strong] and out["strongly_T1"]
    return out


def test_separation_matches_oracle_on_all_4_point_topologies():
    tops = mask_topologies(4)
    assert len(tops) == 355
    for T in tops:
        rep = separation_report(mask_space("p", 4, T))
        got = {k: rep.flags[k].yes for k in SEPARATION_FLAGS}
        assert got == mask_oracle_separation(4, T), sorted(T)


def test_weakly_discrete_nat_flags():
    rep = separation_report(lib.weakly_discrete_nat())
    assert rep.flags["weakly_T1"].yes
    assert rep.flags["strongly_T1"].status == "No"
    assert rep.flags["weakly_hausdorff"].yes
    assert rep.flags["weakly_regular"].status == "No"
    assert rep.flags["strongly_normal"].status == "No"


def test_line_fully_separated():
    rep = separation_report(lib.rational_interval_line())
    assert all(rep.flags[k].yes for k in SEPARATION_FLAGS)


@pytest.mark.parametrize("carrier", [QLine(), NatFC()], ids=["line", "nat"])
def test_all_sets_open_separate_on_every_carrier(carrier):
    rep = separation_report(GtsPresentation(carrier, AllSets(), EssFin()))
    assert {rep.flags[k].reason for k in SEPARATION_FLAGS} == {"every subset is open"}
    assert all(rep.flags[k].yes for k in SEPARATION_FLAGS)


def test_strong_implies_weak_everywhere():
    # no guard reconciles the flags afterwards, so each procedure must
    # keep the implications itself
    spaces = list(lib.shipped().values())
    for path in sorted(CORPUS.glob("*.gts")):
        spaces += parse_document(path.read_text()).spaces.values()
    for X in spaces + [mask_space("p", 4, T) for T in mask_topologies(4)]:
        rep = separation_report(X)
        if rep.flags["strongly_T1"].yes:
            assert rep.flags["weakly_T1"].yes
        for strong, weak in (("strongly_hausdorff", "weakly_hausdorff"),
                             ("strongly_regular", "weakly_regular"),
                             ("strongly_normal", "weakly_normal")):
            if rep.flags[strong].yes:
                assert rep.flags[weak].yes
                assert rep.flags["strongly_T1"].yes


# -- components -----------------------------------------------------------

def test_components_discrete_and_indiscrete():
    assert len(components(lib.discrete_pair()).parts) == 2
    assert len(components(lib.indiscrete_pair()).parts) == 1
    assert len(components(lib.sierpinski()).parts) == 1


def test_components_acc_flag():
    cr = components(lib.discrete_pair())
    assert cr.acc.yes


def finite_spaces():
    """The finite spaces of at most 6 points the oracles below judge: every
    labeled topology on 1-4 points, the finite shipped spaces, binary and
    three-factor catalog products, direct sums, seeded subspaces and traces
    of products."""
    for n in range(1, 5):
        yield from (mask_space("p", n, T) for T in mask_topologies(n))
    yield from (X for X in lib.shipped().values() if X.support.is_finite_pointset())
    two, three = small_catalog("a", 2), small_catalog("b", 3)
    yield from (product([A, B])[0] for A in two for B in three)
    pairs = [X for X in small_catalog("c", 2) if len(points_of(X.support)) == 2]
    yield from (product([A, B, C])[0] for A in pairs for B in pairs
                for C in small_catalog("d", 1))
    nine = small_catalog("s", 3)[:9]
    yield from (direct_sum([A, B]) for A in nine for B in nine)
    rng = random.Random(15)
    for _ in range(17):
        X = mask_space("q", 4, rng.choice(mask_topologies(4)))
        yield subspace(X, sx.atoms(X.carrier, rng.sample(points_of(X.support),
                                                         rng.randint(1, 4))))
    for i, j in ((1, 2), (2, 5), (3, 7)):
        P = product([two[i], three[j]])[0]
        picked = points_of(P.support)[::2]
        yield subspace(P, sx.union_all(P.carrier, [
            sx.box(sx.atoms(P.carrier.left, [x]), sx.atoms(P.carrier.right, [y]))
            for x, y in picked]))


def oracle_components(X):
    """The maximal connected subsets, as bitmasks over the points: a subset
    is connected when no two disjoint, non-empty, relatively open parts
    cover it.  The opens are every subset is_open accepts."""
    pts = points_of(X.support)
    opens = [m for m in range(1 << len(pts)) if is_open(X, from_mask(X.carrier, pts, m))]

    def connected(S):
        rel = {O & S for O in opens}
        return not any(P and P != S and S ^ P in rel for P in rel)

    conn = [S for S in range(1, 1 << len(pts)) if connected(S)]
    return {S for S in conn if not any(S != T and S & T == S for T in conn)}


def oracle_quasi_components(X):
    """The intersections of the clopens around each point, as sets."""
    pts = points_of(X.support)
    subsets = [from_mask(X.carrier, pts, m) for m in range(1 << len(pts))]
    opens = [S for S in subsets if is_open(X, S)]
    clopen = [O for O in opens if is_open(X, sx.minus(X.support, O))]
    out = set()
    for x in pts:
        qc = X.support
        for O in clopen:
            if sx.contains(O, x):
                qc = sx.intersect(qc, O)
        out.add(qc)
    return out


def test_components_and_quasi_components_match_brute_force_oracles():
    spaces = list(finite_spaces())
    assert len(spaces) == 556
    for X in spaces:
        pts = points_of(X.support)
        assert len(pts) <= 6
        parts = components(X).parts
        got = {sum(1 << pts.index(x) for x in points_of(P)) for P in parts}
        assert got == oracle_components(X), X
        assert set(quasi_components(X)) == oracle_quasi_components(X), X


def brute_opens(X):
    """The opens of a finite presentation: the subsets is_open accepts; for a
    trace, the traces of its parent's brute-force opens, or, where the parent
    has infinitely many, of its known opens: every set for a T1 parent (the
    line, all-sets and finite-or-whole opens), the list for listed opens."""
    op = X.opens
    if not isinstance(op, TraceOpens):
        return {S for S in all_subsets(X.support) if is_open(X, S)}
    P = op.parent
    if P.support.is_finite_pointset():
        opens = brute_opens(P)
    elif isinstance(P.opens, ExplicitList):
        opens = P.opens.sets
    else:
        return set(all_subsets(X.support))
    return {sx.intersect(O, X.support) for O in opens}


def listed_line():
    """Listed opens on the line that are not T1: a point, intervals around it."""
    q = QLine()
    zero, unit = sx.qpoint(0), sx.interval(0, 1)
    return GtsPresentation(q, ExplicitList((
        sx.empty(q), zero, unit, sx.union(zero, unit), sx.interval(-1, 2), sx.whole(q))),
        EssFin(), name="listed_line")


def test_least_opens_and_listing_match_brute_force_opens():
    # about 2 s: the 556 finite spaces, three glues with overlaps, and traces
    # on 2 to 5 points of two T1 spaces of the naturals, the line and listed
    # opens on the line
    rng = random.Random(16)
    line = [Fraction(k, 2) for k in range(-4, 5)]
    traces = []
    for parent, pts in ((lib.rational_interval_line(), line), (listed_line(), line),
                        (lib.discrete_small_nat(), range(9)),
                        (lib.weakly_discrete_nat(), range(9))):
        for n in (2, 3, 4, 5):
            picked = rng.sample(list(pts), n)
            points = sx.union_all(parent.carrier, [from_points(parent.carrier, [x])
                                                   for x in picked])
            traces.append(subspace(parent, points))
    c = FiniteEnum(("a", "b", "c", "d"))
    A = generate_finite_gts(c, [sx.atoms(c, s) for s in ("b", "ab", "bc")])
    glues = [glue([subspace(A, sx.atoms(c, s)) for s in pieces])
             for pieces in (("ab", "bc"), ("abc", "bd"), ("ab", "b", "bcd"))]
    for X in list(finite_spaces()) + traces + glues:
        brute = sorted(brute_opens(X), key=sx.sort_key)
        assert enumerate_opens(X) == brute, X
        if isinstance(X.opens, TraceOpens):
            assert {S for S in all_subsets(X.support) if is_open(X, S)} == set(brute), X
        pts, least = least_opens(X)
        masks = [sum(1 << k for k, x in enumerate(pts) if sx.contains(O, x)) for O in brute]
        meets = [reduce(and_, (m for m in masks if m >> k & 1)) for k in range(len(pts))]
        assert least == meets, X


def test_finite_subspaces_answer_from_their_least_opens():
    # the parent presentations have infinitely many opens, their traces not
    three = sx.nat_finite([0, 1, 2])
    for X in (subspace(lib.rational_interval_line(), sx.union(sx.qpoint(0), sx.qpoint(1))),
              subspace(lib.discrete_small_nat(), three),
              subspace(lib.weakly_discrete_nat(), three)):
        points = tuple(from_points(X.carrier, [x]) for x in points_of(X.support))
        cr = components(X)
        assert cr.parts == quasi_components(X) == points
        assert cr.acc.yes
        rep = separation_report(X)
        assert all(rep.flags[k].yes for k in SEPARATION_FLAGS)


def _no_union_closure(monkeypatch):
    """Make the listing of unions of least opens raise, where presentation
    and props bind it."""
    def broken(masks):
        raise AssertionError("listed the opens")

    for module in (gtskit.presentation, gtskit.props):
        monkeypatch.setattr(module, "union_closure", broken)


def test_all_sets_finite_supports_list_no_subsets(monkeypatch):
    # 2**24 or 2**25 opens each: only the least opens are read
    nat = NatFC()
    halves = [GtsPresentation(nat, AllSets(), EssFin(), sx.nat_finite(range(i, i + 12)))
              for i in (0, 12)]
    five = GtsPresentation(nat, AllSets(), EssFin(), sx.nat_finite(range(5)))
    spaces = [GtsPresentation(nat, AllSets(), EssFin(), sx.nat_finite(range(25))),
              direct_sum(halves),
              subspace(lib.discrete_small_nat(), sx.nat_finite(range(25))),
              product([five, five])[0]]
    _no_union_closure(monkeypatch)
    for X in spaces:
        points = {from_points(X.carrier, [x]) for x in points_of(X.support)}
        assert len(points) >= 24
        cr = components(X)
        assert set(cr.parts) == set(quasi_components(X)) == points
        assert cr.acc.yes
        flags = separation_report(X).flags
        assert all(flags[k] == Verdict("Yes") for k in SEPARATION_FLAGS)


def test_discrete_constructions_separate_as_the_oracle_without_listing(monkeypatch):
    # a sum, a trace and a product of discrete spaces are discrete: the flags
    # are read off the least opens, not off every open
    nat = NatFC()
    A = GtsPresentation(nat, AllSets(), EssFin(), sx.nat_finite(range(2)))
    B = GtsPresentation(nat, AllSets(), EssFin(), sx.nat_finite(range(2, 4)))
    spaces = [direct_sum([A, B]),
              subspace(lib.discrete_small_nat(), sx.nat_finite(range(4))),
              product([lib.discrete_pair(), lib.discrete_small_pair()])[0]]
    assert all(all(oracle_separation(X).values()) for X in spaces)
    _no_union_closure(monkeypatch)
    for X in spaces:
        flags = separation_report(X).flags
        assert all(flags[k] == Verdict("Yes") for k in SEPARATION_FLAGS), X


def test_line_subspace_components_are_intervals():
    X = lib.rational_interval_line()
    Y = subspace(X, sx.union(sx.interval(0, 1), sx.interval(2, 3)))
    parts = components(Y).parts
    assert [sx.render(p) for p in parts] == ["(0,1)", "(2,3)"]


# -- density and bases ----------------------------------------------------

def test_dense_and_non_dense():
    X = lib.rational_interval_line()
    assert is_dense(X, sx.whole(X.carrier)).yes
    v = is_dense(X, sx.interval(0, 1))
    assert v.status == "No"
    # the witness open avoids the closure
    assert sx.intersect(v.witness, sx.interval(0, 1, False, False)).is_empty()


def test_interval_basis_of_the_small_line():
    assert is_basis(lib.rational_interval_line(), CANONICAL_INTERVAL_BASIS).yes


def test_singleton_basis_of_discrete_pair():
    D = lib.discrete_pair()
    B = FamilyExpr(D.carrier, (sx.atoms(D.carrier, ["a"]),
                               sx.atoms(D.carrier, ["b"])))
    assert is_basis(D, B).yes
    whole_only = FamilyExpr(D.carrier, (sx.whole(D.carrier),))
    assert is_basis(D, whole_only).status == "No"


def test_finite_basis_reads_the_stages_that_hold_each_point():
    # the eight clipped singletons are the eight singletons listed; the
    # first four stages alone do not make up {0,...,7}
    support = sx.nat_finite(range(8))
    X = subspace(lib.topological_discrete_nat(), support)
    clipped = FamilyExpr(X.carrier, (), (clip_stream(Singletons(), support),))
    listed = FamilyExpr(X.carrier, tuple(sx.nat_finite([n]) for n in range(8)))
    assert is_basis(X, listed).yes
    assert is_basis(X, clipped).yes
    # on four isolated points of the line, the first clipped ball that holds
    # 0 is {0,1/2}, and every later one holds it: {0} is no member
    sub = subspace(lib.rational_interval_line(), sx.union_all(
        QLine(), [sx.qpoint(Fraction(k, 2)) for k in range(4)]))
    v = is_basis(sub, FamilyExpr(QLine(), (), (clip_stream(GrowBalls(1), sub.support),)))
    assert (v.status, sx.render(v.witness)) == ("No", "[0,0]")


def test_finite_basis_agrees_with_a_listing_of_every_open():
    """On every third finite space of the least-opens differential, is_basis
    of the least opens, of all opens and of the least opens less each one
    agrees with a listing of every open: is each the union of the members
    inside it?  A missing least open is the witness."""
    for X in list(finite_spaces())[::3]:
        pts, least = least_opens(X)
        sets = [from_mask(X.carrier, pts, m) for m in range(1 << len(pts))]
        opens = [O for O in sets if is_open(X, O)]

        def listed_verdict(members):
            return all(sx.union_all(X.carrier, [m for m in members if sx.is_subset(m, O)]) == O
                       for O in opens)

        minimal = list(dict.fromkeys(from_mask(X.carrier, pts, m) for m in least))
        assert is_basis(X, FamilyExpr(X.carrier, tuple(minimal))).yes
        assert is_basis(X, FamilyExpr(X.carrier, tuple(opens))).yes
        for U in minimal:
            rest = tuple(m for m in minimal if m != U)
            v = is_basis(X, FamilyExpr(X.carrier, rest))
            assert (v.status, v.witness) == ("No", U) and not listed_verdict(rest)


def test_finite_basis_lists_no_open(monkeypatch):
    def refuse(X):
        raise AssertionError("listed the opens")

    monkeypatch.setattr(gtskit.presentation, "enumerate_opens", refuse)
    support = sx.nat_finite(range(25))
    X = GtsPresentation(NatFC(), AllSets(), All(), support)
    start = time.perf_counter()
    v = is_basis(X, FamilyExpr(NatFC(), (), (clip_stream(Singletons(), support),)))
    assert v.yes and time.perf_counter() - start < 1


def test_finite_open_and_closed_maps_list_no_open(monkeypatch):
    # the identity of all-sets over 25 naturals, which has 2**25 opens: the
    # images of the 25 least opens and of the 25 points' closures decide
    def refuse(X):
        raise AssertionError("listed the opens")

    monkeypatch.setattr(gtskit.presentation, "enumerate_opens", refuse)
    f = identity_map(GtsPresentation(NatFC(), AllSets(), All(), sx.nat_finite(range(25))))
    start = time.perf_counter()
    flags = [gtskit.props._image_preserves(f, closed, 64, 19) for closed in (False, True)]
    assert flags == [Verdict("Yes")] * 2 and time.perf_counter() - start < 1


def _listed_image_verdict(f, closed):
    """The open (closed) map flag from every open of a finite domain."""
    for O in enumerate_opens(f.domain):
        S = sx.minus(f.domain.support, O) if closed else O
        img = f.image(S)
        if not is_open(f.codomain, sx.minus(f.codomain.support, img) if closed else img):
            return Verdict("No", witness=S)
    return Verdict("Yes")


def test_finite_open_and_closed_maps_agree_with_a_listing_of_every_open():
    # a seeded table between every two spaces of the catalog up to 3 points
    rng = random.Random(24)
    spaces = small_catalog("m", 3)
    for X in spaces:
        for Y in spaces:
            targets = points_of(Y.support)
            f = SpaceMap(X, Y, FiniteTable(tuple((x, rng.choice(targets))
                                                 for x in points_of(X.support))))
            for closed in (False, True):
                assert gtskit.props._image_preserves(f, closed, 64, 19) \
                    == _listed_image_verdict(f, closed), (X, Y, f.rule, closed)


def test_finite_strict_continuity_lists_no_open(monkeypatch):
    # the identity of all-sets over 25 naturals, which has 2**25 opens: the
    # preimages of the 25 least opens decide, for the map and its inverse
    def refuse(X):
        raise AssertionError("listed the opens")

    monkeypatch.setattr(gtskit.presentation, "enumerate_opens", refuse)
    f = identity_map(GtsPresentation(NatFC(), AllSets(), All(), sx.nat_finite(range(25))))
    start = time.perf_counter()
    assert check_strict_continuity(f).yes
    assert classify_map(f).ok()
    assert time.perf_counter() - start < 1


def test_finite_strict_continuity_agrees_with_a_listing_of_every_open():
    # a seeded table between every two spaces of the catalog up to 3 points
    rng = random.Random(25)
    spaces = small_catalog("m", 3)
    for X in spaces:
        for Y in spaces:
            targets = points_of(Y.support)
            f = SpaceMap(X, Y, FiniteTable(tuple((x, rng.choice(targets))
                                                 for x in points_of(X.support))))
            listed = all(is_open(X, f.preimage(O)) for O in enumerate_opens(Y))
            assert preimages_of_opens_open(f) is listed, (X, Y, f.rule)


def test_listed_basis_reads_the_stages_inside_each_open():
    # an infinite support with listed opens: the clipped balls are exactly
    # the five listed intervals, which the first four stages do not reach
    W = sx.interval(0, 5)
    ivs = tuple(sx.interval(0, k) for k in range(1, 6))
    X = GtsPresentation(QLine(), ExplicitList((sx.empty(QLine()),) + ivs), EssFin(), W)
    assert is_basis(X, FamilyExpr(QLine(), ivs)).yes
    assert is_basis(X, FamilyExpr(QLine(), (), (clip_stream(GrowBalls(1), W),))).yes
    v = is_basis(X, FamilyExpr(QLine(), (), (clip_stream(GrowBalls(2), W),)))
    assert (v.status, sx.render(v.witness)) == ("No", "(0,1)")
    # a pointwise stream: the member index_of names for each point left over
    N = NatFC()
    opens = (sx.whole(N),) + tuple(sx.nat_finite(c) for r in range(7)
                                   for c in combinations(range(6), r))
    Y = GtsPresentation(N, ExplicitList(opens), EssFin(), sx.whole(N))
    singles = [clip_stream(Singletons(), sx.nat_finite(range(k))) for k in (6, 5)]
    assert is_basis(Y, FamilyExpr(N, (sx.whole(N),), (singles[0],))).yes
    v = is_basis(Y, FamilyExpr(N, (sx.whole(N),), (singles[1],)))
    assert (v.status, sx.render(v.witness)) == ("No", "{0,1,2,3,4,5}")


def test_sampled_basis_keeps_the_members_inside_each_drawn_open():
    # the line's opens cannot be listed, so 64 drawn opens are checked, each
    # against the union of the members found inside it: neither the whole
    # line nor the balls about 0 make up a drawn open such as (1,2)
    X = lib.rational_interval_line()
    for B in (FamilyExpr(X.carrier, (sx.whole(X.carrier),)),
              FamilyExpr(X.carrier, (), (GrowBalls(1),))):
        v = is_basis(X, B)
        assert (v.status, v.reason) == ("No", "open set is not a union of basis members")
        assert is_open(X, v.witness) and not v.witness.is_empty() and not v.witness.is_whole()
    # shrinking intervals leave most drawn opens uncovered
    v = is_basis(X, FamilyExpr(X.carrier, (), (ShrinkIntervals(0, 1, 1, 1, 3),)))
    assert (v.status, v.reason) == ("No", "open set not covered by the basis")
    assert not sx.is_subset(v.witness, sx.interval(0, 1))
    # drawn naturals: every finite open is a union of singletons, a cofinite
    # one holds infinitely many, which are not all found
    N = NatFC()
    W = lib.weakly_discrete_nat()
    assert is_basis(W, FamilyExpr(N, (sx.whole(N),), (Singletons(),))).status == "Checked"
    v = is_basis(W, FamilyExpr(N, (), (Singletons(),)))
    assert (v.status, v.reason) == ("Unknown", "the members inside an open are not all found")


# -- map classification ---------------------------------------------------

def test_identity_discrete_directions():
    f = SpaceMap(lib.topological_discrete_nat(), lib.discrete_small_nat(),
                 Identity())
    cls = classify_map(f)
    assert cls["strictly_continuous"].yes
    assert cls["open_map"].yes
    assert cls["closed_map"].yes
    assert cls["strict_homeo"].status == "No"
    assert isinstance(cls["strict_homeo"].witness.streams[0], Singletons)


def test_affine_strict_homeo():
    L = lib.rational_interval_line()
    f = SpaceMap(L, L, PiecewiseAffine(
        ((sx.whole(L.carrier), Fraction(2), Fraction(1)),)))
    cls = classify_map(f)
    assert all(cls[k].yes for k in
               ("strictly_continuous", "open_map", "closed_map",
                "strict_homeo", "local_strict_homeo"))


def test_permutation_strict_homeo():
    N = lib.discrete_small_nat()
    f = SpaceMap(N, N, NatPerm(((0, 2), (2, 0))))
    assert classify_map(f)["strict_homeo"].yes


def test_collapse_not_homeo():
    f = SpaceMap(lib.sierpinski(), lib.point_space(), Const("p"))
    cls = classify_map(f)
    assert cls["strict_homeo"].status == "No"


def test_pointwise_images_of_infinite_opens_are_unknown():
    # z -> (z, z + 1) has no image of a cofinite set
    N = lib.discrete_small_nat()
    f = SpaceMap(N, product([N, N])[0],
                 Pairing(identity_map(N), SpaceMap(N, N, NatShift(1))))
    cls = classify_map(f)
    assert cls["open_map"].status == cls["closed_map"].status == "Unknown"
    assert "infinite set" in cls["open_map"].reason


def test_enumeration_faults_are_not_fallbacks(monkeypatch):
    def broken(X):
        raise RuntimeError("enumeration bug")

    # maps and props list opens through presentation.listed_opens; strict
    # continuity lists the opens of a codomain with an infinite support
    X = GtsPresentation(QLine(), ExplicitList((sx.empty(QLine()), sx.interval(0, 1),
                                               sx.whole(QLine()))), EssFin())
    f = identity_map(X)
    monkeypatch.setattr(gtskit.presentation, "enumerate_opens", broken)
    with pytest.raises(RuntimeError):
        check_strict_continuity(f)
    with pytest.raises(RuntimeError):
        classify_map(f)
    # a one-point codomain is continuous without a listing, and the images
    # of the least opens show this map open and closed without one too
    cls = classify_map(SpaceMap(lib.sierpinski(), lib.point_space(), Const("p")))
    assert cls["open_map"].yes and cls["closed_map"].yes
    # where the image of a least open (of a point's closure) is not open
    # (closed), the open (closed) map flag lists the opens for its witness
    g = SpaceMap(lib.discrete_pair(), lib.sierpinski(), FiniteTable((("a", "a"), ("b", "b"))))
    for closed in (False, True):
        with pytest.raises(RuntimeError):
            gtskit.props._image_preserves(g, closed, 64, 19)
