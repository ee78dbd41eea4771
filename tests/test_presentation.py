import random
from fractions import Fraction

import pytest

from gtskit.carriers import FiniteEnum, NatFC, QLine
from gtskit.constructions import subspace
from gtskit.errors import NonFiniteCarrier, NonOpenMember, UnsupportedPresentation
from gtskit.families import FamilyExpr
from gtskit import library as lib
from gtskit.presentation import (
    All,
    AllCanonicalOpen,
    AllSets,
    EssFin,
    ExplicitList,
    FiniteOrWhole,
    GluedOpens,
    GtsPresentation,
    TraceOpens,
    check_members_open,
    enumerate_opens,
    generate_finite_gts,
    is_admissible,
    is_open,
    smallness,
)
from gtskit.props import components
from gtskit import setexpr as sx
from gtskit.streams import GrowBalls, ShrinkIntervals, Singletons, clip_stream


def shrink01(n0=3):
    return ShrinkIntervals(0, 1, Fraction(1), Fraction(1), n0)


def test_presentation_rejects_a_policy_of_unknown_kind():
    for validate in (True, False):
        with pytest.raises(UnsupportedPresentation):
            GtsPresentation(NatFC(), AllSets(), "essfin", validate=validate)


# -- openness -------------------------------------------------------------

def test_canonical_open_line():
    X = lib.rational_interval_line()
    assert is_open(X, sx.interval(0, 1))
    assert is_open(X, sx.union(sx.interval(0, 1), sx.interval(2, 3)))
    assert not is_open(X, sx.interval(0, 1, False, True))
    assert not is_open(X, sx.qpoint(2))
    assert is_open(X, sx.empty(X.carrier))
    assert is_open(X, sx.whole(X.carrier))


def test_finite_or_whole_opens():
    X = lib.weakly_discrete_nat()
    assert is_open(X, sx.nat_finite([0, 5]))
    assert is_open(X, sx.whole(X.carrier))
    assert not is_open(X, sx.nat_cofinite([0]))


def test_explicit_list_must_be_closed_under_ops():
    c = FiniteEnum(("a", "b"))
    with pytest.raises(Exception):
        # missing the union {a,b}... actually missing the empty set
        GtsPresentation(c, ExplicitList((sx.atoms(c, ["a"]), sx.whole(c))), All())


def test_enumerate_opens_sierpinski():
    X = lib.sierpinski()
    assert {sx.render(S) for S in enumerate_opens(X)} == \
        {"empty", "{a}", "{a,b}"}


def test_check_members_open_flags_stream_escape():
    # initial segments escape a 3-point support
    c = NatFC()
    X = GtsPresentation(
        c, ExplicitList(tuple(
            sx.nat_finite(s) for s in
            ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]))),
        All(), support=sx.nat_finite([0, 1, 2]))
    from gtskit.streams import InitialSegments
    F = FamilyExpr(c, (), (InitialSegments(0),))
    with pytest.raises(NonOpenMember):
        check_members_open(X, F)


# -- admissibility --------------------------------------------------------

def test_remark_counterexample_under_essfin():
    X = lib.rational_interval_line()
    U = FamilyExpr(X.carrier, (), (shrink01(),))
    V = FamilyExpr(X.carrier, (sx.interval(0, 1),), (shrink01(),))
    W = FamilyExpr(X.carrier, (sx.interval(0, 2),), (shrink01(),))
    assert not is_admissible(X, U).admissible
    assert is_admissible(X, V).admissible
    assert is_admissible(X, W).admissible


def test_all_policy_admits_everything_open():
    X = lib.qline_topological()
    U = FamilyExpr(X.carrier, (), (shrink01(),))
    assert is_admissible(X, U).admissible


def test_admissibility_rejects_non_open_member():
    X = lib.rational_interval_line()
    F = FamilyExpr(X.carrier, (sx.interval(0, 1, False, True),))
    v = is_admissible(X, F)
    assert not v.admissible
    assert sx.render(v.offending) == "[0,1)"


def test_listed_opens_miss_a_late_stream_member():
    # members (0, 1 - 1/n); the first three are listed, the fourth is not,
    # though large_stage of the stream alone is 4; a trace or a glue of the
    # listed opens has finitely many opens too
    s = ShrinkIntervals(0, 1, 0, 1, 2)
    q = QLine()
    X = GtsPresentation(q, ExplicitList(
        (sx.empty(q), sx.whole(q), s.member(2), s.member(3), s.member(4))), All())
    W = sx.interval(-1, 2)
    for Y in (X, GtsPresentation(q, TraceOpens(X, W), All(), support=W),
              GtsPresentation(q, GluedOpens((X,)), All())):
        v = is_admissible(Y, FamilyExpr(q, (), (s,)))
        assert (v.status, v.reason, v.witness) == ("No", "a member is not open", s.member(5))


def test_a_stream_leaving_the_support_is_witnessed_by_its_first_leaving_member():
    # members (0, 1 - 1/n) first reach 999/1000, which the window lacks, at n = 1001
    s = ShrinkIntervals(0, 1, 0, 1, 2)
    q = QLine()
    W = sx.minus(sx.interval(0, 1), sx.qpoint(Fraction(999, 1000)))
    Y = GtsPresentation(q, TraceOpens(lib.qline_topological(), W), All(), support=W)
    v = is_admissible(Y, FamilyExpr(q, (), (s,)))
    assert (v.status, v.reason, v.witness) == ("No", "a member is not open", s.member(1001))
    assert v.witness == sx.interval(0, Fraction(1000, 1001))
    # singletons leave a three-point support first at {3}
    X = GtsPresentation(NatFC(), AllSets(), EssFin(), sx.nat_finite([0, 1, 2]))
    v = is_admissible(X, FamilyExpr(NatFC(), (), (Singletons(),)))
    assert (v.status, v.reason, v.witness) == ("No", "a member is not open", sx.nat_finite([3]))


def test_listed_opens_hold_a_stream_that_reaches_its_union():
    s = clip_stream(GrowBalls(1), sx.interval(0, 3))  # members (0, n) up to (0, 3)
    q = QLine()
    listed = [sx.empty(q), sx.whole(q)] + [sx.interval(0, n) for n in (1, 2, 3)]
    X = GtsPresentation(q, ExplicitList(tuple(listed)), All())
    assert is_admissible(X, FamilyExpr(q, (), (s,))).yes
    Y = GtsPresentation(q, ExplicitList(tuple(listed[:-2] + listed[-1:])), All())
    assert is_admissible(Y, FamilyExpr(q, (), (s,))).witness == sx.interval(0, 2)


def test_locally_essfin_balls():
    X = lib.qline_localized()
    balls = FamilyExpr(X.carrier, (), (GrowBalls(1),))
    assert is_admissible(X, balls).admissible
    creeping = FamilyExpr(X.carrier, (), (shrink01(),))
    assert not is_admissible(X, creeping).admissible


def test_piecewise_essfin_chain():
    X = lib.chain_exhausted_nat()
    singles = FamilyExpr(X.carrier, (), (Singletons(),))
    assert is_admissible(X, singles).admissible


def test_small_nat_rejects_singletons():
    X = lib.discrete_small_nat()
    singles = FamilyExpr(X.carrier, (), (Singletons(),))
    assert not is_admissible(X, singles).admissible
    capped = FamilyExpr(X.carrier, (sx.whole(X.carrier),), (Singletons(),))
    assert is_admissible(X, capped).admissible


# -- smallness ------------------------------------------------------------

def test_unit_interval_not_small_topologically():
    X = lib.qline_topological()
    v = smallness(X, sx.interval(0, 1, False, False))
    assert v.status == "NotSmall"
    assert v.witness is not None
    # replay: the witness family is admissible but not essentially finite
    from gtskit.families import essentially_finite_on, family_union
    w = v.witness
    assert is_admissible(X, w).admissible
    assert not essentially_finite_on(w, family_union(w)).yes


def test_small_sets_under_essfin_policy():
    X = lib.rational_interval_line()
    assert smallness(X, sx.interval(0, 1)).status == "Small"
    assert smallness(X, sx.whole(X.carrier)).status == "Small"


def test_finite_sets_always_small():
    X = lib.qline_topological()
    pts = sx.union(sx.qpoint(0), sx.qpoint(Fraction(7, 2)))
    assert smallness(X, pts).status == "Small"


def test_nat_top_whole_not_small():
    X = lib.topological_discrete_nat()
    v = smallness(X, sx.whole(X.carrier))
    assert v.status == "NotSmall"
    assert isinstance(v.witness.streams[0], Singletons)


def test_localized_line_smallness_layers():
    X = lib.qline_localized()
    assert smallness(X, sx.interval(-3, 3)).status == "Small"
    assert smallness(X, sx.whole(X.carrier)).status == "NotSmall"


# -- generated finite spaces ---------------------------------------------

def brute_force_closure(c, sets):
    out = set(sets)
    out.add(sx.empty(c))
    out.add(sx.whole(c))
    while True:
        fresh = set()
        for a in out:
            for b in out:
                for s in (sx.union(a, b), sx.intersect(a, b)):
                    if s not in out:
                        fresh.add(s)
        if not fresh:
            return out
        out |= fresh


def test_generate_finite_gts_matches_brute_closure():
    c = FiniteEnum(("x", "y", "z"))
    cases = [(c, (sx.atoms(c, ["x"]), sx.atoms(c, ["y", "z"]), sx.atoms(c, ["x", "y"])))]
    rng = random.Random(3)
    for _ in range(60):
        c = FiniteEnum(tuple("wxyz"[:rng.randint(1, 4)]))
        cases.append((c, tuple(sx.atoms(c, [a for a in c.elements if rng.random() < 0.5])
                               for _ in range(rng.randint(0, 4)))))
    for c, gens in cases:
        X = generate_finite_gts(c, gens)
        closure = brute_force_closure(c, gens)
        assert X.opens.sets == tuple(sorted(closure, key=sx.sort_key)), gens


def test_all_sets_enumerate_on_a_finite_support_of_an_infinite_carrier():
    X = GtsPresentation(NatFC(), AllSets(), EssFin(), sx.nat_finite([0, 1, 2]))
    opens = enumerate_opens(X)
    assert len(opens) == 8
    assert set(opens) == {sx.nat_finite(s) for s in
                          ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])}
    Y = GtsPresentation(QLine(), AllSets(), All(), sx.union(sx.qpoint(0), sx.qpoint(1)))
    assert len(enumerate_opens(Y)) == 4
    assert set(components(X).parts) == {sx.nat_finite([x]) for x in (0, 1, 2)}
    with pytest.raises(NonFiniteCarrier):
        enumerate_opens(lib.discrete_small_nat())


def test_finite_trace_of_the_line_lists_its_opens():
    # the parent has infinitely many opens; the trace is read off its least opens
    X = subspace(lib.rational_interval_line(), sx.union(sx.qpoint(0), sx.qpoint(1)))
    assert [sx.render(S) for S in enumerate_opens(X)] == \
        ["[0,0]", "[0,0] u [1,1]", "[1,1]", "empty"]


def test_generated_space_families_all_admissible():
    c = FiniteEnum(("x", "y"))
    X = generate_finite_gts(c, (sx.atoms(c, ["x"]),))
    opens = enumerate_opens(X)
    from itertools import combinations
    for r in range(len(opens) + 1):
        for picks in combinations(opens, r):
            F = FamilyExpr(c, picks)
            assert is_admissible(X, F).admissible
