import functools
import random
from fractions import Fraction

import pytest

from gtskit.carriers import NatFC, QLine
from gtskit.families import (
    FamilyExpr,
    clip_family,
    essentially_finite_on,
    family_union,
    large_stage,
    merge_family,
    pointwise_intersection,
    pointwise_union,
    refines,
    union_families,
)
from gtskit.exhaustions import Exhaustion
from gtskit.presentation import LocallyEssFin, PiecewiseEssFin
from gtskit import setexpr as sx
from gtskit.streams import (
    GrowBalls,
    InitialSegments,
    ShrinkIntervals,
    Singletons,
    Stream,
    clip_stream,
    merge_stream,
    shrink,
)


def shrink01(n0=3):
    return ShrinkIntervals(0, 1, Fraction(1), Fraction(1), n0)


def test_shrink_members():
    s = shrink01()
    assert sx.render(s.member(3)) == "(1/3,2/3)"
    assert sx.render(s.member(10)) == "(1/10,9/10)"
    assert sx.render(s.union()) == "(0,1)"
    # monotone growth
    for n in range(3, 12):
        assert sx.is_subset(s.member(n), s.member(n + 1))


def test_shrink_one_sided():
    s = ShrinkIntervals(0, 1, Fraction(0), Fraction(1), 2)
    assert sx.render(s.member(2)) == "(0,1/2)"
    assert sx.render(s.union()) == "(0,1)"


def test_shrink_checks_its_parameters():
    # member n0 = (a + la/n0, b - lb/n0) must hold a point: (1/2,1/2) does not
    with pytest.raises(ValueError, match="first member is empty; raise n0"):
        ShrinkIntervals(0, 1, 1, 1, 2)
    s = ShrinkIntervals(0, 1, 1, 1, 3)
    assert sx.render(s.member(3)) == "(1/3,2/3)"
    assert type(s.rate_left) is Fraction and type(s.rate_right) is Fraction
    half = Fraction(1, 2)
    assert ShrinkIntervals(0, 1, half, 0, 1).rate_left is half
    for args, message in (
        ((0, 1, -1, 1, 3), "rates must be nonnegative"),
        ((float("-inf"), 1, 1, 0, 3), "cannot shrink an infinite left endpoint"),
        ((0, float("inf"), 0, 1, 3), "cannot shrink an infinite right endpoint"),
        ((0, 1, 1, 1, 0), "n0 must be >= 1"),
        ((1, 0, 0, 0, 1), "first member is empty; raise n0"),
        ((float("-inf"), float("-inf"), 0, 0, 1), "first member is empty; raise n0"),
        ((float("inf"), float("inf"), 0, 0, 1), "first member is empty; raise n0"),
    ):
        with pytest.raises(ValueError, match=message):
            ShrinkIntervals(*args)
    assert ShrinkIntervals(float("-inf"), float("inf"), 0, 0, 1).union().is_whole()


def test_growballs_members():
    s = GrowBalls(1)
    assert sx.render(s.member(2)) == "(-2,2)"
    assert s.union().is_whole()


def test_line_members_and_stages_agree_with_the_fraction_formulas():
    """Members and stages are computed from integers; on seeded parameters
    they equal the formulas in Fraction arithmetic, an empty member (n below
    n0) included."""
    rng = random.Random(25)

    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    empty = 0
    for _ in range(60):
        a = rat()
        b = a + Fraction(rng.randint(1, 12), rng.randint(1, 3))
        rl, rr = (Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in "lr")
        if rng.random() < 0.2:
            a, rl = sx.NEG_INF, Fraction(0)
        if rng.random() < 0.2:
            b, rr = sx.POS_INF, Fraction(0)

        def ends(n):
            return a + rl / n if rl else a, b - rr / n if rr else b

        n0 = next(n for n in range(1, 99) if ends(n)[0] < ends(n)[1])
        shrinking = ShrinkIntervals(a, b, rl, rr, n0)
        c, rate = rat(), Fraction(rng.randint(1, 7), rng.randint(1, 3))
        balls = GrowBalls(rng.randint(1, 3), c, rate)
        for n in range(1, 41):
            member = shrinking.member(n)
            assert member == sx.interval(*ends(n)), (shrinking, n)
            assert all(type(e) is Fraction for iv in member.form for e in (iv.lo, iv.hi)
                       if e is not sx.NEG_INF and e is not sx.POS_INF)
            empty += member.is_empty()
            assert balls.member(n) == sx.interval(c - rate * n, c + rate * n), (balls, n)
        eps = Fraction(rng.randint(0, 5), rng.randint(1, 40))
        radius = Fraction(rng.randint(1, 400), rng.randint(1, 9))
        top = max(rl, rr)
        assert shrinking.stage_sufficient(eps, radius) == \
            (max(n0, int(top / eps) + 1) if top > 0 and eps > 0 else n0)
        assert balls.stage_sufficient(eps, radius) == \
            max(balls.n0, int((radius + abs(c)) / rate) + 1)
    assert empty > 0


def test_initial_segments():
    s = InitialSegments(0)
    assert sx.render(s.member(0)) == "{0}"
    assert sx.render(s.member(3)) == "{0,1,2,3}"
    assert s.union().is_whole()


def test_singletons_pointwise():
    s = Singletons()
    assert not s.monotone
    assert sx.render(s.member(5)) == "{5}"
    assert s.index_of(7) == 7
    assert s.union().is_whole()


def test_clip_stream_members_are_clipped():
    window = sx.interval(0, Fraction(1, 2))
    c = clip_stream(shrink01(), window)
    for n in range(3, 8):
        assert sx.is_subset(c.member(n), window)
    assert c.union() == window


def test_family_union_includes_stream_unions():
    F = FamilyExpr(QLine(), (sx.interval(5, 6),), (shrink01(),))
    assert sx.render(family_union(F)) == "(0,1) u (5,6)"


def test_union_and_pointwise_combinators():
    F = FamilyExpr(QLine(), (sx.interval(0, 1),))
    G = FamilyExpr(QLine(), (sx.interval(2, 3),))
    u = union_families(F, G)
    assert len(u.finite_part) == 2
    pu = pointwise_union(F, G)
    assert sx.render(pu.finite_part[0]) == "(0,1) u (2,3)"
    pi = pointwise_intersection(F, G)
    assert pi.finite_part[0].is_empty()


def test_refines():
    fine = FamilyExpr(QLine(), (sx.interval(0, 1), sx.interval(1, 2)))
    coarse = FamilyExpr(QLine(), (sx.interval(0, 2),))
    assert not refines(fine, coarse)  # unions differ by the puncture at 1
    healed = FamilyExpr(
        QLine(), (sx.interval(0, 1, True, False), sx.interval(1, 2, False, True)))
    assert refines(healed, coarse)
    assert not refines(coarse, healed)


@pytest.mark.parametrize("derive", [lambda s: clip_stream(s, sx.interval(-5, 5)),
                                    lambda s: merge_stream(s, sx.interval(5, 6))],
                         ids=["clip", "merge"])
def test_refines_is_reflexive_on_derived_streams(derive):
    s = shrink(0, 1, "both", 3)
    F = FamilyExpr(QLine(), (), (derive(s),))
    assert refines(F, F)


def test_refines_a_clipped_stream_and_its_source_both_ways():
    # the clip window holds every member, so both streams have the same members
    s = shrink(0, 1, "both", 3)
    F = FamilyExpr(QLine(), (), (clip_stream(s, sx.interval(-5, 5)),))
    G = FamilyExpr(QLine(), (), (s,))
    assert refines(F, G)
    assert refines(G, F)


# -- refinement against brute force ---------------------------------------

F_HORIZON, G_HORIZON = 40, 3200


def _refines_by_brute_force(F, G):
    """Same union, and each member of F up to stage 40 inside a member of G.

    G's members are taken up to stage 3200: a monotone stream's members
    increase, so its member there stands for all of them, and the members
    of a pointwise stream are listed one by one.  The grid below keeps
    every endpoint's denominator and every rate small, so that nothing
    happens past these horizons that does not happen before them.
    """
    if family_union(F) != family_union(G):
        return False
    targets = _members_up_to(G, G_HORIZON, last_only=True)
    return all(A.is_empty() or any(sx.is_subset(A, B) for B in targets)
               for A in _members_up_to(F, F_HORIZON, last_only=False))


@functools.lru_cache(maxsize=None)
def _members_up_to(F, horizon, last_only):
    """F's members up to the horizon; with last_only, one per monotone stream."""
    out = list(F.finite_part)
    for s in F.streams:
        if last_only and s.monotone:
            out.append(s.member(s.n0 + horizon))
        else:
            out.extend(s.member(n) for n in range(s.n0, s.n0 + horizon))
    return out


def _refines_grid():
    q, n = QLine(), NatFC()
    s = shrink(0, 1, "both", 3)
    q_families = [
        (s,), (ShrinkIntervals(0, 1, 2, 2, 5),), (shrink(0, 1, "left", 2),),
        (shrink(0, 1, "right", 2),), (clip_stream(s, sx.interval(-5, 5)),),
        (clip_stream(GrowBalls(1), sx.interval(0, 1)),), (sx.interval(0, 1),),
        (sx.interval(0, Fraction(1, 2)), sx.interval(Fraction(1, 3), 1)),
        (merge_stream(s, sx.interval(5, 6)),), (s, sx.interval(5, 6)),
        (sx.interval(0, 1), sx.interval(5, 6)), (GrowBalls(1),), (GrowBalls(2),),
        (clip_stream(GrowBalls(1), sx.whole(q)),), (sx.whole(q),),
        (merge_stream(shrink(0, 1, "left", 2), sx.interval(Fraction(1, 2), 2)),),
        (sx.interval(0, 2),), (shrink(0, 2, "both", 2),),
    ]
    segs = InitialSegments(0)
    n_families = [
        (segs,), (InitialSegments(3),), (clip_stream(segs, sx.nat_cofinite([0])),),
        (sx.nat_cofinite([0]), sx.nat_finite([0])), (Singletons(),),
        (clip_stream(Singletons(), sx.nat_cofinite([1])),), (sx.whole(n),),
        (merge_stream(segs, sx.nat_finite([5, 6])),), (clip_stream(segs, sx.whole(n)),),
        (sx.nat_finite([0, 1, 2]), sx.nat_cofinite([0, 1])),
        (Singletons(), sx.nat_finite(range(4))),
        (clip_stream(Singletons(), sx.nat_cofinite([0])), InitialSegments(2)),
        (sx.nat_cofinite([0]),),
    ]
    out = []
    for c, members in ((q, q_families), (n, n_families)):
        fams = [FamilyExpr(c, tuple(m for m in ms if isinstance(m, sx.SetExpr)),
                           tuple(m for m in ms if not isinstance(m, sx.SetExpr)))
                for ms in members]
        out.extend((F, G) for F in fams for G in fams)
    return out


def test_refines_agrees_with_brute_force_on_derived_streams():
    wrong = [(F.render(), G.render()) for F, G in _refines_grid()
             if refines(F, G) != _refines_by_brute_force(F, G)]
    assert wrong == []


# -- essential finiteness against brute force -----------------------------

EF_HORIZON = 200


def _essentially_finite_by_scan(F, K):
    """Do the finite part and the stream members up to some stage <= 200
    cover K n union(F)?  Any finite subfamily lies among those of one stage."""
    target = sx.intersect(K, family_union(F))
    cover = sx.empty(F.carrier)
    for m in F.finite_part:
        cover = sx.union(cover, m)
    for n in range(EF_HORIZON + 1):
        for s in F.streams:
            if n >= s.n0:
                cover = sx.union(cover, s.member(n))
        if sx.is_subset(target, cover):
            return True
    return False


def _ef_targets(c):
    if c == QLine():
        return [sx.whole(c), sx.interval(0, 1), sx.interval(0, 1, False, False),
                sx.interval(0, Fraction(1, 2)), sx.interval(-5, 5), sx.interval(5, 6, True, False),
                sx.interval(Fraction(1, 2), 1, False, True), sx.qpoint(0),
                sx.interval(1, sx.POS_INF)]
    return [sx.whole(c), sx.nat_finite([0, 1, 2]), sx.nat_cofinite([0]), sx.nat_finite([5]),
            sx.nat_finite([0]), sx.empty(c), sx.nat_cofinite([0, 1])]


def test_essentially_finite_agrees_with_a_stage_scan_on_the_grid():
    families = {F for F, _ in _refines_grid()}
    assert len(families) == 31
    wrong = [(F.render(), sx.render(K)) for F in families for K in _ef_targets(F.carrier)
             if essentially_finite_on(F, K).yes != _essentially_finite_by_scan(F, K)]
    assert wrong == []


# -- essential finiteness -------------------------------------------------

def test_shrink_alone_not_essentially_finite():
    F = FamilyExpr(QLine(), (), (shrink01(),))
    r = essentially_finite_on(F, sx.interval(0, 1))
    assert not r.yes


def test_shrink_with_absorbing_interval():
    F = FamilyExpr(QLine(), (sx.interval(0, 1),), (shrink01(),))
    r = essentially_finite_on(F, sx.interval(0, 1))
    assert r.yes


def test_shrink_with_larger_interval():
    F = FamilyExpr(QLine(), (sx.interval(0, 2),), (shrink01(),))
    r = essentially_finite_on(F, family_union(F))
    assert r.yes


def test_singletons_not_essentially_finite_on_infinite_set():
    F = FamilyExpr(NatFC(), (), (Singletons(),))
    r = essentially_finite_on(F, sx.whole(NatFC()))
    assert not r.yes
    # but on a finite window it is
    r = essentially_finite_on(F, sx.nat_finite([0, 4, 9]))
    assert r.yes


def test_initial_segments_absorbed_by_whole():
    F = FamilyExpr(NatFC(), (sx.whole(NatFC()),), (InitialSegments(0),))
    r = essentially_finite_on(F, sx.whole(NatFC()))
    assert r.yes


def test_large_stage_bounds_monotone_streams():
    s = shrink01()
    stage = large_stage([s], [sx.interval(Fraction(1, 4), Fraction(3, 4))])
    # from that stage on the member already contains (1/4,3/4)
    assert sx.is_subset(
        sx.interval(Fraction(1, 4), Fraction(3, 4)), s.member(stage))


class _AskedStream(Stream):
    """A monotone stream on the line that keeps the eps and radius it is
    asked about, with the given critical endpoints and no others."""

    carrier = QLine()
    n0 = 1

    def __init__(self, ends):
        self.ends = set(ends)
        self.asked = []

    def critical_endpoints(self):
        return self.ends

    def union(self):
        return sx.whole(QLine())

    def stage_sufficient(self, eps, radius):
        self.asked.append((eps, radius))
        return self.n0

    def render(self):
        return "asked"


def _sorted_eps_radius(streams, sets):
    """The eps and radius of large_stage as it was first written: the pool
    sorted, its gaps subtracted and scanned in Fraction arithmetic."""
    pool = {e for S in sets for e in sx._algebra(S.carrier).endpoints(S.form)}
    for s in streams:
        pool |= set(s.critical_endpoints())
        pool |= sx._algebra(s.union().carrier).endpoints(s.union().form)
    vals = sorted(pool)
    eps = Fraction(1)
    for p, q in zip(vals, vals[1:]):
        if q > p:
            eps = min(eps, q - p)
    return eps / 2, max((abs(v) for v in vals), default=Fraction(0)) + 1


def _seeded_pool(rng):
    """A few rationals, some of them equal, some with numerators and
    denominators past 2**64."""
    big = 2 ** 64 + rng.randrange(1000)
    out = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.2:
            out.append(Fraction(rng.randint(-3 * big, 3 * big), big + rng.randrange(7)))
        elif kind < 0.3 and out:
            out.append(rng.choice(out))
        else:
            out.append(sx.random_fraction(rng))
    return out


def test_large_stage_keeps_the_sorted_eps_radius_and_stage():
    rng = random.Random(24)
    for _ in range(300):
        ends = _seeded_pool(rng)
        sets = [sx.random_set(QLine(), rng) for _ in range(rng.randint(0, 2))]
        probe = _AskedStream(ends)
        large_stage([probe], sets)
        assert probe.asked == [_sorted_eps_radius([probe], sets)], (ends, sets)
        a = sx.random_fraction(rng)
        streams = [ShrinkIntervals(a, a + rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2), 5),
                   GrowBalls(rng.randint(1, 3), sx.random_fraction(rng), Fraction(rng.randint(1, 5), 3))]
        eps, radius = _sorted_eps_radius(streams, sets)
        expect = max([2] + [max(s.n0, s.stage_sufficient(eps, radius)) for s in streams]) + 1
        assert large_stage(streams, sets) == expect, (streams, sets)


def test_stream_probes_decide_every_stage_up_to_ten_caps():
    """LocallyEssFin decides a monotone base stream s from its members cap
    and cap + 7 (presentation._stream_probes).  Against every family F of
    the grid on s's carrier, that answer must be the answer of every stage
    of s from n0 to 10 * cap, each decided by essentially_finite_on."""
    families = sorted({F for F, _ in _refines_grid()}, key=FamilyExpr.render)
    bases = sorted({s for F in families for s in F.streams if s.monotone}, key=lambda s: s.render())
    assert len(bases) == 18
    wrong = []
    for s in bases:
        probes = LocallyEssFin(FamilyExpr(s.carrier, (), (s,)))
        for F in families:
            if F.carrier != s.carrier:
                continue
            cap = large_stage(list(F.streams) + [s], list(F.finite_part))
            scanned = all(essentially_finite_on(F, s.member(n)).yes
                          for n in range(s.n0, 10 * cap + 1))
            if probes.admits(F).yes != scanned:
                wrong.append((s.render(), F.render()))
    assert wrong == []


def _seeded_fraction(rng):
    d = rng.randint(1, 6)
    return Fraction(rng.randint(-2 * d, 2 * d), d)


def _seeded_shrink(rng):
    while True:
        a, b = sorted((_seeded_fraction(rng), _seeded_fraction(rng)))
        rl, rr = (Fraction(rng.randint(0, 2), rng.randint(1, 3)) for _ in "lr")
        if a < b:
            return ShrinkIntervals(a, b, rl, rr, int((rl + rr) / (b - a)) + 1)


def _seeded_line_pair(rng):
    """A base (or chain) that shrinks to or grows from small rational
    endpoints, and a family of one shrinking stream and at most one
    interval."""
    if rng.random() < 0.7:
        s = _seeded_shrink(rng)
    else:
        s = GrowBalls(rng.randint(1, 3), _seeded_fraction(rng),
                      Fraction(rng.randint(1, 4), rng.randint(1, 4)))
    finite = tuple(sx.interval(*sorted((_seeded_fraction(rng), _seeded_fraction(rng))))
                   for _ in range(rng.randint(0, 1)))
    return s, FamilyExpr(QLine(), finite, (_seeded_shrink(rng),))


def test_stream_probes_decide_every_stage_on_seeded_line_families():
    """As above, on 100 seeded pairs (seed 24): a base that shrinks to or
    grows from small rational endpoints, and a family of one shrinking
    stream and at most one interval.  Here the answer moves along the
    base stream in some pairs, so probing too early is caught."""
    rng = random.Random(24)
    moved, wrong = 0, []
    for _ in range(100):
        s, F = _seeded_line_pair(rng)
        cap = large_stage(list(F.streams) + [s], list(F.finite_part))
        answers = [essentially_finite_on(F, s.member(n)).yes for n in range(s.n0, 10 * cap + 1)]
        moved += answers[0] != answers[-1]
        if LocallyEssFin(FamilyExpr(QLine(), (), (s,))).admits(F).yes != all(answers):
            wrong.append((s.render(), F.render()))
    assert wrong == [] and moved >= 5


def _chain_probe_misses(pairs):
    """The pairs (s, F) where PiecewiseEssFin over the chain exhaustion of s
    answers F otherwise than essentially_finite_on at every stage of s from
    n0 to 10 * cap; and how many pairs' answers move along s."""
    wrong, moved = [], 0
    for s, F in pairs:
        cap = large_stage(list(F.streams) + [s], list(F.finite_part))
        answers = [essentially_finite_on(F, s.member(n)).yes for n in range(s.n0, 10 * cap + 1)]
        moved += answers[0] != answers[-1]
        if PiecewiseEssFin(Exhaustion(chain=s)).admits(F).yes != all(answers):
            wrong.append((s.render(), F.render()))
    return wrong, moved


def test_chain_probes_decide_every_stage_on_the_grid():
    """PiecewiseEssFin decides a chain exhaustion from the same two members
    as LocallyEssFin.  Each monotone nat stream of the grid, as a chain,
    against every nat family of the grid."""
    families = sorted({F for F, _ in _refines_grid() if F.carrier == NatFC()},
                      key=FamilyExpr.render)
    chains = sorted({s for F in families for s in F.streams if s.monotone}, key=lambda s: s.render())
    assert len(chains) == 6
    wrong, _ = _chain_probe_misses([(s, F) for s in chains for F in families])
    assert wrong == []


def _seeded_nat_chain_pair(rng):
    """A chain of initial segments, clipped to or merged with a finite or
    cofinite set, and a family of at most two such sets and one stream."""
    def nat_set():
        pts = rng.sample(range(8), rng.randint(0, 3))
        return sx.nat_cofinite(pts) if rng.random() < 0.4 else sx.nat_finite(pts)

    n0 = rng.randint(0, 3)
    s = InitialSegments(n0, rng.randint(-n0, 2))
    if rng.random() < 0.5:
        s = (clip_stream if rng.random() < 0.5 else merge_stream)(s, nat_set())
    stream = rng.choice([InitialSegments(rng.randint(0, 4)), Singletons(),
                         clip_stream(Singletons(), nat_set())])
    return s, FamilyExpr(NatFC(), tuple(nat_set() for _ in range(rng.randint(0, 2))), (stream,))


def test_chain_probes_decide_every_stage_on_seeded_families():
    """60 seeded nat pairs and 100 seeded line pairs (seed 25).  On the
    naturals the answer never moves along a chain; on the line it moves in
    some pairs, so probing too early is caught."""
    rng = random.Random(25)
    wrong, moved = _chain_probe_misses([_seeded_nat_chain_pair(rng) for _ in range(60)])
    assert wrong == [] and moved == 0
    wrong, moved = _chain_probe_misses([_seeded_line_pair(rng) for _ in range(100)])
    assert wrong == [] and moved >= 5


def test_clip_and_merge_families():
    F = FamilyExpr(QLine(), (sx.interval(0, 2),), (shrink01(),))
    V = sx.interval(1, 3)
    clipped = clip_family(F, V)
    assert all(sx.is_subset(m, V) for m in clipped.finite_part)
    merged = merge_family(F, V)
    assert all(sx.is_subset(V, m) for m in merged.finite_part)
