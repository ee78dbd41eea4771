"""Map rules: pointwise values, set images and preimages, and continuity.

``golden/map_rules.json`` holds, for every case in ``map_cases`` below, the
rendered ``apply`` values on sample points, the rendered ``image`` and
``preimage`` of seeded sets, the ``check_strict_continuity`` verdict and
every ``classify_map`` flag.  Each of the nine rules appears, on finite,
natural, rational and product carriers.

Regenerate the fixture only when a map is meant to change:

    PYTHONPATH=src python tests/test_maps.py > tests/golden/map_rules.json
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from gtskit.carriers import FiniteEnum, NatFC, QLine
from gtskit.constructions import subspace
from gtskit.errors import CarrierMismatch, GtsError, UnsupportedPresentation
from gtskit.families import FamilyExpr
from gtskit import library as lib
from gtskit.maps import (
    Composite,
    Const,
    FiniteTable,
    Identity,
    NatPerm,
    NatShift,
    Pairing,
    PiecewiseAffine,
    PreimageStream,
    Projection,
    Rule,
    SpaceMap,
    check_strict_continuity,
    identity_map,
    preimage_family,
)
from gtskit.props import classify_map
from gtskit.presentation import AllSets, EssFin, GtsPresentation, is_open
from gtskit import setexpr as sx
from gtskit.streams import ShrinkIntervals, Singletons


def affine_line(p, q):
    L = lib.rational_interval_line()
    rule = PiecewiseAffine(((sx.whole(L.carrier), Fraction(p), Fraction(q)),))
    return SpaceMap(L, L, rule, name="affine")


def test_affine_apply_image_preimage():
    f = affine_line(2, 1)  # x -> 2x + 1
    assert f.apply(Fraction(3)) == 7
    assert sx.render(f.image(sx.interval(0, 1))) == "(1,3)"
    assert sx.render(f.preimage(sx.interval(1, 3))) == "(0,1)"


def test_negative_slope_flips_endpoints():
    f = affine_line(-1, 0)
    assert sx.render(f.image(sx.interval(0, 1, False, True))) == "(-1,0]"
    assert sx.render(f.preimage(sx.interval(-1, 0, True, False))) == "[0,1)"


def test_piecewise_affine_must_partition():
    L = lib.rational_interval_line()
    with pytest.raises(Exception):
        PiecewiseAffine(((sx.interval(0, 1), Fraction(1), Fraction(0)),))


def test_shift_image_and_preimage():
    N = lib.discrete_small_nat()
    f = SpaceMap(N, N, NatShift(3))
    assert f.apply(0) == 3
    assert sx.render(f.image(sx.nat_finite([0, 1]))) == "{3,4}"
    assert sx.render(f.preimage(sx.nat_finite([3, 4]))) == "{0,1}"
    # preimage of a cofinite set is cofinite
    assert sx.render(f.preimage(sx.nat_cofinite([5]))) == "co{2}"
    # image of whole misses the shifted-out prefix
    assert sx.render(f.image(sx.whole(N.carrier))) == "co{0,1,2}"


def test_perm_bijectivity():
    N = lib.discrete_small_nat()
    f = SpaceMap(N, N, NatPerm(((0, 1), (1, 0))))
    assert f.apply(0) == 1 and f.apply(1) == 0 and f.apply(9) == 9
    assert sx.render(f.image(sx.nat_cofinite([0]))) == "co{1}"
    assert f.preimage(f.image(sx.nat_finite([0, 7]))) == sx.nat_finite([0, 7])


def test_finite_table_and_const():
    A = lib.discrete_pair()
    P = lib.point_space()
    t = SpaceMap(A, A, FiniteTable((("a", "b"), ("b", "b"))))
    assert t.apply("a") == "b"
    assert sx.render(t.image(sx.whole(A.carrier))) == "{b}"
    c = SpaceMap(A, P, Const("p"))
    assert sx.render(c.preimage(sx.whole(P.carrier))) == "{a,b}"


def test_projection_and_pairing():
    from gtskit.constructions import product
    A = lib.discrete_small_pair()
    B = lib.discrete_small_pair()
    P, (p1, p2) = product([A, B])
    x = ("a", "b")
    assert p1.apply(x) == "a" and p2.apply(x) == "b"
    diag = SpaceMap(A, P, Pairing(identity_map(A), identity_map(A)))
    assert diag.apply("a") == ("a", "a")
    assert p1.apply(diag.apply("b")) == "b"


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatch):
        SpaceMap(lib.discrete_small_nat(), lib.rational_interval_line(), Identity())


def test_map_rejects_a_rule_of_unknown_kind():
    N = lib.discrete_small_nat()
    with pytest.raises(UnsupportedPresentation):
        SpaceMap(N, N, lambda x: x)


def test_strict_homeo_inverts_through_the_rule():
    f = SpaceMap(lib.discrete_small_nat(), lib.discrete_small_nat(),
                 NatPerm(((0, 2), (2, 0))), name="swap02")
    inv = f.inverse()
    assert inv.rule == NatPerm(((2, 0), (0, 2))) and inv.name == "swap02^-1"
    assert inv.apply(f.apply(0)) == 0
    # a zero slope has no inverse
    g = affine_line(0, 1)
    assert g.inverse() is None


# -- strict continuity ----------------------------------------------------

def test_identity_strictly_continuous_both_ways_on_same_space():
    X = lib.rational_interval_line()
    assert check_strict_continuity(identity_map(X)).status == "Yes"


def test_projections_off_three_factors_are_decided():
    # the left factor is itself a product, whose listed opens decide
    # openness in the three-factor product
    from gtskit.constructions import product
    P, projs = product([lib.discrete_small_pair(),
                        lib.discrete_small_pair(), lib.sierpinski()])
    for pi in projs:
        v = check_strict_continuity(pi)
        assert (v.status, v.reason) == (
            "Yes", "essentially finite codomain covers and open preimages")
        assert classify_map(pi).flags["strictly_continuous"].status == "Yes"


def test_identity_between_different_traces_is_not_assumed_continuous():
    # both traces have TraceOpens, but {1/2} is open only in the codomain
    W = sx.interval(0, 1, False, False)
    D = subspace(lib.rational_interval_line(), W)
    C = subspace(GtsPresentation(QLine(), AllSets(), EssFin()), W)
    half = sx.qpoint(Fraction(1, 2))
    assert is_open(C, half) and not is_open(D, half)
    # no library probe is admissible in the codomain, so nothing was checked
    v = check_strict_continuity(SpaceMap(D, C, Identity()))
    assert v.status == "Unknown" and "no probe family" in v.reason


class _PointsOnly(Rule):
    """A rule that sends points but pulls back no set."""

    def apply(self, x):
        return "a"


def test_finite_codomain_is_decided_before_any_probe():
    # a finite codomain's opens are listed, so strict continuity is decided
    # by their preimages; where no preimage is computable, nothing else is
    v = check_strict_continuity(SpaceMap(lib.sierpinski(), lib.discrete_pair(), _PointsOnly()))
    assert (v.status, v.reason) == ("Unknown", "no probe family is admissible in the codomain")


def test_topological_to_small_direction():
    f = SpaceMap(lib.topological_discrete_nat(), lib.discrete_small_nat(),
                 Identity())
    assert check_strict_continuity(f).status == "Yes"


def test_small_to_topological_direction_fails_with_singletons():
    f = SpaceMap(lib.discrete_small_nat(), lib.topological_discrete_nat(),
                 Identity())
    v = check_strict_continuity(f)
    assert v.status == "No"
    assert isinstance(v.witness.streams[0], Singletons)
    # replay the witness: admissible in the codomain, pulled back inadmissibly
    from gtskit.presentation import is_admissible
    assert is_admissible(f.codomain, v.witness).admissible
    pulled = preimage_family(f, v.witness)
    assert not is_admissible(f.domain, pulled).admissible


def test_one_point_codomain_always_continuous():
    f = SpaceMap(lib.qline_topological(), lib.point_space(), Const("p"))
    assert check_strict_continuity(f).status == "Yes"


def test_affine_preimage_stream_tracks_base():
    f = affine_line(2, 1)
    base = ShrinkIntervals(1, 3, Fraction(1), Fraction(1), 3)
    ps = PreimageStream(base, f)
    for n in range(3, 8):
        assert ps.member(n) == f.preimage(base.member(n))
    assert ps.union() == f.preimage(base.union())


def test_probe_without_a_pullback_presentation_is_skipped():
    # the singletons pull back along a constant to {N, empty, empty, ...},
    # a pointwise stream with an infinite member, so only {N} is probed
    f = SpaceMap(lib.discrete_small_nat(), lib.topological_discrete_nat(), Const(0))
    v = check_strict_continuity(f)
    assert (v.status, v.reason) == ("Checked", "1 probe families verified")


def test_probes_are_pulled_back_once(monkeypatch):
    # the codomain admits every open family, so the probes decide; each of
    # the two probes needs one preimage
    calls = []
    preimage = SpaceMap.preimage

    def counted(self, T):
        calls.append(T)
        return preimage(self, T)

    monkeypatch.setattr(SpaceMap, "preimage", counted)
    f = SpaceMap(lib.discrete_small_nat(), lib.topological_discrete_nat(), Const(0))
    assert check_strict_continuity(f).status == "Checked"
    assert len(calls) == 2


def test_line_small_to_top_continuous():
    # every admissible family upstairs is open downstairs; the small line
    # receives from the topological line but not conversely
    f = SpaceMap(lib.qline_topological(), lib.rational_interval_line(),
                 Identity())
    assert check_strict_continuity(f).status == "Yes"
    g = SpaceMap(lib.rational_interval_line(), lib.qline_topological(),
                 Identity())
    v = check_strict_continuity(g)
    assert v.status == "No"


# -- golden replay of every rule ------------------------------------------

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "map_rules.json"


def map_cases():
    """(name, map) for each rule, covering the branches of its procedures."""
    from gtskit.constructions import product
    A, B = lib.discrete_small_pair(), lib.discrete_small_pair()
    P, (p1, p2) = product([A, B])
    N, T, S = lib.discrete_small_nat(), lib.topological_discrete_nat(), lib.sierpinski()
    NP, (n1, n2) = product([N, A])
    P3, (q1, q2, q3) = product([A, B, lib.point_space()])
    L, LT = lib.rational_interval_line(), lib.qline_topological()
    pt = lib.point_space()
    whole = sx.whole(QLine())
    N5 = subspace(N, sx.nat_finite(range(6)))
    const_p = SpaceMap(N, pt, Const("p"), name="const_p")
    swap = FiniteTable((("a", "b"), ("b", "a")))
    return [
        ("identity-pair", identity_map(lib.discrete_pair())),
        ("identity-line", identity_map(L)),
        ("identity-nat-small-top", SpaceMap(N, T, Identity())),
        ("const-nat-point", const_p),
        ("const-line-nat", SpaceMap(L, N, Const(3))),
        ("const-pair-sierpinski", SpaceMap(A, S, Const("a"))),
        ("table-injective", SpaceMap(lib.discrete_pair(), S, swap)),
        ("table-injective-same", SpaceMap(A, B, swap)),
        ("table-not-injective",
         SpaceMap(lib.discrete_pair(), lib.indiscrete_pair(),
                  FiniteTable((("a", "b"), ("b", "b"))))),
        ("affine-positive", SpaceMap(L, L, PiecewiseAffine(((whole, 2, 1),)))),
        ("affine-negative", SpaceMap(LT, LT, PiecewiseAffine(
            ((whole, -1, Fraction(1, 2)),)))),
        ("affine-zero-piece", SpaceMap(L, LT, PiecewiseAffine((
            (sx.interval(sx.NEG_INF, 0, True, False), 0, 1),
            (sx.interval(0, sx.POS_INF, True, True), 3, 1))))),
        ("affine-two-pieces", SpaceMap(L, L, PiecewiseAffine((
            (sx.interval(sx.NEG_INF, 0, True, False), 1, 0),
            (sx.interval(0, sx.POS_INF, True, True), 2, 0))))),
        ("affine-folded", SpaceMap(L, L, PiecewiseAffine((
            (sx.interval(sx.NEG_INF, 0, True, False), -1, 0),
            (sx.interval(0, sx.POS_INF, True, True), 1, 0))))),
        ("shift", SpaceMap(N, N, NatShift(3))),
        ("shift-zero-top", SpaceMap(T, N, NatShift(0))),
        ("shift-subspace", SpaceMap(N5, N, NatShift(2))),
        ("perm", SpaceMap(N, N, NatPerm(((0, 2), (2, 5), (5, 0))))),
        ("perm-top", SpaceMap(N, T, NatPerm(((1, 4), (4, 1))))),
        ("projection-left", p1),
        ("projection-right", p2),
        ("projection-nat-left", n1),
        ("projection-nat-right", n2),
        ("pairing-finite", SpaceMap(A, P, Pairing(identity_map(A), identity_map(B)))),
        ("pairing-swap", SpaceMap(A, P, Pairing(SpaceMap(A, A, swap), identity_map(B)))),
        ("pairing-const-right", SpaceMap(N, product([N, pt])[0],
                                         Pairing(identity_map(N), const_p))),
        ("pairing-const-left", SpaceMap(N, product([pt, N])[0],
                                        Pairing(const_p, identity_map(N)))),
        ("pairing-nat", SpaceMap(N, product([N, N])[0],
                                 Pairing(identity_map(N), SpaceMap(N, N, NatShift(1))))),
        ("composite-nat", SpaceMap(N, N, Composite(SpaceMap(N, N, NatShift(1)),
                                                   SpaceMap(N, N, NatPerm(((0, 3), (3, 0))))))),
        ("composite-projection", q1),
        ("composite-projection-last", q3),
        ("composite-line", SpaceMap(L, L, Composite(
            SpaceMap(L, L, PiecewiseAffine(((whole, -2, 0),))),
            SpaceMap(L, L, PiecewiseAffine(((whole, Fraction(1, 2), 1),)))))),
    ]


def _sample_set(c, rng):
    if isinstance(c, FiniteEnum):
        return sx.atoms(c, [x for x in c.elements if rng.random() < 0.5])
    if isinstance(c, NatFC):
        elems = rng.sample(range(8), rng.randint(0, 3))
        return sx.nat_cofinite(elems) if rng.random() < 0.4 else sx.nat_finite(elems)
    if isinstance(c, QLine):
        ends = [sx.NEG_INF, -2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, 2, 3, sx.POS_INF]
        out = sx.empty(c)
        for _ in range(rng.randint(1, 2)):
            lo, hi = sorted(rng.sample(range(len(ends)), 2))
            out = sx.union(out, sx.interval(
                ends[lo], ends[hi], lo == 0 or rng.random() < 0.5,
                hi == len(ends) - 1 or rng.random() < 0.5))
        if rng.random() < 0.3:
            out = sx.union(out, sx.qpoint(Fraction(rng.randint(-6, 6), 2)))
        return out
    return sx.boxes(c, [(_sample_set(c.left, rng), _sample_set(c.right, rng))
                        for _ in range(rng.randint(1, 2))])


def _sample_points(c):
    if isinstance(c, FiniteEnum):
        return list(c.elements)
    if isinstance(c, NatFC):
        return [0, 1, 2, 3, 5, 9]
    if isinstance(c, QLine):
        return [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(5, 2)]
    return [(x, y) for x in _sample_points(c.left)[:3] for y in _sample_points(c.right)[:2]]


def _show(obj):
    if isinstance(obj, sx.SetExpr):
        return sx.render(obj)
    if isinstance(obj, FamilyExpr):
        return obj.render()
    return repr(obj)


def _attempt(fn):
    return _decide(lambda: _show(fn()))


def _verdict(v):
    return [v.status, v.reason, None if v.witness is None else _show(v.witness)]


def _decide(fn):
    try:
        return fn()
    except GtsError as e:
        return "error %s: %s" % (type(e).__name__, e)


def record(name, f, sets=6):
    rng = random.Random(name)
    dc, cc = f.domain.carrier, f.codomain.carrier
    return {
        "case": name,
        "apply": [[repr(x), _attempt(lambda: f.apply(x))] for x in _sample_points(dc)],
        "image": [[sx.render(S), _attempt(lambda: f.image(S))]
                  for S in [sx.whole(dc)] + [_sample_set(dc, rng) for _ in range(sets)]],
        "preimage": [[sx.render(T), _attempt(lambda: f.preimage(T))]
                     for T in [sx.whole(cc)] + [_sample_set(cc, rng) for _ in range(sets)]],
        "strictly_continuous": _decide(lambda: _verdict(check_strict_continuity(f))),
        "classify": _decide(lambda: {k: _verdict(v) for k, v in classify_map(f).flags.items()}),
    }


def collect():
    return [record(name, f) for name, f in map_cases()]


@pytest.mark.parametrize("name", [name for name, _ in map_cases()])
def test_map_rules_match_golden(name):
    # read here, not at import, so that regenerating may truncate the file first
    want = {w["case"]: w for w in json.loads(FIXTURE.read_text())}
    assert name in want, "case missing from the fixture"
    assert record(name, dict(map_cases())[name]) == want[name]


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1))
