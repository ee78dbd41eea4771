from fractions import Fraction

import pytest

from gtskit.carriers import FiniteEnum, NatFC, QLine
from gtskit.constructions import subspace
from gtskit.errors import CarrierMismatch
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
    SpaceMap,
    check_strict_continuity,
    identity_map,
    preimage_family,
)
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


# -- strict continuity ----------------------------------------------------

def test_identity_strictly_continuous_both_ways_on_same_space():
    X = lib.rational_interval_line()
    assert check_strict_continuity(identity_map(X)).status == "Yes"


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
