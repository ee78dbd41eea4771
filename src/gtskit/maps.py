"""Maps between presentations, with computable images and preimages."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .carriers import FiniteEnum, NatFC, Product, QLine
from .errors import (
    CarrierMismatch,
    NonFiniteCarrier,
    UnrepresentablePoint,
    UnsupportedPresentation,
)
from .families import FamilyExpr
from .presentation import (
    All,
    AllCanonicalOpen,
    AllSets,
    EssCountable,
    EssFin,
    GtsPresentation,
    enumerate_opens,
    from_points,
    is_admissible,
    is_open,
    points_of,
)
from . import setexpr as sx
from .setexpr import Interval, NEG_INF, POS_INF, SetExpr, normalize_intervals
from .streams import GrowBalls, Singletons, Stream, set_endpoints, shrink
from .verdict import Verdict


# -- rules ----------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    """x maps to x; domain and codomain share the carrier."""


@dataclass(frozen=True)
class Const:
    """Everything maps to one codomain point."""

    value: object


@dataclass(frozen=True)
class FiniteTable:
    """Total lookup table between finite atom carriers."""

    table: tuple  # pairs (x, f(x))

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))


@dataclass(frozen=True)
class PiecewiseAffine:
    """Finitely many pieces partitioning the line, x maps to p*x + q on each."""

    pieces: tuple  # triples (piece SetExpr, p, q) with rational p, q

    def __post_init__(self):
        norm = tuple(
            (P, Fraction(p), Fraction(q)) for P, p, q in self.pieces
        )
        object.__setattr__(self, "pieces", norm)
        u = sx.empty(QLine())
        for P, _, _ in norm:
            if not sx.intersect(u, P).is_empty():
                raise ValueError("affine pieces must be pairwise disjoint")
            u = sx.union(u, P)
        if not u.is_whole():
            raise ValueError("affine pieces must cover the whole line")


@dataclass(frozen=True)
class NatShift:
    """x maps to x + k on the naturals."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("shift must be nonnegative to stay total")


@dataclass(frozen=True)
class NatPerm:
    """A finite-support bijection of the naturals, identity off the support."""

    table: tuple  # pairs (x, sigma(x))

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        dom = [x for x, _ in self.table]
        rng = [y for _, y in self.table]
        if len(set(dom)) != len(dom) or set(dom) != set(rng):
            raise ValueError("table must be a bijection of its support")


@dataclass(frozen=True)
class Projection:
    """First or second coordinate of a product carrier."""

    side: str  # "left" or "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be left or right")


@dataclass(frozen=True)
class Pairing:
    """z maps to (f(z), g(z)) into a product carrier."""

    f: "SpaceMap"
    g: "SpaceMap"


@dataclass(frozen=True)
class Composite:
    """outer after inner."""

    outer: "SpaceMap"
    inner: "SpaceMap"


# -- the map --------------------------------------------------------------

@dataclass(frozen=True)
class SpaceMap:
    domain: GtsPresentation
    codomain: GtsPresentation
    rule: object
    name: str = ""

    def __post_init__(self):
        r = self.rule
        dc, cc = self.domain.carrier, self.codomain.carrier
        if isinstance(r, Identity) and dc != cc:
            raise CarrierMismatch("identity needs matching carriers")
        if isinstance(r, FiniteTable):
            if not isinstance(dc, FiniteEnum) or not isinstance(cc, FiniteEnum):
                raise CarrierMismatch("table rules need finite atom carriers")
            if {x for x, _ in r.table} != set(dc.elements):
                raise ValueError("table must be total on the domain atoms")
        if isinstance(r, PiecewiseAffine) and (dc, cc) != (QLine(), QLine()):
            raise CarrierMismatch("affine rules live on the line")
        if isinstance(r, (NatShift, NatPerm)) and (dc, cc) != (NatFC(), NatFC()):
            raise CarrierMismatch("natural-number rules need natfc carriers")
        if isinstance(r, Projection):
            if not isinstance(dc, Product):
                raise CarrierMismatch("projection needs a product domain")
            want = dc.left if r.side == "left" else dc.right
            if cc != want:
                raise CarrierMismatch("projection codomain must be the factor")
        if isinstance(r, Pairing):
            if not isinstance(cc, Product):
                raise CarrierMismatch("pairing needs a product codomain")
            if r.f.domain.carrier != dc or r.g.domain.carrier != dc:
                raise CarrierMismatch("pairing components share the domain")
            if (r.f.codomain.carrier, r.g.codomain.carrier) != (cc.left, cc.right):
                raise CarrierMismatch("pairing components must hit the factors")
        if isinstance(r, Composite):
            if r.inner.domain.carrier != dc or r.outer.codomain.carrier != cc:
                raise CarrierMismatch("composite endpoints must match")
            if r.inner.codomain.carrier != r.outer.domain.carrier:
                raise CarrierMismatch("composite middle carriers must match")

    def __repr__(self):
        return f"<map {self.name or type(self.rule).__name__}>"

    # -- pointwise ---------------------------------------------------------

    def apply(self, x):
        r = self.rule
        if isinstance(r, Identity):
            return x
        if isinstance(r, Const):
            return r.value
        if isinstance(r, (FiniteTable, NatPerm)):
            for a, b in r.table:
                if a == x:
                    return b
            if isinstance(r, NatPerm):
                return x
            raise UnrepresentablePoint(x)
        if isinstance(r, NatShift):
            return x + r.k
        if isinstance(r, PiecewiseAffine):
            x = Fraction(x)
            for P, p, q in r.pieces:
                if sx.contains(P, x):
                    return p * x + q
            raise UnrepresentablePoint(x)
        if isinstance(r, Projection):
            return x[0] if r.side == "left" else x[1]
        if isinstance(r, Pairing):
            return (r.f.apply(x), r.g.apply(x))
        if isinstance(r, Composite):
            return r.outer.apply(r.inner.apply(x))
        raise UnsupportedPresentation("unknown map rule")

    # -- set images --------------------------------------------------------

    def image(self, S: SetExpr) -> SetExpr:
        if S.carrier != self.domain.carrier:
            raise CarrierMismatch("set on the wrong carrier")
        S = sx.intersect(S, self.domain.support)
        r = self.rule
        cc = self.codomain.carrier
        if isinstance(r, Identity):
            return S
        if isinstance(r, Const):
            if S.is_empty():
                return sx.empty(cc)
            return from_points(cc, [r.value])
        if isinstance(r, FiniteTable):
            return from_points(cc, {self.apply(x) for x in points_of(S)})
        if isinstance(r, NatShift):
            return _nat_image(S, lambda x: x + r.k, surjective_off=set(range(r.k)))
        if isinstance(r, NatPerm):
            return _nat_image(S, self.apply, surjective_off=set())
        if isinstance(r, PiecewiseAffine):
            out = sx.empty(cc)
            for P, p, q in r.pieces:
                part = sx.intersect(S, P)
                ivs = [_affine_interval(iv, p, q) for iv in part.form]
                out = sx.union(out, SetExpr(cc, normalize_intervals(ivs), _normalized=True))
            return out
        if isinstance(r, Projection):
            out = sx.empty(cc)
            for L, R in S.form:
                out = sx.union(out, L if r.side == "left" else R)
            return out
        if isinstance(r, Pairing):
            return _pairing_image(self, r, S)
        if isinstance(r, Composite):
            return r.outer.image(r.inner.image(S))
        raise UnsupportedPresentation("unknown map rule")

    def preimage(self, T: SetExpr) -> SetExpr:
        if T.carrier != self.codomain.carrier:
            raise CarrierMismatch("set on the wrong carrier")
        r = self.rule
        dc = self.domain.carrier
        T = sx.intersect(T, self.codomain.support)
        if isinstance(r, Identity):
            out = T
        elif isinstance(r, Const):
            has = sx.contains(T, r.value) if not T.is_empty() else False
            out = sx.whole(dc) if has else sx.empty(dc)
        elif isinstance(r, FiniteTable):
            out = from_points(dc, [x for x in dc.elements if sx.contains(T, self.apply(x))])
        elif isinstance(r, NatShift):
            out = _nat_preimage_shift(T, r.k)
        elif isinstance(r, NatPerm):
            out = _nat_image(T, _perm_inverse(r), surjective_off=set())
        elif isinstance(r, PiecewiseAffine):
            out = sx.empty(dc)
            for P, p, q in r.pieces:
                if p == 0:
                    hit = sx.contains(T, q)
                    out = sx.union(out, P if hit else sx.empty(dc))
                else:
                    ivs = [_affine_interval(iv, 1 / p, -q / p) for iv in T.form]
                    pre = SetExpr(dc, normalize_intervals(ivs), _normalized=True)
                    out = sx.union(out, sx.intersect(P, pre))
        elif isinstance(r, Projection):
            if r.side == "left":
                out = sx.box(T, sx.whole(dc.right))
            else:
                out = sx.box(sx.whole(dc.left), T)
        elif isinstance(r, Pairing):
            out = sx.empty(dc)
            for L, R in T.form:
                out = sx.union(out, sx.intersect(r.f.preimage(L), r.g.preimage(R)))
        elif isinstance(r, Composite):
            out = r.inner.preimage(r.outer.preimage(T))
        else:
            raise UnsupportedPresentation("unknown map rule")
        return sx.intersect(out, self.domain.support)


def _perm_inverse(r: NatPerm):
    inv = {b: a for a, b in r.table}
    return lambda x: inv.get(x, x)


def _nat_image(S: SetExpr, f, surjective_off: set) -> SetExpr:
    """Image of a finite/cofinite set under an injection missing surjective_off."""
    elems, co = S.form
    if not co:
        return sx.nat_finite({f(x) for x in elems})
    # complement maps into the complement of f(excluded) plus the missed values
    missed = {f(x) for x in elems} | set(surjective_off)
    return sx.nat_cofinite(missed)


def _nat_preimage_shift(T: SetExpr, k: int) -> SetExpr:
    elems, co = T.form
    pulled = {x - k for x in elems if x >= k}
    return sx.nat_cofinite(pulled) if co else sx.nat_finite(pulled)


def _scale_endpoint(v, p, q):
    if v == NEG_INF:
        return NEG_INF if p > 0 else POS_INF
    if v == POS_INF:
        return POS_INF if p > 0 else NEG_INF
    return p * Fraction(v) + q


def _affine_interval(iv: Interval, p: Fraction, q: Fraction) -> Interval:
    if p == 0:
        return Interval(q, q, False, False)
    lo = _scale_endpoint(iv.lo, p, q)
    hi = _scale_endpoint(iv.hi, p, q)
    if p > 0:
        return Interval(lo, hi, iv.lo_open, iv.hi_open)
    return Interval(hi, lo, iv.hi_open, iv.lo_open)


def _pairing_image(m: SpaceMap, r: Pairing, S: SetExpr) -> SetExpr:
    cc = m.codomain.carrier
    if isinstance(r.g.rule, Const):
        return sx.box(r.f.image(S), from_points(cc.right, [r.g.rule.value]))
    if isinstance(r.f.rule, Const):
        return sx.box(from_points(cc.left, [r.f.rule.value]), r.g.image(S))
    pts = points_of(S)  # raises NonFiniteCarrier when not enumerable
    return from_points(cc, [m.apply(x) for x in pts])


def identity_map(X: GtsPresentation, name: str = "") -> SpaceMap:
    return SpaceMap(X, X, Identity(), name)


# -- stream transport -----------------------------------------------------

class PreimageStream(Stream):
    """A codomain stream pulled back along a map, member by member."""

    def __init__(self, base: Stream, m: SpaceMap):
        self.base = base
        self.map = m
        self.n0 = base.n0
        self.monotone = base.monotone
        self.carrier = m.domain.carrier

    def member(self, n: int) -> SetExpr:
        return self.map.preimage(self.base.member(n))

    def union(self) -> SetExpr:
        return self.map.preimage(self.base.union())

    def critical_endpoints(self) -> set:
        out = set_endpoints(self.union())
        r = self.map.rule
        if isinstance(r, PiecewiseAffine):
            for e in self.base.critical_endpoints():
                for P, p, q in r.pieces:
                    if p != 0:
                        out.add(Fraction(e - q) / p)
        else:
            out |= set(self.base.critical_endpoints())
        return out

    def stage_sufficient(self, eps: Fraction, radius: Fraction) -> int:
        r = self.map.rule
        scale = Fraction(1)
        offset = Fraction(0)
        if isinstance(r, PiecewiseAffine):
            slopes = [abs(p) for _, p, _ in r.pieces if p != 0]
            shifts = [abs(q) for _, _, q in r.pieces]
            if slopes:
                scale = max(slopes)
                offset = max(shifts)
        return self.base.stage_sufficient(eps / scale if scale else eps,
                                          scale * radius + offset)

    def index_of(self, x):
        return self.base.index_of(self.map.apply(x))

    def render(self) -> str:
        return "preimage(%s, %s)" % (self.base.render(), self.map.name or
                                     type(self.map.rule).__name__)


def preimage_family(m: SpaceMap, F: FamilyExpr) -> FamilyExpr:
    """Member-wise preimage of a codomain family."""
    if F.carrier != m.codomain.carrier:
        raise CarrierMismatch("family on the wrong carrier")
    fin = tuple(m.preimage(A) for A in F.finite_part)
    streams = tuple(PreimageStream(s, m) for s in F.streams)
    for s in streams:
        if not s.monotone and not s.member(s.n0).is_finite_pointset():
            raise UnsupportedPresentation(
                "pointwise stream pulls back to infinite members"
            )
    return FamilyExpr(m.domain.carrier, fin, streams)


# -- strict continuity ----------------------------------------------------

def preimages_of_opens_open(f: SpaceMap) -> bool | None:
    """Exact where the codomain opens are enumerable or structure decides it.

    Returns None when no decision procedure applies.
    """
    try:
        for O in enumerate_opens(f.codomain):
            if not is_open(f.domain, f.preimage(O)):
                return False
        return True
    except (NonFiniteCarrier, UnsupportedPresentation):
        pass
    dop = f.domain.opens
    cop = f.codomain.opens
    if isinstance(dop, AllSets):
        return True
    r = f.rule
    if isinstance(r, Identity):
        return True if dop == cop else None
    if isinstance(r, PiecewiseAffine) and isinstance(dop, AllCanonicalOpen) \
            and isinstance(cop, AllCanonicalOpen):
        # open pieces with nonzero slopes pull open intervals back to opens
        if all(p != 0 for _, p, _ in r.pieces) and \
                all(is_open(f.domain, P) for P, _, _ in r.pieces):
            return True
        return None
    if isinstance(r, Projection):
        return True
    return None


def check_strict_continuity(f: SpaceMap) -> Verdict:
    """Do admissible codomain families pull back to admissible families?"""
    v = _auto_continuity(f)
    if v is not None:
        return v
    checked = 0
    for F in _default_probes(f.codomain):
        if not is_admissible(f.codomain, F).yes:
            continue
        pre = preimage_family(f, F)
        if not is_admissible(f.domain, pre).yes:
            return Verdict("No", "a library family pulls back inadmissibly", F)
        checked += 1
    if not checked:
        return Verdict("Unknown", "no probe family is admissible in the codomain")
    return Verdict("Checked", "%d probe families verified" % checked)


def _auto_continuity(f: SpaceMap) -> Verdict | None:
    support = f.codomain.support
    if support.is_finite_pointset() and len(points_of(support)) == 1:
        return Verdict("Yes", "one-point codomain")
    pol = f.codomain.policy
    if isinstance(pol, (EssFin,)) or support.is_finite_pointset():
        # codomain covers are essentially finite, so openness of preimages
        # of opens is the whole question
        ok = preimages_of_opens_open(f)
        if ok is True:
            return Verdict(
                "Yes", "essentially finite codomain covers and open preimages"
            )
        if ok is False:
            return Verdict("No", "some open has a non-open preimage")
        return None
    if isinstance(pol, (All, EssCountable)):
        # the codomain admits every open family, so look for one whose
        # preimage the domain policy rejects
        for F in _default_probes(f.codomain):
            if not is_admissible(f.codomain, F).yes:
                continue
            try:
                pre = preimage_family(f, F)
            except UnsupportedPresentation:
                continue
            ver = is_admissible(f.domain, pre)
            if not ver.yes:
                return Verdict("No", "admissible codomain family pulls back inadmissibly", F)
        if isinstance(f.domain.policy, (All,)):
            ok = preimages_of_opens_open(f)
            if ok is True:
                return Verdict(
                    "Yes", "every open family is admissible on both sides"
                )
            if ok is False:
                return Verdict("No", "some open has a non-open preimage")
        return None
    return None


def _default_probes(X: GtsPresentation) -> list[FamilyExpr]:
    """Library families likely to separate policies on the codomain."""
    c = X.carrier
    out = []
    if isinstance(c, QLine):
        out.append(FamilyExpr(c, (), (shrink(0, 1, "both", 3),)))
        out.append(FamilyExpr(c, (), (GrowBalls(1),)))
    if isinstance(c, NatFC):
        out.append(FamilyExpr(c, (), (Singletons(),)))
        out.append(FamilyExpr(c, (sx.whole(c),)))
    if isinstance(c, FiniteEnum):
        try:
            opens = enumerate_opens(X)
            out.append(FamilyExpr(c, tuple(opens)))
        except (NonFiniteCarrier, UnsupportedPresentation):
            pass
    return out
