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
    AllCanonicalOpen,
    AllSets,
    GtsPresentation,
    from_mask,
    from_points,
    is_admissible,
    is_open,
    least_opens,
    listed_opens,
    points_of,
)
from . import setexpr as sx
from .setexpr import Interval, NEG_INF, POS_INF, SetExpr, normalize_intervals
from .streams import GrowBalls, Singletons, Stream, set_endpoints, shrink
from .verdict import Verdict


# -- rules ----------------------------------------------------------------

class Rule:
    """How a map sends points and sets; each kind of rule answers for itself.

    ``dc`` and ``cc`` below are the domain and codomain carriers.  ``image``
    receives a set inside the domain support and ``preimage`` one inside
    the codomain support; the map clips what ``preimage`` returns to the
    domain support.
    """

    def validate(self, dc, cc):
        """Raise unless the rule suits these carriers."""

    def apply(self, x):
        raise UnsupportedPresentation("unknown map rule")

    def image(self, S: SetExpr, cc) -> SetExpr:
        """The image of the finite set S, point by point."""
        return from_points(cc, {self.apply(x) for x in points_of(S)})

    def preimage(self, T: SetExpr, dc) -> SetExpr:
        raise UnsupportedPresentation("unknown map rule")

    def inverse(self, f: "SpaceMap") -> "Rule | None":
        """The rule of f's inverse, where it is computable; f has this rule."""
        return None

    def keeps_opens(self, f: "SpaceMap", way: str) -> str | None:
        """Why f, which has this rule, keeps opens open the given way for
        every open at once; None where the rule's structure does not decide.

        ``way`` is "preimage" (the preimage of every codomain open is
        open), "image" (the image of every open is open) or "closed image"
        (the image of every closed set is closed).  It is asked only where
        the opens it ranges over cannot be listed.  This default decides
        the images where every codomain subset is open; a rule that
        overrides it falls back to it.
        """
        if way != "preimage" and f.codomain.opens == AllSets():
            return "every codomain subset is open and closed"
        return None


def _need_naturals(dc, cc):
    if (dc, cc) != (NatFC(), NatFC()):
        raise CarrierMismatch("natural-number rules need natfc carriers")


@dataclass(frozen=True)
class Identity(Rule):
    """x maps to x; domain and codomain share the carrier."""

    def validate(self, dc, cc):
        if dc != cc:
            raise CarrierMismatch("identity needs matching carriers")

    def apply(self, x):
        return x

    def image(self, S, cc):
        return S

    def preimage(self, T, dc):
        return T

    def inverse(self, f):
        return self

    def keeps_opens(self, f, way):
        if way == "preimage" and f.domain.opens == f.codomain.opens:
            return "the same opens on both sides"
        return super().keeps_opens(f, way)


@dataclass(frozen=True)
class Const(Rule):
    """Everything maps to one codomain point."""

    value: object

    def validate(self, dc, cc):
        sx.contains(sx.whole(cc), self.value)  # raises unless the value is a point of cc

    def apply(self, x):
        return self.value

    def image(self, S, cc):
        return sx.empty(cc) if S.is_empty() else from_points(cc, [self.value])

    def preimage(self, T, dc):
        if not T.is_empty() and sx.contains(T, self.value):
            return sx.whole(dc)
        return sx.empty(dc)


@dataclass(frozen=True)
class FiniteTable(Rule):
    """Total lookup table between finite atom carriers."""

    table: tuple  # pairs (x, f(x))

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))

    def validate(self, dc, cc):
        if not isinstance(dc, FiniteEnum) or not isinstance(cc, FiniteEnum):
            raise CarrierMismatch("table rules need finite atom carriers")
        if {x for x, _ in self.table} != set(dc.elements):
            raise ValueError("table must be total on the domain atoms")

    def apply(self, x):
        for a, b in self.table:
            if a == x:
                return b
        raise UnrepresentablePoint(x)

    def preimage(self, T, dc):
        return from_points(dc, [x for x in dc.elements if sx.contains(T, self.apply(x))])

    def inverse(self, f):
        vals = [b for _, b in self.table]
        if len(set(vals)) != len(vals) or set(vals) != set(f.codomain.carrier.elements):
            return None
        return FiniteTable(tuple((b, a) for a, b in self.table))


@dataclass(frozen=True)
class PiecewiseAffine(Rule):
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

    def validate(self, dc, cc):
        if (dc, cc) != (QLine(), QLine()):
            raise CarrierMismatch("affine rules live on the line")

    def apply(self, x):
        x = Fraction(x)
        for P, p, q in self.pieces:
            if sx.contains(P, x):
                return p * x + q
        raise UnrepresentablePoint(x)

    def image(self, S, cc):
        return sx.union_all(cc, [_affine_image(sx.intersect(S, P), p, q)
                                 for P, p, q in self.pieces])

    def preimage(self, T, dc):
        out = sx.empty(dc)
        for P, p, q in self.pieces:
            if p != 0:
                out = sx.union(out, sx.intersect(P, _affine_image(T, 1 / p, -q / p)))
            elif sx.contains(T, q):
                out = sx.union(out, P)
        return out

    def inverse(self, f):
        if any(p == 0 for _, p, _ in self.pieces):
            return None
        imgs = tuple((f.image(P), 1 / p, -q / p) for P, p, q in self.pieces)
        try:
            return PiecewiseAffine(imgs)
        except ValueError:  # the images overlap or miss part of the line
            return None

    def keeps_opens(self, f, way):
        if not f.domain.opens == f.codomain.opens == AllCanonicalOpen():
            return super().keeps_opens(f, way)
        if way == "preimage":
            if all(p != 0 for _, p, _ in self.pieces) and \
                    all(is_open(f.domain, P) for P, _, _ in self.pieces):
                return "open pieces with nonzero slopes pull open intervals back to opens"
            return None
        if len(self.pieces) == 1 and self.pieces[0][1] != 0:
            return "a global affine bijection preserves interval shape"
        return None


@dataclass(frozen=True)
class NatShift(Rule):
    """x maps to x + k on the naturals."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("shift must be nonnegative to stay total")

    def validate(self, dc, cc):
        _need_naturals(dc, cc)

    def apply(self, x):
        return x + self.k

    def image(self, S, cc):
        return _nat_image(S, self.apply, surjective_off=set(range(self.k)))

    def preimage(self, T, dc):
        elems, co = T.form
        pulled = {x - self.k for x in elems if x >= self.k}
        return sx.nat_cofinite(pulled) if co else sx.nat_finite(pulled)


@dataclass(frozen=True)
class NatPerm(Rule):
    """A finite-support bijection of the naturals, identity off the support."""

    table: tuple  # pairs (x, sigma(x))

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        dom = [x for x, _ in self.table]
        rng = [y for _, y in self.table]
        if len(set(dom)) != len(dom) or set(dom) != set(rng):
            raise ValueError("table must be a bijection of its support")

    def validate(self, dc, cc):
        _need_naturals(dc, cc)

    def apply(self, x):
        return next((b for a, b in self.table if a == x), x)

    def image(self, S, cc):
        return _nat_image(S, self.apply, surjective_off=set())

    def preimage(self, T, dc):
        return self.inverse(None).image(T, dc)  # a permutation's inverse reads no map

    def inverse(self, f):
        return NatPerm(tuple((b, a) for a, b in self.table))


@dataclass(frozen=True)
class Projection(Rule):
    """First or second coordinate of a product carrier."""

    side: str  # "left" or "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be left or right")

    def _pick(self, pair):
        return pair[0] if self.side == "left" else pair[1]

    def validate(self, dc, cc):
        if not isinstance(dc, Product):
            raise CarrierMismatch("projection needs a product domain")
        if cc != self._pick((dc.left, dc.right)):
            raise CarrierMismatch("projection codomain must be the factor")

    def apply(self, x):
        return self._pick(x)

    def image(self, S, cc):
        return sx.project(S, self.side)

    def preimage(self, T, dc):
        if self.side == "left":
            return sx.box(T, sx.whole(dc.right))
        return sx.box(sx.whole(dc.left), T)

    def keeps_opens(self, f, way):
        if way == "preimage":
            return "an open pulls back to an open cylinder"
        if way == "image" and f.codomain.opens in (AllSets(), AllCanonicalOpen()):
            return "images of product opens are unions of factor opens"
        return super().keeps_opens(f, way)


@dataclass(frozen=True)
class Pairing(Rule):
    """z maps to (f(z), g(z)) into a product carrier."""

    f: "SpaceMap"
    g: "SpaceMap"

    def validate(self, dc, cc):
        if not isinstance(cc, Product):
            raise CarrierMismatch("pairing needs a product codomain")
        if self.f.domain.carrier != dc or self.g.domain.carrier != dc:
            raise CarrierMismatch("pairing components share the domain")
        if (self.f.codomain.carrier, self.g.codomain.carrier) != (cc.left, cc.right):
            raise CarrierMismatch("pairing components must hit the factors")

    def apply(self, x):
        return (self.f.apply(x), self.g.apply(x))

    def image(self, S, cc):
        if isinstance(self.g.rule, Const):
            return sx.box(self.f.image(S), from_points(cc.right, [self.g.rule.value]))
        if isinstance(self.f.rule, Const):
            return sx.box(from_points(cc.left, [self.f.rule.value]), self.g.image(S))
        return super().image(S, cc)  # raises NonFiniteCarrier when S is infinite

    def preimage(self, T, dc):
        return sx.union_all(dc, [sx.intersect(self.f.preimage(L), self.g.preimage(R))
                                 for L, R in sx.box_view(T)])


@dataclass(frozen=True)
class Composite(Rule):
    """outer after inner."""

    outer: "SpaceMap"
    inner: "SpaceMap"

    def validate(self, dc, cc):
        if self.inner.domain.carrier != dc or self.outer.codomain.carrier != cc:
            raise CarrierMismatch("composite endpoints must match")
        if self.inner.codomain.carrier != self.outer.domain.carrier:
            raise CarrierMismatch("composite middle carriers must match")

    def apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def image(self, S, cc):
        return self.outer.image(self.inner.image(S))

    def preimage(self, T, dc):
        return self.inner.preimage(self.outer.preimage(T))


def _nat_image(S: SetExpr, f, surjective_off: set) -> SetExpr:
    """Image of a finite/cofinite set under an injection missing surjective_off."""
    elems, co = S.form
    if not co:
        return sx.nat_finite({f(x) for x in elems})
    # complement maps into the complement of f(excluded) plus the missed values
    missed = {f(x) for x in elems} | set(surjective_off)
    return sx.nat_cofinite(missed)


def _scale_endpoint(v, p, q):
    if v is NEG_INF:
        return NEG_INF if p > 0 else POS_INF
    if v is POS_INF:
        return POS_INF if p > 0 else NEG_INF
    return p * v + q


def _affine_interval(iv: Interval, p: Fraction, q: Fraction) -> Interval:
    if p == 0:
        return Interval(q, q, False, False)
    lo = _scale_endpoint(iv.lo, p, q)
    hi = _scale_endpoint(iv.hi, p, q)
    if p > 0:
        return Interval(lo, hi, iv.lo_open, iv.hi_open)
    return Interval(hi, lo, iv.hi_open, iv.lo_open)


def _affine_image(S: SetExpr, p: Fraction, q: Fraction) -> SetExpr:
    ivs = [_affine_interval(iv, p, q) for iv in S.form]
    return SetExpr(S.carrier, normalize_intervals(ivs), _normalized=True)


# -- the map --------------------------------------------------------------

@dataclass(frozen=True)
class SpaceMap:
    domain: GtsPresentation
    codomain: GtsPresentation
    rule: Rule
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.rule, Rule):
            raise UnsupportedPresentation("unknown map rule")
        self.rule.validate(self.domain.carrier, self.codomain.carrier)

    def __repr__(self):
        return f"<map {self.name or type(self.rule).__name__}>"

    def apply(self, x):
        return self.rule.apply(x)

    def image(self, S: SetExpr) -> SetExpr:
        if S.carrier != self.domain.carrier:
            raise CarrierMismatch("set on the wrong carrier")
        return self.rule.image(_clip(S, self.domain.support), self.codomain.carrier)

    def preimage(self, T: SetExpr) -> SetExpr:
        if T.carrier != self.codomain.carrier:
            raise CarrierMismatch("set on the wrong carrier")
        out = self.rule.preimage(_clip(T, self.codomain.support), self.domain.carrier)
        return _clip(out, self.domain.support)

    def inverse(self) -> "SpaceMap | None":
        """The inverse map, where the rule computes one."""
        r = self.rule.inverse(self)
        if r is None:
            return None
        return SpaceMap(self.codomain, self.domain, r, name=self.name + "^-1")


def _clip(S: SetExpr, support: SetExpr) -> SetExpr:
    """S inside support; a support that is the whole carrier leaves S alone."""
    return S if support.is_whole() else sx.intersect(S, support)


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

    A finite codomain support is decided from its least opens, without
    listing: every open is a union of least opens, preimages keep unions,
    and a finite union of domain opens is open.  Returns None when no
    decision procedure applies.
    """
    opens = _least_opens_or_listed(f.codomain)
    if opens is not None:
        try:
            return all(is_open(f.domain, f.preimage(O)) for O in opens)
        except (NonFiniteCarrier, UnsupportedPresentation):
            pass  # some preimage, or its openness, is not computable
    # where every domain set is open, so is every preimage
    if f.domain.opens == AllSets() or f.rule.keeps_opens(f, "preimage") is not None:
        return True
    return None


def _least_opens_or_listed(Y: GtsPresentation) -> list[SetExpr] | None:
    """The distinct least opens of Y's finite support, else (or where they
    cannot be computed) the listed opens of Y, or None."""
    if Y.support.is_finite_pointset():
        try:
            pts, least = least_opens(Y)
        except (NonFiniteCarrier, UnsupportedPresentation):
            pass  # no least opens: list, as an infinite support does
        else:
            return [from_mask(Y.carrier, pts, m) for m in dict.fromkeys(least)]
    return listed_opens(Y)


def check_strict_continuity(f: SpaceMap) -> Verdict:
    """Do admissible codomain families pull back to admissible families?"""
    support = f.codomain.support
    if support.is_finite_pointset() and len(points_of(support)) == 1:
        return Verdict("Yes", "one-point codomain")
    pol = f.codomain.policy
    every_family = False
    if pol.essentially_finite or support.is_finite_pointset():
        # codomain covers are essentially finite, so openness of preimages
        # of opens is the whole question
        ok = preimages_of_opens_open(f)
        if ok is True:
            return Verdict(
                "Yes", "essentially finite codomain covers and open preimages"
            )
        if ok is False:
            return Verdict("No", "some open has a non-open preimage")
    else:
        # where the codomain admits every open family, the probes look for
        # one whose preimage the domain policy rejects
        every_family = pol.every_open_family
    bad, checked = _probe_pullbacks(f)
    if bad is not None:
        probe = "admissible codomain family" if every_family else "a library family"
        return Verdict("No", probe + " pulls back inadmissibly", bad)
    if every_family and f.domain.policy.every_open_family:
        ok = preimages_of_opens_open(f)
        if ok is True:
            return Verdict(
                "Yes", "every open family is admissible on both sides"
            )
        if ok is False:
            return Verdict("No", "some open has a non-open preimage")
    if not checked:
        return Verdict("Unknown", "no probe family is admissible in the codomain")
    return Verdict("Checked", "%d probe families verified" % checked)


def _probe_pullbacks(f: SpaceMap) -> tuple:
    """The first admissible probe that pulls back inadmissibly (or None), and
    how many pulled back admissibly before it.  A probe whose pullback has
    no presentation is skipped."""
    checked = 0
    for F in _PROBES[type(f.codomain.carrier)](f.codomain):
        if not is_admissible(f.codomain, F).yes:
            continue
        try:
            pre = preimage_family(f, F)
        except UnsupportedPresentation:
            continue
        if not is_admissible(f.domain, pre).yes:
            return F, checked
        checked += 1
    return None, checked


# library families likely to separate policies on a codomain, by carrier
# class.  A finite codomain has none: its covers are essentially finite, so
# the preimages of its listed opens decide, and where they cannot be
# computed, neither can those of any probe of its opens
_PROBES = {
    QLine: lambda X: [FamilyExpr(X.carrier, (), (shrink(0, 1, "both", 3),)),
                      FamilyExpr(X.carrier, (), (GrowBalls(1),))],
    NatFC: lambda X: [FamilyExpr(X.carrier, (), (Singletons(),)),
                      FamilyExpr(X.carrier, (sx.whole(X.carrier),))],
    FiniteEnum: lambda X: [],
    Product: lambda X: [],
}
