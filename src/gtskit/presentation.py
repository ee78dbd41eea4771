"""Finitely-presented spaces: opens, coverage policies, admissibility, smallness.

A presentation bundles a carrier, a description of which subsets count as
open, and a coverage policy saying which open families count as admissible
covers.  Every question the package answers bottoms out in the exact
decision procedures of the family layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .carriers import Carrier, FiniteEnum, NatFC, Product, QLine
from .errors import (
    CarrierMismatch,
    NonFiniteCarrier,
    NonOpenMember,
    UnsupportedCarrier,
    UnsupportedPresentation,
)
from .exhaustions import Exhaustion
from .families import (
    FamilyExpr,
    essentially_finite_on,
    family_union,
    large_stage,
)
from . import setexpr as sx
from .setexpr import NEG_INF, POS_INF, SetExpr
from .streams import GrowBalls, ShrinkIntervals, Singletons, Stream
from .verdict import Verdict


# -- opens descriptions ---------------------------------------------------

@dataclass(frozen=True)
class ExplicitList:
    """A finite list of open sets, closed under union and intersection."""

    sets: tuple[SetExpr, ...]
    lookup: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(dict.fromkeys(self.sets)))
        object.__setattr__(self, "lookup", frozenset(self.sets))


@dataclass(frozen=True)
class AllCanonicalOpen:
    """Every canonical set all of whose intervals are open (QLine)."""


@dataclass(frozen=True)
class FiniteOrWhole:
    """Finite subsets plus the whole carrier (NatFC)."""


@dataclass(frozen=True)
class AllSets:
    """Every representable subset is open."""


@dataclass(frozen=True)
class ProductOpens:
    """Opens of a binary product, decided cell-by-cell."""

    left: "GtsPresentation"
    right: "GtsPresentation"


@dataclass(frozen=True)
class TraceOpens:
    """Relative opens of a window inside a parent presentation."""

    parent: "GtsPresentation"
    window: SetExpr


@dataclass(frozen=True)
class GluedOpens:
    """Opens of a union of pieces: open iff open on every piece."""

    pieces: tuple["GtsPresentation", ...]


# -- coverage policies ----------------------------------------------------

@dataclass(frozen=True)
class All:
    """Every open family is an admissible cover of its union."""


@dataclass(frozen=True)
class EssFin:
    """Admissible iff a finite subfamily has the same union."""


@dataclass(frozen=True)
class EssCountable:
    """Admissible iff a countable subfamily has the same union.

    Every presentable family is countable, so this policy accepts all
    open families; it is kept separate because spaces carrying it are
    not interchangeable with All-policy spaces under refinement.
    """


@dataclass(frozen=True)
class LocallyEssFin:
    """Admissible iff essentially finite on every member of a fixed base."""

    base: FamilyExpr


@dataclass(frozen=True)
class PiecewiseEssFin:
    """Admissible iff essentially finite on every piece of an exhaustion."""

    exhaustion: Exhaustion


# -- the presentation -----------------------------------------------------

@dataclass(frozen=True)
class GtsPresentation:
    carrier: Carrier
    opens: object
    policy: object
    support: SetExpr = None
    name: str = ""
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.support is None:
            object.__setattr__(self, "support", sx.whole(self.carrier))
        if self.support.carrier != self.carrier:
            raise CarrierMismatch("support on the wrong carrier")
        if self.validate:
            _validate_presentation(self)

    def __repr__(self):
        tag = self.name or self.carrier.describe()
        return f"<gts {tag}>"


def _validate_presentation(X: GtsPresentation):
    op = X.opens
    if isinstance(op, ExplicitList):
        for S in op.sets:
            if S.carrier != X.carrier:
                raise CarrierMismatch("open set on the wrong carrier")
            if not sx.is_subset(S, X.support):
                raise ValueError("open set escapes the support")
        listed = op.lookup
        if sx.empty(X.carrier) not in listed or X.support not in listed:
            raise ValueError("opens must include the empty set and the support")
        for A, B in combinations(op.sets, 2):
            if sx.union(A, B) not in listed:
                raise ValueError(
                    "opens not closed under union: %s, %s" % (sx.render(A), sx.render(B))
                )
            if sx.intersect(A, B) not in listed:
                raise ValueError(
                    "opens not closed under intersection: %s, %s"
                    % (sx.render(A), sx.render(B))
                )
    elif isinstance(op, AllCanonicalOpen):
        if not isinstance(X.carrier, QLine):
            raise UnsupportedCarrier("interval opens need the line carrier")
        if not X.support.is_whole():
            raise ValueError("interval opens require full support; use a trace")
    elif isinstance(op, FiniteOrWhole):
        if not isinstance(X.carrier, NatFC):
            raise UnsupportedCarrier("finite-or-whole opens need the naturals")
        if not X.support.is_whole():
            raise ValueError("finite-or-whole opens require full support")
    elif isinstance(op, AllSets):
        pass
    elif isinstance(op, ProductOpens):
        want = Product(op.left.carrier, op.right.carrier)
        if X.carrier != want:
            raise CarrierMismatch("product opens on the wrong carrier")
    elif isinstance(op, TraceOpens):
        if op.parent.carrier != X.carrier:
            raise CarrierMismatch("trace parent on the wrong carrier")
        if X.support != sx.intersect(op.window, op.parent.support):
            raise ValueError("trace support must equal the window")
    elif isinstance(op, GluedOpens):
        u = sx.empty(X.carrier)
        for P in op.pieces:
            if P.carrier != X.carrier:
                raise CarrierMismatch("glued piece on the wrong carrier")
            u = sx.union(u, P.support)
        if u != X.support:
            raise ValueError("glued support must equal the union of the pieces")
    else:
        raise UnsupportedPresentation("unknown opens description")


# -- openness -------------------------------------------------------------

def is_open(X: GtsPresentation, S: SetExpr) -> bool:
    if S.carrier != X.carrier:
        raise CarrierMismatch("set on the wrong carrier")
    if S.is_empty():
        return True
    if not sx.is_subset(S, X.support):
        return False
    op = X.opens
    if isinstance(op, ExplicitList):
        return S in op.lookup
    if isinstance(op, AllCanonicalOpen):
        return sx.all_intervals_open(S)
    if isinstance(op, FiniteOrWhole):
        return S.is_finite_pointset() or S.is_whole()
    if isinstance(op, AllSets):
        return True
    if isinstance(op, ProductOpens):
        return _product_is_open(op, S)
    if isinstance(op, TraceOpens):
        return _trace_is_open(op, S)
    if isinstance(op, GluedOpens):
        return all(is_open(P, sx.intersect(S, P.support)) for P in op.pieces)
    raise UnsupportedPresentation("unknown opens description")


def _trace_is_open(op: TraceOpens, S: SetExpr) -> bool:
    """Is S the trace of some parent open on the window?"""
    parent, W = op.parent, op.window
    pop = parent.opens
    if isinstance(pop, AllSets):
        return True
    if isinstance(pop, ExplicitList):
        return any(sx.intersect(O, W) == S for O in pop.sets)
    if isinstance(pop, FiniteOrWhole):
        return S.is_finite_pointset() or S == sx.intersect(W, parent.support)
    if isinstance(pop, AllCanonicalOpen):
        # relatively open iff S avoids the closure of its in-window complement
        rest = sx.minus(sx.intersect(W, parent.support), S)
        return sx.intersect(S, sx.interval_closure(rest)).is_empty()
    if isinstance(pop, TraceOpens):
        inner = TraceOpens(pop.parent, sx.intersect(pop.window, W))
        return _trace_is_open(inner, S)
    try:
        for O in enumerate_opens(parent):
            if sx.intersect(O, W) == S:
                return True
        return False
    except NonFiniteCarrier:
        raise UnsupportedPresentation("cannot decide traces of this parent")


def _product_is_open(op: ProductOpens, S: SetExpr) -> bool:
    """Cell test: each fiber open, each cell interior to its fiber's shadow."""
    cells = list(S.form)
    for _, F in cells:
        if not is_open(op.right, F):
            return False
    for C, F in cells:
        shadow = sx.empty(op.left.carrier)
        for C2, F2 in cells:
            if sx.is_subset(F, F2):
                shadow = sx.union(shadow, C2)
        if not _covered_by_interior(op.left, C, shadow):
            return False
    return True


def _require_interior(P: GtsPresentation):
    """Raise unless _covered_by_interior has a procedure for P's opens."""
    pop = P.opens
    if isinstance(pop, ExplicitList) and not isinstance(P.carrier, FiniteEnum):
        raise UnsupportedPresentation("listed opens need a finite carrier here")
    if not isinstance(pop, (AllSets, FiniteOrWhole, AllCanonicalOpen, ExplicitList)):
        raise UnsupportedPresentation("no interior procedure for this factor")


def _covered_by_interior(P: GtsPresentation, C: SetExpr, D: SetExpr) -> bool:
    """Does every point of C have a P-open neighborhood inside D?"""
    _require_interior(P)
    pop = P.opens
    if isinstance(pop, (AllSets, FiniteOrWhole)):
        # singletons are open, so containment suffices
        return sx.is_subset(C, D)
    if isinstance(pop, AllCanonicalOpen):
        return sx.is_subset(C, sx.interval_interior(D))
    # listed opens on a finite carrier: a hull of listed neighbourhoods
    for x in C.finite_points():
        hull = sx.empty(P.carrier)
        for O in pop.sets:
            if sx.contains(O, x) and sx.is_subset(O, D):
                hull = sx.union(hull, O)
        if not sx.contains(hull, x):
            return False
    return True


def enumerate_opens(X: GtsPresentation) -> list[SetExpr]:
    """All opens of a finitely-enumerable presentation, sorted canonically."""
    op = X.opens
    if isinstance(op, ExplicitList):
        out = op.lookup
    elif isinstance(op, AllSets) and isinstance(X.carrier, FiniteEnum):
        names = X.support.form
        out = {
            sx.atoms(X.carrier, c)
            for k in range(len(names) + 1)
            for c in combinations(names, k)
        }
    elif isinstance(op, TraceOpens):
        out = {sx.intersect(O, op.window) for O in enumerate_opens(op.parent)}
    elif isinstance(op, GluedOpens):
        out = set()
        for S in _enumerate_subsets(X.support):
            if is_open(X, S):
                out.add(S)
    elif isinstance(op, ProductOpens):
        out = _product_opens(X)
    else:
        raise NonFiniteCarrier("presentation has infinitely many opens")
    return sorted(out, key=sx.sort_key)


def _product_opens(X: GtsPresentation) -> list[SetExpr]:
    """The product opens: every union of boxes U x V of factor opens.

    Each box becomes a bitmask over the grid of support points, the masks
    are closed under union, and each mask becomes a set once.  Unions of open
    boxes are exactly the sets _product_is_open accepts, since the factor
    opens are closed under finite unions and intersections.
    """
    op = X.opens
    if not points_of(X.support):
        return [sx.empty(X.carrier)]
    _require_interior(op.left)
    lpts, rpts = points_of(op.left.support), points_of(op.right.support)
    lbit = {x: 1 << i for i, x in enumerate(lpts)}
    rbit = {y: 1 << j for j, y in enumerate(rpts)}
    n = len(rpts)
    rows = {sum(rbit[y] for y in points_of(V)) for V in _factor_opens(op.right)}
    cols = {sum(lbit[x] for x in points_of(U)) for U in _factor_opens(op.left)}
    boxes = {
        sum(v << (i * n) for i in range(len(lpts)) if u >> i & 1)
        for u in cols
        for v in rows
    }
    masks = {0}
    for b in boxes:
        masks |= {m | b for m in masks}
    grid = [(x, y) for x in lpts for y in rpts]
    return [
        from_points(X.carrier, [p for k, p in enumerate(grid) if m >> k & 1])
        for m in masks
    ]


def _factor_opens(P: GtsPresentation) -> list[SetExpr]:
    """The opens of a product factor with finite support, as is_open decides."""
    pop = P.opens
    if isinstance(pop, ExplicitList):
        return list(pop.sets)
    if isinstance(pop, (AllSets, FiniteOrWhole)):
        # every subset of a finite support is open
        return _enumerate_subsets(P.support)
    return [S for S in _enumerate_subsets(P.support) if is_open(P, S)]


def _enumerate_subsets(S: SetExpr) -> list[SetExpr]:
    pts = points_of(S)
    out = []
    for k in range(len(pts) + 1):
        for c in combinations(pts, k):
            out.append(from_points(S.carrier, c))
    return out


def points_of(S: SetExpr) -> list:
    """All points of a finite set, in canonical order."""
    if not S.is_finite_pointset():
        raise NonFiniteCarrier("set has infinitely many points")
    return S.finite_points()


def from_points(c: Carrier, pts) -> SetExpr:
    """The finite set with exactly these points."""
    pts = list(pts)
    if isinstance(c, FiniteEnum):
        return sx.atoms(c, pts)
    if isinstance(c, NatFC):
        return sx.nat_finite(pts)
    if isinstance(c, QLine):
        out = sx.empty(c)
        for x in pts:
            out = sx.union(out, sx.qpoint(x))
        return out
    if isinstance(c, Product):
        fibers: dict = {}
        for x, y in pts:
            fibers.setdefault(x, []).append(y)
        return sx.boxes(c, [
            (from_points(c.left, [x]), from_points(c.right, ys))
            for x, ys in fibers.items()
        ])
    raise UnsupportedCarrier(c.describe())


def generate_finite_gts(carrier: FiniteEnum, subbasis) -> GtsPresentation:
    """Close a subbasis under finite unions and intersections.

    On a finite carrier every open family is essentially finite, so the
    admissibility structure collapses: the policy is All and the admissible
    families are exactly the open families (Cov is the full powerset of Op).
    """
    opens = {sx.empty(carrier), sx.whole(carrier)}
    for S in subbasis:
        if S.carrier != carrier:
            raise CarrierMismatch("subbasis set on the wrong carrier")
        opens.add(S)
    while True:
        fresh = set()
        for A in opens:
            for B in opens:
                u, i = sx.union(A, B), sx.intersect(A, B)
                if u not in opens:
                    fresh.add(u)
                if i not in opens:
                    fresh.add(i)
        if not fresh:
            break
        opens |= fresh
    listed = tuple(sorted(opens, key=sx.sort_key))
    return GtsPresentation(carrier, ExplicitList(listed), All(), name="generated")


# -- admissibility --------------------------------------------------------

def check_members_open(X: GtsPresentation, F: FamilyExpr):
    """Raise NonOpenMember if some member of F is not open in X."""
    for m in F.finite_part:
        if not is_open(X, m):
            raise NonOpenMember(m)
    for s in F.streams:
        stages = list(range(s.n0, s.n0 + 3))
        if s.monotone:
            stages.append(large_stage([s], list(F.finite_part)))
        # every member sits inside the stream union, so a union escaping the
        # support guarantees a non-open member somewhere down the stream
        if not sx.is_subset(s.union(), X.support):
            for n in range(s.n0, max(stages) + 1):
                if not sx.is_subset(s.member(n), X.support):
                    raise NonOpenMember(s.member(n))
            escaped = sx.minus(s.union(), X.support)
            if escaped.is_finite_pointset():
                for x in escaped.finite_points():
                    idx = s.index_of(int(x)) if not s.monotone else None
                    if idx is not None:
                        raise NonOpenMember(s.member(idx))
            raise NonOpenMember(s.union())
        # stream members share one shape, so probing stages decides all of them
        for n in stages:
            m = s.member(n)
            if not is_open(X, m):
                raise NonOpenMember(m)


def is_admissible(X: GtsPresentation, F: FamilyExpr) -> Verdict:
    """Is F an admissible cover of its union under X's policy?"""
    if F.carrier != X.carrier:
        raise CarrierMismatch("family on the wrong carrier")
    try:
        check_members_open(X, F)
    except NonOpenMember as e:
        return Verdict("No", "a member is not open", e.member)
    pol = X.policy
    if isinstance(pol, All):
        return Verdict("Yes", "every open family is admissible")
    if isinstance(pol, EssCountable):
        return Verdict("Yes", "every presentable family is countable")
    if isinstance(pol, EssFin):
        r = essentially_finite_on(F, family_union(F))
        if r.yes:
            return Verdict("Yes", "essentially finite", detail=r)
        return Verdict("No", "no finite subfamily covers the union", detail=r)
    if isinstance(pol, LocallyEssFin):
        return _locally_essfin_verdict(F, pol.base)
    if isinstance(pol, PiecewiseEssFin):
        return _piecewise_essfin_verdict(F, pol.exhaustion)
    raise UnsupportedPresentation("unknown coverage policy")


def _locally_essfin_verdict(F: FamilyExpr, base: FamilyExpr) -> Verdict:
    for B in base.finite_part:
        r = essentially_finite_on(F, B)
        if not r.yes:
            return Verdict("No", "not essentially finite on a base member", B, r)
    for s in base.streams:
        for K in _stream_probes(s, F):
            r = essentially_finite_on(F, K)
            if not r.yes:
                return Verdict("No", "not essentially finite on a base member", K, r)
    return Verdict("Yes", "essentially finite on every base member")


def _piecewise_essfin_verdict(F: FamilyExpr, exh: Exhaustion) -> Verdict:
    if exh.is_chain():
        for K in _stream_probes(exh.chain, F):
            r = essentially_finite_on(F, K)
            if not r.yes:
                return Verdict("No", "not essentially finite on a piece", K, r)
        return Verdict("Yes", "essentially finite on every piece")
    for i, K in exh.pieces:
        r = essentially_finite_on(F, K)
        if not r.yes:
            return Verdict("No", "not essentially finite on a piece", (i, K), r)
    return Verdict("Yes", "essentially finite on every piece")


def _stream_probes(s: Stream, F: FamilyExpr) -> list[SetExpr]:
    """Members of a base stream that decide essential finiteness for all.

    For monotone streams, success on a late member implies success on every
    earlier (smaller) member; past the stabilization stage, growth happens
    only in regions that the growing members of F sweep out anyway, so one
    late probe plus a slightly later sanity probe decide the whole stream.
    Pointwise members are finite, where essential finiteness is automatic,
    but we still probe the first one to report honest witnesses.
    """
    if not s.monotone:
        return [s.member(s.n0)]
    cap = large_stage(list(F.streams) + [s], list(F.finite_part))
    return [s.member(cap), s.member(cap + 7)]


# -- smallness ------------------------------------------------------------

def smallness(X: GtsPresentation, K: SetExpr) -> Verdict:
    """Is K a small subset: does every admissible cover restrict finitely?"""
    if K.carrier != X.carrier:
        raise CarrierMismatch("set on the wrong carrier")
    K = sx.intersect(K, X.support)
    pol = X.policy
    if isinstance(pol, EssFin):
        return Verdict("Small", "every admissible cover is essentially finite")
    if K.is_empty() or K.is_finite_pointset():
        return Verdict("Small", "finite point sets are small")
    if isinstance(pol, LocallyEssFin):
        r = essentially_finite_on(pol.base, K)
        if r.yes and sx.is_subset(K, family_union(pol.base)):
            return Verdict("Small", "covered by finitely many base members")
        return Verdict(
            "NotSmall", "the base itself admits no finite refinement over K", pol.base
        )
    if isinstance(pol, PiecewiseEssFin):
        exh = pol.exhaustion
        if exh.is_chain():
            stage = large_stage([exh.chain], [K])
            if sx.is_subset(K, exh.chain.member(stage)):
                return Verdict("Small", "contained in an exhaustion piece")
        else:
            for _, P in exh.pieces:
                if sx.is_subset(K, P):
                    return Verdict("Small", "contained in an exhaustion piece")
        return Verdict("Unknown", "not contained in any exhaustion piece")
    if isinstance(pol, All):
        return _smallness_under_all(X, K)
    if isinstance(pol, EssCountable):
        return Verdict("Unknown", "no finite-refinement criterion applies")
    raise UnsupportedPresentation("unknown coverage policy")


def _smallness_under_all(X: GtsPresentation, K: SetExpr) -> Verdict:
    c = X.carrier
    if isinstance(c, FiniteEnum):
        return Verdict("Small", "finite carrier")
    if isinstance(c, NatFC) and isinstance(X.opens, (AllSets, FiniteOrWhole)):
        # K is infinite here; the singleton family never refines finitely
        W = FamilyExpr(c, (), (Singletons(),))
        return Verdict(
            "NotSmall", "singleton cover admits no finite refinement over K", W
        )
    if isinstance(c, QLine) and isinstance(X.opens, (AllCanonicalOpen, AllSets)):
        return _qline_not_small_witness(K)
    return Verdict("Unknown", "no witness procedure for this presentation")


def _qline_not_small_witness(K: SetExpr) -> Verdict:
    for iv in K.form:
        if iv.is_point():
            continue
        if iv.hi != POS_INF:
            b = iv.hi
            a = b - 2 if iv.lo == NEG_INF else min(iv.lo, b - 1)
            # first member (a, b - 1/n0) must be nonempty: n0 > 1/(b - a)
            n0 = max(2, int(1 / (b - a)) + 1)
            W = FamilyExpr(QLine(), (), (ShrinkIntervals(a, b, 0, 1, n0),))
            return Verdict(
                "NotSmall",
                "an interval creep toward %s never refines finitely over K" % sx.rq(b),
                W,
            )
        # right-unbounded piece: bounded balls never capture it
        W = FamilyExpr(QLine(), (), (GrowBalls(1),))
        return Verdict(
            "NotSmall", "the ball cover admits no finite refinement over K", W
        )
    return Verdict("Small", "finite point sets are small")
