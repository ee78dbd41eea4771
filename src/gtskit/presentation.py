"""Finitely-presented spaces: opens, coverage policies, admissibility, smallness.

A presentation bundles a carrier, a description of which subsets count as
open, and a coverage policy saying which open families count as admissible
covers.  Every question the package answers bottoms out in the exact
decision procedures of the family layer.

Each opens description is an ``Opens`` subclass and answers for itself
the questions below; where it has no procedure, the ``Opens`` default
raises.  "least open" is ``meets``: for each of finitely many points of
the support, the points that every open around it holds.  Listing the
opens of a finite support (the unions of the least opens) and deciding a
finite trace of a parent without its own procedure (S holds the least open
of each of its points) read only these.  As a product left factor,
"listed" takes the union of the listed opens inside a set as its
interior, where the opens can be listed: on any carrier for ExplicitList,
on a finite support otherwise.  A trace answers the left-factor and
weak-openness questions as AllSets does where its parent's singletons are
open; otherwise it answers through its listed opens, and as open.  "draw"
is the open that ``draw`` takes at random for the audit's seeded grammar;
"random set" is ``setexpr.random_set`` clipped to the support.

================  =============  ===================  ===========  ===========  =============
description       open           least open           product      weakly       draw
                                                      left factor  open
================  =============  ===================  ===========  ===========  =============
ExplicitList      listed         meet of the list     listed       as open      listed
AllCanonicalOpen  open interval  singleton            interior     as open      0-3 intervals
FiniteOrWhole     finite, whole  singleton            containment  every set    finite, whole
AllSets           every set      singleton            containment  as open      random set
ProductOpens      cell test      box                  listed       raises       0-2 boxes
TraceOpens        by parent      the parent's         see above    see above    traced
GluedOpens        every piece    closure over pieces  listed       every piece  by pieces
================  =============  ===================  ===========  ===========  =============

``non_open_member`` decides the members of a stream on a few stages, as
members share one shape.  Where the opens are finitely many
(``finitely_many``: ExplicitList, and traces and glues of such opens) it
scans the stages instead, until a member is not open or the members have
covered the stream's union.

Each coverage policy is a ``Policy`` subclass and answers for itself too:
whether a family of opens is admissible (``admits``), whether an infinite
set inside the support is small (``smallness``) and which policy the trace
on a set that is not small carries (``restrict``).  Its flags
``essentially_finite`` and ``every_open_family`` let smallness, products,
``smallify`` and strict continuity read a policy without naming its class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, combinations, count
from operator import and_

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
    clip_family,
    essentially_finite_on,
    family_union,
    first_stage,
    large_stage,
)
from . import setexpr as sx
from .setexpr import NEG_INF, POS_INF, SetExpr
from .streams import GrowBalls, ShrinkIntervals, Singletons, Stream, clip_stream
from .verdict import Verdict


# -- opens descriptions ---------------------------------------------------

class Opens:
    """Which subsets of a presentation's support are open.

    ``X`` below is the presentation the description belongs to and ``S`` a
    set inside its support.  A subclass overrides what it decides its own
    way; where these defaults have no procedure, they raise.
    """

    # every finite set inside the support is open
    singletons_open = False
    # the opens are the sets all of whose intervals are open, relative to
    # the support
    interval_opens = False
    # the presentations these opens are glued from
    pieces = ()
    # there are finitely many opens
    finitely_many = False

    def validate(self, X: "GtsPresentation"):
        """Raise unless X's carrier and support suit these opens."""

    def is_open(self, X: "GtsPresentation", S: SetExpr) -> bool:
        raise UnsupportedPresentation("unknown opens description")

    def meets(self, X: "GtsPresentation", pts) -> list[int]:
        """For each point x of pts, finitely many points of X's support, the
        bitmask over pts of the points that every open around x holds.  By
        default the singletons: these opens are T1."""
        return [1 << k for k in range(len(pts))]

    def trace_is_open(self, parent: "GtsPresentation", W: SetExpr, S: SetExpr) -> bool:
        """Is S the trace on W of some open of parent, whose opens these are?
        On a finite window, iff S holds the least open of each of its points."""
        window = sx.intersect(W, parent.support)
        if not window.is_finite_pointset():
            raise UnsupportedPresentation("cannot decide traces of this parent")
        pts, held = points_of(window), set(points_of(S))
        inside = sum(1 << k for k, x in enumerate(pts) if x in held)
        return all(m | inside == inside for k, m in enumerate(self.meets(parent, pts))
                   if inside >> k & 1)

    def interior_cover(self, P: "GtsPresentation"):
        """The test (C, D): does every point of C have a P-open neighbourhood in D?"""
        if self.singletons_open:
            return sx.is_subset  # singletons are open, so containment suffices
        opens = listed_opens(P)
        if opens is None:
            raise UnsupportedPresentation("no interior procedure for this factor")

        # the union of the listed opens inside D is D's interior
        return lambda C, D: sx.is_subset(
            C, sx.union_all(P.carrier, [O for O in opens if sx.is_subset(O, D)]))

    def enumerate(self, X: "GtsPresentation"):
        """Every open of X, in any order: on a finite support, the unions of
        the least opens."""
        pts, least = least_opens(X)
        return [from_mask(X.carrier, pts, m) for m in union_closure(least)]

    def weakly_open(self, X: "GtsPresentation", S: SetExpr) -> bool:
        """Is S a union of opens?  Every S is where singletons are open; the
        descriptions keeping this default have opens closed under union."""
        return self.singletons_open or self.is_open(X, S)

    def draw(self, X: "GtsPresentation", rng) -> SetExpr:
        """A random open of X from the audit's seeded grammar."""
        raise NotImplementedError

    def non_open_member(self, X: "GtsPresentation", s: Stream, stages) -> SetExpr | None:
        """A member of stream s, whose members lie in X's support, that is not
        open; None where every member is.

        Of finitely many opens, the stages are scanned: of more distinct
        members than there are opens one is not open, and a stream whose
        members have covered its union has no new member left.  Otherwise
        stream members share one shape, so the members at the given stages
        decide all of them."""
        if not self.finitely_many:
            return next((m for m in map(s.member, stages) if not is_open(X, m)), None)
        union, covered, n = s.union(), sx.empty(X.carrier), s.n0
        while covered != union:
            m = s.member(n)
            if not self.is_open(X, m):
                return m
            covered, n = sx.union(covered, m), n + 1
        return None


@dataclass(frozen=True)
class ExplicitList(Opens):
    """A finite list of open sets, closed under union and intersection."""

    finitely_many = True

    sets: tuple[SetExpr, ...]
    lookup: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(dict.fromkeys(self.sets)))
        object.__setattr__(self, "lookup", frozenset(self.sets))

    def validate(self, X):
        for S in self.sets:
            if S.carrier != X.carrier:
                raise CarrierMismatch("open set on the wrong carrier")
            if not sx.is_subset(S, X.support):
                raise ValueError("open set escapes the support")
        if sx.empty(X.carrier) not in self.lookup or X.support not in self.lookup:
            raise ValueError("opens must include the empty set and the support")
        for A, B in combinations(self.sets, 2):
            if sx.union(A, B) not in self.lookup:
                raise ValueError(
                    "opens not closed under union: %s, %s" % (sx.render(A), sx.render(B))
                )
            if sx.intersect(A, B) not in self.lookup:
                raise ValueError(
                    "opens not closed under intersection: %s, %s"
                    % (sx.render(A), sx.render(B))
                )

    def is_open(self, X, S):
        return S in self.lookup

    def meets(self, X, pts):
        return _meets(pts, self.sets)

    def trace_is_open(self, parent, W, S):
        return any(sx.intersect(O, W) == S for O in self.sets)

    def enumerate(self, X):
        return self.sets

    def draw(self, X, rng):
        return rng.choice(self.sets)


@dataclass(frozen=True)
class AllCanonicalOpen(Opens):
    """Every canonical set all of whose intervals are open (QLine)."""

    interval_opens = True

    def validate(self, X):
        if not isinstance(X.carrier, QLine):
            raise UnsupportedCarrier("interval opens need the line carrier")
        if not X.support.is_whole():
            raise ValueError("interval opens require full support; use a trace")

    def is_open(self, X, S):
        return sx.all_intervals_open(S)

    def trace_is_open(self, parent, W, S):
        # relatively open iff S avoids the closure of its in-window complement
        rest = sx.minus(sx.intersect(W, parent.support), S)
        return sx.intersect(S, sx.interval_closure(rest)).is_empty()

    def interior_cover(self, P):
        return lambda C, D: sx.is_subset(C, sx.interval_interior(D))

    def draw(self, X, rng):
        ends = [sorted((sx.random_fraction(rng), sx.random_fraction(rng)))
                for _ in range(rng.randint(0, 3))]
        return sx.intervals((a, b, True, True) for a, b in ends)


@dataclass(frozen=True)
class FiniteOrWhole(Opens):
    """Finite subsets plus the whole carrier (NatFC)."""

    singletons_open = True

    def validate(self, X):
        if not isinstance(X.carrier, NatFC):
            raise UnsupportedCarrier("finite-or-whole opens need the naturals")
        if not X.support.is_whole():
            raise ValueError("finite-or-whole opens require full support")

    def is_open(self, X, S):
        return S.is_finite_pointset() or S.is_whole()

    def trace_is_open(self, parent, W, S):
        return S.is_finite_pointset() or S == sx.intersect(W, parent.support)

    def draw(self, X, rng):
        if rng.random() < 0.15:
            return sx.whole(X.carrier)
        return sx.nat_finite(rng.sample(range(24), rng.randint(0, 5)))


@dataclass(frozen=True)
class AllSets(Opens):
    """Every representable subset is open."""

    singletons_open = True

    def is_open(self, X, S):
        return True

    def trace_is_open(self, parent, W, S):
        return True

    def draw(self, X, rng):
        return sx.intersect(sx.random_set(X.carrier, rng), X.support)


@dataclass(frozen=True)
class ProductOpens(Opens):
    """Opens of a binary product, decided cell-by-cell."""

    left: "GtsPresentation"
    right: "GtsPresentation"

    def validate(self, X):
        if X.carrier != Product(self.left.carrier, self.right.carrier):
            raise CarrierMismatch("product opens on the wrong carrier")

    def is_open(self, X, S):
        """Cell test: each fiber open, each cell interior to its fiber's shadow."""
        cells = sx.box_view(S)
        if not all(is_open(self.right, F) for _, F in cells):
            return False
        covered = self._left_cover
        return all(covered(C, sx.union_all(self.left.carrier,
                                           [C2 for C2, F2 in cells if sx.is_subset(F, F2)]))
                   for C, F in cells)

    @cached_property
    def _left_cover(self):
        """The left factor's interior cover test, built on the first call."""
        return self.left.opens.interior_cover(self.left)

    def meets(self, X, pts):
        """The box of the factors' least opens: (u, v) lies below (x, y) iff
        u lies below x and v lies below y."""
        below = []
        for i, F in enumerate((self.left, self.right)):
            zs = list(dict.fromkeys(p[i] for p in pts))
            below.append({(zs[j], z) for z, m in zip(zs, F.opens.meets(F, zs))
                          for j in range(len(zs)) if m >> j & 1})
        return [sum(1 << k for k, (u, v) in enumerate(pts)
                    if (u, x) in below[0] and (v, y) in below[1]) for x, y in pts]

    def weakly_open(self, X, S):
        raise UnsupportedCarrier("no weak-openness procedure for this presentation")

    def draw(self, X, rng):
        left, right = self.left, self.right
        return sx.union_all(X.carrier, [
            sx.box(left.opens.draw(left, rng), right.opens.draw(right, rng))
            for _ in range(rng.randint(0, 2))])


@dataclass(frozen=True)
class TraceOpens(Opens):
    """Relative opens of a window inside a parent presentation."""

    parent: "GtsPresentation"
    window: SetExpr

    @property
    def singletons_open(self):
        return self.parent.opens.singletons_open

    @property
    def interval_opens(self):
        return self.parent.opens.interval_opens

    @property
    def finitely_many(self):
        return self.parent.opens.finitely_many

    def validate(self, X):
        if self.parent.carrier != X.carrier:
            raise CarrierMismatch("trace parent on the wrong carrier")
        if X.support != sx.intersect(self.window, self.parent.support):
            raise ValueError("trace support must equal the window")

    def is_open(self, X, S):
        return self.parent.opens.trace_is_open(self.parent, self.window, S)

    def trace_is_open(self, parent, W, S):
        # a trace of a trace is a trace of the first parent on both windows
        return self.parent.opens.trace_is_open(self.parent, sx.intersect(self.window, W), S)

    def meets(self, X, pts):
        # the trace's opens around x are the parent's, cut to the window
        return self.parent.opens.meets(self.parent, pts)

    def draw(self, X, rng):
        return sx.intersect(self.parent.opens.draw(self.parent, rng), self.window)


@dataclass(frozen=True)
class GluedOpens(Opens):
    """Opens of a union of pieces: open iff open on every piece."""

    pieces: tuple["GtsPresentation", ...] = field()  # Opens.pieces is no default

    @property
    def finitely_many(self):
        return all(P.opens.finitely_many for P in self.pieces)

    def validate(self, X):
        if any(P.carrier != X.carrier for P in self.pieces):
            raise CarrierMismatch("glued piece on the wrong carrier")
        if sx.union_all(X.carrier, [P.support for P in self.pieces]) != X.support:
            raise ValueError("glued support must equal the union of the pieces")

    def is_open(self, X, S):
        return all(is_open(P, sx.intersect(S, P.support)) for P in self.pieces)

    def meets(self, X, pts):
        """On a finite support only: the closure of the pieces' least opens,
        since a set is open iff it is open on every piece."""
        full = points_of(X.support)
        bit = {x: 1 << k for k, x in enumerate(full)}
        least = dict.fromkeys(full, 0)
        for P in self.pieces:
            ppts = points_of(P.support)
            for x, m in zip(ppts, P.opens.meets(P, ppts)):
                least[x] |= sum(bit[y] for j, y in enumerate(ppts) if m >> j & 1)
        for z in full:  # Warshall's transitive closure
            least = {x: m | least[z] if m & bit[z] else m for x, m in least.items()}
        return [sum(1 << j for j, y in enumerate(pts) if least[x] & bit[y]) for x in pts]

    def weakly_open(self, X, S):
        return all(P.opens.weakly_open(P, sx.intersect(S, P.support)) for P in self.pieces)

    def draw(self, X, rng):
        return sx.union_all(X.carrier, [sx.intersect(P.opens.draw(P, rng), P.support)
                                        for P in self.pieces if rng.random() < 0.7])


# -- coverage policies ----------------------------------------------------

class Policy:
    """Which open families are admissible covers of their unions.

    ``X`` below is the presentation the policy belongs to.  A subclass
    answers ``admits`` and overrides what it decides its own way.
    """

    # every admissible cover is essentially finite, so every subset is small
    essentially_finite = False
    # every open family is admissible
    every_open_family = False

    def admits(self, F: FamilyExpr) -> Verdict:
        """Is F, whose members are open, admissible?"""
        raise NotImplementedError

    def smallness(self, X: "GtsPresentation", K: SetExpr) -> Verdict:
        """Is K, an infinite set inside X's support, small?

        The witnesses below are admissible where every open family is; a
        policy that admits fewer answers its own way, or, being essentially
        finite, is answered before it is asked.
        """
        c, op = X.carrier, X.opens
        # the witness families below spread over the whole carrier
        if isinstance(c, NatFC) and op.singletons_open and X.support.is_whole():
            # K is infinite here; the singleton family never refines finitely
            W = FamilyExpr(c, (), (Singletons(),))
            return Verdict(
                "NotSmall", "singleton cover admits no finite refinement over K", W
            )
        if isinstance(c, QLine) and (op.interval_opens or op.singletons_open) \
                and X.support.is_whole():
            return _qline_not_small_witness(K)
        return Verdict("Unknown", "no witness procedure for this presentation")

    def restrict(self, Y: SetExpr) -> "Policy | None":
        """The policy on the trace on Y, where Y is not small; None where the
        policy has no layers to restrict."""
        return None


@dataclass(frozen=True)
class All(Policy):
    """Every open family is an admissible cover of its union."""

    every_open_family = True

    def admits(self, F):
        return Verdict("Yes", "every open family is admissible")


@dataclass(frozen=True)
class EssFin(Policy):
    """Admissible iff a finite subfamily has the same union."""

    essentially_finite = True

    def admits(self, F):
        r = essentially_finite_on(F, family_union(F))
        if r.yes:
            return Verdict("Yes", "essentially finite", detail=r)
        return Verdict("No", "no finite subfamily covers the union", detail=r)


@dataclass(frozen=True)
class EssCountable(Policy):
    """Admissible iff a countable subfamily has the same union.

    Every presentable family is countable, so this policy accepts all
    open families, and a set is small under it exactly when it is under
    All; it is kept separate because spaces carrying it are not
    interchangeable with All-policy spaces under refinement.
    """

    every_open_family = True

    def admits(self, F):
        return Verdict("Yes", "every presentable family is countable")


@dataclass(frozen=True)
class LocallyEssFin(Policy):
    """Admissible iff essentially finite on every member of a fixed base."""

    base: FamilyExpr

    def admits(self, F):
        sets = chain(self.base.finite_part,
                     (K for s in self.base.streams for K in _stream_probes(s, F)))
        return _essentially_finite_on_each(F, ((K, K) for K in sets), "base member")

    def smallness(self, X, K):
        r = essentially_finite_on(self.base, K)
        if r.yes and sx.is_subset(K, family_union(self.base)):
            return Verdict("Small", "covered by finitely many base members")
        return Verdict(
            "NotSmall", "the base itself admits no finite refinement over K", self.base
        )

    def restrict(self, Y):
        return LocallyEssFin(clip_family(self.base, Y))


@dataclass(frozen=True)
class PiecewiseEssFin(Policy):
    """Admissible iff essentially finite on every piece of an exhaustion."""

    exhaustion: Exhaustion

    def admits(self, F):
        exh = self.exhaustion
        probes = [(K, K) for K in _stream_probes(exh.chain, F)] if exh.is_chain() \
            else [((i, K), K) for i, K in exh.pieces]
        return _essentially_finite_on_each(F, probes, "piece")

    def smallness(self, X, K):
        exh = self.exhaustion
        if exh.is_chain():
            if exh.least_stage(K) is not None:
                return Verdict("Small", "contained in an exhaustion piece")
        else:
            for _, P in exh.pieces:
                if sx.is_subset(K, P):
                    return Verdict("Small", "contained in an exhaustion piece")
        return Verdict("Unknown", "not contained in any exhaustion piece")

    def restrict(self, Y):
        exh = self.exhaustion
        if exh.is_chain():
            return PiecewiseEssFin(Exhaustion(chain=clip_stream(exh.chain, Y)))
        pieces = tuple((i, sx.intersect(P, Y)) for i, P in exh.pieces)
        return PiecewiseEssFin(Exhaustion(poset=exh.poset, pieces=pieces))


# -- the presentation -----------------------------------------------------

@dataclass(frozen=True)
class GtsPresentation:
    carrier: Carrier
    opens: Opens
    policy: Policy
    support: SetExpr = None
    name: str = ""
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.support is None:
            object.__setattr__(self, "support", sx.whole(self.carrier))
        if self.support.carrier != self.carrier:
            raise CarrierMismatch("support on the wrong carrier")
        if not isinstance(self.policy, Policy):
            raise UnsupportedPresentation("unknown coverage policy")
        if self.validate:
            if not isinstance(self.opens, Opens):
                raise UnsupportedPresentation("unknown opens description")
            self.opens.validate(self)

    def __repr__(self):
        tag = self.name or self.carrier.describe()
        return f"<gts {tag}>"


# -- openness -------------------------------------------------------------

def is_open(X: GtsPresentation, S: SetExpr) -> bool:
    if S.carrier != X.carrier:
        raise CarrierMismatch("set on the wrong carrier")
    if S.is_empty():
        return True
    if not sx.is_subset(S, X.support):
        return False
    return X.opens.is_open(X, S)


def enumerate_opens(X: GtsPresentation) -> list[SetExpr]:
    """All opens of a finitely-enumerable presentation, sorted canonically."""
    return sorted(X.opens.enumerate(X), key=sx.sort_key)


def listed_opens(X: GtsPresentation) -> list[SetExpr] | None:
    """The opens of X, as enumerate_opens gives them, or None where X's
    support is infinite and its opens are not a list."""
    try:
        return enumerate_opens(X)
    except NonFiniteCarrier:
        return None


def points_of(S: SetExpr) -> list:
    """All points of a finite set, in canonical order."""
    if not S.is_finite_pointset():
        raise NonFiniteCarrier("set has infinitely many points")
    return S.finite_points()


def from_points(c: Carrier, pts) -> SetExpr:
    """The finite set with exactly these points."""
    return SetExpr(c, sx._algebra(c).from_points(c, pts), _normalized=True)


def from_mask(c: Carrier, pts, m: int) -> SetExpr:
    """The set of the points of pts whose bits are set in the bitmask m."""
    return from_points(c, [x for k, x in enumerate(pts) if m >> k & 1])


def least_opens(X: GtsPresentation) -> tuple[list, list[int]]:
    """The points of X's finite support and, for each, the bitmask over them
    of its least open, the meet of the opens that hold it.  These fix the
    opens: they are the unions of the least opens."""
    pts = points_of(X.support)
    return pts, X.opens.meets(X, pts)


def _meets(pts, sets) -> list[int]:
    """For each point, the bitmask of the meet of the sets, and of all pts,
    that hold it.  A finite set's points are read, the others' tested."""
    bit = {x: 1 << k for k, x in enumerate(pts)}
    masks = [sum(bit.get(x, 0) for x in points_of(S)) if S.is_finite_pointset()
             else sum(b for x, b in bit.items() if sx.contains(S, x)) for S in sets]
    return [reduce(and_, (m for m in masks if m & b), (1 << len(pts)) - 1) for b in bit.values()]


def generate_finite_gts(carrier: FiniteEnum, subbasis) -> GtsPresentation:
    """The topology a subbasis generates: unions of minimal neighbourhoods.

    Each point's minimal open is the intersection of the subbasis sets (and
    the whole carrier) that contain it; the opens are the unions of those,
    and the empty set.  On a finite carrier every open family is
    essentially finite, so the admissibility structure collapses: the
    policy is All and the admissible families are exactly the open families
    (Cov is the full powerset of Op).
    """
    subbasis = tuple(subbasis)
    if any(S.carrier != carrier for S in subbasis):
        raise CarrierMismatch("subbasis set on the wrong carrier")
    pts = points_of(sx.whole(carrier))
    listed = sorted((from_mask(carrier, pts, m) for m in union_closure(_meets(pts, subbasis))),
                    key=sx.sort_key)
    return GtsPresentation(carrier, ExplicitList(tuple(listed)), All(), name="generated")


def union_closure(masks) -> set[int]:
    """Every union of the given bitmasks, the empty union 0 included."""
    return unions_up_to(masks, float("inf"))


def unions_up_to(masks, most) -> set[int] | None:
    """union_closure(masks), counted as it grows: None past most unions."""
    out = {0}
    for b in masks:
        out |= {m | b for m in out}
        if len(out) > most:
            return None
    return out


# -- admissibility --------------------------------------------------------

def check_members_open(X: GtsPresentation, F: FamilyExpr):
    """Raise NonOpenMember if some member of F is not open in X."""
    for m in F.finite_part:
        if not is_open(X, m):
            raise NonOpenMember(m)
    for s in F.streams:
        if not sx.is_subset(s.union(), X.support):
            raise NonOpenMember(s.member(_escaping_stage(s, X.support)))
        stages = list(range(s.n0, s.n0 + 3))
        if s.monotone:
            stages.append(large_stage([s], list(F.finite_part)))
        m = X.opens.non_open_member(X, s, stages)
        if m is not None:
            raise NonOpenMember(m)


def _escaping_stage(s: Stream, support: SetExpr) -> int:
    """The least stage whose member leaves support, where s's union does.

    Every member sits inside the union, so some member leaves too.  Monotone
    members grow, so the stage is bisected below large_stage; a finite
    escaped set names the members of a pointwise stream that hold its
    points, and otherwise the stages are scanned.
    """
    escapes = lambda n: not sx.is_subset(s.member(n), support)
    if s.monotone:
        return first_stage(escapes, s.n0, large_stage([s], [support]))
    escaped = sx.minus(s.union(), support)
    if escaped.is_finite_pointset():
        found = {s.index_of(int(x)) for x in escaped.finite_points()} - {None}
        if found:
            return min(found)
    return next(filter(escapes, count(s.n0)))


def is_admissible(X: GtsPresentation, F: FamilyExpr) -> Verdict:
    """Is F an admissible cover of its union under X's policy?"""
    if F.carrier != X.carrier:
        raise CarrierMismatch("family on the wrong carrier")
    try:
        check_members_open(X, F)
    except NonOpenMember as e:
        return Verdict("No", "a member is not open", e.member)
    return X.policy.admits(F)


def _essentially_finite_on_each(F: FamilyExpr, probes, what: str) -> Verdict:
    """Is F essentially finite on every set K of the (witness, K) probes?  The
    first that fails is the witness; probes are drawn only until then."""
    for witness, K in probes:
        r = essentially_finite_on(F, K)
        if not r.yes:
            return Verdict("No", "not essentially finite on a " + what, witness, r)
    return Verdict("Yes", "essentially finite on every " + what)


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
    if X.policy.essentially_finite:
        return Verdict("Small", "every admissible cover is essentially finite")
    if K.is_empty() or K.is_finite_pointset():
        return Verdict("Small", "finite point sets are small")
    return X.policy.smallness(X, K)


def _qline_not_small_witness(K: SetExpr) -> Verdict:
    for iv in K.form:
        if iv.is_point():
            continue
        if iv.hi is not POS_INF:
            b = iv.hi
            a = b - 2 if iv.lo is NEG_INF else min(iv.lo, b - 1)
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
