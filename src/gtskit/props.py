"""Connectedness, separation, density, bases, and map classification."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .carriers import NatFC, QLine
from .errors import NonFiniteCarrier, UnsupportedPresentation
from .families import FamilyExpr, family_union, first_stage, large_stage
from .layers import LayerReport, weak_closure, weakly_open
from .maps import SpaceMap, check_strict_continuity
from .presentation import (
    AllCanonicalOpen,
    AllSets,
    FiniteOrWhole,
    GtsPresentation,
    check_members_open,
    from_mask,
    is_admissible,
    is_open,
    least_opens,
    listed_opens,
    points_of,
    union_closure,
)
from . import setexpr as sx
from .setexpr import SetExpr
from .verdict import Verdict


# -- components -----------------------------------------------------------

@dataclass(frozen=True)
class ComponentsReport:
    parts: tuple
    acc: Verdict  # is the component family open and admissible


def components(X: GtsPresentation) -> ComponentsReport:
    op = X.opens
    if X.support.is_finite_pointset():
        parts = quasi_components(X)
    elif op.interval_opens:
        parts = tuple(SetExpr(X.carrier, (iv,), _normalized=True) for iv in X.support.form)
    elif op.pieces and all(sx.intersect(A.support, B.support).is_empty()
                           for A, B in combinations(op.pieces, 2)):
        parts = tuple(C for P in op.pieces for C in components(P).parts)
    else:
        raise UnsupportedPresentation("no component procedure for this presentation")
    fam = FamilyExpr(X.carrier, parts)
    ok = all(is_open(X, C) for C in parts) and is_admissible(X, fam).yes
    return ComponentsReport(parts, Verdict("Yes" if ok else "No"))


def quasi_components(X: GtsPresentation) -> tuple:
    """The quasi-components of a finite presentation, which are its components.

    Points share a component when a chain of points links them, each in the
    least open of the next or the next in its own.  A component holds the
    least open of each of its points, so it is open, and the union of the
    other components is open too: each component is clopen, and so is
    exactly a quasi-component.
    """
    if not X.support.is_finite_pointset():
        raise UnsupportedPresentation("quasi-components need a finite presentation")
    pts, least = least_opens(X)
    parts = []
    for m in least:
        # merge the parts this least open meets
        parts = [p for p in parts if not p & m] + [reduce(or_, (p for p in parts if p & m), m)]
    return tuple(sorted((from_mask(X.carrier, pts, p) for p in parts), key=sx.sort_key))


# -- separation -----------------------------------------------------------

SEPARATION_FLAGS = (
    "weakly_T1", "strongly_T1", "weakly_hausdorff", "strongly_hausdorff",
    "weakly_regular", "strongly_regular", "weakly_normal", "strongly_normal",
)


def separation_report(X: GtsPresentation) -> LayerReport:
    rep = LayerReport()
    if X.support.is_finite_pointset():
        _finite_separation(X, rep)
    else:
        key = type(X.opens)
        if key not in _SEPARATION:
            key = (type(X.carrier), key)
        _SEPARATION.get(key, _every_flag("Unknown"))(rep)
    return rep


def _every_flag(status, reason=""):
    return lambda rep: rep.flags.update(dict.fromkeys(SEPARATION_FLAGS, Verdict(status, reason)))


def _finite_or_whole_separation(rep):
    x = sx.nat_finite([0])
    cof = sx.nat_cofinite([0])
    rep.flags["weakly_T1"] = Verdict("Yes", "singletons are open")
    rep.flags["strongly_T1"] = Verdict("No", "cofinite complements are not open", cof)
    rep.flags["weakly_hausdorff"] = Verdict("Yes", "disjoint singletons are open")
    rep.flags["strongly_hausdorff"] = Verdict("No", witness=cof)
    # the only infinite open set is the whole space, so no open set can
    # contain a closed cofinite set while avoiding a point
    rep.flags["weakly_regular"] = Verdict("No", witness=(x, cof))
    rep.flags["strongly_regular"] = Verdict("No", witness=(x, cof))
    rep.flags["weakly_normal"] = Verdict("No", witness=(x, cof))
    rep.flags["strongly_normal"] = Verdict("No", witness=(x, cof))


# the flags of a presentation on an infinite support, by opens class on
# every carrier, else by carrier and opens class
_SEPARATION = {
    AllSets: _every_flag("Yes", "every subset is open"),
    (QLine, AllCanonicalOpen): _every_flag("Yes", "interval gap separation"),
    (NatFC, FiniteOrWhole): _finite_or_whole_separation,
}


def _finite_separation(X, rep):
    """The flags of a finite presentation, read off its least opens: a set
    is open iff it holds the least open of each of its points, and two sets
    are separated iff the unions of their points' least opens, the least
    opens around them, are disjoint."""
    pts, least = least_opens(X)
    if all(m == 1 << k for k, m in enumerate(least)):  # every set is open
        return _every_flag("Yes")(rep)
    points, full = list(enumerate(pts)), (1 << len(pts)) - 1
    as_set = lambda m: from_mask(X.carrier, pts, m)
    hull = lambda A: reduce(or_, (m for k, m in enumerate(least) if A >> k & 1), 0)
    separated = lambda A, B: not hull(A) & hull(B)
    # the closeds, their opens sorted as listed opens are, then the points
    opens = sorted(union_closure(least), key=lambda m: sx.sort_key(as_set(m)))
    targets = [full ^ O for O in opens] + [1 << i for i, _ in points]

    w_t1 = next(((x, y) for i, x in points for j, y in points
                 if i != j and least[i] >> j & 1), None)
    rep.flags["weakly_T1"] = Verdict("Yes" if w_t1 is None else "No", witness=w_t1)
    s_t1 = next((x for i, x in points if hull(full ^ 1 << i) != full ^ 1 << i), None)
    rep.flags["strongly_T1"] = Verdict("Yes" if s_t1 is None else "No", witness=s_t1)
    wh = next(((x, y) for (i, x), (j, y) in combinations(points, 2)
               if least[i] & least[j]), None)
    rep.flags["weakly_hausdorff"] = Verdict("Yes" if wh is None else "No", witness=wh)
    wr = next(((x, as_set(F)) for i, x in points for F in targets
               if F and not F >> i & 1 and not separated(1 << i, F)), None)
    rep.flags["weakly_regular"] = Verdict("Yes" if wr is None else "No", witness=wr)
    wn = next(((as_set(F), as_set(G)) for F in targets for G in targets
               if F and G and not F & G and not separated(F, G)), None)
    rep.flags["weakly_normal"] = Verdict("Yes" if wn is None else "No", witness=wn)
    for strong, weak in (("strongly_hausdorff", "weakly_hausdorff"),
                         ("strongly_regular", "weakly_regular"),
                         ("strongly_normal", "weakly_normal")):
        if rep.flags[weak].yes and rep.flags["strongly_T1"].yes:
            rep.flags[strong] = Verdict("Yes")
        else:
            bad = rep.flags[weak] if not rep.flags[weak].yes else rep.flags["strongly_T1"]
            rep.flags[strong] = Verdict("No", witness=bad.witness)


# -- density and bases ----------------------------------------------------

def is_dense(X: GtsPresentation, S: SetExpr) -> Verdict:
    closure = weak_closure(X, S)
    if closure == X.support:
        return Verdict("Yes")
    rest = sx.minus(X.support, closure)
    witness = rest
    if isinstance(X.opens, AllCanonicalOpen):
        witness = sx.interval_interior(rest)
    elif not is_open(X, rest) and not weakly_open(X, rest):
        opens = listed_opens(X)
        for O in opens if opens is not None else _drawn_opens(X, 32, 13):
            if not O.is_empty() and sx.is_subset(O, rest):
                witness = O
                break
    return Verdict("No", "an open set misses the closure", witness)


def _drawn_opens(X: GtsPresentation, budget: int, seed: int) -> list[SetExpr]:
    rng = random.Random(seed)
    return [X.opens.draw(X, rng) for _ in range(budget)]


CANONICAL_INTERVAL_BASIS = "canonical-intervals"


def is_basis(X: GtsPresentation, B) -> Verdict:
    """Is every open an admissible union of members of B?

    A finite support is decided from its least opens.  Elsewhere the listed
    opens are checked, and without a listing 64 sampled opens, each by the
    members found inside it.
    """
    if B == CANONICAL_INTERVAL_BASIS:
        if isinstance(X.opens, AllCanonicalOpen):
            return Verdict(
                "Yes", "every open is a finite, hence admissible, union of open intervals"
            )
        return Verdict("Unknown")
    check_members_open(X, B)
    if X.support.is_finite_pointset():
        return _finite_basis(X, B)
    union_all = family_union(B)
    opens = listed_opens(X)
    exact = opens is not None
    if not exact:
        opens = _drawn_opens(X, 64, 13)
    undecided = None
    for O in opens:
        if not sx.is_subset(O, union_all):
            return Verdict("No", "open set not covered by the basis", O)
        hull, whole = _union_inside(B, O)
        if hull != O:
            if whole:
                return Verdict("No", "open set is not a union of basis members", O)
            undecided = undecided or O
    if undecided is not None:
        return Verdict("Unknown", "the members inside an open are not all found", undecided)
    if not exact:
        return Verdict("Checked", "budgeted sample of opens verified")
    return Verdict("Yes", "checked on every open set")


def _union_inside(B: FamilyExpr, O: SetExpr):
    """The union of members of B inside O, and whether it takes every one.

    A monotone stream's members inside O are the stages before the first
    that is not, which is sought below large_stage; where every stage up to
    there lies inside O, the stream's union is taken if it does too.  A
    pointwise stream's members are disjoint, so of those the one index_of
    names is the only member that can hold a point of O left uncovered."""
    parts = [m for m in B.finite_part if sx.is_subset(m, O)]
    whole = True
    pointwise = []
    for s in B.streams:
        if not s.monotone:
            pointwise.append(s)
            continue
        n = first_stage(lambda n: not sx.is_subset(s.member(n), O), s.n0,
                        large_stage([s], [O]))
        if n is None and sx.is_subset(s.union(), O):
            parts.append(s.union())
        elif n is None:
            whole = False
        elif n > s.n0:
            parts.append(s.member(n - 1))
    hull = sx.union_all(B.carrier, parts)
    if not pointwise or hull == O:
        return hull, whole
    rest = sx.minus(O, hull)
    if not rest.is_finite_pointset():
        return hull, False
    for x in points_of(rest):
        for s in pointwise:
            n = s.index_of(x)
            if n is not None and sx.is_subset(s.member(n), O):
                parts.append(s.member(n))
            elif n is None and sx.contains(s.union(), x):
                whole = False
    return sx.union_all(B.carrier, parts), whole


def _finite_basis(X: GtsPresentation, B: FamilyExpr) -> Verdict:
    """is_basis on a finite support: B, whose members are open, is a basis
    iff it holds the least open U_x of every point x.  Every open around x
    holds U_x, so a member m with x in m inside U_x is U_x itself; and every
    open is the union of the least opens of its points."""
    pts, least = least_opens(X)
    listed = set(B.finite_part)
    undecided = None
    for x, m in zip(pts, least):
        U = from_mask(X.carrier, pts, m)
        if U in listed:
            continue
        held = [_stream_holds(s, x, U, X.support) for s in B.streams]
        if True in held:
            continue
        if None not in held:
            return Verdict("No", "the least open of a point is not a member", U)
        undecided = undecided or U
    if undecided is not None:
        return Verdict("Unknown", "no member is shown to be the least open of a point",
                       undecided)
    return Verdict("Yes", "every least open is a member")


def _stream_holds(s, x, U: SetExpr, support: SetExpr) -> bool | None:
    """Is U, the least open around x, a member of stream s?  None where the
    member holding x is not found.

    A pointwise stream's members are disjoint, so only the one index_of
    names holds x.  A monotone stream's first member holding x lies inside
    every later one, and holds U, so U is a member iff it is that one."""
    if s.monotone:
        n = first_stage(lambda n: sx.contains(s.member(n), x), s.n0,
                        large_stage([s], [support]))
    else:
        n = s.index_of(x)
    if n is None:
        return None if sx.contains(s.union(), x) else False
    return s.member(n) == U


# -- map classification ---------------------------------------------------

def _image_preserves(f: SpaceMap, closed: bool, budget: int, seed: int) -> Verdict:
    """Does the image of every open (or closed) set stay open (closed)?

    A finite domain answers "Yes" from its least opens, without listing.
    Every open is a union of least opens, and every closed set the union of
    its points' closures, the closure of x being {y : x in U_y}.  Images
    keep unions, and finite unions of opens (of closeds) are open (closed),
    so it is enough that each of these n images is.  Where one is not, the
    listing below finds the witness."""
    if f.domain.support.is_finite_pointset() and _least_images_kept(f, closed):
        return Verdict("Yes")
    opens = listed_opens(f.domain)
    exact = opens is not None
    if not exact:
        why = f.rule.keeps_opens(f, "closed image" if closed else "image")
        if why is not None:
            return Verdict("Yes", why)
        opens = _drawn_opens(f.domain, budget, seed)
    for O in opens:
        S = sx.minus(f.domain.support, O) if closed else O
        try:
            kept = _image_kept(f, S, closed)
        except NonFiniteCarrier:  # a rule that maps point by point meets an infinite set
            return Verdict("Unknown", "the image of an infinite set is not computable")
        if not kept:
            return Verdict("No", witness=S)
    return Verdict("Yes" if exact else "Checked")


def _image_kept(f: SpaceMap, S: SetExpr, closed: bool) -> bool:
    """Is the image of S open (with closed, closed) in the codomain?"""
    img = f.image(S)
    if closed:
        img = sx.minus(f.codomain.support, img)
    return is_open(f.codomain, img)


def _least_images_kept(f: SpaceMap, closed: bool) -> bool:
    """Is the image of each least open (with closed, of each point's
    closure) of f's finite domain open (closed)?  False also where the least
    opens or an image cannot be computed."""
    X = f.domain
    try:
        pts, least = least_opens(X)
        if closed:
            least = [sum(1 << j for j, m in enumerate(least) if m >> k & 1)
                     for k in range(len(pts))]
        return all(_image_kept(f, from_mask(X.carrier, pts, m), closed) for m in least)
    except NonFiniteCarrier:
        return False


def _is_bijective(f: SpaceMap) -> bool | None:
    if not f.domain.support.is_finite_pointset():
        return None
    imgs = [f.apply(x) for x in points_of(f.domain.support)]
    if not f.codomain.support.is_finite_pointset():
        return None
    cod = points_of(f.codomain.support)
    return len(set(imgs)) == len(imgs) and set(imgs) == set(cod)


def classify_map(f: SpaceMap) -> LayerReport:
    """The map flags; open and closed maps sample 64 opens when not enumerable."""
    flags = {}
    flags["strictly_continuous"] = check_strict_continuity(f)
    flags["open_map"] = _image_preserves(f, closed=False, budget=64, seed=19)
    flags["closed_map"] = _image_preserves(f, closed=True, budget=64, seed=23)
    flags["strict_homeo"] = _strict_homeo_flag(f, flags["strictly_continuous"])
    if flags["strict_homeo"].yes:
        flags["local_strict_homeo"] = Verdict(
            "Yes", "the whole space works as the covering")
        # a strict homeomorphism transports opens and closeds both ways
        if flags["open_map"].status == "Checked":
            flags["open_map"] = Verdict("Yes", "strict homeomorphism")
        if flags["closed_map"].status == "Checked":
            flags["closed_map"] = Verdict("Yes", "strict homeomorphism")
    else:
        flags["local_strict_homeo"] = Verdict(
            "Unknown", "no witness covering supplied")
    return LayerReport(flags)


def _strict_homeo_flag(f: SpaceMap, cont: Verdict) -> Verdict:
    if cont.status == "No":
        return Verdict("No", "not strictly continuous", cont.witness)
    inv = f.inverse()
    if inv is None:
        bij = _is_bijective(f)
        if bij is False:
            return Verdict("No", "not a bijection")
        return Verdict("Unknown", "no computable inverse")
    back = check_strict_continuity(inv)
    if back.status == "No":
        return Verdict("No", "inverse not strictly continuous", back.witness)
    if cont.status == "Yes" and back.status == "Yes":
        return Verdict("Yes")
    return Verdict("Unknown", "continuity only probe-checked")
