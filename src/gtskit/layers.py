"""Locally small and weakly small structure: bases, closures, exhaustions."""

from __future__ import annotations

from dataclasses import dataclass, field

from .carriers import Product, QLine
from .errors import (
    CarrierMismatch,
    NoInfimum,
    NonOpenMember,
    PointNotCovered,
    PolicyMismatch,
    PreconditionUnmet,
    TheoremViolation,
    UnsupportedCarrier,
)
from .exhaustions import Exhaustion
from .families import FamilyExpr, family_union
from .presentation import (
    GtsPresentation,
    LocallyEssFin,
    PiecewiseEssFin,
    check_members_open,
    enumerate_opens,
    from_points,
    is_admissible,
    is_open,
    listed_opens,
    smallness,
)
from . import setexpr as sx
from .setexpr import SetExpr
from .verdict import Verdict


@dataclass
class LayerReport:
    """Named verdicts about one space, map or site, with free-form notes."""

    flags: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def __getitem__(self, name):
        return self.flags[name]

    def ok(self, *names) -> bool:
        names = names or tuple(self.flags)
        return all(self.flags[n].yes for n in names)


# -- weak topology --------------------------------------------------------

def weakly_open(X: GtsPresentation, S: SetExpr) -> bool:
    """Is S a union of open sets (open in the generated topology)?"""
    if S.carrier != X.carrier:
        raise CarrierMismatch("set on the wrong carrier")
    if not sx.is_subset(S, X.support):
        return False
    return X.opens.weakly_open(X, S)


def weak_closure(X: GtsPresentation, S: SetExpr) -> SetExpr:
    """The closure of S in the generated topology."""
    if S.carrier != X.carrier:
        raise CarrierMismatch("set on the wrong carrier")
    S = sx.intersect(S, X.support)
    op = X.opens
    c = X.carrier
    if isinstance(c, Product):
        raise UnsupportedCarrier("weak closure is not provided on products")
    if op.singletons_open:
        return S  # the generated topology is discrete
    if op.interval_opens:
        return sx.intersect(sx.interval_closure(S), X.support)
    if op.pieces:
        return sx.union_all(c, [weak_closure(P, sx.intersect(S, P.support)) for P in op.pieces])
    away = sx.union_all(c, [O for O in enumerate_opens(X) if sx.intersect(O, S).is_empty()])
    return sx.minus(X.support, away)


# -- locally small layer --------------------------------------------------

def validate_locally_small(X: GtsPresentation, base: FamilyExpr = None) -> LayerReport:
    """Certify an admissible cover by small open subsets, and its fallout."""
    rep = LayerReport()
    if base is None:
        if not isinstance(X.policy, LocallyEssFin):
            raise PolicyMismatch("no base family to validate")
        base = X.policy.base
    failure = _base_failure(X, base)
    if failure is not None:
        rep.flags["locally_small"] = Verdict("No", *failure)
        for k in ("paracompact", "lindelof", "closure_property", "strongly_T1"):
            rep.flags[k] = Verdict("Unknown")
        return rep
    rep.flags["locally_small"] = Verdict("Yes")
    rep.flags["lindelof"] = Verdict("Yes", "presentable bases are countable")
    rep.flags["paracompact"] = _paracompact_flag(X, base, rep)
    rep.flags["closure_property"] = _closure_property_flag(X)
    from .props import separation_report
    rep.flags["strongly_T1"] = separation_report(X).flags["strongly_T1"]
    return rep


def _base_failure(X: GtsPresentation, base: FamilyExpr):
    """(reason, witness) of the first way base fails to be an admissible
    cover of X by small opens; None where it is one."""
    try:
        check_members_open(X, base)
    except NonOpenMember as e:
        return "base member not open", e.member
    probes = [s.member(n) for s in base.streams for n in range(s.n0, s.n0 + 3)]
    bad = next((m for m in list(base.finite_part) + probes
                if smallness(X, m).status == "NotSmall"), None)
    if bad is not None:
        return "base member not small", bad
    if family_union(base) != X.support:
        return "base does not cover the space", base
    if not is_admissible(X, base).yes:
        return "base not admissible", base
    return None


def _pairwise_disjoint(sets) -> bool:
    for i, A in enumerate(sets):
        for B in sets[i + 1:]:
            if not sx.intersect(A, B).is_empty():
                return False
    return True


def _paracompact_flag(X: GtsPresentation, base: FamilyExpr, rep: LayerReport) -> Verdict:
    fin = list(base.finite_part)
    if not base.streams:
        if _pairwise_disjoint(fin):
            return Verdict("Yes", "disjoint bases are locally finite")
        # locally finite: every member meets only finitely many members,
        # which for a finite base is automatic
        return Verdict("Yes", "finite bases are locally finite")
    pointwise = [s for s in base.streams if not s.monotone]
    monotone = [s for s in base.streams if s.monotone]
    if not monotone:
        probes = fin + [s.member(s.n0 + k) for s in pointwise for k in range(3)]
        if _pairwise_disjoint(probes):
            return Verdict("Yes", "pairwise disjoint base is locally finite")
        return Verdict("Unknown")
    if isinstance(X.carrier, QLine) and len(monotone) == 1 and not fin and not pointwise:
        ok, witness = _annuli_refinement_ok(X, monotone[0])
        if ok:
            rep.notes.append(
                "nested chain refined by the disjoint-annuli witness " + witness
            )
            return Verdict("Yes", "locally finite refinement witness verified")
    return Verdict("Unknown")


def _annuli_refinement_ok(X: GtsPresentation, chain):
    """Refine a nested interval chain by two-sided annuli.

    The witness family {(-n-1,-n+1), (n-1,n+1) : n >= 0} is locally finite
    (members two steps apart are disjoint) and locally essentially finite
    over the chain; both facts are brute-forced out to depth 6, each
    against a running union.  Annulus i is disjoint from every annulus two
    or more steps on iff it is disjoint from their union, built from the
    last annulus back; the chain's m-th ball lies in the first m+2 annuli
    iff it lies in their union, built from the first annulus on.
    """
    depth = 6
    def annulus(n):
        left = sx.interval(-n - 1, -n + 1)
        right = sx.interval(n - 1, n + 1)
        return sx.union(left, right)

    members = [annulus(n) for n in range(depth + 2)]
    for m in members:
        if not is_open(X, m):
            return False, ""
    later = sx.empty(X.carrier)  # the union of the annuli past i + 1
    for i in range(len(members) - 3, -1, -1):
        later = sx.union(later, members[i + 2])
        if not sx.intersect(members[i], later).is_empty():
            return False, ""
    first = sx.union(members[0], members[1])  # the union of the first m + 2 annuli
    for m in range(1, depth):
        first = sx.union(first, members[m + 1])
        if not sx.is_subset(chain.member(max(chain.n0, m)), first):
            return False, ""
    return True, "{(-n-1,-n+1) u (n-1,n+1) : n >= 0}"


def _closure_property_flag(X: GtsPresentation) -> Verdict:
    op = X.opens
    if op.singletons_open:
        return Verdict("Yes", "discrete generated topology: closure is identity")
    if op.interval_opens:
        return Verdict(
            "Yes", "interval closure adds finitely many endpoints to a small set"
        )
    # with finitely many opens every family is essentially finite
    if op.pieces or listed_opens(X) is not None:
        return Verdict("Yes", "finite or summand-wise closures stay small")
    return Verdict("Unknown")


# -- exhaustions ----------------------------------------------------------

def validate_exhaustion(X: GtsPresentation, E: Exhaustion) -> LayerReport:
    """Check the directed-family conditions and closed/small pieces."""
    rep = LayerReport()
    if E.is_chain():
        _validate_chain(X, E, rep)
    else:
        _validate_poset(X, E, rep)
    if isinstance(X.policy, PiecewiseEssFin) and X.policy.exhaustion == E:
        rep.notes.append("admissibility is defined piecewise over this exhaustion")
    return rep


def _validate_chain(X, E, rep):
    probe = 8
    s = E.chain
    ok_cover = sx.is_subset(X.support, s.union())
    rep.flags["W1"] = Verdict("Yes" if ok_cover else "No", "pieces must exhaust the space",
                              None if ok_cover else s.union())
    mono = all(
        sx.is_subset(s.member(n), s.member(n + 1))
        for n in range(s.n0, s.n0 + probe)
    )
    rep.flags["W2"] = Verdict("Yes" if mono and s.monotone else "No",
                              "monotone generator" if mono else "")
    rep.flags["W3"] = Verdict("Yes", "chain indices have finite histories")
    meets = all(
        sx.intersect(s.member(a), s.member(b)) == s.member(min(a, b))
        for a in range(s.n0, s.n0 + probe)
        for b in range(s.n0, s.n0 + probe)
    )
    rep.flags["W4"] = Verdict("Yes" if meets else "No")
    rep.flags["W5"] = Verdict("Yes", "the larger index bounds both")
    bad = None
    for n in range(s.n0, s.n0 + probe):
        P = sx.intersect(s.member(n), X.support)
        closed = is_open(X, sx.minus(X.support, P))
        small = smallness(X, P).status != "NotSmall"
        if not (closed and small):
            bad = P
            break
    rep.flags["pieces_closed_small"] = Verdict("Yes" if bad is None else "No", witness=bad)


def _validate_poset(X, E, rep):
    pieces = dict(E.pieces)
    poset = E.poset
    union = sx.union_all(X.carrier, pieces.values())
    rep.flags["W1"] = Verdict("Yes" if union == X.support else "No", witness=union)
    bad = next(
        ((a, b) for a in poset.elements for b in poset.elements
         if poset.leq(a, b) and not sx.is_subset(pieces[a], pieces[b])),
        None,
    )
    rep.flags["W2"] = Verdict("Yes" if bad is None else "No", witness=bad)
    rep.flags["W3"] = Verdict("Yes", "finite index posets have finite histories")
    missing = None
    for a in poset.elements:
        for b in poset.elements:
            want = sx.intersect(pieces[a], pieces[b])
            if not any(pieces[g] == want for g in poset.elements):
                missing = (a, b)
                break
        if missing:
            break
    rep.flags["W4"] = Verdict("Yes" if missing is None else "No", witness=missing)
    unbounded = next(
        ((a, b) for a in poset.elements for b in poset.elements
         if not poset.upper_bounds(a, b)),
        None,
    )
    rep.flags["W5"] = Verdict("Yes" if unbounded is None else "No", witness=unbounded)
    bad = None
    for P in pieces.values():
        if not is_open(X, sx.minus(X.support, P)) or \
                smallness(X, P).status == "NotSmall":
            bad = P
            break
    rep.flags["pieces_closed_small"] = Verdict("Yes" if bad is None else "No", witness=bad)


def index_function(E: Exhaustion, x):
    """The least index whose piece contains x."""
    if E.is_chain():
        s = E.chain
        # the union test also refuses a point that is not of the carrier
        n = E.least_stage(from_points(s.carrier, [x])) if sx.contains(s.union(), x) else None
        if n is None:
            raise PointNotCovered(x)
        return n
    containing = [i for i, P in E.pieces if sx.contains(P, x)]
    if not containing:
        raise PointNotCovered(x)
    poset = E.poset
    lower = [m for m in poset.elements
             if all(poset.leq(m, c) for c in containing)]
    glb = next(
        (g for g in lower if all(poset.leq(m, g) for m in lower)),
        None,
    )
    if glb is None:
        raise NoInfimum(x)
    return glb


# -- subset classification ------------------------------------------------

def _constructible_flag(X: GtsPresentation, S: SetExpr) -> Verdict:
    op = X.opens
    if op.singletons_open:
        return Verdict("Yes", "every representable set is a boolean combination")
    if op.interval_opens:
        return Verdict("Yes", "rational intervals are boolean combinations of opens")
    opens = listed_opens(X)
    if opens is None:
        return Verdict("Unknown")
    # the boolean algebra of the opens holds exactly the unions of its atoms,
    # the pieces the opens cut the support into
    atoms = [X.support]
    for O in opens:
        atoms = [q for A in atoms for q in (sx.intersect(A, O), sx.minus(A, O))
                 if not q.is_empty()]
    whole_or_none = all(sx.is_subset(A, S) or sx.intersect(A, S).is_empty() for A in atoms)
    return Verdict("Yes" if whole_or_none else "No")


def classify_subset(X: GtsPresentation, S: SetExpr) -> LayerReport:
    if S.carrier != X.carrier:
        raise CarrierMismatch("set on the wrong carrier")
    S = sx.intersect(S, X.support)
    flags = {}
    flags["open"] = Verdict("Yes" if is_open(X, S) else "No")
    comp = sx.minus(X.support, S)
    flags["closed"] = Verdict("Yes" if is_open(X, comp) else "No")
    try:
        wo = weakly_open(X, S)
        wc = weakly_open(X, comp)
        flags["weakly_open"] = Verdict("Yes" if wo else "No")
        flags["weakly_closed"] = Verdict("Yes" if wc else "No")
    except UnsupportedCarrier:
        flags["weakly_open"] = flags["weakly_closed"] = Verdict("Unknown")
    try:
        closure = weak_closure(X, S)
        rim = sx.minus(closure, S)
        locally_closed = weakly_open(X, sx.minus(X.support, rim))
        flags["locally_closed"] = Verdict("Yes" if locally_closed else "No", witness=rim)
    except UnsupportedCarrier:
        flags["locally_closed"] = Verdict("Unknown")
    flags["constructible"] = _constructible_flag(X, S)
    if isinstance(X.policy, LocallyEssFin):
        flags["locally_constructible"] = _piecewise_constructible(
            X, S, X.policy.base.sample_members(3)
        )
    if isinstance(X.policy, PiecewiseEssFin):
        exh = X.policy.exhaustion
        pieces = [exh.piece(i) for i in exh.indices(6)]
        flags["piecewise_constructible"] = _piecewise_constructible(X, S, pieces)
    return LayerReport(flags)


def _piecewise_constructible(X, S, pieces) -> Verdict:
    for P in pieces:
        f = _constructible_flag(X, sx.intersect(S, P))
        if f.status != "Yes":
            return Verdict(f.status, witness=P)
    return Verdict("Yes")


# -- the piece-capture theorem --------------------------------------------

def piece_capture(f, exhaustion: Exhaustion):
    """The image of a small domain lands in one piece of the exhaustion."""
    X = f.codomain
    rep = validate_exhaustion(X, exhaustion)
    if not rep.ok("W1", "W2", "W3", "W4", "W5"):
        raise PreconditionUnmet("exhaustion conditions not established")
    from .props import separation_report
    if not separation_report(X).flags["strongly_T1"].yes:
        raise PreconditionUnmet("codomain not certified strongly T1")
    if smallness(f.domain, f.domain.support).status != "Small":
        raise PreconditionUnmet("domain not certified small")
    image = f.image(f.domain.support)
    if exhaustion.is_chain():
        n = exhaustion.least_stage(image)
        if n is None:
            raise TheoremViolation(
                "no chain piece captured the image " + sx.render(image)
            )
        return n
    containing = [i for i, P in exhaustion.pieces if sx.is_subset(image, P)]
    if not containing:
        raise TheoremViolation(
            "no piece captured the image " + sx.render(image)
        )
    poset = exhaustion.poset
    containing.sort(key=lambda i: len(poset.below(i)))
    return containing[0]
