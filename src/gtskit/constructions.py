"""Space constructors: subspaces, products, gluing, sums, adjoint functors."""

from __future__ import annotations

import random

from .carriers import FiniteEnum, NatFC, Product, QLine
from .errors import (
    BallNotOpen,
    CarrierMismatch,
    IncompatibleTraces,
    NonSmallFactor,
    OverlapNotOpen,
    PreconditionUnmet,
    UnsupportedPresentation,
    UnsupportedSubset,
)
from .families import FamilyExpr
from .layers import weakly_open
from .maps import Composite, Projection, SpaceMap, identity_map
from .presentation import (
    All,
    AllSets,
    EssFin,
    ExplicitList,
    GluedOpens,
    GtsPresentation,
    LocallyEssFin,
    ProductOpens,
    TraceOpens,
    enumerate_opens,
    is_open,
    smallness,
)
from . import setexpr as sx
from .setexpr import SetExpr
from .streams import GrowBalls


# -- subspaces ------------------------------------------------------------

def subspace(X: GtsPresentation, Y: SetExpr) -> GtsPresentation:
    """The trace presentation on Y, where the theory provides one."""
    if Y.carrier != X.carrier:
        raise CarrierMismatch("subset on the wrong carrier")
    support = sx.intersect(Y, X.support)
    opens = TraceOpens(X, support)
    open_in_X = is_open(X, support)
    if smallness(X, support).status == "Small":
        policy = EssFin()
    else:
        policy = X.policy.restrict(support)
        if policy is None:
            if not open_in_X:
                raise UnsupportedSubset(
                    "subset is neither open nor small, and the policy carries no layers"
                )
            policy = X.policy
    name = (X.name + "|" + sx.render(support)) if X.name else ""
    return GtsPresentation(X.carrier, opens, policy, support, name)


# -- products -------------------------------------------------------------

def _is_small_space(X: GtsPresentation) -> bool:
    return X.policy.essentially_finite or isinstance(X.carrier, FiniteEnum)


def product(Xs: list) -> tuple:
    """Finite product of small spaces; returns (space, projections)."""
    if not Xs:
        raise PreconditionUnmet("product needs at least one factor")
    for X in Xs:
        if not _is_small_space(X):
            raise NonSmallFactor(X.name or X.carrier.describe())
    if len(Xs) == 1:
        X = Xs[0]
        return X, [identity_map(X, name="pi1")]
    left, lprojs = product(Xs[:-1])
    right = Xs[-1]
    carrier = Product(left.carrier, right.carrier)
    support = sx.box(left.support, right.support)
    name = "x".join(x.name or "?" for x in Xs)
    P = GtsPresentation(carrier, ProductOpens(left, right), EssFin(), support, name)
    pl = SpaceMap(P, left, Projection("left"), name="pi_left")
    projs = []
    for i, lp in enumerate(lprojs):
        if len(Xs) == 2:
            projs.append(SpaceMap(P, left, Projection("left"), name="pi1"))
        else:
            projs.append(SpaceMap(P, lp.codomain, Composite(lp, pl),
                                  name="pi%d" % (i + 1)))
    projs.append(SpaceMap(P, right, Projection("right"), name="pi%d" % len(Xs)))
    return P, projs


# -- gluing and sums ------------------------------------------------------

def glue(pieces: list) -> GtsPresentation:
    """The admissible union of open-overlapping pieces on a shared carrier."""
    if not pieces:
        raise PreconditionUnmet("glue needs at least one piece")
    carrier = pieces[0].carrier
    for P in pieces:
        if P.carrier != carrier:
            raise CarrierMismatch("pieces on different carriers")
    for i, A in enumerate(pieces):
        for B in pieces[i + 1:]:
            O = sx.intersect(A.support, B.support)
            if O.is_empty():
                continue
            if not (is_open(A, O) and is_open(B, O)):
                raise OverlapNotOpen(sx.render(O))
            _check_trace_agreement(A, B, O)
    support = sx.union_all(carrier, [P.support for P in pieces])
    base = FamilyExpr(carrier, tuple(P.support for P in pieces))
    return GtsPresentation(
        carrier, GluedOpens(tuple(pieces)), LocallyEssFin(base), support,
        name="glue(%s)" % ",".join(P.name or "?" for P in pieces),
    )


def _check_trace_agreement(A: GtsPresentation, B: GtsPresentation, O: SetExpr):
    """Probe that the two pieces induce the same opens on the overlap."""
    if type(A.opens) is type(B.opens) and not isinstance(A.opens, ExplicitList):
        return
    rng = random.Random(11)
    for _ in range(16):
        SA = sx.intersect(A.opens.draw(A, rng), O)
        SB = sx.intersect(B.opens.draw(B, rng), O)
        if not is_open(B, sx.intersect(SA, B.support)) or \
                not is_open(A, sx.intersect(SB, A.support)):
            raise IncompatibleTraces(sx.render(O))


def direct_sum(Xs: list) -> GtsPresentation:
    """Glue pairwise disjoint pieces; summands come out open and closed."""
    if not Xs:
        raise PreconditionUnmet("direct sum needs at least one summand")
    if all(isinstance(X.carrier, FiniteEnum) for X in Xs) and (
        len({X.carrier for X in Xs}) != 1
        or any(
            not sx.intersect(A.support, B.support).is_empty()
            for i, A in enumerate(Xs) for B in Xs[i + 1:]
        )
    ):
        Xs = _tag_enum_summands(Xs)
    carrier = Xs[0].carrier
    for i, A in enumerate(Xs):
        if A.carrier != carrier:
            raise CarrierMismatch("summands on different carriers; tag them first")
        for B in Xs[i + 1:]:
            if not sx.intersect(A.support, B.support).is_empty():
                raise PreconditionUnmet("summand supports must be pairwise disjoint")
    out = glue(Xs)
    return GtsPresentation(carrier, out.opens, out.policy, out.support,
                           name="sum(%s)" % ",".join(X.name or "?" for X in Xs))


def _tag_enum_summands(Xs: list) -> list:
    """Move atom summands onto one carrier with prefixed atom names."""
    atoms = []
    for i, X in enumerate(Xs):
        atoms.extend("%d.%s" % (i, a) for a in X.carrier.elements)
    big = FiniteEnum(tuple(atoms))
    out = []
    for i, X in enumerate(Xs):
        ren = lambda S, i=i: sx.atoms(big, ["%d.%s" % (i, a) for a in S.finite_points()])
        support = ren(X.support)
        if isinstance(X.opens, ExplicitList):
            opens = ExplicitList(tuple(ren(S) for S in X.opens.sets))
        elif isinstance(X.opens, AllSets):
            opens = AllSets()
        else:
            raise UnsupportedPresentation("cannot retag this opens description")
        out.append(GtsPresentation(big, opens, X.policy, support, X.name))
    return out


def summand_family(X: GtsPresentation) -> FamilyExpr:
    """The family of summand supports of a glued presentation."""
    if not isinstance(X.opens, GluedOpens):
        raise UnsupportedPresentation("not a glued presentation")
    return FamilyExpr(X.carrier, tuple(P.support for P in X.opens.pieces))


# -- adjoint constructions ------------------------------------------------

def smallify(X: GtsPresentation) -> GtsPresentation:
    """Keep the opens, admit only the essentially finite families."""
    if X.policy.essentially_finite:
        return X
    name = X.name + "_sm" if X.name else ""
    return GtsPresentation(X.carrier, X.opens, EssFin(), X.support, name)


def topologize(X: GtsPresentation):
    """The generated topology with all covers admissible.

    Finite presentations return a full space.  On the naturals the
    generated topology of finite-or-whole opens is discrete.  On the line
    and its traces the generated topology escapes the finite-interval
    algebra, so a weak-openness predicate is returned instead of a space.
    """
    c = X.carrier
    if X.opens.interval_opens:
        return lambda S: weakly_open(X, S)
    if isinstance(c, NatFC) and X.opens.singletons_open:
        name = X.name + "_top" if X.name else ""
        return GtsPresentation(c, AllSets(), All(), X.support, name)
    # listed opens are closed under union; enumerate_opens raises NonFiniteCarrier
    name = X.name + "_top" if X.name else ""
    return GtsPresentation(c, ExplicitList(tuple(enumerate_opens(X))), All(), X.support, name)


def localize(X: GtsPresentation) -> GtsPresentation:
    """The admissible union of the unit-step growing balls on a small line space."""
    if not isinstance(X.carrier, QLine):
        raise UnsupportedPresentation("localization is provided on the line")
    balls = GrowBalls(1)
    for n in range(balls.n0, balls.n0 + 3):
        if not is_open(X, balls.member(n)):
            raise BallNotOpen(sx.render(balls.member(n)))
    base = FamilyExpr(X.carrier, (), (balls,))
    name = X.name + "_loc" if X.name else ""
    return GtsPresentation(X.carrier, X.opens, LocallyEssFin(base), X.support, name)
