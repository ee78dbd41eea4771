"""Randomized and exhaustive axiom auditing for presentations.

The auditor draws opens and families from a seeded grammar bounded by the
documented limits (endpoint numerators/denominators up to 32, families of
at most 6 finite members and 2 streams) and checks the axioms: openness of
finite unions/intersections, admissibility of finite open families, open
unions of admissible families, stability, transitivity, saturation, and
regularity.  Finite presentations small enough are checked exhaustively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .carriers import FiniteEnum, NatFC, Product, QLine
from .errors import NonFiniteCarrier, UnsupportedPresentation
from .families import (
    FamilyExpr,
    clip_family,
    family_union,
    refines,
    union_families,
)
from .presentation import (
    AllCanonicalOpen,
    AllSets,
    ExplicitList,
    FiniteOrWhole,
    GluedOpens,
    GtsPresentation,
    ProductOpens,
    TraceOpens,
    _enumerate_subsets,
    enumerate_opens,
    is_admissible,
    is_open,
)
from . import setexpr as sx
from .setexpr import SetExpr
from .streams import GrowBalls, InitialSegments, ShrinkIntervals, Singletons

AXIOMS = (
    "empty_whole_open",
    "binary_ops_open",
    "finite_families_admissible",
    "admissible_union_open",
    "stability",
    "transitivity",
    "saturation",
    "regularity",
)


@dataclass(frozen=True)
class Violation:
    axiom: str
    description: str
    witness: tuple  # rendered instance parts, replayable via the raw objects
    raw: tuple = field(compare=False, default=())


@dataclass
class AuditReport:
    seed: int
    budget: int
    exhaustive: bool = False
    pass_counts: dict = field(default_factory=lambda: {a: 0 for a in AXIOMS})
    violations: list = field(default_factory=list)
    used: int = 0

    def ok(self) -> bool:
        return not self.violations

    def record(self, axiom: str, ok: bool, description: str = "", raw: tuple = ()):
        self.used += 1
        if ok:
            self.pass_counts[axiom] += 1
        else:
            witness = tuple(_render_part(p) for p in raw)
            self.violations.append(Violation(axiom, description, witness, raw))


def _render_part(p):
    if isinstance(p, SetExpr):
        return sx.render(p)
    if isinstance(p, FamilyExpr):
        return p.render()
    return str(p)


# -- seeded instance grammar ----------------------------------------------

MAX_NUM = 32


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-MAX_NUM, MAX_NUM), rng.randint(1, MAX_NUM))


def random_open(X: GtsPresentation, rng: random.Random) -> SetExpr:
    op = X.opens
    c = X.carrier
    if isinstance(op, ExplicitList):
        return rng.choice(op.sets)
    if isinstance(op, AllCanonicalOpen):
        out = sx.empty(c)
        for _ in range(rng.randint(0, 3)):
            a, b = sorted((_rand_fraction(rng), _rand_fraction(rng)))
            if a < b:
                out = sx.union(out, sx.interval(a, b))
        return out
    if isinstance(op, FiniteOrWhole):
        if rng.random() < 0.15:
            return sx.whole(c)
        return sx.nat_finite(rng.sample(range(24), rng.randint(0, 5)))
    if isinstance(op, AllSets):
        return sx.intersect(_random_set(c, rng), X.support)
    if isinstance(op, ProductOpens):
        out = sx.empty(c)
        for _ in range(rng.randint(0, 2)):
            out = sx.union(out, sx.box(random_open(op.left, rng),
                                       random_open(op.right, rng)))
        return out
    if isinstance(op, TraceOpens):
        return sx.intersect(random_open(op.parent, rng), op.window)
    if isinstance(op, GluedOpens):
        out = sx.empty(c)
        for P in op.pieces:
            if rng.random() < 0.7:
                out = sx.union(out, sx.intersect(random_open(P, rng), P.support))
        return out
    raise ValueError("no generator for this opens description")


def _random_set(c, rng: random.Random) -> SetExpr:
    if isinstance(c, FiniteEnum):
        names = [x for x in c.elements if rng.random() < 0.5]
        return sx.atoms(c, names)
    if isinstance(c, NatFC):
        body = rng.sample(range(24), rng.randint(0, 5))
        return sx.nat_cofinite(body) if rng.random() < 0.3 else sx.nat_finite(body)
    if isinstance(c, QLine):
        out = sx.empty(c)
        for _ in range(rng.randint(0, 3)):
            a, b = sorted((_rand_fraction(rng), _rand_fraction(rng)))
            out = sx.union(out, sx.interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
        return out
    if isinstance(c, Product):
        out = sx.empty(c)
        for _ in range(rng.randint(0, 2)):
            out = sx.union(out, sx.box(_random_set(c.left, rng), _random_set(c.right, rng)))
        return out
    raise ValueError("no set generator for this carrier")


def _random_stream(X: GtsPresentation, rng: random.Random):
    c = X.carrier
    if isinstance(c, QLine):
        if rng.random() < 0.5:
            a = rng.randint(-8, 6)
            b = a + rng.randint(1, 6)
            return ShrinkIntervals(a, b, int(rng.random() < 0.8), 1, 3)
        return GrowBalls(rng.randint(1, 3))
    if isinstance(c, NatFC):
        if rng.random() < 0.5:
            return InitialSegments(rng.randint(0, 4))
        return Singletons()
    return None


def random_family(X: GtsPresentation, rng: random.Random,
                  allow_streams: bool = True) -> FamilyExpr:
    fin = tuple(random_open(X, rng) for _ in range(rng.randint(1, 6)))
    streams = []
    if allow_streams and not isinstance(X.carrier, (FiniteEnum, Product)):
        for _ in range(rng.randint(0, 2)):
            s = _random_stream(X, rng)
            if s is not None and is_open(X, s.member(s.n0)):
                streams.append(s)
    return FamilyExpr(X.carrier, fin, tuple(streams))


def random_admissible_family(X: GtsPresentation, rng: random.Random) -> FamilyExpr:
    """Up to eight draws, the first four with streams, then one open."""
    for attempt in range(8):
        F = random_family(X, rng, allow_streams=attempt < 4)
        if is_admissible(X, F).yes:
            return F
    # finite open families are admissible under every shipped policy
    return FamilyExpr(X.carrier, (random_open(X, rng),))


# -- per-axiom instance checks --------------------------------------------

def _check_binary_ops(X, rng, rep):
    A, B = random_open(X, rng), random_open(X, rng)
    u, i = sx.union(A, B), sx.intersect(A, B)
    ok = is_open(X, u) and is_open(X, i)
    rep.record("binary_ops_open", ok, "union or intersection of opens not open", (A, B))


def _check_finite_admissible(X, rng, rep):
    F = FamilyExpr(X.carrier, tuple(random_open(X, rng) for _ in range(rng.randint(1, 4))))
    ok = is_admissible(X, F).yes
    rep.record("finite_families_admissible", ok, "finite open family not admissible", (F,))


def _check_union_open(X, rng, rep):
    F = random_admissible_family(X, rng)
    ok = is_open(X, family_union(F))
    rep.record("admissible_union_open", ok, "union of admissible family not open", (F,))


def _check_stability(X, rng, rep):
    F = random_admissible_family(X, rng)
    V = random_open(X, rng)
    G = clip_family(F, V)
    ok = is_admissible(X, G).yes
    rep.record("stability", ok, "clipped admissible family not admissible", (F, V))


def _check_transitivity(X, rng, rep):
    F = random_admissible_family(X, rng)
    if F.streams:
        F = FamilyExpr(X.carrier, F.finite_part or (family_union(F),))
        if not is_admissible(X, F).yes:
            return
    parts = []
    for U in F.finite_part:
        cover = _admissible_cover_of(X, U, rng)
        if cover is None:
            return
        parts.append(cover)
    big = FamilyExpr(X.carrier, ())
    for G in parts:
        big = union_families(big, G)
    ok = is_admissible(X, big).yes
    rep.record("transitivity", ok, "union of member covers not admissible", (F, big))


def _admissible_cover_of(X, U, rng) -> FamilyExpr | None:
    """An admissible family with union exactly U."""
    V = sx.intersect(random_open(X, rng), U)
    G = FamilyExpr(X.carrier, (U, V) if not V.is_empty() else (U,))
    return G if is_admissible(X, G).yes else None


def _check_saturation(X, rng, rep):
    F = random_admissible_family(X, rng)
    U = family_union(F)
    coarse_parts = list(F.finite_part) + [U] if is_open(X, U) else list(F.finite_part)
    G = FamilyExpr(X.carrier, tuple(coarse_parts), F.streams)
    if not refines(F, G):
        rep.record("saturation", False, "coarsening construction failed refinement", (F, G))
        return
    ok = is_admissible(X, G).yes
    rep.record("saturation", ok, "coarsening of admissible family not admissible", (F, G))


def _check_regularity(X, rng, rep):
    F = random_admissible_family(X, rng)
    pool = list(F.finite_part)
    W = sx.empty(X.carrier)
    for A in pool:
        if rng.random() < 0.5:
            W = sx.union(W, A)
    # W is a finite union of members, so all traces on members are open
    traces_open = all(is_open(X, sx.intersect(W, A)) for A in F.sample_members(2))
    if not traces_open:
        return
    ok = is_open(X, sx.intersect(W, family_union(F)))
    rep.record("regularity", ok, "regular subset of the union not open", (F, W))


RANDOM_CHECKS = (
    _check_binary_ops,
    _check_finite_admissible,
    _check_union_open,
    _check_stability,
    _check_transitivity,
    _check_saturation,
    _check_regularity,
)


# -- drivers --------------------------------------------------------------

def audit_axioms(X: GtsPresentation, budget: int = 1000, seed: int = 0) -> AuditReport:
    if budget < 1:
        raise ValueError("budget must be at least 1")
    try:
        opens = enumerate_opens(X)
        small_enough = len(opens) <= 8
    except (NonFiniteCarrier, UnsupportedPresentation):
        opens, small_enough = None, False
    if small_enough:
        return _audit_exhaustive(X, opens, seed, budget)
    rep = AuditReport(seed=seed, budget=budget)
    rng = random.Random(seed)
    rep.record("empty_whole_open",
               is_open(X, sx.empty(X.carrier)) and is_open(X, X.support),
               "empty set or support not open", (X.support,))
    while rep.used < budget:
        check = RANDOM_CHECKS[rep.used % len(RANDOM_CHECKS)]
        check(X, rng, rep)
    return rep


def _all_subfamilies(opens, cap):
    for k in range(1, cap + 1):
        for c in combinations(opens, k):
            yield c


def _audit_exhaustive(X: GtsPresentation, opens, seed: int, budget: int) -> AuditReport:
    rep = AuditReport(seed=seed, budget=budget, exhaustive=True)
    rep.record("empty_whole_open",
               is_open(X, sx.empty(X.carrier)) and is_open(X, X.support),
               "empty set or support not open", (X.support,))
    for A, B in combinations(opens, 2):
        ok = is_open(X, sx.union(A, B)) and is_open(X, sx.intersect(A, B))
        rep.record("binary_ops_open", ok, "union or intersection not open", (A, B))
    families = [FamilyExpr(X.carrier, c) for c in _all_subfamilies(opens, min(len(opens), 4))]
    adm_flags = [is_admissible(X, F).yes for F in families]
    admissible = [F for F, ok in zip(families, adm_flags) if ok]
    unions = {id(F): family_union(F) for F in families}
    # refinement requires equal unions, so only same-union pairs can matter
    by_union = {}
    for F in families:
        by_union.setdefault(unions[id(F)], []).append(F)
    adm_ids = {id(F) for F in admissible}
    for F, ok in zip(families, adm_flags):
        rep.record("finite_families_admissible", ok,
                   "finite open family not admissible", (F,))
    for F in admissible:
        rep.record("admissible_union_open", is_open(X, unions[id(F)]),
                   "union of admissible family not open", (F,))
        for V in opens:
            rep.record("stability", is_admissible(X, clip_family(F, V)).yes,
                       "clipped family not admissible", (F, V))
        for G in by_union[unions[id(F)]]:
            if refines(F, G):
                rep.record("saturation", id(G) in adm_ids,
                           "coarsening not admissible", (F, G))
    cover_of = {}
    for G in admissible:
        cover_of.setdefault(unions[id(G)], G)
    # transitivity: member covers drawn from all families with matching union
    for F in admissible[: max(1, budget // 50)]:
        pieces = []
        for U in F.finite_part:
            cov = cover_of.get(U)
            if cov is None:
                pieces = None
                break
            pieces.append(cov)
        if pieces is None:
            continue
        big = FamilyExpr(X.carrier, ())
        for G in pieces:
            big = union_families(big, G)
        rep.record("transitivity", is_admissible(X, big).yes,
                   "union of member covers not admissible", (F, big))
    # regularity: all subsets W of the support when enumerable, else
    # weakly open candidates built from the opens
    try:
        subsets = _enumerate_subsets(X.support)
    except NonFiniteCarrier:
        subsets = [sx.union(A, B) for A, B in combinations(opens, 2)]
    open_set = set(opens)
    for F in admissible:
        for W in subsets:
            if all(sx.intersect(W, A) in open_set for A in F.finite_part):
                rep.record("regularity",
                           sx.intersect(W, unions[id(F)]) in open_set,
                           "regular subset not open", (F, W))
    return rep


def recheck(X: GtsPresentation, v: Violation) -> bool:
    """Deterministically reconfirm a violation from its raw witness data."""
    raw = v.raw
    if v.axiom == "binary_ops_open":
        A, B = raw
        return not (is_open(X, sx.union(A, B)) and is_open(X, sx.intersect(A, B)))
    if v.axiom == "finite_families_admissible":
        return not is_admissible(X, raw[0]).yes
    if v.axiom == "admissible_union_open":
        return not is_open(X, family_union(raw[0]))
    if v.axiom == "stability":
        F, V = raw
        return not is_admissible(X, clip_family(F, V)).yes
    if v.axiom in ("transitivity", "saturation"):
        return not is_admissible(X, raw[1]).yes
    if v.axiom == "regularity":
        F, W = raw
        return not is_open(X, sx.intersect(W, family_union(F)))
    if v.axiom == "empty_whole_open":
        return not (is_open(X, sx.empty(X.carrier)) and is_open(X, raw[0]))
    return False
