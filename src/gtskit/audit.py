"""Randomized and exhaustive axiom auditing for presentations.

The auditor draws opens and families from a seeded grammar and checks the
axioms: openness of finite unions/intersections, admissibility of finite
open families, open unions of admissible families, stability,
transitivity, saturation, and regularity.  The grammar is spread over its
owners: each opens description draws its own opens (``Opens.draw`` in
``presentation``) and each carrier's algebra its own sets
(``setexpr.random_set``, endpoint numerators and denominators up to 32);
this module draws the streams and the families, of at most 6 finite
members and 2 streams.  Presentations with at most 8 opens are checked
exhaustively, on bitmasks: a set is the mask of the cells it holds (the
support's points when the support is finite, else the pieces the opens cut
it into), a stream-free family of opens is admissible exactly when every
member is open, since its finite part covers its union under every policy,
and each axiom's instances are counted once from the masks; only the
families with a failing instance are then visited, in the order they are
listed, to record those failures.  A list of opens counts
as listed, one that skipped validation too; on a finite support other opens
are counted as the unions of least opens grow, and past 8 drawn at random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import combinations
from operator import and_

from .carriers import NatFC, QLine
from .errors import NonFiniteCarrier
from .families import (
    FamilyExpr,
    clip_family,
    family_union,
    refines,
    show,
    union_families,
)
from .presentation import (
    GtsPresentation,
    enumerate_opens,
    from_points,
    is_admissible,
    is_open,
    least_opens,
    points_of,
    unions_up_to,
)
from . import setexpr as sx
from .setexpr import SetExpr
from .streams import GrowBalls, InitialSegments, ShrinkIntervals, Singletons

# each axiom as a predicate of a presentation and the parts of one instance;
# the random checks and recheck judge every instance through it
HOLDS = {
    "empty_whole_open": lambda X, S: is_open(X, sx.empty(X.carrier)) and is_open(X, S),
    "binary_ops_open":
        lambda X, A, B: is_open(X, sx.union(A, B)) and is_open(X, sx.intersect(A, B)),
    "finite_families_admissible": lambda X, F: is_admissible(X, F).yes,
    "admissible_union_open": lambda X, F: is_open(X, family_union(F)),
    "stability": lambda X, F, V: is_admissible(X, clip_family(F, V)).yes,
    "transitivity": lambda X, F, G: is_admissible(X, G).yes,
    "saturation": lambda X, F, G: refines(F, G) and is_admissible(X, G).yes,
    "regularity": lambda X, F, W: is_open(X, sx.intersect(W, family_union(F))),
}
AXIOMS = tuple(HOLDS)


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

    def record(self, axiom: str, ok: bool, description: str, raw: tuple):
        self.tally(axiom, 1, description, [] if ok else [raw])

    def tally(self, axiom: str, instances: int, description: str, failed: list):
        """Count instances of axiom at once; those failed, given by their parts, are violations."""
        self.used += instances
        self.pass_counts[axiom] += instances - len(failed)
        self.violations += [Violation(axiom, description, tuple(map(show, raw)), raw)
                            for raw in failed]


# -- seeded instance grammar ----------------------------------------------

def _line_stream(rng: random.Random):
    if rng.random() < 0.5:
        a = rng.randint(-8, 6)
        b = a + rng.randint(1, 6)
        return ShrinkIntervals(a, b, int(rng.random() < 0.8), 1, 3)
    return GrowBalls(rng.randint(1, 3))


def _nat_stream(rng: random.Random):
    if rng.random() < 0.5:
        return InitialSegments(rng.randint(0, 4))
    return Singletons()


# the carrier classes that have a stream grammar
_RANDOM_STREAM = {QLine: _line_stream, NatFC: _nat_stream}


def random_family(X: GtsPresentation, rng: random.Random,
                  allow_streams: bool = True) -> FamilyExpr:
    fin = tuple(X.opens.draw(X, rng) for _ in range(rng.randint(1, 6)))
    streams = []
    stream = _RANDOM_STREAM.get(type(X.carrier))
    if allow_streams and stream is not None:
        for _ in range(rng.randint(0, 2)):
            s = stream(rng)
            if is_open(X, s.member(s.n0)):
                streams.append(s)
    return FamilyExpr(X.carrier, fin, tuple(streams))


def random_admissible_family(X: GtsPresentation, rng: random.Random) -> FamilyExpr:
    """Up to eight draws, the first four with streams, then one open."""
    for attempt in range(8):
        F = random_family(X, rng, allow_streams=attempt < 4)
        if is_admissible(X, F).yes:
            return F
    # finite open families are admissible under every shipped policy
    return FamilyExpr(X.carrier, (X.opens.draw(X, rng),))


# -- per-axiom instance draws ---------------------------------------------
#
# Each draws one instance: its axiom, what a violation means and the parts
# HOLDS judges; None where the draw found no instance.

def _check_binary_ops(X, rng):
    return ("binary_ops_open", "union or intersection of opens not open",
            (X.opens.draw(X, rng), X.opens.draw(X, rng)))


def _check_finite_admissible(X, rng):
    F = FamilyExpr(X.carrier, tuple(X.opens.draw(X, rng) for _ in range(rng.randint(1, 4))))
    return "finite_families_admissible", "finite open family not admissible", (F,)


def _check_union_open(X, rng):
    F = random_admissible_family(X, rng)
    return "admissible_union_open", "union of admissible family not open", (F,)


def _check_stability(X, rng):
    F = random_admissible_family(X, rng)
    V = X.opens.draw(X, rng)
    return "stability", "clipped admissible family not admissible", (F, V)


def _check_transitivity(X, rng):
    F = random_admissible_family(X, rng)
    if F.streams:
        F = FamilyExpr(X.carrier, F.finite_part or (family_union(F),))
        if not is_admissible(X, F).yes:
            return None
    parts = []
    for U in F.finite_part:
        cover = _admissible_cover_of(X, U, rng)
        if cover is None:
            return None
        parts.append(cover)
    big = FamilyExpr(X.carrier, ())
    for G in parts:
        big = union_families(big, G)
    return "transitivity", "union of member covers not admissible", (F, big)


def _admissible_cover_of(X, U, rng) -> FamilyExpr | None:
    """An admissible family with union exactly U."""
    V = sx.intersect(X.opens.draw(X, rng), U)
    G = FamilyExpr(X.carrier, (U, V) if not V.is_empty() else (U,))
    return G if is_admissible(X, G).yes else None


def _check_saturation(X, rng):
    F = random_admissible_family(X, rng)
    U = family_union(F)
    coarse_parts = list(F.finite_part) + [U] if is_open(X, U) else list(F.finite_part)
    G = FamilyExpr(X.carrier, tuple(coarse_parts), F.streams)
    return "saturation", "coarsening of admissible family not admissible", (F, G)


def _check_regularity(X, rng):
    F = random_admissible_family(X, rng)
    W = sx.union_all(X.carrier, [A for A in F.finite_part if rng.random() < 0.5])
    # W is a finite union of members, so all traces on members are open
    if not all(is_open(X, sx.intersect(W, A)) for A in F.sample_members(2)):
        return None
    return "regularity", "regular subset of the union not open", (F, W)


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
    opens = _few_opens(X)
    rep = AuditReport(seed=seed, budget=budget, exhaustive=opens is not None)
    rep.record("empty_whole_open", HOLDS["empty_whole_open"](X, X.support),
               "empty set or support not open", (X.support,))
    if opens is not None:
        _audit_exhaustive(X, opens, rep)
        return rep
    rng = random.Random(seed)
    while rep.used < budget:
        instance = RANDOM_CHECKS[rep.used % len(RANDOM_CHECKS)](X, rng)
        if instance is not None:
            axiom, description, raw = instance
            rep.record(axiom, HOLDS[axiom](X, *raw), description, raw)
    return rep


def _few_opens(X: GtsPresentation):
    """X's opens if it has at most 8 of them, else None; see the module docstring."""
    if X.support.is_finite_pointset() and not X.opens.finitely_many \
            and unions_up_to(least_opens(X)[1], 8) is None:
        return None
    try:
        opens = enumerate_opens(X)
    except NonFiniteCarrier:
        return None
    return opens if len(opens) <= 8 else None


def _cells(X: GtsPresentation, opens) -> list[SetExpr]:
    """Pairwise disjoint non-empty sets covering the support and every open.

    The support's points come first, in points_of order, when the support
    is finite; otherwise the support is cut by every open.  What the opens
    hold outside the support is cut the same way, so each open and each
    union or intersection of them is exactly a union of cells.
    """
    c = X.carrier
    outside = sx.minus(sx.union_all(c, opens), X.support)
    if X.support.is_finite_pointset():
        cells, parts = [from_points(c, [p]) for p in points_of(X.support)], [outside]
    else:
        cells, parts = [], [X.support, outside]
    for O in opens:
        parts = [q for p in parts for q in (sx.intersect(p, O), sx.minus(p, O))
                 if not q.is_empty()]
    return cells + parts


def _bits(m: int) -> list[int]:
    return [i for i, b in enumerate(bin(m)[:1:-1]) if b == "1"]


def _mask(flags) -> int:
    """The bitmask of the true flags' positions, in time linear in their number."""
    return int("".join("01"[bool(b)] for b in flags)[::-1] or "0", 2)


def _audit_exhaustive(X: GtsPresentation, opens, rep: AuditReport):
    """Every instance of the axioms over the listed opens, on bitmasks.

    A family of opens is the mask of its members' indices in the list.  Each
    axiom's instances are tallied at once; then the families with a failing
    instance are visited in list order, once for open unions, stability and
    saturation, in that order within a family, and once more for regularity.
    So only the failures are built, and they replay through HOLDS.
    """
    c = X.carrier
    cells = _cells(X, opens)
    om = [sum(1 << i for i, C in enumerate(cells) if not sx.intersect(C, O).is_empty())
          for O in opens]

    def decode(m: int) -> SetExpr:
        return sx.union_all(c, [cells[i] for i in _bits(m)])

    @cache
    def open_mask(m: int) -> bool:
        return is_open(X, decode(m))

    def fam(f: int) -> FamilyExpr:
        return FamilyExpr(c, tuple(opens[i] for i in _bits(f)))

    idx = range(len(opens))
    pairs = list(combinations(idx, 2))
    rep.tally("binary_ops_open", len(pairs), "union or intersection not open",
              [(opens[i], opens[j]) for i, j in pairs
               if not (open_mask(om[i] | om[j]) and open_mask(om[i] & om[j]))])
    families = [sum(1 << i for i in ix)
                for k in range(1, min(len(opens), 4) + 1) for ix in combinations(idx, k)]
    members_open = sum(1 << i for i in idx if open_mask(om[i]))
    admissible = [f for f in families if not f & ~members_open]
    rep.tally("finite_families_admissible", len(families), "finite open family not admissible",
              [(fam(f),) for f in families if f & ~members_open])
    # regularity: all subsets W of the support when enumerable, else
    # weakly open candidates built from the opens
    if X.support.is_finite_pointset():
        n = len(points_of(X.support))
        subsets = [sum(1 << i for i in ix)
                   for k in range(n + 1) for ix in combinations(range(n), k)]
    else:
        subsets = [om[i] | om[j] for i, j in combinations(idx, 2)]
    listed = set(om)
    # masks over the positions in subsets: traces[i] of the W with an open
    # trace on the i-th open, inside[f] on all of f's, open_meet[u] on union u
    traces = [_mask(w & om[i] in listed for w in subsets) for i in idx]
    # refines(F, G) for one union: F's indices, or its down set, lie in the
    # opens below G's members.  union, down and inside extend f & (f - 1)'s.
    below = [sum(1 << j for j in idx if not om[j] & ~om[i]) for i in idx]
    union, down, inside, by_union = {0: 0}, {0: 0}, {0: (1 << len(subsets)) - 1}, {}
    for f in families:
        rest, i = f & (f - 1), (f & -f).bit_length() - 1
        union[f], down[f] = union[rest] | om[i], down[rest] | below[i]
        inside[f] = inside[rest] & traces[i]
        by_union.setdefault(union[f], []).append(f)
    # clipped[j]: the members whose trace on the j-th open is open
    clipped = [sum(1 << i for i in idx if open_mask(om[i] & om[j])) for j in idx]
    coarser = {d: [g for g in by_union[u] if not d & ~down[g]]
               for d, u in {down[f]: union[f] for f in admissible}.items()}
    spoilt = {d: [g for g in gs if g & ~members_open] for d, gs in coarser.items()}
    # the members whose trace on every open is open
    stable = reduce(and_, clipped, -1)
    rep.tally("admissible_union_open", len(admissible), "", [])
    rep.tally("stability", len(admissible) * len(opens), "", [])
    rep.tally("saturation", sum(len(coarser[down[f]]) for f in admissible), "", [])
    for f in admissible:
        if open_mask(union[f]) and not f & ~stable and not spoilt[down[f]]:
            continue
        F = fam(f)
        rep.tally("admissible_union_open", 0, "union of admissible family not open",
                  [] if open_mask(union[f]) else [(F,)])
        rep.tally("stability", 0, "clipped family not admissible",
                  [(F, opens[j]) for j in idx if f & ~clipped[j]])
        rep.tally("saturation", 0, "coarsening not admissible",
                  [(F, fam(g)) for g in spoilt[down[f]]])
    covered = {union[g] for g in admissible}
    # transitivity: where every member has an admissible cover, the union of
    # the covers has only open members, so it is admissible
    has_cover = sum(1 << i for i in idx if om[i] in covered)
    rep.tally("transitivity", sum(not f & ~has_cover for f in admissible), "", [])
    open_meet = {u: _mask(w & u in listed for w in subsets) for u in set(union.values())}
    rep.tally("regularity", sum(inside[f].bit_count() for f in admissible), "", [])
    for f in admissible:
        if bad := inside[f] & ~open_meet[union[f]]:
            rep.tally("regularity", 0, "regular subset not open",
                      [(fam(f), decode(subsets[s])) for s in _bits(bad)])


def recheck(X: GtsPresentation, v: Violation) -> bool:
    """Deterministically reconfirm a violation from its raw witness data."""
    return not HOLDS[v.axiom](X, *v.raw)
