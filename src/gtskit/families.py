"""Finitely-presented open families and their exact decision procedures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .carriers import Carrier
from .errors import CarrierMismatch
from . import setexpr as sx
from .setexpr import SetExpr
from .streams import Stream, clip_stream, endpoint_pairs, merge_stream
from .verdict import Verdict


@dataclass(frozen=True)
class FamilyExpr:
    carrier: Carrier
    finite_part: tuple[SetExpr, ...] = ()
    streams: tuple[Stream, ...] = ()
    # family_union's answer, once it is asked
    _union: SetExpr = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "finite_part", tuple(self.finite_part))
        object.__setattr__(self, "streams", tuple(self.streams))
        for m in self.finite_part:
            if m.carrier != self.carrier:
                raise CarrierMismatch("family member on the wrong carrier")
        for s in self.streams:
            if s.carrier != self.carrier:
                raise CarrierMismatch("stream on the wrong carrier")

    def sample_members(self, stages: int = 3) -> list[SetExpr]:
        out = list(self.finite_part)
        for s in self.streams:
            for n in range(s.n0, s.n0 + stages):
                out.append(s.member(n))
        return out

    def render(self) -> str:
        parts = ["{%s}" % ", ".join(sx.render(m) for m in self.finite_part)]
        for s in self.streams:
            parts.append("stream " + s.render())
        return " + ".join(parts)


def family_union(F: FamilyExpr) -> SetExpr:
    if F._union is None:
        u = sx.union_all(F.carrier, list(F.finite_part) + [s.union() for s in F.streams])
        object.__setattr__(F, "_union", u)
    return F._union


def show(obj) -> str:
    """A witness as reports print it: sets and families rendered, tuples and
    lists part by part in parentheses, anything else by str."""
    if isinstance(obj, SetExpr):
        return sx.render(obj)
    if isinstance(obj, FamilyExpr):
        return obj.render()
    if isinstance(obj, (tuple, list)):
        return "(" + ", ".join(show(x) for x in obj) + ")"
    return str(obj)


def clip_family(F: FamilyExpr, V: SetExpr) -> FamilyExpr:
    """The family of member-wise intersections with a fixed set."""
    return FamilyExpr(
        F.carrier,
        tuple(sx.intersect(m, V) for m in F.finite_part),
        tuple(clip_stream(s, V) for s in F.streams),
    )


def merge_family(F: FamilyExpr, V: SetExpr) -> FamilyExpr:
    """The family of member-wise unions with a fixed set."""
    return FamilyExpr(
        F.carrier,
        tuple(sx.union(m, V) for m in F.finite_part),
        tuple(merge_stream(s, V) for s in F.streams),
    )


def union_families(F: FamilyExpr, G: FamilyExpr) -> FamilyExpr:
    if F.carrier != G.carrier:
        raise CarrierMismatch("families on different carriers")
    return FamilyExpr(F.carrier, F.finite_part + G.finite_part, F.streams + G.streams)


def pointwise_union(F: FamilyExpr, G: FamilyExpr) -> FamilyExpr:
    """{A u B : A in F, B in G}; at most one side may carry streams."""
    return _pointwise(F, G, merge_family, sx.union)


def pointwise_intersection(F: FamilyExpr, G: FamilyExpr) -> FamilyExpr:
    """{A n B : A in F, B in G}; at most one side may carry streams."""
    return _pointwise(F, G, clip_family, sx.intersect)


def _pointwise(F, G, one_sided, op):
    if F.carrier != G.carrier:
        raise CarrierMismatch("families on different carriers")
    if F.streams and G.streams:
        raise ValueError("pointwise operation needs one stream-free side")
    if G.streams:
        F, G = G, F
    parts: list[SetExpr] = []
    streams: list[Stream] = []
    for b in G.finite_part:
        H = one_sided(F, b)
        parts.extend(H.finite_part)
        streams.extend(H.streams)
    return FamilyExpr(F.carrier, tuple(parts), tuple(streams))


# -- essential finiteness -------------------------------------------------

@dataclass(frozen=True)
class WitnessMember:
    source: str  # "finite" or the stream render
    index: int
    stage: int | None
    set: SetExpr


def _endpoint_pool(sets: list[SetExpr], streams: list[Stream]) -> set[tuple[int, int]]:
    """The finite endpoints of the sets and of each stream's union, and the
    streams' critical endpoints, as pairs (numerator, denominator) in lowest
    terms: one pair per value."""
    pool: set[tuple[int, int]] = set()
    for S in sets:
        pool |= endpoint_pairs(S)
    for s in streams:
        pool.update((v._numerator, v._denominator) for v in s.critical_endpoints())
        pool |= endpoint_pairs(s.union())
    return pool


def large_stage(streams: list[Stream], sets: list[SetExpr]) -> int:
    """A stage past which monotone coverage questions stabilize.

    All residual behavior of monotone streams happens within a shrinking
    band around finitely many critical endpoints; once the band is thinner
    than every positive gap between relevant endpoints (and the growing
    streams reach past every relevant value), coverage at the returned
    stage equals coverage in the limit.

    The band is half the least gap, at most 1/2, and the reach is one past
    the largest absolute endpoint.  Both are read over one common
    denominator, the least common multiple L of the endpoints' denominators:
    each endpoint v is the integer v*L, so the gaps and the largest absolute
    value are integers, and only the two results are divided by L.
    """
    pool = _endpoint_pool(sets, streams)
    common = math.lcm(*(d for _, d in pool))
    scaled = sorted(n * (common // d) for n, d in pool)
    gap = min((q - p for p, q in zip(scaled, scaled[1:])), default=common)
    eps = Fraction(min(gap, common), 2 * common)
    radius = Fraction(max(map(abs, scaled), default=0) + common, common)
    stage = 2
    for s in streams:
        stage = max(stage, s.n0, s.stage_sufficient(eps, radius))
    return stage + 1


def first_stage(holds, lo: int, hi: int) -> int | None:
    """The least n in [lo, hi] with holds(n), by bisection; None where
    holds(hi) fails.  holds must be monotone: true at n, true past n."""
    if not holds(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _coverage_at(c: Carrier, streams: list[Stream], stage: int) -> SetExpr:
    return sx.union_all(c, [s.member(max(stage, s.n0)) for s in streams])


def essentially_finite_on(F: FamilyExpr, K: SetExpr) -> Verdict:
    """Does a finite subfamily of F cover K n union(F)?"""
    if K.carrier != F.carrier:
        raise CarrierMismatch("K on the wrong carrier")
    target = sx.intersect(K, family_union(F))
    witness: list[WitnessMember] = []
    residual = target
    # prefer finite members, in list order
    for i, m in enumerate(F.finite_part):
        if residual.is_empty():
            break
        if not sx.intersect(m, residual).is_empty():
            witness.append(WitnessMember("finite", i, None, m))
            residual = sx.minus(residual, m)
    if residual.is_empty():
        return Verdict("Yes", "covered by finite part", tuple(witness))

    monotone = [s for s in F.streams if s.monotone]
    pointwise = [s for s in F.streams if not s.monotone]
    pw_union = sx.union_all(F.carrier, [s.union() for s in pointwise])

    def absorbable(rem: SetExpr) -> bool:
        # pointwise streams can only pick up finitely many points
        if rem.is_empty():
            return True
        return bool(pointwise) and rem.is_finite_pointset() and sx.is_subset(rem, pw_union)

    if monotone:
        cap = large_stage(monotone, [residual] + list(F.finite_part))
        leftover = lambda n: sx.minus(residual, _coverage_at(F.carrier, monotone, n))
        stage = first_stage(lambda n: absorbable(leftover(n)), 1, cap)
        if stage is None:
            return Verdict("No", "residual approaches a stream limit")
        # each monotone member at the stage, built once: a member meets the
        # covered part of the residual iff it meets the residual
        members = [(j, s, s.member(max(stage, s.n0)))
                   for j, s in enumerate(F.streams) if s.monotone]
        for j, s, m in members:
            if not sx.intersect(m, residual).is_empty():
                witness.append(WitnessMember(s.render(), j, max(stage, s.n0), m))
        residual = sx.minus(residual, sx.union_all(F.carrier, [m for _, _, m in members]))
    elif not absorbable(residual):
        if pointwise:
            return Verdict("No", "infinite residual against pointwise streams")
        return Verdict("No", "residual not covered by any finite subfamily")

    if not residual.is_empty():
        for j, s in enumerate(F.streams):
            if s.monotone or residual.is_empty():
                continue
            for x in residual.finite_points():
                x = int(x)
                idx = s.index_of(x)
                if idx is not None:
                    witness.append(WitnessMember(s.render(), j, idx, s.member(idx)))
            residual = sx.minus(residual, s.union())
        if not residual.is_empty():
            return Verdict("No", "residual outside all members")
    return Verdict("Yes", "finite subfamily covers the target", tuple(witness))


# -- refinement -----------------------------------------------------------

def _contained_in_some_member(A: SetExpr, G: FamilyExpr) -> bool:
    if A.is_empty():
        return True
    for B in G.finite_part:
        if sx.is_subset(A, B):
            return True
    for s in G.streams:
        if not s.monotone:
            pts = A.finite_points() if A.is_finite_pointset() else None
            if pts is not None and len(pts) == 1 and sx.is_subset(A, s.union()):
                return True
            continue
        stage = large_stage([s], [A])
        if sx.is_subset(A, s.member(stage)):
            return True
    return False


def _stream_tail_contained(f: Stream, G: FamilyExpr) -> bool:
    """Every member of monotone stream f sits inside some member of G.

    f's members increase, so the member at a stage past which every
    coverage question against G stabilizes decides all of them.
    """
    if f in G.streams:
        return True
    monotone = [g for g in G.streams if g.monotone]
    stage = large_stage([f] + monotone, list(G.finite_part))
    return _contained_in_some_member(f.member(stage), G)


def refines(F: FamilyExpr, G: FamilyExpr) -> bool:
    """Same union, and every member of F lies inside some member of G."""
    if F.carrier != G.carrier:
        raise CarrierMismatch("families on different carriers")
    if family_union(F) != family_union(G):
        return False
    for A in F.finite_part:
        if not _contained_in_some_member(A, G):
            return False
    for s in F.streams:
        if not s.monotone:
            # singleton members: each point of the union lies in some member
            # of G because the unions coincide
            continue
        if not _stream_tail_contained(s, G):
            return False
    return True
