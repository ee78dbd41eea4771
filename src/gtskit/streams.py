"""Parametric streams: the only infinite-family mechanism.

Every stream is either *monotone* (members increase with the index, so the
union is approached from inside at a known rate) or *pointwise* (members are
pairwise disjoint finite sets).  Both shapes make essential-finiteness and
refinement questions exactly decidable via a large-enough-stage argument:
all residual phenomena happen within a computable distance of finitely many
critical endpoints.

The line streams compute each member from integers.  An endpoint such as
a + rate/n is one ``Fraction(num, den)`` built from the stored
``_numerator`` and ``_denominator`` of a and the rate, with no
``Fraction`` operator, and the member is its canonical form written out:
one open interval where lo < hi, else the empty set.  ``stage_sufficient``
takes its floors over the same integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .carriers import NatFC, QLine
from . import setexpr as sx
from .setexpr import NEG_INF, POS_INF, Interval, SetExpr


class Stream:
    """Common stream interface."""

    carrier = None
    n0: int = 0
    monotone: bool = True  # pointwise streams override

    def member(self, n: int) -> SetExpr:
        raise NotImplementedError

    def union(self) -> SetExpr:
        raise NotImplementedError

    def critical_endpoints(self) -> set:
        """Finite endpoint values near which members approach the union."""
        return set()

    def index_of(self, x):
        """For pointwise streams: an index whose member contains x, or None."""
        return None

    def stage_sufficient(self, eps: Fraction, radius: Fraction) -> int:
        """A stage past which members are eps-close to the union out to radius."""
        return self.n0

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<stream {self.render()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.render() == other.render()

    def __hash__(self):
        return hash((type(self).__name__, self.render()))


def _fin(x):
    return x is not NEG_INF and x is not POS_INF


def _open_interval(lo, hi) -> SetExpr:
    """The open interval (lo, hi) in canonical form: one interval, or the
    empty set where lo >= hi."""
    form = (Interval(lo, hi, True, True),) if sx._lt(lo, hi) else ()
    return SetExpr(QLine(), form, _normalized=True)


@dataclass(frozen=True, eq=False)
class ShrinkIntervals(Stream):
    """Open intervals (a + la/n, b - lb/n) increasing to (a, b).

    ``rate_left``/``rate_right`` of 0 mean the endpoint does not move; the
    rates are kept rational so affine images stay in the schema.
    """

    a: object
    b: object
    rate_left: Fraction
    rate_right: Fraction
    n0: int

    carrier = QLine()
    monotone = True

    def __post_init__(self):
        a, b = sx.endpoint(self.a), sx.endpoint(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        for name in ("rate_left", "rate_right"):
            rate = getattr(self, name)
            if not isinstance(rate, Fraction):
                object.__setattr__(self, name, Fraction(rate))
        if self.rate_left < 0 or self.rate_right < 0:
            raise ValueError("rates must be nonnegative")
        if self.rate_left > 0 and not _fin(a):
            raise ValueError("cannot shrink an infinite left endpoint")
        if self.rate_right > 0 and not _fin(b):
            raise ValueError("cannot shrink an infinite right endpoint")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")
        lo, hi = self._ends(self.n0)
        if not sx._lt(lo, hi):
            raise ValueError("first member is empty; raise n0")

    def _ends(self, n: int) -> tuple:
        """The endpoints a + rate_left/n and b - rate_right/n of member n, an
        open interval."""
        a, b, rl, rr = self.a, self.b, self.rate_left, self.rate_right
        if rl:
            a = Fraction(a._numerator * rl._denominator * n + rl._numerator * a._denominator,
                         a._denominator * rl._denominator * n)
        if rr:
            b = Fraction(b._numerator * rr._denominator * n - rr._numerator * b._denominator,
                         b._denominator * rr._denominator * n)
        return a, b

    def member(self, n: int) -> SetExpr:
        return _open_interval(*self._ends(n))

    def union(self) -> SetExpr:
        return sx.interval(self.a, self.b, True, True)

    def critical_endpoints(self) -> set:
        out = set()
        if self.rate_left:
            out.add(self.a)
        if self.rate_right:
            out.add(self.b)
        return out

    def stage_sufficient(self, eps: Fraction, radius: Fraction) -> int:
        # past rate/eps for the larger rate: the floor of each rate/eps + 1
        n = self.n0
        if eps._numerator > 0:
            for r in (self.rate_left, self.rate_right):
                if r:
                    n = max(n, r._numerator * eps._denominator
                            // (r._denominator * eps._numerator) + 1)
        return n

    def render(self) -> str:
        return "shrink(%s,%s,%s,%s,%d)" % (
            sx.rq(self.a), sx.rq(self.b),
            str(self.rate_left), str(self.rate_right), self.n0,
        )


def shrink(a, b, mode: str = "both", n0: int = 3) -> ShrinkIntervals:
    """Convenience builder: mode in {left, right, both, none}, unit rates."""
    rl = Fraction(1) if mode in ("left", "both") else Fraction(0)
    rr = Fraction(1) if mode in ("right", "both") else Fraction(0)
    return ShrinkIntervals(a, b, rl, rr, n0)


@dataclass(frozen=True, eq=False)
class GrowBalls(Stream):
    """Open intervals (center - rate*n, center + rate*n) exhausting the line."""

    n0: int
    center: Fraction = Fraction(0)
    rate: Fraction = Fraction(1)

    carrier = QLine()
    monotone = True

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "rate", Fraction(self.rate))
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")

    def member(self, n: int) -> SetExpr:
        # center -+ rate*n over the denominator of center times that of rate
        c, r = self.center, self.rate
        mid = c._numerator * r._denominator
        half = r._numerator * c._denominator * n
        den = c._denominator * r._denominator
        return _open_interval(Fraction(mid - half, den), Fraction(mid + half, den))

    def union(self) -> SetExpr:
        return sx.whole(QLine())

    def stage_sufficient(self, eps: Fraction, radius: Fraction) -> int:
        # the floor of (radius + |center|) / rate, + 1; radius is not negative
        R, c, r = radius, self.center, self.rate
        reach = R._numerator * c._denominator + abs(c._numerator) * R._denominator
        return max(self.n0, reach * r._denominator
                   // (R._denominator * c._denominator * r._numerator) + 1)

    def render(self) -> str:
        if self.center == 0 and self.rate == 1:
            return "growballs(%d)" % self.n0
        return "growballs(%d,%s,%s)" % (self.n0, self.center, self.rate)


@dataclass(frozen=True, eq=False)
class InitialSegments(Stream):
    """Initial segments {0..n+offset} of the naturals."""

    n0: int
    offset: int = 0

    carrier = NatFC()
    monotone = True

    def __post_init__(self):
        if self.n0 + self.offset < 0:
            raise ValueError("first member is empty; raise n0")

    def member(self, n: int) -> SetExpr:
        top = n + self.offset
        return sx.nat_finite(range(top + 1)) if top >= 0 else sx.nat_finite([])

    def union(self) -> SetExpr:
        return sx.whole(NatFC())

    def stage_sufficient(self, eps: Fraction, radius: Fraction) -> int:
        return max(self.n0, int(radius) - self.offset + 1)

    def render(self) -> str:
        if self.offset:
            return "initsegs(%d,%d)" % (self.n0, self.offset)
        return "initsegs(%d)" % self.n0


@dataclass(frozen=True, eq=False)
class Singletons(Stream):
    """All singletons {n}, n in N: pairwise disjoint, not monotone."""

    carrier = NatFC()
    n0 = 0
    monotone = False

    def member(self, n: int) -> SetExpr:
        return sx.nat_finite([n])

    def union(self) -> SetExpr:
        return sx.whole(NatFC())

    def index_of(self, x):
        return int(x)

    def render(self) -> str:
        return "singletons"


@dataclass(frozen=True, eq=False)
class DerivedStream(Stream):
    """A shipped stream post-composed with a fixed union or intersection.

    Both operations preserve monotonicity (and the pointwise shape for the
    intersection case), and commute with the union of the stream, so all
    exact decisions still apply.
    """

    base: Stream
    op: str  # "clip" (intersect) or "merge" (union)
    other: SetExpr

    def __post_init__(self):
        if self.op not in ("clip", "merge"):
            raise ValueError("op must be clip or merge")
        if self.op == "merge" and not self.base.monotone:
            raise ValueError("merge of a pointwise stream is not a stream shape")

    @property
    def carrier(self):
        return self.base.carrier

    @property
    def n0(self):
        return self.base.n0

    @property
    def monotone(self):
        return self.base.monotone

    def member(self, n: int) -> SetExpr:
        m = self.base.member(n)
        return sx.intersect(m, self.other) if self.op == "clip" else sx.union(m, self.other)

    def union(self) -> SetExpr:
        u = self.base.union()
        return sx.intersect(u, self.other) if self.op == "clip" else sx.union(u, self.other)

    def critical_endpoints(self) -> set:
        out = set(self.base.critical_endpoints())
        out |= set_endpoints(self.other)
        return out

    def index_of(self, x):
        if self.op == "clip" and not sx.contains(self.other, x):
            return None
        return self.base.index_of(x)

    def stage_sufficient(self, eps: Fraction, radius: Fraction) -> int:
        return self.base.stage_sufficient(eps, radius)

    def render(self) -> str:
        return "%s(%s, %s)" % (self.op, self.base.render(), sx.render(self.other))


def clip_stream(s: Stream, v: SetExpr) -> DerivedStream:
    return DerivedStream(s, "clip", v)


def merge_stream(s: Stream, v: SetExpr) -> DerivedStream:
    return DerivedStream(s, "merge", v)


def endpoint_pairs(S: SetExpr) -> set:
    """Finite endpoint/element values of a QLine or NatFC SetExpr, as integer
    pairs (numerator, denominator) in lowest terms."""
    return sx._algebra(S.carrier).endpoint_pairs(S.form)


def set_endpoints(S: SetExpr) -> set:
    """Finite endpoint/element values of a QLine or NatFC SetExpr."""
    return sx._algebra(S.carrier).endpoints(S.form)
