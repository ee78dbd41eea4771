"""Canonical symbolic subsets of a carrier.

Every ``SetExpr`` is kept in a canonical form that is unique per extension,
so set equality, inclusion and emptiness reduce to structural comparison.
Each carrier has one algebra object, ``_algebra(carrier)``, that alone
knows its form: it canonicalizes, builds, combines, tests, renders and
lists the points of the sets on that carrier.  Every finite carrier (see
``carriers``) shares the one mask algebra; each other carrier class has its
own, ``ALGEBRA[type(carrier)]``.  The functions below check carriers, make
one call into that algebra and wrap the form it returns.  The forms are:

* a finite carrier -- an ``int`` bitmask over the carrier's point order
  (``Carrier.point_bits``): bit k is set iff the set holds the k-th point.
  So union, meet, complement, inclusion, equality and hashing are integer
  operations, and a set is built from its points by looking up their bits.
  A ``FiniteEnum`` set renders as its atoms.  A product's points are the
  pairs in row-major order, so the fiber of the i-th left point is the
  mask's i-th run of as many bits as the right factor has points.  Its
  box view (the boxes below, built from those runs) and its render are
  built only when asked, and kept on the set;
* ``NatFC``      -- a finite set of naturals plus a complemented flag;
* ``QLine``      -- a sorted tuple of maximal, pairwise disjoint, non-adjacent
  intervals (degenerate points allowed).  A finite endpoint is always a
  ``Fraction``; an infinite one is ``NEG_INF`` or ``POS_INF``, two
  sentinels that order below and above every rational, are tested by
  identity and are never floats.  An infinite endpoint is always open.
  The kernel compares two endpoints with ``_lt`` and ``_eq``, not with
  ``Fraction``'s operators: a sentinel by identity, and two ``Fraction``
  values by the cross products of their stored ``_numerator`` and
  ``_denominator`` (a ``Fraction`` is kept in lowest terms, so equal ones
  have equal fields).  Outside the kernel an endpoint is an ordinary
  ``Fraction``.
* a ``Product`` with an infinite factor -- a tuple of boxes ``(cell, fiber)``
  sorted by the rendered cell: the fiber of a left point is the set of right
  points paired with it, and each box pairs one non-empty fiber with all
  left points sharing it.  So the cells are pairwise disjoint and the fibers
  pairwise distinct.  A union (and a random set) is built by adding boxes
  one at a time, each splitting the cells it meets.  The boxes of an
  intersection (the cells of one operand met with the other's), of a
  complement (read off the cells) and of a finite point set (one singleton
  cell per left point) are already pairwise disjoint, so these skip the
  splitting and only merge the cells of equal fibers.

The form of each carrier's whole set is built once and kept on the carrier
object; ``SetExpr.is_whole`` compares a form with it.

All decision procedures consult only rational endpoint/element arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce, total_ordering
from operator import or_
from typing import Iterable, NamedTuple

from .carriers import Carrier, FiniteEnum, NatFC, Product, QLine
from .errors import CarrierMismatch, UnrepresentablePoint


@total_ordering
class _Infinity:
    """An infinite end of the line: below (sign -1) or above (sign 1) every
    rational.

    Equal only to itself; it hashes as the float infinity of its sign, so
    sets holding it iterate in the same order as with that float.
    """

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __hash__(self):
        return hash(self.sign * math.inf)

    def __lt__(self, other):
        return self.sign < 0 and other is not self

    def __gt__(self, other):
        return self.sign > 0 and other is not self

    def __repr__(self):
        return "-inf" if self.sign < 0 else "+inf"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(1)


# the largest numerator and denominator of a random endpoint
MAX_NUM = 32


def rq(x) -> str:
    """Render a rational endpoint (or +-inf)."""
    if x is NEG_INF:
        return "-inf"
    if x is POS_INF:
        return "+inf"
    return str(Fraction(x))


def endpoint(x):
    """x as a line endpoint: a Fraction, or NEG_INF or POS_INF for an infinity
    (a float infinity included)."""
    if isinstance(x, (Fraction, _Infinity)):
        return x
    if isinstance(x, float) and math.isinf(x):
        return NEG_INF if x < 0 else POS_INF
    return Fraction(x)


class Interval(NamedTuple):
    """One maximal interval, with at least one point; infinite endpoints are
    always on an open side.  ``intervals`` checks what it is given; the
    kernel builds only intervals that hold these conditions."""

    lo: object  # Fraction or NEG_INF
    hi: object  # Fraction or POS_INF
    lo_open: bool
    hi_open: bool

    def is_point(self) -> bool:
        return _eq(self.lo, self.hi)

    def contains(self, x: Fraction) -> bool:
        if _lt(x, self.lo) or (self.lo_open and _eq(x, self.lo)):
            return False
        if _lt(self.hi, x) or (self.hi_open and _eq(x, self.hi)):
            return False
        return True

    def render(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{rq(self.lo)},{rq(self.hi)}{rb}"


def _lt(a, b) -> bool:
    """a < b for two line endpoints: a sentinel by identity, two Fractions by
    the cross products of their numerators and denominators."""
    if a is NEG_INF or b is POS_INF:
        return a is not b
    if a is POS_INF or b is NEG_INF:
        return False
    return a._numerator * b._denominator < b._numerator * a._denominator


def _eq(a, b) -> bool:
    """a == b for two line endpoints: a sentinel equals only itself, and a
    Fraction is kept in lowest terms, so two equal ones have equal fields."""
    if a is b:
        return True
    if type(a) is _Infinity or type(b) is _Infinity:
        return False
    return a._numerator == b._numerator and a._denominator == b._denominator


def _mergeable(a: Interval, b: Interval) -> bool:
    # assumes a.lo-key <= b.lo-key
    if _lt(b.lo, a.hi):
        return True
    if _eq(b.lo, a.hi):
        return (not a.hi_open) or (not b.lo_open)
    return False


def _sorted_by_lo(ivs: list[Interval]) -> list[Interval]:
    """ivs sorted by low end, stably, a closed low before an open one at the
    same value.  The key is an integer: each finite low v is v*L for L the
    least common multiple of the lows' denominators, doubled, plus 1 where
    the low is open; NEG_INF, always open, keys below every finite low."""
    common = math.lcm(*(iv.lo._denominator for iv in ivs if iv.lo is not NEG_INF))

    def key(iv):
        lo = iv.lo
        if lo is NEG_INF:
            return -math.inf
        return 2 * lo._numerator * (common // lo._denominator) + (1 if iv.lo_open else 0)

    return sorted(ivs, key=key)


def normalize_intervals(ivs: Iterable[Interval]) -> tuple[Interval, ...]:
    ivs = list(ivs)
    if len(ivs) < 2:
        return tuple(ivs)
    out: list[Interval] = []
    for iv in _sorted_by_lo(ivs):
        if out and _mergeable(out[-1], iv):
            a = out.pop()
            if _lt(a.hi, iv.hi):
                hi, hi_open = iv.hi, iv.hi_open
            elif _lt(iv.hi, a.hi):
                hi, hi_open = a.hi, a.hi_open
            else:
                hi, hi_open = a.hi, a.hi_open and iv.hi_open
            out.append(Interval(a.lo, hi, a.lo_open, hi_open))
        else:
            out.append(iv)
    return tuple(out)


def _complement_intervals(ivs: tuple[Interval, ...]) -> tuple[Interval, ...]:
    gaps: list[Interval] = []
    cursor = NEG_INF
    cursor_open = True  # whether `cursor` itself is excluded from the gap
    for iv in ivs:
        lo, hi = cursor, iv.lo
        lo_open, hi_open = cursor_open, not iv.lo_open
        ok = _lt(lo, hi) or (not lo_open and not hi_open and lo is not NEG_INF and _eq(lo, hi))
        if ok:
            gaps.append(Interval(lo, hi, lo_open, hi_open))
        cursor = iv.hi
        cursor_open = not iv.hi_open
    if cursor is not POS_INF:
        gaps.append(Interval(cursor, POS_INF, cursor_open, True))
    return tuple(gaps)


def _intersect_two(a: Interval, b: Interval) -> Interval | None:
    if _lt(b.lo, a.lo):
        lo, lo_open = a.lo, a.lo_open
    elif _lt(a.lo, b.lo):
        lo, lo_open = b.lo, b.lo_open
    else:
        lo, lo_open = a.lo, a.lo_open or b.lo_open
    if _lt(a.hi, b.hi):
        hi, hi_open = a.hi, a.hi_open
    elif _lt(b.hi, a.hi):
        hi, hi_open = b.hi, b.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open or b.hi_open
    if _lt(hi, lo):
        return None
    if (lo_open or hi_open) and _eq(lo, hi):
        return None
    return Interval(lo, hi, lo_open, hi_open)


class SetExpr:
    """Immutable canonical subset of a carrier."""

    # _view and _text: the box view and the render of a set on a finite
    # product, each once it is asked
    __slots__ = ("carrier", "form", "_view", "_text")

    def __init__(self, carrier: Carrier, form, _normalized: bool = False):
        object.__setattr__(self, "carrier", carrier)
        if not _normalized:
            form = _algebra(carrier).canonicalize(carrier, form)
        object.__setattr__(self, "form", form)

    def __setattr__(self, *a):
        raise AttributeError("SetExpr is immutable")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SetExpr)
            and self.form == other.form
            and self.carrier == other.carrier
        )

    def __hash__(self):
        return hash((self.carrier, self.form))

    def __repr__(self):
        return f"SetExpr({render(self)!r})"

    # -- queries ----------------------------------------------------------
    def is_empty(self) -> bool:
        return _algebra(self.carrier).is_empty(self.form)

    def is_whole(self) -> bool:
        return self.form == _whole_form(self.carrier)

    def is_finite_pointset(self) -> bool:
        return _algebra(self.carrier).is_finite(self.form)

    def finite_points(self) -> list:
        """Points of a finite point set, in canonical order."""
        return _algebra(self.carrier).points(self)


# -- the algebra of each carrier class ------------------------------------

class _Algebra:
    """The Boolean algebra of one carrier class, on its canonical forms.

    ``c`` below is a carrier of the class and ``a``, ``b`` are canonical
    forms on it; every set a method returns is a canonical form.  Each
    subclass provides ``canonicalize(c, form)``, ``whole(c)``,
    ``union(c, a, b)``, ``intersect(c, a, b)``, ``complement(c, a)``,
    ``contains(c, a, x)``, ``is_finite(a)``, ``from_points(c, pts)`` and
    ``random_set(c, rng)``, a set drawn from the audit's seeded grammar.
    ``render(S)`` and ``points(S)`` (of a finite set, in canonical order)
    take the set itself, so that a view built from its form can be kept on
    it.  A product algebra also provides ``from_boxes(c, pairs)``, the union
    of the boxes (l, r) of factor sets, ``box_view(S)`` and
    ``project(c, a, side)``, the image of a set under the projection to
    its "left" or "right" factor.
    """

    def empty(self, c):
        return ()

    def is_empty(self, a) -> bool:
        return not a

    def union_all(self, c, forms):
        """The union of any number of forms."""
        out = self.empty(c)
        for a in forms:
            out = self.union(c, out, a)
        return out

    def minus(self, c, a, b):
        return self.intersect(c, a, self.complement(c, b))

    def is_subset(self, c, a, b) -> bool:
        return self.is_empty(self.minus(c, a, b))

    def endpoint_pairs(self, a) -> set:
        """The finite endpoint or element values of a set, as integer pairs
        (numerator, denominator) in lowest terms."""
        return set()

    def endpoints(self, a) -> set:
        """The finite endpoint or element values of a set, as rationals."""
        return {Fraction(n, d) for n, d in self.endpoint_pairs(a)}


def _bits(m: int):
    """The places of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class _MaskAlgebra(_Algebra):
    """A bitmask over the point order of a finite carrier."""

    def canonicalize(self, c, form):
        if not 0 <= form <= _whole_form(c):
            raise ValueError("mask holds points outside carrier")
        return form

    def empty(self, c):
        return 0

    def whole(self, c):
        return (1 << len(c.point_bits())) - 1

    def union(self, c, a, b):
        return a | b

    def union_all(self, c, forms):
        return reduce(or_, forms, 0)

    def intersect(self, c, a, b):
        return a & b

    def complement(self, c, a):
        return _whole_form(c) ^ a

    def minus(self, c, a, b):
        return a & ~b

    def is_subset(self, c, a, b):
        return not a & ~b

    def contains(self, c, a, x):
        try:
            return bool(a >> c.point_bits()[x] & 1)
        except (KeyError, TypeError):  # not a point, or not even hashable
            raise UnrepresentablePoint(f"{x!r} is not a point of {c.describe()}") from None

    def render(self, S):
        if type(S.carrier) is not Product:
            return self._render(S.carrier, S.form)
        try:
            return S._text
        except AttributeError:
            text = self._render(S.carrier, S.form)
            object.__setattr__(S, "_text", text)
            return text

    def _render(self, c, a):
        """The render of the set a on c, built from the mask alone."""
        if not a:
            return "empty"
        if type(c) is not Product:
            return "{%s}" % ",".join(self._atoms(c, a))
        # the boxes sorted by the rendered cell, as box_view sorts them
        return " u ".join("box(%s ; %s)" % lr for lr in sorted(
            (self._render(c.left, l), self._render(c.right, r))
            for r, l in self._cells(c, a).items()))

    def is_finite(self, a):
        return True

    def points(self, S):
        if type(S.carrier) is Product:
            return _box_points(self.box_view(S))
        return self._atoms(S.carrier, S.form)

    def _atoms(self, c, a) -> list:
        """The atoms of the set a on a FiniteEnum c, in their order."""
        atoms = c.elements
        return [atoms[k] for k in _bits(a)]

    def from_points(self, c, pts):
        bit, m = c.point_bits(), 0
        for x in pts:
            k = bit.get(x)
            if k is None:
                raise ValueError(f"atoms outside carrier: {x!r}")
            m |= 1 << k
        return m

    def random_set(self, c, rng):
        if type(c) is Product:
            return self.from_boxes(c, _random_boxes(c, rng))
        return sum(1 << k for k in range(len(c.elements)) if rng.random() < 0.5)

    # -- on a product of finite carriers --

    def _fibers(self, c, a):
        """(i, fiber) for each left place i whose fiber, a mask on the right
        factor, is not empty."""
        n = len(c.right.point_bits())
        row, i = (1 << n) - 1, 0
        while a:
            if a & row:
                yield i, a & row
            a >>= n
            i += 1

    def from_boxes(self, c, pairs):
        n, m = len(c.right.point_bits()), 0
        for l, r in pairs:
            if l.is_empty() or r.is_empty():
                continue
            if l.carrier != c.left or r.carrier != c.right:
                raise CarrierMismatch("box components on the wrong carrier")
            for i in _bits(l.form):
                m |= r.form << i * n
        return m

    def project(self, c, a, side):
        if side == "left":
            return sum(1 << i for i, _ in self._fibers(c, a))
        return reduce(or_, (f for _, f in self._fibers(c, a)), 0)

    def _cells(self, c, a) -> dict:
        """Each fiber of a and its cell, the mask of the left points that
        have it."""
        cell_of: dict[int, int] = {}
        for i, fiber in self._fibers(c, a):
            cell_of[fiber] = cell_of.get(fiber, 0) | 1 << i
        return cell_of

    def box_view(self, S):
        """Built on the first call and kept on S."""
        try:
            return S._view
        except AttributeError:
            pass
        c = S.carrier
        view = tuple(sorted(((SetExpr(c.left, l, True), SetExpr(c.right, r, True))
                             for r, l in self._cells(c, S.form).items()),
                            key=lambda b: sort_key(b[0])))
        object.__setattr__(S, "_view", view)
        return view


class _NatAlgebra(_Algebra):
    """A finite set of naturals and a flag: the set itself, or its complement."""

    def canonicalize(self, c, form):
        elems, co = form
        elems = frozenset(int(x) for x in elems)
        if any(x < 0 for x in elems):
            raise ValueError("naturals only")
        return (elems, bool(co))

    def empty(self, c):
        return (frozenset(), False)

    def whole(self, c):
        return (frozenset(), True)

    def union(self, c, a, b):
        (ea, ca), (eb, cb) = a, b
        if not ca and not cb:
            return (ea | eb, False)
        if ca and cb:
            return (ea & eb, True)
        if ca:
            return (ea - eb, True)
        return (eb - ea, True)

    def intersect(self, c, a, b):
        (ea, ca), (eb, cb) = a, b
        if not ca and not cb:
            return (ea & eb, False)
        if ca and cb:
            return (ea | eb, True)
        if ca:
            return (eb - ea, False)
        return (ea - eb, False)

    def complement(self, c, a):
        elems, co = a
        return (elems, not co)

    def is_empty(self, a):
        elems, co = a
        return not co and not elems

    def contains(self, c, a, x):
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise UnrepresentablePoint(f"{x!r} is not a natural number")
        elems, co = a
        return (x not in elems) if co else (x in elems)

    def render(self, S):
        elems, co = S.form
        body = ",".join(str(x) for x in sorted(elems))
        if co:
            return "whole" if not elems else "co{%s}" % body
        return "{%s}" % body if elems else "empty"

    def is_finite(self, a):
        return not a[1]

    def points(self, S):
        elems, co = S.form
        if co:
            raise ValueError("cofinite set is not a finite point set")
        return sorted(elems)

    def from_points(self, c, pts):
        return self.canonicalize(c, (pts, False))

    def random_set(self, c, rng):
        body = frozenset(rng.sample(range(24), rng.randint(0, 5)))
        return (body, rng.random() < 0.3)

    def endpoint_pairs(self, a):
        return {(x, 1) for x in a[0]}


class _LineAlgebra(_Algebra):
    """Sorted maximal, pairwise disjoint, non-adjacent intervals."""

    def canonicalize(self, c, form):
        return normalize_intervals(form)

    def whole(self, c):
        return (Interval(NEG_INF, POS_INF, True, True),)

    def union(self, c, a, b):
        return normalize_intervals(a + b)

    def union_all(self, c, forms):
        return normalize_intervals(iv for a in forms for iv in a)

    def intersect(self, c, a, b):
        # the pieces come out sorted, and pieces of intervals that cannot
        # merge cannot merge either: the form needs no normalizing
        out = []
        for ia in a:
            for ib in b:
                r = _intersect_two(ia, ib)
                if r is not None:
                    out.append(r)
        return tuple(out)

    def complement(self, c, a):
        return _complement_intervals(a)

    def contains(self, c, a, x):
        if isinstance(x, float):
            raise UnrepresentablePoint("QLine membership accepts rationals only")
        try:
            x = Fraction(x)
        except (TypeError, ValueError):
            raise UnrepresentablePoint(f"{x!r} is not a rational") from None
        return any(iv.contains(x) for iv in a)

    def render(self, S):
        return " u ".join(iv.render() for iv in S.form) if S.form else "empty"

    def is_finite(self, a):
        return all(iv.is_point() for iv in a)

    def points(self, S):
        if not self.is_finite(S.form):
            raise ValueError("not a finite point set")
        return [iv.lo for iv in S.form]

    def from_points(self, c, pts):
        return normalize_intervals(Interval(x, x, False, False) for x in map(Fraction, pts))

    def random_set(self, c, rng):
        # lazy, so that each interval draws its two ends and then its two flags
        ends = (sorted((random_fraction(rng), random_fraction(rng)))
                for _ in range(rng.randint(0, 3)))
        return intervals((a, b, rng.random() < 0.5, rng.random() < 0.5) for a, b in ends).form

    def endpoint_pairs(self, a):
        return {(e._numerator, e._denominator) for iv in a for e in (iv.lo, iv.hi)
                if e is not NEG_INF and e is not POS_INF}


class _ProductAlgebra(_Algebra):
    """Boxes (cell, fiber) of factor sets, sorted by the rendered cell: the
    products with an infinite factor."""

    def canonicalize(self, c, boxes):
        """Refine pairwise disjoint left cells box by box, then merge equal fibers.

        A box (l, r) splits each cell it meets into the part inside l, whose
        fiber gains r, and the part outside l; the part of l in no cell
        becomes a cell with fiber r.
        """
        cells: list[tuple[SetExpr, SetExpr]] = []
        for l, r in boxes:
            if l.is_empty() or r.is_empty():
                continue
            if l.carrier != c.left or r.carrier != c.right:
                raise CarrierMismatch("box components on the wrong carrier")
            rest = l
            refined = []
            for cell, fiber in cells:
                inside = intersect(cell, l)
                if inside.is_empty():
                    refined.append((cell, fiber))
                    continue
                refined.append((inside, union(fiber, r)))
                if inside != cell:
                    refined.append((minus(cell, l), fiber))
                rest = minus(rest, inside)
            if not rest.is_empty():
                refined.append((rest, r))
            cells = refined
        return self._merge_fibers(cells)

    def _merge_fibers(self, cells) -> tuple:
        """The canonical form of boxes (cell, fiber) whose cells are pairwise
        disjoint: boxes with an empty side dropped, the cells of equal fibers
        merged, sorted by the rendered cell."""
        cell_of: dict[SetExpr, SetExpr] = {}
        for cell, fiber in cells:
            if cell.is_empty() or fiber.is_empty():
                continue
            cell_of[fiber] = union(cell_of[fiber], cell) if fiber in cell_of else cell
        out = [(cell, fiber) for fiber, cell in cell_of.items()]
        out.sort(key=lambda b: sort_key(b[0]))
        return tuple(out)

    def whole(self, c):
        return self._merge_fibers([(whole(c.left), whole(c.right))])

    def union(self, c, a, b):
        return self.canonicalize(c, a + b)

    def union_all(self, c, forms):
        return self.canonicalize(c, [b for a in forms for b in a])

    def intersect(self, c, a, b):
        # the cells of each side are pairwise disjoint, so are their meets
        return self._merge_fibers([(intersect(la, lb), intersect(ra, rb))
                                   for la, ra in a for lb, rb in b])

    def complement(self, c, a):
        # the cells are pairwise disjoint: over a left point in no cell the
        # complement holds the whole right factor, over a cell its fiber's complement
        covered = union_all(c.left, (l for l, _ in a))
        return self._merge_fibers([(complement(covered), whole(c.right))]
                                  + [(l, complement(r)) for l, r in a])

    def contains(self, c, a, x):
        if not isinstance(x, tuple) or len(x) != 2:
            raise UnrepresentablePoint("product points are pairs")
        return any(contains(l, x[0]) and contains(r, x[1]) for l, r in a)

    def render(self, S):
        return " u ".join("box(%s ; %s)" % (render(l), render(r)) for l, r in S.form) or "empty"

    def is_finite(self, a):
        return all(l.is_finite_pointset() and r.is_finite_pointset() for l, r in a)

    def points(self, S):
        return _box_points(S.form)

    def from_points(self, c, pts):
        fibers: dict = {}
        for x, y in pts:
            fibers.setdefault(x, []).append(y)
        left, right = _algebra(c.left), _algebra(c.right)
        # one singleton cell per left point: the cells are pairwise disjoint
        return self._merge_fibers([
            (SetExpr(c.left, left.from_points(c.left, [x]), _normalized=True),
             SetExpr(c.right, right.from_points(c.right, ys), _normalized=True))
            for x, ys in fibers.items()])

    def random_set(self, c, rng):
        return self.canonicalize(c, _random_boxes(c, rng))

    from_boxes = canonicalize

    def project(self, c, a, side):
        return union_all(getattr(c, side), (b[side == "right"] for b in a)).form

    def box_view(self, S):
        return S.form


def _random_boxes(c: Product, rng) -> list:
    """Up to two boxes of random factor sets, each drawn left then right."""
    return [(random_set(c.left, rng), random_set(c.right, rng)) for _ in range(rng.randint(0, 2))]


def _box_points(boxes) -> list:
    return [(x, y) for l, r in boxes for x in l.finite_points() for y in r.finite_points()]


# the algebras of the infinite carriers, by class; _MASKS is every finite carrier's
ALGEBRA: dict[type, _Algebra] = {
    NatFC: _NatAlgebra(), QLine: _LineAlgebra(), Product: _ProductAlgebra(),
}
_MASKS = _MaskAlgebra()


def _algebra(c: Carrier) -> _Algebra:
    """The algebra of the sets on carrier c."""
    return _MASKS if c.finite else ALGEBRA[type(c)]


# -- constructors ---------------------------------------------------------

def empty(carrier: Carrier) -> SetExpr:
    return SetExpr(carrier, _algebra(carrier).empty(carrier), _normalized=True)


def whole(carrier: Carrier) -> SetExpr:
    return SetExpr(carrier, _whole_form(carrier), _normalized=True)


def _whole_form(carrier: Carrier):
    """The form of the whole carrier, built once per carrier object and kept
    there.  A form holds no reference to its own carrier, so keeping it
    makes no reference cycle, and a carrier dropped is freed at once."""
    form = carrier._whole
    if form is None:
        form = _algebra(carrier).whole(carrier)
        object.__setattr__(carrier, "_whole", form)
    return form


def atoms(carrier: FiniteEnum, names: Iterable[str]) -> SetExpr:
    return SetExpr(carrier, _algebra(carrier).from_points(carrier, names), _normalized=True)


def nat_finite(elems: Iterable[int]) -> SetExpr:
    return SetExpr(NatFC(), (frozenset(elems), False))


def nat_cofinite(excluded: Iterable[int]) -> SetExpr:
    return SetExpr(NatFC(), (frozenset(excluded), True))


def intervals(parts: Iterable[tuple]) -> SetExpr:
    """The union of the intervals (lo, hi, lo_open, hi_open), normalized once;
    an interval with no points adds none."""
    ivs = []
    for lo, hi, lo_open, hi_open in parts:
        lo, hi = endpoint(lo), endpoint(hi)
        if _lt(lo, hi) or (not (lo_open or hi_open) and _eq(lo, hi)):
            if lo is NEG_INF and not lo_open:
                raise ValueError("-inf endpoint must be open")
            if hi is POS_INF and not hi_open:
                raise ValueError("+inf endpoint must be open")
            ivs.append(Interval(lo, hi, lo_open, hi_open))
    return SetExpr(QLine(), normalize_intervals(ivs), _normalized=True)


def interval(lo, hi, lo_open=True, hi_open=True) -> SetExpr:
    return intervals([(lo, hi, lo_open, hi_open)])


def qpoint(x) -> SetExpr:
    x = x if isinstance(x, Fraction) else Fraction(x)
    return SetExpr(QLine(), (Interval(x, x, False, False),))


def boxes(carrier: Product, pairs: Iterable[tuple[SetExpr, SetExpr]]) -> SetExpr:
    return SetExpr(carrier, _algebra(carrier).from_boxes(carrier, list(pairs)), _normalized=True)


def box(l: SetExpr, r: SetExpr) -> SetExpr:
    return boxes(Product(l.carrier, r.carrier), [(l, r)])


def random_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-MAX_NUM, MAX_NUM), rng.randint(1, MAX_NUM))


def random_set(carrier: Carrier, rng) -> SetExpr:
    return SetExpr(carrier, _algebra(carrier).random_set(carrier, rng), _normalized=True)


# -- boolean operations ---------------------------------------------------

def _check_same_carrier(a: SetExpr, b: SetExpr):
    if a.carrier is not b.carrier and a.carrier != b.carrier:
        raise CarrierMismatch(f"{a.carrier!r} vs {b.carrier!r}")


def union(a: SetExpr, b: SetExpr) -> SetExpr:
    _check_same_carrier(a, b)
    c = a.carrier
    return SetExpr(c, _algebra(c).union(c, a.form, b.form), _normalized=True)


def union_all(carrier: Carrier, sets: Iterable[SetExpr]) -> SetExpr:
    """The union of any number of sets on carrier, in one call into its algebra."""
    forms = []
    for S in sets:
        if S.carrier != carrier:
            raise CarrierMismatch(f"{S.carrier!r} vs {carrier!r}")
        forms.append(S.form)
    return SetExpr(carrier, _algebra(carrier).union_all(carrier, forms), _normalized=True)


def complement(a: SetExpr) -> SetExpr:
    c = a.carrier
    return SetExpr(c, _algebra(c).complement(c, a.form), _normalized=True)


def intersect(a: SetExpr, b: SetExpr) -> SetExpr:
    _check_same_carrier(a, b)
    c = a.carrier
    return SetExpr(c, _algebra(c).intersect(c, a.form, b.form), _normalized=True)


def minus(a: SetExpr, b: SetExpr) -> SetExpr:
    _check_same_carrier(a, b)
    c = a.carrier
    return SetExpr(c, _algebra(c).minus(c, a.form, b.form), _normalized=True)


# -- comparisons ----------------------------------------------------------

def is_subset(a: SetExpr, b: SetExpr) -> bool:
    _check_same_carrier(a, b)
    return _algebra(a.carrier).is_subset(a.carrier, a.form, b.form)


# -- membership -----------------------------------------------------------

def contains(S: SetExpr, x) -> bool:
    return _algebra(S.carrier).contains(S.carrier, S.form, x)


# -- rendering ------------------------------------------------------------

def render(S: SetExpr) -> str:
    return _algebra(S.carrier).render(S)


def sort_key(S: SetExpr) -> str:
    return render(S)


# -- products -------------------------------------------------------------

def box_view(S: SetExpr) -> tuple:
    """The boxes (cell, fiber) of a set on a product carrier, one per fiber
    and sorted by the rendered cell: the form of a product with an infinite
    factor, built from the mask and kept on a finite product's set."""
    return _algebra(S.carrier).box_view(S)


def project(S: SetExpr, side: str) -> SetExpr:
    """The image of a product set under the projection to its "left" or
    "right" factor."""
    c = S.carrier
    return SetExpr(getattr(c, side), _algebra(c).project(c, S.form, side), _normalized=True)


def interval_closure(S: SetExpr) -> SetExpr:
    """Close every interval of a QLine set at its finite endpoints."""
    if not isinstance(S.carrier, QLine):
        raise CarrierMismatch("interval_closure only applies to the line")
    closed = [
        Interval(iv.lo, iv.hi, iv.lo is NEG_INF, iv.hi is POS_INF)
        for iv in S.form
    ]
    return SetExpr(S.carrier, normalize_intervals(closed), _normalized=True)


def interval_interior(S: SetExpr) -> SetExpr:
    """Open every interval of a QLine set; degenerate points vanish."""
    if not isinstance(S.carrier, QLine):
        raise CarrierMismatch("interval_interior only applies to the line")
    opened = [
        Interval(iv.lo, iv.hi, True, True)
        for iv in S.form
        if not iv.is_point()
    ]
    return SetExpr(S.carrier, normalize_intervals(opened), _normalized=True)


def all_intervals_open(S: SetExpr) -> bool:
    """Is every interval of a QLine set open at both ends?"""
    if not isinstance(S.carrier, QLine):
        raise CarrierMismatch("all_intervals_open only applies to the line")
    return all(iv.lo_open and iv.hi_open for iv in S.form)
