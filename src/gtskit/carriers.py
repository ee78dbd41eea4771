"""Carrier menu: the underlying point sets our set algebras live on.

Four kinds are supported:

* ``FiniteEnum`` -- a finite set of named atoms,
* ``NatFC``     -- the naturals with the finite/cofinite algebra,
* ``QLine``     -- the real line with the rational-endpoint interval algebra,
* ``Product``   -- a binary product of two carriers.

A carrier holds no set algebra itself: ``setexpr`` picks the one object
that implements the Boolean algebra of its subsets on their canonical
forms.  A *finite* carrier is a ``FiniteEnum``, or a ``Product`` of two
finite carriers; its points have a fixed order, the sorted points (the
atoms, or the pairs of factor points with the left one first), and every
set on it is a bitmask over that order.  ``NatFC``, ``QLine`` and a product
with an infinite factor keep symbolic forms: finite/cofinite sets,
intervals and boxes.  A carrier keeps the form of its whole set once
``setexpr.whole`` has built it, and a finite carrier the place of each
point once it is asked; neither takes part in its equality, hash or repr.

Two carriers are equal when they are one object, or else of one class with
equal compared fields (``_key``).  The hash is that of the compared fields'
tuple, as a generated dataclass hash would be, so sets of carriers and of
sets iterate in the same order; it is computed once, when the carrier is
built, and a carrier without compared fields keeps the hash of ``()``.
``NatFC`` and ``QLine`` have no compared fields, so each class has one
object: every ``QLine()`` is the same carrier, their equality is an
identity test, and the whole set's form is built once per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, eq=False)
class Carrier:
    """Abstract base; use one of the concrete subclasses."""

    # whether the carrier has finitely many points
    finite = False
    # the canonical form of setexpr.whole(self), once it is asked
    _whole: object = field(default=None, init=False, compare=False, repr=False)
    # point_bits() of a finite carrier, once it is asked
    _bit: dict = field(default=None, init=False, compare=False, repr=False)
    # hash(self._key()): a subclass with compared fields sets it once they
    # are final, with _set_hash
    _hash: int = field(default=hash(()), init=False, compare=False, repr=False)

    def _set_hash(self):
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self) -> tuple:
        """The compared fields, in declaration order."""
        return ()

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._key() == other._key())

    def __hash__(self):
        return self._hash

    def describe(self) -> str:
        raise NotImplementedError

    def point_bits(self) -> dict:
        """Each point of a finite carrier and its place in the carrier's
        point order, in that order."""
        if self._bit is None:
            object.__setattr__(self, "_bit", {x: k for k, x in enumerate(self._points())})
        return self._bit


@dataclass(frozen=True, eq=False)
class FiniteEnum(Carrier):
    elements: tuple[str, ...]

    finite = True

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("FiniteEnum atoms must be pairwise distinct")
        # keep a canonical order so equality of carriers is extensional
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        self._set_hash()

    def _key(self) -> tuple:
        return (self.elements,)

    def describe(self) -> str:
        return "enum{%s}" % ",".join(self.elements)

    def _points(self):
        return self.elements


@dataclass(frozen=True, eq=False, init=False)
class _Fieldless(Carrier):
    """A carrier class without compared fields has one object, which every
    call of the class returns.  Its fields read their class defaults until
    they are set, and no later call resets them."""

    def __new__(cls):
        if "_one" not in cls.__dict__:
            cls._one = super().__new__(cls)
        return cls._one

    def __init__(self):
        pass


@dataclass(frozen=True, eq=False, init=False)
class NatFC(_Fieldless):
    def describe(self) -> str:
        return "natfc"


@dataclass(frozen=True, eq=False, init=False)
class QLine(_Fieldless):
    def describe(self) -> str:
        return "qline"


@dataclass(frozen=True, eq=False)
class Product(Carrier):
    left: Carrier
    right: Carrier

    def __post_init__(self):
        object.__setattr__(self, "finite", self.left.finite and self.right.finite)
        self._set_hash()

    def _key(self) -> tuple:
        return (self.left, self.right)

    def describe(self) -> str:
        return "product(%s, %s)" % (self.left.describe(), self.right.describe())

    def _points(self):
        return ((x, y) for x in self.left.point_bits() for y in self.right.point_bits())
