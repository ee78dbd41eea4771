"""Carrier menu: the underlying point sets our set algebras live on.

Four kinds are supported:

* ``FiniteEnum`` -- a finite set of named atoms,
* ``NatFC``     -- the naturals with the finite/cofinite algebra,
* ``QLine``     -- the real line with the rational-endpoint interval algebra,
* ``Product``   -- a binary product of two carriers.

A carrier holds no set algebra itself: ``setexpr.ALGEBRA`` maps each
carrier class to the one object that implements the Boolean algebra of its
subsets on their canonical forms.  A carrier only keeps the form of its
whole set once ``setexpr.whole`` has built it; the form takes no part in
its equality, hash or repr.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Carrier:
    """Abstract base; use one of the concrete subclasses."""

    # the canonical form of setexpr.whole(self), once it is asked
    _whole: object = field(default=None, init=False, compare=False, repr=False)

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteEnum(Carrier):
    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("FiniteEnum atoms must be pairwise distinct")
        # keep a canonical order so equality of carriers is extensional
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))

    def describe(self) -> str:
        return "enum{%s}" % ",".join(self.elements)


@dataclass(frozen=True)
class NatFC(Carrier):
    def describe(self) -> str:
        return "natfc"


@dataclass(frozen=True)
class QLine(Carrier):
    def describe(self) -> str:
        return "qline"


@dataclass(frozen=True)
class Product(Carrier):
    left: Carrier
    right: Carrier

    def describe(self) -> str:
        return "product(%s, %s)" % (self.left.describe(), self.right.describe())
