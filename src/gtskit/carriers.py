"""Carrier menu: the underlying point sets our set algebras live on.

Four kinds are supported:

* ``FiniteEnum`` -- a finite set of named atoms,
* ``NatFC``     -- the naturals with the finite/cofinite algebra,
* ``QLine``     -- the real line with the rational-endpoint interval algebra,
* ``Product``   -- a binary product of two carriers.

A carrier holds no set algebra itself: ``setexpr.ALGEBRA`` maps each
carrier class to the one object that implements the Boolean algebra of its
subsets on their canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Carrier:
    """Abstract base; use one of the concrete subclasses."""

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
