"""Exhaustion shapes for weakly small presentations.

Two index shapes are supported: a finite poset with explicit pieces, and the
chain schema (N, <=) whose pieces come from a monotone stream generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import setexpr as sx
from .families import first_stage, large_stage
from .setexpr import SetExpr
from .streams import InitialSegments, Stream


@dataclass(frozen=True)
class FinitePoset:
    elements: tuple
    relation: frozenset  # pairs (a, b) meaning a <= b; reflexive closure implied

    def leq(self, a, b) -> bool:
        return a == b or (a, b) in self.relation

    def below(self, a) -> list:
        return [x for x in self.elements if self.leq(x, a)]

    def upper_bounds(self, a, b) -> list:
        return [x for x in self.elements if self.leq(a, x) and self.leq(b, x)]


@dataclass(frozen=True)
class Exhaustion:
    """Either chain=<stream generator> or poset+pieces."""

    chain: Stream | None = None
    poset: FinitePoset | None = None
    pieces: tuple = ()  # tuple of (index, SetExpr) when poset-shaped

    def __post_init__(self):
        if (self.chain is None) == (self.poset is None):
            raise ValueError("exactly one of chain / poset must be given")
        if self.chain is not None and not self.chain.monotone:
            raise ValueError("chain exhaustions need a monotone generator")
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def is_chain(self) -> bool:
        return self.chain is not None

    def piece(self, idx) -> SetExpr:
        if self.is_chain():
            return self.chain.member(int(idx))
        for i, p in self.pieces:
            if i == idx:
                return p
        raise KeyError(idx)

    def least_stage(self, K: SetExpr) -> int | None:
        """The least stage of a chain whose piece holds K; None where none does.

        The pieces grow, so a piece past ``large_stage`` holds K only if the
        piece at it does, and the least such stage is found by bisection.
        """
        s = self.chain
        return first_stage(lambda n: sx.is_subset(K, s.member(n)), s.n0, large_stage([s], [K]))

    def indices(self, chain_cap: int = 32) -> list:
        if self.is_chain():
            return list(range(self.chain.n0, self.chain.n0 + chain_cap))
        return [i for i, _ in self.pieces]

    def render(self) -> str:
        if self.is_chain():
            return "chain " + self.chain.render()
        body = "; ".join(f"{i}: {sx.render(p)}" for i, p in self.pieces)
        rel = ",".join(f"{a}<={b}" for a, b in sorted(self.poset.relation))
        return "pieces{%s | %s}" % (body, rel)


def nat_chain() -> Exhaustion:
    return Exhaustion(chain=InitialSegments(0))
