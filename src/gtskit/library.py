"""Shipped presentations used by the CLI, the auditor, and the test suite."""

from __future__ import annotations

from .carriers import FiniteEnum, NatFC, QLine
from .exhaustions import nat_chain
from .families import FamilyExpr
from .presentation import (
    All,
    AllCanonicalOpen,
    AllSets,
    EssFin,
    ExplicitList,
    FiniteOrWhole,
    GtsPresentation,
    LocallyEssFin,
    PiecewiseEssFin,
)
from . import setexpr as sx
from .streams import GrowBalls


def rational_interval_line() -> GtsPresentation:
    """The small line: interval opens, essentially finite covers only."""
    return GtsPresentation(QLine(), AllCanonicalOpen(), EssFin(), name="line_small")


def qline_topological() -> GtsPresentation:
    """The line as a plain topological space: every open family covers."""
    return GtsPresentation(QLine(), AllCanonicalOpen(), All(), name="line_top")


def ball_base() -> FamilyExpr:
    return FamilyExpr(QLine(), (), (GrowBalls(1),))


def qline_localized() -> GtsPresentation:
    """The small line glued along growing balls: locally small, not small."""
    return GtsPresentation(
        QLine(), AllCanonicalOpen(), LocallyEssFin(ball_base()), name="line_loc"
    )


def discrete_small_nat() -> GtsPresentation:
    """Discrete naturals where only essentially finite families cover."""
    return GtsPresentation(NatFC(), AllSets(), EssFin(), name="nat_small")


def topological_discrete_nat() -> GtsPresentation:
    """Discrete naturals as a topological space: every family covers."""
    return GtsPresentation(NatFC(), AllSets(), All(), name="nat_top")


def weakly_discrete_nat() -> GtsPresentation:
    """Small space whose opens are the finite sets plus everything.

    Weakly discrete (singletons open) but not strongly T1; its generated
    topology is discrete.
    """
    return GtsPresentation(NatFC(), FiniteOrWhole(), EssFin(), name="nat_wd")


def chain_exhausted_nat() -> GtsPresentation:
    """Discrete naturals presented as the limit of its initial segments."""
    return GtsPresentation(
        NatFC(), AllSets(), PiecewiseEssFin(nat_chain()), name="nat_chain"
    )


def point_space() -> GtsPresentation:
    c = FiniteEnum(("p",))
    return GtsPresentation(c, AllSets(), All(), name="point_p")


def sierpinski() -> GtsPresentation:
    c = FiniteEnum(("a", "b"))
    opens = (sx.empty(c), sx.atoms(c, ["a"]), sx.whole(c))
    return GtsPresentation(c, ExplicitList(opens), All(), name="sierpinski")


def discrete_pair() -> GtsPresentation:
    c = FiniteEnum(("a", "b"))
    return GtsPresentation(c, AllSets(), All(), name="discrete_pair")


def indiscrete_pair() -> GtsPresentation:
    c = FiniteEnum(("a", "b"))
    opens = (sx.empty(c), sx.whole(c))
    return GtsPresentation(c, ExplicitList(opens), All(), name="indiscrete_pair")


def discrete_small_pair() -> GtsPresentation:
    c = FiniteEnum(("a", "b"))
    return GtsPresentation(c, AllSets(), EssFin(), name="discrete_small_pair")


def shipped() -> dict[str, GtsPresentation]:
    spaces = [
        rational_interval_line(),
        qline_topological(),
        qline_localized(),
        discrete_small_nat(),
        topological_discrete_nat(),
        weakly_discrete_nat(),
        chain_exhausted_nat(),
        point_space(),
        sierpinski(),
        discrete_pair(),
        indiscrete_pair(),
        discrete_small_pair(),
    ]
    return {X.name: X for X in spaces}
