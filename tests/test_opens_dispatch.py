"""Opens, map rules, carriers, policies and streams answer for themselves: few isinstance tests.

Each module may test a value against the seven opens classes, the nine
map rule classes, the four carrier classes, the five coverage policy
classes and the five stream classes at most as often as its budgets below
allow.  The DSL writes each object by looking its class up in the table
that also parses its word, and tests a carrier only where a set literal
must fit it.  Each carrier's set algebra, random sets included, is reached
through ``setexpr._algebra``, which gives every finite carrier the one
mask algebra and every other carrier its class's; each opens description
draws its own opens and each map rule says which opens it keeps open; the
audit's streams, the separation flags and the continuity probes are tables
keyed on the class.  The other budgets are what is left of the per-description,
per-rule, per-carrier and per-policy branches.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gtskit"

OPENS_CLASSES = {
    "ExplicitList", "AllCanonicalOpen", "FiniteOrWhole", "AllSets",
    "ProductOpens", "TraceOpens", "GluedOpens",
}

BUDGET = {"constructions.py": 4, "props.py": 2}

RULE_CLASSES = {
    "Identity", "Const", "FiniteTable", "PiecewiseAffine", "NatShift",
    "NatPerm", "Projection", "Pairing", "Composite",
}

# maps.py: pairing's constant components and the affine stream bounds
RULE_BUDGET = {"maps.py": 4}

CARRIER_CLASSES = {"FiniteEnum", "NatFC", "QLine", "Product"}

# setexpr.py: the three operations that only the line has; dsl.py: the
# set literals that fit one carrier only
CARRIER_BUDGET = {"constructions.py": 4, "dsl.py": 4, "layers.py": 2, "maps.py": 4,
                  "presentation.py": 5, "setexpr.py": 3}

POLICY_CLASSES = {"All", "EssFin", "EssCountable", "LocallyEssFin", "PiecewiseEssFin"}

# cli.py and layers.py: reads of a policy's base or exhaustion
POLICY_BUDGET = {"cli.py": 1, "layers.py": 4}

STREAM_CLASSES = {"ShrinkIntervals", "GrowBalls", "InitialSegments", "Singletons",
                  "DerivedStream"}

STREAM_BUDGET = {}


def isinstance_calls(source: str, classes: set) -> int:
    """The isinstance calls in ``source`` whose class argument names one of ``classes``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            count += bool(names & classes)
    return count


def test_counter_sees_single_and_tuple_class_arguments():
    src = ("isinstance(a, AllSets)\nisinstance(b, (QLine, TraceOpens))\n"
           "isinstance(c, QLine)\nisinstance(d.opens, Opens)\n"
           "isinstance(e, (NatShift, NatPerm))\nisinstance(f.rule, Rule)\n"
           "isinstance(g.carrier, (FiniteEnum, Product))\nisinstance(h, Carrier)\n"
           "isinstance(i.policy, All)\nisinstance(j, (LocallyEssFin, PiecewiseEssFin))\n"
           "isinstance(k, Policy)\nisinstance(m, (GrowBalls, DerivedStream))\n"
           "isinstance(n, Stream)\n")
    assert isinstance_calls(src, OPENS_CLASSES) == 2
    assert isinstance_calls(src, RULE_CLASSES) == 1
    assert isinstance_calls(src, CARRIER_CLASSES) == 3
    assert isinstance_calls(src, POLICY_CLASSES) == 2
    assert isinstance_calls(src, STREAM_CLASSES) == 1


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_opens_isinstance_budget(path):
    assert isinstance_calls(path.read_text(), OPENS_CLASSES) <= BUDGET.get(path.name, 0)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_rule_isinstance_budget(path):
    assert isinstance_calls(path.read_text(), RULE_CLASSES) <= RULE_BUDGET.get(path.name, 0)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_carrier_isinstance_budget(path):
    assert isinstance_calls(path.read_text(), CARRIER_CLASSES) <= CARRIER_BUDGET.get(path.name, 0)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_policy_isinstance_budget(path):
    assert isinstance_calls(path.read_text(), POLICY_CLASSES) <= POLICY_BUDGET.get(path.name, 0)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_stream_isinstance_budget(path):
    assert isinstance_calls(path.read_text(), STREAM_CLASSES) <= STREAM_BUDGET.get(path.name, 0)
