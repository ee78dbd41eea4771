"""Opens descriptions answer for themselves: few isinstance tests on them.

Each module may test a value against the seven opens classes at most as
often as its budget below allows.  The audit's instance grammar and the
DSL's emitter are the single dispatch for their own concern; the other
budgets are what is left of the per-description branches.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gtskit"

OPENS_CLASSES = {
    "ExplicitList", "AllCanonicalOpen", "FiniteOrWhole", "AllSets",
    "ProductOpens", "TraceOpens", "GluedOpens",
}

BUDGET = {"audit.py": 7, "constructions.py": 4, "dsl.py": 4, "maps.py": 3, "props.py": 9}


def opens_isinstance_calls(source: str) -> int:
    """The isinstance calls in ``source`` whose class argument names an opens class."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            count += bool(names & OPENS_CLASSES)
    return count


def test_counter_sees_single_and_tuple_class_arguments():
    src = ("isinstance(a, AllSets)\nisinstance(b, (QLine, TraceOpens))\n"
           "isinstance(c, QLine)\nisinstance(d.opens, Opens)\n")
    assert opens_isinstance_calls(src) == 2


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_opens_isinstance_budget(path):
    assert opens_isinstance_calls(path.read_text()) <= BUDGET.get(path.name, 0)
