"""No gtskit module catches every exception: a fault must not become a verdict."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gtskit"

BLANKET = {"Exception", "BaseException"}


def blanket_handlers(source: str) -> list[int]:
    """The lines of handlers in ``source`` that are bare or name a blanket class."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in BLANKET
                                        for c in caught):
                lines.append(node.lineno)
    return lines


def test_scanner_flags_bare_and_blanket_handlers():
    src = ("try:\n    f()\nexcept:\n    pass\n"
           "try:\n    f()\nexcept Exception:\n    pass\n"
           "try:\n    f()\nexcept (ValueError, BaseException) as e:\n    pass\n"
           "try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n")
    assert blanket_handlers(src) == [3, 7, 11]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_blanket_except(path):
    assert blanket_handlers(path.read_text()) == []
