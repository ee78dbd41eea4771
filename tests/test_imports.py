"""Every name a gtskit module imports is read somewhere in that module,
imports sit at module level except where they close a real cycle, and no
module imports another module's underscore names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gtskit"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that are never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted("%s (line %d)" % (name, line)
                  for name, line in bound.items() if name not in read)


def test_scanner_flags_only_unread_names():
    src = "import os\nfrom a import b, c as d\nfrom __future__ import x\nd()\n"
    assert unused_imports(src) == ["b (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imports_in_functions(source: str) -> int:
    """The import statements inside function bodies of ``source``."""
    tree = ast.parse(source)
    return len({id(node) for f in ast.walk(tree)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(f) if isinstance(node, (ast.Import, ast.ImportFrom))})


# layers asks props for a separation report, and props imports layers
FUNCTION_IMPORT_BUDGET = {"layers.py": 2}


def test_scanner_counts_imports_in_function_bodies():
    src = "import os\ndef f():\n    import a\n    def g():\n        from b import c\n"
    assert imports_in_functions(src) == 2


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_inside_functions_stay_within_budget(path):
    assert imports_in_functions(path.read_text()) <= FUNCTION_IMPORT_BUDGET.get(path.name, 0)


def private_imports(source: str) -> list[str]:
    """Underscore names that ``source`` imports from a gtskit module."""
    tree = ast.parse(source)
    return sorted("%s (line %d)" % (a.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "gtskit")
                  for a in node.names if a.name.startswith("_"))


def test_scanner_flags_underscore_names_from_gtskit_modules():
    src = ("from .a import _b, c\nfrom gtskit.d import _e\nfrom os import _exit\n"
           "from . import _f\nfrom __future__ import annotations\n")
    assert private_imports(src) == ["_b (line 1)", "_e (line 2)", "_f (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path.read_text()) == []
