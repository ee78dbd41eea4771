"""Every defaulted parameter of a gtskit function is passed by some call.

A default that no call overrides is a constant in disguise: the code paths
that only another value reaches never run.  Calls are matched to functions
by name, so a call of any function or method with that name counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gtskit"
CALLERS = (SRC, ROOT / "tests", ROOT / "perfbench")


def defaulted_parameters(tree: ast.AST) -> list[tuple[str, int | None, str, int]]:
    """(function, positional index or None, parameter, line) per default.

    The index counts past ``self``/``cls`` of a method; keyword-only
    parameters have no index.  Dunder methods are skipped.
    """
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef) or f.name.startswith("__"):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in f.decorator_list)
        skip = 1 if id(f) in methods and not static else 0
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        for i in range(first, len(positional)):
            out.append((f.name, i - skip, positional[i].arg, f.lineno))
        for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if d is not None:
                out.append((f.name, None, a.arg, f.lineno))
    return out


def calls_by_name(tree: ast.AST) -> dict[str, list[tuple[float, set]]]:
    """For each called name: (positional count, keyword names) per call.

    A ``*args`` makes the count infinite; a ``**kwargs`` adds the wildcard
    keyword ``None``.
    """
    out: dict = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else \
            fn.attr if isinstance(fn, ast.Attribute) else None
        if name is None:
            continue
        npos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
            else len(node.args)
        out.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    return out


def unpassed(definitions: str, callers: list[str]) -> list[str]:
    """Defaulted parameters in ``definitions`` that no source in ``callers`` passes."""
    calls: dict = {}
    for src in callers:
        for name, seen in calls_by_name(ast.parse(src)).items():
            calls.setdefault(name, []).extend(seen)
    out = []
    for fname, index, param, line in defaulted_parameters(ast.parse(definitions)):
        passed = any(
            (index is not None and npos > index) or param in kws or None in kws
            for npos, kws in calls.get(fname, ())
        )
        if not passed:
            out.append("%s(%s) (line %d)" % (fname, param, line))
    return out


def test_scanner_flags_only_unpassed_defaults():
    defs = (
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n"
        "    def m(self, x=0): pass\n"
        "    def __init__(self, y=0): pass\n"
        "def g(d=0): pass\n"
        "def h(e=0): pass\n"
    )
    calls = "f(1, 2)\nK().m(3)\ng(**opts)\nh(c=1)\n"
    assert unpassed(defs, [calls]) == ["f(c) (line 1)", "h(e) (line 6)"]


def test_every_default_is_passed_somewhere():
    callers = [p.read_text() for d in CALLERS for p in sorted(d.rglob("*.py"))]
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += ["%s: %s" % (path.name, u) for u in unpassed(path.read_text(), callers)]
    assert found == []
