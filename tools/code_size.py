"""Print the size of each module of src/gtskit and of the whole package.

    python3 tools/code_size.py [source directory]

Per module, and in total, the columns are:

* physical lines;
* logical lines (``tokenize`` NEWLINE tokens, so a statement continued
  over several lines counts once and blank or comment lines not at all);
* ``isinstance`` calls (``ast``);
* import statements inside function bodies.

Only the standard library is used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("physical", "logical", "isinstance", "fn-imports")


def measure(source: str) -> tuple:
    """(physical, logical, isinstance calls, imports in functions) of source."""
    logical = sum(t.type == tokenize.NEWLINE
                  for t in tokenize.generate_tokens(io.StringIO(source).readline))
    tree = ast.parse(source)
    calls = sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance" for n in ast.walk(tree))
    imports = len({id(n) for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))})
    return len(source.splitlines()), logical, calls, imports


def main(argv) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "gtskit"
    rows = [(p.name, measure(p.read_text())) for p in sorted(src.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(m for _, m in rows))))))
    width = max(len(name) for name, _ in rows)
    print("%-*s %s" % (width, "module", " ".join("%10s" % c for c in COLUMNS)))
    for name, m in rows:
        print("%-*s %s" % (width, name, " ".join("%10d" % v for v in m)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
