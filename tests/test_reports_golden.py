"""Byte-identity of every CLI report on the shipped corpus.

For every command on every name declared in ``docs/corpus/*.gts`` the
fixture ``golden/reports.json`` holds the JSON report, the text report and
the exit code, or the ``error:`` line of a request that exits 2.  The
reports are produced in fresh interpreters under two string-hash seeds, so
a report that depends on set iteration order fails here.

Regenerate the fixture only when a report is meant to change:

    PYTHONPATH=src python tests/test_reports_golden.py > tests/golden/reports.json
"""

import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "docs" / "corpus"
FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "reports.json"

CONSTRUCT_ONE = ("smallify", "topologize", "localize", "product", "sum")


def requests():
    """(document, names) for every command on every declared name."""
    from gtskit.dsl import parse_document
    out = []
    for path in sorted(CORPUS.glob("*.gts")):
        doc = parse_document(path.read_text())
        rel = path.relative_to(ROOT).as_posix()
        for X in doc.spaces:
            for cmd in ("audit", "layers", "classify", "site"):
                out.append((rel, [cmd, X]))
            for op in CONSTRUCT_ONE:
                out.append((rel, ["construct", op, X]))
            for F in doc.families:
                out.append((rel, ["check-family", X, F]))
            for S in doc.sets:
                out.append((rel, ["smallness", X, S]))
                out.append((rel, ["construct", "sub", X, S]))
        for f in doc.maps:
            out.extend([(rel, ["map", f]), (rel, ["classify", f])])
        for st in doc.sites:
            out.append((rel, ["site", st]))
            for P in doc.presheaves:
                out.append((rel, ["site", st, P]))
    return out


def _run(argv):
    from gtskit import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def collect():
    os.chdir(ROOT)
    results = []
    for doc, names in requests():
        cmd, args = names[0], names[1:]
        entry = {"request": " ".join([cmd, doc] + args)}
        code, out, err = _run([cmd, doc] + args + ["--format", "json"])
        entry["code"] = code
        if code == 2:
            entry["error"] = err
        else:
            entry["json"] = out
            tcode, entry["text"], _ = _run([cmd, doc] + args)
            assert tcode == code, entry["request"]
        results.append(entry)
    return results


def test_reports_match_golden_under_two_hash_seeds():
    want = json.loads(FIXTURE.read_text())
    procs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + sys.path))
        procs[seed] = subprocess.Popen(
            [sys.executable, __file__], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for seed, proc in procs.items():
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        got = json.loads(out)
        assert [g["request"] for g in got] == [w["request"] for w in want]
        for g, w in zip(got, want):
            assert g == w, "PYTHONHASHSEED=%s: %s" % (seed, g["request"])


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1))
