import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from gtskit import cli, dsl
from gtskit.dsl import (
    Document,
    ParseError,
    ResolutionError,
    ValidationError,
    emit_document,
    parse_document,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "corpus"

SAMPLE = """
space RSalg { carrier qline; opens canonical-open; cov essfin }
space RTop { carrier qline; opens canonical-open; cov all }
space NatSmall { carrier nat; opens all-sets; cov essfin }
family U = stream shrink(0,1,both,3)
family V = { (0,1) } + stream shrink(0,1,both,3)
set unit-interval : RTop = [0,1]
map id-line : RTop -> RSalg = identity
"""


def test_parse_shipped_example_lines():
    doc = parse_document(SAMPLE)
    assert set(doc.spaces) == {"RSalg", "RTop", "NatSmall"}
    U = doc.families["U"]
    assert not U.finite_part and len(U.streams) == 1
    import gtskit.setexpr as sx
    assert sx.render(U.streams[0].member(3)) == "(1/3,2/3)"


def test_empty_document():
    assert parse_document("") == Document()


def test_round_trip_law():
    doc = parse_document(SAMPLE)
    out = emit_document(doc)
    assert parse_document(out) == doc
    assert emit_document(parse_document(out)) == out


def test_round_trip_on_corpus_files():
    files = sorted(CORPUS.glob("*.gts"))
    assert files, "corpus missing"
    for path in files:
        doc = parse_document(path.read_text())
        out = emit_document(doc)
        assert parse_document(out) == doc, path.name


MALFORMED = {
    "ambiguous-carrier.gts": (ParseError, 1, 7,
                              "carrier of the literal is ambiguous; annotate with : space"),
    "bad-keyword.gts": (ParseError, 1, 1, "found 'wibble' (expected space, family, set, "
                                          "map, exhaustion, site, presheaf)"),
    "bad-side.gts": (ParseError, 1, 19, "bad side 'diag' (expected both, left, right, none)"),
    "missing-semicolon.gts": (ParseError, 1, 25, "found 'opens' (expected ;)"),
    "signed-denominator.gts": (ParseError, 2, 10, "signed denominator"),
    "truncated.gts": (ParseError, 2, 1, "found 'end of input' (expected qline, nat, enum)"),
    "unknown-ref.gts": (ResolutionError, 2, 1, "unknown space: B"),
}


def test_malformed_corpus_gets_positioned_diagnostics():
    files = sorted((CORPUS / "malformed").glob("*.gts"))
    assert [p.name for p in files] == sorted(MALFORMED)
    for path in files:
        kind, line, col, message = MALFORMED[path.name]
        with pytest.raises((ParseError, ResolutionError, ValidationError)) as e:
            parse_document(path.read_text())
        assert type(e.value) is kind, path.name
        assert (e.value.line, e.value.col) == (line, col), path.name
        assert str(e.value) == "line %d, column %d: %s" % (line, col, message), path.name


@pytest.mark.parametrize("rule, message", [
    ("affine{ whole : 1,0 }", "map f: affine rules live on the line"),
    ("affine{ {0} : 1,0 }", "brace literal outside an enumerable carrier"),
    ("const(-1)", "map f: -1 is not a natural number"),
    ("const(zz)", "map f: 'zz' is not a natural number"),
])
def test_map_rules_off_their_carriers_are_reported_at_the_declaration(
        rule, message, tmp_path, capsys):
    # affine pieces are built on the line whatever the domain, so the map
    # reports the domain; a constant must be a point of the codomain
    text = "space N { carrier nat; opens all-sets; cov all }\nmap f : N -> N = " + rule
    with pytest.raises(ValidationError) as e:
        parse_document(text)
    assert str(e.value) == "line 2, column 1: " + message
    doc = tmp_path / "f.gts"
    doc.write_text(text)
    assert cli.main(["map", str(doc), "f"]) == 2
    assert capsys.readouterr().err == "error: line 2, column 1: %s\n" % message


_LINE = "space Q { carrier qline; opens canonical-open; cov essfin }\n"

# each error's class, line, column and message, as the parser gave them
# when it kept every token's position
POSITIONS = [
    ("# a comment\n\n   # another\n\t\n"
     "space A { carrier qline; opens canonical-open cov essfin }\n",
     ParseError, 5, 47, "found 'cov' (expected ;)"),
    ("space A { carrier\n# the carrier is missing",
     ParseError, 2, 25, "found 'end of input' (expected qline, nat, enum)"),
    (_LINE + "\n  set S = [1/0, 2]\n", ParseError, 3, 12, "zero denominator"),
    ("# streams\nfamily F = stream shrink(0, 1, up, 3)",
     ParseError, 2, 19, "bad side 'up' (expected both, left, right, none)"),
    (_LINE + "map f : Q -> Q = affine{ [0,1] : 1/2, +inf }",
     ParseError, 2, 39, "infinite coefficient '+inf'"),
    ("\n\nfamily F = { empty }",
     ParseError, 3, 10, "carrier of the family is ambiguous; annotate with : space"),
    (_LINE + "# again\n  set Q : Q = [0,1]", ValidationError, 3, 3, "duplicate name: Q"),
    (_LINE + "set S : R = [0,1]", ResolutionError, 2, 1, "unknown space: R"),
    (_LINE + "\nspace N { carrier nat; opens all-sets; cov all }\n"
     "  map f : N -> N = affine{ whole : 1,0 }",
     ValidationError, 4, 3, "map f: affine rules live on the line"),
    ("space N { carrier enum(a); opens all-sets; cov all }\nsite S = of N\n\n"
     " presheaf P = functions(S, 0)",
     ValidationError, 4, 2, "presheaf needs at least one value"),
    ("# x\n  set S = [0,1] @ # y", ParseError, 2, 17, "unexpected character '@'"),
]


@pytest.mark.parametrize("text, kind, line, col, message", POSITIONS)
def test_errors_keep_their_positions(text, kind, line, col, message):
    with pytest.raises(kind) as e:
        parse_document(text)
    assert type(e.value) is kind
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value) == "line %d, column %d: %s" % (line, col, message)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_document("space X { carrier qline opens canonical-open; cov essfin }")
    assert e.value.line == 1 and e.value.col == 25
    assert ";" in e.value.expected


@pytest.mark.parametrize("coefficients, col", [("-inf,0", 34), ("1,+inf", 36)])
def test_infinite_affine_coefficients_are_reported_at_the_token(coefficients, col):
    with pytest.raises(ParseError) as e:
        parse_document("space Q { carrier qline; opens canonical-open; cov essfin }\n"
                       "map f : Q -> Q = affine{ whole : %s }" % coefficients)
    assert (e.value.line, e.value.col) == (2, col)
    assert "infinite coefficient" in str(e.value)


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        parse_document(
            "space A { carrier nat; opens all-sets; cov all }\n"
            "set A : A = {0}")


# -- commands -------------------------------------------------------------

def run(cmd, args, text=SAMPLE, **kw):
    return cli.run_command(cmd, args, parse_document(text), **kw)


def test_audit_command_clean():
    report, code = run("audit", ["RSalg"], budget=40, seed=7)
    assert code == 0
    assert report["violations"] == []


def test_check_family_verdicts():
    report, code = run("check-family", ["RSalg", "U"])
    assert code == 0 and report["admissible"] == "No"
    report, code = run("check-family", ["RSalg", "V"])
    assert code == 0 and report["admissible"] == "Yes"


def test_smallness_command():
    report, code = run("smallness", ["RTop", "unit-interval"])
    assert code == 0
    assert report["status"] == "NotSmall"
    assert "witness" in report


def test_map_and_classify_commands():
    report, code = run("map", ["id-line"])
    assert code == 0 and report["strictly_continuous"] == "Yes"
    report, code = run("classify", ["RSalg"])
    assert len(report["flags"]) == 8


def test_construct_command():
    report, code = run("construct", ["smallify", "RTop"])
    assert code == 0 and report["policy"] == "EssFin"


def test_site_command():
    text = ("space Sp { carrier enum(a,b); "
            "opens explicit { empty, {a}, {a,b} }; cov all }")
    report, code = cli.run_command("site", ["Sp"], parse_document(text))
    assert code == 0
    assert report["subcanonical"]["status"] == "Yes"


def test_site_on_finite_support_of_the_naturals():
    text = "space X { carrier nat; opens all-sets; cov all; support {1,2} }"
    report, code = cli.run_command("site", ["X"], parse_document(text))
    assert code == 0
    assert report["objects"] == 4


def test_site_refuses_more_opens_than_it_can_sieve(tmp_path, capsys):
    # 32 opens: filtering every subset of the opens below each open for its
    # sieves would run for hours, so the opens are counted first
    doc = tmp_path / "x.gts"
    doc.write_text("space X { carrier nat; opens all-sets; cov all; support {0,1,2,3,4} }\n")
    start = time.perf_counter()
    assert cli.main(["site", str(doc), "X"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_and_bad_reference():
    with pytest.raises(cli.UnknownCommand):
        run("frobnicate", ["RSalg"])
    with pytest.raises(cli.BadReference):
        run("audit", ["NoSuch"])


def test_json_reports_deterministic():
    r1, _ = run("audit", ["RSalg"], budget=30, seed=3)
    r2, _ = run("audit", ["RSalg"], budget=30, seed=3)
    assert cli.emit_report(r1, "json") == cli.emit_report(r2, "json")
    parsed = json.loads(cli.emit_report(r1, "json"))
    assert parsed["seed"] == 3


def test_constant_map_into_a_topological_space(tmp_path, capsys):
    doc = tmp_path / "const.gts"
    doc.write_text(
        "space NatSmall { carrier nat; opens all-sets; cov essfin }\n"
        "space NatTop { carrier nat; opens all-sets; cov all }\n"
        "map c : NatSmall -> NatTop = const(0)\n")
    assert cli.main(["map", str(doc), "c", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["strictly_continuous"] == "Checked"
    assert cli.main(["classify", str(doc), "c", "--format", "json"]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert flags["strictly_continuous"]["status"] == "Checked"


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    good = tmp_path / "doc.gts"
    good.write_text(SAMPLE)
    assert cli.main(["check-family", str(good), "RSalg", "V"]) == 0
    bad = tmp_path / "bad.gts"
    bad.write_text("wibble")
    assert cli.main(["audit", str(bad), "X"]) == 2
    missing = tmp_path / "nope.gts"
    assert cli.main(["audit", str(missing), "X"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    # a value the grammar accepts but the theory rejects is reported at
    # its declaration
    line_space = "space R { carrier qline; opens canonical-open; cov all }\n"
    nat_space = "space N { carrier nat; opens all-sets; cov all }\n"
    for text, message in (
            (line_space + "set S : R = [-inf,1)", "-inf endpoint must be open"),
            (line_space + "set S : R = (0,+inf]", "+inf endpoint must be open"),
            ("space E { carrier enum(a,b); opens explicit { empty, {c} }; cov all }",
             "atoms outside carrier"),
            ("space E { carrier enum(a,a); opens all-sets; cov all }",
             "pairwise distinct"),
            (nat_space + "map s : N -> N = shift(-1)", "shift must be nonnegative"),
            ("family U = stream shrink(1,0,both,1)", "first member is empty"),
            ("family U = stream shrink(+inf,1,none,3)", "first member is empty"),
            ("family U = stream shrink(0,-inf,none,3)", "first member is empty")):
        bad.write_text(text)
        assert cli.main(["audit", str(bad), "X"]) == 2
        err = capsys.readouterr().err
        where = "error: line %d, column 1: " % (text.count("\n") + 1)
        assert err.startswith(where) and message in err
    spaces = str(CORPUS / "spaces.gts")
    for names in (["sum", "NatSmall", "NatTop"], ["sum"], ["product"]):
        assert cli.main(["construct", spaces] + names) == 2
    err = capsys.readouterr().err
    assert "summand supports must be pairwise disjoint" in err
    assert "needs at least one" in err
    for argv in (["check-family", str(good), "RSalg"], ["construct", spaces],
                 ["construct", spaces, "sub", "NatSmall"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: missing name arguments\n"
    # a reader that goes away before the report is written sees no traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(CORPUS.parent.parent / "src")] + sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gtskit.cli", "audit", spaces, "Chain3"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == ""

    # an IndexError inside a command is a bug, not a missing name
    def broken(*args, **kw):
        raise IndexError("a bug inside the command")

    monkeypatch.setattr(cli, "audit_axioms", broken)
    with pytest.raises(IndexError):
        cli.main(["audit", str(good), "RSalg"])


def test_audit_violation_exit_code():
    # documents validate at parse time, so smuggle in a broken space to
    # confirm the auditor's violations drive exit code 1
    from gtskit.carriers import FiniteEnum
    from gtskit.presentation import All, ExplicitList, GtsPresentation
    import gtskit.setexpr as sx
    c = FiniteEnum(("a", "b"))
    broken = GtsPresentation(
        c, ExplicitList((sx.empty(c), sx.atoms(c, ["a"]), sx.atoms(c, ["b"]))),
        All(), validate=False)
    doc = parse_document("")
    doc._declare("spaces", "Broken", broken)
    report, code = cli.run_command("audit", ["Broken"], doc, budget=40, seed=1)
    assert code == 1
    assert report["violations"]
