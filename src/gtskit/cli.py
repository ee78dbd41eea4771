"""Command-line driver: parse a document, run a command, emit a report."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .audit import audit_axioms
from .constructions import (
    direct_sum,
    localize,
    product,
    smallify,
    subspace,
    topologize,
)
from .dsl import Document, parse_document
from .errors import GtsError
from .families import show
from .layers import validate_exhaustion, validate_locally_small
from .maps import check_strict_continuity
from .presentation import (
    PiecewiseEssFin,
    is_admissible,
    smallness,
)
from .props import classify_map, separation_report
from . import setexpr as sx
from .sites import (
    check_grothendieck_topology,
    gts_to_site,
    is_sheaf,
    is_subcanonical,
)


class UnknownCommand(GtsError):
    pass


class BadReference(GtsError):
    pass


class MissingNames(GtsError):
    pass


# each command with the fewest names it reads
COMMANDS = {"audit": 1, "check-family": 2, "smallness": 2, "construct": 1,
            "map": 1, "classify": 1, "site": 1, "layers": 1}
# each construction with the fewest space or set names it reads
CONSTRUCTIONS = {"sub": 2, "product": 0, "sum": 0, "smallify": 1,
                 "topologize": 1, "localize": 1}


def _ref(doc: Document, name: str, kind: str):
    table = getattr(doc, kind)
    if name not in table:
        raise BadReference("no %s named %s" % (kind[:-1], name))
    return table[name]


def _verdict(v, **keys) -> dict:
    """A verdict's fields under one command's key names, in keyword order.

    Fields without a key are left out, and so are an empty reason and a
    missing witness.
    """
    out = {}
    for name, key in keys.items():
        value = getattr(v, name)
        if value is not None and value != "":
            out[key] = show(value) if name == "witness" else value
    return out


def _flags(rep) -> dict:
    return {k: _verdict(v, status="status", witness="witness", reason="note")
            for k, v in rep.flags.items()}


def run_command(cmd: str, args: list, doc: Document,
                budget: int = 200, seed: int = 0):
    """Dispatch one command; returns (report dict, exit code)."""
    want = COMMANDS.get(cmd, 0)
    if cmd == "construct" and args:
        want = 1 + CONSTRUCTIONS.get(args[0], 0)
    if len(args) < want:
        raise MissingNames("missing name arguments")
    if cmd == "audit":
        X = _ref(doc, args[0], "spaces")
        rep = audit_axioms(X, budget=budget, seed=seed)
        report = {
            "command": "audit", "space": args[0], "seed": rep.seed,
            "budget": rep.budget, "exhaustive": rep.exhaustive,
            "checks": dict(sorted(rep.pass_counts.items())),
            "violations": [
                {"axiom": v.axiom, "description": v.description,
                 "witness": show(v.witness)}
                for v in rep.violations
            ],
        }
        return report, (0 if rep.ok() else 1)

    if cmd == "check-family":
        X = _ref(doc, args[0], "spaces")
        F = _ref(doc, args[1], "families")
        return {"command": "check-family", "space": args[0], "family": args[1],
                **_verdict(is_admissible(X, F), status="admissible",
                           reason="reason", witness="offending")}, 0

    if cmd == "smallness":
        X = _ref(doc, args[0], "spaces")
        S = _ref(doc, args[1], "sets")
        return {"command": "smallness", "space": args[0], "set": args[1],
                **_verdict(smallness(X, S), status="status",
                           reason="reason", witness="witness")}, 0

    if cmd == "construct":
        return _construct(args, doc)

    if cmd == "map":
        f = _ref(doc, args[0], "maps")
        return {"command": "map", "map": args[0],
                **_verdict(check_strict_continuity(f), status="strictly_continuous",
                           reason="rationale", witness="witness")}, 0

    if cmd == "classify":
        name = args[0]
        kind, obj = doc.lookup(name)
        if kind == "maps":
            rep = classify_map(obj)
        elif kind == "spaces":
            rep = separation_report(obj)
        else:
            raise BadReference(name + " is neither a map nor a space")
        return {"command": "classify", kind[:-1]: name, "flags": _flags(rep)}, 0

    if cmd == "site":
        name = args[0]
        if name in doc.sites:
            st = doc.sites[name]
        else:
            st = gts_to_site(_ref(doc, name, "spaces"))
        rep = check_grothendieck_topology(st.category, st.topology)
        sub = is_subcanonical(st.pair())
        report = {"command": "site", "site": name,
                  "objects": len(st.category.objects),
                  "axioms": _flags(rep),
                  "subcanonical": _verdict(sub, status="status")}
        code = 0 if rep.ok() and sub.yes else 1
        if len(args) > 1:
            F = _ref(doc, args[1], "presheaves")
            report["sheaf"] = {"presheaf": args[1],
                               **_verdict(is_sheaf(st.pair(), F),
                                          status="status", witness="witness")}
        return report, code

    if cmd == "layers":
        X = _ref(doc, args[0], "spaces")
        if isinstance(X.policy, PiecewiseEssFin):
            rep = validate_exhaustion(X, X.policy.exhaustion)
        else:
            rep = validate_locally_small(X)
        return {"command": "layers", "space": args[0], "flags": _flags(rep)}, 0

    raise UnknownCommand(cmd)


def _construct(args, doc: Document):
    op = args[0]
    if op == "sub":
        X = _ref(doc, args[1], "spaces")
        S = _ref(doc, args[2], "sets")
        out = subspace(X, S)
    elif op == "product":
        out, _ = product([_ref(doc, a, "spaces") for a in args[1:]])
    elif op == "sum":
        out = direct_sum([_ref(doc, a, "spaces") for a in args[1:]])
    elif op == "smallify":
        out = smallify(_ref(doc, args[1], "spaces"))
    elif op == "topologize":
        out = topologize(_ref(doc, args[1], "spaces"))
        if callable(out):
            return {"command": "construct", "operation": op,
                    "result": "weak-openness predicate"}, 0
    elif op == "localize":
        out = localize(_ref(doc, args[1], "spaces"))
    else:
        raise UnknownCommand("construct " + op)
    return {"command": "construct", "operation": op,
            "result": out.name or "unnamed",
            "carrier": out.carrier.describe(),
            "opens": type(out.opens).__name__,
            "policy": type(out.policy).__name__,
            "support": sx.render(out.support)}, 0


def emit_report(report: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    lines = []
    _text_lines(report, lines, "")
    return "\n".join(lines)


def _text_lines(obj, lines, indent):
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (indent, k))
                _text_lines(v, lines, indent + "  ")
            else:
                lines.append("%s%s: %s" % (indent, k, v))
    elif isinstance(obj, list):
        if not obj:
            lines.append(indent + "(none)")
        for v in obj:
            _text_lines(v, lines, indent)
    else:
        lines.append("%s%s" % (indent, obj))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gtskit",
        description="check presentations of generalized topological spaces",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("document", help="path to a declaration document")
    parser.add_argument("names", nargs="*", help="declared names the command acts on")
    parser.add_argument("--budget", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    ns = parser.parse_args(argv)

    try:
        with open(ns.document, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    try:
        doc = parse_document(text)
        report, code = run_command(ns.command, ns.names, doc,
                                   budget=ns.budget, seed=ns.seed)
    except GtsError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    try:
        print(emit_report(report, ns.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; keep the interpreter's final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
