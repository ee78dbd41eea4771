"""A line-oriented declaration language for spaces, families, and maps.

Rationals are written p/q, infinities -inf and +inf.  The grammar is
published in docs/grammar.md; rendering is canonical so documents round
trip through parse and emit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .carriers import FiniteEnum, NatFC, QLine
from .errors import GtsError
from .exhaustions import Exhaustion
from .families import FamilyExpr
from .maps import (
    Const,
    FiniteTable,
    Identity,
    NatPerm,
    NatShift,
    PiecewiseAffine,
    SpaceMap,
)
from .presentation import (
    All,
    AllCanonicalOpen,
    AllSets,
    EssCountable,
    EssFin,
    ExplicitList,
    FiniteOrWhole,
    GtsPresentation,
    LocallyEssFin,
    PiecewiseEssFin,
)
from . import setexpr as sx
from .setexpr import NEG_INF, POS_INF, SetExpr
from .sites import function_presheaf, gts_to_site
from .streams import GrowBalls, InitialSegments, ShrinkIntervals, Singletons


class ParseError(GtsError):
    def __init__(self, line, col, message, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        tail = (" (expected %s)" % ", ".join(expected)) if expected else ""
        super().__init__("line %d, column %d: %s%s" % (line, col, message, tail))


class ResolutionError(GtsError):
    def __init__(self, message, line=0, col=0):
        self.line, self.col = line, col
        if line:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)


class ValidationError(GtsError):
    def __init__(self, message, line=0, col=0):
        self.line, self.col = line, col
        if line:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)


# -- tokens ---------------------------------------------------------------

# blanks and comments, then one group per token kind, tried in this order;
# a character no other group takes is unexpected
_TOKEN_RE = re.compile(
    r"""(?:[ \t]+|\#[^\n]*)*
        (?: (\n)
          | (->)
          | ([+-]inf)
          | (-?\d+)
          | ([A-Za-z_]\w*(?:-[A-Za-z_]\w*)*)
          | ([{}()\[\],;:|=+/])
          | (.)
          | \Z)
    """,
    re.VERBOSE,
)
_KINDS = (None, "nl", "arrow", "inf", "int", "name", "punct", "bad")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind is name, int, inf, arrow, punct or end
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _tokenize(text: str) -> list:
    out, line, line_start = [], 1, 0
    for m in _TOKEN_RE.finditer(text):
        i = m.lastindex
        if i is None:  # blanks at the end of the text
            continue
        kind = _KINDS[i]
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        col = m.start(i) - line_start + 1
        if kind == "bad":
            raise ParseError(line, col, "unexpected character %r" % m.group(i))
        out.append(Token(kind, m.group(i), line, col))
    out.append(Token("end", "", line, len(text) - line_start + 1))
    return out


class _Cursor:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.tok = tokens[0]  # the next token

    def next(self) -> Token:
        t = self.tok
        if t.kind != "end":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def expect(self, text: str) -> Token:
        t = self.tok
        if t.text != text:
            raise ParseError(t.line, t.col, "found %r" % (t.text or "end of input"),
                             expected=(text,))
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        t = self.tok
        if t.kind != kind:
            raise ParseError(t.line, t.col, "found %r" % (t.text or "end of input"),
                             expected=(kind,))
        return self.next()


# -- documents ------------------------------------------------------------

@dataclass
class Document:
    spaces: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    exhaustions: dict = field(default_factory=dict)
    sites: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)
    order: list = field(default_factory=list)  # (kind, name)
    annotations: dict = field(default_factory=dict)  # name -> space annotation

    def lookup(self, name: str):
        for kind in ("spaces", "families", "sets", "maps",
                     "exhaustions", "sites", "presheaves"):
            table = getattr(self, kind)
            if name in table:
                return kind, table[name]
        raise ResolutionError("unknown name: " + name)

    def _declare(self, kind: str, name: str, value):
        for table in ("spaces", "families", "sets", "maps",
                      "exhaustions", "sites", "presheaves"):
            if name in getattr(self, table):
                raise ValidationError("duplicate name: " + name)
        getattr(self, kind)[name] = value
        self.order.append((kind, name))

    def __eq__(self, other):
        return isinstance(other, Document) and \
            emit_document(self) == emit_document(other)


def parse_document(text: str) -> Document:
    cur = _Cursor(_tokenize(text))
    doc = Document()
    handlers = {
        "space": _parse_space, "family": _parse_family, "set": _parse_set,
        "map": _parse_map, "exhaustion": _parse_exhaustion,
        "site": _parse_site, "presheaf": _parse_presheaf,
    }
    while cur.tok.kind != "end":
        t = cur.tok
        handler = handlers.get(t.text)
        if handler is not None:
            try:
                handler(cur, doc)
            except (ResolutionError, ValidationError) as e:
                if e.line:
                    raise
                raise type(e)(str(e), t.line, t.col) from None
            except ValueError as e:
                raise ValidationError(str(e), t.line, t.col) from None
        else:
            raise ParseError(
                t.line, t.col, "found %r" % (t.text or "end of input"),
                expected=("space", "family", "set", "map", "exhaustion",
                          "site", "presheaf"))
    return doc


# -- rationals and set literals ------------------------------------------

def _parse_rat(cur: _Cursor):
    t = cur.tok
    if t.kind == "inf":
        cur.next()
        return NEG_INF if t.text == "-inf" else POS_INF
    num = int(cur.expect_kind("int").text)
    if cur.tok.text == "/":
        cur.next()
        den = int(cur.expect_kind("int").text)
        if den == 0:
            raise ParseError(t.line, t.col, "zero denominator")
        return Fraction(num, den)
    return Fraction(num)


@dataclass(frozen=True)
class _SetAst:
    """Carrier-independent shape of a set literal."""
    kind: str  # empty, whole, intervals, brace, cobrace
    parts: tuple = ()

    def infer_carrier(self):
        if self.kind == "intervals":
            return QLine()
        if self.kind == "cobrace":
            return NatFC()
        if self.kind == "brace" and self.parts and \
                all(isinstance(p, int) for p in self.parts):
            return NatFC()
        return None

    def build(self, carrier) -> SetExpr:
        if self.kind == "empty":
            return sx.empty(carrier)
        if self.kind == "whole":
            return sx.whole(carrier)
        if self.kind == "intervals":
            if not isinstance(carrier, QLine):
                raise ValidationError("interval literal outside the line")
            return sx.intervals(self.parts)
        if self.kind == "cobrace":
            if not isinstance(carrier, NatFC):
                raise ValidationError("cofinite literal outside the naturals")
            return sx.nat_cofinite(self.parts)
        if isinstance(carrier, NatFC):
            if not all(isinstance(p, int) for p in self.parts):
                raise ValidationError("non-numeric elements in a naturals literal")
            return sx.nat_finite(self.parts)
        if isinstance(carrier, FiniteEnum):
            return sx.atoms(carrier, [str(p) for p in self.parts])
        raise ValidationError("brace literal outside an enumerable carrier")


def _parse_set_literal(cur: _Cursor) -> _SetAst:
    t = cur.tok
    if t.text == "empty":
        cur.next()
        return _SetAst("empty")
    if t.text == "whole":
        cur.next()
        return _SetAst("whole")
    if t.text == "co" or t.text == "{":
        co = t.text == "co"
        if co:
            cur.next()
        cur.expect("{")
        parts = []
        while cur.tok.text != "}":
            e = cur.next()
            if e.kind == "int":
                parts.append(int(e.text))
            elif e.kind == "name":
                parts.append(e.text)
            else:
                raise ParseError(e.line, e.col, "found %r" % e.text,
                                 expected=("element",))
            if cur.tok.text == ",":
                cur.next()
        cur.expect("}")
        return _SetAst("cobrace" if co else "brace", tuple(parts))
    if t.text in ("(", "["):
        parts = [_parse_interval(cur)]
        while cur.tok.text == "u":
            cur.next()
            parts.append(_parse_interval(cur))
        return _SetAst("intervals", tuple(parts))
    raise ParseError(t.line, t.col, "found %r" % (t.text or "end of input"),
                     expected=("set literal",))


def _parse_interval(cur: _Cursor):
    t = cur.tok
    if t.text not in ("(", "["):
        raise ParseError(t.line, t.col, "found %r" % t.text, expected=("(", "["))
    lo_open = t.text == "("
    cur.next()
    lo = _parse_rat(cur)
    cur.expect(",")
    hi = _parse_rat(cur)
    close = cur.tok
    if close.text not in (")", "]"):
        raise ParseError(close.line, close.col, "found %r" % close.text,
                         expected=(")", "]"))
    cur.next()
    return (lo, hi, lo_open, close.text == ")")


def _build_set(ast: _SetAst, doc: Document, annotation, where: Token) -> SetExpr:
    carrier = None
    if annotation is not None:
        if annotation not in doc.spaces:
            raise ResolutionError("unknown space: " + annotation)
        carrier = doc.spaces[annotation].carrier
    else:
        carrier = ast.infer_carrier()
    if carrier is None:
        raise ParseError(where.line, where.col,
                         "carrier of the literal is ambiguous; annotate with : space")
    return ast.build(carrier)


# -- declarations ---------------------------------------------------------

# the descriptions and policies written as one word, both ways
_OPENS = {"canonical-open": AllCanonicalOpen(), "all-sets": AllSets(),
          "finite-or-whole": FiniteOrWhole()}
_POLICIES = {"essfin": EssFin(), "all": All(), "esscountable": EssCountable()}
_OPENS_WORDS = tuple(_OPENS) + ("explicit",)
_POLICY_WORDS = tuple(_POLICIES) + ("locally", "piecewise")


def _parse_space(cur: _Cursor, doc: Document):
    cur.expect("space")
    name = cur.expect_kind("name").text
    cur.expect("{")
    cur.expect("carrier")
    carrier = _parse_carrier(cur)
    cur.expect(";")
    cur.expect("opens")
    opens = _parse_opens(cur, carrier)
    cur.expect(";")
    cur.expect("cov")
    policy, polref = _parse_policy(cur, doc)
    support = None
    if cur.tok.text == ";":
        cur.next()
        cur.expect("support")
        t = cur.tok
        support = _parse_set_literal(cur).build(carrier)
    cur.expect("}")
    try:
        X = GtsPresentation(carrier, opens, policy, support, name)
    except GtsError as e:
        raise ValidationError("space %s: %s" % (name, e))
    doc._declare("spaces", name, X)
    if polref is not None:
        doc.annotations[name] = polref


def _parse_carrier(cur: _Cursor):
    t = cur.tok
    if t.text == "qline":
        cur.next()
        return QLine()
    if t.text == "nat":
        cur.next()
        return NatFC()
    if t.text == "enum":
        cur.next()
        cur.expect("(")
        atoms = [cur.expect_kind("name").text]
        while cur.tok.text == ",":
            cur.next()
            atoms.append(cur.expect_kind("name").text)
        cur.expect(")")
        return FiniteEnum(tuple(atoms))
    raise ParseError(t.line, t.col, "found %r" % t.text,
                     expected=("qline", "nat", "enum"))


def _parse_opens(cur: _Cursor, carrier):
    t = cur.tok
    if t.text in _OPENS:
        cur.next()
        return _OPENS[t.text]
    if t.text == "explicit":
        cur.next()
        cur.expect("{")
        sets = [_parse_set_literal(cur).build(carrier)]
        while cur.tok.text == ",":
            cur.next()
            sets.append(_parse_set_literal(cur).build(carrier))
        cur.expect("}")
        return ExplicitList(tuple(sets))
    raise ParseError(t.line, t.col, "found %r" % t.text, expected=_OPENS_WORDS)


def _parse_policy(cur: _Cursor, doc: Document):
    t = cur.tok
    if t.text in _POLICIES:
        cur.next()
        return _POLICIES[t.text], None
    if t.text in ("locally", "piecewise"):
        cur.next()
        cur.expect("(")
        ref = cur.expect_kind("name").text
        cur.expect(")")
        if t.text == "locally":
            if ref not in doc.families:
                raise ResolutionError("unknown family: " + ref)
            return LocallyEssFin(doc.families[ref]), ("locally", ref)
        if ref not in doc.exhaustions:
            raise ResolutionError("unknown exhaustion: " + ref)
        return PiecewiseEssFin(doc.exhaustions[ref]), ("piecewise", ref)
    raise ParseError(t.line, t.col, "found %r" % t.text, expected=_POLICY_WORDS)


def _parse_family(cur: _Cursor, doc: Document):
    cur.expect("family")
    name = cur.expect_kind("name").text
    annotation = None
    if cur.tok.text == ":":
        cur.next()
        annotation = cur.expect_kind("name").text
    eq = cur.expect("=")
    asts, streams = [], []
    while True:
        t = cur.tok
        if t.text == "stream":
            cur.next()
            streams.append(_parse_stream(cur))
        elif t.text == "{":
            cur.next()
            while cur.tok.text != "}":
                asts.append(_parse_set_literal(cur))
                if cur.tok.text == ",":
                    cur.next()
            cur.expect("}")
        else:
            raise ParseError(t.line, t.col, "found %r" % (t.text or "end of input"),
                             expected=("{", "stream"))
        if cur.tok.text == "+":
            cur.next()
            continue
        break
    carrier = None
    if annotation is not None:
        if annotation not in doc.spaces:
            raise ResolutionError("unknown space: " + annotation)
        carrier = doc.spaces[annotation].carrier
    elif streams:
        carrier = streams[0].carrier
    else:
        for a in asts:
            carrier = carrier or a.infer_carrier()
    if carrier is None:
        raise ParseError(eq.line, eq.col,
                         "carrier of the family is ambiguous; annotate with : space")
    members = tuple(a.build(carrier) for a in asts)
    for s in streams:
        if s.carrier != carrier:
            raise ValidationError("stream on the wrong carrier in family " + name)
    fam = FamilyExpr(carrier, members, tuple(streams))
    doc._declare("families", name, fam)
    if annotation:
        doc.annotations[name] = annotation


_SIDES = {"both": (1, 1), "left": (1, 0), "right": (0, 1), "none": (0, 0)}


def _parse_stream(cur: _Cursor):
    t = cur.tok
    if t.text == "shrink":
        cur.next()
        cur.expect("(")
        a = _parse_rat(cur)
        cur.expect(",")
        b = _parse_rat(cur)
        cur.expect(",")
        side = cur.expect_kind("name").text
        if side not in _SIDES:
            raise ParseError(t.line, t.col, "bad side %r" % side,
                             expected=tuple(_SIDES))
        cur.expect(",")
        n0 = int(cur.expect_kind("int").text)
        cur.expect(")")
        rl, rr = _SIDES[side]
        return ShrinkIntervals(a, b, Fraction(rl), Fraction(rr), n0)
    if t.text == "growballs":
        cur.next()
        cur.expect("(")
        n0 = int(cur.expect_kind("int").text)
        cur.expect(")")
        return GrowBalls(n0)
    if t.text == "initseg":
        cur.next()
        cur.expect("(")
        n0 = int(cur.expect_kind("int").text)
        cur.expect(")")
        return InitialSegments(n0)
    if t.text == "singletons":
        cur.next()
        return Singletons()
    raise ParseError(t.line, t.col, "found %r" % t.text,
                     expected=("shrink", "growballs", "initseg", "singletons"))


def _parse_set(cur: _Cursor, doc: Document):
    cur.expect("set")
    name = cur.expect_kind("name").text
    annotation = None
    if cur.tok.text == ":":
        cur.next()
        annotation = cur.expect_kind("name").text
    where = cur.expect("=")
    ast = _parse_set_literal(cur)
    S = _build_set(ast, doc, annotation, where)
    doc._declare("sets", name, S)
    if annotation:
        doc.annotations[name] = annotation


def _parse_map(cur: _Cursor, doc: Document):
    cur.expect("map")
    name = cur.expect_kind("name").text
    cur.expect(":")
    dn = cur.expect_kind("name").text
    cur.expect_kind("arrow")
    cn = cur.expect_kind("name").text
    cur.expect("=")
    for ref in (dn, cn):
        if ref not in doc.spaces:
            raise ResolutionError("unknown space: " + ref)
    dom, cod = doc.spaces[dn], doc.spaces[cn]
    rule = _parse_rule(cur, dom)
    try:
        f = SpaceMap(dom, cod, rule, name=name)
    except GtsError as e:
        raise ValidationError("map %s: %s" % (name, e))
    doc._declare("maps", name, f)
    doc.annotations[name] = (dn, cn)


def _parse_rule(cur: _Cursor, dom: GtsPresentation):
    t = cur.tok
    if t.text == "identity":
        cur.next()
        return Identity()
    if t.text == "const":
        cur.next()
        cur.expect("(")
        v = cur.next()
        cur.expect(")")
        return Const(int(v.text) if v.kind == "int" else v.text)
    if t.text == "shift":
        cur.next()
        cur.expect("(")
        k = int(cur.expect_kind("int").text)
        cur.expect(")")
        return NatShift(k)
    if t.text in ("perm", "table"):
        cur.next()
        cur.expect("{")
        pairs = []
        while cur.tok.text != "}":
            a = cur.next()
            cur.expect(":")
            b = cur.next()
            if t.text == "perm":
                pairs.append((int(a.text), int(b.text)))
            else:
                pairs.append((a.text, b.text))
            if cur.tok.text == ",":
                cur.next()
        cur.expect("}")
        return NatPerm(tuple(pairs)) if t.text == "perm" else FiniteTable(tuple(pairs))
    if t.text == "affine":
        cur.next()
        cur.expect("{")
        pieces = []
        while True:
            ast = _parse_set_literal(cur)
            cur.expect(":")
            p = _parse_rat(cur)
            cur.expect(",")
            q = _parse_rat(cur)
            pieces.append((ast.build(dom.carrier), p, q))
            if cur.tok.text == ";":
                cur.next()
                continue
            break
        cur.expect("}")
        return PiecewiseAffine(tuple(pieces))
    raise ParseError(t.line, t.col, "found %r" % t.text,
                     expected=("identity", "const", "shift", "perm", "table", "affine"))


def _parse_exhaustion(cur: _Cursor, doc: Document):
    cur.expect("exhaustion")
    name = cur.expect_kind("name").text
    cur.expect("=")
    cur.expect("chain")
    t = cur.expect("initseg")
    cur.expect("(")
    n0 = int(cur.expect_kind("int").text)
    cur.expect(")")
    doc._declare("exhaustions", name, Exhaustion(chain=InitialSegments(n0)))


def _parse_site(cur: _Cursor, doc: Document):
    cur.expect("site")
    name = cur.expect_kind("name").text
    cur.expect("=")
    cur.expect("of")
    ref = cur.expect_kind("name").text
    if ref not in doc.spaces:
        raise ResolutionError("unknown space: " + ref)
    try:
        st = gts_to_site(doc.spaces[ref])
    except GtsError as e:
        raise ValidationError("site %s: %s" % (name, e))
    doc._declare("sites", name, st)
    doc.annotations[name] = ref


def _parse_presheaf(cur: _Cursor, doc: Document):
    cur.expect("presheaf")
    name = cur.expect_kind("name").text
    cur.expect("=")
    cur.expect("functions")
    cur.expect("(")
    ref = cur.expect_kind("name").text
    cur.expect(",")
    k = int(cur.expect_kind("int").text)
    cur.expect(")")
    if ref not in doc.sites:
        raise ResolutionError("unknown site: " + ref)
    if k < 1:
        raise ValidationError("presheaf needs at least one value")
    F = function_presheaf(doc.sites[ref], tuple(str(i) for i in range(k)))
    doc._declare("presheaves", name, F)
    doc.annotations[name] = (ref, k)


# -- emission -------------------------------------------------------------

def emit_document(doc: Document) -> str:
    lines = []
    for kind, name in doc.order:
        obj = getattr(doc, kind)[name]
        if kind == "spaces":
            lines.append(_emit_space(name, obj, doc.annotations.get(name)))
        elif kind == "families":
            lines.append(_emit_family(name, obj, doc.annotations.get(name)))
        elif kind == "sets":
            ann = doc.annotations.get(name)
            mid = (" : " + ann) if ann else ""
            lines.append("set %s%s = %s" % (name, mid, sx.render(obj)))
        elif kind == "maps":
            dn, cn = doc.annotations[name]
            lines.append("map %s : %s -> %s = %s"
                         % (name, dn, cn, _emit_rule(obj.rule)))
        elif kind == "exhaustions":
            lines.append("exhaustion %s = chain initseg(%d)"
                         % (name, obj.chain.n0))
        elif kind == "sites":
            lines.append("site %s = of %s" % (name, doc.annotations[name]))
        elif kind == "presheaves":
            ref, k = doc.annotations[name]
            lines.append("presheaf %s = functions(%s, %d)" % (name, ref, k))
    return "\n".join(lines) + ("\n" if lines else "")


def _emit_space(name: str, X: GtsPresentation, polref=None) -> str:
    carrier = _emit_carrier(X.carrier)
    opens = _emit_opens(X.opens)
    policy = "%s(%s)" % polref if polref else _emit_policy(X.policy)
    support = ""
    if X.support != sx.whole(X.carrier):
        support = "; support %s" % sx.render(X.support)
    return "space %s { carrier %s; opens %s; cov %s%s }" % (
        name, carrier, opens, policy, support)


def _emit_carrier(c) -> str:
    if isinstance(c, QLine):
        return "qline"
    if isinstance(c, NatFC):
        return "nat"
    if isinstance(c, FiniteEnum):
        return "enum(%s)" % ",".join(c.elements)
    raise ValidationError("carrier has no textual form")


def _emit_opens(op) -> str:
    if isinstance(op, ExplicitList):
        return "explicit { %s }" % ", ".join(sx.render(S) for S in op.sets)
    for word, named in _OPENS.items():
        if op == named:
            return word
    raise ValidationError("opens description has no textual form")


def _emit_policy(p) -> str:
    for word, named in _POLICIES.items():
        if p == named:
            return word
    raise ValidationError("policy has no standalone textual form")


def _emit_family(name: str, fam: FamilyExpr, annotation) -> str:
    mid = (" : " + annotation) if annotation else ""
    terms = []
    if fam.finite_part or not fam.streams:
        terms.append("{ %s }" % ", ".join(sx.render(S) for S in fam.finite_part))
    for s in fam.streams:
        terms.append("stream " + _emit_stream(s))
    return "family %s%s = %s" % (name, mid, " + ".join(terms))


def _emit_stream(s) -> str:
    if isinstance(s, ShrinkIntervals):
        side = {v: k for k, v in _SIDES.items()}[
            (int(bool(s.rate_left)), int(bool(s.rate_right)))]
        return "shrink(%s,%s,%s,%d)" % (sx.rq(s.a), sx.rq(s.b), side, s.n0)
    if isinstance(s, GrowBalls):
        return "growballs(%d)" % s.n0
    if isinstance(s, InitialSegments):
        return "initseg(%d)" % s.n0
    if isinstance(s, Singletons):
        return "singletons"
    raise ValidationError("stream has no textual form")


def _emit_rule(r) -> str:
    if isinstance(r, Identity):
        return "identity"
    if isinstance(r, Const):
        return "const(%s)" % r.value
    if isinstance(r, NatShift):
        return "shift(%d)" % r.k
    if isinstance(r, NatPerm):
        return "perm{%s}" % ",".join("%d:%d" % ab for ab in sorted(r.table))
    if isinstance(r, FiniteTable):
        return "table{%s}" % ",".join("%s:%s" % ab for ab in sorted(r.table))
    if isinstance(r, PiecewiseAffine):
        body = "; ".join(
            "%s: %s,%s" % (sx.render(P), sx.rq(p), sx.rq(q))
            for P, p, q in r.pieces)
        return "affine{ %s }" % body
    raise ValidationError("rule has no textual form")
