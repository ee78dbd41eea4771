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


class _PositionedError(GtsError):
    """An error in a document, at a line and column once one is known."""

    def __init__(self, message, line=0, col=0):
        self.line, self.col = line, col
        if line:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)


class ParseError(_PositionedError):
    def __init__(self, line, col, message, expected=()):
        self.expected = tuple(expected)
        tail = (" (expected %s)" % ", ".join(expected)) if expected else ""
        super().__init__(message + tail, line, col)


class ResolutionError(_PositionedError):
    pass


class ValidationError(_PositionedError):
    pass


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


def _unexpected(t: Token, *expected) -> ParseError:
    return ParseError(t.line, t.col, "found %r" % (t.text or "end of input"), expected)


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

    # a token that expect or expect_kind takes is never the end token, so
    # they advance without next's test

    def expect(self, *texts) -> Token:
        """The next token, which must have one of these texts."""
        t = self.tok
        if t.text not in texts:
            raise _unexpected(t, *texts)
        self.i += 1
        self.tok = self.toks[self.i]
        return t

    def expect_kind(self, kind: str) -> Token:
        t = self.tok
        if t.kind != kind:
            raise _unexpected(t, kind)
        self.i += 1
        self.tok = self.toks[self.i]
        return t


def _separated(cur: _Cursor, item, sep: str, *args) -> list:
    """item (sep item)*, each item read by item(cur, *args)."""
    items = [item(cur, *args)]
    while cur.tok.text == sep:
        cur.next()
        items.append(item(cur, *args))
    return items


def _until(cur: _Cursor, item, close: str, *args) -> list:
    """item* close, the items read by item(cur, *args) and optionally
    separated by commas."""
    items = []
    while cur.tok.text != close:
        items.append(item(cur, *args))
        if cur.tok.text == ",":
            cur.next()
    cur.next()  # the close
    return items


def _parse_int_arg(cur: _Cursor) -> int:
    """( int )"""
    cur.expect("(")
    n = int(cur.expect_kind("int").text)
    cur.expect(")")
    return n


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
        for kind, _ in _DECLARATIONS.values():
            table = getattr(self, kind)
            if name in table:
                return kind, table[name]
        raise ResolutionError("unknown name: " + name)

    def _ref(self, keyword: str, name: str):
        """The declared object called name, of the kind keyword declares."""
        table = getattr(self, _DECLARATIONS[keyword][0])
        if name not in table:
            raise ResolutionError("unknown %s: %s" % (keyword, name))
        return table[name]

    def _declare(self, kind: str, name: str, value):
        for table, _ in _DECLARATIONS.values():
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
    while cur.tok.kind != "end":
        t = cur.expect(*_KEYWORDS)
        try:
            _DECLARATIONS[t.text][1](cur, doc)
        except _PositionedError as e:
            if e.line:
                raise
            raise type(e)(str(e), t.line, t.col) from None
        except ValueError as e:
            raise ValidationError(str(e), t.line, t.col) from None
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
        parts = _until(cur, _parse_element, "}")
        return _SetAst("cobrace" if co else "brace", tuple(parts))
    if t.text in ("(", "["):
        return _SetAst("intervals", tuple(_separated(cur, _parse_interval, "u")))
    raise _unexpected(t, "set literal")


def _parse_element(cur: _Cursor):
    e = cur.next()
    if e.kind == "int":
        return int(e.text)
    if e.kind == "name":
        return e.text
    raise _unexpected(e, "element")


def _parse_interval(cur: _Cursor):
    lo_open = cur.expect("(", "[").text == "("
    lo = _parse_rat(cur)
    cur.expect(",")
    hi = _parse_rat(cur)
    return (lo, hi, lo_open, cur.expect(")", "]").text == ")")


def _parse_set_in(cur: _Cursor, carrier) -> SetExpr:
    return _parse_set_literal(cur).build(carrier)


# -- declarations ---------------------------------------------------------

# the descriptions and policies written as one word, both ways
_OPENS = {"canonical-open": AllCanonicalOpen(), "all-sets": AllSets(),
          "finite-or-whole": FiniteOrWhole()}
_POLICIES = {"essfin": EssFin(), "all": All(), "esscountable": EssCountable()}
_OPENS_WORDS = tuple(_OPENS) + ("explicit",)
_POLICY_WORDS = tuple(_POLICIES) + ("locally", "piecewise")


def _parse_header(cur: _Cursor):
    """name [: space] =, as the name, the space's name or None, and the =."""
    name = cur.expect_kind("name").text
    annotation = None
    if cur.tok.text == ":":
        cur.next()
        annotation = cur.expect_kind("name").text
    return name, annotation, cur.expect("=")


def _resolve_carrier(doc: Document, annotation, inferred, eq: Token, what: str):
    """The annotated space's carrier, else the one the literals imply."""
    if annotation is not None:
        return doc._ref("space", annotation).carrier
    if inferred is None:
        raise ParseError(eq.line, eq.col,
                         "carrier of the %s is ambiguous; annotate with : space" % what)
    return inferred


def _parse_space(cur: _Cursor, doc: Document):
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
        support = _parse_set_in(cur, carrier)
    cur.expect("}")
    try:
        X = GtsPresentation(carrier, opens, policy, support, name)
    except GtsError as e:
        raise ValidationError("space %s: %s" % (name, e))
    doc._declare("spaces", name, X)
    if polref is not None:
        doc.annotations[name] = polref


def _parse_carrier(cur: _Cursor):
    t = cur.expect("qline", "nat", "enum")
    if t.text == "qline":
        return QLine()
    if t.text == "nat":
        return NatFC()
    cur.expect("(")
    atoms = _separated(cur, _parse_name, ",")
    cur.expect(")")
    return FiniteEnum(tuple(atoms))


def _parse_name(cur: _Cursor) -> str:
    return cur.expect_kind("name").text


def _parse_opens(cur: _Cursor, carrier):
    t = cur.expect(*_OPENS_WORDS)
    if t.text in _OPENS:
        return _OPENS[t.text]
    cur.expect("{")
    sets = _separated(cur, _parse_set_in, ",", carrier)
    cur.expect("}")
    return ExplicitList(tuple(sets))


def _parse_policy(cur: _Cursor, doc: Document):
    t = cur.expect(*_POLICY_WORDS)
    if t.text in _POLICIES:
        return _POLICIES[t.text], None
    cur.expect("(")
    ref = cur.expect_kind("name").text
    cur.expect(")")
    if t.text == "locally":
        return LocallyEssFin(doc._ref("family", ref)), ("locally", ref)
    return PiecewiseEssFin(doc._ref("exhaustion", ref)), ("piecewise", ref)


def _parse_family(cur: _Cursor, doc: Document):
    name, annotation, eq = _parse_header(cur)
    asts, streams = [], []

    def term(cur):
        if cur.expect("{", "stream").text == "{":
            asts.extend(_until(cur, _parse_set_literal, "}"))
        else:
            streams.append(_parse_stream(cur))

    _separated(cur, term, "+")
    inferred = streams[0].carrier if streams else None
    for a in asts:
        inferred = inferred or a.infer_carrier()
    carrier = _resolve_carrier(doc, annotation, inferred, eq, "family")
    members = tuple(a.build(carrier) for a in asts)
    for s in streams:
        if s.carrier != carrier:
            raise ValidationError("stream on the wrong carrier in family " + name)
    doc._declare("families", name, FamilyExpr(carrier, members, tuple(streams)))
    if annotation:
        doc.annotations[name] = annotation


_SIDES = {"both": (1, 1), "left": (1, 0), "right": (0, 1), "none": (0, 0)}


def _parse_stream(cur: _Cursor):
    t = cur.expect("shrink", "growballs", "initseg", "singletons")
    if t.text == "growballs":
        return GrowBalls(_parse_int_arg(cur))
    if t.text == "initseg":
        return InitialSegments(_parse_int_arg(cur))
    if t.text == "singletons":
        return Singletons()
    cur.expect("(")
    a = _parse_rat(cur)
    cur.expect(",")
    b = _parse_rat(cur)
    cur.expect(",")
    side = cur.expect_kind("name").text
    if side not in _SIDES:
        raise ParseError(t.line, t.col, "bad side %r" % side, expected=tuple(_SIDES))
    cur.expect(",")
    n0 = int(cur.expect_kind("int").text)
    cur.expect(")")
    rl, rr = _SIDES[side]
    return ShrinkIntervals(a, b, Fraction(rl), Fraction(rr), n0)


def _parse_set(cur: _Cursor, doc: Document):
    name, annotation, eq = _parse_header(cur)
    ast = _parse_set_literal(cur)
    carrier = _resolve_carrier(doc, annotation, ast.infer_carrier(), eq, "literal")
    doc._declare("sets", name, ast.build(carrier))
    if annotation:
        doc.annotations[name] = annotation


def _parse_map(cur: _Cursor, doc: Document):
    name = cur.expect_kind("name").text
    cur.expect(":")
    dn = cur.expect_kind("name").text
    cur.expect_kind("arrow")
    cn = cur.expect_kind("name").text
    cur.expect("=")
    dom, cod = doc._ref("space", dn), doc._ref("space", cn)
    rule = _parse_rule(cur, dom)
    try:
        f = SpaceMap(dom, cod, rule, name=name)
    except GtsError as e:
        raise ValidationError("map %s: %s" % (name, e))
    doc._declare("maps", name, f)
    doc.annotations[name] = (dn, cn)


# the rules written as pairs: how a pair's two texts read, and the rule
_PAIR_RULES = {"perm": (int, NatPerm), "table": (str, FiniteTable)}


def _parse_rule(cur: _Cursor, dom: GtsPresentation):
    t = cur.expect("identity", "const", "shift", "perm", "table", "affine")
    if t.text == "identity":
        return Identity()
    if t.text == "const":
        cur.expect("(")
        v = cur.next()
        cur.expect(")")
        return Const(int(v.text) if v.kind == "int" else v.text)
    if t.text == "shift":
        return NatShift(_parse_int_arg(cur))
    cur.expect("{")
    if t.text in _PAIR_RULES:
        read, rule = _PAIR_RULES[t.text]
        return rule(tuple(_until(cur, _parse_pair, "}", read)))
    pieces = _separated(cur, _parse_affine_piece, ";", dom.carrier)
    cur.expect("}")
    return PiecewiseAffine(tuple(pieces))


def _parse_pair(cur: _Cursor, read):
    """a : b, two tokens of any kind, each text read by read."""
    a = cur.next()
    cur.expect(":")
    b = cur.next()
    return read(a.text), read(b.text)


def _parse_affine_piece(cur: _Cursor, carrier):
    """setlit : rat , rat"""
    ast = _parse_set_literal(cur)
    cur.expect(":")
    p = _parse_rat(cur)
    cur.expect(",")
    q = _parse_rat(cur)
    return ast.build(carrier), p, q


def _parse_exhaustion(cur: _Cursor, doc: Document):
    name = cur.expect_kind("name").text
    cur.expect("=")
    cur.expect("chain")
    cur.expect("initseg")
    doc._declare("exhaustions", name, Exhaustion(chain=InitialSegments(_parse_int_arg(cur))))


def _parse_site(cur: _Cursor, doc: Document):
    name = cur.expect_kind("name").text
    cur.expect("=")
    cur.expect("of")
    ref = cur.expect_kind("name").text
    X = doc._ref("space", ref)
    try:
        st = gts_to_site(X)
    except GtsError as e:
        raise ValidationError("site %s: %s" % (name, e))
    doc._declare("sites", name, st)
    doc.annotations[name] = ref


def _parse_presheaf(cur: _Cursor, doc: Document):
    name = cur.expect_kind("name").text
    cur.expect("=")
    cur.expect("functions")
    cur.expect("(")
    ref = cur.expect_kind("name").text
    cur.expect(",")
    k = int(cur.expect_kind("int").text)
    cur.expect(")")
    site = doc._ref("site", ref)
    if k < 1:
        raise ValidationError("presheaf needs at least one value")
    F = function_presheaf(site, tuple(str(i) for i in range(k)))
    doc._declare("presheaves", name, F)
    doc.annotations[name] = (ref, k)


# each declaration's keyword, the Document table it fills and its parser
_DECLARATIONS = {
    "space": ("spaces", _parse_space), "family": ("families", _parse_family),
    "set": ("sets", _parse_set), "map": ("maps", _parse_map),
    "exhaustion": ("exhaustions", _parse_exhaustion), "site": ("sites", _parse_site),
    "presheaf": ("presheaves", _parse_presheaf),
}
_KEYWORDS = tuple(_DECLARATIONS)


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
