"""A line-oriented declaration language for spaces, families, and maps.

Rationals are written p/q, infinities -inf and +inf.  The grammar is
published in docs/grammar.md; rendering is canonical so documents round
trip through parse and emit.

Each word that starts a carrier, an opens description, a stream, a map
rule or a declaration is one entry of its shape's table: the class the
word builds, the reader of the text after the word and the writer of that
text.  The parser expects the words of a table, in the table's order, and
the emitter looks up the class of an object.
"""

from __future__ import annotations

import itertools
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

# each token kind's pattern, tried in this order: at most one of the first
# five matches at any place, a character none of them takes is bad, and the
# empty text ends the document
_KINDS = {"punct": r"[{}()\[\],;:|=/]|\+(?!inf)", "name": r"[A-Za-z_]\w*(?:-[A-Za-z_]\w*)*",
          "int": r"-?\d+", "arrow": r"->", "inf": r"[+-]inf", "bad": r".", "end": r""}
# blanks, newlines and comments, then one token's text
_TOKEN_RE = re.compile(r"[ \t\n]*(?:\#[^\n]*[ \t\n]*)*(%s)" % "|".join(_KINDS.values()))
_KIND_RE = re.compile("|".join("(?P<%s>%s)" % kp for kp in _KINDS.items()))
# a token that starts with one of these characters has that character's
# kind; a sign may start an int, an arrow or an infinity
_FIRST = {c: _KIND_RE.fullmatch(c).lastgroup for c in map(chr, range(33, 127)) if c not in "+-#"}


def _tokenize(text: str):
    """The token texts of text, the last one empty, and the kind of each
    distinct text; a bad character is reported before any parsing."""
    # after a blank or a comment the end matches twice, so one is added and
    # one match dropped; the blank is not in the text _position scans
    toks = _TOKEN_RE.findall(text + " ")[:-1]
    kinds = {t: _FIRST.get(t[:1]) or _KIND_RE.fullmatch(t).lastgroup for t in set(toks)}
    if "bad" in kinds.values():
        i = next(i for i, t in enumerate(toks) if kinds[t] == "bad")
        raise ParseError(*_position(text, i), "unexpected character %r" % toks[i])
    return toks, kinds


def _position(text: str, i: int) -> tuple:
    """The line and column of the i-th token of text, found by a rescan."""
    start = next(itertools.islice(_TOKEN_RE.finditer(text), i, None)).start(1)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class _Cursor:
    """The tokens of a document, walked in order.  A token is its text; its
    line and column are found only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.toks, self.kinds = _tokenize(text)
        self.i = 0
        self.tok = self.toks[0]  # the next token

    def at(self, i: int) -> tuple:
        return _position(self.text, i)

    def unexpected(self, *expected) -> ParseError:
        return ParseError(*self.at(self.i), "found %r" % (self.tok or "end of input"),
                          expected)

    def next(self) -> str:
        t = self.tok
        if t:
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    # a token that expect or expect_kind takes is never the end token, so
    # they advance without next's test

    def expect(self, *texts) -> str:
        """The next token, which must be one of texts."""
        t = self.tok
        if t not in texts:
            raise self.unexpected(*texts)
        self.i += 1
        self.tok = self.toks[self.i]
        return t

    def expect_kind(self, kind: str) -> str:
        t = self.tok
        if self.kinds[t] != kind:
            raise self.unexpected(kind)
        self.i += 1
        self.tok = self.toks[self.i]
        return t


def _separated(cur: _Cursor, item, sep: str, *args) -> list:
    """item (sep item)*, each item read by item(cur, *args)."""
    items = [item(cur, *args)]
    while cur.tok == sep:
        cur.next()
        items.append(item(cur, *args))
    return items


def _until(cur: _Cursor, item, close: str, *args) -> list:
    """item* close, the items read by item(cur, *args) and optionally
    separated by commas."""
    items = []
    while cur.tok != close:
        items.append(item(cur, *args))
        if cur.tok == ",":
            cur.next()
    cur.next()  # the close
    return items


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
    names: set = field(default_factory=set, repr=False)  # every declared name

    def lookup(self, name: str):
        for kind, _, _ in _DECLARATIONS.values():
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
        if name in self.names:
            raise ValidationError("duplicate name: " + name)
        self.names.add(name)
        getattr(self, kind)[name] = value
        self.order.append((kind, name))

    def __eq__(self, other):
        return isinstance(other, Document) and \
            emit_document(self) == emit_document(other)


def parse_document(text: str) -> Document:
    cur = _Cursor(text)
    doc = Document()
    while cur.tok:
        k = cur.i  # the keyword, where an error without a position is reported
        kind, read, _ = _DECLARATIONS[cur.expect(*_DECLARATIONS)]
        try:
            name = cur.expect_kind("name")
            obj, annotation = read(cur, doc, name)
            doc._declare(kind, name, obj)
        except _PositionedError as e:
            if e.line:
                raise
            raise type(e)(str(e), *cur.at(k)) from None
        except ValueError as e:
            raise ValidationError(str(e), *cur.at(k)) from None
        if annotation is not None:
            doc.annotations[name] = annotation
    return doc


# -- rationals and set literals ------------------------------------------

def _parse_rat(cur: _Cursor):
    k, t = cur.i, cur.tok
    if cur.kinds[t] == "inf":
        cur.next()
        return NEG_INF if t == "-inf" else POS_INF
    num = int(cur.expect_kind("int"))
    if cur.tok == "/":
        cur.next()
        den = cur.expect_kind("int")
        if den[0] == "-":
            raise ParseError(*cur.at(k), "signed denominator")
        if int(den) == 0:
            raise ParseError(*cur.at(k), "zero denominator")
        return Fraction(num, int(den))
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
    if t in ("empty", "whole"):
        return _SetAst(cur.next())
    if t in ("co", "{"):
        if t == "co":
            cur.next()
        cur.expect("{")
        parts = _until(cur, _parse_element, "}")
        return _SetAst("cobrace" if t == "co" else "brace", tuple(parts))
    if t in ("(", "["):
        return _SetAst("intervals", tuple(_separated(cur, _parse_interval, "u")))
    raise cur.unexpected("set literal")


def _parse_element(cur: _Cursor):
    kind = cur.kinds[cur.tok]
    if kind == "int":
        return int(cur.next())
    if kind == "name":
        return cur.next()
    raise cur.unexpected("element")


def _parse_interval(cur: _Cursor):
    lo_open = cur.expect("(", "[") == "("
    lo = _parse_rat(cur)
    cur.expect(",")
    hi = _parse_rat(cur)
    return (lo, hi, lo_open, cur.expect(")", "]") == ")")


def _parse_set_in(cur: _Cursor, carrier) -> SetExpr:
    return _parse_set_literal(cur).build(carrier)


# -- words ----------------------------------------------------------------

# A table maps a word to (class, reader, writer).  A reader takes the
# cursor, the word's index and the shape's context, and returns the class's
# arguments; a writer takes an instance.

def _parse_word(cur: _Cursor, table: dict, *context):
    """A word of table and the text after it, as the object they describe."""
    cls, read, _ = table[cur.expect(*table)]
    return cls(*read(cur, cur.i - 1, *context))


def _emit(obj) -> str:
    """obj's word and the text after it."""
    if type(obj) not in _WRITERS:
        raise ValidationError("%s has no textual form" % type(obj).__name__)
    word, write = _WRITERS[type(obj)]
    return word + write(obj)


def _nothing(cur: _Cursor, k: int, *context) -> tuple:
    return ()


def _blank(obj) -> str:
    return ""


def _read_int_arg(cur: _Cursor, k: int) -> tuple:
    """( int )"""
    cur.expect("(")
    n = int(cur.expect_kind("int"))
    cur.expect(")")
    return (n,)


# -- carriers, opens and policies -----------------------------------------

def _read_enum(cur: _Cursor, k: int) -> tuple:
    """( name (, name)* )"""
    cur.expect("(")
    atoms = _separated(cur, _Cursor.expect_kind, ",", "name")
    cur.expect(")")
    return (tuple(atoms),)


_CARRIERS = {
    "qline": (QLine, _nothing, _blank),
    "nat": (NatFC, _nothing, _blank),
    "enum": (FiniteEnum, _read_enum, lambda c: "(%s)" % ",".join(c.elements)),
}


def _read_explicit(cur: _Cursor, k: int, carrier) -> tuple:
    """{ setlit (, setlit)* }, each set on carrier"""
    cur.expect("{")
    sets = _separated(cur, _parse_set_in, ",", carrier)
    cur.expect("}")
    return (tuple(sets),)


_OPENS = {
    "canonical-open": (AllCanonicalOpen, _nothing, _blank),
    "all-sets": (AllSets, _nothing, _blank),
    "finite-or-whole": (FiniteOrWhole, _nothing, _blank),
    "explicit": (ExplicitList, _read_explicit,
                 lambda op: " { %s }" % ", ".join(sx.render(S) for S in op.sets)),
}

# the policies written as one word, both ways, and those that name a
# declaration: the policy and the keyword of what it names
_POLICIES = {"essfin": EssFin(), "all": All(), "esscountable": EssCountable()}
_POLICY_REFS = {"locally": (LocallyEssFin, "family"), "piecewise": (PiecewiseEssFin, "exhaustion")}


def _parse_policy(cur: _Cursor, doc: Document):
    """The policy, and (word, name) where it names a declaration, else None."""
    t = cur.expect(*_POLICIES, *_POLICY_REFS)
    if t in _POLICIES:
        return _POLICIES[t], None
    cur.expect("(")
    ref = cur.expect_kind("name")
    cur.expect(")")
    policy, keyword = _POLICY_REFS[t]
    return policy(doc._ref(keyword, ref)), (t, ref)


def _write_policy(p) -> str:
    for word, named in _POLICIES.items():
        if p == named:
            return word
    raise ValidationError("policy has no standalone textual form")


# -- streams --------------------------------------------------------------

_SIDES = {"both": (1, 1), "left": (1, 0), "right": (0, 1), "none": (0, 0)}


def _read_shrink(cur: _Cursor, k: int) -> tuple:
    """( rat , rat , side , int ), a bad side reported at the word"""
    cur.expect("(")
    a = _parse_rat(cur)
    cur.expect(",")
    b = _parse_rat(cur)
    cur.expect(",")
    side = cur.expect_kind("name")
    if side not in _SIDES:
        raise ParseError(*cur.at(k), "bad side %r" % side, expected=tuple(_SIDES))
    cur.expect(",")
    n0 = int(cur.expect_kind("int"))
    cur.expect(")")
    rl, rr = _SIDES[side]
    return a, b, Fraction(rl), Fraction(rr), n0


def _write_shrink(s: ShrinkIntervals) -> str:
    side = {v: k for k, v in _SIDES.items()}[
        (int(bool(s.rate_left)), int(bool(s.rate_right)))]
    return "(%s,%s,%s,%d)" % (sx.rq(s.a), sx.rq(s.b), side, s.n0)


_STREAMS = {
    "shrink": (ShrinkIntervals, _read_shrink, _write_shrink),
    "growballs": (GrowBalls, _read_int_arg, lambda s: "(%d)" % s.n0),
    "initseg": (InitialSegments, _read_int_arg, lambda s: "(%d)" % s.n0),
    "singletons": (Singletons, _nothing, _blank),
}
# the streams an exhaustion's chain may be
_CHAINS = {"initseg": _STREAMS["initseg"]}


# -- map rules ------------------------------------------------------------

def _read_const(cur: _Cursor, k: int) -> tuple:
    """( token ), an int token read as a number"""
    cur.expect("(")
    v = cur.next()
    cur.expect(")")
    return (int(v) if cur.kinds[v] == "int" else v,)


def _parse_pairs(cur: _Cursor, read) -> tuple:
    """{ pair* }, each text of a pair read by read"""
    cur.expect("{")
    return (tuple(_until(cur, _parse_pair, "}", read)),)


def _parse_pair(cur: _Cursor, read):
    """a : b, two tokens of any kind, each text read by read."""
    a = cur.next()
    cur.expect(":")
    return read(a), read(cur.next())


def _write_pairs(r) -> str:
    return "{%s}" % ",".join("%s:%s" % ab for ab in sorted(r.table))


def _read_affine(cur: _Cursor, k: int) -> tuple:
    """{ piece (; piece)* }, the pieces on the line whatever the map's domain,
    so that the map reports a domain off the line"""
    cur.expect("{")
    pieces = _separated(cur, _parse_affine_piece, ";")
    cur.expect("}")
    return (tuple(pieces),)


def _parse_affine_piece(cur: _Cursor):
    """setlit : rat , rat, both rats finite"""
    piece = _parse_set_in(cur, QLine())
    cur.expect(":")
    p = _parse_finite_rat(cur)
    cur.expect(",")
    return piece, p, _parse_finite_rat(cur)


def _parse_finite_rat(cur: _Cursor):
    if cur.kinds[cur.tok] == "inf":
        raise ParseError(*cur.at(cur.i), "infinite coefficient %r" % cur.tok)
    return _parse_rat(cur)


def _write_affine(r: PiecewiseAffine) -> str:
    return "{ %s }" % "; ".join("%s: %s,%s" % (sx.render(P), sx.rq(p), sx.rq(q))
                                for P, p, q in r.pieces)


_RULES = {
    "identity": (Identity, _nothing, _blank),
    "const": (Const, _read_const, lambda r: "(%s)" % r.value),
    "shift": (NatShift, _read_int_arg, lambda r: "(%d)" % r.k),
    "perm": (NatPerm, lambda cur, k: _parse_pairs(cur, int), _write_pairs),
    "table": (FiniteTable, lambda cur, k: _parse_pairs(cur, str), _write_pairs),
    "affine": (PiecewiseAffine, _read_affine, _write_affine),
}


# -- declarations ---------------------------------------------------------

# A declaration's reader parses the text after its keyword and name into
# the declared object and the name's annotation, or None; its writer gives
# that text back from the two.

def _parse_header(cur: _Cursor):
    """[: space] =, as the space's name or None, and the ='s index."""
    annotation = None
    if cur.tok == ":":
        cur.next()
        annotation = cur.expect_kind("name")
    eq = cur.i
    cur.expect("=")
    return annotation, eq


def _resolve_carrier(cur: _Cursor, doc: Document, annotation, inferred, eq: int, what: str):
    """The annotated space's carrier, else the one the literals imply."""
    if annotation is not None:
        return doc._ref("space", annotation).carrier
    if inferred is None:
        raise ParseError(*cur.at(eq),
                         "carrier of the %s is ambiguous; annotate with : space" % what)
    return inferred


def _parse_space(cur: _Cursor, doc: Document, name: str):
    cur.expect("{")
    cur.expect("carrier")
    carrier = _parse_word(cur, _CARRIERS)
    cur.expect(";")
    cur.expect("opens")
    opens = _parse_word(cur, _OPENS, carrier)
    cur.expect(";")
    cur.expect("cov")
    policy, polref = _parse_policy(cur, doc)
    support = None
    if cur.tok == ";":
        cur.next()
        cur.expect("support")
        support = _parse_set_in(cur, carrier)
    cur.expect("}")
    try:
        X = GtsPresentation(carrier, opens, policy, support, name)
    except GtsError as e:
        raise ValidationError("space %s: %s" % (name, e))
    return X, polref


def _write_space(X: GtsPresentation, polref) -> str:
    policy = "%s(%s)" % polref if polref else _write_policy(X.policy)
    support = ""
    if X.support != sx.whole(X.carrier):
        support = "; support %s" % sx.render(X.support)
    return " { carrier %s; opens %s; cov %s%s }" % (
        _emit(X.carrier), _emit(X.opens), policy, support)


def _parse_family(cur: _Cursor, doc: Document, name: str):
    annotation, eq = _parse_header(cur)
    asts, streams = [], []

    def term(cur):
        if cur.expect("{", "stream") == "{":
            asts.extend(_until(cur, _parse_set_literal, "}"))
        else:
            streams.append(_parse_word(cur, _STREAMS))

    _separated(cur, term, "+")
    inferred = streams[0].carrier if streams else None
    for a in asts:
        inferred = inferred or a.infer_carrier()
    carrier = _resolve_carrier(cur, doc, annotation, inferred, eq, "family")
    members = tuple(a.build(carrier) for a in asts)
    for s in streams:
        if s.carrier != carrier:
            raise ValidationError("stream on the wrong carrier in family " + name)
    return FamilyExpr(carrier, members, tuple(streams)), annotation


def _write_family(fam: FamilyExpr, annotation) -> str:
    terms = []
    if fam.finite_part or not fam.streams:
        terms.append("{ %s }" % ", ".join(sx.render(S) for S in fam.finite_part))
    terms += ["stream " + _emit(s) for s in fam.streams]
    return "%s = %s" % (" : " + annotation if annotation else "", " + ".join(terms))


def _parse_set(cur: _Cursor, doc: Document, name: str):
    annotation, eq = _parse_header(cur)
    ast = _parse_set_literal(cur)
    carrier = _resolve_carrier(cur, doc, annotation, ast.infer_carrier(), eq, "literal")
    return ast.build(carrier), annotation


def _parse_map(cur: _Cursor, doc: Document, name: str):
    cur.expect(":")
    dn = cur.expect_kind("name")
    cur.expect_kind("arrow")
    cn = cur.expect_kind("name")
    cur.expect("=")
    dom, cod = doc._ref("space", dn), doc._ref("space", cn)
    rule = _parse_word(cur, _RULES)
    try:
        f = SpaceMap(dom, cod, rule, name=name)
    except GtsError as e:
        raise ValidationError("map %s: %s" % (name, e))
    return f, (dn, cn)


def _parse_exhaustion(cur: _Cursor, doc: Document, name: str):
    cur.expect("=")
    cur.expect("chain")
    return Exhaustion(chain=_parse_word(cur, _CHAINS)), None


def _parse_site(cur: _Cursor, doc: Document, name: str):
    cur.expect("=")
    cur.expect("of")
    ref = cur.expect_kind("name")
    X = doc._ref("space", ref)
    try:
        st = gts_to_site(X)
    except GtsError as e:
        raise ValidationError("site %s: %s" % (name, e))
    return st, ref


def _parse_presheaf(cur: _Cursor, doc: Document, name: str):
    cur.expect("=")
    cur.expect("functions")
    cur.expect("(")
    ref = cur.expect_kind("name")
    cur.expect(",")
    k = int(cur.expect_kind("int"))
    cur.expect(")")
    site = doc._ref("site", ref)
    if k < 1:
        raise ValidationError("presheaf needs at least one value")
    return function_presheaf(site, tuple(str(i) for i in range(k))), (ref, k)


# each declaration's keyword: the Document table it fills, its reader and
# its writer
_DECLARATIONS = {
    "space": ("spaces", _parse_space, _write_space),
    "family": ("families", _parse_family, _write_family),
    "set": ("sets", _parse_set,
            lambda S, ann: "%s = %s" % (" : " + ann if ann else "", sx.render(S))),
    "map": ("maps", _parse_map,
            lambda f, ends: " : %s -> %s = %s" % (*ends, _emit(f.rule))),
    "exhaustion": ("exhaustions", _parse_exhaustion, lambda E, _: " = chain " + _emit(E.chain)),
    "site": ("sites", _parse_site, lambda st, ref: " = of " + ref),
    "presheaf": ("presheaves", _parse_presheaf, lambda F, ref: " = functions(%s, %d)" % ref),
}

# each word's writer, keyed on the class the word builds, or for a
# declaration on the Document table it fills
_WRITERS = {cls: (word, write)
            for table in (_CARRIERS, _OPENS, _STREAMS, _RULES, _DECLARATIONS)
            for word, (cls, _, write) in table.items()}


def emit_document(doc: Document) -> str:
    lines = []
    for kind, name in doc.order:
        word, write = _WRITERS[kind]
        obj = getattr(doc, kind)[name]
        lines.append("%s %s%s\n" % (word, name, write(obj, doc.annotations.get(name))))
    return "".join(lines)
