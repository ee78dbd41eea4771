"""The one-pass tokenizer against the per-position reference it replaced.

``_reference_tokenize`` is the earlier tokenizer: one anchored ``re.match``
per position, counting lines and columns as it goes.  ``dsl._tokenize`` must
give the same tokens ``(kind, text, line, col)`` and, on bad input, the same
error position and message, on the corpus, on documents shaped like the
benchmark's requests and on token soups with carriage returns, stray
characters, tabs and comments.
"""

import pathlib
import random
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gtskit import dsl
from gtskit.dsl import ParseError

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "corpus"

_REFERENCE_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<arrow>->)
      | (?P<inf>[+-]inf)
      | (?P<int>-?\d+)
      | (?P<name>[A-Za-z_]\w*(?:-[A-Za-z_]\w*)*)
      | (?P<punct>[{}()\[\],;:|=+/])
    """,
    re.VERBOSE,
)


def _reference_tokenize(text):
    out, line, col, pos = [], 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, "unexpected character %r" % text[pos])
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        else:
            out.append((kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    out.append(("end", "", line, col))
    return out


def _outcome(tokenize, text):
    try:
        if tokenize is _reference_tokenize:
            return tokenize(text)
        texts, kinds = tokenize(text)
        return [(kinds[t], t, *dsl._position(text, i)) for i, t in enumerate(texts)]
    except ParseError as e:
        return ("error", e.line, e.col, str(e))


def _agrees(text):
    assert _outcome(dsl._tokenize, text) == _outcome(_reference_tokenize, text), repr(text)


def test_tokenizer_agrees_on_the_corpus():
    files = sorted(CORPUS.glob("**/*.gts"))
    assert files
    for path in files:
        text = path.read_text()
        _agrees(text)
        _agrees(text.replace("\n", "\r\n"))  # a carriage return is an unexpected character


def _q(rng):
    return str(Fraction(rng.randint(-40, 40), rng.randint(1, 4)))


def _request_document(rng):
    """A document in the shape of the benchmark's symbolic requests."""
    lines = ["# lawful spaces over the line and the naturals",
             "space RSalg { carrier qline; opens canonical-open; cov essfin }",
             "family Balls = stream growballs(1)",
             "space LineLoc { carrier qline; opens canonical-open; cov locally(Balls) }",
             "space NatSmall { carrier nat; opens all-sets; cov essfin }",
             "exhaustion E = chain initseg(0)",
             "space NatChain { carrier nat; opens all-sets; cov piecewise(E) }",
             "map id-top-small : NatSmall -> NatSmall = identity", ""]
    for k in range(rng.randint(3, 8)):
        ivs = ", ".join("(%s,%s)" % (_q(rng), _q(rng)) for _ in range(rng.randint(1, 3)))
        side = rng.choice(("both", "left", "right", "none"))
        lines.append("family SP%d = { %s } + stream shrink(%s,%s,%s,%d)"
                     % (k, ivs, _q(rng), _q(rng), side, rng.randint(1, 5)))
        lines.append("family FN%d = { {%d,%d}, co{%d} } + stream initseg(%d)"
                     % (k, rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 9), k))
        lines.append("set PT%d = [%s,%s] u (%s,+inf)\t# a point and a ray"
                     % (k, _q(rng), _q(rng), _q(rng)))
        lines.append("set UB%d = (-inf,%s]" % (k, _q(rng)))
    return "\n".join(lines) + rng.choice(("", "\n", "  ", "# end"))


def test_tokenizer_agrees_on_request_documents():
    rng = random.Random(12)
    for _ in range(40):
        _agrees(_request_document(rng))


_PIECES = ["space", "family", "a-b", "x_1", "-", "->", "-inf", "+inf", "inf", "-7",
           "42", "/", "{", "}", "(", ")", "[", "]", ",", ";", ":", "|", "=", "+",
           " ", "  ", "\t", "\n", "\r", "\r\n", "@", "#", "# note", "#x\n", "é", "٣"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30))
def test_tokenizer_agrees_on_token_soups(pieces):
    _agrees("".join(pieces))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=" \t\n\r#@-+/01ainf{}(),;:x_", max_size=40))
def test_tokenizer_agrees_on_character_soups(text):
    _agrees(text)
