"""Fuzzed documents: every input is rejected with a position or round trips.

Two sources of input: token soups over the grammar's own words and
punctuation, and token mutations (delete, insert, replace, duplicate) of
the corpus documents.  The corpus's ``site`` and ``presheaf`` lines are left
out of the mutation sources, since a function presheaf grows as k^points.
Each input must raise ``ParseError``, ``ResolutionError`` or
``ValidationError`` with a line of at least 1, or parse to a document that
``parse_document(emit_document(doc))`` gives back.
"""

import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from gtskit.dsl import ParseError, ResolutionError, ValidationError, emit_document, parse_document

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "corpus"

WORDS = (
    "space", "family", "set", "map", "exhaustion", "site", "presheaf",
    "carrier", "opens", "cov", "support", "qline", "nat", "enum",
    "canonical-open", "all-sets", "finite-or-whole", "explicit",
    "essfin", "all", "esscountable", "locally", "piecewise",
    "stream", "shrink", "growballs", "initseg", "singletons",
    "both", "left", "right", "none", "empty", "whole", "co", "u",
    "identity", "const", "shift", "perm", "table", "affine",
    "chain", "of", "functions", "A", "B", "X", "a", "b", "c",
    "0", "1", "2", "3", "-1", "-inf", "+inf", "->",
    "{", "}", "(", ")", "[", "]", ",", ";", ":", "|", "=", "+", "/", "\n",
)

_TOKEN = re.compile(r"->|[+-]inf|-?\d+|[A-Za-z_]\w*(?:-[A-Za-z_]\w*)*|\S")


def _corpus_tokens():
    docs = []
    for path in sorted(CORPUS.glob("*.gts")):
        toks = []
        for line in path.read_text().splitlines():
            line = line.split("#")[0]
            if line.split()[:1] in (["site"], ["presheaf"]):
                continue
            toks += _TOKEN.findall(line) + ["\n"]
        docs.append(toks)
    return docs


SOURCES = _corpus_tokens()


def _mutate(toks, edits):
    toks = list(toks)
    for op, where, word in edits:
        i = where % (len(toks) + 1)
        if op == "insert":
            toks.insert(i, word)
        elif i < len(toks):
            if op == "delete":
                del toks[i]
            elif op == "replace":
                toks[i] = word
            else:
                toks.insert(i, toks[i])
    return " ".join(toks)


def _rejected_or_round_trips(text):
    try:
        doc = parse_document(text)
    except (ParseError, ResolutionError, ValidationError) as e:
        assert e.line >= 1, (text, str(e))
        return
    assert parse_document(emit_document(doc)) == doc, text


def test_the_mutation_sources_parse():
    assert len(SOURCES) == 2
    for toks in SOURCES:
        doc = parse_document(" ".join(toks))
        assert parse_document(emit_document(doc)) == doc


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(WORDS), max_size=40))
def test_token_soups_are_rejected_or_round_trip(words):
    _rejected_or_round_trips(" ".join(words))


_EDIT = st.tuples(st.sampled_from(("delete", "insert", "replace", "duplicate")),
                  st.integers(0, 400), st.sampled_from(WORDS))


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(range(len(SOURCES))), st.lists(_EDIT, min_size=1, max_size=4))
def test_corpus_mutations_are_rejected_or_round_trip(source, edits):
    _rejected_or_round_trips(_mutate(SOURCES[source], edits))
