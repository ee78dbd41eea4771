"""Fuzzed documents: every input is rejected with a position or round trips.

Two sources of input: token soups over the grammar's own words and
punctuation, and token mutations (delete, insert, replace, duplicate) of
the corpus documents.  The corpus's ``site`` and ``presheaf`` lines are left
out of the mutation sources, since a function presheaf grows as k^points.
Each input must raise ``ParseError``, ``ResolutionError`` or
``ValidationError`` with a line of at least 1, or parse to a document that
``parse_document(emit_document(doc))`` gives back.  The mutations that
parse must also answer the CLI's ``map`` and ``classify`` requests with
exit code 0, 1 or 2.
"""

import pathlib
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from gtskit import cli
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


def test_commands_on_mutated_documents_exit_0_1_or_2(tmp_path, capsys):
    """cli.main answers every request on a mutated document with exit code
    0, 1 or 2 and raises nothing.

    Sample: 2 000 mutations, drawn with random.Random(0), of the two corpus
    documents, with one or two edits each (most mutations do not parse,
    fewer the more edits they make); for each of the 73 that parse, map
    and classify on every declared map and classify on every space, read
    from a temporary file: 746 requests, about 2.5 s.
    """
    rng = random.Random(0)
    doc, requests = tmp_path / "mutant.gts", 0
    for _ in range(2000):
        edits = [(rng.choice(("delete", "insert", "replace", "duplicate")),
                  rng.randint(0, 400), rng.choice(WORDS)) for _ in range(rng.randint(1, 2))]
        text = _mutate(rng.choice(SOURCES), edits)
        try:
            parsed = parse_document(text)
        except (ParseError, ResolutionError, ValidationError):
            continue
        doc.write_text(text)
        argvs = [[cmd, str(doc), f] for f in parsed.maps for cmd in ("map", "classify")]
        argvs += [["classify", str(doc), X] for X in parsed.spaces]
        for argv in argvs:
            assert cli.main(argv) in (0, 1, 2), (text, argv)
        requests += len(argvs)
        capsys.readouterr()
    assert requests > 500
