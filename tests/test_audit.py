import pathlib
import random

import pytest

from gtskit import audit
from gtskit.audit import (
    AXIOMS,
    AuditReport,
    audit_axioms,
    random_admissible_family,
    recheck,
)
from gtskit.carriers import FiniteEnum, NatFC
from gtskit.constructions import direct_sum, product, subspace
from gtskit.dsl import parse_document
from gtskit.families import FamilyExpr
from gtskit import library as lib
from gtskit.presentation import (
    All,
    AllSets,
    EssFin,
    ExplicitList,
    GtsPresentation,
    Opens,
    is_admissible,
    is_open,
)
from gtskit import setexpr as sx

from conftest import mask_space, mask_topologies


def test_shipped_presentations_audit_clean():
    for name, X in lib.shipped().items():
        rep = audit_axioms(X, budget=120, seed=5)
        assert rep.ok(), (name, rep.violations)
        assert all(rep.pass_counts[a] > 0 for a in AXIOMS), name


def test_small_finite_spaces_audited_exhaustively():
    for name in ("point_p", "sierpinski", "discrete_pair", "indiscrete_pair"):
        rep = audit_axioms(lib.shipped()[name], budget=10, seed=0)
        assert rep.exhaustive, name
        assert rep.ok(), name


def test_determinism_per_seed():
    X = lib.rational_interval_line()
    a = audit_axioms(X, budget=60, seed=11)
    b = audit_axioms(X, budget=60, seed=11)
    assert a.pass_counts == b.pass_counts
    assert a.violations == b.violations


def test_corrupted_space_caught_and_rechecks():
    c = FiniteEnum(("a", "b"))
    # {a} and {b} open but their union missing: closure violations
    broken = GtsPresentation(
        c,
        ExplicitList((sx.empty(c), sx.atoms(c, ["a"]), sx.atoms(c, ["b"]))),
        All(),
        validate=False,
    )
    rep = audit_axioms(broken, budget=80, seed=2)
    assert not rep.ok()
    assert any(v.axiom == "binary_ops_open" for v in rep.violations)
    for v in rep.violations:
        assert recheck(broken, v), v


def nat_012():
    """All subsets of {0, 1, 2} open inside the naturals: a proper support."""
    return GtsPresentation(NatFC(), AllSets(), EssFin(), sx.nat_finite([0, 1, 2]))


def test_opens_draw_opens():
    rng = random.Random(4)
    spaces = [lib.shipped()[n] for n in ("line_small", "nat_wd", "sierpinski")]
    for X in spaces + [nat_012()]:
        for _ in range(30):
            assert is_open(X, X.opens.draw(X, rng))


def test_proper_support_audits_clean():
    nat_0123 = GtsPresentation(NatFC(), AllSets(), EssFin(), sx.nat_finite([0, 1, 2, 3]))
    for X in (nat_012(), nat_0123):
        for budget in (30, 200, 500):
            rep = audit_axioms(X, budget=budget, seed=1)
            assert rep.ok(), (budget, rep.violations[:1])
    P, _ = product([nat_012(), lib.discrete_small_pair()])
    rep = audit_axioms(P, budget=60, seed=1)
    assert rep.ok(), rep.violations[:1]


def test_large_all_sets_support_audits_at_random_without_listing_opens(monkeypatch):
    """2**25, 2**20 and 2**15 subsets are open here; the audit counts the
    unions of the least opens just past 8, and lists none of them."""
    def refuse(*args):
        raise AssertionError("listed the opens")
    monkeypatch.setattr(Opens, "enumerate", refuse)
    monkeypatch.setattr(audit, "enumerate_opens", refuse)

    def trace(lo, n):
        return subspace(lib.discrete_small_nat(), sx.nat_finite(range(lo, lo + n)))
    spaces = [GtsPresentation(NatFC(), AllSets(), EssFin(), sx.nat_finite(range(25))),
              direct_sum([trace(0, 10), trace(10, 10)]),
              product([trace(0, 5), trace(0, 3)])[0]]
    for X in spaces:
        rep = audit_axioms(X, budget=60, seed=1)
        assert not rep.exhaustive and rep.used == 60, X
        assert rep.ok(), rep.violations[:1]


def test_exhaustive_audit_records_only_failures(monkeypatch):
    """Passes are counted in bulk: a clean exhaustive audit records one
    instance, the empty and whole sets, and tallies each other axiom's
    instances at once."""
    recorded, tallied = [], []
    record, tally = AuditReport.record, AuditReport.tally

    def counted(self, axiom, *args):
        recorded.append(axiom)
        return record(self, axiom, *args)

    def counted_tally(self, axiom, *args):
        tallied.append(axiom)
        return tally(self, axiom, *args)
    monkeypatch.setattr(AuditReport, "record", counted)
    monkeypatch.setattr(AuditReport, "tally", counted_tally)
    for n in range(5):
        for k, T in enumerate(mask_topologies(n)):
            if len(T) > 8:
                continue
            recorded.clear()
            tallied.clear()
            rep = audit_axioms(mask_space("p", n, T), budget=60, seed=k)
            assert rep.exhaustive and rep.ok(), T
            assert recorded == ["empty_whole_open"], T
            assert sorted(tallied) == sorted(set(tallied)), T
            assert rep.used == sum(rep.pass_counts.values()) > 1, T


def test_random_admissible_family_is_admissible():
    rng = random.Random(9)
    for name in ("line_small", "line_top", "nat_small", "line_loc"):
        X = lib.shipped()[name]
        for _ in range(10):
            F = random_admissible_family(X, rng)
            assert is_admissible(X, F).admissible, name


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "corpus"


def test_exhaustive_counts_do_not_depend_on_the_budget():
    X = parse_document((CORPUS / "spaces.gts").read_text()).spaces["Chain3"]
    low, high = audit_axioms(X, budget=1), audit_axioms(X, budget=1000)
    assert low.exhaustive and high.exhaustive
    assert low.pass_counts == high.pass_counts
    assert low.used == high.used == 277


def test_stream_free_family_admissible_iff_members_open():
    """The rule the exhaustive audit decides admissibility by, on every
    shipped presentation and every space of the corpus."""
    spaces = dict(lib.shipped())
    for path in sorted(CORPUS.glob("*.gts")):
        spaces.update(parse_document(path.read_text()).spaces)
    rng = random.Random(7)
    rejected = 0
    for name, X in sorted(spaces.items()):
        outcomes = set()
        for _ in range(40):
            members = []
            for _ in range(rng.randint(1, 4)):
                draw_open = rng.random() < 0.6
                members.append(X.opens.draw(X, rng) if draw_open
                               else sx.random_set(X.carrier, rng))
            F = FamilyExpr(X.carrier, tuple(members))
            expected = all(is_open(X, m) for m in members)
            assert is_admissible(X, F).yes == expected, (name, F.render())
            outcomes.add(expected)
            rejected += not expected
        assert True in outcomes, name
    # every space outside AllSets on its whole carrier has non-open sets
    assert rejected > 100
