"""Exhaustive audits against a fixture recorded from the symbolic driver.

``golden/exhaustive_audits.json`` holds, for every case below, the audit's
pass counts, its ``used`` count, the number of violations, a SHA-256 of the
rendered violation list and its first three violations verbatim.  The cases
are every topology on at most 4 points with at most 8 opens at budgets 60
and 200, 100 seeded lists of opens that skip validation (so most break an
axiom), a list of intervals on the line, the small shipped spaces and
sierpinski x point.  Every violation must also replay through ``recheck``.

Regenerate the fixture only when an audit is meant to change:

    PYTHONPATH=src python tests/test_exhaustive_golden.py > tests/golden/exhaustive_audits.json
"""

import hashlib
import json
import pathlib
import random
from itertools import groupby

from gtskit.audit import audit_axioms, recheck
from gtskit.carriers import FiniteEnum, NatFC, QLine
from gtskit.constructions import product
from gtskit import library as lib
from gtskit.presentation import (
    All,
    EssCountable,
    EssFin,
    ExplicitList,
    GtsPresentation,
    LocallyEssFin,
    PiecewiseEssFin,
    from_points,
)
from gtskit.families import FamilyExpr
from gtskit import setexpr as sx
from gtskit.streams import GrowBalls

from conftest import mask_space, mask_topologies

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "exhaustive_audits.json"
BROKEN_LISTS = 100


def _random_list(i):
    """A seeded list of at most 8 opens that skips validation."""
    rng = random.Random(i)
    kind = rng.choice(("enum", "enum", "enum", "nat", "qline"))
    if kind == "enum":
        c = FiniteEnum(tuple("abc"[: rng.randint(1, 3)]))
        pool = [from_points(c, [x for j, x in enumerate(c.elements) if m >> j & 1])
                for m in range(1 << len(c.elements))]
        support = rng.choice([sx.whole(c), rng.choice(pool)])
        policy = rng.choice((All(), EssFin(), EssCountable()))
    elif kind == "nat":
        c = NatFC()
        pool = [sx.nat_finite(rng.sample(range(4), rng.randint(0, 3))) for _ in range(6)]
        pool.append(sx.nat_cofinite(rng.sample(range(4), rng.randint(0, 2))))
        support = rng.choice([sx.whole(c), sx.nat_finite([0, 1, 2])])
        policy = rng.choice((All(), EssFin(), PiecewiseEssFin(lib.nat_chain())))
    else:
        c = QLine()
        pool = []
        for _ in range(6):
            a, b = sorted(rng.sample(range(5), 2))
            pool.append(sx.interval(a, b, rng.random() < 0.7, rng.random() < 0.7))
        pool.append(sx.union(pool[0], pool[1]))
        support = sx.whole(c)
        policy = rng.choice((All(), EssFin(),
                             LocallyEssFin(FamilyExpr(c, (), (GrowBalls(1),)))))
    sets = rng.sample(pool, rng.randint(1, min(6, len(pool))))
    if rng.random() < 0.6:
        sets.append(sx.empty(c))
    if rng.random() < 0.6:
        sets.append(support)
    rng.shuffle(sets)
    X = GtsPresentation(c, ExplicitList(tuple(sets)), policy, support,
                        name="broken%d" % i, validate=False)
    return X, rng.choice((10, 60, 200)), i


def cases():
    """(key, presentation, budget, seed) for every recorded audit."""
    for n in range(5):
        for k, T in enumerate(mask_topologies(n)):
            if len(T) > 8:
                continue
            X = mask_space("p", n, T)
            for budget in (60, 200):
                yield "top%d/%s/b%d" % (n, ",".join(map(str, sorted(T))), budget), X, budget, k
    for i in range(BROKEN_LISTS):
        X, budget, seed = _random_list(i)
        yield "broken%d" % i, X, budget, seed
    a, b = sx.interval(0, 1), sx.interval(1, 2)
    line = GtsPresentation(QLine(), ExplicitList(
        (sx.empty(QLine()), a, b, sx.union(a, b), sx.whole(QLine()))), All(), name="line5")
    for budget in (60, 1000):
        yield "line5/b%d" % budget, line, budget, 3
    for name in ("point_p", "sierpinski", "discrete_pair", "indiscrete_pair",
                 "discrete_small_pair"):
        yield name, lib.shipped()[name], 200, 1
    P, _ = product([lib.sierpinski(), lib.point_space()])
    for budget in (60, 200):
        yield "sierpinski_x_point/b%d" % budget, P, budget, 2


def _rendered(v):
    return [v.axiom, v.description, list(v.witness)]


def summary(rep):
    rendered = [_rendered(v) for v in rep.violations]
    digest = hashlib.sha256(json.dumps(rendered).encode()).hexdigest()
    return {"exhaustive": rep.exhaustive, "pass_counts": rep.pass_counts,
            "used": rep.used, "violations": len(rendered), "sha256": digest,
            "first": rendered[:3]}


def _interleaved(rep):
    """Whether the violations of some axiom are split by another's, as where
    one family fails two axioms and a later family the first again."""
    runs = [axiom for axiom, _ in groupby(v.axiom for v in rep.violations)]
    return len(runs) > len(set(runs))


def test_exhaustive_audits_match_fixture():
    fixture = json.loads(FIXTURE.read_text())
    seen = []
    interleaved = 0
    for key, X, budget, seed in cases():
        rep = audit_axioms(X, budget=budget, seed=seed)
        assert summary(rep) == fixture[key], key
        assert rep.used == sum(rep.pass_counts.values()) + len(rep.violations), key
        for v in rep.violations:
            assert recheck(X, v), (key, v)
        seen.append(key)
        interleaved += key.startswith("broken") and _interleaved(rep)
    assert seen == list(fixture)
    # the digests pin the order of failures family by family, not axiom by
    # axiom, only where some broken list interleaves them
    assert interleaved >= 10


def test_fixture_covers_broken_and_clean_audits():
    fixture = json.loads(FIXTURE.read_text())
    assert all(s["exhaustive"] for s in fixture.values())
    broken = [s for k, s in fixture.items() if k.startswith("broken")]
    assert len(broken) == BROKEN_LISTS
    assert sum(s["violations"] > 0 for s in broken) > BROKEN_LISTS // 2
    assert sum(s["violations"] for s in broken) > 1000


if __name__ == "__main__":
    out = {}
    for key, X, budget, seed in cases():
        out[key] = summary(audit_axioms(X, budget=budget, seed=seed))
    print(json.dumps(out, indent=1, sort_keys=False))
