"""Coverage policies: admissibility, smallness, traces, products and continuity.

``golden/policies.json`` holds, for every presentation in ``spaces`` below
(each of the five policies on the line and on the naturals, under two
opens descriptions each, with the piecewise policy over a chain and over a
poset exhaustion), the ``is_admissible`` verdict on seeded families, the
``smallness`` verdict on seeded sets, the policy ``subspace`` gives on
open, small and other traces, whether ``product`` and ``smallify`` accept
the space, and ``check_strict_continuity`` on the identity into every
presentation on the same carrier.  The families mix finite members with
shrink, growballs, initseg and singletons streams and with clip and merge
derivations of them.  A verdict is recorded as its status, reason and
rendered witness, with the same three of the verdict it rests on.

Regenerate the fixture only when a policy is meant to change:

    PYTHONPATH=src python tests/test_policies.py > tests/golden/policies.json
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from gtskit.carriers import FiniteEnum, NatFC, QLine
from gtskit.constructions import product, smallify, subspace
from gtskit.errors import GtsError
from gtskit.exhaustions import Exhaustion, FinitePoset
from gtskit.families import FamilyExpr, WitnessMember
from gtskit import library as lib
from gtskit.maps import Identity, SpaceMap, check_strict_continuity
from gtskit.presentation import (
    All,
    AllCanonicalOpen,
    AllSets,
    EssCountable,
    EssFin,
    FiniteOrWhole,
    GtsPresentation,
    LocallyEssFin,
    PiecewiseEssFin,
    is_admissible,
    smallness,
)
from gtskit import setexpr as sx
from gtskit.streams import (
    GrowBalls,
    InitialSegments,
    Singletons,
    clip_stream,
    merge_stream,
    shrink,
)

FIXTURE = pathlib.Path(__file__).resolve().parent / "golden" / "policies.json"

Q, N = QLine(), NatFC()
HALF = Fraction(1, 2)


def _poset(pieces):
    """A poset exhaustion whose pieces 0 and 1 both lie below piece 2."""
    order = FinitePoset((0, 1, 2), frozenset({(0, 2), (1, 2)}))
    return Exhaustion(poset=order, pieces=tuple(enumerate(pieces)))


def _policies(c):
    if c == Q:
        base = lib.ball_base()
        chain = Exhaustion(chain=GrowBalls(1))
        poset = _poset([sx.interval(-1, 1), sx.interval(0, 3), sx.interval(-2, 4)])
    else:
        base = FamilyExpr(N, (sx.nat_finite([7, 8]),), (InitialSegments(2),))
        chain = Exhaustion(chain=InitialSegments(0))
        poset = _poset([sx.nat_finite(range(3)), sx.nat_finite([2, 5, 7]),
                        sx.nat_finite(range(9))])
    return [("all", All()), ("essfin", EssFin()), ("esscountable", EssCountable()),
            ("locally", LocallyEssFin(base)), ("chain", PiecewiseEssFin(chain)),
            ("poset", PiecewiseEssFin(poset))]


def spaces():
    """(name, presentation): every policy under two opens on each infinite carrier."""
    out = []
    for cname, c, opens in (("line", Q, AllCanonicalOpen()), ("qsets", Q, AllSets()),
                            ("nat", N, AllSets()), ("natfow", N, FiniteOrWhole())):
        for pname, pol in _policies(c):
            name = cname + "-" + pname
            out.append((name, GtsPresentation(c, opens, pol, name=name)))
    line_all = dict(out)["line-all"]
    out.append(("line-all-trace", subspace(line_all, sx.interval(0, 1))))
    out.append(("sierpinski", lib.sierpinski()))
    out.append(("pair-small", lib.discrete_small_pair()))
    return out


# -- seeded inputs ----------------------------------------------------------

QENDS = [sx.NEG_INF, -3, -1, Fraction(-1, 3), 0, HALF, 1, 2, 5, sx.POS_INF]


def _line_set(rng, open_only):
    out = sx.empty(Q)
    for _ in range(rng.randint(1, 2)):
        lo, hi = sorted(rng.sample(range(len(QENDS)), 2))
        closed = not open_only and rng.random() < 0.3
        out = sx.union(out, sx.interval(QENDS[lo], QENDS[hi], lo == 0 or not closed,
                                        hi == len(QENDS) - 1 or not closed))
    if not open_only and rng.random() < 0.2:
        out = sx.union(out, sx.qpoint(Fraction(rng.randint(-4, 8), 2)))
    return out


def _nat_set(rng, open_only):
    elems = rng.sample(range(10), rng.randint(0, 4))
    if rng.random() < (0.15 if open_only else 0.4):
        return sx.nat_cofinite(elems)
    return sx.nat_finite(elems)


def _sample_set(c, rng, open_only=False):
    return (_line_set if c == Q else _nat_set)(rng, open_only)


def _line_stream(rng):
    a = rng.choice([-2, -1, 0, HALF])
    b = a + rng.choice([1, 2, 3])
    s = shrink(a, b, rng.choice(["left", "right", "both", "none"]), rng.randint(2, 4))
    kind = rng.random()
    if kind < 0.3:
        return GrowBalls(rng.randint(1, 3))
    if kind < 0.5:
        return clip_stream(s, _line_set(rng, True))
    if kind < 0.65:
        return merge_stream(s, _line_set(rng, True))
    return s


def _nat_stream(rng):
    kind = rng.random()
    if kind < 0.3:
        return Singletons()
    if kind < 0.45:
        return clip_stream(Singletons(), _nat_set(rng, True))
    s = InitialSegments(rng.randint(0, 4))
    if kind < 0.6:
        return clip_stream(s, _nat_set(rng, True))
    if kind < 0.75:
        return merge_stream(s, _nat_set(rng, True))
    return s


def sample_family(c, rng):
    """A few members, mostly open, and up to two streams on the line or the naturals."""
    finite = [_sample_set(c, rng, rng.random() < 0.85) for _ in range(rng.randint(0, 3))]
    streams = []
    for _ in range(rng.choice([0, 1, 1, 2])):
        try:
            streams.append((_line_stream if c == Q else _nat_stream)(rng))
        except ValueError:  # a shrink whose first member is empty
            continue
    return FamilyExpr(c, tuple(finite), tuple(streams))


# -- recording --------------------------------------------------------------

def _show(obj):
    if obj is None:
        return None
    if isinstance(obj, sx.SetExpr):
        return sx.render(obj)
    if isinstance(obj, (FamilyExpr, Exhaustion)):
        return obj.render()
    if isinstance(obj, WitnessMember):
        return [obj.source, obj.index, obj.stage, sx.render(obj.set)]
    if isinstance(obj, (tuple, list)):
        return [_show(x) for x in obj]
    return repr(obj)


def _verdict(v):
    out = [v.status, v.reason, _show(v.witness)]
    if v.detail is not None:
        out.append(_verdict(v.detail))
    return out


def _decide(fn):
    try:
        return fn()
    except GtsError as e:
        return "error %s: %s" % (type(e).__name__, e)


def _policy(X):
    pol = X.policy
    shown = [type(pol).__name__]
    for field in ("base", "exhaustion"):
        if hasattr(pol, field):
            shown.append(_show(getattr(pol, field)))
    return shown


def _traces(c):
    if c == Q:
        return [sx.interval(0, 1), sx.interval(0, 1, False, False), sx.qpoint(HALF),
                sx.interval(0, sx.POS_INF), sx.interval(0, sx.POS_INF, False, True),
                sx.interval(-1, 4, False, False)]
    return [sx.nat_finite(range(5)), sx.nat_cofinite([0, 2]), sx.nat_cofinite([]),
            sx.nat_finite([3, 8])]


def record(name, X, others):
    rng = random.Random(name)
    c = X.carrier
    out = {"space": name, "policy": _policy(X)}
    if isinstance(c, FiniteEnum):
        fams = [FamilyExpr(c, tuple(sx.atoms(c, p) for p in pick))
                for pick in ([], [["a"]], [["a"], ["a", "b"]], [["b"]])]
        sets = [sx.empty(c), sx.atoms(c, ["a"]), sx.whole(c)]
        traces = [sx.atoms(c, ["a"]), sx.atoms(c, ["b"])]
    else:
        fams = [sample_family(c, rng) for _ in range(24)]
        sets = [sx.whole(c), sx.empty(c)] + [_sample_set(c, rng) for _ in range(10)]
        traces = _traces(c)
    out["admissible"] = [[F.render(), _decide(lambda: _verdict(is_admissible(X, F)))]
                         for F in fams]
    out["smallness"] = [[sx.render(K), _decide(lambda: _verdict(smallness(X, K)))]
                        for K in sets]
    out["subspace"] = [[sx.render(Y), _decide(lambda: _policy(subspace(X, Y)))]
                       for Y in traces]
    out["product"] = _decide(lambda: product([X])[0] is X)
    out["smallify"] = _decide(lambda: [smallify(X) is X] + _policy(smallify(X)))
    out["identity_into"] = [
        [other, _decide(lambda: _verdict(check_strict_continuity(SpaceMap(X, Y, Identity()))))]
        for other, Y in others if Y.carrier == c]
    return out


def collect():
    cases = spaces()
    return [record(name, X, cases) for name, X in cases]


def test_esscountable_answers_as_all():
    # both admit every open family, so both find the same witnesses
    for pol in (All(), EssCountable()):
        X = GtsPresentation(N, AllSets(), pol)
        v = smallness(X, sx.nat_cofinite([0, 2]))
        assert (v.status, v.witness.render()) == ("NotSmall", "{} + stream singletons")
        v = check_strict_continuity(SpaceMap(X, X, Identity()))
        assert (v.status, v.reason) == ("Yes", "every open family is admissible on both sides")


def test_policy_names_are_distinct():
    names = [name for name, _ in spaces()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", [name for name, _ in spaces()])
def test_policies_match_golden(name):
    # read here, not at import, so that regenerating may truncate the file first
    want = {w["space"]: w for w in json.loads(FIXTURE.read_text())}
    assert name in want, "space missing from the fixture"
    cases = spaces()
    assert record(name, dict(cases)[name], cases) == want[name]


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1))
