import pathlib
import random
from fractions import Fraction

import pytest

from gtskit.carriers import QLine
from gtskit.constructions import direct_sum, subspace
from gtskit.dsl import parse_document
from gtskit.errors import (
    NoInfimum,
    PointNotCovered,
    PolicyMismatch,
    PreconditionUnmet,
)
from gtskit.exhaustions import Exhaustion, FinitePoset, nat_chain
from gtskit.families import FamilyExpr
from gtskit.layers import (
    _annuli_refinement_ok,
    classify_subset,
    index_function,
    piece_capture,
    validate_exhaustion,
    validate_locally_small,
    weak_closure,
    weakly_open,
)
from gtskit import library as lib
from gtskit.maps import FiniteTable, Identity, NatShift, SpaceMap
from gtskit.presentation import (
    All,
    ExplicitList,
    FiniteOrWhole,
    GtsPresentation,
    PiecewiseEssFin,
    is_open,
    smallness,
)
from gtskit import setexpr as sx
from gtskit.streams import GrowBalls, ShrinkIntervals, Singletons


# -- weak opens and closures ---------------------------------------------

def test_weakly_open_on_line():
    X = lib.rational_interval_line()
    assert weakly_open(X, sx.interval(0, 1))
    assert not weakly_open(X, sx.interval(0, 1, False, True))


def test_weak_closure_on_line():
    X = lib.rational_interval_line()
    s = sx.union(sx.interval(0, 1), sx.qpoint(2))
    assert sx.render(weak_closure(X, s)) == "[0,1] u [2,2]"
    # closure is increasing and idempotent
    assert sx.is_subset(s, weak_closure(X, s))
    assert weak_closure(X, weak_closure(X, s)) == weak_closure(X, s)


def test_weak_closure_discrete():
    X = lib.topological_discrete_nat()
    s = sx.nat_finite([0, 3])
    assert weak_closure(X, s) == s


def test_weak_closure_weakly_discrete():
    # the generated topology of the finite-or-whole space is discrete
    X = lib.weakly_discrete_nat()
    assert weak_closure(X, sx.nat_finite([0])) == sx.nat_finite([0])
    assert weak_closure(X, sx.nat_cofinite([0])) == sx.nat_cofinite([0])


# -- locally small --------------------------------------------------------

def test_localized_line_locally_small():
    rep = validate_locally_small(lib.qline_localized())
    assert rep.flags["locally_small"].yes
    assert rep.flags["lindelof"].yes
    assert rep.flags["paracompact"].yes


def _pairwise_annuli_ok(X, chain):
    """_annuli_refinement_ok as first written: every two annuli two or more
    steps apart met pairwise, and each ball against a fresh union."""
    members = [sx.union(sx.interval(-n - 1, -n + 1), sx.interval(n - 1, n + 1))
               for n in range(8)]
    if not all(is_open(X, m) for m in members):
        return False
    if any(not sx.intersect(members[i], members[j]).is_empty()
           for i in range(8) for j in range(i + 2, 8)):
        return False
    return all(sx.is_subset(chain.member(max(chain.n0, m)), sx.union_all(X.carrier, members[:m + 2]))
               for m in range(1, 6))


def test_annuli_witness_agrees_with_the_pairwise_check():
    # the localized line's balls pass; balls of rate 3 outgrow the annuli
    X = lib.qline_localized()
    chains = [GrowBalls(1), GrowBalls(1, 0, 3), GrowBalls(2, 0, Fraction(7, 5))]
    rng = random.Random(25)
    chains += [GrowBalls(rng.randint(1, 3), Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                         Fraction(rng.randint(1, 9), rng.randint(1, 5))) for _ in range(40)]
    chains += [ShrinkIntervals(-rng.randint(1, 9), rng.randint(1, 9), 1, 1, 3) for _ in range(10)]
    verdicts = []
    for chain in chains:
        ok, witness = _annuli_refinement_ok(X, chain)
        assert ok == _pairwise_annuli_ok(X, chain), chain
        assert witness == ("{(-n-1,-n+1) u (n-1,n+1) : n >= 0}" if ok else "")
        verdicts.append(ok)
    assert verdicts[:3] == [True, False, True] and 5 < sum(verdicts) < len(chains) - 5


def test_nat_top_with_singleton_base():
    X = lib.topological_discrete_nat()
    base = FamilyExpr(X.carrier, (), (Singletons(),))
    rep = validate_locally_small(X, base=base)
    assert rep.flags["locally_small"].yes


def test_non_small_base_member_rejected():
    X = lib.qline_topological()
    bad = FamilyExpr(X.carrier, (sx.whole(X.carrier),))
    rep = validate_locally_small(X, base=bad)
    assert rep.flags["locally_small"].status == "No"


def test_locally_small_failure_exits():
    X = lib.qline_localized()
    q = X.carrier
    half_open = sx.interval(0, 1, False, True)
    cases = [
        (X, FamilyExpr(q, (half_open,)), "base member not open", half_open),
        (X, FamilyExpr(q, (sx.interval(0, 1),)), "base does not cover the space", None),
        (lib.rational_interval_line(), lib.ball_base(), "base not admissible", None),
    ]
    for Y, base, reason, witness in cases:
        rep = validate_locally_small(Y, base=base)
        v = rep.flags["locally_small"]
        assert (v.status, v.reason) == ("No", reason)
        assert v.witness == (witness if witness is not None else base)
        for name in ("paracompact", "lindelof", "closure_property", "strongly_T1"):
            assert rep.flags[name].status == "Unknown", (reason, name)


def test_policy_without_base_needs_explicit_base():
    with pytest.raises(PolicyMismatch):
        validate_locally_small(lib.qline_topological())


def test_weak_closure_of_small_stays_small_in_localized_line():
    X = lib.qline_localized()
    rng = random.Random(17)
    for _ in range(30):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        b = a + Fraction(rng.randint(0, 10), rng.randint(1, 5))
        s = sx.interval(a, b) if a < b else sx.qpoint(a)
        assert smallness(X, s).status == "Small"
        assert smallness(X, weak_closure(X, s)).status == "Small"


# -- exhaustions ----------------------------------------------------------

def test_chain_exhaustion_passes():
    X = lib.chain_exhausted_nat()
    rep = validate_exhaustion(X, X.policy.exhaustion)
    assert rep.ok("W1", "W2", "W3", "W4", "W5")
    assert rep.flags["pieces_closed_small"].yes


def test_index_function_matches_brute_force():
    E = nat_chain()
    for x in range(51):
        brute = next(i for i in E.indices(x + 2) if sx.contains(E.piece(i), x))
        assert index_function(E, x) == brute


def test_poset_exhaustion():
    c = lib.discrete_small_nat().carrier
    poset = FinitePoset(("lo", "hi"), (("lo", "hi"),))
    pieces = (("lo", sx.nat_finite([0, 1])), ("hi", sx.nat_finite([0, 1, 2, 3])))
    E = Exhaustion(poset=poset, pieces=pieces)
    X = lib.chain_exhausted_nat()
    assert index_function(E, 0) == "lo"
    assert index_function(E, 3) == "hi"
    with pytest.raises(PointNotCovered):
        index_function(E, 9)
    # the pieces miss most of the naturals, so only W1 fails
    flags = validate_exhaustion(X, E).flags
    assert flags["W1"].status == "No"
    assert flags["W1"].witness == sx.nat_finite([0, 1, 2, 3])
    assert all(flags[w].yes for w in ("W2", "W3", "W4", "W5", "pieces_closed_small"))


def test_poset_exhaustion_of_a_finite_space():
    X = lib.discrete_pair()
    c = X.carrier
    a, whole = sx.atoms(c, ["a"]), sx.whole(c)
    E = Exhaustion(poset=FinitePoset(("lo", "hi"), (("lo", "hi"),)),
                   pieces=(("lo", a), ("hi", whole)))
    rep = validate_exhaustion(X, E)
    assert rep.ok("W1", "W2", "W3", "W4", "W5", "pieces_closed_small")
    # two incomparable pieces: no piece is their meet, nothing bounds them,
    # and the larger index misses the smaller piece
    E = Exhaustion(poset=FinitePoset(("p", "q", "r"), (("p", "q"),)),
                   pieces=(("p", whole), ("q", a), ("r", sx.atoms(c, ["b"]))))
    flags = validate_exhaustion(X, E).flags
    assert flags["W1"].yes
    assert (flags["W2"].status, flags["W2"].witness) == ("No", ("p", "q"))
    assert (flags["W4"].status, flags["W4"].witness) == ("No", ("q", "r"))
    assert (flags["W5"].status, flags["W5"].witness) == ("No", ("p", "r"))
    # the indiscrete pair has no closed proper piece
    Y = lib.indiscrete_pair()
    E = Exhaustion(poset=FinitePoset(("lo", "hi"), (("lo", "hi"),)),
                   pieces=(("lo", sx.atoms(Y.carrier, ["a"])), ("hi", sx.whole(Y.carrier))))
    flags = validate_exhaustion(Y, E).flags
    assert flags["pieces_closed_small"].witness == sx.atoms(Y.carrier, ["a"])


# -- subset classification ------------------------------------------------

def listed_line():
    q = QLine()
    opens = (sx.empty(q), sx.interval(0, 1), sx.interval(0, 2), sx.whole(q))
    return GtsPresentation(q, ExplicitList(opens), All())


def test_listed_opens_of_the_line_classify_by_their_atoms():
    # the opens cut the line into (0,1), [1,2) and the rest
    X = listed_line()
    cases = {
        "(0,1)": (sx.interval(0, 1), "(-inf,+inf)", "Yes", "Yes"),
        "[1,2)": (sx.interval(1, 2, False, True), "(-inf,0] u [1,+inf)", "Yes", "Yes"),
        "[5,5]": (sx.qpoint(5), "(-inf,0] u [2,+inf)", "No", "No"),
        "[0,2)": (sx.interval(0, 2, False, True), "(-inf,+inf)", "No", "No"),
        "co(0,1)": (sx.complement(sx.interval(0, 1)), "(-inf,0] u [1,+inf)", "Yes", "Yes"),
    }
    for name, (S, closure, locally_closed, constructible) in cases.items():
        assert sx.render(weak_closure(X, S)) == closure, name
        flags = classify_subset(X, S).flags
        assert flags["locally_closed"].status == locally_closed, name
        assert flags["constructible"].status == constructible, name


def test_direct_sum_closes_and_classifies_summand_by_summand():
    X = direct_sum([lib.sierpinski(), lib.indiscrete_pair()])
    c = X.carrier
    cases = {
        ("0.a",): ("{0.a,0.b}", "Yes"),
        ("0.b", "1.a"): ("{0.b,1.a,1.b}", "No"),
        ("1.a",): ("{1.a,1.b}", "No"),
        ("0.b", "1.a", "1.b"): ("{0.b,1.a,1.b}", "Yes"),
    }
    for atoms, (closure, constructible) in cases.items():
        S = sx.atoms(c, atoms)
        assert sx.render(weak_closure(X, S)) == closure, atoms
        flags = classify_subset(X, S).flags
        assert flags["constructible"].status == constructible, atoms
        assert flags["locally_constructible"].status == constructible, atoms


def test_piecewise_constructibility_reports_the_failing_piece():
    Y = lib.indiscrete_pair()
    c = Y.carrier
    a = sx.atoms(c, ["a"])
    E = Exhaustion(poset=FinitePoset(("lo", "hi"), (("lo", "hi"),)),
                   pieces=(("lo", a), ("hi", sx.whole(c))))
    X = GtsPresentation(c, Y.opens, PiecewiseEssFin(E))
    flags = classify_subset(X, a).flags
    assert flags["constructible"].status == "No"
    v = flags["piecewise_constructible"]
    assert (v.status, v.witness) == ("No", a)
    assert classify_subset(X, sx.empty(c)).flags["piecewise_constructible"].yes
    flags = classify_subset(lib.chain_exhausted_nat(), sx.nat_finite([1, 4])).flags
    assert flags["piecewise_constructible"].yes


def test_half_open_interval_is_locally_closed():
    X = lib.rational_interval_line()
    cl = classify_subset(X, sx.interval(0, 1, False, True))
    assert cl.flags["open"].status == "No"
    assert cl.flags["closed"].status == "No"
    assert cl.flags["locally_closed"].yes
    assert cl.flags["constructible"].yes


def test_open_interval_flags():
    X = lib.rational_interval_line()
    cl = classify_subset(X, sx.interval(0, 1))
    assert cl.flags["open"].yes
    assert cl.flags["weakly_open"].yes
    assert cl.flags["closed"].status == "No"


def test_weakly_discrete_classification():
    X = lib.weakly_discrete_nat()
    cl = classify_subset(X, sx.nat_finite([0]))
    assert cl.flags["open"].yes
    assert cl.flags["closed"].status == "No"
    assert cl.flags["weakly_closed"].yes
    co = classify_subset(X, sx.nat_cofinite([0]))
    assert co.flags["open"].status == "No"
    assert co.flags["closed"].yes


@pytest.mark.parametrize("window", [sx.nat_finite([0, 1, 2, 5]), sx.nat_cofinite([3, 4])],
                         ids=["finite", "cofinite"])
def test_traces_of_finite_or_whole_are_weakly_discrete(window):
    # finite sets are open in the trace, so every subset is a union of opens
    X = subspace(lib.weakly_discrete_nat(), window)
    samples = [sx.nat_finite([]), sx.nat_finite([0]), sx.nat_finite([1, 5]),
               sx.nat_cofinite([0, 1]), sx.nat_cofinite([]), sx.nat_cofinite([7])]
    for S in (sx.intersect(T, X.support) for T in samples):
        assert weakly_open(X, S)
        assert weak_closure(X, S) == S
        flags = classify_subset(X, S).flags
        for name in ("weakly_open", "weakly_closed", "locally_closed"):
            assert flags[name].yes, (sx.render(S), name)


def _weak_openness_cases():
    spaces = dict(lib.shipped())
    corpus = pathlib.Path(__file__).resolve().parent.parent / "docs" / "corpus"
    for path in sorted(corpus.glob("*.gts")):
        for name, X in parse_document(path.read_text()).spaces.items():
            spaces["%s:%s" % (path.stem, name)] = X
    spaces["trace:line"] = subspace(lib.rational_interval_line(), sx.interval(0, 1, False, False))
    chain = spaces["spaces:Chain3"]
    spaces["trace:Chain3"] = subspace(chain, sx.atoms(chain.carrier, ["b", "c"]))
    return sorted(spaces.items())


WEAK_OPENNESS_CASES = _weak_openness_cases()


@pytest.mark.parametrize("name, X", WEAK_OPENNESS_CASES,
                         ids=[name for name, _ in WEAK_OPENNESS_CASES])
def test_open_sets_are_weakly_open(name, X):
    # the opens of every description but finite-or-whole are closed under
    # union, so weak openness is openness there
    rng = random.Random(2024)
    for k in range(200):
        S = X.opens.draw(X, rng) if k % 2 else sx.random_set(X.carrier, rng)
        S = sx.intersect(S, X.support)
        opened, weak = is_open(X, S), weakly_open(X, S)
        assert weak or not opened, sx.render(S)
        if not isinstance(X.opens, FiniteOrWhole):
            assert weak == opened, sx.render(S)


# -- piece capture --------------------------------------------------------

def chain_space():
    return lib.chain_exhausted_nat()


def test_piece_capture_inclusion():
    X = chain_space()
    dom = subspace(lib.discrete_small_nat(), sx.nat_finite(range(5)))
    inc = SpaceMap(dom, X, Identity())
    assert piece_capture(inc, X.policy.exhaustion) == 4


def test_piece_capture_shift():
    X = chain_space()
    dom = subspace(lib.discrete_small_nat(), sx.nat_finite([0, 3]))
    f = SpaceMap(dom, X, NatShift(7))
    assert piece_capture(f, X.policy.exhaustion) == 10


def test_piece_capture_takes_the_piece_with_the_fewest_indices_below():
    # both pieces of the poset exhaustion capture the image {a}; the one
    # with fewer indices below it is named, whatever order the pieces come in
    X = lib.discrete_pair()
    c = X.carrier
    E = Exhaustion(poset=FinitePoset(("lo", "hi"), (("lo", "hi"),)),
                   pieces=(("hi", sx.whole(c)), ("lo", sx.atoms(c, ["a"]))))
    assert (E.poset.below("hi"), E.poset.below("lo")) == (["lo", "hi"], ["lo"])
    to_a = SpaceMap(X, X, FiniteTable((("a", "a"), ("b", "a"))))
    assert piece_capture(to_a, E) == "lo"
    assert piece_capture(SpaceMap(X, X, Identity()), E) == "hi"


def test_piece_capture_needs_small_domain():
    X = chain_space()
    f = SpaceMap(lib.topological_discrete_nat(), X, Identity())
    with pytest.raises(PreconditionUnmet):
        piece_capture(f, X.policy.exhaustion)


def test_piece_capture_seeded_maps():
    X = chain_space()
    rng = random.Random(23)
    for _ in range(50):
        pts = sorted(rng.sample(range(40), rng.randint(1, 6)))
        dom = subspace(lib.discrete_small_nat(), sx.nat_finite(pts))
        f = SpaceMap(dom, X, NatShift(rng.randint(0, 9)))
        idx = piece_capture(f, X.policy.exhaustion)
        img = f.image(dom.support)
        assert sx.is_subset(img, X.policy.exhaustion.piece(idx))


def test_late_chain_pieces_are_found():
    # stage 4096 lies past the 4096 stages a fixed scan from 0 reaches
    assert index_function(nat_chain(), 4096) == 4096
    X = chain_space()
    dom = subspace(lib.discrete_small_nat(), sx.nat_finite([0]))
    assert piece_capture(SpaceMap(dom, X, NatShift(4096)), X.policy.exhaustion) == 4096
