"""Acceptance gate: thirteen end-to-end checks, one pass/fail line each.

Run with -v so every criterion reports as a single PASSED/FAILED line.
Each test is independent and finishes well inside a minute.
"""

import random
import zlib
from fractions import Fraction
from itertools import combinations, product as iproduct

from gtskit.audit import audit_axioms, random_admissible_family
from gtskit.carriers import FiniteEnum
from gtskit.cli import main
from gtskit.constructions import direct_sum, product, smallify, subspace, summand_family, topologize
from gtskit.dsl import ParseError, ResolutionError, ValidationError, emit_document, parse_document
from gtskit.exhaustions import nat_chain
from gtskit.families import (
    FamilyExpr,
    essentially_finite_on,
    family_union,
    refines,
    union_families,
)
from gtskit.layers import index_function, piece_capture, validate_exhaustion, validate_locally_small, weak_closure
from gtskit import library as lib
from gtskit.maps import FiniteTable, Identity, NatShift, Pairing, SpaceMap, check_strict_continuity
from gtskit.presentation import (
    All,
    AllSets,
    enumerate_opens,
    generate_finite_gts,
    is_admissible,
    is_open,
    points_of,
    smallness,
)
from gtskit.props import classify_map, separation_report
from gtskit.sites import (
    check_grothendieck_topology,
    discrete_topology,
    function_presheaf,
    gts_to_site,
    is_sheaf,
    is_subcanonical,
    poset_category,
    Presheaf,
)
from gtskit import setexpr as sx
from gtskit.streams import ShrinkIntervals, Singletons

from conftest import canon_topology, mask_space, mask_topologies, small_catalog

import pathlib

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "corpus"


def _line(n, desc):
    print("criterion %d: PASS - %s" % (n, desc))


# -- criteria -------------------------------------------------------------

def test_criterion_01_remark_counterexample():
    X = lib.rational_interval_line()
    c = X.carrier
    U = FamilyExpr(c, (), (ShrinkIntervals(0, 1, 1, 1, 3),))
    V = FamilyExpr(c, (sx.interval(0, 1),))
    W = FamilyExpr(c, (sx.interval(0, 2),))
    assert is_admissible(X, union_families(U, V)).admissible
    assert is_admissible(X, union_families(U, W)).admissible
    assert not is_admissible(X, U).admissible
    _line(1, "shrink-family counterexample is exactly reproduced")


def test_criterion_02_top_line_smallness():
    X = lib.qline_topological()
    v = smallness(X, sx.interval(0, 1, False, False))
    assert v.status == "NotSmall"
    # the witness family replays: admissible but not essentially finite
    F = v.witness
    assert is_admissible(X, F).admissible
    assert not essentially_finite_on(F, family_union(F)).yes
    rng = random.Random(2)
    for _ in range(20):
        pts = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
               for _ in range(rng.randint(0, 5))]
        S = sx.empty(X.carrier)
        for p in pts:
            S = sx.union(S, sx.qpoint(p))
        assert smallness(X, S).status == "Small"
    _line(2, "interval not small, finite point sets small, witness replays")


def test_criterion_03_weakly_discrete_example():
    X = lib.weakly_discrete_nat()
    rep = separation_report(X)
    assert rep.flags["weakly_T1"].yes
    assert rep.flags["strongly_T1"].status == "No"
    T = topologize(X)
    assert isinstance(T.opens, AllSets) and isinstance(T.policy, All)
    assert is_open(T, sx.nat_cofinite([0]))
    _line(3, "finite-or-whole space is wT1 not sT1 and topologizes discrete")


def test_criterion_04_identity_not_strict_homeo():
    f = SpaceMap(lib.topological_discrete_nat(), lib.discrete_small_nat(),
                 Identity())
    cls = classify_map(f)
    assert cls["strictly_continuous"].yes
    assert cls["open_map"].yes
    assert cls["closed_map"].yes
    assert cls["strict_homeo"].status == "No"
    wit = cls["strict_homeo"].witness
    assert isinstance(wit.streams[0], Singletons)
    # the witness replays: admissible on the topological side only
    assert is_admissible(f.domain, wit).admissible
    assert not is_admissible(f.codomain, wit).admissible
    _line(4, "identity on discrete naturals fails only strict_homeo")


def test_criterion_05_finite_collapse_all_topologies_size_4():
    counts = [len(mask_topologies(n)) for n in range(5)]
    assert counts == [1, 1, 4, 29, 355]
    for n in range(1, 5):
        for k, T in enumerate(mask_topologies(n)):
            X = mask_space("p", n, T)
            opens = enumerate_opens(X)
            assert len(opens) == len(T)
            rep = audit_axioms(X, budget=60, seed=k)
            assert rep.ok(), rep.violations
            # Cov = P(Op): singletons, pairs and the full family suffice
            # together with the audit's exhaustive size-4 family sweep
            for r in (1, 2):
                for picks in combinations(opens, r):
                    assert is_admissible(
                        X, FamilyExpr(X.carrier, picks)).admissible
            assert is_admissible(
                X, FamilyExpr(X.carrier, tuple(opens))).admissible
    _line(5, "355 size-4 topologies audit clean with every family admissible")


def _pointwise(F, G, op):
    mems = tuple({op(A, B) for A in F.finite_part for B in G.finite_part})
    return FamilyExpr(F.carrier, mems)


def _proposition_instance(X, rng, which):
    F = random_admissible_family(X, rng)
    G = random_admissible_family(X, rng)
    if which == 0:
        return is_admissible(X, union_families(F, G)).admissible
    if which == 1:
        return is_admissible(X, _pointwise(F, G, sx.union)).admissible
    if which == 2:
        return is_admissible(X, _pointwise(F, G, sx.intersect)).admissible
    if which == 3:
        if not sx.intersect(family_union(F), family_union(G)).is_empty():
            return True
        if not is_admissible(X, union_families(F, G)).admissible:
            return True
        return (is_admissible(X, F).admissible
                and is_admissible(X, G).admissible)
    if which == 4:
        Vs = [random_admissible_family(X, rng) for _ in range(2)]
        big = F
        for V in Vs:
            aug = FamilyExpr(X.carrier, V.finite_part + (family_union(V),),
                             V.streams)
            big = union_families(big, aug)
        if not is_admissible(X, big).admissible:
            return True
        plain = F
        for V in Vs:
            plain = union_families(plain, V)
        return is_admissible(X, plain).admissible
    if which == 5:
        if essentially_finite_on(F, family_union(F)).yes:
            return is_admissible(X, F).admissible
        return True
    # saturation closure: coarsen two members into their union
    mems = F.finite_part
    if len(mems) < 2:
        return True
    i = rng.randrange(len(mems) - 1)
    merged = mems[:i] + (sx.union(mems[i], mems[i + 1]),) + mems[i + 2:]
    G2 = FamilyExpr(X.carrier, merged, F.streams)
    if refines(F, G2) and is_admissible(X, F).admissible:
        return is_admissible(X, G2).admissible
    return True


def test_criterion_06_admissible_family_propositions():
    for name, X in lib.shipped().items():
        rng = random.Random(zlib.crc32(name.encode()))
        for k in range(1000):
            assert _proposition_instance(X, rng, k % 7), (name, k)
    _line(6, "1000 proposition instances per shipped presentation hold")


def test_criterion_07_product_laws():
    A_list = small_catalog("a", 3)
    B_list = small_catalog("b", 3)
    tests = [smallify(X) for X in small_catalog("t", 2) if
             len(points_of(X.support)) == 2]
    assert len(A_list) == 13 and len(tests) == 3
    for A in A_list:
        a_opens = set(enumerate_opens(A))
        a_closed = {sx.minus(A.support, O) for O in a_opens}
        for B in B_list:
            b_opens = set(enumerate_opens(B))
            b_closed = {sx.minus(B.support, O) for O in b_opens}
            P, (p1, p2) = product([A, B])
            for O in enumerate_opens(P):
                K = sx.minus(P.support, O)
                assert p1.image(O) in a_opens and p1.image(K) in a_closed
                assert p2.image(O) in b_opens and p2.image(K) in b_closed
            ppts = points_of(P.support)
            for T in tests:
                topens = set(enumerate_opens(T))
                tpts = points_of(T.support)
                fs = [f for f in
                      (SpaceMap(T, A, FiniteTable(tuple(zip(tpts, v))))
                       for v in iproduct(points_of(A.support), repeat=2))
                      if all(f.preimage(U) in topens for U in a_opens)]
                gs = [g for g in
                      (SpaceMap(T, B, FiniteTable(tuple(zip(tpts, v))))
                       for v in iproduct(points_of(B.support), repeat=2))
                      if all(g.preimage(V) in topens for V in b_opens)]
                # uniqueness: distinct point maps into P have distinct
                # projection composites, so at most one map matches (f, g)
                composites = [
                    tuple((p1.apply(z), p2.apply(z)) for z in vals)
                    for vals in iproduct(ppts, repeat=len(tpts))]
                assert len(set(composites)) == len(composites)
                for f in fs:
                    for g in gs:
                        h = SpaceMap(T, P, Pairing(f, g))
                        for t in tpts:
                            z = h.apply(t)
                            assert p1.apply(z) == f.apply(t)
                            assert p2.apply(z) == g.apply(t)
                        for U in a_opens:
                            assert h.preimage(sx.box(U, B.support)) in topens
                        for V in b_opens:
                            assert h.preimage(sx.box(A.support, V)) in topens
    _line(7, "universal property and open/closed projections on 169 products")


def test_criterion_08_adjunction_checks():
    for X in lib.shipped().values():
        once = smallify(X)
        assert smallify(once) is once
    # hom-set agreement: strict continuity into X and into smallify(X)
    # coincide for every point map from every small space of size <= 3
    doms = small_catalog("s", 3)
    cods = [mask_space("x", n, T)
            for n in (1, 2, 3)
            for T in {canon_topology(T, n): T
                      for T in mask_topologies(n)}.values()]
    for S in doms:
        spts = points_of(S.support)
        for X in cods:
            Y = smallify(X)
            for vals in iproduct(points_of(X.support), repeat=len(spts)):
                tab = FiniteTable(tuple(zip(spts, vals)))
                vx = check_strict_continuity(SpaceMap(S, X, tab))
                vy = check_strict_continuity(SpaceMap(S, Y, tab))
                assert vx.status == vy.status, (S.name, X.name, tab)
    _line(8, "smallify idempotent with exhaustive hom-set agreement")


def test_criterion_09_direct_sum():
    pieces = [
        subspace(lib.discrete_small_nat(),
                 sx.nat_finite(range(10 * i, 10 * i + 10)))
        for i in range(10)
    ]
    X = direct_sum(pieces)
    fam = summand_family(X)
    assert is_admissible(X, fam).admissible
    sups = list(fam.finite_part)
    for r in (1, 2, 3):
        for picks in combinations(range(10), r):
            u = sx.empty(X.carrier)
            for i in picks:
                u = sx.union(u, sups[i])
            assert is_open(X, u)
    assert is_open(X, X.support)
    for s in sups:
        assert is_open(X, sx.minus(X.support, s))
    _line(9, "10-summand sum: admissible summands, open unions, closed parts")


def test_criterion_10_locally_small_layer():
    X = lib.qline_localized()
    rep = validate_locally_small(X)
    assert rep.flags["locally_small"].yes
    assert rep.flags["lindelof"].yes
    rng = random.Random(10)
    for _ in range(100):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        b = a + Fraction(rng.randint(0, 20), rng.randint(1, 7))
        S = sx.interval(a, b) if a < b else sx.qpoint(a)
        if rng.random() < 0.3:
            S = sx.union(S, sx.qpoint(b + rng.randint(1, 5)))
        assert smallness(X, S).status == "Small"
        assert smallness(X, weak_closure(X, S)).status == "Small"
    _line(10, "localized line is locally small; weak closures stay small")


def test_criterion_11_weakly_small_layer():
    X = lib.chain_exhausted_nat()
    E = X.policy.exhaustion
    rep = validate_exhaustion(X, E)
    assert rep.ok("W1", "W2", "W3", "W4", "W5")
    brute_chain = nat_chain()
    for x in range(51):
        brute = next(i for i in brute_chain.indices(x + 2)
                     if sx.contains(brute_chain.piece(i), x))
        assert index_function(brute_chain, x) == brute
    rng = random.Random(11)
    for _ in range(100):
        pts = sorted(rng.sample(range(60), rng.randint(1, 6)))
        dom = subspace(lib.discrete_small_nat(), sx.nat_finite(pts))
        f = SpaceMap(dom, X, NatShift(rng.randint(0, 9)))
        idx = piece_capture(f, E)
        assert sx.is_subset(f.image(dom.support), E.piece(idx))
    _line(11, "exhaustion passes W1-W5; index and piece capture agree")


def test_criterion_12_sites_and_sheaves():
    for n in (1, 2, 3):
        for T in mask_topologies(n):
            st = gts_to_site(mask_space("p", n, T))
            rep = check_grothendieck_topology(st.category, st.topology)
            assert all(f.yes for f in rep.flags.values()), sorted(T)
            assert is_subcanonical(st.pair()).yes, sorted(T)
    # discrete Grothendieck topology on the 2-point meet-poset
    C = poset_category(("0", "1"), lambda a, b: a <= b)
    v = is_subcanonical((C, discrete_topology(C)))
    assert v.status == "No"
    # function presheaf on the 3-point chain site, straight and doctored
    c = FiniteEnum(("a", "b", "c"))
    chain = generate_finite_gts(c, (
        sx.atoms(c, ["a"]), sx.atoms(c, ["a", "b"]), sx.whole(c)))
    st = gts_to_site(chain)
    F = function_presheaf(st)
    assert is_sheaf(st.pair(), F).yes
    broken = dict(F.restrict)
    tab = dict(broken["{a}->{a,b,c}"])
    vals = list(F.at("{a}"))
    k = next(iter(tab))
    tab[k] = vals[0] if tab[k] != vals[0] else vals[1]
    broken["{a}->{a,b,c}"] = tab
    G = Presheaf(st.category, F.values, broken, check=False)
    assert is_sheaf(st.pair(), G).status == "No"
    _line(12, "all small sites lawful and subcanonical; sheaf test is sharp")


def test_criterion_13_parser_round_trip_and_diagnostics(tmp_path, capsys):
    files = sorted(CORPUS.glob("*.gts"))
    assert files
    for path in files:
        doc = parse_document(path.read_text())
        out = emit_document(doc)
        assert parse_document(out) == doc, path.name
        assert emit_document(parse_document(out)) == out, path.name
    bad_files = sorted((CORPUS / "malformed").glob("*.gts"))
    assert len(bad_files) >= 5
    for path in bad_files:
        try:
            parse_document(path.read_text())
            raise AssertionError("malformed file parsed: %s" % path.name)
        except (ParseError, ResolutionError, ValidationError) as e:
            assert e.line >= 1 and e.col >= 1, path.name
        assert main(["audit", str(path), "X"]) == 2, path.name
        err = capsys.readouterr().err
        assert "line" in err, path.name
    _line(13, "corpus round-trips; malformed files yield exit 2 diagnostics")
