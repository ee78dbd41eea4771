import time

import pytest

from gtskit.carriers import FiniteEnum, NatFC
from gtskit.constructions import subspace
from gtskit.errors import NonFiniteCarrier, NonPosetCategory, PreconditionUnmet
from gtskit import library as lib
from gtskit.presentation import All, AllSets, ExplicitList, GtsPresentation
from gtskit import setexpr as sx
from gtskit.sites import (
    FiniteCategory,
    Morphism,
    Presheaf,
    Sieve,
    TopologyAssignment,
    all_sieves,
    check_grothendieck_topology,
    discrete_topology,
    empty_sieve,
    function_presheaf,
    generated_sieve,
    gts_to_site,
    indiscrete_topology,
    is_sheaf,
    is_sieve,
    is_subcanonical,
    maximal_sieve,
    poset_category,
    pullback_sieve,
    representable_presheaf,
    sieve_violation,
)


def chain3_space():
    c = FiniteEnum(("a", "b", "c"))
    opens = (sx.empty(c), sx.atoms(c, ["a"]), sx.atoms(c, ["a", "b"]),
             sx.whole(c))
    return GtsPresentation(c, ExplicitList(opens), All(), name="chain3")


def two_chain():
    return poset_category(("0", "1"), lambda a, b: a <= b)


# -- categories and sieves ------------------------------------------------

def test_poset_category_laws_validated():
    C = two_chain()
    assert C.is_poset()
    assert len(C.morphisms) == 3


def test_bad_category_rejected():
    # an identity pointing at the wrong object
    m = (Morphism("i", "x", "x"),)
    with pytest.raises(KeyError):
        FiniteCategory(("x",), m, {}, {"x": "j"})


def test_maximal_and_empty_sieves():
    C = two_chain()
    assert is_sieve(C, maximal_sieve(C, "1"))
    assert is_sieve(C, empty_sieve("1"))


def test_non_sieve_detected_with_witness():
    C = two_chain()
    # {id_1} alone misses the precomposite 0->1
    S = Sieve("1", frozenset(["1->1"]))
    assert not is_sieve(C, S)
    assert sieve_violation(C, S) == ("1->1", "0->1")


def test_pullback_identity_and_maximal():
    C = two_chain()
    for S in all_sieves(C, "1"):
        assert pullback_sieve(C, C.morphism("1->1"), S) == S
    f = C.morphism("0->1")
    assert pullback_sieve(C, f, maximal_sieve(C, "1")) == maximal_sieve(C, "0")


def test_pullback_respects_composition_on_gts_sites():
    st = gts_to_site(lib.sierpinski())
    C = st.category
    for obj in C.objects:
        for S in all_sieves(C, obj):
            for f in C.hom_into(obj):
                for g in C.hom_into(f.dom):
                    assert pullback_sieve(C, C.compose(f, g), S) == \
                        pullback_sieve(C, g, pullback_sieve(C, f, S))


def test_poset_pullback_is_intersection_of_generators():
    # on a 3-element poset, pulling back the sieve generated by V along
    # W -> C yields the sieve generated by the meet of V and W
    C = poset_category(("v", "w", "top"),
                       lambda a, b: a == b or b == "top")
    S = generated_sieve(C, "top", [C.arrow("v", "top")])
    back = pullback_sieve(C, C.arrow("w", "top"), S)
    # v and w have no common lower bound here, so the pullback is empty
    assert back == empty_sieve("w")
    back2 = pullback_sieve(C, C.arrow("v", "top"), S)
    assert back2 == maximal_sieve(C, "v")


# -- topology axioms ------------------------------------------------------

def test_indiscrete_assignment_passes():
    C = two_chain()
    rep = check_grothendieck_topology(C, indiscrete_topology(C))
    assert all(f.yes for f in rep.flags.values())


def test_missing_maximal_sieve_fails_identity():
    C = two_chain()
    J = TopologyAssignment({
        "0": frozenset([maximal_sieve(C, "0")]),
        "1": frozenset(),
    })
    rep = check_grothendieck_topology(C, J)
    assert rep.flags["identity"].status == "No"


def test_discrete_topology_passes_axioms():
    C = two_chain()
    rep = check_grothendieck_topology(C, discrete_topology(C))
    assert all(f.yes for f in rep.flags.values())


def test_gts_sites_pass_axioms_and_derived_conditions():
    for name in ("sierpinski", "discrete_pair", "indiscrete_pair"):
        st = gts_to_site(lib.shipped()[name])
        rep = check_grothendieck_topology(st.category, st.topology)
        assert all(f.yes for f in rep.flags.values()), name


def test_gts_to_site_object_counts():
    assert len(gts_to_site(lib.indiscrete_pair()).category.objects) == 2
    assert len(gts_to_site(lib.sierpinski()).category.objects) == 3
    st = gts_to_site(lib.discrete_pair())
    assert len(st.category.objects) == 4
    # the covering {{a},{b}} of {a,b} is present
    C = st.category
    cov = generated_sieve(C, "{a,b}", [C.arrow("{a}", "{a,b}"),
                                       C.arrow("{b}", "{a,b}")])
    assert cov in st.topology.at("{a,b}")


def test_gts_to_site_rejects_infinite_carriers():
    with pytest.raises(NonFiniteCarrier):
        gts_to_site(lib.discrete_small_nat())


def test_gts_to_site_of_a_finite_trace_of_the_line():
    # the line has infinitely many opens, its two-point trace four
    X = subspace(lib.rational_interval_line(), sx.union(sx.qpoint(0), sx.qpoint(1)))
    assert len(gts_to_site(X).category.objects) == 4


def test_gts_to_site_counts_the_opens_before_building_anything():
    # at most 16 opens: 2**4 build, 2**5 and 2**25 are refused, the count
    # stopping just past the bound
    four = GtsPresentation(NatFC(), AllSets(), All(), sx.nat_finite(range(4)))
    assert len(gts_to_site(four).category.objects) == 16
    for n in (5, 25):
        X = GtsPresentation(NatFC(), AllSets(), All(), sx.nat_finite(range(n)))
        start = time.perf_counter()
        with pytest.raises(PreconditionUnmet):
            gts_to_site(X)
        assert time.perf_counter() - start < 1.0, n


# -- sheaves --------------------------------------------------------------

def test_function_presheaf_is_sheaf():
    st = gts_to_site(chain3_space())
    assert is_sheaf(st.pair(), function_presheaf(st)).yes


def test_doctored_presheaf_rejected_with_covering():
    st = gts_to_site(chain3_space())
    F = function_presheaf(st)
    broken = dict(F.restrict)
    name = "{a}->{a,b,c}"
    tab = dict(broken[name])
    vals = list(F.at("{a}"))
    k = next(iter(tab))
    tab[k] = vals[0] if tab[k] != vals[0] else vals[1]
    broken[name] = tab
    G = Presheaf(st.category, F.values, broken, check=False)
    v = is_sheaf(st.pair(), G)
    assert v.status == "No"
    assert v.witness is not None


def test_empty_covering_forces_singleton_sections():
    # a topology admitting the empty sieve on an object forces the
    # presheaf to take a one-point value there
    C = two_chain()
    J = TopologyAssignment({
        "0": frozenset([maximal_sieve(C, "0"), empty_sieve("0")]),
        "1": frozenset([maximal_sieve(C, "1")]),
    })
    two_vals = Presheaf(
        C,
        {"0": ("x", "y"), "1": ("x", "y")},
        {m.name: {"x": "x", "y": "y"} for m in C.morphisms},
    )
    v = is_sheaf((C, J), two_vals)
    assert v.status == "No"
    one_val = Presheaf(
        C,
        {"0": ("x",), "1": ("x",)},
        {m.name: {"x": "x"} for m in C.morphisms},
    )
    assert is_sheaf((C, J), one_val).yes


def test_presheaf_functoriality_enforced():
    C = two_chain()
    with pytest.raises(ValueError):
        Presheaf(C, {"0": ("x",), "1": ("x",)},
                 {"0->0": {"x": "x"}, "1->1": {"x": "y"}, "0->1": {"x": "x"}})


def test_non_poset_category_rejected_for_sheaves():
    # two parallel morphisms between distinct objects
    ms = (
        Morphism("ia", "a", "a"), Morphism("ib", "b", "b"),
        Morphism("f", "a", "b"), Morphism("g", "a", "b"),
    )
    comp = {("f", "ia"): "f", ("g", "ia"): "g", ("ib", "f"): "f",
            ("ib", "g"): "g", ("ia", "ia"): "ia", ("ib", "ib"): "ib"}
    C = FiniteCategory(("a", "b"), ms, comp, {"a": "ia", "b": "ib"})
    F = Presheaf(C, {"a": ("x",), "b": ("x",)},
                 {m.name: {"x": "x"} for m in ms})
    with pytest.raises(NonPosetCategory):
        is_sheaf((C, TopologyAssignment({})), F)


# -- subcanonicality ------------------------------------------------------

def test_one_object_category_subcanonical():
    C = poset_category(("only",), lambda a, b: True)
    J = indiscrete_topology(C)
    assert is_subcanonical((C, J)).yes


def test_gts_sites_subcanonical():
    for name in ("sierpinski", "discrete_pair", "indiscrete_pair"):
        st = gts_to_site(lib.shipped()[name])
        assert is_subcanonical(st.pair()).yes, name


def test_discrete_topology_not_subcanonical():
    C = two_chain()
    v = is_subcanonical((C, discrete_topology(C)))
    assert v.status == "No"


def test_representables_are_sheaves_on_gts_sites():
    st = gts_to_site(chain3_space())
    for obj in st.category.objects:
        F = representable_presheaf(st.category, obj)
        assert is_sheaf(st.pair(), F).yes, obj
