"""Finite categories, sieves, Grothendieck topologies, and sheaf checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iproduct

from .errors import NonFiniteCarrier, NonPosetCategory, PreconditionUnmet
from .layers import LayerReport
from .presentation import GtsPresentation, from_mask, least_opens, points_of, unions_up_to
from . import setexpr as sx
from .verdict import Verdict


# -- categories -----------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    name: str
    dom: str
    cod: str


@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple
    morphisms: tuple
    comp: dict  # (f.name, g.name) -> name of f after g, for g.cod == f.dom
    identity: dict  # object -> identity morphism name

    def __post_init__(self):
        self._validate()

    def morphism(self, name: str) -> Morphism:
        for m in self.morphisms:
            if m.name == name:
                return m
        raise KeyError(name)

    def hom_into(self, C: str) -> tuple:
        return tuple(m for m in self.morphisms if m.cod == C)

    def compose(self, f: Morphism, g: Morphism) -> Morphism:
        # f after g; g.cod must equal f.dom
        if g.cod != f.dom:
            raise ValueError("morphisms do not compose: %s after %s" % (f.name, g.name))
        return self.morphism(self.comp[(f.name, g.name)])

    def _validate(self):
        names = [m.name for m in self.morphisms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate morphism names")
        for obj in self.objects:
            i = self.morphism(self.identity[obj])
            if i.dom != obj or i.cod != obj:
                raise ValueError("bad identity on " + obj)
        for f in self.morphisms:
            for g in self.morphisms:
                if g.cod != f.dom:
                    if (f.name, g.name) in self.comp:
                        raise ValueError("composite of non-composable pair")
                    continue
                h = self.compose(f, g)
                if h.dom != g.dom or h.cod != f.cod:
                    raise ValueError("ill-typed composite %s" % h.name)
        for obj in self.objects:
            i = self.morphism(self.identity[obj])
            for f in self.morphisms:
                if f.dom == obj and self.compose(f, i) != f:
                    raise ValueError("right identity fails at " + f.name)
                if f.cod == obj and self.compose(i, f) != f:
                    raise ValueError("left identity fails at " + f.name)
        for f in self.morphisms:
            for g in self.morphisms:
                if g.cod != f.dom:
                    continue
                for h in self.morphisms:
                    if h.cod != g.dom:
                        continue
                    if self.compose(self.compose(f, g), h) != \
                            self.compose(f, self.compose(g, h)):
                        raise ValueError(
                            "associativity fails at (%s,%s,%s)"
                            % (f.name, g.name, h.name))

    # poset helpers
    def is_poset(self) -> bool:
        for a in self.objects:
            for b in self.objects:
                hom = [m for m in self.morphisms if m.dom == a and m.cod == b]
                if len(hom) > 1:
                    return False
                if a != b and hom and any(
                    m.dom == b and m.cod == a for m in self.morphisms
                ):
                    return False
        return True

    def leq(self, a: str, b: str) -> bool:
        return any(m.dom == a and m.cod == b for m in self.morphisms)

    def arrow(self, a: str, b: str) -> Morphism:
        for m in self.morphisms:
            if m.dom == a and m.cod == b:
                return m
        raise KeyError("%s -> %s" % (a, b))


def poset_category(objects, leq) -> FiniteCategory:
    """The category of a finite poset: one morphism per related pair."""
    objects = tuple(objects)
    morphs = []
    for a in objects:
        for b in objects:
            if leq(a, b):
                morphs.append(Morphism("%s->%s" % (a, b), a, b))
    comp = {}
    for f in morphs:
        for g in morphs:
            if g.cod == f.dom:
                comp[(f.name, g.name)] = "%s->%s" % (g.dom, f.cod)
    ident = {a: "%s->%s" % (a, a) for a in objects}
    return FiniteCategory(objects, tuple(morphs), comp, ident)


# -- sieves ---------------------------------------------------------------

@dataclass(frozen=True)
class Sieve:
    target: str
    names: frozenset

    def render(self) -> str:
        return "{%s}" % ",".join(sorted(self.names))


def maximal_sieve(C: FiniteCategory, obj: str) -> Sieve:
    return Sieve(obj, frozenset(m.name for m in C.hom_into(obj)))


def empty_sieve(obj: str) -> Sieve:
    return Sieve(obj, frozenset())


def sieve_violation(C: FiniteCategory, S: Sieve):
    """A pair (f, g) with f in S but f after g missing, or None."""
    for fn in S.names:
        f = C.morphism(fn)
        if f.cod != S.target:
            return (fn, None)
        for g in C.morphisms:
            if g.cod == f.dom and C.compose(f, g).name not in S.names:
                return (fn, g.name)
    return None


def is_sieve(C: FiniteCategory, S: Sieve) -> bool:
    return sieve_violation(C, S) is None


def generated_sieve(C: FiniteCategory, obj: str, gens) -> Sieve:
    """Close a set of morphisms into obj under precomposition."""
    names = set()
    for f in gens:
        if f.cod != obj:
            raise ValueError("generator not into " + obj)
        names.add(f.name)
        for g in C.morphisms:
            if g.cod == f.dom:
                names.add(C.compose(f, g).name)
    return Sieve(obj, frozenset(names))


def pullback_sieve(C: FiniteCategory, f: Morphism, S: Sieve) -> Sieve:
    if f.cod != S.target:
        raise ValueError("pullback morphism does not land in the sieve target")
    names = frozenset(
        g.name for g in C.morphisms
        if g.cod == f.dom and C.compose(f, g).name in S.names
    )
    return Sieve(f.dom, names)


def all_sieves(C: FiniteCategory, obj: str) -> list:
    hom = C.hom_into(obj)
    out = []
    for r in range(len(hom) + 1):
        for picks in combinations(hom, r):
            S = Sieve(obj, frozenset(m.name for m in picks))
            if is_sieve(C, S):
                out.append(S)
    return out


# -- Grothendieck topologies ---------------------------------------------

@dataclass(frozen=True)
class TopologyAssignment:
    sieves: dict  # object -> frozenset of Sieve

    def at(self, obj: str) -> frozenset:
        return self.sieves.get(obj, frozenset())


def check_grothendieck_topology(C: FiniteCategory, J: TopologyAssignment) -> LayerReport:
    rep = LayerReport()
    for obj, ss in J.sieves.items():
        for S in ss:
            if S.target != obj or not is_sieve(C, S):
                raise ValueError("entry of J(%s) is not a sieve on it" % obj)

    ident = next((obj for obj in C.objects
                  if maximal_sieve(C, obj) not in J.at(obj)), None)
    rep.flags["identity"] = Verdict("Yes" if ident is None else "No", witness=ident)

    stab = None
    for obj in C.objects:
        for S in J.at(obj):
            for f in C.hom_into(obj):
                if pullback_sieve(C, f, S) not in J.at(f.dom):
                    stab = (obj, S.render(), f.name)
                    break
    rep.flags["stability"] = Verdict("Yes" if stab is None else "No", witness=stab)

    trans = None
    for obj in C.objects:
        covers = J.at(obj)
        for R in all_sieves(C, obj):
            if R in covers:
                continue
            for S in covers:
                if all(pullback_sieve(C, C.morphism(fn), R) in J.at(C.morphism(fn).dom)
                       for fn in S.names):
                    trans = (obj, S.render(), R.render())
                    break
    rep.flags["transitivity"] = Verdict("Yes" if trans is None else "No", witness=trans)

    sat = None
    for obj in C.objects:
        for S in J.at(obj):
            for R in all_sieves(C, obj):
                if S.names <= R.names and R not in J.at(obj):
                    sat = (obj, S.render(), R.render())
    rep.flags["saturation"] = Verdict("Yes" if sat is None else "No", witness=sat)

    inter = None
    for obj in C.objects:
        for S in J.at(obj):
            for R in J.at(obj):
                meet = Sieve(obj, S.names & R.names)
                if meet not in J.at(obj):
                    inter = (obj, S.render(), R.render())
    rep.flags["intersection"] = Verdict("Yes" if inter is None else "No", witness=inter)
    return rep


def discrete_topology(C: FiniteCategory) -> TopologyAssignment:
    """Every sieve covers."""
    return TopologyAssignment(
        {obj: frozenset(all_sieves(C, obj)) for obj in C.objects}
    )


def indiscrete_topology(C: FiniteCategory) -> TopologyAssignment:
    """Only the maximal sieves cover."""
    return TopologyAssignment(
        {obj: frozenset([maximal_sieve(C, obj)]) for obj in C.objects}
    )


# -- presheaves and sheaves ----------------------------------------------

@dataclass(frozen=True)
class Presheaf:
    category: FiniteCategory
    values: dict  # object -> tuple of values
    restrict: dict  # morphism name -> dict value -> value
    check: bool = True

    def __post_init__(self):
        if self.check:
            self._validate()

    def at(self, obj: str) -> tuple:
        return self.values[obj]

    def res(self, m: Morphism, x):
        return self.restrict[m.name][x]

    def _validate(self):
        C = self.category
        for m in C.morphisms:
            table = self.restrict[m.name]
            for x in self.values[m.cod]:
                if table[x] not in self.values[m.dom]:
                    raise ValueError("restriction along %s leaves the presheaf" % m.name)
        for obj in C.objects:
            i = C.morphism(C.identity[obj])
            for x in self.values[obj]:
                if self.res(i, x) != x:
                    raise ValueError("identity does not act as identity at " + obj)
        for f in C.morphisms:
            for g in C.morphisms:
                if g.cod != f.dom:
                    continue
                h = C.compose(f, g)
                for x in self.values[f.cod]:
                    if self.res(g, self.res(f, x)) != self.res(h, x):
                        raise ValueError(
                            "functoriality fails along %s after %s" % (f.name, g.name))


def _require_poset(C: FiniteCategory):
    if not C.is_poset():
        raise NonPosetCategory("sheaf checking needs a poset of opens")


def _matching_families(C: FiniteCategory, F: Presheaf, S: Sieve) -> list:
    """Compatible assignments on the member objects of a poset sieve.

    Each family is a dict object -> value, keyed by the domains of the
    sieve's morphisms; the empty sieve has exactly one (empty) family.
    """
    objs = sorted({C.morphism(fn).dom for fn in S.names})
    maxes = [a for a in objs if not any(b != a and C.leq(a, b) for b in objs)]
    fams = []
    for picks in iproduct(*(F.at(m) for m in maxes)):
        fam = {}
        for a in objs:
            i = next(i for i, m in enumerate(maxes) if C.leq(a, m))
            fam[a] = F.res(C.arrow(a, maxes[i]), picks[i])
        # every in-sieve restriction must agree, along every path
        ok = all(
            F.res(C.arrow(a, b), fam[b]) == fam[a]
            for a in objs for b in objs if a != b and C.leq(a, b)
        )
        if ok:
            fams.append(fam)
    return fams


def is_sheaf(site, F: Presheaf) -> Verdict:
    C, J = site
    _require_poset(C)
    for obj in C.objects:
        for S in J.at(obj):
            fams = _matching_families(C, F, S)
            objs = sorted({C.morphism(fn).dom for fn in S.names})
            hits = {}
            for x in F.at(obj):
                key = tuple((a, F.res(C.arrow(a, obj), x)) for a in objs)
                hits.setdefault(key, []).append(x)
            for fam in fams:
                key = tuple(sorted(fam.items()))
                n = len(hits.get(key, []))
                if n != 1:
                    why = "no amalgamation" if n == 0 else "multiple amalgamations"
                    return Verdict("No", why, (obj, S.render(), key))
            extra = sum(len(v) for k, v in hits.items()
                        if k not in {tuple(sorted(f.items())) for f in fams})
            if extra:
                return Verdict("No", "section restricts to a non-family",
                               (obj, S.render()))
    return Verdict("Yes")


def representable_presheaf(C: FiniteCategory, obj: str) -> Presheaf:
    """Hom(-, obj) on a poset category."""
    _require_poset(C)
    values = {a: (("*",) if C.leq(a, obj) else ()) for a in C.objects}
    restrict = {}
    for m in C.morphisms:
        restrict[m.name] = {x: x for x in values[m.cod]}
    return Presheaf(C, values, restrict)


def is_subcanonical(site) -> Verdict:
    C, J = site
    _require_poset(C)
    for obj in C.objects:
        verdict = is_sheaf(site, representable_presheaf(C, obj))
        if not verdict.yes:
            return Verdict("No", verdict.reason, obj, verdict)
    return Verdict("Yes")


# -- from finite spaces to sites -----------------------------------------

@dataclass(frozen=True)
class Site:
    category: FiniteCategory
    topology: TopologyAssignment
    object_sets: dict  # object name -> SetExpr

    def pair(self):
        return (self.category, self.topology)


# The sieves on an open are filtered from all subsets of the opens below it:
# 16 all-sets opens on 4 points take 0.74 s, a chain of 14 opens 0.34 s, and
# each further open doubles the time (x86_64, Python 3.11).
_MAX_OPENS = 16


def gts_to_site(X: GtsPresentation) -> Site:
    if not X.support.is_finite_pointset():
        raise NonFiniteCarrier("sites are built from finite presentations")
    pts, least = least_opens(X)
    masks = unions_up_to(least, _MAX_OPENS)
    if masks is None:
        raise PreconditionUnmet("sites are built from at most %d opens" % _MAX_OPENS)
    opens = sorted((from_mask(X.carrier, pts, m) for m in masks), key=sx.sort_key)
    names = {sx.render(S): S for S in opens}
    C = poset_category(
        sorted(names),
        lambda a, b: sx.is_subset(names[a], names[b]),
    )
    # a sieve covers U when the opens it holds have union U
    J = {uname: frozenset(
        S for S in all_sieves(C, uname)
        if sx.union_all(X.carrier, [names[C.morphism(m).dom] for m in S.names]) == U)
        for uname, U in names.items()}
    return Site(C, TopologyAssignment(J), names)


def function_presheaf(site: Site, targets=("0", "1")) -> Presheaf:
    """All functions from the points of each open into a finite value set."""
    C = site.category
    pts = {name: tuple(points_of(S)) for name, S in site.object_sets.items()}
    values = {}
    for name in C.objects:
        values[name] = tuple(
            tuple(zip(pts[name], choice))
            for choice in iproduct(targets, repeat=len(pts[name]))
        )
    restrict = {}
    for m in C.morphisms:
        keep = set(pts[m.dom])
        restrict[m.name] = {
            x: tuple(pv for pv in x if pv[0] in keep) for x in values[m.cod]
        }
    return Presheaf(C, values, restrict)
