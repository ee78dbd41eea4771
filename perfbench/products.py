"""product-laws: binary products of small finite spaces and their projections.

This is acceptance criterion 7.  One op smallifies a seeded pair of spaces
from the catalog on at most 3 points and a 2-point test space, forms
product([A, B]), enumerates the product's opens, takes projection images of
every open and closed set, and builds Pairing maps from the test space.
"""

import random

from gtskit import setexpr as sx
from gtskit.carriers import FiniteEnum
from gtskit.constructions import product, smallify
from gtskit.maps import FiniteTable, Pairing, SpaceMap
from gtskit.presentation import enumerate_opens, from_points, generate_finite_gts, points_of

import oracle

MAX_POINTS = 3
TEST_POINTS = 2
PAIRINGS_PER_OP = 2
# shares of the ops by factor sizes.  A 3 x 3 product costs 150-800 ms, a
# 2 x 3 one 11-65 ms and smaller ones a few ms; fixed shares keep run cost
# independent of the seed.  They put the median at the middle of the 2 x 3
# stratum (20-80 %) and the 90th percentile at the middle of the 3 x 3 one
# (80-100 %), away from the jumps between strata
SHARES = {"small": 20, "2x3": 60, "3x3": 20}
EPOCH = 1000


def _space(prefix, n, T):
    """A topological finite space and its opens, keyed by mask."""
    atoms = tuple("%s%d" % (prefix, i) for i in range(n))
    c = FiniteEnum(atoms)
    sets = {m: from_points(c, [atoms[i] for i in oracle.bits(m)]) for m in sorted(T)}
    return generate_finite_gts(c, tuple(sets.values())), sets


class ProductLaws:
    name = "product-laws"
    trace_ops = 50

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.catalog = [(n, T) for n in range(1, MAX_POINTS + 1)
                        for T in oracle.class_representatives(n)]
        self.tests = oracle.class_representatives(TEST_POINTS)
        # within a stratum, pairs are grouped by the product's open count:
        # an op's cost grows with it, since every open gets four images
        strata = {}
        for a, (na, ta) in enumerate(self.catalog):
            for b, (nb, tb) in enumerate(self.catalog):
                key = "%dx%d" % (min(na, nb), max(na, nb))
                opens = len(oracle.product_opens(ta, tb, nb))
                classes = strata.setdefault(key if key in SHARES else "small", {})
                classes.setdefault(opens, []).append((a, b))
        self._sequence = oracle.stratified(
            {k: [c[n] for n in sorted(c)] for k, c in strata.items()},
            SHARES, EPOCH, self._rng)
        self._maps = {}

    def setup(self):
        """Build the catalog factors and the test spaces."""
        self.left = [_space("a", n, T) for n, T in self.catalog]
        self.right = [_space("b", n, T) for n, T in self.catalog]
        self.test_spaces = [_space("t", TEST_POINTS, T) for T in self.tests]

    def items(self):
        for a, b in self._sequence:
            yield self._item(a, b)

    def _continuous(self, t, k):
        key = (t, k)
        if key not in self._maps:
            n, T = self.catalog[k]
            self._maps[key] = oracle.continuous_maps(
                self.tests[t], TEST_POINTS, T, n)
        return self._maps[key]

    def _item(self, a, b):
        rng = self._rng
        t = rng.randrange(len(self.tests))
        fs, gs = self._continuous(t, a), self._continuous(t, b)
        pairs = [(rng.choice(fs), rng.choice(gs)) for _ in range(PAIRINGS_PER_OP)]
        return {"a": a, "b": b, "t": t, "pairs": pairs}

    def run(self, item):
        (A, a_sets), (B, b_sets) = self.left[item["a"]], self.right[item["b"]]
        A, B, T = smallify(A), smallify(B), smallify(self.test_spaces[item["t"]][0])
        P, (p1, p2) = product([A, B])
        opens = enumerate_opens(P)
        images = []
        for O in opens:
            K = sx.minus(P.support, O)
            images.append((p1.image(O), p2.image(O), p1.image(K), p2.image(K)))
        tpts = sorted(points_of(T.support))
        apts, bpts = sorted(points_of(A.support)), sorted(points_of(B.support))
        pairings = []
        for fv, gv in item["pairs"]:
            f = SpaceMap(T, A, FiniteTable(tuple(zip(tpts, [apts[y] for y in fv]))))
            g = SpaceMap(T, B, FiniteTable(tuple(zip(tpts, [bpts[y] for y in gv]))))
            h = SpaceMap(T, P, Pairing(f, g))
            values = [h.apply(x) for x in tpts]
            pre = [h.preimage(sx.box(U, B.support)) for U in a_sets.values()]
            pre += [h.preimage(sx.box(A.support, V)) for V in b_sets.values()]
            pairings.append((values, pre))
        return {"opens": opens, "images": images, "pairings": pairings}

    def check(self, item, out):
        na, ta = self.catalog[item["a"]]
        nb, tb = self.catalog[item["b"]]
        tt = self.tests[item["t"]]
        ia = {"a%d" % i: i for i in range(na)}
        ib = {"b%d" % j: j for j in range(nb)}
        it = {"t%d" % i: i for i in range(TEST_POINTS)}

        def grid(S):
            return sum(1 << (ia[x] * nb + ib[y]) for x, y in points_of(S))

        def left(S):
            return sum(1 << ia[x] for x in points_of(S))

        def right(S):
            return sum(1 << ib[y] for y in points_of(S))

        def test(S):
            return sum(1 << it[x] for x in points_of(S))

        errors = []
        want = oracle.product_opens(ta, tb, nb)
        got = [grid(O) for O in out["opens"]]
        if len(got) != len(want) or set(got) != want:
            errors.append("product opens differ from the union-of-boxes closure")
        full_a, full_b = (1 << na) - 1, (1 << nb) - 1
        for m, (o1, o2, k1, k2) in zip(got, out["images"]):
            k = ((1 << na * nb) - 1) & ~m
            expect = (oracle.project(m, na, nb, 0), oracle.project(m, na, nb, 1),
                      oracle.project(k, na, nb, 0), oracle.project(k, na, nb, 1))
            if (left(o1), right(o2), left(k1), right(k2)) != expect:
                errors.append("projection image differs from the mask image")
            elif not (expect[0] in ta and expect[1] in tb
                      and full_a & ~expect[2] in ta and full_b & ~expect[3] in tb):
                errors.append("projection of an open or closed set lost its type")
        for (fv, gv), (values, pre) in zip(item["pairs"], out["pairings"]):
            if [(ia[x], ib[y]) for x, y in values] != list(zip(fv, gv)):
                errors.append("pairing disagrees with its components")
            masks = [oracle.preimage(fv, u) for u in sorted(ta)]
            masks += [oracle.preimage(gv, v) for v in sorted(tb)]
            if [test(S) for S in pre] != masks or not all(m in tt for m in masks):
                errors.append("pairing preimage of an open box is wrong")
        return errors
