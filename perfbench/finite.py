"""finite-exhaustive: every labeled topology on at most 4 points, audited.

This is acceptance criterion 5.  One op builds one topology from its minimal
neighbourhoods with generate_finite_gts, enumerates its opens, runs the
exhaustive audit at a fixed budget, checks admissibility of every 1- and
2-member open family, and asks is_open of sampled subsets that are not open.
"""

import random
from itertools import combinations

from gtskit.audit import audit_axioms, recheck
from gtskit.carriers import FiniteEnum
from gtskit.families import FamilyExpr
from gtskit.presentation import (
    enumerate_opens,
    from_points,
    generate_finite_gts,
    is_admissible,
    is_open,
    points_of,
)

import oracle

MAX_POINTS = 4
AUDIT_BUDGET = 60
NON_OPEN_SAMPLES = 3
# shares of the ops by open count.  Cost grows steeply with the open count
# (medians about 5, 19, 55, 140 and 380 ms for light, 5, 6, 7 and 8 opens),
# so the shares are fixed to keep run cost independent of the seed.  They
# put the median at the middle of the 5-open stratum (40-60 %) and the 90th
# percentile at the middle of the 8-open one (80-100 %): at a stratum's edge
# a quantile moves more than the op rate when the machine's speed varies
SHARES = {"light": 40, 5: 20, 6: 10, 7: 10, 8: 20}
EPOCH = 1000


class FiniteExhaustive:
    name = "finite-exhaustive"
    trace_ops = 60

    def __init__(self, seed):
        self._rng = random.Random(seed)
        # strata by open count, classes by homeomorphism type: labeled
        # topologies of one class cost the same
        strata = {}
        for n in range(1, MAX_POINTS + 1):
            for T in oracle.mask_topologies(n):
                key = len(T) if len(T) in SHARES else "light"
                classes = strata.setdefault(key, {})
                classes.setdefault((n, oracle.canon_topology(T, n)), []).append((n, T))
        self._sequence = oracle.stratified(
            {k: [c[t] for t in sorted(c)] for k, c in strata.items()},
            SHARES, EPOCH, self._rng)

    def setup(self):
        """Nothing is fixed: every op builds its own presentation."""

    def items(self):
        for n, T in self._sequence:
            yield self._item(n, T)

    def _item(self, n, T):
        rng = self._rng
        gens = oracle.minimal_neighbourhoods(T, n)
        rng.shuffle(gens)
        outside = [m for m in range(1 << n) if m not in T]
        picks = rng.sample(outside, min(NON_OPEN_SAMPLES, len(outside)))
        return {"n": n, "T": T, "gens": gens, "non_open": picks,
                "audit_seed": rng.randrange(1 << 16)}

    def run(self, item):
        atoms = tuple("p%d" % i for i in range(item["n"]))
        c = FiniteEnum(atoms)
        X = generate_finite_gts(c, tuple(
            from_points(c, [atoms[i] for i in oracle.bits(m)])
            for m in item["gens"]))
        opens = enumerate_opens(X)
        rep = audit_axioms(X, budget=AUDIT_BUDGET, seed=item["audit_seed"])
        verdicts = [is_admissible(X, FamilyExpr(c, picks))
                    for r in (1, 2) for picks in combinations(opens, r)]
        non_open = [is_open(X, from_points(c, [atoms[i] for i in oracle.bits(m)]))
                    for m in item["non_open"]]
        return {"X": X, "opens": opens, "audit": rep,
                "verdicts": verdicts, "non_open": non_open}

    def check(self, item, out):
        index = {"p%d" % i: i for i in range(item["n"])}
        masks = {sum(1 << index[a] for a in points_of(O)) for O in out["opens"]}
        errors = []
        if len(out["opens"]) != len(item["T"]) or masks != item["T"]:
            errors.append("opens differ from the mask topology")
        rep = out["audit"]
        if not rep.ok():
            replayed = sum(recheck(out["X"], v) for v in rep.violations)
            errors.append("audit reported %d violations (%d replay)"
                          % (len(rep.violations), replayed))
        for v in out["verdicts"]:
            if not v.admissible:
                errors.append("open family judged inadmissible: %s" % v.reason)
                if v.offending is not None and is_open(out["X"], v.offending):
                    errors.append("offending member replays as open")
        if any(out["non_open"]):
            errors.append("a non-open subset was reported open")
        return errors
