"""symbolic-requests: CLI requests on seeded .gts documents over qline and nat.

One op is one request: the document text goes through dsl.parse_document,
then cli.run_command, then cli.emit_report(..., "json").  Every request is
built to have a known verdict (acceptance criteria 1-4 and 10-11), so the
expected answer never comes from gtskit.
"""

import json
import random
from fractions import Fraction

from gtskit import cli, dsl
from gtskit import setexpr as sx
from gtskit.families import essentially_finite_on, family_union
from gtskit.presentation import is_admissible, is_open, smallness
from gtskit.props import classify_map, separation_report

import oracle

DOCS = 24
AUDIT_BUDGET = 12
# request kinds and their shares of an epoch of EPOCH requests.  Parsing
# makes most requests cost 2.5-4 ms; audits (5-70 ms) and layers on the
# localized line (about 7 ms) are the tail.  Three quarters of the layers
# requests go to the line, so the 90th percentile falls inside that block
# rather than on the steep edge below it
MIX = (("check-family", 45), ("smallness", 33), ("audit", 8),
       ("layers", 8), ("classify", 6))
LINE_LAYERS_SHARE = 0.75
EPOCH = 1000

HEADER = """\
# lawful spaces over the line and the naturals
space RSalg { carrier qline; opens canonical-open; cov essfin }
space RTop { carrier qline; opens canonical-open; cov all }
family Balls = stream growballs(1)
space LineLoc { carrier qline; opens canonical-open; cov locally(Balls) }
space NatSmall { carrier nat; opens all-sets; cov essfin }
space NatTop { carrier nat; opens all-sets; cov all }
space WD { carrier nat; opens finite-or-whole; cov essfin }
exhaustion E = chain initseg(0)
space NatChain { carrier nat; opens all-sets; cov piecewise(E) }
map id-top-small : NatTop -> NatSmall = identity
"""

LINE_SPACES = ("RSalg", "RTop", "LineLoc")
NAT_SPACES = ("NatSmall", "NatTop", "WD", "NatChain")
LAWFUL = LINE_SPACES + NAT_SPACES
SMALL_NAT_SPACES = ("NatSmall", "NatTop")
NON_OPEN, NOT_FINITE = "a member is not open", "not essentially finite"


def _q(x):
    return str(Fraction(x))


def _frac(rng, lo, hi, den=4):
    """A rational in [lo, hi] with denominator at most den."""
    d = rng.randint(1, den)
    return Fraction(rng.randint(lo * d, hi * d), d)


class _Doc:
    """Declarations of one document, each with its verdict on every space."""

    def __init__(self, rng, k):
        self.lines = [HEADER]
        # name -> {space: verdict}; a family verdict is True (admissible),
        # NON_OPEN or NOT_FINITE, a set verdict is the smallness status
        self.families = {}
        self.sets = {}
        for i in range(3):
            self._finite_line_family("FQ%d_%d" % (k, i), rng)
        self._shrink_family("SP%d" % k, rng, positive=True)
        self._shrink_family("SN%d" % k, rng, positive=False)
        self._balls_family("GB%d" % k, rng)
        self._closed_member_family("NO%d" % k, rng)
        self._finite_nat_family("FN%d" % k, rng)
        self._nat_stream_family("IS%d" % k, rng, "initseg(%d)" % rng.randint(0, 4))
        self._nat_stream_family("SG%d" % k, rng, "singletons")
        self._cofinite_family("CF%d" % k, rng)
        for i in range(2):
            self._point_set("PT%d_%d" % (k, i), rng)
            self._interval_set("IV%d_%d" % (k, i), rng)
        self._unbounded_set("UB%d" % k, rng)
        self._nat_sets(k, rng)
        self.text = "\n".join(self.lines) + "\n"

    def _family(self, name, body, spaces, verdicts):
        self.lines.append("family %s = %s" % (name, body))
        self.families[name] = dict(zip(spaces, verdicts))

    def _intervals(self, rng, count, lo, hi):
        out = []
        for _ in range(count):
            a = _frac(rng, lo, hi - 1)
            out.append((a, a + _frac(rng, 1, 3)))
        return out

    def _finite_line_family(self, name, rng):
        ivs = self._intervals(rng, rng.randint(1, 4), -8, 8)
        body = "{ %s }" % ", ".join("(%s,%s)" % (_q(a), _q(b)) for a, b in ivs)
        # criterion 1: finite open families are admissible under every policy
        self._family(name, body, LINE_SPACES, (True, True, True))

    def _shrink(self, rng):
        a = _frac(rng, -6, 4)
        b = a + _frac(rng, 1, 3)
        side = rng.choice(("both", "left", "right"))
        n0 = int(2 / (b - a)) + 2
        return a, b, side, n0

    def _shrink_family(self, name, rng, positive):
        a, b, side, n0 = self._shrink(rng)
        limits = {"both": (a, b), "left": (a,), "right": (b,)}[side]
        if positive:
            # criterion 1: a member around every limit point absorbs the tail
            if rng.random() < 0.5:
                members = [(min(limits) - _frac(rng, 1, 2), max(limits) + _frac(rng, 1, 2))]
            else:
                members = [(p - _frac(rng, 1, 2), p + Fraction(1, 8)) for p in limits]
        else:
            # no member comes near a limit point, so the tail never closes
            members = [(b + _frac(rng, 2, 4), b + _frac(rng, 5, 7))]
        body = "{ %s } + stream shrink(%s,%s,%s,%d)" % (
            ", ".join("(%s,%s)" % (_q(lo), _q(hi)) for lo, hi in members),
            _q(a), _q(b), side, n0)
        # the topological line admits every open family
        v = True if positive else NOT_FINITE
        self._family(name, body, LINE_SPACES, (v, True, v))

    def _balls_family(self, name, rng):
        a = _frac(rng, -5, 5)
        body = "{ (%s,%s) } + stream growballs(%d)" % (
            _q(a), _q(a + 1), rng.randint(1, 3))
        # growing balls cover the line but no finite subfamily does; every
        # ball of the base is swallowed by one member
        self._family(name, body, LINE_SPACES, (NOT_FINITE, True, True))

    def _closed_member_family(self, name, rng):
        (a, b), (c, d) = self._intervals(rng, 2, -8, 8)
        body = "{ (%s,%s), [%s,%s] }" % (_q(a), _q(b), _q(c), _q(d))
        self._family(name, body, LINE_SPACES, (NON_OPEN,) * 3)

    def _finite_nat_family(self, name, rng):
        sets = [sorted(rng.sample(range(20), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))]
        body = "{ %s }" % ", ".join("{%s}" % ",".join(map(str, s)) for s in sets)
        self._family(name, body, NAT_SPACES, (True,) * 4)

    def _nat_stream_family(self, name, rng, stream):
        fin = sorted(rng.sample(range(12), rng.randint(1, 3)))
        body = "{ {%s} } + stream %s" % (",".join(map(str, fin)), stream)
        # essfin spaces reject the infinite tail; the topological naturals
        # and the chain exhaustion (finite pieces) accept it
        self._family(name, body, NAT_SPACES, (NOT_FINITE, True, NOT_FINITE, True))

    def _cofinite_family(self, name, rng):
        out = sorted(rng.sample(range(10), rng.randint(1, 3)))
        body = "{ co{%s} }" % ",".join(map(str, out))
        # a cofinite set is open everywhere but on the finite-or-whole space
        self._family(name, body, NAT_SPACES, (True, True, NON_OPEN, True))

    def _set(self, name, literal, spaces, verdicts):
        self.lines.append("set %s = %s" % (name, literal))
        self.sets[name] = dict(zip(spaces, verdicts))

    def _point_set(self, name, rng):
        pts = sorted({_frac(rng, -9, 9, 6) for _ in range(rng.randint(1, 4))})
        lit = " u ".join("[%s,%s]" % (_q(p), _q(p)) for p in pts)
        # criterion 2: finite point sets are small
        self._set(name, lit, LINE_SPACES, ("Small", "Small", "Small"))

    def _interval_set(self, name, rng):
        a = _frac(rng, -6, 5)
        b = a + _frac(rng, 1, 3)
        lb, rb = rng.choice("(["), rng.choice(")]")
        lit = "%s%s,%s%s" % (lb, _q(a), _q(b), rb)
        if rng.random() < 0.5:
            p = b + _frac(rng, 1, 3)
            lit += " u [%s,%s]" % (_q(p), _q(p))
        # criterion 2: an interval is not small on the topological line;
        # criterion 10: bounded sets are small on the localized line
        self._set(name, lit, LINE_SPACES, ("Small", "NotSmall", "Small"))

    def _unbounded_set(self, name, rng):
        a = _q(_frac(rng, -5, 5))
        lit = rng.choice(("(%s,+inf)", "(-inf,%s)")) % a
        self._set(name, lit, LINE_SPACES, ("Small", "NotSmall", "NotSmall"))

    def _nat_sets(self, k, rng):
        fin = sorted(rng.sample(range(30), rng.randint(1, 5)))
        self._set("NF%d" % k, "{%s}" % ",".join(map(str, fin)),
                  SMALL_NAT_SPACES, ("Small", "Small"))
        cof = sorted(rng.sample(range(10), rng.randint(1, 3)))
        # the topological naturals: the singleton cover never refines
        # finitely over an infinite set
        self._set("NC%d" % k, "co{%s}" % ",".join(map(str, cof)),
                  SMALL_NAT_SPACES, ("Small", "NotSmall"))


class SymbolicRequests:
    name = "symbolic-requests"
    trace_ops = 1500

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.docs = [_Doc(self._rng, k) for k in range(DOCS)]

    def setup(self):
        """Nothing is fixed: every request parses its document."""

    def items(self):
        rng = self._rng
        while True:
            groups = [[self._request(kind, rng)
                       for _ in range(EPOCH * share // 100)]
                      for kind, share in MIX]
            yield from oracle.interleave(groups, rng)

    def _request(self, kind, rng):
        doc = rng.choice(self.docs)
        req = {"doc": doc, "cmd": kind, "budget": 200, "seed": 0}
        if kind == "check-family":
            name = rng.choice(sorted(doc.families))
            space = rng.choice(sorted(doc.families[name]))
            req.update(args=[space, name], expect=doc.families[name][space])
        elif kind == "smallness":
            name = rng.choice(sorted(doc.sets))
            space = rng.choice(sorted(doc.sets[name]))
            req.update(args=[space, name], expect=doc.sets[name][space])
        elif kind == "audit":
            req.update(args=[rng.choice(LAWFUL)], budget=AUDIT_BUDGET,
                       seed=rng.randrange(1 << 16))
        elif kind == "layers":
            line = rng.random() < LINE_LAYERS_SHARE
            req.update(args=["LineLoc" if line else "NatChain"])
        else:
            req.update(args=[rng.choice(("WD", "id-top-small"))])
        return req

    def run(self, req):
        doc = dsl.parse_document(req["doc"].text)
        report, code = cli.run_command(req["cmd"], req["args"], doc,
                                       budget=req["budget"], seed=req["seed"])
        return {"doc": doc, "code": code,
                "json": cli.emit_report(report, "json")}

    def check(self, req, out):
        if out["code"] != 0:
            return ["exit code %d" % out["code"]]
        rep = json.loads(out["json"])
        return getattr(self, "_check_" + req["cmd"].replace("-", "_"))(
            req, rep, out["doc"])

    def _check_check_family(self, req, rep, doc):
        space, name = req["args"]
        expect = req["expect"]
        if (rep["admissible"] == "Yes") != (expect is True):
            return ["%s on %s: admissible %s" % (name, space, rep["admissible"])]
        if expect is True:
            return []
        # replay the negative verdict through the public API
        X, F = doc.spaces[space], doc.families[name]
        off = is_admissible(X, F).offending
        if (sx.render(off) if off is not None else None) != rep.get("offending"):
            return ["offending set does not match its replay"]
        if expect == NON_OPEN:
            return [] if off is not None and not is_open(X, off) \
                else ["offending member replays as open"]
        # an essfin policy rejects the whole union; a locally essfin policy
        # names the base member it fails on
        K = off if off is not None else family_union(F)
        if essentially_finite_on(F, K).yes:
            return ["inadmissible family is essentially finite on replay"]
        return []

    def _check_smallness(self, req, rep, doc):
        space, name = req["args"]
        if rep["status"] != req["expect"]:
            return ["%s on %s: %s" % (name, space, rep["status"])]
        if rep["status"] != "NotSmall":
            return []
        X, K = doc.spaces[space], doc.sets[name]
        W = smallness(X, K).witness
        if W is None or rep.get("witness") != W.render():
            return ["smallness witness does not match its replay"]
        target = sx.intersect(sx.intersect(K, X.support), family_union(W))
        if not is_admissible(X, W).admissible or essentially_finite_on(W, target).yes:
            return ["smallness witness does not replay"]
        return []

    def _check_audit(self, req, rep, doc):
        if rep["violations"] or rep["exhaustive"]:
            return ["audit of %s reported violations" % req["args"][0]]
        if sum(rep["checks"].values()) != req["budget"]:
            return ["audit of %s ran %d checks at budget %d"
                    % (req["args"][0], sum(rep["checks"].values()), req["budget"])]
        return []

    def _check_layers(self, req, rep, doc):
        want = ("locally_small", "lindelof") if req["args"][0] == "LineLoc" \
            else ("W1", "W2", "W3", "W4", "W5")
        bad = [f for f in want if rep["flags"][f]["status"] != "Yes"]
        return ["layers flags not Yes: %s" % bad] if bad else []

    def _check_classify(self, req, rep, doc):
        flags = {k: v["status"] for k, v in rep["flags"].items()}
        name = req["args"][0]
        if name == "WD":
            # criterion 3: weakly but not strongly T1; the witness is a
            # cofinite set that is closed but not open
            if (flags["weakly_T1"], flags["strongly_T1"]) != ("Yes", "No"):
                return ["WD separation flags: %s" % flags]
            X = doc.spaces["WD"]
            w = separation_report(X).flags["strongly_T1"].witness
            if rep["flags"]["strongly_T1"].get("witness") != sx.render(w) or is_open(X, w):
                return ["WD strong-T1 witness does not replay"]
            return []
        # criterion 4: the identity NatTop -> NatSmall fails only strict_homeo
        want = {"strictly_continuous": "Yes", "open_map": "Yes",
                "closed_map": "Yes", "strict_homeo": "No"}
        if any(flags[k] != v for k, v in want.items()):
            return ["identity map flags: %s" % flags]
        f = doc.maps[name]
        W = classify_map(f).flags["strict_homeo"].witness
        if rep["flags"]["strict_homeo"].get("witness") != W.render():
            return ["strict_homeo witness does not match its replay"]
        if not is_admissible(f.domain, W).admissible or is_admissible(f.codomain, W).admissible:
            return ["strict_homeo witness does not replay"]
        return []
