"""Traced run: wraps gtskit's public functions from outside the program.

Every public function of each gtskit module, plus SpaceMap.image/preimage
and Stream.member, is replaced by a wrapper at every module-level binding,
so a name imported elsewhere (``audit`` imports ``is_admissible`` by name)
is traced too.  Wrappers keep a call stack: a call's self time is its span
minus the time of the wrapped calls nested in it.

The leaf layers (setexpr and stream members, millions of calls) only feed
per-name, per-carrier counters.  Calls of the layers above them and whole
ops are also kept as spans, in flat arrays, and written out at the end.
"""

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("setexpr", "streams", "families", "presentation", "audit",
          "constructions", "maps", "layers", "props", "exhaustions",
          "sites", "library", "dsl", "cli")
CARRIERS = {"FiniteEnum": "enum", "NatFC": "nat", "QLine": "qline",
            "Product": "product"}
# setexpr constructors whose first argument names no carrier
BUILT_ON = {"box": "product", "interval": "qline", "qpoint": "qline",
            "nat_finite": "nat", "nat_cofinite": "nat"}
POLICIES = ("All", "EssFin", "EssCountable", "LocallyEssFin", "PiecewiseEssFin")
OP = "op"
ROOT = (OP, None)


def _carrier_tag(name):
    fixed = BUILT_ON.get(name)
    if fixed is not None:
        return lambda args: fixed

    def tag(args):
        x = args[0] if args else None
        c = getattr(x, "carrier", x)
        return CARRIERS.get(type(c).__name__, "other")
    return tag


def _policy_tag(args):
    return type(args[0].policy).__name__


class Tracer:
    def __init__(self):
        self.on = False
        # (qualified name, tag) -> [calls, self seconds, inclusive seconds];
        # inclusive time counts the outermost activation of a key only
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.active = defaultdict(int)
        self.keys = [ROOT]
        self.child = [0.0]
        self.setexpr_depth = 0
        self.setexpr_incl = defaultdict(float)  # carrier -> outermost setexpr time
        self.op_s = 0.0
        self.ops = 0
        self.names = [OP]
        self.name_ids = {OP: 0}
        self.span_stack = [-1]
        self.spans = {"name": array("i"), "parent": array("i"), "op": array("i"),
                      "start": array("d"), "dur": array("d")}
        self.large_stage = {"max": 0, "args": set()}
        self.union_args = set()
        self.audit = {"checks": 0, "overrun": 0, "draws": 0, "draw_checks": 0}
        self.bytes_parsed = 0
        self._patched = []

    # -- installing -------------------------------------------------------

    def install(self, callers=()):
        """Wrap gtskit; callers are further modules whose bindings to patch."""
        modules = {}
        for layer in LAYERS:
            __import__("gtskit." + layer)
            modules[layer] = sys.modules["gtskit." + layer]
        hooks = self._hooks()
        wrappers = {}
        for layer, m in modules.items():
            for name, fn in vars(m).items():
                if (inspect.isfunction(fn) and fn.__module__ == m.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(fn, layer, name, hooks)
        for m in [sys.modules[k] for k in sorted(sys.modules)
                  if k.startswith("gtskit.")] + list(callers):
            for attr, val in list(vars(m).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(m, attr, wrappers[val])
        maps, streams = modules["maps"], modules["streams"]
        for attr in ("image", "preimage"):
            self._patch(maps.SpaceMap, attr,
                        self._wrap(getattr(maps.SpaceMap, attr), "maps", attr, hooks))
        stream_classes = [c for c in vars(streams).values()
                          if inspect.isclass(c) and issubclass(c, streams.Stream)]
        stream_classes.append(maps.PreimageStream)
        for cls in stream_classes:
            if "member" in vars(cls):
                self._patch(cls, "member", self._wrap(
                    vars(cls)["member"], "streams", "member", hooks))

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer, name, hooks):
        qual = layer + "." + name
        tag = (_carrier_tag(name) if layer == "setexpr"
               else _policy_tag if qual == "presentation.is_admissible"
               else None)
        leaf = layer in ("setexpr", "streams")
        is_setexpr = layer == "setexpr"
        hook = hooks.get(qual)
        tr = self
        perf = time.perf_counter
        stats, active, child, keys = self.stats, self.active, self.child, self.keys
        plain = (qual, None)
        name_id = self._name_id(qual)
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            key = (qual, tag(args)) if tag else plain
            parent = keys[-1]
            keys.append(key)
            child.append(0.0)
            active[key] += 1
            if is_setexpr:
                tr.setexpr_depth += 1
            if not leaf:
                span = len(spans["name"])
                spans["name"].append(name_id)
                spans["parent"].append(tr.span_stack[-1])
                spans["op"].append(tr.ops)
                spans["start"].append(0.0)
                spans["dur"].append(0.0)
                tr.span_stack.append(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                nested = child.pop()
                child[-1] += dt
                keys.pop()
                n = active[key] = active[key] - 1
                s = stats[key]
                s[0] += 1
                s[1] += dt - nested
                if not n:
                    s[2] += dt
                if is_setexpr:
                    tr.setexpr_depth -= 1
                    if not tr.setexpr_depth:
                        tr.setexpr_incl[key[1]] += dt
                if not leaf:
                    tr.span_stack.pop()
                    spans["start"][span] = t0 - tr.op_t0
                    spans["dur"][span] = dt
            if hook is not None:
                hook(args, result, parent)
            return result
        return wrapper

    def _name_id(self, qual):
        if qual not in self.name_ids:
            self.name_ids[qual] = len(self.names)
            self.names.append(qual)
        return self.name_ids[qual]

    def _hooks(self):
        ls, au = self.large_stage, self.audit

        def large_stage(args, result, parent):
            ls["max"] = max(ls["max"], result)
            ls["args"].add((tuple(args[0]), tuple(args[1])))

        def family_union(args, result, parent):
            self.union_args.add(args[0])

        def audit_axioms(args, result, parent):
            au["checks"] += result.used
            au["overrun"] += max(0, result.used - result.budget)

        def random_admissible_family(args, result, parent):
            au["draws"] += 1

        def is_admissible(args, result, parent):
            if parent[0] == "audit.random_admissible_family":
                au["draw_checks"] += 1

        def parse_document(args, result, parent):
            self.bytes_parsed += len(args[0].encode("utf-8"))

        return {"families.large_stage": large_stage,
                "families.family_union": family_union,
                "audit.audit_axioms": audit_axioms,
                "audit.random_admissible_family": random_admissible_family,
                "presentation.is_admissible": is_admissible,
                "dsl.parse_document": parse_document}

    # -- ops --------------------------------------------------------------

    def run_op(self, fn, item):
        """Run one op traced; returns (result, seconds)."""
        span = len(self.spans["name"])
        for col, v in (("name", 0), ("parent", -1), ("op", self.ops),
                       ("start", 0.0), ("dur", 0.0)):
            self.spans[col].append(v)
        self.span_stack.append(span)
        self.child[0] = 0.0
        self.on = True
        self.op_t0 = t0 = time.perf_counter()
        try:
            result = fn(item)
        finally:
            dt = time.perf_counter() - t0
            self.on = False
            self.span_stack.pop()
            self.spans["dur"][span] = dt
            self.op_s += dt
            self.ops += 1
        return result, dt

    # -- results ----------------------------------------------------------

    def _sum(self, qual, field, tag=any):
        return sum(v[field] for (q, t), v in self.stats.items()
                   if q == qual and (tag is any or t == tag))

    def _layer_self(self, layer):
        return sum(v[1] for (q, _), v in self.stats.items()
                   if q.startswith(layer + "."))

    def metrics(self):
        """Every per-layer metric, keyed by name, as (value, unit)."""
        calls = lambda q, tag=any: (self._sum(q, 0, tag), "count")
        self_s = lambda q: (self._sum(q, 1), "s")
        share = lambda q: (self._sum(q, 2) / self.op_s if self.op_s else 0.0, "ratio")
        ratio = lambda a, b: (a / b if b else 0.0, "ratio")
        out = {}
        for c in ("enum", "nat", "qline", "product"):
            out["setexpr.calls." + c] = (
                sum(v[0] for (q, t), v in self.stats.items()
                    if q.startswith("setexpr.") and t == c), "count")
            out["setexpr.self_s." + c] = (
                sum(v[1] for (q, t), v in self.stats.items()
                    if q.startswith("setexpr.") and t == c), "s")
            out["setexpr.share." + c] = ratio(self.setexpr_incl[c], self.op_s)
        out["setexpr.box.calls"] = calls("setexpr.box")
        out["setexpr.box.self_s"] = self_s("setexpr.box")
        for name in ("union", "intersect", "is_subset"):
            out["setexpr.%s.calls" % name] = calls("setexpr." + name)
        for name in ("refines", "essentially_finite_on"):
            out["families.%s.calls" % name] = calls("families." + name)
            out["families.%s.self_s" % name] = self_s("families." + name)
        out["families.refines.share"] = share("families.refines")
        n = self._sum("families.large_stage", 0)
        out["families.large_stage.calls"] = (n, "count")
        out["families.large_stage.max"] = (self.large_stage["max"], "count")
        out["families.large_stage.distinct_ratio"] = ratio(len(self.large_stage["args"]), n)
        out["families.large_stage.share"] = share("families.large_stage")
        n = self._sum("families.family_union", 0)
        out["families.family_union.calls"] = (n, "count")
        out["families.family_union.distinct_ratio"] = ratio(len(self.union_args), n)
        out["streams.member.calls"] = calls("streams.member")
        out["presentation.is_open.calls"] = calls("presentation.is_open")
        out["presentation.is_open.self_s"] = self_s("presentation.is_open")
        for p in POLICIES:
            out["presentation.is_admissible.calls." + p] = calls(
                "presentation.is_admissible", p)
        out["presentation.is_admissible.self_s"] = self_s("presentation.is_admissible")
        out["presentation.enumerate_opens.calls"] = calls("presentation.enumerate_opens")
        for name in ("enumerate_opens", "generate_finite_gts", "smallness"):
            out["presentation.%s.self_s" % name] = self_s("presentation." + name)
        out["presentation.from_points.share"] = share("presentation.from_points")
        au = self.audit
        out["audit.audit_axioms.self_s"] = self_s("audit.audit_axioms")
        out["audit.checks"] = (au["checks"], "count")
        out["audit.budget_overrun"] = (au["overrun"], "count")
        out["audit.admissible_draw_ratio"] = ratio(au["draws"], au["draw_checks"])
        out["audit.random_admissible_family.share"] = share(
            "audit.random_admissible_family")
        out["constructions.product.self_s"] = self_s("constructions.product")
        out["constructions.smallify.self_s"] = self_s("constructions.smallify")
        out["maps.image.calls"] = calls("maps.image")
        out["maps.preimage.calls"] = calls("maps.preimage")
        out["maps.self_s"] = (self._layer_self("maps"), "s")
        out["dsl.parse_document.self_s"] = self_s("dsl.parse_document")
        out["dsl.bytes_parsed"] = (self.bytes_parsed, "bytes")
        out["cli.run_command.self_s"] = self_s("cli.run_command")
        out["cli.emit_report.self_s"] = self_s("cli.emit_report")
        out["layers.self_s"] = (self._layer_self("layers"), "s")
        out["props.self_s"] = (self._layer_self("props"), "s")
        return out

    def dump(self, path, extra):
        """Write counters and spans (times in seconds from op start)."""
        counters = [{"name": q, "tag": t, "calls": v[0], "self_s": v[1], "incl_s": v[2]}
                    for (q, t), v in sorted(self.stats.items(), key=str)]
        doc = {"names": self.names, "counters": counters,
               "spans": {k: v.tolist() for k, v in self.spans.items()}}
        doc.update(extra)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
