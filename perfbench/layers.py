"""The layer boundaries of germcalc and the per-layer metrics read from them.

A layer is one module of ``src/germcalc``.  ``install`` wraps, from outside
the package, every public function of each module and every public method of
the public classes the module defines, so no program code changes.  A function that
other modules imported by value is re-bound in every module that holds it:
``diffeos`` calls ``substitute`` through its own globals, ``lie`` calls
``bracket_closure`` through its own, and so on.

Not wrapped, because they are cheap and called millions of times: predicates
(``is_*``), properties, sort-key helpers (``*_key``) and dunders other than
arithmetic operators.  Their time is self time of the calling span.
``scalars``, the constant constructors of ``laurent`` and its order check
are counted, never spanned, for the same reason.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter

from tracing import SpanTable, Tracer

LAYERS = (
    "scalars", "laurent", "fields", "spans", "lie", "ratfunc", "diffeos",
    "jets", "matrices", "families", "verification", "parsing", "cli",
)

# Boundaries that are counted, never spanned: all of scalars, and the
# constant constructors and argument check of laurent.
COUNTED_ONLY = {
    "scalars": None,
    "laurent": {"zero", "one", "constant", "variable", "monomial", "validate_order"},
}


def _counted(layer: str, short: str) -> bool:
    return layer in COUNTED_ONLY and (COUNTED_ONLY[layer] is None or short in COUNTED_ONLY[layer])

# Arithmetic dunders and the short name their boundary gets.
OPERATORS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "rsub",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "rdiv", "__neg__": "neg", "__pow__": "pow",
}

# Constructors worth a span: building a FormalDiffeo inverts its linear part.
CONSTRUCTORS = {("diffeos", "FormalDiffeo")}

CLAIM_IDS = (
    "group-witness-n1", "group-witness-n2", "intro-nilpotency-k3",
    "intro-nilpotency-k4", "intro-nilpotency-k5", "length-bounds",
    "nilpotent-family-n2", "nilpotent-family-n3", "nilpotent-family-n4",
    "solvable-chain-n1", "solvable-chain-n2",
)


def _skip(name: str) -> bool:
    return name.startswith("is_") or name.endswith("_key")


def _public_methods(cls, layer: str):
    """(attribute name, short name, kind, function) for each wrapped method."""
    out = []
    for attr, raw in vars(cls).items():
        if attr in OPERATORS:
            short = OPERATORS[attr]
        elif attr == "__init__" and (layer, cls.__name__) in CONSTRUCTORS:
            short = "construct"
        elif attr.startswith("_") or _skip(attr):
            continue
        else:
            short = attr
        if isinstance(raw, staticmethod):
            out.append((attr, short, staticmethod, raw.__func__))
        elif isinstance(raw, classmethod):
            out.append((attr, short, classmethod, raw.__func__))
        elif inspect.isfunction(raw):
            out.append((attr, short, None, raw))
    return out


def _tag_for(tracer: Tracer, bid: str):
    counts = tracer.counts
    if bid == "laurent.mul_truncated":
        def tag(args, result):
            counts["laurent.term_products"] += len(args[0].terms) * len(args[1].terms)
    elif bid == "fields.bracket":
        def tag(args, result):
            if all(not c.terms for c in result.coeffs):
                counts["fields.bracket.zero_results"] += 1
    elif bid == "spans.insert":
        def tag(args, result):
            if result:
                counts["spans.insert.accepted"] += 1
    elif bid.startswith("verification."):
        def tag(args, result):
            claim_id = getattr(result, "claim_id", None)
            return claim_id if isinstance(claim_id, str) else None
    else:
        return None
    return tag


def _scalar_mul_real(args):
    a, b = args[0], args[1]
    if not a.im and not getattr(b, "im", 0):
        return "scalars.mul.real_calls"
    return None


def install(tracer: Tracer, package: str = "germcalc") -> list[str]:
    """Wrap every boundary; returns the boundary ids in install order."""
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    every_module = [importlib.import_module(package)] + list(modules.values())
    installed: list[str] = []
    for layer, mod in modules.items():
        taken: set[str] = set()
        classes = [c for name, c in vars(mod).items()
                   if inspect.isclass(c) and c.__module__ == mod.__name__
                   and not name.startswith("_")]
        for cls in classes:
            done: dict[int, object] = {}  # aliases such as __radd__ = __add__
            for attr, short, kind, fn in _public_methods(cls, layer):
                bid = f"{layer}.{short}"
                if bid in taken and id(fn) not in done:
                    bid = f"{layer}.{cls.__name__}.{short}"
                if id(fn) in done:
                    wrapped = done[id(fn)]
                else:
                    if _counted(layer, short):
                        extra = _scalar_mul_real if bid == "scalars.mul" else None
                        wrapped = tracer.count_wrapper(fn, bid, layer, extra)
                    else:
                        wrapped = tracer.span_wrapper(fn, bid, layer, _tag_for(tracer, bid))
                    done[id(fn)] = wrapped
                    taken.add(bid)
                    installed.append(bid)
                setattr(cls, attr, kind(wrapped) if kind else wrapped)
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or _skip(name) or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            bid = f"{layer}.{name}" if f"{layer}.{name}" not in taken else f"{layer}.module.{name}"
            if _counted(layer, name):
                wrapped = tracer.count_wrapper(fn, bid, layer)
            else:
                wrapped = tracer.span_wrapper(fn, bid, layer, _tag_for(tracer, bid))
            taken.add(bid)
            installed.append(bid)
            for other in every_module:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)
    return installed


# -- metrics ------------------------------------------------------------------

# (metric, unit, workload whose end-to-end numbers it should move)
SPEC = [
    ("scalars.mul.calls", "count", "exp-log-roundtrip"),
    ("scalars.add.calls", "count", "exp-log-roundtrip"),
    ("scalars.div.calls", "count", "exp-log-roundtrip"),
    ("scalars.mul.real_share", "ratio", "exp-log-roundtrip"),
    ("laurent.mul_truncated.calls", "count", "exp-log-roundtrip"),
    ("laurent.term_products", "count", "exp-log-roundtrip"),
    ("laurent.add.calls", "count", "exp-log-roundtrip"),
    ("laurent.substitute.calls", "count", "exp-log-roundtrip"),
    ("laurent.substitute.self_s", "s", "exp-log-roundtrip"),
    ("laurent.monomial_image.calls", "count", "exp-log-roundtrip"),
    ("laurent.monomial_image.hit_ratio", "ratio", "exp-log-roundtrip"),
    ("laurent.self_s", "s", "exp-log-roundtrip"),
    ("fields.bracket.calls", "count", "chain-n3-jet"),
    ("fields.bracket.zero_share", "ratio", "chain-n3-jet"),
    ("fields.apply.calls", "count", "chain-n3-jet"),
    ("fields.truncate.calls", "count", "chain-n3-jet"),
    ("fields.self_s", "s", "chain-n3-jet"),
    ("spans.insert.calls", "count", "chain-n3-jet"),
    ("spans.insert.accept_ratio", "ratio", "chain-n3-jet"),
    ("spans.reduce.calls", "count", "chain-n3-jet"),
    ("spans.self_s", "s", "chain-n3-jet"),
    ("lie.bracket_closure.calls", "count", "chain-n3-jet"),
    ("lie.bracket_closure.s", "s", "chain-n3-jet"),
    ("lie.derived_series.calls", "count", "chain-n3-jet"),
    ("lie.central_series.calls", "count", "verify-all"),
    ("lie.generic_rank.calls", "count", "chain-n3-jet"),
    ("lie.generic_rank.s", "s", "chain-n3-jet"),
    ("lie.self_s", "s", "chain-n3-jet"),
    ("ratfunc.poly_divide_exact.calls", "count", "verify-all"),
    ("ratfunc.self_s", "s", "verify-all"),
    ("diffeos.compose.calls", "count", "verify-all"),
    ("diffeos.invert.calls", "count", "verify-all"),
    ("diffeos.invert.s", "s", "verify-all"),
    ("diffeos.commutator.calls", "count", "verify-all"),
    ("diffeos.construct.calls", "count", "verify-all"),
    ("diffeos.exp_field.s", "s", "exp-log-roundtrip"),
    ("diffeos.log_diffeo.s", "s", "exp-log-roundtrip"),
    ("diffeos.self_s", "s", "verify-all"),
    ("matrices.mat_inverse.calls", "count", "verify-all"),
    ("matrices.self_s", "s", "verify-all"),
    ("jets.jet_basis.calls", "count", "exp-log-roundtrip"),
    ("jets.jet_basis.s", "s", "exp-log-roundtrip"),
    ("families.s", "s", "verify-all"),
    ("parsing.s", "s", "verify-all"),
    ("cli.self_s", "s", "verify-all"),
]
SPEC += [(f"verification.claim.{c}.s", "s", "verify-all") for c in CLAIM_IDS]
SPEC += [("verification.self_s", "s", "verify-all")]
SPEC += [(f"{layer}.errors", "count", None) for layer in LAYERS]

# Ratios need their base reported beside them: ratio metric -> (numerator
# counter, denominator boundary).
RATIOS = {
    "scalars.mul.real_share": ("scalars.mul.real_calls", "scalars.mul"),
    "laurent.monomial_image.hit_ratio": ("laurent.monomial_image.hits", "laurent.monomial_image"),
    "fields.bracket.zero_share": ("fields.bracket.zero_results", "fields.bracket"),
    "spans.insert.accept_ratio": ("spans.insert.accepted", "spans.insert"),
}


def summarize(tracer: Tracer):
    """Every metric of SPEC as {"value", "unit"} or {"absent": reason}, with
    the call count of every boundary and the span table."""
    table: SpanTable = tracer.spans()
    selfs = table.self_times()
    calls: dict[str, int] = dict(tracer.counts)
    for nid, count in Counter(table.name_of).items():
        calls[table.names[nid]] = count
    layer_self: dict[str, float] = {}
    for nid, t in zip(table.name_of, selfs):
        layer = table.layer_names[nid]
        layer_self[layer] = layer_self.get(layer, 0.0) + t

    def named(name):
        return table.ids(lambda x: x == name)

    # a monomial_image call is a hit when no mul_truncated ran beneath it
    below = table.has_descendant("laurent.mul_truncated")
    image = named("laurent.monomial_image")
    calls["laurent.monomial_image.hits"] = sum(
        1 for i, k in enumerate(table.name_of) if k in image and not below[i]
    )
    # claim times: outermost verification spans that returned a report
    claim_s: dict[str, float] = {}
    tagged = sorted(tracer.tags)
    tagged_set = set(tagged)
    for i in tagged:
        p = table.parent[i]
        while p >= 0 and p not in tagged_set:
            p = table.parent[p]
        if p < 0:
            cid = tracer.tags[i]
            claim_s[cid] = claim_s.get(cid, 0.0) + table.end[i] - table.start[i]

    out = {}
    for metric, unit, _ in SPEC:
        layer = metric.split(".", 1)[0]
        if metric in RATIOS:
            num, den = RATIOS[metric]
            base = calls.get(den, 0)
            if base:
                out[metric] = {"value": calls.get(num, 0) / base, "unit": unit, "base": base}
            else:
                out[metric] = {"absent": f"{den} was not called on this workload"}
        elif metric.endswith(".errors"):
            out[metric] = {"value": tracer.errors.get(layer, 0), "unit": unit}
        elif metric.startswith("verification.claim."):
            cid = metric[len("verification.claim."):-len(".s")]
            out[metric] = ({"value": claim_s[cid], "unit": unit} if cid in claim_s
                           else {"absent": f"claim {cid} is not run on this workload"})
        elif unit == "count":
            key = metric[: -len(".calls")] if metric.endswith(".calls") else metric
            out[metric] = {"value": calls.get(key, 0), "unit": unit}
        elif metric in (f"{layer}.self_s", f"{layer}.s"):
            if layer not in layer_self:
                out[metric] = {"absent": f"no {layer} span on this workload"}
            elif metric.endswith(".self_s"):
                out[metric] = {"value": layer_self[layer], "unit": unit}
            else:
                ids = table.ids(lambda x: x.split(".", 1)[0] == layer)
                out[metric] = {"value": table.inclusive(ids), "unit": unit}
        else:
            self_time = metric.endswith(".self_s")
            name = metric[: -len(".self_s")] if self_time else metric[: -len(".s")]
            if not calls.get(name):
                out[metric] = {"absent": f"{name} was not called on this workload"}
            elif self_time:
                ids = named(name)
                value = sum(t for k, t in zip(table.name_of, selfs) if k in ids)
                out[metric] = {"value": value, "unit": unit}
            else:  # inclusive time, recursion counted once
                out[metric] = {"value": table.inclusive(named(name)), "unit": unit}
    return out, calls, table


# The per-layer metrics the benchmark's result line carries.  They are the
# ones every workload defines: counts (zero where a layer is not reached) and
# the times of boundaries all three workloads cross.  The full SPEC list,
# with the reason for each absent metric, is in the run's report.
PER_LAYER = [
    ("scalars.mul.calls", "count"),
    ("scalars.mul.real_calls", "count"),
    ("scalars.add.calls", "count"),
    ("scalars.div.calls", "count"),
    ("laurent.mul_truncated.calls", "count"),
    ("laurent.mul_truncated.s", "s"),
    ("laurent.term_products", "count"),
    ("laurent.add.calls", "count"),
    ("laurent.substitute.calls", "count"),
    ("laurent.monomial_image.calls", "count"),
    ("laurent.monomial_image.hits", "count"),
    ("laurent.self_s", "s"),
    ("fields.bracket.calls", "count"),
    ("fields.bracket.zero_results", "count"),
    ("fields.apply.calls", "count"),
    ("fields.apply.s", "s"),
    ("fields.truncate.calls", "count"),
    ("fields.self_s", "s"),
    ("spans.insert.calls", "count"),
    ("spans.insert.accepted", "count"),
    ("spans.reduce.calls", "count"),
    ("lie.bracket_closure.calls", "count"),
    ("lie.derived_series.calls", "count"),
    ("lie.central_series.calls", "count"),
    ("lie.generic_rank.calls", "count"),
    ("ratfunc.poly_divide_exact.calls", "count"),
    ("diffeos.compose.calls", "count"),
    ("diffeos.invert.calls", "count"),
    ("diffeos.commutator.calls", "count"),
    ("diffeos.construct.calls", "count"),
    ("diffeos.exp_field.calls", "count"),
    ("diffeos.log_diffeo.calls", "count"),
    ("matrices.mat_inverse.calls", "count"),
    ("jets.jet_basis.calls", "count"),
    ("families.calls", "count"),
    ("parsing.calls", "count"),
    ("cli.main.calls", "count"),
    ("verification.calls", "count"),
    ("trace.spans", "count"),
] + [(f"{layer}.errors", "count") for layer in LAYERS]

def per_layer(summary: dict, table: SpanTable, calls: dict) -> dict:
    """The PER_LAYER metrics: taken from the summary where SPEC has them,
    otherwise read from the counters and the span table."""
    layer_spans = Counter(table.layer_names[k] for k in table.name_of)
    out = {}
    for metric, unit in PER_LAYER:
        entry = summary.get(metric)
        if entry is not None:
            value = entry.get("value", 0.0 if unit == "s" else 0)
        elif metric == "trace.spans":
            value = len(table)
        elif metric.count(".") == 1:  # "<layer>.calls": spans in the layer
            value = layer_spans.get(metric.split(".", 1)[0], 0)
        elif metric.endswith(".s"):
            value = table.inclusive(table.ids(lambda x, name=metric[:-2]: x == name))
        elif metric.endswith(".calls"):
            value = calls.get(metric[: -len(".calls")], 0)
        else:  # a counter such as spans.insert.accepted
            value = calls.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
