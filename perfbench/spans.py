"""Span tracing installed from the benchmark's side.

``Tracer.install`` replaces each public entry point listed in ``POINTS``
by a wrapper that records a span (name, start, end, parent span, task id,
error flag) and adds work counts computed from the call's arguments and
result.  A function is replaced in every ``steinerkit`` module namespace
that holds it, so calls through ``from .perms import homogeneity`` are
seen too; methods are replaced on their class.  Hot inner calls
(``Permutation.__mul__``, ``_sift_from``, ``lambda_s``, field arithmetic)
are deliberately left alone: per-call overhead would swamp them.

Spans stay in memory; ``write`` puts them out once, and ``layer_metrics``
folds them into per-layer figures.  A span's self time is its duration
minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from math import comb
from time import perf_counter

LAYERS = ("perms", "kramer_mesner", "designs", "admissibility", "blocktrans",
          "catalog", "gf", "cli")


def _chain(counts, args, kwargs, result, state):
    counts["perms.chains_built"] += 1
    counts["perms.chain_base_len_sum"] += len(args[0].base)


def _setwise(counts, args, kwargs, result, state):
    counts["perms.setwise_stab_order_sum"] += result.order


def _partition(counts, args, kwargs, result, state):
    group, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
    counts["perms.subsets_enumerated"] += comb(group.degree, m)
    counts["perms.partition_orbits"] += len(result[0])


def _sift(counts, args, kwargs, result, state):
    counts["perms.sifts"] += 1


def _matrix(counts, args, kwargs, result, state):
    rows, cols = len(result.row_reps), len(result.col_reps)
    counts["kramer_mesner.matrix_cells"] += rows * cols
    counts["kramer_mesner.superset_lookups"] += rows * comb(
        result.degree - result.t, result.k - result.t)


def _solve(counts, args, kwargs, result, state):
    counts["kramer_mesner.solutions"] += len(result)


def _expand(counts, args, kwargs, result, state):
    counts["kramer_mesner.blocks_expanded"] += result.b


def _verify(counts, args, kwargs, result, state):
    design = args[0]
    counts["designs.cover_increments"] += design.b * comb(design.params.k, design.params.t)


def _parse(counts, args, kwargs, result, state):
    counts["designs.parse_blocks"] += result.b


def _check(counts, args, kwargs, result, state):
    counts["admissibility.admissible"] += bool(result.admissible)


def _eliminate(counts, args, kwargs, result, state):
    counts["blocktrans.survivors"] += not result.eliminated


def _entry_unbuilt(args, kwargs):
    return args[0]._group is None


def _build(counts, args, kwargs, result, state):
    counts["catalog.builds"] += state


def _field_built(counts, args, kwargs, result, state):
    counts["gf.fields"] += 1


# (module, attribute, class or None, layer, op, counter, pre-call state)
POINTS = (
    ("perms", "PermutationGroup", "__init__", "perms", "chain", _chain, None),
    ("perms", "PermutationGroup", "sift", "perms", "sift", _sift, None),
    ("perms", "PermutationGroup", "stabilizer_setwise", "perms", "setwise", _setwise, None),
    ("perms", "PermutationGroup", "stabilizer_pointwise", "perms", "stabilizer", None, None),
    ("perms", "PermutationGroup", "stabilizer_point_in_block", "perms", "stabilizer", None, None),
    ("perms", "PermutationGroup", "subset_orbit_partition", "perms", "partition", _partition,
     None),
    ("perms", "PermutationGroup", "is_homogeneous", "perms", "homogeneity", None, None),
    ("perms", "PermutationGroup", "is_transitive_on_tuples", "perms", "homogeneity", None, None),
    ("perms", None, "homogeneity", "perms", "homogeneity", None, None),
    ("perms", None, "induced_block_action", "perms", "block_action", None, None),
    ("perms", None, "group_from_json_dict", "perms", "load", None, None),
    ("perms", None, "check_membership", "perms", "membership", None, None),
    ("kramer_mesner", None, "build_orbit_matrix", "kramer_mesner", "matrix", _matrix, None),
    ("kramer_mesner", None, "solve", "kramer_mesner", "solve", _solve, None),
    ("kramer_mesner", None, "expand_selection", "kramer_mesner", "expand", _expand, None),
    ("kramer_mesner", None, "search_design", "kramer_mesner", "search", None, None),
    ("designs", None, "verify", "designs", "verify", _verify, None),
    ("designs", None, "design_from_json", "designs", "parse", None, None),
    ("designs", None, "design_from_json_dict", "designs", "parse", _parse, None),
    ("designs", None, "derived", "designs", "derive", None, None),
    ("designs", None, "design_to_json", "designs", "serialize", None, None),
    ("admissibility", None, "check", "admissibility", "check", _check, None),
    ("admissibility", None, "scan", "admissibility", "scan", None, None),
    ("blocktrans", None, "eliminate", "blocktrans", "eliminate", _eliminate, None),
    ("blocktrans", None, "sweep", "blocktrans", "sweep", None, None),
    ("catalog", "CatalogEntry", "group", "catalog", "build", _build, _entry_unbuilt),
    ("catalog", None, "catalog_entry_by_name", "catalog", "lookup", None, None),
    ("catalog", None, "candidates_for_degree", "catalog", "lookup", None, None),
    ("catalog", None, "projective_group", "catalog", "build", None, None),
    ("catalog", None, "load_bundled_group", "catalog", "build", None, None),
    ("gf", None, "field", "gf", "field", None, None),
    ("gf", "GF", "__init__", "gf", "field", _field_built, None),
    ("cli", None, "main", "cli", "main", None, None),
)

# per-layer metric name -> unit; every name is reported, zero when unused
OP_TIMES = {
    "perms": ("homogeneity", "setwise", "chain", "partition", "sift", "block_action"),
    "kramer_mesner": ("matrix", "solve", "expand"),
    "designs": ("verify", "parse", "derive"),
    "admissibility": ("check",),
    "blocktrans": ("eliminate",),
    "catalog": ("build",),
    "gf": ("field",),
    "cli": (),
}
OP_CALLS = {
    "perms.homogeneity_calls": ("perms", "homogeneity"),
    "perms.setwise_calls": ("perms", "setwise"),
    "designs.verify_calls": ("designs", "verify"),
    "admissibility.checks": ("admissibility", "check"),
    "blocktrans.verdicts": ("blocktrans", "eliminate"),
}
COUNTS = (
    "perms.setwise_stab_order_sum", "perms.chains_built", "perms.chain_base_len_sum",
    "perms.subsets_enumerated", "perms.partition_orbits", "perms.sifts",
    "kramer_mesner.matrix_cells", "kramer_mesner.superset_lookups",
    "kramer_mesner.solutions", "kramer_mesner.blocks_expanded",
    "designs.cover_increments", "designs.parse_blocks",
    "catalog.builds", "gf.fields", "cli.stdout_bytes",
)
RATIOS = {
    # name: (numerator count, denominator: call count or op)
    "kramer_mesner.solutions_per_solve": ("kramer_mesner.solutions", ("kramer_mesner", "solve")),
    "admissibility.admissible_ratio": ("admissibility.admissible", ("admissibility", "check")),
    "blocktrans.survivor_ratio": ("blocktrans.survivors", ("blocktrans", "eliminate")),
}


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for layer in LAYERS:
        units["%s.self_s" % layer] = "s"
        units["%s.calls" % layer] = "count"
        units["%s.errors" % layer] = "count"
        for op in OP_TIMES[layer]:
            units["%s.%s_s" % (layer, op)] = "s"
    for name in OP_CALLS:
        units[name] = "count"
    for name in COUNTS:
        units[name] = "bytes" if name.endswith("_bytes") else "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, op, start, end, parent, task, error]
        self.stack = []
        self.task = None
        self.paused = False
        self.counts = {name: 0 for name in COUNTS}
        self.counts.update({"admissibility.admissible": 0, "blocktrans.survivors": 0})

    def wrap(self, fn, name, layer, op, counter, pre):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre else None
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, layer, op, 0.0, 0.0, parent, tracer.task, False]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[4] = perf_counter()
                tracer.stack.pop()
            if counter:
                counter(tracer.counts, args, kwargs, result, state)
            return result

        return wrapper

    def install(self):
        """Wrap every entry point in ``POINTS`` wherever steinerkit holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "steinerkit" or n.startswith("steinerkit.")]
        for module_name, cls_name, attr, layer, op, counter, pre in POINTS:
            module = importlib.import_module("steinerkit." + module_name)
            if cls_name:
                cls = getattr(module, cls_name)
                name = "%s.%s.%s" % (module_name, cls_name, attr)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], name, layer, op, counter, pre))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, "%s.%s" % (module_name, attr), layer, op, counter, pre)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, layer, op, start, end, parent, task, error) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "op": op, "start": start,
                    "end": end, "parent": parent, "task": task, "error": error,
                }) + "\n")

    def layer_metrics(self):
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, layer, op, start, end, parent, task, error in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time, layer_calls, op_calls, errors = {}, {}, {}, {}
        for i, (name, layer, op, start, end, parent, task, error) in enumerate(spans):
            own = end - start - child_time[i]
            for key in ((layer, op), layer):
                self_time[key] = self_time.get(key, 0.0) + own
            parent_span = spans[parent] if parent is not None else None
            # a call enters an op (or layer) when its parent is outside it
            if parent_span is None or parent_span[1] != layer:
                layer_calls[layer] = layer_calls.get(layer, 0) + 1
            if parent_span is None or (parent_span[1], parent_span[2]) != (layer, op):
                op_calls[(layer, op)] = op_calls.get((layer, op), 0) + 1
            if error:
                errors[layer] = errors.get(layer, 0) + 1
        out = {}
        for layer in LAYERS:
            out["%s.self_s" % layer] = self_time.get(layer, 0.0)
            out["%s.calls" % layer] = layer_calls.get(layer, 0)
            out["%s.errors" % layer] = errors.get(layer, 0)
            for op in OP_TIMES[layer]:
                out["%s.%s_s" % (layer, op)] = self_time.get((layer, op), 0.0)
        for name, key in OP_CALLS.items():
            out[name] = op_calls.get(key, 0)
        for name in COUNTS:
            out[name] = self.counts[name]
        for name, (numerator, key) in RATIOS.items():
            calls = op_calls.get(key, 0)
            out[name] = self.counts[numerator] / calls if calls else 0.0
        out["trace.spans"] = len(spans)
        return out
