"""Per-layer spans recorded from outside the program.

``install`` replaces public twistlab functions and methods with timing
wrappers at the places their callers look them up (module globals of the
calling module, class attributes for methods).  Only the traced worker
process calls it; the untraced run executes the unmodified package.

Each wrapped call is a span with a name, start, end, parent span and root
span (the ``cli.run_scenario`` call of one scenario).  Self time is computed
online as span time minus the time covered by child spans, so the totals are
exact however many spans there are; only the first ``SPAN_CAP`` spans are
kept in memory for the JSONL dump.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("groups", "cocycles", "reps", "series", "convergence", "actions", "cli")
BOX_KERNELS = ("convergence.box_twist_mean", "convergence.box_sup_distance")
SPAN_CAP = 50_000


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.layer_span_s: defaultdict[str, float] = defaultdict(float)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """A span-recording stand-in for ``fn``.

        ``hook(args, kwargs, result)`` runs after a successful call, after
        this span has closed, to update work counters.
        """
        layer = name.partition(".")[0]
        stack, depth, spans = self._stack, self._depth, self.spans
        self_s, calls, layer_span_s = self.self_s, self.calls, self.layer_span_s

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            root = stack[0][1] if stack else sid
            frame = [0.0, sid]  # time covered by child spans, span id
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = end - start
                self_s[name] += span - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += span
                depth[layer] -= 1
                if not depth[layer]:
                    layer_span_s[layer] += span
                if len(spans) < SPAN_CAP:
                    spans.append((sid, stack[-1][1] if stack else None, root,
                                  name, start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, name: str, owners, attr: str, hook=None) -> None:
        """Wrap ``attr`` once and install the same wrapper on every owner."""
        owners = list(owners)
        traced = self.wrap(name, owners[0].__dict__[attr], hook)
        for owner in owners:
            self.patch(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.partition(".")[0]] += seconds
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "root": root,
                                     "name": name, "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"summary": True, "spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped}) + "\n")


def _value_classes(cocycles) -> list[type]:
    """Every cocycle or bilinear class that defines its own ``value``."""
    found, todo = [], [cocycles.Cocycle]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not cocycles.Cocycle and "value" in cls.__dict__:
            found.append(cls)
    return found + [cocycles.MatrixBilinear, cocycles.TableBilinear]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where their callers find them."""
    from twistlab import actions, cli, cocycles, convergence, groups, reps, series

    counters, maxima = tracer.counters, tracer.maxima

    def add(name: str, amount) -> None:
        counters[name] += amount

    def dense(dim: int, products: int) -> None:
        maxima["reps.dense_dim.max"] = max(maxima["reps.dense_dim.max"], dim)
        add("reps.dense_flops", products * dim ** 3)

    # groups
    def materialized_points(self):
        return iter(tuple(original_points(self)))

    original_points = groups.FolnerBox.__dict__["points"]
    tracer.patch(groups.FolnerBox, "points", tracer.wrap(
        "groups.box_points", materialized_points,
        lambda a, k, r: add("groups.box_points.points", a[0].cardinality())))
    tracer.patch_span("groups.overlap", [groups.FolnerBox], "overlap")

    # cocycles
    for cls in _value_classes(cocycles):
        tracer.patch_span("cocycles.value", [cls], "value")
    tracer.patch_span("cocycles.check_identity", [cli], "check_cocycle_identity")
    tracer.patch_span("cocycles.coboundary_test", [actions], "coboundary_test")

    # reps
    tracer.patch_span("reps.regular_rep_matrix", [reps], "regular_rep_matrix",
                      lambda a, k, r: dense(r.shape[0], 0))

    def relation_products(a, k, r):
        rep = a[0]
        pairs = a[1] if len(a) > 1 else k.get("pairs")
        dense(rep.dimension, rep.group.order ** 2 if pairs is None else len(pairs))

    tracer.patch_span("reps.relation_check", [cli], "projective_relation_check",
                      relation_products)
    tracer.patch_span("reps.ccr_relation", [reps.CCRPair], "relation_residual",
                      lambda a, k, r: dense(a[0].dimension, 2 * len(a[1])))
    tracer.patch_span("reps.ccr_unitarity", [reps.CCRPair], "unitarity_defect",
                      lambda a, k, r: dense(a[0].dimension, 1))

    def fell_products(a, k, r):
        # W (left) W* per element plus the intertwiner unitarity product.
        dense(r.group_order * r.rep_dimension, 2 * r.group_order + 1)

    tracer.patch_span("reps.fell", [cli], "fell_absorption_check", fell_products)
    tracer.patch_span("reps.spectral_distance", [reps], "spectral_multiset_distance")

    # series
    tracer.patch_span("series.diagnose_terms", [series, convergence], "diagnose_terms")
    tracer.patch_span("series.model_values", [series], "model_values")
    for fn in ("power_tail", "geometric_tail", "poly_geometric_tail"):
        tracer.patch_span("series.tail", [series, convergence], fn)
    tracer.patch_span("series.sum", [series, convergence], "neumaier_sum")
    tracer.patch_span("series.sum", [series, cli], "running_sums")

    verdict_init = series.SeriesVerdict.__dict__["__init__"]

    def counted_init(self, *args, **kwargs):
        verdict_init(self, *args, **kwargs)
        add("series.terms_evaluated", self.terms_evaluated)

    tracer.patch(series.SeriesVerdict, "__init__", counted_init)

    # convergence
    tracer.patch_span("convergence.box_twist_mean", [convergence], "box_twist_mean",
                      lambda a, k, r: add("convergence.grid_points", a[1].cardinality()))

    def sup_grid(a, k, r):
        add("convergence.grid_points", a[1].cardinality() * len(a[2]))
        add("convergence.select.candidates", 1)

    tracer.patch_span("convergence.box_sup_distance", [convergence], "box_sup_distance",
                      sup_grid)
    tracer.patch_span("convergence.select", [cli], "select_product_subsequence",
                      lambda a, k, r: add("convergence.select.accepted", len(r.steps)))
    tracer.patch_span("convergence.box_defect", [cli, convergence], "box_defect")
    for fn in ("twisted_rep_series", "lattice_tensor_criteria", "dirichlet_condition",
               "translation_series"):
        tracer.patch_span(f"convergence.{fn}", [cli], fn)
    for fn in ("product_diagnose", "inner_product_series"):
        tracer.patch_span("convergence.scalar_series", [cli], fn)
    tracer.patch_span("convergence.scalar_series", [actions], "modulus_deficit_series")

    # actions: amplitude callables of the scenarios the public factories return
    for fn in ("regular_trace_scenario", "rep_trace_scenario", "scenario_from_values"):
        factory = cli.__dict__[fn]

        def traced_factory(*args, _factory=factory, **kwargs):
            scenario = _factory(*args, **kwargs)
            return dataclasses.replace(
                scenario, amplitudes=tracer.wrap("actions.amplitude", scenario.amplitudes))

        tracer.patch(cli, fn, traced_factory)
    tracer.patch_span("actions.inner_outer_verdict", [cli], "inner_outer_verdict")
    tracer.patch_span("actions.obstruction", [cli], "cohomological_obstruction")

    # cli
    for fn in ("parse_scalar", "parse_complex", "parse_int_list", "parse_group",
               "parse_matrix", "parse_model", "parse_signed_family", "parse_cocycle",
               "parse_bilinear", "parse_rep"):
        tracer.patch_span("cli.parse", [cli], fn)
    for fn in ("render_json", "render_csv"):
        tracer.patch_span("cli.render", [cli], fn)
