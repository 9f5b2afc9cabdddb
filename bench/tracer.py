"""Per-layer timing of the program, taken from outside it.

The tracer replaces each public function of the program's modules at every
module attribute the program calls it through (``fairdiv.cli.solve_leximin``
and ``fairdiv.solver.solve_leximin`` are the same function reached two
ways), so spans nest exactly as the calls do.  Spans stay in memory as
``(call, span, parent, name, start, end)`` tuples and are written out when
the run ends.  A span's self time is its duration less the time its child
spans cover; the layer metrics are sums of self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

PACKAGE = "fairdiv"
MODULES = ("cli", "formats", "model", "solver", "oracles", "reductions")

# layer -> (module, function) pairs it covers; generators are timed per item
LAYERS = {
    "formats.parse": (("formats", "parse_instance"), ("formats", "parse_dimacs"),
                      ("formats", "parse_ae_dimacs")),
    "formats.serialize": (("formats", "serialize_instance"), ("formats", "report_to_json")),
    "model.utility": (("model", "utility_vector"), ("model", "dominates")),
    "model.envy": (("model", "find_envy"),),
    "solver.weights": (("solver", "generate_weights"),),
    "solver.matching": (("solver", "min_weight_max_matching"),),
    "solver.solve": (("solver", "solve_leximin"), ("solver", "decide_lmmuab")),
    "oracles.dominance": (("oracles", "find_dominating_allocation"), ("oracles", "is_pareto_optimal")),
    "oracles.sat": (("oracles", "sat_on_partial"),),
    "oracles.eef": (("oracles", "brute_force_eef"),),
    "oracles.ae_eval": (("oracles", "ae3cnf_eval"),),
    "reductions.build": (("reductions", "reduce_3cnf_to_po"), ("reductions", "reduce_ae3cnf_to_eef"),
                         ("reductions", "augment_both_polarities")),
    "reductions.templates": (("reductions", "build_x_forall_allocation"),
                             ("reductions", "x_forall_allocation_family"),
                             ("reductions", "x_forall_assignments")),
    "reductions.construct": (("reductions", "construct_improvement_po"),
                             ("reductions", "construct_improvement_eef")),
}
GENERATORS = {"x_forall_allocation_family", "x_forall_assignments"}
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = -1
        self.next_span = 0
        self.nodes = defaultdict(int)        # search nodes reported by each oracle
        self.cells = 0                       # matrix cells parsed by parse_instance
        self.weight_bits_max = 0
        self._weights = []                   # weight matrices awaiting measurement

    # -- spans --------------------------------------------------------------

    def _open(self):
        span = self.next_span
        self.next_span += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(span)
        return span, parent

    def _close(self, span, parent, name, start, end):
        self.stack.pop()
        self.spans.append((self.call_id, span, parent, name, start, end))

    def root(self, fn, *args):
        """Run one top-level call under a root span; returns (result, start, end)."""
        self.call_id += 1
        span, parent = self._open()
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._close(span, parent, ROOT, start, end)
        # measured after the root span closes, so it costs no layer any time;
        # bit_length only, since str() refuses ints above 4300 digits
        for weights in self._weights:
            top = max(max(row) for row in weights.weights) if weights.weights else 0
            self.weight_bits_max = max(self.weight_bits_max, top.bit_length())
        self._weights.clear()
        return result, start, end

    def _wrap(self, name, fn):
        func = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(span, parent, name, start, end)
            self._observe(func, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    span, parent = self._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span, parent, name, start, time.perf_counter())
                    yield item

            return timed()

        return wrapper

    def _observe(self, func, result):
        if func == "parse_instance":
            self.cells += result.instance.num_agents * result.instance.num_resources
        elif func == "generate_weights":
            self._weights.append(result)
        elif func in ("find_dominating_allocation", "sat_on_partial", "brute_force_eef"):
            self.nodes[func] += result.nodes

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every listed function at every program module attribute that
        refers to it."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for layer, targets in LAYERS.items():
            for module, func in targets:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
                name = f"{layer}:{func}"
                wrapped = (self._wrap_generator if func in GENERATORS else self._wrap)(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    # -- results --------------------------------------------------------------

    def self_times(self, factors=None):
        """Self time per span name, after checking that every span lies
        inside its parent and that self times add up to the root spans'
        total.  ``factors[call]``, when given, divides the times of each
        top-level call (the run's speed correction).  Raises ValueError on a
        broken tree."""
        factors = factors or [1.0] * (self.call_id + 1)
        by_id = {s[1]: s for s in self.spans}
        child_time = defaultdict(float)
        for call, span, parent, name, start, end in self.spans:
            if parent >= 0:
                p = by_id[parent]
                if not (p[0] == call and p[4] <= start and end <= p[5]):
                    raise ValueError(f"span {span} ({name}) lies outside its parent {parent}")
                child_time[parent] += end - start
        totals = defaultdict(float)
        for call, span, parent, name, start, end in self.spans:
            totals[name] += ((end - start) - child_time[span]) / factors[call]
        root_total = sum((s[5] - s[4]) / factors[s[0]] for s in self.spans if s[2] < 0)
        residual = abs(sum(totals.values()) - root_total)
        if residual > 1e-9 * len(self.spans) + 1e-9:
            raise ValueError(f"self times miss the traced calls' time by {residual} s")
        return totals, root_total

    def count(self, name):
        return sum(1 for s in self.spans if s[3] == name)

    def metrics(self, calls, factors=None):
        """The per-layer metrics of a run of ``calls`` top-level calls."""
        totals, _ = self.self_times(factors)

        def layer(prefix):
            return sum(v for k, v in totals.items() if k.split(":")[0] == prefix)

        dominance_s = layer("oracles.dominance")
        parse_instance_s = totals.get("formats.parse:parse_instance", 0.0)
        return {
            "cli.self_s": (totals.get(ROOT, 0.0), "s"),
            "formats.parse_s": (layer("formats.parse"), "s"),
            "formats.parse_cells_per_s": (self.cells / parse_instance_s if parse_instance_s else 0.0, "1/s"),
            "formats.serialize_s": (layer("formats.serialize"), "s"),
            "model.utility_s": (layer("model.utility"), "s"),
            "model.envy_s": (layer("model.envy"), "s"),
            "model.envy_calls": (self.count("model.envy:find_envy"), "count"),
            "solver.weights_s": (layer("solver.weights"), "s"),
            "solver.matching_s": (layer("solver.matching"), "s"),
            "solver.weight_bits_max": (self.weight_bits_max, "bits"),
            "solver.solves_per_call": (self.count("solver.solve:solve_leximin") / calls, "1/call"),
            "oracles.dominance_s": (dominance_s, "s"),
            "oracles.dominance_nodes": (self.nodes["find_dominating_allocation"], "count"),
            "oracles.dominance_nodes_per_s": (
                self.nodes["find_dominating_allocation"] / dominance_s if dominance_s else 0.0, "1/s"),
            "oracles.sat_s": (layer("oracles.sat"), "s"),
            "oracles.sat_nodes": (self.nodes["sat_on_partial"], "count"),
            "oracles.eef_s": (layer("oracles.eef"), "s"),
            "oracles.eef_nodes": (self.nodes["brute_force_eef"], "count"),
            "oracles.ae_eval_s": (layer("oracles.ae_eval"), "s"),
            "reductions.build_s": (layer("reductions.build"), "s"),
            "reductions.templates_s": (layer("reductions.templates"), "s"),
            "reductions.templates": (self.count("reductions.templates:build_x_forall_allocation"), "count"),
            "reductions.construct_s": (layer("reductions.construct"), "s"),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
