"""Span tracer for the public functions of irtr_lab, installed from outside.

``Tracer.install`` replaces every listed function in every ``irtr_lab``
module namespace that binds it, and in every module-level dict that holds it
(``experiments.RUNNERS``), matched by identity.  Binding-by-identity is what
catches runner-level names such as ``experiments.fim`` and nested calls such
as ``psf_core._refined_batch -> quadrature_grid``.

Each call becomes one span: id, parent span id, operation id (one CLI call),
name, start, end and self time (duration minus the spans nested directly in
it).  Spans stay in memory; ``write_csv`` writes them out when the run ends.
Wrappers record nothing while ``enabled`` is false, so the benchmark's own
output checks, which call the same functions, never show up as spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

TRACED = {
    "psf_core": ("overlap_integrals", "quadrature_grid", "gaussian_psf"),
    "state_model": (
        "incompatibility",
        "build_state_model",
        "qfim",
        "gaussian_incompatibility",
    ),
    "measurements": (
        "direct_imaging_model",
        "spade_model",
        "haar_random_orthogonal",
        "projective_model",
        "fim",
        "regret_report",
    ),
    "tradeoff": ("irtr_residual", "irtr_frontier"),
    "experiments": (
        "run_fig1",
        "run_fig2",
        "run_fig3",
        "run_fig4",
        "run_fig5",
        "run_custom",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _quadrature_nodes(args, kwargs, result):
    panels = args[2] if len(args) > 2 else kwargs["panel_count"]
    per_panel = args[3] if len(args) > 3 else kwargs["nodes_per_panel"]
    return "psf_core.quadrature_nodes", panels * per_panel


def _fim_outcomes(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return "measurements.fim.outcomes", model.probabilities.size


def _spade_modes(args, kwargs, result):
    return "measurements.spade_model.modes", result.probabilities.size


# Work counts taken at the same boundaries as the spans.
COUNTERS = {
    "psf_core.quadrature_grid": _quadrature_nodes,
    "measurements.fim": _fim_outcomes,
    "measurements.spade_model": _spade_modes,
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        # (span_id, parent_id, op_id, name, start_ns, end_ns, self_ns)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)  # counter name -> total
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, name, function):
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append(
                    (span_id, parent, self.op_id, name, start, end, duration - frame[1])
                )
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counts[key] += amount
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [
            module
            for module_name, module in sorted(sys.modules.items())
            if module is not None
            and (module_name == "irtr_lab" or module_name.startswith("irtr_lab."))
        ]
        for layer, names in TRACED.items():
            module = sys.modules[f"irtr_lab.{layer}"]
            for function_name in names:
                original = getattr(module, function_name)
                wrapper = self._wrap(f"{layer}.{function_name}", original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patched.append((namespace, key, original))
                            setattr(namespace, key, wrapper)
                        elif isinstance(value, dict):
                            for item_key, item in list(value.items()):
                                if item is original:
                                    self._patched.append((value, item_key, original))
                                    value[item_key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span_id,parent_id,op_id,name,start_ns,end_ns,self_ns\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")

    def layer_metrics(self, passes: list[tuple[list[int], float]]) -> dict[str, float]:
        """Per-pass layer metrics from the recorded spans.

        ``passes`` lists each traced pass as (operation ids, wall seconds).
        Counts are per pass (every pass runs the same inputs); times are the
        median over passes.
        """
        op_pass = {op: index for index, (ops, _) in enumerate(passes) for op in ops}
        count = len(passes)
        calls = defaultdict(int)
        self_ns = defaultdict(lambda: [0] * count)
        total_ns = defaultdict(lambda: [0] * count)
        for _, _, op_id, name, start, end, own in self.spans:
            index = op_pass[op_id]
            calls[name] += 1
            self_ns[name][index] += own
            total_ns[name][index] += end - start

        metrics: dict[str, float] = {}
        layer_self = {layer: [0] * count for layer in LAYERS}
        for layer, names in TRACED.items():
            for function_name in names:
                name = f"{layer}.{function_name}"
                for index, own in enumerate(self_ns[name]):
                    layer_self[layer][index] += own
                if layer == "experiments":
                    metrics[f"{name}.s"] = statistics.median(total_ns[name]) / 1e9
                    continue
                per_pass_calls = calls[name] / count
                self_s = statistics.median(self_ns[name]) / 1e9
                metrics[f"{name}.calls"] = per_pass_calls
                metrics[f"{name}.self_s"] = self_s
                metrics[f"{name}.per_call_us"] = (
                    1e6 * self_s / per_pass_calls if per_pass_calls else 0.0
                )

        metrics["experiments.self_s"] = statistics.median(layer_self["experiments"]) / 1e9
        walls = [wall for _, wall in passes]
        for layer in LAYERS:
            share = sum(layer_self[layer]) / 1e9 / sum(walls)
            metrics[f"{layer}.self_share"] = 100.0 * share

        for key in (
            "psf_core.quadrature_nodes",
            "measurements.fim.outcomes",
            "measurements.spade_model.modes",
        ):
            metrics[key] = self.counts[key] / count
        return metrics
