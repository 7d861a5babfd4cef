"""Span recording around the package's public functions, and self times.

The traced run wraps each listed function in every ``mixspec`` namespace
that holds it (module attributes and registry dicts such as
``verify.SUITES`` and the CLI's command table), so calls made through a
``from .fem import ...`` binding are caught too. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("fem", "spectral", "interpolation", "reference", "verify", "exchange", "cli")

LAYER_FUNCTIONS = {
    "fem": ("assemble_mass", "assemble_local_stiffness", "assemble_fractional_stiffness",
            "check_lebesgue_interpolation"),
    "spectral": ("assemble_pencil", "embedding_constant", "gamma_shift", "solve_spectrum",
                 "verify_variational_characterization", "sweep_alpha", "locate_threshold",
                 "verify_brezis_inequality"),
    "interpolation": ("couple_from_grams", "k_functional", "k_functional_samples",
                      "k2_functional_samples", "symmetry_check", "interpolation_norm",
                      "spectral_s_norm", "operator_norm", "check_operator_interpolation",
                      "check_inclusion_monotonicity"),
    "reference": ("fractional_matrix_quadrature", "gagliardo_form_quadrature"),
    "verify": ("suite_fem_structure", "suite_fem_oracle", "suite_lebesgue",
               "suite_k_functional", "suite_interpolation_norms",
               "suite_operator_interpolation", "suite_spectrum_contract", "suite_threshold",
               "suite_gamma_shift", "suite_brezis_stability", "run_suites"),
    "exchange": ("write_json", "write_spectrum_csv", "write_sweep_csv", "read_couple",
                 "read_vector"),
    # main is the root span of every request: its self time is argument
    # parsing and config resolution
    "cli": ("main", "cmd_spectrum", "cmd_sweep", "cmd_kfunc", "cmd_verify"),
}


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent, request).

    A span's index in ``spans`` is its id; ``parent`` is the id of the
    enclosing span or None. Calls are single-threaded, so a stack suffices.
    """

    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[span_id] = (name, start, end, parent, self.request)

        return traced

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def install(tracer: Tracer):
    """Wrap every listed function wherever the ``mixspec`` package binds it.

    Returns ``(restore, missing)``: a callable that puts the originals back,
    and the listed names the package does not define.
    """
    wrappers = {}
    missing = []
    for layer, names in LAYER_FUNCTIONS.items():
        module = sys.modules[f"mixspec.{layer}"]
        for name in names:
            func = getattr(module, name, None)
            if func is None:
                missing.append(f"{layer}.{name}")
                continue
            wrappers[id(func)] = (func, tracer.wrap(f"{layer}.{name}", func))

    patched = []

    def patch(namespace: dict):
        for key, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
                patched.append((namespace, key, value))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "mixspec" and not mod_name.startswith("mixspec."):
            continue
        namespace = vars(module)
        patch(namespace)
        for value in list(namespace.values()):
            if isinstance(value, dict):
                patch(value)

    def restore():
        for namespace, key, value in reversed(patched):
            namespace[key] = value

    return restore, missing


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for span_id, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[span_id]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def metric_names() -> list[str]:
    """Per-layer metric names, in a fixed order, as the traced run reports them."""
    names = []
    for layer in LAYERS:
        for func in LAYER_FUNCTIONS[layer]:
            names += [f"{layer}.{func}.self_s", f"{layer}.{func}.calls"]
        names.append(f"{layer}.self_share")
    return names


def layer_metrics(spans, requests: int, request_wall_s: float) -> dict[str, float]:
    """Per-request self time and call count per function, and layer shares.

    ``request_wall_s`` is the summed wall time of the traced requests; a
    layer's ``self_share`` is its total self time over that sum.
    """
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        self_total[span[0]] += own
        calls[span[0]] += 1
    out = {}
    for layer in LAYERS:
        layer_self = 0.0
        for func in LAYER_FUNCTIONS[layer]:
            name = f"{layer}.{func}"
            out[f"{name}.self_s"] = self_total[name] / requests
            out[f"{name}.calls"] = calls[name] / requests
            layer_self += self_total[name]
        out[f"{layer}.self_share"] = layer_self / request_wall_s
    return out
