"""Span tracing for the benchmark's traced run.

:class:`Tracer` replaces every public function of the fdblock layer
modules with a timing wrapper, in every fdblock namespace that holds it.
The package imports functions by name (``analysis`` imports ``apply``,
``apply_to_columns``, ``unitary``, ``unitarity_residual`` and
``max_abs_diff``; ``cli`` imports ``export_text``), so a wrapper on
``fdblock.circuit.unitary`` alone would never see the calls that
``verify_pattern`` makes.  Each lookup site therefore gets its own
wrapper, and each span records the site it was called through.

Spans stay in memory as plain lists ``[site, func, layer, t0, t1,
parent, info]`` and are turned into per-layer metrics by
:func:`layer_metrics`.  Times come from ``time.monotonic``, which is
CLOCK_MONOTONIC on Linux and so comparable between the benchmark and
the processes it starts.

Nothing here changes fdblock's behaviour: wrappers return what the
wrapped function returns, and :meth:`Tracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types

LAYERS = ("cli", "encodings", "circuit", "analysis", "linalg", "operators", "resources")
NAMESPACES = ("fdblock",) + tuple(f"fdblock.{layer}" for layer in LAYERS)

# Output formatting is charged to the cli layer, wherever the formatter lives.
FORMATTERS = {"analysis.sweep_csv", "resources.resources_csv", "circuit.export_text"}
# Private functions that a metric needs.
PRIVATE = {"cli._write_output"}

SIMULATORS = {"circuit.apply", "circuit.apply_to_columns", "circuit.unitary"}
DENSE_REFS = {
    f"operators.{name}"
    for name in (
        "laplacian_1d",
        "scaled_laplacian_1d",
        "laplacian_dd",
        "scaled_laplacian_dd",
        "central_difference_1d",
        "trapezoid_1d",
        "banded_circulant",
        "first_order_tensorized",
    )
}
STENCILS = {
    f"operators.{name}"
    for name in ("apply_laplacian", "apply_scaled_laplacian", "apply_banded", "apply_first_order")
}
SAMPLERS = {"operators.sample_function", "operators.sample_grid"}

# Lookup sites each workload must call through; a site missing from a
# traced run means the wrappers did not see part of the workload.
EXPECTED_SITES = {
    "verify-11q": (
        "cli.main",
        "cli._write_output",
        "resources.build_encoding",
        "encodings.encode_laplace_1d",
        "encodings.encode_laplace_dd",
        "encodings.encode_laplace_1d_lcu",
        "encodings.encode_derivative_1d",
        "encodings.encode_gradient_2d",
        "encodings.encode_divergence_2d",
        "encodings.encode_wave_2d",
        "analysis.verify_pattern",
        "analysis.extract_block",
        "analysis.apply_to_columns",
        "analysis.unitary",
        "analysis.unitarity_residual",
        "analysis.max_abs_diff",
        "operators.scaled_laplacian_dd",
        "operators.scaled_laplacian_1d",
        "operators.central_difference_1d",
        "operators.first_order_tensorized",
    ),
    "simulate-18q": (
        "fdblock.encode_laplace_dd",
        "fdblock.encode_laplace_1d_lcu",
        "fdblock.encode_derivative_1d",
        "fdblock.encode_gradient_2d",
        "fdblock.encode_divergence_2d",
        "fdblock.encode_wave_2d",
        "fdblock.success_probability",
        "analysis.apply",
        "analysis.reference_block_apply",
        "operators.apply_scaled_laplacian",
        "operators.apply_first_order",
    ),
    "tables-64q": (
        "cli.main",
        "cli._write_output",
        "cli.export_text",
        "resources.resource_sweep",
        "resources.count_resources",
        "resources.resources_csv",
        "resources.build_encoding",
        "analysis.sweep_success_probability",
        "analysis.sweep_csv",
        "analysis.fd_error_max",
        "operators.sample_function",
        "operators.apply_scaled_laplacian",
    ),
}

# Every per-layer metric, with its unit, in report order.
METRICS = {
    "setup.import_s": "s",
    "cli.self_s": "s",
    "cli.format_s": "s",
    "cli.write_s": "s",
    "cli.out_bytes": "B",
    "encodings.self_s": "s",
    "encodings.build_s": "s",
    "encodings.builds": "count",
    "encodings.gates": "count",
    "resources.self_s": "s",
    "resources.lower_s": "s",
    "resources.rows": "count",
    "resources.lowered_gates": "count",
    "circuit.self_s": "s",
    "circuit.apply_s": "s",
    "circuit.unitary_s": "s",
    "circuit.columns": "count",
    "circuit.amp_gate_updates": "count",
    "circuit.updates_per_s": "1/s",
    "analysis.self_s": "s",
    "analysis.extract_s": "s",
    "analysis.extract_calls": "count",
    "analysis.useful_col_frac": "ratio",
    "analysis.verify_self_s": "s",
    "analysis.success_prob_self_s": "s",
    "linalg.self_s": "s",
    "linalg.residual_s": "s",
    "linalg.residual_flops": "flop",
    "linalg.diff_s": "s",
    "operators.self_s": "s",
    "operators.dense_ref_s": "s",
    "operators.stencil_s": "s",
    "operators.sample_s": "s",
    "operators.stencil_points": "count",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
    "trace.missed_sites": "count",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sim_info(columns, circuit):
    return {"columns": columns, "updates": len(circuit.gates) * circuit.dim * columns}


def _info_apply(args, kwargs, result):
    return _sim_info(1, _arg(args, kwargs, 0, "circuit"))


def _info_apply_to_columns(args, kwargs, result):
    return _sim_info(result.shape[1], _arg(args, kwargs, 0, "circuit"))


def _info_unitary(args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "circuit")
    return _sim_info(circuit.dim, circuit)


def _info_extract(args, kwargs, result):
    enc = _arg(args, kwargs, 0, "enc")
    col = _arg(args, kwargs, 2, "col")
    # The pid keeps keys distinct across the processes of one pass.
    return {"col": f"{os.getpid()}:{id(enc)}:{col}"}


def _info_residual(args, kwargs, result):
    d = len(_arg(args, kwargs, 0, "u"))
    return {"flops": 8 * d**3}


def _info_stencil(args, kwargs, result):
    return {"points": int(result.size)}


def _info_rows(args, kwargs, result):
    return {"rows": len(result)}


def _info_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode())}


def _info_build(args, kwargs, result):
    circuit = getattr(result, "circuit", None)
    return None if circuit is None else {"gates": len(circuit.gates)}


def _info_hook(func, layer):
    if layer == "encodings":
        return _info_build
    if func in STENCILS:
        return _info_stencil
    return {
        "circuit.apply": _info_apply,
        "circuit.apply_to_columns": _info_apply_to_columns,
        "circuit.unitary": _info_unitary,
        "analysis.extract_block": _info_extract,
        "linalg.unitarity_residual": _info_residual,
        "resources.resource_sweep": _info_rows,
        "cli._write_output": _info_bytes,
    }.get(func)


def _traced_function(value):
    """(func, layer) for a layer-module function the tracer wraps, else None."""
    if not isinstance(value, types.FunctionType):
        return None
    module, _, short = value.__module__.partition(".")
    if module != "fdblock" or short not in LAYERS:
        return None
    func = f"{short}.{value.__name__}"
    if value.__name__.startswith("_") and func not in PRIVATE:
        return None
    return func, "cli" if func in FORMATTERS else short


class Tracer:
    """Installs span-recording wrappers into the fdblock namespaces."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {"resources.lowered_gates": 0}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        for name in NAMESPACES:
            namespace = importlib.import_module(name)
            site_prefix = name.rpartition(".")[2]
            for attr, value in list(vars(namespace).items()):
                traced = _traced_function(value)
                if traced is not None:
                    func, layer = traced
                    wrapper = self._wrap(f"{site_prefix}.{attr}", func, layer, value)
                    self._patch(namespace, attr, wrapper)
        # Lowered gates are counted without a span, so that the
        # count_resources span keeps the lowering in its self time.
        lowering = importlib.import_module("fdblock.resources")._Lowering
        lower = lowering.lower
        counters = self.counters

        def counting_lower(low, circuit):
            lowered = lower(low, circuit)
            counters["resources.lowered_gates"] += len(lowered.gates)
            return lowered

        self._patch(lowering, "lower", counting_lower)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, site, func, layer, original):
        spans, stack = self.spans, self._stack
        info_hook = _info_hook(func, layer)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [site, func, layer, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            record[3] = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                record[4] = time.monotonic()
                stack.pop()
            if info_hook is not None:
                record[6] = info_hook(args, kwargs, result)
            return result

        return wrapper


class AccountingError(Exception):
    """Self times and unattributed time do not add up to the traced wall."""


def layer_metrics(spans, window_s, counters) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``window_s`` is the traced wall time that every span falls in.  A
    span's self time is its duration minus the time its child spans
    cover; the self times of all spans plus the time no span covers add
    up to the window, which is checked here.
    """
    m = dict.fromkeys(METRICS, 0.0)
    child_s = [0.0] * len(spans)
    outer_layers: list[frozenset] = [frozenset()] * len(spans)
    roots_s = 0.0
    for i, span in enumerate(spans):
        parent = span[5]
        duration = span[4] - span[3]
        if parent is None:
            roots_s += duration
        else:
            child_s[parent] += duration
            outer_layers[i] = outer_layers[parent] | {spans[parent][2]}

    columns = set()
    self_total = 0.0
    for i, (site, func, layer, t0, t1, parent, info) in enumerate(spans):
        duration = t1 - t0
        self_s = duration - child_s[i]
        self_total += self_s
        outer = layer not in outer_layers[i]
        info = info or {}
        if layer == "setup":
            m["setup.import_s"] += duration
            continue
        m[f"{layer}.self_s"] += self_s
        if func in FORMATTERS:
            m["cli.format_s"] += duration
        elif func == "cli._write_output":
            m["cli.write_s"] += duration
            m["cli.out_bytes"] += info["bytes"]
        elif layer == "encodings" and outer and "gates" in info:
            m["encodings.build_s"] += duration
            m["encodings.builds"] += 1
            m["encodings.gates"] += info["gates"]
        elif func == "resources.count_resources":
            m["resources.lower_s"] += self_s
        elif func == "resources.resource_sweep":
            m["resources.rows"] += info["rows"]
        elif func in SIMULATORS and outer:
            m["circuit.unitary_s" if func == "circuit.unitary" else "circuit.apply_s"] += duration
            m["circuit.columns"] += info["columns"]
            m["circuit.amp_gate_updates"] += info["updates"]
        elif func == "analysis.extract_block":
            m["analysis.extract_s"] += duration
            m["analysis.extract_calls"] += 1
            columns.add(info["col"])
        elif func in ("analysis.verify_pattern", "analysis.verify_encoding"):
            m["analysis.verify_self_s"] += self_s
        elif func == "analysis.success_probability":
            m["analysis.success_prob_self_s"] += self_s
        elif func == "linalg.unitarity_residual" and outer:
            m["linalg.residual_s"] += duration
            m["linalg.residual_flops"] += info["flops"]
        elif func == "linalg.max_abs_diff" and outer:
            m["linalg.diff_s"] += duration
        elif func in DENSE_REFS and outer:
            m["operators.dense_ref_s"] += duration
        elif func in STENCILS and outer:
            m["operators.stencil_s"] += duration
            m["operators.stencil_points"] += info["points"]
        elif func in SAMPLERS and outer:
            m["operators.sample_s"] += duration

    m["resources.lowered_gates"] = counters.get("resources.lowered_gates", 0)
    if m["analysis.extract_calls"]:
        m["analysis.useful_col_frac"] = len(columns) / m["analysis.extract_calls"]
    sim_s = m["circuit.apply_s"] + m["circuit.unitary_s"]
    if sim_s > 0:
        m["circuit.updates_per_s"] = m["circuit.amp_gate_updates"] / sim_s
    m["traced_wall_s"] = window_s
    m["unattributed_s"] = window_s - roots_s
    # 1 ms of slack covers clock reads taken a few instructions apart.
    if m["unattributed_s"] < -1e-3:
        raise AccountingError(f"spans cover {roots_s:.6f} s of a {window_s:.6f} s window")
    if abs(self_total + m["unattributed_s"] - window_s) > 1e-6 * max(1.0, window_s):
        raise AccountingError(
            f"self times {self_total:.6f} s + unattributed {m['unattributed_s']:.6f} s"
            f" != traced wall {window_s:.6f} s"
        )
    return m
