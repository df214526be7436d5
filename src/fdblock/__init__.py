"""Block encodings of periodic finite-difference operators.

Explicit shift-based quantum circuits embedding the scaled discrete
Laplacian (and first-order relatives) as the zero-ancilla block of a
unitary, together with circuit simulation, block verification, success
probabilities, discretization-error metrics, and Clifford+T accounting.

``import fdblock`` loads no submodule.  Each public name is imported
from the module that defines it on its first access (PEP 562) and then
kept in this module's globals, so a program pays only for the modules
whose names it reads.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": (
            "FAMILIES",
            "SweepRow",
            "VerificationReport",
            "success_probability",
            "sweep_success_probability",
            "verify_pattern",
        ),
        "circuit": ("Circuit", "Gate", "adjoint", "export_text"),
        "encodings": (
            "BlockEncoding",
            "alpha_d",
            "encode_banded_lcu",
            "encode_derivative_1d",
            "encode_divergence_2d",
            "encode_gradient_2d",
            "encode_laplace_1d_lcu",
            "encode_laplace_dd",
            "encode_wave_2d",
            "shift_circuit",
        ),
        "linalg": ("norm2",),
        "operators": ("GridFunction", "GridSpec", "sample_function"),
        "resources": ("GateCounts", "count_resources", "lower_to_toffoli", "resource_sweep"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
