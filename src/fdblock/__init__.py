"""Block encodings of periodic finite-difference operators.

Explicit shift-based quantum circuits embedding the scaled discrete
Laplacian (and first-order relatives) as the zero-ancilla block of a
unitary, together with statevector simulation, block verification, success
probabilities, discretization-error metrics, and Clifford+T accounting.
"""

from .analysis import (
    FAMILIES,
    SweepRow,
    VerificationReport,
    fd_error_max,
    success_probability,
    sweep_success_probability,
    verify_pattern,
)
from .circuit import Circuit, Gate, adjoint, apply, export_text
from .encodings import (
    BlockEncoding,
    alpha_d,
    encode_banded_lcu,
    encode_derivative_1d,
    encode_divergence_2d,
    encode_gradient_2d,
    encode_laplace_1d,
    encode_laplace_1d_lcu,
    encode_laplace_dd,
    encode_wave_2d,
    shift_circuit,
)
from .linalg import norm2
from .operators import GridFunction, GridSpec, sample_function
from .resources import GateCounts, count_resources, lower_to_toffoli, resource_sweep

__all__ = [
    "BlockEncoding",
    "Circuit",
    "FAMILIES",
    "Gate",
    "GateCounts",
    "GridFunction",
    "GridSpec",
    "SweepRow",
    "VerificationReport",
    "adjoint",
    "alpha_d",
    "apply",
    "count_resources",
    "encode_banded_lcu",
    "encode_derivative_1d",
    "encode_divergence_2d",
    "encode_gradient_2d",
    "encode_laplace_1d",
    "encode_laplace_1d_lcu",
    "encode_laplace_dd",
    "encode_wave_2d",
    "export_text",
    "fd_error_max",
    "lower_to_toffoli",
    "norm2",
    "resource_sweep",
    "sample_function",
    "shift_circuit",
    "success_probability",
    "sweep_success_probability",
    "verify_pattern",
]
