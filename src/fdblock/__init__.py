"""Block encodings of periodic finite-difference operators.

Explicit shift-based quantum circuits embedding the scaled discrete
Laplacian (and first-order relatives) as the zero-ancilla block of a
unitary, together with dense simulation, block verification, success
probabilities, discretization-error metrics, and Clifford+T accounting.
"""

from .analysis import (
    FAMILIES,
    SweepRow,
    VerificationReport,
    extract_block,
    fd_error_max,
    success_probability,
    sweep_success_probability,
    verify_pattern,
)
from .circuit import (
    Circuit,
    Gate,
    adjoint,
    apply,
    compose,
    controlled,
    export_text,
    unitary,
)
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
from .linalg import is_unitary, kron, norm2
from .operators import (
    GridFunction,
    GridSpec,
    banded_circulant,
    central_difference_1d,
    first_order_tensorized,
    laplacian_1d,
    laplacian_dd,
    sample_function,
    scaled_laplacian_1d,
    scaled_laplacian_dd,
    trapezoid_1d,
)
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
    "banded_circulant",
    "central_difference_1d",
    "compose",
    "controlled",
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
    "extract_block",
    "fd_error_max",
    "first_order_tensorized",
    "is_unitary",
    "kron",
    "laplacian_1d",
    "laplacian_dd",
    "lower_to_toffoli",
    "norm2",
    "resource_sweep",
    "sample_function",
    "scaled_laplacian_1d",
    "scaled_laplacian_dd",
    "shift_circuit",
    "success_probability",
    "sweep_success_probability",
    "trapezoid_1d",
    "unitary",
    "verify_pattern",
]
