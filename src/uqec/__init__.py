"""Measurement-free quantum error correction on density matrices.

Encode a qubit into the 3-, 5-, or 9-qubit code, push it through a
probabilistic Pauli channel, and recover it with a single orthogonal matrix:
the output factorizes exactly as (original qubit) x (diagnostic ancilla), so
no syndrome measurement or projection is ever applied.
"""

from .analysis import (
    DEFAULT_TOL,
    INPUT_STATES,
    TRAJECTORY_ALPHA,
    FactorizationResult,
    NonDiagonalAncillaError,
    RecoveryReport,
    TrajectoryReport,
    check_product_form,
    fidelity_pure,
    report_to_json,
    run_experiment,
    simplex_grid,
    syndrome_distribution,
    trajectory_statistics,
    verification_probability_vectors,
    verify_code,
)
from .codes import (
    CODE_NAMES,
    Code,
    ErrorOperator,
    PureQubitState,
    bitflip3,
    divincenzo5,
    encode_state,
    encoding_unitary,
    error_operator,
    get_code,
    shor9,
    standard_error_set,
)
from .linalg import (
    QubitSplit,
    frobenius_distance,
    kron,
    write_matrix,
)
from .recovery import (
    DensityMatrix,
    ErrorChannel,
    KLReport,
    KLViolationError,
    RecoveryMatrix,
    build_recovery,
    read_channel_file,
    recover_pure_state,
    recovery_for,
    recovery_row_order,
    validate_kl,
)

__version__ = "0.1.0"
