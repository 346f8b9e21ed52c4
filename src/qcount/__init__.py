"""Approximate counting workbench for verifier acceptance operators.

Small dense simulations of {H, S, Toffoli} verifier circuits feed an
exact spectral oracle, and every approximate route in the package --
Monte Carlo trace estimation, sign-path sums, singular value
transformation, and the two counting reductions -- is cross-validated
against it.
"""

from .circuit import (
    Gate,
    VerifierCircuit,
    circuit_hash,
    load_circuit,
    parse_circuit,
    simulate,
)
from .errors import CapExceeded, CircuitFormatError, InvariantViolation, PreconditionError
from .estimators import (
    AdditiveEstimate,
    DeciderResult,
    avg_accept_decider,
    median_amplify,
    median_repetitions,
    quantum_trace_estimator,
)
from .pathsum import (
    PathSumResult,
    free_path_bits,
    path_sum_estimator,
    path_sum_exact,
)
from .reductions import (
    IntervalTraceResult,
    MiscountingOracle,
    PaddingResult,
    decide_by_interval_recovery,
    interval_partition_trace,
    padding_reduction,
    partition_intervals,
)
from .spectral import (
    AcceptanceOperator,
    SpectralCount,
    accept_probability,
    build_acceptance_operator,
    check_promise,
    dqc1_ancilla_bound,
    trace_normalized,
    validate_dqc1,
    witness_probabilities,
)
from .svt import (
    RectanglePolynomial,
    SandwichBounds,
    apply_svt,
    degree_budget,
    rect_poly,
    sandwich_bounds,
)

__version__ = "0.1.0"
