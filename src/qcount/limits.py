"""Size caps for dense linear algebra, sampling and polynomial degree.

The caps keep every operation desk-scale: statevector simulation stays
under SIM_QUBIT_CAP total qubits, anything that materializes a full
unitary, an eigendecomposition or the walk counts of an exact path sum
stays under the dense cap, no rectangle polynomial has a degree above
POLY_DEGREE_CAP, one estimator run draws at most
SAMPLE_CAP uniforms, and an interval partition has at most PARTITION_CAP
bands.  QCOUNT_DENSE_CAP overrides the dense cap; check_dense and
check_draws are the one check of each.
"""

import math
import os

from .errors import CapExceeded, PreconditionError

SIM_QUBIT_CAP = 20
DENSE_QUBIT_CAP_DEFAULT = 14
POLY_DEGREE_CAP = 2**14  # O(p) Clenshaw work per point evaluated; p + 1 coefficients a record
SAMPLE_CAP = 2**24  # uniform draws per estimator run: a bound on time, as walks stream theirs
PARTITION_CAP = 2**16  # interval-partition bands: M - 1 oracle queries and an M + 1 n_hat

_ENV_DENSE_CAP = "QCOUNT_DENSE_CAP"


def dense_qubit_cap() -> int:
    """Current dense-operation cap, honoring the environment override."""
    raw = os.environ.get(_ENV_DENSE_CAP)
    if raw is None:
        return DENSE_QUBIT_CAP_DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise PreconditionError(f"{_ENV_DENSE_CAP} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise PreconditionError(f"{_ENV_DENSE_CAP} must be positive, got {cap}")
    return cap


def check_dense(qubits: int) -> None:
    """Reject a dense operation on more qubits than the dense cap."""
    cap = dense_qubit_cap()
    if qubits > cap:
        raise CapExceeded(f"{qubits} qubits exceeds the {cap}-qubit dense cap")


def check_draws(draws: float, who: str) -> None:
    """Reject one estimator run of more than SAMPLE_CAP uniform draws."""
    if draws > SAMPLE_CAP:
        raise CapExceeded(f"{who} needs {draws} draws, over the {SAMPLE_CAP} cap")


def ceil_quotient(num: float, den: float) -> int | float:
    """ceil(num / den) for num, den > 0, or inf where a tiny den overflows the quotient.

    ceil raises on inf (and the division on a den underflowed to 0); the
    caller's cap check rejects an inf count like any count over its cap.
    """
    quotient = num / den if den else math.inf
    return math.ceil(quotient) if quotient < math.inf else quotient
