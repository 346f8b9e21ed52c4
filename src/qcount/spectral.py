"""Exact spectral oracle for verifier acceptance operators.

The acceptance operator of a verifier V on input x is the 2**w x 2**w
matrix  A = E' V' P V E,  where E embeds the witness register alongside
ancillas at |0> and input at |x>, P projects the output qubit onto |1>,
and primes denote conjugate transpose.  A is Hermitian and positive
semidefinite with spectrum in [0, 1]; its eigenvalue <y|A|y> diagonal
entries are the acceptance probabilities of individual witnesses, and
its trace equals the total acceptance weight that every estimator in
this package tries to approximate.

Everything here is dense and exact (up to machine precision): an
operator is the Gram product of the output-qubit-1 half of the embedded
witness matrix, eigendecomposed once and cached.  It is the one spectral
object per (circuit, x): the SVT block encoding reads its spectrum too.
The rules of the whole package live here: every threshold comparison goes
through at_least and at_most (within TIE_TOL of a threshold counts as on
it), every threshold pair passes check_promise, every count of a spectrum
(eigenvalues or singular values) is one SpectralCount.of, and every
certified inequality between computed floats, such as an oracle answer in
its allowed range, holds within AUDIT_SLACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import VerifierCircuit, embedded_witness_matrix, simulate
from .errors import InvariantViolation, PreconditionError

HERM_TOL = 1e-9
EIG_CLAMP_TOL = 1e-9
TIE_TOL = 1e-12
AUDIT_SLACK = 1e-9


class AcceptanceOperator:
    """Hermitian PSD matrix on the witness register with spectrum in [0, 1].

    Eigenvalues are computed lazily, once, clamped by clamp_to_unit and
    stored sorted descending.  Instances are treated as immutable after
    construction.
    """

    def __init__(self, matrix: np.ndarray, num_witness: int):
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = 1 << num_witness
        if matrix.shape != (dim, dim):
            raise PreconditionError(
                f"operator for {num_witness} witness qubits must be "
                f"{dim}x{dim}, got {matrix.shape}"
            )
        herm_gap = float(np.max(np.abs(matrix - matrix.conj().T))) if dim else 0.0
        if herm_gap > HERM_TOL:
            raise PreconditionError(
                f"matrix is not Hermitian within {HERM_TOL} (gap {herm_gap:.3e})"
            )
        self.matrix = matrix
        self.num_witness = num_witness
        self._eigenvalues: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 1 << self.num_witness

    @property
    def eigenvalues(self) -> np.ndarray:
        """All 2**w eigenvalues, clamped into [0, 1], sorted descending."""
        if self._eigenvalues is None:
            vals = np.linalg.eigvalsh(self.matrix)  # ascending
            self._eigenvalues = clamp_to_unit(vals)[::-1].copy()
        return self._eigenvalues

    @property
    def trace(self) -> float:
        """Real part of the trace, unclamped: the total acceptance weight."""
        return float(np.real(np.trace(self.matrix)))

    @property
    def probabilities(self) -> np.ndarray:
        """Acceptance probability of each witness basis state: the diagonal."""
        return np.clip(np.real(np.diagonal(self.matrix)), 0.0, 1.0)


def clamp_to_unit(values: np.ndarray) -> np.ndarray:
    """Values within 1e-9 of [0, 1] clamped into it; anything further out fails loudly."""
    low, high = float(values.min()), float(values.max())
    if low < -EIG_CLAMP_TOL or high > 1.0 + EIG_CLAMP_TOL:
        raise InvariantViolation(
            f"eigenvalues escape [0,1] beyond tolerance: {max(-low, 0.0):.3e} below 0, "
            f"{max(high - 1.0, 0.0):.3e} above 1"
        )
    return np.clip(values, 0.0, 1.0)


def build_acceptance_operator(circuit: VerifierCircuit, x: str = "") -> AcceptanceOperator:
    """Dense acceptance operator of the circuit on input x."""
    ve = embedded_witness_matrix(circuit, x)
    half = ve.shape[0] // 2
    top, block = ve[:half], ve[half:]  # U: the rows with the output qubit at |1>
    np.conjugate(block, out=top)  # conj(U) into the unused rows: U is never copied
    mat = top.T @ block
    del ve, top, block  # the embed is freed before the Hermitian check allocates
    return AcceptanceOperator(mat, circuit.num_witness)


def at_least(values, a: float):
    """values >= a under the tie rule: within TIE_TOL below a counts as at a."""
    return values >= a - TIE_TOL


def at_most(values, a: float):
    """values <= a under the tie rule: within TIE_TOL above a counts as at a."""
    return values <= a + TIE_TOL


def check_promise(c: float, s: float) -> None:
    """Reject thresholds outside the promise 0 <= s < c <= 1."""
    if not 0.0 <= s < c <= 1.0:
        raise PreconditionError(f"need 0 <= s < c <= 1, got c={c}, s={s}")


def trace_normalized(op: AcceptanceOperator) -> float:
    """Trace divided by 2**w; always in [0, 1]."""
    return min(1.0, max(0.0, op.trace / op.dim))


def accept_probability(circuit: VerifierCircuit, basis: int) -> float:
    """Probability the output qubit reads 1 on a basis state; on |0^a x y>, y's diagonal entry.

    Simulates the circuit's output cone, the gates in qubit 0's backward
    light cone, once on the basis state; the gates outside it cancel in
    V' P V.  So it stays available for circuits too wide for the dense
    operator build, and it costs a statevector over the qubits the cone
    puts into superposition, not over all of them.
    """
    state = simulate(circuit.output_cone(), basis)
    half = state.shape[0] // 2
    p = float(np.real(np.vdot(state[half:], state[half:])))
    return min(1.0, max(0.0, p))


def dqc1_ancilla_bound(num_witness: int) -> int:
    """Largest ancilla count the one-clean-qubit regime tolerates."""
    m = max(num_witness, 2)
    return (m - 1).bit_length() + 2


def validate_dqc1(circuit: VerifierCircuit) -> bool:
    """Whether the circuit qualifies for the no-input, few-ancilla regime."""
    if circuit.num_input != 0:
        return False
    return circuit.num_ancilla <= dqc1_ancilla_bound(circuit.num_witness)


@dataclass(frozen=True)
class SpectralCount:
    """The exact counting interval [N_geq_c, N_geq_s] of a spectrum at (c, s)."""

    c: float
    s: float
    n_geq_c: int
    n_geq_s: int
    n_interval: int  # values in the closed band [s, c]

    @classmethod
    def of(cls, values: np.ndarray, c: float, s: float) -> "SpectralCount":
        """Counts of a descending spectrum (eigenvalues or singular values) by the tie rule."""
        check_promise(c, s)
        geq_s = at_least(values, s)
        return cls(
            c=c,
            s=s,
            n_geq_c=int(np.count_nonzero(at_least(values, c))),
            n_geq_s=int(np.count_nonzero(geq_s)),
            n_interval=int(np.count_nonzero(geq_s & at_most(values, c))),
        )
