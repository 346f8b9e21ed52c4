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
witness matrix, eigendecomposed once and cached.  Only the output cone
is embedded, as the other gates cancel in V' P V, and only over the rows
it can reach: the compact embed of `circuit` stores the qubits the cone
puts into superposition, and holds every other qubit as a bit of its
column.  A witness qubit that stays diagonal, never put into
superposition, ends in a basis state that is a function of the column,
so A has no entry between columns that differ there: over the k such
qubits A is 2**k diagonal blocks of size 2**(w-k), one per assignment of
their bits.  The operator holds that stack, formed by one batched Gram
product over the compact rows and decomposed by one stacked eigvalsh;
the entries it leaves out are exactly zero.  An odd H count's
final 1/sqrt(2) stays out of the embed and the Gram is halved instead,
so an embed of exact Gaussian integers over a power of two gives an
exact Gram.  It is the one spectral object per (circuit, x) and the block
encoding that svt amplifies; witness_probabilities reads its diagonal
from the same embed, with no Gram.
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

from .circuit import VerifierCircuit, WitnessEmbed, embedded_witness_matrix, simulate
from .errors import InvariantViolation, PreconditionError

HERM_TOL = 1e-9
EIG_CLAMP_TOL = 1e-9
TIE_TOL = 1e-12
AUDIT_SLACK = 1e-9


class AcceptanceOperator:
    """Hermitian PSD matrix on the witness register with spectrum in [0, 1].

    Held as a stack of diagonal blocks: `blocks` is (2**k, m, m) with
    2**k * m = 2**w, and stacked column j (block j // m, row j % m) is
    witness basis state `order[j]`.  The build splits A over the k witness
    qubits that the output cone leaves diagonal: each ends in a basis
    state given by the column, so A has no entry between columns that
    differ there.  Every other entry is a block entry, so the stack holds
    A exactly, and its eigenvalues are those of the blocks.
    A dense 2**w x 2**w matrix is one block in the identity order.

    It is also the block encoding svt amplifies (U'U = A for the output
    block U).  Eigenvalues (one stacked eigvalsh) and U's SVD (one stacked
    eigh of the blocks) are each computed lazily, once, and clamped by
    clamp_to_unit.  Instances are treated as immutable after construction.
    """

    def __init__(self, blocks: np.ndarray, num_witness: int, order: np.ndarray | None = None):
        blocks = np.asarray(blocks, dtype=np.complex128)
        if blocks.ndim == 2:
            blocks = blocks[np.newaxis]
        dim = 1 << num_witness
        shape = blocks.shape
        if len(shape) != 3 or shape[1] != shape[2] or shape[0] * shape[2] != dim:
            raise PreconditionError(
                f"operator for {num_witness} witness qubits must be {dim}x{dim} "
                f"or a stack of square blocks of {dim} columns in all, got {shape}"
            )
        order = np.arange(dim) if order is None else np.asarray(order)
        if not np.array_equal(np.sort(order), np.arange(dim)):
            raise PreconditionError(f"order must be a permutation of the {dim} witness states")
        herm_gap = float(np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1))))
        if herm_gap > HERM_TOL:
            raise PreconditionError(
                f"matrix is not Hermitian within {HERM_TOL} (gap {herm_gap:.3e})"
            )
        self.blocks = blocks
        self.order = order
        self.num_witness = num_witness
        self._eigenvalues: np.ndarray | None = None
        self._svd: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return 1 << self.num_witness

    @property
    def eigenvalues(self) -> np.ndarray:
        """All 2**w eigenvalues, clamped into [0, 1], sorted descending."""
        if self._eigenvalues is None:
            vals = np.linalg.eigvalsh(self.blocks)  # ascending within each block
            self._eigenvalues = clamp_to_unit(np.sort(vals, axis=None))[::-1].copy()
        return self._eigenvalues

    @property
    def singular_values(self) -> np.ndarray:
        """All 2**w singular values of U, descending: sqrt of the eigenvalues."""
        return np.sqrt(self.eigenvalues)

    @property
    def svd(self) -> tuple[np.ndarray, np.ndarray]:
        """(sigma, V) of U per diagonal block, from one stacked eigh of the blocks.

        sigma is (2**k, m) and V is (2**k, m, m): V[b, :, j], over witnesses
        order[b * m : (b + 1) * m], has sigma[b, j], ascending in j.
        """
        if self._svd is None:
            lam, vecs = np.linalg.eigh(self.blocks)
            self._svd = (np.sqrt(clamp_to_unit(lam)), vecs)
        return self._svd

    @property
    def trace(self) -> float:
        """Real part of the trace in witness order, unclamped: the total acceptance weight."""
        diagonal = np.empty(self.dim, np.complex128)
        diagonal[self.order] = np.diagonal(self.blocks, axis1=1, axis2=2).ravel()
        return float(np.real(diagonal.sum()))


def clamp_to_unit(values: np.ndarray) -> np.ndarray:
    """Values within 1e-9 of [0, 1] clamped into it; anything further out fails loudly."""
    low, high = float(values.min()), float(values.max())
    if low < -EIG_CLAMP_TOL or high > 1.0 + EIG_CLAMP_TOL:
        raise InvariantViolation(
            f"values escape [0,1] beyond tolerance: {max(-low, 0.0):.3e} below 0, "
            f"{max(high - 1.0, 0.0):.3e} above 1"
        )
    return np.clip(values, 0.0, 1.0)


def _cone_embed(circuit: VerifierCircuit, x: str) -> tuple[WitnessEmbed, float]:
    """The output cone's compact embed, qubit 0's rows leading, and the factor of its products.

    The other gates cancel in V' P V.  The embed leaves out an odd H
    count's final 1/sqrt(2), so its entries stay exact Gaussian integers
    over a power of two; the factor 1/2 puts it back into a product of two.
    """
    cone = circuit.output_cone()
    return embedded_witness_matrix(cone, x, odd_h_root=False), 0.5 if cone.h_count % 2 else 1.0


def build_acceptance_operator(circuit: VerifierCircuit, x: str = "") -> AcceptanceOperator:
    """Dense acceptance operator of the circuit on input x, one block per diagonal assignment.

    The k witness qubits the cone's embed leaves diagonal lead each column
    index, so the 2**k column groups of m = 2**(w - k) are the blocks.
    """
    embed, factor = _cone_embed(circuit, x)
    ve, order, k = embed.matrix, embed.order, len(embed.diagonal)
    half = ve.shape[0] // 2
    top, block = ve[:half], ve[half:]  # U: the rows with the output qubit at |1>
    np.conjugate(block, out=top)  # conj(U) into the unused rows: U is never copied
    groups = (half, 1 << k, ve.shape[1] >> k)  # column (c, j) is row j of block c
    stack = top.reshape(groups).transpose(1, 2, 0) @ block.reshape(groups).transpose(1, 0, 2)
    del embed, ve, top, block  # the embed is freed before the Hermitian check allocates
    stack *= factor
    return AcceptanceOperator(stack, circuit.num_witness, order)


def witness_probabilities(circuit: VerifierCircuit, x: str = "") -> np.ndarray:
    """Acceptance probability of every witness basis state, in witness order: A's diagonal.

    Each is the squared norm of a cone embed column's output-qubit-1 half,
    with no Gram product: the diagonal's bits wherever the Gram is exact.
    A probability further than 1e-9 outside [0, 1] fails loudly.
    """
    embed, factor = _cone_embed(circuit, x)
    ve = embed.matrix
    accepted = ve[ve.shape[0] // 2 :].view(np.float64).reshape(ve.shape[0] // 2, -1, 2)
    probs = np.empty(ve.shape[1])
    probs[embed.order] = np.einsum("rjc,rjc->j", accepted, accepted) * factor
    return clamp_to_unit(probs)


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
