"""Sign-path expansion of the acceptance-operator trace.

Insert a resolution of the identity between every pair of adjacent
gates on both sides of the output projector and the trace becomes a sum
over discrete paths.  Each gate contributes a matrix element of its
rescaled operator q_i (q_i = g_i for S and Toffoli, sqrt(2) * g_i for
H), and every such element lies in {0, +1, -1, +i, -i}.  A path is the
tuple (y, v, z_1 ... z_{2(T-1)}): the traced witness label y (w bits),
the projected-output label v (Q-1 bits, output fixed at 1), and one
intermediate state per gate boundary on the backward and forward chains
(Q bits each, 2(T-1) slots).  That makes

    N* = w + (Q-1) + 2(T-1) Q = 2 T Q - (a + n + 1)

free bits index the path space, where Q = a + n + w and the a + n
endpoint bits are pinned by the ancilla zeros and the classical input.

A path with a nonzero product is a pair of walks from |0^a x y> through
gates 1..T to the same output-1 state v: H moves its target bit to
either value and adds phase 2 (in powers of i) when both values are 1,
S adds its target bit to the phase, and Toffoli permutes.  The path's
phase is the second walk's minus the first's.  Writing g and f for the
number of paths of phase 0 and 2 mod 4,

    Tr = (g - f) / 2**h,

and the phase-1 and phase-3 counts i+ and i- are equal (swap the walks).

Exact mode counts walks, not paths.  C[v, y, a], the number of walks from
|0^a x y> to v that end with phase i**a, is the gate kernel run over the
group ring Z[Z_4]: int64 tallies with a trailing phase axis, where
negation shifts that axis cyclically by 2 and multiplication by i by 1.
circuit's witness-block run, which also builds the compact embed, yields
C one column block at a time, over only the rows its superposed qubits
span (no walk reaches the others), and each block is contracted as it
comes:
N_k = sum over b - a = k (mod 4) of <C_a, C_b> gives g = N_0, i+ = N_1,
f = N_2 and i- = N_3, exactly.

Sampled mode draws walk pairs: one uniform witness and one uniform branch
per H on each walk.  A pair scores +1 or -1 when both walks end on the
same output-1 state with phase difference 0 or 2, and 0 otherwise, so
the mean score times u = 2**(w + h) is an unbiased trace estimate.  The
walks keep int64 states, uint8 phases and uint8 gate bits, and read
their uniforms chunk by chunk (rngstreams.uniform_chunks), so a sample
costs about 21 bytes however many H the circuit has.  The sampling core
(estimators.additive_template) checks it before the first draw and gives
it the Hoeffding tail of scores in [-1, 1],
Pr(|est - Tr| >= eps * u) <= 2 exp(-S eps^2 / 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuit import VerifierCircuit, _parse_bits, _witness_blocks, basis_index
from .errors import CapExceeded, InvariantViolation, PreconditionError
from .rngstreams import index_chunks, stream, uniform_chunks
from .estimators import AdditiveEstimate, additive_template
from .spectral import AUDIT_SLACK, witness_probabilities

_MAX_H = 62  # an H at most doubles a walk count, so counts stay below 2**h: int64 while h <= 62
_LIMB = 16  # bits per limb: a limb product is below 2**32, so 2**31 of them sum exactly in int64


@dataclass(frozen=True)
class PathSumResult:
    """Exact path tallies: trace = (g - f) / 2**h over 2**n_star paths."""

    g: int
    f: int
    h: int
    n_star: int
    trace: float
    i_plus: int
    i_minus: int


def free_path_bits(circuit: VerifierCircuit) -> int:
    """N*: bits needed to index one path of this circuit."""
    if circuit.gate_count < 1:
        raise PreconditionError("path expansion needs at least one gate")
    q = circuit.num_qubits
    return 2 * circuit.gate_count * q - (circuit.num_ancilla + circuit.num_input + 1)


def _z4_sub(zero: np.ndarray, one: np.ndarray, out: np.ndarray) -> None:
    np.add(zero, one[..., [2, 3, 0, 1]], out=out)  # -b is b with its phase shifted by 2


def _z4_times_i(one: np.ndarray) -> None:
    one[...] = one[..., [3, 0, 1, 2]]  # i b is b with its phase shifted by 1


def _phase_products(blocks) -> np.ndarray:
    """<C_a, C_b> over output-1 states and witnesses, as a 4x4 array of ints.

    `blocks` are the column blocks of C from circuit's witness-block run.
    Each is contracted in 16-bit limbs over its accepted rows and columns:
    2**14 cells in a block of _BLOCK_BYTES, the accepted rows of one
    column once a column outgrows that, and more where column
    permutations widen a block, but fewer than 2**31 in any block that
    fits in memory, so every int64 partial sum is exact.  The limb
    products are added up as Python ints.
    """
    products = np.zeros((4, 4), dtype=object)
    for _, counts in blocks:
        accepted = counts[counts.shape[0] // 2 :].reshape(-1, 4)  # output qubit 0 reads 1
        shifts = range(0, max(1, int(accepted.max()).bit_length()), _LIMB)
        limbs = np.concatenate([(accepted >> s) & ((1 << _LIMB) - 1) for s in shifts], axis=1)
        gram = np.einsum("ri,rj->ij", limbs, limbs).reshape(len(shifts), 4, len(shifts), 4)
        scale = np.array([1 << s for s in shifts], dtype=object)
        products += np.einsum("i,iajb,j->ab", scale, gram.astype(object), scale)
    return products


def path_sum_exact(circuit: VerifierCircuit, x: str = "") -> PathSumResult:
    """Tally every path's phase exactly from walk counts.

    The trace is also compared against the sum of the acceptance
    probabilities read from the dense embed; a mismatch is an invariant
    violation, not a report.
    """
    n_star = free_path_bits(circuit)
    _, blocks = _witness_blocks(circuit, x, (4,), np.int64, _z4_sub, _z4_times_i)
    h = circuit.h_count
    if h > _MAX_H:
        raise CapExceeded(f"{h} H gates exceed the {_MAX_H} at which walk counts fit int64")
    products = _phase_products(blocks)
    g, i_plus, f, i_minus = (sum(products[a, (a + k) % 4] for a in range(4)) for k in range(4))
    trace = (g - f) / float(1 << h)
    exact = float(witness_probabilities(circuit, x).sum())
    if abs(trace - exact) > AUDIT_SLACK:
        raise InvariantViolation(f"path sum {trace} disagrees with spectral trace {exact}")
    return PathSumResult(g, f, h, n_star, trace, i_plus, i_minus)


def _walk_pair_scores(
    circuit: VerifierCircuit, x_val: int, rng: np.random.Generator, samples: int
) -> np.ndarray:
    """Score (in {-1, 0, +1}, int8) of `samples` walk pairs.

    The witness of sample i is the generator's uniform i; the k-th H
    then draws the next 2 * samples uniforms, the first walk's branches
    before the second's, so the layout is fixed by (seed, samples) alone.
    The uniforms are read chunk by chunk, so a sample holds only its two
    int64 walk states, two uint8 phases (mod 4, which uint8 wraparound
    keeps since 4 divides 256) and two uint8 scratch bits, plus its int8
    score at the end.
    """
    q = circuit.num_qubits

    def read_bit(walk: np.ndarray, pos: int, out: np.ndarray) -> None:
        np.right_shift(walk, pos, out=out, casting="unsafe")  # keeps the low 8 bits
        out &= 1

    state = np.empty((2, samples), dtype=np.int64)  # basis index of each walk
    for cols, y in index_chunks(rng, samples, circuit.num_witness):
        state[0, cols] = y
    state[0] |= basis_index(circuit, x_val, 0)
    state[1] = state[0]
    phase = np.zeros((2, samples), dtype=np.uint8)  # powers of i
    bits = np.empty((2, samples), dtype=np.uint8)  # scratch: one gate bit per row
    for gate in circuit.gates:
        *controls, target = (q - 1 - k for k in gate.qubits)  # bit positions
        for walk, walk_phase in zip(state, phase):
            if gate.kind == "H":  # the walk moves to its branch u >= 1/2, i.e. floor(2u)
                read_bit(walk, target, bits[0])
                for cols, u in uniform_chunks(rng, samples):
                    branch = u >= 0.5
                    bit = bits[0, cols]
                    walk_phase[cols] += (bit & branch) << 1
                    bit ^= branch  # now the flip mask: set where the branch differs
            elif gate.kind == "S":
                read_bit(walk, target, bits[0])
                walk_phase += bits[0]
                continue
            else:
                read_bit(walk, controls[0], bits[0])
                read_bit(walk, controls[1], bits[1])
                bits[0] &= bits[1]
            np.bitwise_xor(walk, 1 << target, out=walk, where=bits[0].view(bool))
    same, even = bits
    np.equal(state[0], state[1], out=same.view(bool))
    read_bit(state[0], q - 1, even)  # both walks end on an output-1 state
    same &= even
    diff = phase[1]
    diff -= phase[0]
    diff &= 3
    np.bitwise_and(diff, 1, out=even)
    even ^= 1
    same &= even
    scores = 1 - diff.view(np.int8)  # +1 at phase difference 0, -1 at 2
    scores *= same.view(np.int8)
    return scores


def path_sum_estimator(
    circuit: VerifierCircuit,
    x: str = "",
    samples: int = 1024,
    seed: int = 0,
    *,
    epsilon: float | None = None,
) -> AdditiveEstimate:
    """Trace estimate from sampled walk pairs, normalization 2**(w+h), Hoeffding tail."""
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    if circuit.num_qubits > 63:
        raise CapExceeded(f"{circuit.num_qubits} qubits exceed the 63 of an int64 walk state")
    h = circuit.h_count
    scale_bits = circuit.num_witness + h
    if scale_bits > 1000:
        raise CapExceeded(
            f"normalization 2**{scale_bits} overflows doubles; circuit too deep"
        )
    # one witness, then one branch per H on each of the two walks
    template = additive_template(
        samples, 1 + 2 * h, 2.0**scale_bits, epsilon, 2.0, f"{samples}-sample path estimate"
    )
    scores = _walk_pair_scores(circuit, x_val, stream(seed), samples)
    value = template.normalization * (int(scores.sum()) / samples)
    return replace(template, value=value, seed=seed)
