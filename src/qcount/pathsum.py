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

free bits, where Q = a + n + w and the a + n endpoint bits are pinned
by the ancilla zeros and the classical input.  Writing g and f for the
number of paths whose element product is +1 and -1,

    Tr = (g - f) / 2**h,

with the +i and -i path counts cancelling exactly.  Phases are tracked
as integers mod 4, so g, f and the cancellation check are exact.

Uniformly sampling paths instead of enumerating them gives an unbiased
estimator with normalization u = 2**(N* - h) and the Hoeffding tail
Pr(|est - Tr| >= eps * u) <= 2 exp(-S eps^2 / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Gate, VerifierCircuit, _bitpos, _parse_bits
from .errors import CapExceeded, InvariantViolation, PreconditionError
from .limits import PATH_BIT_CAP, check_draws, dense_qubit_cap
from .rngstreams import stream, uniform_indices
from .estimators import AdditiveEstimate
from .spectral import AUDIT_SLACK, build_acceptance_operator

_CHUNK = 1 << 16


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


def _elem(gate: Gate, num_qubits: int, rows: np.ndarray, cols: np.ndarray):
    """Vectorized <row|q|col> for the rescaled gate, as (nonzero, phase mod 4)."""
    if gate.kind == "H":
        bp = _bitpos(num_qubits, gate.qubits[0])
        others = ((1 << num_qubits) - 1) ^ (1 << bp)
        nonzero = ((rows ^ cols) & others) == 0
        phase = 2 * (((rows >> bp) & 1) * ((cols >> bp) & 1))
        return nonzero, phase
    if gate.kind == "S":
        bp = _bitpos(num_qubits, gate.qubits[0])
        nonzero = rows == cols
        phase = (cols >> bp) & 1
        return nonzero, phase
    c1, c2, t = gate.qubits
    b1, b2, bt = (_bitpos(num_qubits, q) for q in (c1, c2, t))
    ctrl = ((cols >> b1) & 1) & ((cols >> b2) & 1)
    nonzero = rows == (cols ^ (ctrl << bt))
    return nonzero, np.zeros_like(rows)


def _term_phases(
    circuit: VerifierCircuit,
    x_val: int,
    y: np.ndarray,
    v: np.ndarray,
    z_slots: list[np.ndarray],
):
    """(nonzero, phase mod 4) of the element product along each path."""
    q = circuit.num_qubits
    w = circuit.num_witness
    t = circuit.gate_count
    endpoint = (x_val << w) | y
    projected = (1 << (q - 1)) | v
    backward = [endpoint, *z_slots[: t - 1], projected]
    forward = [projected, *z_slots[t - 1 :], endpoint]
    nonzero = np.ones(y.shape, dtype=bool)
    phase = np.zeros(y.shape, dtype=np.int64)
    for m in range(1, t + 1):
        # <B_{m-1}| q_m^dag |B_m> conjugates, hence the negated phase
        nz, ph = _elem(circuit.gates[m - 1], q, backward[m], backward[m - 1])
        nonzero &= nz
        phase -= ph
        nz, ph = _elem(circuit.gates[t - m], q, forward[m - 1], forward[m])
        nonzero &= nz
        phase += ph
    return nonzero, phase % 4


def _decode_paths(circuit: VerifierCircuit, ids: np.ndarray):
    q = circuit.num_qubits
    w = circuit.num_witness
    t = circuit.gate_count
    y = ids & ((1 << w) - 1)
    v = (ids >> w) & ((1 << (q - 1)) - 1)
    z_slots = [
        (ids >> (w + (q - 1) + j * q)) & ((1 << q) - 1) for j in range(2 * (t - 1))
    ]
    return y, v, z_slots


def path_sum_exact(circuit: VerifierCircuit, x: str = "") -> PathSumResult:
    """Enumerate every path and tally the product signs exactly.

    The trace is also compared against the dense spectral oracle whenever
    the circuit fits under the dense cap; a mismatch is an invariant
    violation, not a report.
    """
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    n_star = free_path_bits(circuit)
    if n_star > PATH_BIT_CAP:
        raise CapExceeded(
            f"{n_star} free path bits exceed the {PATH_BIT_CAP}-bit enumeration cap"
        )
    total = 1 << n_star
    g = f = i_plus = i_minus = 0
    for start in range(0, total, _CHUNK):
        ids = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        y, v, z_slots = _decode_paths(circuit, ids)
        nonzero, phase = _term_phases(circuit, x_val, y, v, z_slots)
        g += int(np.count_nonzero(nonzero & (phase == 0)))
        f += int(np.count_nonzero(nonzero & (phase == 2)))
        i_plus += int(np.count_nonzero(nonzero & (phase == 1)))
        i_minus += int(np.count_nonzero(nonzero & (phase == 3)))
    if i_plus != i_minus:
        raise InvariantViolation(
            f"imaginary path contributions fail to cancel: {i_plus} vs {i_minus}"
        )
    trace = (g - f) / float(1 << circuit.h_count)
    if circuit.num_qubits <= dense_qubit_cap():
        exact = build_acceptance_operator(circuit, x).trace
        if abs(trace - exact) > AUDIT_SLACK:
            raise InvariantViolation(
                f"path sum {trace} disagrees with spectral trace {exact}"
            )
    return PathSumResult(
        g=g,
        f=f,
        h=circuit.h_count,
        n_star=n_star,
        trace=trace,
        i_plus=i_plus,
        i_minus=i_minus,
    )


def _sampled_real_parts(
    circuit: VerifierCircuit, x_val: int, rng: np.random.Generator, samples: int
) -> np.ndarray:
    """Real part (in {-1, 0, +1}) of the path product for uniform paths.

    Slot j of a sample is drawn from the generator's uniform at position
    j * samples + i, one word per slot, so the layout is fixed by
    (seed, samples) alone.
    """
    q = circuit.num_qubits
    w = circuit.num_witness
    t = circuit.gate_count
    y = uniform_indices(rng, 1 << w, samples)
    v = uniform_indices(rng, 1 << (q - 1), samples)
    z_slots = [uniform_indices(rng, 1 << q, samples) for _ in range(2 * (t - 1))]
    nonzero, phase = _term_phases(circuit, x_val, y, v, z_slots)
    return np.where(nonzero, (phase == 0).astype(np.int64) - (phase == 2), 0)


def path_sum_estimator(
    circuit: VerifierCircuit,
    x: str = "",
    samples: int = 1024,
    seed: int = 0,
    *,
    epsilon: float | None = None,
) -> AdditiveEstimate:
    """Trace estimate from uniformly sampled paths, normalization 2**(N*-h)."""
    if samples < 1:
        raise PreconditionError(f"sample count must be >= 1, got {samples}")
    check_draws(samples * 2 * circuit.gate_count, f"{samples}-sample path estimate")  # y, v, 2(T-1)
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    n_star = free_path_bits(circuit)
    scale_bits = n_star - circuit.h_count
    if scale_bits > 1000:
        raise CapExceeded(
            f"normalization 2**{scale_bits} overflows doubles; circuit too deep"
        )
    if epsilon is None:
        # default is the eps whose two-sided Hoeffding bound equals 1/4
        epsilon = float(np.sqrt(2.0 * np.log(8.0) / samples))
    elif not np.isfinite(epsilon):
        raise PreconditionError(f"epsilon must be finite, got {epsilon}")
    elif samples * epsilon * epsilon <= 2.0 * np.log(2.0):
        raise PreconditionError(
            f"epsilon={epsilon} is unattainable at {samples} samples: the "
            f"Hoeffding bound 2 exp(-S eps^2 / 2) would reach 1"
        )
    delta = float(2.0 * np.exp(-samples * epsilon * epsilon / 2.0))
    reals = _sampled_real_parts(circuit, x_val, stream(seed), samples)
    normalization = float(2.0 ** scale_bits)
    value = normalization * (int(reals.sum()) / samples)
    return AdditiveEstimate(
        value=value,
        normalization=normalization,
        epsilon=epsilon,
        delta=delta,
        samples=samples,
        seed=seed,
    )
