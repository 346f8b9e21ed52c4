"""Random verifier-circuit ensembles shared across the test modules.

Every generator takes an explicit numpy Generator so the ensembles are
frozen by the seeds in the test files, never by import order.
"""

import numpy as np

from qcount import VerifierCircuit, build_acceptance_operator, trace_normalized
from qcount.circuit import (
    _GAUSS_INT_MAX_H,
    Gate,
    _apply_gate,
    _gauss_times_i,
    _parse_bits,
    _times_i,
    _witness_blocks,
    basis_index,
)

FLIP_OUTPUT = (Gate("H", (0,)), Gate("S", (0,)), Gate("S", (0,)), Gate("H", (0,)))

H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
S2 = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=np.complex128)


def one_qubit_matrix(u, qubit, num_qubits):
    # qubit 0 is the most significant kron factor
    mat = np.eye(1, dtype=np.complex128)
    for pos in range(num_qubits):
        mat = np.kron(mat, u if pos == qubit else np.eye(2, dtype=np.complex128))
    return mat


def toffoli_matrix(qubits, num_qubits):
    c1, c2, t = qubits
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        bits = [(col >> (num_qubits - 1 - pos)) & 1 for pos in range(num_qubits)]
        if bits[c1] and bits[c2]:
            bits[t] ^= 1
        row = 0
        for b in bits:
            row = (row << 1) | b
        mat[row, col] = 1.0
    return mat


def gate_matrix(gate, num_qubits):
    if gate.kind == "TOF":
        return toffoli_matrix(gate.qubits, num_qubits)
    return one_qubit_matrix(H2 if gate.kind == "H" else S2, gate.qubits[0], num_qubits)


def kron_unitary(circuit):
    """Reference unitary built gate by gate from explicit kron products.

    It shares no code with the package's gate kernel, so it is the
    independent check of `simulate` and the embedded witness matrix.
    """
    q = circuit.num_qubits
    mat = np.eye(1 << q, dtype=np.complex128)
    for gate in circuit.gates:
        mat = gate_matrix(gate, q) @ mat
    return mat


def final_scale(r, odd_h_root=True):
    """2**-(r // 2), times 1/sqrt(2) for odd r unless odd_h_root is False."""
    return 2.0 ** -(r // 2) * (1.0 / np.sqrt(2.0) if r % 2 and odd_h_root else 1.0)


def full_run(view, gates, *, odd_h_root=True, sub=np.subtract, times_i=_times_i):
    """Every gate of the package's kernel on all of a (2,)*Q + (m, ...) view, zeros included.

    A float or complex view is rescaled as the package documents: 2**-32
    every 64 H, and final_scale of the r left at the end.  Integer rings
    run exact counts.
    """
    rescale = view.dtype.kind in "fc"
    r = 0
    for gate in gates:
        _apply_gate(view, gate.kind, gate.qubits, sub, times_i)
        r += gate.kind == "H"
        if rescale and r == 64:
            view *= 2.0**-32
            r = 0
    if rescale:
        scale = final_scale(r, odd_h_root)
        if scale != 1.0:
            view *= scale


def full_witness_matrix(circuit, x, *, tail=(), dtype=np.complex128, **run):
    """The full-row oracle: the circuit on every |0^a x y>, as a (2**Q, 2**w) + tail array.

    Column y starts with its 1 in the first tail cell of row |0^a x y>;
    `run` goes to full_run.
    """
    q, w = circuit.num_qubits, circuit.num_witness
    mat = np.zeros((1 << q, 1 << w) + tail, dtype)
    cols = np.arange(1 << w)
    rows = basis_index(circuit, _parse_bits(x, circuit.num_input, "x"), cols)
    mat.reshape(1 << q, 1 << w, -1)[rows, cols, 0] = 1
    full_run(mat.reshape((2,) * q + mat.shape[1:]), circuit.gates, **run)
    return mat


def full_embed(circuit, x, *, odd_h_root=True):
    """The full-row oracle in the embed's ring, as a complex (2**Q, 2**w) array.

    The Gaussian ring on (real, imag) planes: int32 counts scaled once as
    float64 while the circuit has at most _GAUSS_INT_MAX_H H, float64
    planes rescaled by full_run past that.
    """
    h = circuit.h_count
    exact = h <= _GAUSS_INT_MAX_H
    planes = full_witness_matrix(
        circuit,
        x,
        tail=(2,),
        dtype=np.int32 if exact else np.float64,
        odd_h_root=odd_h_root,
        times_i=_gauss_times_i,
    )
    if exact:
        planes = planes * final_scale(h, odd_h_root)
    return planes.view(np.complex128)[..., 0]


def compact_rows(circuit, x, *, odd_h_root=True):
    """The compact embed over all 2**s rows, rejected ones too: (layout, complex (2**s, 2**w)).

    Assembled from the package's `_witness_blocks` in the embed's ring:
    int32 planes while the circuit has at most _GAUSS_INT_MAX_H H, float64
    past that, scaled once as float64 by final_scale.  The package's embed
    keeps the bottom half, the rows with the output qubit at 1.
    """
    h = circuit.h_count
    dtype = np.int32 if h <= _GAUSS_INT_MAX_H else np.float64
    layout, blocks = _witness_blocks(circuit, x, (2,), dtype, np.subtract, _gauss_times_i)
    mat = np.empty((1 << len(layout.rows),) + (2,) * circuit.num_witness + (2,))
    for index, block in blocks:
        mat[index] = block
    scale = final_scale(h % 64, odd_h_root)
    if scale != 1.0:
        mat *= scale
    return layout, mat.view(np.complex128).reshape(mat.shape[0], -1)


def accepted_matrix(embed, h):
    """A WitnessEmbed of an h-H circuit as compact_rows scales it without the odd-h root.

    The accepted planes times final_scale(h % 64, odd_h_root=False), as a
    complex (2**(s-1), 2**w) matrix.
    """
    return (embed.planes * final_scale(h % 64, odd_h_root=False)).view(np.complex128)[..., 0]


def full_rows(circuit, x, *, odd_h_root=True):
    """compact_rows scattered into the (2**Q, 2**w) full-row layout, zeros elsewhere."""
    layout, compact = compact_rows(circuit, x, odd_h_root=odd_h_root)
    q, w = circuit.num_qubits, circuit.num_witness
    j = np.arange(1 << w)
    base = np.full(1 << w, layout.constant)
    for i, t in enumerate(layout.diagonal):
        base |= ((j >> (w - 1 - i)) & 1) << (q - 1 - t)
    r = np.arange(compact.shape[0])
    offset = np.zeros_like(r)
    for i, t in enumerate(layout.rows):
        offset |= ((r >> (len(layout.rows) - 1 - i)) & 1) << (q - 1 - t)
    full = np.zeros((1 << q, 1 << w), compact.dtype)
    full[offset[:, None] | base[None, :], layout.order[None, :]] = compact
    return full


def dense_matrix(op):
    """An AcceptanceOperator's blocks assembled into the dense 2**w x 2**w matrix, in witness order."""
    count, m, _ = op.blocks.shape
    cols = op.order.reshape(count, m)
    mat = np.zeros((op.dim, op.dim), np.complex128)
    mat[cols[:, :, np.newaxis], cols[:, np.newaxis, :]] = op.blocks
    return mat


def random_circuit(rng, num_ancilla=1, num_input=0, num_witness=2, gate_count=12):
    """One random circuit over the core gate set, H-heavy so spectra spread."""
    total = num_ancilla + num_input + num_witness
    kinds = ["H", "H", "S"] + (["TOF"] if total >= 3 else [])
    gates = []
    for _ in range(gate_count):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "TOF":
            qubits = tuple(int(q) for q in rng.choice(total, size=3, replace=False))
        else:
            qubits = (int(rng.integers(0, total)),)
        gates.append(Gate(kind, qubits))
    return VerifierCircuit(num_ancilla, num_input, num_witness, tuple(gates))


def random_shape(rng, max_ancilla=3, max_input=2, max_witness=4, max_gates=30):
    return dict(
        num_ancilla=int(rng.integers(1, max_ancilla + 1)),
        num_input=int(rng.integers(0, max_input + 1)),
        num_witness=int(rng.integers(0, max_witness + 1)),
        gate_count=int(rng.integers(1, max_gates + 1)),
    )


def random_input(rng, circuit):
    n = circuit.num_input
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=n)) if n else ""


def ensemble(seed, count, **shape_kw):
    """`count` circuits of varied shape, each paired with a random input."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        circ = random_circuit(rng, **random_shape(rng, **shape_kw))
        out.append((circ, random_input(rng, circ)))
    return out


def flip_output(circuit):
    """Append X on the output qubit: eigenvalues map to 1 - eigenvalue."""
    return VerifierCircuit(
        circuit.num_ancilla,
        circuit.num_input,
        circuit.num_witness,
        circuit.gates + FLIP_OUTPUT,
    )


def promise_instances(seed, count_each, c=2.0 / 3.0, s=1.0 / 3.0, num_witness=2):
    """(circuit, x, truth) triples with normalized trace outside (s, c).

    NO instances come from rejection sampling; each YES instance is a NO
    instance with the output qubit flipped, which maps the normalized
    trace p to 1 - p.
    """
    rng = np.random.default_rng(seed)
    yes, no = [], []
    while len(no) < count_each or len(yes) < count_each:
        circ = random_circuit(
            rng,
            num_witness=num_witness,
            gate_count=int(rng.integers(2, 20)),
        )
        p = trace_normalized(build_acceptance_operator(circ))
        if p <= s and len(no) < count_each:
            no.append((circ, "", "NO"))
            if len(yes) < count_each:
                yes.append((flip_output(circ), "", "YES"))
        elif p >= c and len(yes) < count_each:
            yes.append((circ, "", "YES"))
    return yes + no


def gapped_circuit(rng, lo, hi, num_witness=2, max_tries=500):
    """A circuit with no acceptance eigenvalue inside the open band (lo, hi)."""
    for _ in range(max_tries):
        circ = random_circuit(
            rng,
            num_witness=num_witness,
            gate_count=int(rng.integers(2, 20)),
        )
        eigs = build_acceptance_operator(circ).eigenvalues
        if not np.any((eigs > lo) & (eigs < hi)):
            return circ
    raise RuntimeError(f"no ({lo}, {hi})-gapped circuit found in {max_tries} tries")


def thresholds_from_sigma_gap(sigmas, min_half_width=0.05, shrink=0.8):
    """(c, s) singular-value thresholds centred in the widest spectral gap.

    Returns None when no gap inside (0, 1) leaves a half-width of at
    least `min_half_width` after shrinking away from the edges.
    """
    points = np.unique(np.concatenate(([0.0, 1.0], np.clip(sigmas, 0.0, 1.0))))
    best = None
    for lo, hi in zip(points[:-1], points[1:]):
        if best is None or hi - lo > best[1] - best[0]:
            best = (float(lo), float(hi))
    lo, hi = best
    t = (lo + hi) / 2.0
    delta = shrink * (hi - lo) / 2.0
    delta = min(delta, t - 1e-3, 1.0 - t - 1e-3)
    if delta < min_half_width:
        return None
    return t + delta, t - delta


def certificate_misses(poly, points=2_000_001):
    """Points of a dense sample where a RectanglePolynomial leaves its certified report bounds.

    The sample is the Chebyshev-Lobatto points cos(pi j / N), j = 0..N with
    N = points - 1, evaluated by one DCT-I (a real FFT of the zero-padded
    coefficients); every 1000th value is checked against the package's own
    Clenshaw evaluation.
    """
    n = points - 1
    xs = np.cos(np.pi / n * np.arange(points))
    padded = np.zeros(2 * n)
    padded[: poly.coefficients.size] = poly.coefficients
    vals = np.fft.rfft(padded)[:points].real
    assert np.max(np.abs(vals[::1000] - poly(xs[::1000]))) <= 1e-12
    rep = poly.report
    outer = vals[np.abs(xs) >= poly.t + poly.delta]
    inner = vals[np.abs(xs) <= poly.t - poly.delta]
    return int(
        np.count_nonzero(np.abs(vals) > rep["max_abs"])
        + np.count_nonzero(outer < rep["outer_min"])
        + np.count_nonzero(inner > rep["inner_max"])
        + np.count_nonzero(inner < rep["inner_min"])
    )
