"""Parser and simulator checks against an independent kron-product oracle."""

import tracemalloc

import numpy as np
import pytest
import qcount.circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from circgen import ensemble, random_circuit
from qcount.circuit import (
    Gate,
    VerifierCircuit,
    apply_gate,
    basis_string,
    circuit_hash,
    circuit_unitary,
    embedded_witness_matrix,
    load_circuit,
    parse_circuit,
    simulate,
)
from qcount.errors import CapExceeded, CircuitFormatError, PreconditionError

H2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
S2 = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=np.complex128)
X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


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


def kron_unitary(circuit):
    """Reference unitary built gate by gate from explicit kron products."""
    q = circuit.num_qubits
    mat = np.eye(1 << q, dtype=np.complex128)
    for gate in circuit.gates:
        if gate.kind == "H":
            g = one_qubit_matrix(H2, gate.qubits[0], q)
        elif gate.kind == "S":
            g = one_qubit_matrix(S2, gate.qubits[0], q)
        else:
            g = toffoli_matrix(gate.qubits, q)
        mat = g @ mat
    return mat


HEADER = "registers: ancilla=1 input=0 witness=1\n"


def test_x_sugar_expands_to_hssh():
    circ = parse_circuit(HEADER + "X 0\n")
    assert [g.kind for g in circ.gates] == ["H", "S", "S", "H"]
    assert all(g.qubits == (0,) for g in circ.gates)
    assert circ.gate_count == 4
    assert circ.h_count == 2


@pytest.mark.parametrize(
    "mnemonic,target",
    [("X", X2), ("Z", Z2), ("SDG", S2.conj().T)],
)
def test_sugar_matrices(mnemonic, target):
    circ = parse_circuit(f"registers: ancilla=1 input=0 witness=0\n{mnemonic} 0\n")
    assert np.allclose(kron_unitary(circ), target, atol=1e-12)
    assert np.allclose(circuit_unitary(circ), target, atol=1e-12)


def test_unitary_matches_kron_oracle():
    for circ, _ in ensemble(101, 30, max_ancilla=2, max_input=1, max_witness=2):
        assert np.allclose(circuit_unitary(circ), kron_unitary(circ), atol=1e-12)


def test_unitarity():
    for circ, _ in ensemble(102, 15, max_ancilla=2, max_input=1, max_witness=2):
        u = circuit_unitary(circ)
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)


def test_simulate_is_unitary_column():
    rng = np.random.default_rng(103)
    for _ in range(10):
        circ = random_circuit(rng, num_ancilla=1, num_witness=2, gate_count=15)
        u = kron_unitary(circ)
        q = circ.num_qubits
        basis = format(int(rng.integers(0, 1 << q)), f"0{q}b")
        assert np.allclose(simulate(circ, basis), u[:, int(basis, 2)], atol=1e-12)


def test_simulate_norm_is_one():
    rng = np.random.default_rng(104)
    circ = random_circuit(rng, num_ancilla=2, num_witness=3, gate_count=40)
    state = simulate(circ, "0" * circ.num_qubits)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_embedded_witness_matrix_columns():
    rng = np.random.default_rng(105)
    circ = random_circuit(rng, num_ancilla=1, num_input=1, num_witness=2, gate_count=12)
    mat = embedded_witness_matrix(circ, "1")
    assert mat.shape == (1 << circ.num_qubits, 4)
    for y in range(4):
        basis = basis_string(circ, "1", format(y, "02b"))
        assert np.allclose(mat[:, y], simulate(circ, basis), atol=1e-12)


def test_embedded_witness_matrix_gates_in_place():
    # tracemalloc sees numpy buffers; a gate that returned a fresh array
    # would hold two full-size copies at once
    q = 10
    gates = []
    for k in range(q):
        gates += [Gate("H", (k,)), Gate("S", (k,))]
        gates.append(Gate("TOF", ((k + 1) % q, (k + 2) % q, k)))
    circ = VerifierCircuit(2, 0, 8, tuple(gates))
    tracemalloc.start()
    try:
        mat = embedded_witness_matrix(circ, "")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * mat.nbytes


def test_embed_allocates_no_identity_temporary():
    # a dense 2**w x 2**w identity would add 8 MiB at w=10; what remains
    # is the reused column block plus the kernel's half-block temporaries
    q = 12
    gates = []
    for k in range(q):
        gates += [Gate("H", (k,)), Gate("S", (k,))]
        gates.append(Gate("TOF", ((k + 1) % q, (k + 2) % q, k)))
    circ = VerifierCircuit(2, 0, 10, tuple(gates))
    tracemalloc.start()
    try:
        mat = embedded_witness_matrix(circ, "")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - mat.nbytes <= 2 * qcount.circuit._BLOCK_BYTES


def test_blocked_kernel_is_bit_identical(monkeypatch):
    # a 16 KiB block holds 64 of the 256 rows x 128 columns: two blocks
    rng = np.random.default_rng(108)
    circ = random_circuit(rng, num_ancilla=1, num_witness=7, gate_count=150)
    unblocked = embedded_witness_matrix(circ, "")
    monkeypatch.setattr(qcount.circuit, "_BLOCK_BYTES", 16 * 256 * 64)
    assert np.array_equal(embedded_witness_matrix(circ, ""), unblocked)
    monkeypatch.setattr(qcount.circuit, "_BLOCK_BYTES", 16 * 256 * 48)  # ragged last block
    assert np.array_equal(embedded_witness_matrix(circ, ""), unblocked)


# without the rescale every 64 H, h = 2101 would overflow at 2**1050
@pytest.mark.parametrize("h", [1, 3, 63, 64, 65, 131, 2101])
def test_unnormalized_h_rescales_exactly(h):
    rng = np.random.default_rng(109 + h)
    gates = [Gate("H", (int(q),)) for q in rng.integers(0, 3, size=h)]
    gates += [Gate("S", (1,)), Gate("TOF", (0, 2, 1)), Gate("S", (2,))]
    rng.shuffle(gates)
    circ = VerifierCircuit(1, 0, 2, tuple(gates))
    assert circ.h_count == h
    u = circuit_unitary(circ)
    assert np.allclose(u, kron_unitary(circ), atol=1e-12)
    assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)
    for col in range(8):
        assert np.allclose(simulate(circ, format(col, "03b")), u[:, col], atol=1e-12)


def test_even_h_embedding_is_exactly_dyadic():
    rng = np.random.default_rng(110)
    checked = 0
    for _ in range(12):
        circ = random_circuit(rng, num_ancilla=2, num_witness=4, gate_count=160)
        if circ.h_count % 2:
            continue
        scaled = embedded_witness_matrix(circ, "") * 2.0 ** (circ.h_count // 2)
        assert np.array_equal(scaled, np.round(scaled.real) + 1j * np.round(scaled.imag))
        checked += 1
    assert checked


def test_apply_gate_matches_kron():
    rng = np.random.default_rng(106)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    for gate in (Gate("H", (1,)), Gate("S", (2,)), Gate("TOF", (0, 2, 1))):
        if gate.kind == "H":
            ref = one_qubit_matrix(H2, gate.qubits[0], 3)
        elif gate.kind == "S":
            ref = one_qubit_matrix(S2, gate.qubits[0], 3)
        else:
            ref = toffoli_matrix(gate.qubits, 3)
        before = state.copy()
        assert np.allclose(apply_gate(state, gate), ref @ state, atol=1e-12)
        assert np.array_equal(state, before)


def test_round_trip_through_qcv():
    for circ, _ in ensemble(107, 10):
        assert parse_circuit(circ.to_qcv()) == circ


def test_hash_is_stable_and_content_sensitive():
    circ = parse_circuit(HEADER + "H 0\n")
    assert circuit_hash(circ) == circuit_hash(parse_circuit(HEADER + "H 0\n"))
    assert circuit_hash(circ) != circuit_hash(parse_circuit(HEADER + "H 1\n"))


def test_parse_accepts_comments_blanks_and_case():
    text = (
        "# leading comment\n"
        "registers: ancilla=1 input=0 witness=2\n"
        "\n"
        "h 0  # trailing comment\n"
        "tof 0 1 2\n"
    )
    circ = parse_circuit(text)
    assert [g.kind for g in circ.gates] == ["H", "TOF"]


_MALFORMED = [  # (text, number of the offending line)
    ("H 0\n", 1),  # no header
    ("registers: ancilla=0 input=0 witness=1\nH 0\n", 1),  # needs one ancilla
    ("registers: ancilla=1 input=0 witness=1\nCNOT 0 1\n", 2),  # unknown gate
    ("registers: ancilla=1 input=0 witness=1\nH 5\n", 2),  # qubit out of range
    ("registers: ancilla=1 input=0 witness=1\nH 0 1\n", 2),  # wrong arity
    ("registers: ancilla=1 input=0 witness=1\nX 0 1\n", 2),  # wrong sugar arity
    ("registers: ancilla=1 input=0 witness=2\nTOF 0 0 1\n", 2),  # repeated qubit
    ("registers: ancilla=1 input=0 witness=1\nH x\n", 2),  # non-integer qubit
    ("registers: ancilla=1 witness=1\nH 0\n", 1),  # missing register field
]


@pytest.mark.parametrize(
    "text, line", [pytest.param(text, line, id=text) for text, line in _MALFORMED]
)
def test_parse_rejects_malformed_text(text, line):
    with pytest.raises(CircuitFormatError, match=f"^line {line} "):
        parse_circuit(text)


def test_parse_error_carries_line_number():
    with pytest.raises(CircuitFormatError, match="line 3"):
        parse_circuit("registers: ancilla=1 input=0 witness=1\nH 0\nBAD 0\n")


def test_load_circuit_missing_file():
    with pytest.raises(PreconditionError):
        load_circuit("/nonexistent/file.qcv")


def test_gate_validation():
    with pytest.raises(PreconditionError):
        Gate("CNOT", (0, 1))
    with pytest.raises(PreconditionError):
        Gate("H", (0, 1))
    with pytest.raises(PreconditionError):
        Gate("TOF", (0, 1, 1))


def test_circuit_validation():
    with pytest.raises(PreconditionError):
        VerifierCircuit(0, 0, 1, (Gate("H", (0,)),))
    with pytest.raises(PreconditionError):
        VerifierCircuit(1, 0, 1, (Gate("H", (2,)),))


def test_simulation_cap():
    big = VerifierCircuit(1, 0, 20, ())
    with pytest.raises(CapExceeded):
        simulate(big, "0" * 21)
    dense = VerifierCircuit(1, 0, 14, ())
    with pytest.raises(CapExceeded):
        circuit_unitary(dense)


def test_dense_cap_env_override(monkeypatch):
    monkeypatch.setenv("QCOUNT_DENSE_CAP", "4")
    small = VerifierCircuit(1, 0, 4, ())
    with pytest.raises(CapExceeded):
        circuit_unitary(small)
    monkeypatch.setenv("QCOUNT_DENSE_CAP", "5")
    assert circuit_unitary(small).shape == (32, 32)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_sequences_match_kron(data):
    num_qubits = data.draw(st.integers(min_value=1, max_value=3))
    gates = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        if num_qubits >= 3 and data.draw(st.booleans()):
            qs = data.draw(
                st.permutations(range(num_qubits)).map(lambda p: tuple(p[:3]))
            )
            gates.append(Gate("TOF", qs))
        else:
            kind = data.draw(st.sampled_from(["H", "S"]))
            gates.append(Gate(kind, (data.draw(st.integers(0, num_qubits - 1)),)))
    circ = VerifierCircuit(1, 0, num_qubits - 1, tuple(gates))
    assert np.allclose(circuit_unitary(circ), kron_unitary(circ), atol=1e-12)
