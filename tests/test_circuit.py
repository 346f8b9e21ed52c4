"""Parser and simulator checks against an independent kron-product oracle."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import qcount.circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from circgen import (
    S2,
    accepted_matrix,
    compact_rows,
    ensemble,
    full_embed,
    full_rows,
    full_run,
    full_witness_matrix,
    gate_matrix,
    kron_unitary,
    random_circuit,
)
from qcount.circuit import (
    Gate,
    VerifierCircuit,
    basis_index,
    circuit_hash,
    embedded_witness_matrix,
    load_circuit,
    parse_circuit,
    simulate,
)
from qcount.errors import CapExceeded, CircuitFormatError, PreconditionError
from qcount.pathsum import _z4_sub, _z4_times_i, path_sum_exact
from qcount.spectral import accept_probability, build_acceptance_operator

X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
R2 = 1.0 / np.sqrt(2.0)


def dense_run(circuit, basis):
    """The gate kernel on the full 2**Q basis vector, every gate on every amplitude."""
    q = circuit.num_qubits
    state = np.zeros(1 << q, dtype=np.complex128)
    state[basis] = 1.0
    full_run(state.reshape((2,) * q + (1,)), circuit.gates)
    return state


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
    for col in range(2):
        assert np.allclose(simulate(circ, col), target[:, col], atol=1e-12)


def test_unitary_matches_kron_oracle():
    for circ, x in ensemble(101, 30, max_ancilla=2, max_input=1, max_witness=2):
        cols = (int(x or "0", 2) << circ.num_witness) + np.arange(1 << circ.num_witness)
        embed = full_rows(circ, x)
        assert np.allclose(embed, kron_unitary(circ)[:, cols], atol=1e-12)


def test_unitarity():
    # the embedded columns of a unitary are orthonormal
    for circ, x in ensemble(102, 15, max_ancilla=2, max_input=1, max_witness=2):
        embed = full_rows(circ, x)
        assert np.allclose(embed.conj().T @ embed, np.eye(embed.shape[1]), atol=1e-12)


def test_simulate_is_unitary_column():
    rng = np.random.default_rng(103)
    for _ in range(10):
        circ = random_circuit(rng, num_ancilla=1, num_witness=2, gate_count=15)
        u = kron_unitary(circ)
        q = circ.num_qubits
        basis = int(rng.integers(0, 1 << q))
        assert np.allclose(simulate(circ, basis), u[:, basis], atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ancilla=st.integers(1, 2),
    inputs=st.integers(0, 1),
    witness=st.integers(0, 3),
    gate_count=st.integers(0, 40),
    data=st.data(),
)
def test_simulate_matches_kron_and_dense_kernel(seed, ancilla, inputs, witness, gate_count, data):
    circ = random_circuit(
        np.random.default_rng(seed),
        num_ancilla=ancilla,
        num_input=inputs,
        num_witness=witness,
        gate_count=gate_count,
    )
    q = circ.num_qubits
    b = data.draw(st.integers(0, (1 << q) - 1))
    state = simulate(circ, b)
    assert np.allclose(state, kron_unitary(circ)[:, b], rtol=0.0, atol=1e-12)
    assert np.array_equal(state, dense_run(circ, b))


# (gates on 3 qubits, basis label, expected amplitudes by basis label)
_CLASSICAL_RULES = {
    "H on a classical 1": ([Gate("H", (1,))], "010", {"000": R2, "010": -R2}),
    "S on a classical 1 is a phase i": (
        [Gate("H", (0,)), Gate("S", (1,))], "010", {"010": 1j * R2, "110": 1j * R2}
    ),
    "S on a classical 0 does nothing": (
        [Gate("H", (0,)), Gate("S", (1,))], "000", {"000": R2, "100": R2}
    ),
    "TOF with a classical control at 0": (
        [Gate("H", (2,)), Gate("S", (2,)), Gate("TOF", (0, 1, 2))],
        "010",
        {"010": R2, "011": 1j * R2},
    ),
    "TOF with classical controls at 1 flips a classical target": (
        [Gate("TOF", (0, 1, 2))], "110", {"111": 1.0}
    ),
    "TOF with classical controls at 1 swaps a superposed target": (
        [Gate("H", (2,)), Gate("S", (2,)), Gate("TOF", (0, 1, 2))],
        "110",
        {"110": 1j * R2, "111": R2},
    ),
    "TOF with a superposed and a classical control": (
        [Gate("H", (0,)), Gate("TOF", (0, 1, 2))], "010", {"010": R2, "111": R2}
    ),
    "TOF with a superposed control and a classical target at 1": (
        [Gate("H", (0,)), Gate("TOF", (1, 0, 2))], "011", {"011": R2, "110": R2}
    ),
    "TOF with a superposed control and a classical control at 0": (
        [Gate("H", (0,)), Gate("TOF", (0, 1, 2))], "000", {"000": R2, "100": R2}
    ),
}


@pytest.mark.parametrize("rule", list(_CLASSICAL_RULES))
def test_simulate_classical_rules(rule):
    gates, label, amplitudes = _CLASSICAL_RULES[rule]
    circ = VerifierCircuit(1, 0, 2, tuple(gates))
    basis = int(label, 2)
    expected = np.zeros(8, dtype=np.complex128)
    for out, amp in amplitudes.items():
        expected[int(out, 2)] = amp
    state = simulate(circ, basis)
    assert np.allclose(state, expected, rtol=0.0, atol=1e-15)
    assert np.allclose(state, kron_unitary(circ)[:, basis], rtol=0.0, atol=1e-15)
    assert np.array_equal(state, dense_run(circ, basis))


def test_output_cone_drops_unlinked_gates():
    # backward from qubit 0: S 3 and H 1 come after their qubits' last link
    gates = (Gate("H", (3,)), Gate("TOF", (1, 2, 0)), Gate("H", (1,)), Gate("S", (3,)))
    circ = VerifierCircuit(2, 1, 1, gates)
    cone = circ.output_cone()
    assert cone.gates == (Gate("TOF", (1, 2, 0)),)
    assert (cone.num_ancilla, cone.num_input, cone.num_witness) == (2, 1, 1)
    assert circ.output_cone() is cone  # computed once per circuit


def test_output_cone_keeps_linking_toffoli():
    # TOF 1 2 3 has no qubit 0, but it feeds qubit 3, a control of TOF 3 0 1
    gates = (
        Gate("H", (1,)), Gate("H", (2,)), Gate("TOF", (1, 2, 3)),
        Gate("H", (0,)), Gate("TOF", (3, 0, 1)), Gate("H", (0,)), Gate("H", (2,)),
    )
    circ = VerifierCircuit(1, 0, 3, gates)
    assert circ.output_cone().gates == gates[:-1]
    for y in range(8):
        basis = basis_index(circ, 0, y)
        full = simulate(circ, basis)
        p_full = float(np.vdot(full[8:], full[8:]).real)
        assert accept_probability(circ, basis) == pytest.approx(p_full, abs=1e-15)


def test_output_cone_empty_without_a_gate_on_the_output():
    circ = VerifierCircuit(1, 0, 3, (Gate("H", (1,)), Gate("TOF", (1, 2, 3)), Gate("S", (3,))))
    assert circ.output_cone().gates == ()
    for y in range(8):
        assert accept_probability(circ, basis_index(circ, 0, y)) == 0.0


def test_simulate_norm_is_one():
    rng = np.random.default_rng(104)
    circ = random_circuit(rng, num_ancilla=2, num_witness=3, gate_count=40)
    state = simulate(circ, 0)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_embedded_witness_matrix_columns():
    rng = np.random.default_rng(105)
    circ = random_circuit(rng, num_ancilla=1, num_input=1, num_witness=2, gate_count=12)
    mat = full_rows(circ, "1")
    assert mat.shape == (1 << circ.num_qubits, 4)
    for y in range(4):
        assert np.allclose(mat[:, y], simulate(circ, basis_index(circ, 1, y)), atol=1e-12)


def test_embedded_witness_matrix_gates_in_place():
    # tracemalloc sees numpy buffers; a gate that returned a fresh array
    # would hold two copies of the column block it runs on at once
    q = 10
    gates = []
    for k in range(q):
        gates += [Gate("H", (k,)), Gate("S", (k,))]
        gates.append(Gate("TOF", ((k + 1) % q, (k + 2) % q, k)))
    circ = VerifierCircuit(2, 0, 8, tuple(gates))
    tracemalloc.start()
    try:
        planes = embedded_witness_matrix(circ, "").planes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert planes.shape == (1 << (q - 1), 1 << 8, 2)  # every qubit is superposed: all accepted rows
    assert peak - planes.nbytes < 1.75 * qcount.circuit._BLOCK_BYTES


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
        planes = embedded_witness_matrix(circ, "").planes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert planes.shape == (1 << (q - 1), 1 << 10, 2)  # the accepted rows, every qubit superposed
    assert peak - planes.nbytes <= 2 * qcount.circuit._BLOCK_BYTES


def test_blocked_kernel_is_bit_identical(monkeypatch):
    # every qubit ends superposed, so a column is 256 complex rows, 4 KiB: a
    # 256 KiB block is 64 of the 128 columns, two blocks, and 192 KiB rounds
    # down to 32 columns, four; the walk counts take 32 B a cell, so they
    # run in four and eight
    rng = np.random.default_rng(108)
    circ = random_circuit(rng, num_ancilla=1, num_witness=7, gate_count=150)
    short = VerifierCircuit(1, 0, 7, circ.gates[:60])  # h <= 62: walk counts fit int64
    unblocked = embedded_witness_matrix(circ, "")
    _, all_rows = compact_rows(circ, "")
    assert all_rows.shape == (256, 128)
    assert unblocked.planes.shape == (128, 128, 2)
    tallies = path_sum_exact(short)
    for block_bytes in (16 * 256 * 64, 16 * 256 * 48):
        monkeypatch.setattr(qcount.circuit, "_BLOCK_BYTES", block_bytes)
        blocked = embedded_witness_matrix(circ, "")
        assert np.array_equal(blocked.planes.view(np.uint8), unblocked.planes.view(np.uint8))
        assert np.array_equal(blocked.order, unblocked.order)
        assert np.array_equal(compact_rows(circ, "")[1].view(np.uint64), all_rows.view(np.uint64))
        assert path_sum_exact(short) == tallies


def _assert_compact_is_full_row(circ, x):
    """The compact embed and walk counts against the full-row oracle, bit for bit.

    The embed's accepted planes are the bottom half of the compact rows.
    """
    for odd_h_root in (True, False):
        compact = full_rows(circ, x, odd_h_root=odd_h_root)
        full = full_embed(circ, x, odd_h_root=odd_h_root)
        assert np.array_equal(compact.view(np.uint64), full.view(np.uint64))  # signed zeros too
    layout, rows = compact_rows(circ, x, odd_h_root=False)
    embed = embedded_witness_matrix(circ, x)
    for field in ("rows", "diagonal", "constant", "order"):
        assert np.array_equal(getattr(embed, field), getattr(layout, field))
    accepted = rows[rows.shape[0] // 2 :]
    accepted_embed = accepted_matrix(embed, circ.h_count)
    assert np.array_equal(accepted_embed.view(np.uint64), accepted.view(np.uint64))
    assert embed.product_scale == 2.0 ** -(circ.h_count % 64)
    if circ.gate_count and circ.h_count <= 62:
        counts = full_witness_matrix(
            circ, x, tail=(4,), dtype=np.int64, sub=_z4_sub, times_i=_z4_times_i
        )
        accepted = counts[counts.shape[0] // 2 :].reshape(-1, 4).astype(object)
        products = accepted.T @ accepted  # <C_a, C_b> in Python ints
        g, i_plus, f, i_minus = (sum(products[a, (a + k) % 4] for a in range(4)) for k in range(4))
        tallies = path_sum_exact(circ, x)
        assert (tallies.g, tallies.f, tallies.i_plus, tallies.i_minus) == (g, f, i_plus, i_minus)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ancilla=st.integers(1, 2),
    inputs=st.integers(0, 2),
    witness=st.integers(0, 4),
    gate_count=st.integers(0, 50),
    block_bytes=st.sampled_from([16, 256, qcount.circuit._BLOCK_BYTES]),
    data=st.data(),
)
def test_compact_embed_is_the_full_row_embed(
    seed, ancilla, inputs, witness, gate_count, block_bytes, data
):
    # small blocks hold a block's diagonal qubits as its constant bits
    circ = random_circuit(
        np.random.default_rng(seed),
        num_ancilla=ancilla,
        num_input=inputs,
        num_witness=witness,
        gate_count=gate_count,
    )
    x = "".join(data.draw(st.sampled_from("01")) for _ in range(inputs))
    with mock.patch.object(qcount.circuit, "_BLOCK_BYTES", block_bytes):
        _assert_compact_is_full_row(circ, x)


# (registers a n w, gates, x, superposed qubits, diagonal qubits) per rule
_COMPACT_RULES = {
    "S on a diagonal witness qubit": ((1, 0, 2), "H 0\nS 1\nTOF 1 2 0\n", "", (0,), (1, 2)),
    "TOF with classical controls on a witness target": (
        (1, 1, 3), "TOF 1 2 3\nTOF 2 3 4\nH 0\nTOF 3 4 0\n", "1", (0,), (2, 3, 4)
    ),
    "TOF with witness controls on an ancilla target": (
        (2, 0, 2), "TOF 2 3 1\nH 0\nH 2\nTOF 1 2 0\n", "", (0, 1, 2), (3,)
    ),
    "H on a diagonal qubit": ((1, 0, 2), "TOF 1 2 0\nH 1\nTOF 1 2 0\n", "", (0, 1), (2,)),
    "odd h": ((1, 0, 2), "H 1\nTOF 1 2 0\nH 0\nS 0\nH 0\n", "", (0, 1), (2,)),
    "input bits x != 0": ((1, 2, 1), "TOF 1 3 0\nH 2\nTOF 2 3 0\nS 1\n", "10", (0, 2), (3,)),
    "w = 0": ((2, 1, 0), "TOF 2 1 0\nH 1\nTOF 1 2 0\n", "1", (0, 1), ()),
    "empty cone": ((1, 0, 3), "", "", (0,), (1, 2, 3)),
    "qubit 0 constant at the end": ((1, 2, 1), "TOF 1 2 0\nH 3\nS 0\n", "11", (0, 3), ()),
}


@pytest.mark.parametrize("rule", list(_COMPACT_RULES))
def test_compact_embed_classical_rules(rule):
    (a, n, w), gates, x, rows, diagonal = _COMPACT_RULES[rule]
    circ = parse_circuit(f"registers: ancilla={a} input={n} witness={w}\n{gates}")
    embed = embedded_witness_matrix(circ, x)
    assert (embed.rows, embed.diagonal) == (rows, diagonal)
    assert embed.planes.shape == (1 << (len(rows) - 1), 1 << w, 2)
    _assert_compact_is_full_row(circ, x)


# without the rescale every 64 H, h = 2101 would overflow at 2**1050
@pytest.mark.parametrize("h", [1, 3, 63, 64, 65, 131, 2101])
def test_unnormalized_h_rescales_exactly(h):
    rng = np.random.default_rng(109 + h)
    gates = [Gate("H", (int(q),)) for q in rng.integers(0, 3, size=h)]
    gates += [Gate("S", (1,)), Gate("TOF", (0, 2, 1)), Gate("S", (2,))]
    rng.shuffle(gates)
    circ = VerifierCircuit(1, 0, 2, tuple(gates))
    assert circ.h_count == h
    u = kron_unitary(circ)
    for col in range(8):
        state = simulate(circ, col)
        assert np.allclose(state, u[:, col], atol=1e-12)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_even_h_embedding_is_exactly_dyadic():
    rng = np.random.default_rng(110)
    checked = 0
    for _ in range(12):
        circ = random_circuit(rng, num_ancilla=2, num_witness=4, gate_count=160)
        if circ.h_count % 2:
            continue
        scaled = compact_rows(circ, "")[1] * 2.0 ** (circ.h_count // 2)
        assert np.array_equal(scaled, np.round(scaled.real) + 1j * np.round(scaled.imag))
        checked += 1
    assert checked


def test_planar_ring_is_the_complex_ring():
    # the embed's int32 planes (h <= 61) and float64 planes (h > 61) hold
    # the values of a complex run of the same kernel over every row
    rng = np.random.default_rng(111)
    routes = set()
    for _ in range(16):
        gate_count = int(rng.integers(100, 140))
        circ = random_circuit(rng, num_ancilla=2, num_input=1, num_witness=3, gate_count=gate_count)
        routes.add(circ.h_count <= 61)
        for odd_h_root in (True, False):
            compact = full_rows(circ, "1", odd_h_root=odd_h_root)
            assert np.array_equal(compact, full_witness_matrix(circ, "1", odd_h_root=odd_h_root))
    assert routes == {True, False}


@pytest.mark.parametrize("h, dtype, trace", [(61, np.int32, 1.0), (62, np.float64, 0.0)])
def test_embed_runs_int32_planes_up_to_61_h(h, dtype, trace):
    # unnormalized, H**61 is 2**30 H, parts of +-2**30; H**62 is 2**31 I, past int32
    circ = parse_circuit(HEADER + "H 0\n" * h)
    assert embedded_witness_matrix(circ, "").planes.dtype == dtype
    parts = np.abs(compact_rows(circ, "", odd_h_root=False)[1].view(np.float64)) * 2.0 ** (h // 2)
    assert set(parts.ravel()) == {0.0, 2.0 ** (h // 2)}
    assert build_acceptance_operator(circ).trace == trace


def test_int32_parts_near_the_bound_are_exact():
    # 56 H on qubit 0 are 2**28 I; the S-phased rest, 5 H, reaches a part of
    # 5 * 2**2, so the 61-H total has one of 5 * 2**28 = 1.25 * 2**30: past
    # the 2**30 of H**61, toward the 2**30.5 that bounds every part
    core = "H 1\nH 2\nTOF 1 2 0\nH 1\nTOF 0 1 2\nS 1\nS 2\nS 2\nH 0\nS 2\nTOF 0 2 1\nH 2\n"
    circ = parse_circuit("registers: ancilla=1 input=0 witness=2\n" + "H 0\n" * 56 + core)
    assert circ.h_count == 61
    assert embedded_witness_matrix(circ, "").planes.dtype == np.int32
    parts = np.abs(compact_rows(circ, "", odd_h_root=False)[1].view(np.float64)) * 2.0**30
    assert parts.max() == 1.25 * 2.0**30
    full = full_witness_matrix(circ, "", odd_h_root=False)
    assert np.array_equal(full_rows(circ, "", odd_h_root=False), full)


def test_apply_gate_matches_kron():
    # one gate of the kernel on a state that is not a basis state
    rng = np.random.default_rng(106)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    for gate in (Gate("H", (1,)), Gate("S", (2,)), Gate("TOF", (0, 2, 1))):
        out = state.copy()
        full_run(out.reshape(2, 2, 2, 1), (gate,))
        assert np.allclose(out, gate_matrix(gate, 3) @ state, atol=1e-12)


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


def test_load_circuit_rejects_non_utf8(tmp_path):
    path = tmp_path / "utf16.qcv"
    path.write_bytes("registers: ancilla=1 input=0 witness=1\n".encode("utf-16"))  # \xff\xfe...
    with pytest.raises(CircuitFormatError, match="not UTF-8"):
        load_circuit(str(path))


def test_simulate_rejects_an_index_outside_the_register():
    circ = VerifierCircuit(1, 0, 2, (Gate("H", (0,)),))
    for basis in (-1, 8):
        with pytest.raises(PreconditionError, match="outside the 3-qubit range"):
            simulate(circ, basis)


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
    for registers in ((1, -1, 1), (1, 0, -1)):
        with pytest.raises(PreconditionError, match="register sizes must be nonnegative"):
            VerifierCircuit(*registers, ())


def test_simulation_cap():
    big = VerifierCircuit(1, 0, 20, ())
    with pytest.raises(CapExceeded):
        simulate(big, 0)
    dense = VerifierCircuit(1, 0, 14, ())
    with pytest.raises(CapExceeded):
        embedded_witness_matrix(dense, "")


def test_dense_cap_env_override(monkeypatch):
    monkeypatch.setenv("QCOUNT_DENSE_CAP", "4")
    small = VerifierCircuit(1, 0, 4, ())
    with pytest.raises(CapExceeded):
        embedded_witness_matrix(small, "")
    monkeypatch.setenv("QCOUNT_DENSE_CAP", "5")
    # no gate: qubit 0 is the one row axis
    assert embedded_witness_matrix(small, "").planes.shape == (1, 16, 2)


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
    embed = full_rows(circ, "")
    assert np.allclose(embed, kron_unitary(circ)[:, : embed.shape[1]], atol=1e-12)
