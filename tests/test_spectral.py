"""Exact spectral oracle: operator build, eigenvalue counts, dqc1 regime."""

import tracemalloc

import numpy as np
import pytest

from circgen import dense_matrix, ensemble, full_witness_matrix, kron_unitary, random_circuit
from qcount import (
    AcceptanceOperator,
    InvariantViolation,
    PreconditionError,
    SpectralCount,
    accept_probability,
    avg_accept_decider,
    build_acceptance_operator,
    check_promise,
    dqc1_ancilla_bound,
    sandwich_bounds,
    trace_normalized,
    validate_dqc1,
    witness_probabilities,
)
from qcount.circuit import (
    _BLOCK_BYTES,
    Gate,
    VerifierCircuit,
    basis_index,
    parse_circuit,
)
from qcount.spectral import TIE_TOL

X_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
H_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nH 0\n")
ID_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\n")


def test_x_operator_is_identity():
    op = build_acceptance_operator(X_CIRC)
    assert np.allclose(dense_matrix(op), np.eye(2), atol=1e-12)
    assert np.allclose(op.eigenvalues, [1.0, 1.0], atol=1e-12)


def test_h_operator_is_half_identity():
    op = build_acceptance_operator(H_CIRC)
    assert np.allclose(dense_matrix(op), 0.5 * np.eye(2), atol=1e-12)
    count = SpectralCount.of(op.eigenvalues, 0.6, 0.5)
    assert (count.n_geq_c, count.n_geq_s) == (0, 2)
    assert trace_normalized(op) == pytest.approx(0.5, abs=1e-12)


def test_identity_circuit_never_accepts():
    op = build_acceptance_operator(ID_CIRC)
    assert np.allclose(dense_matrix(op), 0.0, atol=1e-12)
    assert trace_normalized(op) == 0.0


def test_worked_exact_count_interval():
    op = build_acceptance_operator(X_CIRC)
    count = SpectralCount.of(op.eigenvalues, 0.666, 0.333)
    assert (count.n_geq_c, count.n_geq_s) == (2, 2)


def test_accept_probability_h_any_witness():
    for y in (0, 1):
        assert accept_probability(H_CIRC, basis_index(H_CIRC, 0, y)) == pytest.approx(
            0.5, abs=1e-12
        )


def test_spectrum_in_unit_interval():
    for circ, x in ensemble(201, 200, max_ancilla=3, max_input=2, max_witness=4):
        eigs = build_acceptance_operator(circ, x).eigenvalues
        assert eigs.shape == (1 << circ.num_witness,)
        assert np.all(eigs >= 0.0) and np.all(eigs <= 1.0)
        assert np.all(np.diff(eigs) <= 0.0)  # sorted descending


def test_trace_equals_acceptance_probability_sum():
    # Tr V_x is the sum over basis witnesses of the acceptance probability
    for circ, x in ensemble(202, 25, max_ancilla=2, max_input=1, max_witness=3):
        op = build_acceptance_operator(circ, x)
        x_val = int(x or "0", 2)
        by_simulation = sum(
            accept_probability(circ, basis_index(circ, x_val, y))
            for y in range(1 << circ.num_witness)
        )
        assert float(np.real(np.trace(dense_matrix(op)))) == pytest.approx(
            by_simulation, abs=1e-7
        )
        assert float(op.eigenvalues.sum()) == pytest.approx(by_simulation, abs=1e-7)


def test_counts_match_brute_scan():
    rng = np.random.default_rng(203)
    for circ, x in ensemble(204, 20, max_witness=3):
        op = build_acceptance_operator(circ, x)
        eigs = op.eigenvalues
        for a in rng.uniform(0.0, 1.0, size=5):
            count = SpectralCount.of(eigs, 1.0, float(a))
            assert count.n_geq_s == int(np.sum(eigs >= a - 1e-12))


def test_count_edges():
    for circ, x in ensemble(205, 10, max_witness=3):
        op = build_acceptance_operator(circ, x)
        count = SpectralCount.of(op.eigenvalues, 1.0, 0.0)
        assert count.n_geq_s == count.n_interval == op.dim
        # nothing lies above 1, so at least 1 means at 1
        assert count.n_geq_c == int(np.sum(np.abs(op.eigenvalues - 1.0) <= TIE_TOL))


def test_interval_counts_are_consistent():
    for circ, x in ensemble(206, 20, max_witness=3):
        op = build_acceptance_operator(circ, x)
        count = SpectralCount.of(op.eigenvalues, 0.7, 0.2)
        assert 0 <= count.n_geq_c <= count.n_geq_s <= op.dim
        assert count.n_interval >= count.n_geq_s - count.n_geq_c


def test_operator_build_copies_no_output_block():
    # conj(U) is written into the embed's unused top half, and the embed is
    # freed before the Hermitian check: the peak is the embed plus the Gram.
    # The Gram is one (m, m) block per assignment of the k witness qubits the
    # cone never flips: 2**w * m entries, not 2**w * 2**w
    for gate_count, k in [(12, 10), (40, 2)]:
        circ = random_circuit(
            np.random.default_rng(207), num_ancilla=2, num_witness=10, gate_count=gate_count
        )
        embed_bytes = 16 << (circ.num_qubits + circ.num_witness)
        stack_bytes = 16 << (circ.num_witness + circ.num_witness - k)
        tracemalloc.start()
        try:
            op = build_acceptance_operator(circ)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mat = dense_matrix(op)
        assert peak <= embed_bytes + mat.nbytes + 2 * _BLOCK_BYTES
        assert peak <= embed_bytes + stack_bytes + 2 * _BLOCK_BYTES
        block = full_witness_matrix(circ.output_cone(), "")[1 << (circ.num_qubits - 1) :]
        assert np.array_equal(mat, block.conj().T @ block)  # the same bits


def test_operator_build_stores_only_the_superposed_rows():
    # H on witness qubits 2..7 and the output, TOFs from them onto it: s = 7
    # of the 12 qubits are superposed, and 8..11 stay diagonal as TOF
    # controls (k = 4).  The embed is 2**(s + w) entries, 2 MiB where every
    # row of every column would be 64 MiB
    gates = [Gate("H", (0,))]
    for q in range(2, 8):
        gates += [Gate("H", (q,)), Gate("TOF", (q, q + 4 if q < 6 else q - 4, 0))]
    gates += [Gate("S", (9,)), Gate("TOF", (10, 11, 0)), Gate("H", (0,))]
    circ = VerifierCircuit(2, 0, 10, tuple(gates))
    s, w, k = 7, circ.num_witness, 4
    compact_bytes = 16 << (s + w)
    stack_bytes = 16 << (w + w - k)
    tracemalloc.start()
    try:
        op = build_acceptance_operator(circ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.blocks.shape == (1 << k, 1 << (w - k), 1 << (w - k))
    assert peak <= compact_bytes + stack_bytes + 2 * _BLOCK_BYTES
    u = full_witness_matrix(circ, "")[1 << (circ.num_qubits - 1) :]
    assert np.max(np.abs(dense_matrix(op) - u.conj().T @ u)) <= 1e-12


def _reference_operator(circ, x):
    # E' V' P V E from the kron-product unitary, in witness order
    cols = basis_index(circ, int(x or "0", 2), np.arange(1 << circ.num_witness))
    u = kron_unitary(circ)[1 << (circ.num_qubits - 1) :, cols]
    return u.conj().T @ u


def _circuit_with_classical(rng, num_ancilla, num_input, num_witness, classical):
    # random gates, no H or TOF targeting a qubit in `classical`, then an H
    # on every other witness qubit and a TOF from it onto the output, so the
    # cone flips every witness qubit but those
    total = num_ancilla + num_input + num_witness
    targets = [q for q in range(total) if q not in classical]
    gates = []
    for _ in range(int(rng.integers(4, 16))):
        kind = ("H", "S", "TOF")[int(rng.integers(0, 3))]
        if kind == "S":
            gates.append(Gate("S", (int(rng.integers(0, total)),)))
        elif kind == "H":
            gates.append(Gate("H", (int(rng.choice(targets)),)))
        elif total >= 3:
            t = int(rng.choice(targets))
            c1, c2 = rng.choice([q for q in range(total) if q != t], size=2, replace=False)
            gates.append(Gate("TOF", (int(c1), int(c2), t)))
    for q in range(total - num_witness, total):
        if q not in classical:
            other = int(rng.choice([p for p in range(1, total) if p != q]))
            gates += [Gate("H", (q,)), Gate("TOF", (q, other, 0))]
    return VerifierCircuit(num_ancilla, num_input, num_witness, tuple(gates))


# the cone never targets the output, so A = 0; it puts witness qubit 3 into
# superposition, and its TOF onto 4 has the output, a constant 0, for a control
NEVER_FLIPS_OUTPUT = parse_circuit("registers: ancilla=1 input=1 witness=3\nH 3\nS 0\nTOF 0 3 4\n")


def _split_cases():
    rng = np.random.default_rng(208)
    cases = []
    for num_witness in range(1, 5):
        for k in range(num_witness + 1):
            for _ in range(2):
                a, n = int(rng.integers(1, 3)), int(rng.integers(0, 3))
                witness = range(a + n, a + n + num_witness)
                classical = {int(q) for q in rng.choice(witness, size=k, replace=False)}
                circ = _circuit_with_classical(rng, a, n, num_witness, classical)
                x = "".join(str(int(b)) for b in rng.integers(0, 2, size=n))
                cases.append((circ, x, k))
    # witness qubit 2 is touched only by S, 3 only as a TOF control, 4 never
    touched = "H 5\nS 2\nH 1\nTOF 3 5 0\nS 2\nTOF 1 6 0\nH 0\nS 0\nTOF 0 5 6\n"
    cases.append((parse_circuit(f"registers: ancilla=2 input=0 witness=5\n{touched}"), "", 3))
    cases.append((NEVER_FLIPS_OUTPUT, "1", 2))  # qubits 2 and 4 stay diagonal
    return cases


def test_block_split_matches_the_kron_reference():
    for circ, x, k in _split_cases():
        ref = _reference_operator(circ, x)
        op = build_acceptance_operator(circ, x)
        assert op.blocks.shape[0] == 1 << k
        assert np.max(np.abs(dense_matrix(op) - ref)) <= 1e-12
        ref_eigs = np.sort(np.linalg.eigvalsh(ref))[::-1]
        assert np.max(np.abs(op.eigenvalues - ref_eigs)) <= 1e-12
        assert abs(op.trace - float(np.real(np.trace(ref)))) <= 1e-12
        assert np.max(np.abs(witness_probabilities(circ, x) - np.real(np.diagonal(ref)))) <= 1e-12
    assert not np.any(dense_matrix(build_acceptance_operator(NEVER_FLIPS_OUTPUT, "1")))


def test_witness_probabilities_are_the_operator_diagonal_bit_for_bit():
    # one squared column norm of the embed per witness, without the Gram: the
    # same bits as the Gram's diagonal, which is exact on these circuits
    cases = [(circ, x) for circ, x, _ in _split_cases()] + ensemble(210, 40, max_witness=4)
    seen = set()
    for circ, x in cases:
        op = build_acceptance_operator(circ, x)
        probs = witness_probabilities(circ, x)
        assert np.array_equal(probs, np.real(np.diagonal(dense_matrix(op))))
        seen.add(("odd h", circ.output_cone().h_count % 2 == 1))
        seen.add(("input", bool(x)))
        seen.add(("k >= 1", op.blocks.shape[0] > 1))
    assert seen == {(name, v) for name in ("odd h", "input", "k >= 1") for v in (False, True)}


def test_odd_h_gram_is_exact():
    # the embed leaves out an odd h's final 1/sqrt(2) and the Gram is halved,
    # so 2**h A is exactly Gaussian integers; the README example's trace is
    # 3, not 2.999999999999999
    readme = parse_circuit("registers: ancilla=1 input=0 witness=2\nH 1\nTOF 1 2 0\nX 0\n")
    op = build_acceptance_operator(readme)
    assert (op.trace, trace_normalized(op)) == (3.0, 0.75)
    for circ, x in ensemble(209, 40, max_witness=4):
        scaled = dense_matrix(build_acceptance_operator(circ, x)) * 2.0**circ.h_count
        assert np.array_equal(scaled, np.round(scaled))


@pytest.mark.parametrize(
    "offset, at_least, at_most",
    [(-2.0, False, True), (-0.5, True, True), (0.5, True, True), (2.0, True, False)],
)
def test_every_threshold_comparison_shares_the_tie_rule(offset, at_least, at_most):
    # a value within TIE_TOL of a threshold counts as on it, wherever it is compared
    a = 0.5
    v = a + offset * TIE_TOL
    eigs = AcceptanceOperator(np.diag([v, 0.0]).astype(complex), 1).eigenvalues
    assert SpectralCount.of(eigs, a, 0.1).n_geq_c == at_least
    assert SpectralCount.of(eigs, 1.0, a).n_geq_s == at_least
    assert SpectralCount.of(eigs, 1.0, a).n_interval == at_least
    assert SpectralCount.of(eigs, a, 0.1).n_interval == at_most
    op = AcceptanceOperator(np.diag([v * v, 0.0]).astype(complex), 1)
    assert sandwich_bounds(op, a, 0.1, 0.1).n_geq_c == at_least
    assert sandwich_bounds(op, 0.9, a, 0.1).sigma_in_gap == (not at_most)
    probs = np.array([v, v])
    below_c = avg_accept_decider(H_CIRC, c=a, s=0.2, probabilities=probs)
    assert below_c.promise_violated == (not at_least)
    above_s = avg_accept_decider(H_CIRC, c=0.8, s=a, probabilities=probs)
    assert above_s.promise_violated == (not at_most)


def test_threshold_validation():
    eigs = build_acceptance_operator(H_CIRC).eigenvalues
    promise = "need 0 <= s < c <= 1"
    with pytest.raises(PreconditionError, match=promise):
        SpectralCount.of(eigs, 1.5, 0.5)
    with pytest.raises(PreconditionError, match=promise):
        SpectralCount.of(eigs, 0.3, 0.6)
    for c, s in [(0.5, 0.5), (0.5, -0.1), (1.5, 0.5), (0.3, 0.6)]:
        with pytest.raises(PreconditionError, match=promise):
            check_promise(c, s)
    check_promise(1.0, 0.0)  # both ends of [0, 1] are allowed


def test_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        AcceptanceOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_rejects_a_malformed_stack_or_order():
    # (1, 1, 2) spans the 2 witness columns but its block is not square
    with pytest.raises(PreconditionError, match="stack of square blocks"):
        AcceptanceOperator(np.zeros((1, 1, 2)), 1)
    with pytest.raises(PreconditionError, match="order must be a permutation"):
        AcceptanceOperator(np.eye(2) / 2, 1, order=[0, 0])


def test_rejects_escaping_eigenvalues():
    bad = AcceptanceOperator(np.diag([1.5, 0.0]).astype(complex), 1)
    with pytest.raises(InvariantViolation):
        bad.eigenvalues
    # the message shows the excess, not 1 + 2e-9 rounded to 1.000000e+00
    near = AcceptanceOperator(np.diag([1.0 + 2e-9, 0.0]).astype(complex), 1)
    with pytest.raises(InvariantViolation, match=r"2\.000e-09 above 1"):
        near.eigenvalues
    neg = AcceptanceOperator(np.diag([-0.5, 0.0]).astype(complex), 1)
    with pytest.raises(InvariantViolation):
        neg.eigenvalues


def test_clamps_rounding_noise():
    op = AcceptanceOperator(np.diag([1.0 + 5e-10, -5e-10]).astype(complex), 1)
    assert op.eigenvalues[0] == 1.0
    assert op.eigenvalues[1] == 0.0


def test_dqc1_bound_values():
    assert dqc1_ancilla_bound(8) == 5
    assert dqc1_ancilla_bound(4) == 4
    assert dqc1_ancilla_bound(2) == 3
    assert dqc1_ancilla_bound(0) == 3  # floor at the two-dimensional case
    assert dqc1_ancilla_bound(1) == 3


def test_validate_dqc1():
    assert validate_dqc1(VerifierCircuit(5, 0, 8, ()))
    assert not validate_dqc1(VerifierCircuit(10, 0, 4, ()))
    assert not validate_dqc1(VerifierCircuit(1, 1, 4, ()))  # input register present


def test_spectral_count_record():
    op = build_acceptance_operator(X_CIRC)
    rec = SpectralCount.of(op.eigenvalues, 0.666, 0.333)
    assert (rec.n_geq_c, rec.n_geq_s) == (2, 2)
    assert rec.n_interval == 0
