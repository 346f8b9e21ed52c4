"""Exact spectral oracle: operator build, eigenvalue counts, dqc1 regime."""

import numpy as np
import pytest

from circgen import ensemble
from qcount import (
    AcceptanceOperator,
    InvariantViolation,
    PreconditionError,
    SpectralCount,
    accept_probability,
    build_acceptance_operator,
    count_eigs_geq,
    count_eigs_interval,
    dqc1_ancilla_bound,
    exact_count_interval,
    trace_in_interval,
    trace_normalized,
    validate_dqc1,
)
from qcount.circuit import VerifierCircuit, parse_circuit

X_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
H_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nH 0\n")
ID_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\n")


def test_x_operator_is_identity():
    op = build_acceptance_operator(X_CIRC)
    assert np.allclose(op.matrix, np.eye(2), atol=1e-12)
    assert np.allclose(op.eigenvalues, [1.0, 1.0], atol=1e-12)


def test_h_operator_is_half_identity():
    op = build_acceptance_operator(H_CIRC)
    assert np.allclose(op.matrix, 0.5 * np.eye(2), atol=1e-12)
    assert count_eigs_geq(op, 0.5) == 2
    assert count_eigs_geq(op, 0.6) == 0
    assert trace_normalized(op) == pytest.approx(0.5, abs=1e-12)


def test_identity_circuit_never_accepts():
    op = build_acceptance_operator(ID_CIRC)
    assert np.allclose(op.matrix, 0.0, atol=1e-12)
    assert trace_normalized(op) == 0.0


def test_worked_exact_count_interval():
    op = build_acceptance_operator(X_CIRC)
    assert exact_count_interval(op, 0.666, 0.333) == (2, 2)


def test_accept_probability_h_any_witness():
    for y in ("0", "1"):
        assert accept_probability(H_CIRC, "", y) == pytest.approx(0.5, abs=1e-12)


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
        w = circ.num_witness
        by_simulation = sum(
            accept_probability(circ, x, format(y, f"0{w}b") if w else "")
            for y in range(1 << w)
        )
        assert float(np.real(np.trace(op.matrix))) == pytest.approx(
            by_simulation, abs=1e-7
        )
        assert float(op.eigenvalues.sum()) == pytest.approx(by_simulation, abs=1e-7)


def test_counts_match_brute_scan():
    rng = np.random.default_rng(203)
    for circ, x in ensemble(204, 20, max_witness=3):
        op = build_acceptance_operator(circ, x)
        eigs = op.eigenvalues
        for a in rng.uniform(0.0, 1.0, size=5):
            assert count_eigs_geq(op, float(a)) == int(np.sum(eigs >= a - 1e-12))


def test_count_edges():
    for circ, x in ensemble(205, 10, max_witness=3):
        op = build_acceptance_operator(circ, x)
        assert count_eigs_geq(op, 0.0) == op.dim
        assert count_eigs_geq(op, 1.0) == count_eigs_interval(op, 1.0, 1.0)


def test_interval_counts_are_consistent():
    for circ, x in ensemble(206, 20, max_witness=3):
        op = build_acceptance_operator(circ, x)
        n_c, n_s = exact_count_interval(op, 0.7, 0.2)
        assert 0 <= n_c <= n_s <= op.dim
        assert count_eigs_interval(op, 0.2, 0.7) >= n_s - n_c
        assert trace_in_interval(op, 0.0, 1.0) == pytest.approx(
            float(op.eigenvalues.sum()), abs=1e-12
        )


def test_threshold_validation():
    op = build_acceptance_operator(H_CIRC)
    with pytest.raises(PreconditionError):
        count_eigs_geq(op, 1.5)
    with pytest.raises(PreconditionError):
        exact_count_interval(op, 0.3, 0.6)
    with pytest.raises(PreconditionError):
        count_eigs_interval(op, 0.6, 0.3)


def test_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        AcceptanceOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_rejects_escaping_eigenvalues():
    bad = AcceptanceOperator(np.diag([1.5, 0.0]).astype(complex), 1)
    with pytest.raises(InvariantViolation):
        bad.eigenvalues
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
    rec = SpectralCount.from_operator(op, 0.666, 0.333)
    assert (rec.n_geq_c, rec.n_geq_s) == (2, 2)
    assert rec.n_interval == 0
    assert rec.trace_interval == 0.0
