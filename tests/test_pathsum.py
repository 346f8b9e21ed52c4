"""Sign-path enumeration: integer identity against the spectral oracle."""

import numpy as np
import pytest

from circgen import ensemble, random_circuit
from qcount import (
    CapExceeded,
    PreconditionError,
    build_acceptance_operator,
    free_path_bits,
    path_sum_estimator,
    path_sum_exact,
)
from qcount.circuit import VerifierCircuit, parse_circuit
from qcount.limits import SAMPLE_CAP


def test_worked_single_h():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=0\nH 0\n")
    r = path_sum_exact(circ)
    assert (r.g, r.f, r.h, r.n_star) == (1, 0, 1, 0)
    assert r.trace == 0.5  # |<1|H|0>|^2


def test_worked_single_s():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=0\nS 0\n")
    r = path_sum_exact(circ)
    assert r.trace == 0.0
    assert r.g == r.f


def test_worked_expanded_x():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
    r = path_sum_exact(circ)
    assert (r.h, r.n_star) == (2, 14)
    assert r.g - r.f == 8  # trace 2 = (g-f)/2^h
    assert r.trace == 2.0


def test_free_bit_accounting():
    for circ, _ in ensemble(401, 20, max_ancilla=2, max_input=1, max_witness=2, max_gates=4):
        q = circ.num_qubits
        expected = 2 * circ.gate_count * q - (circ.num_ancilla + circ.num_input + 1)
        assert free_path_bits(circ) == expected


def test_gateless_circuit_rejected():
    with pytest.raises(PreconditionError):
        free_path_bits(VerifierCircuit(1, 0, 1, ()))
    with pytest.raises(PreconditionError):
        path_sum_exact(VerifierCircuit(1, 0, 1, ()))


def test_enumeration_cap():
    # 2*4*4 - 2 = 30 free bits, beyond the 24-bit enumeration cap
    rng = np.random.default_rng(402)
    circ = random_circuit(rng, num_witness=3, gate_count=4)
    assert free_path_bits(circ) == 30
    with pytest.raises(CapExceeded):
        path_sum_exact(circ)


def test_matches_spectral_oracle():
    for circ, x in ensemble(403, 40, max_ancilla=1, max_input=1, max_witness=1, max_gates=3):
        r = path_sum_exact(circ, x)
        exact = float(np.real(np.trace(build_acceptance_operator(circ, x).matrix)))
        assert r.trace == pytest.approx(exact, abs=1e-9)


def test_imaginary_parts_cancel_exactly():
    for circ, x in ensemble(404, 25, max_ancilla=1, max_input=1, max_witness=1, max_gates=3):
        r = path_sum_exact(circ, x)
        assert r.i_plus == r.i_minus  # integer equality, not a tolerance


def test_toffoli_paths_match_oracle():
    rng = np.random.default_rng(405)
    for _ in range(5):
        circ = random_circuit(rng, num_witness=2, gate_count=3)
        if all(g.kind != "TOF" for g in circ.gates):
            continue
        r = path_sum_exact(circ)
        exact = float(np.real(np.trace(build_acceptance_operator(circ).matrix)))
        assert r.trace == pytest.approx(exact, abs=1e-9)


def test_estimator_on_sure_acceptor():
    # worked coverage example: expanded X, S = ceil(8/eps^2) at eps = 0.5
    circ = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
    hits = 0
    trials = 200
    for seed in range(trials):
        est = path_sum_estimator(circ, samples=32, seed=seed, epsilon=0.5)
        assert est.normalization == 2.0 ** 12
        if abs(est.value - 2.0) <= 0.5 * est.normalization:
            hits += 1
    assert hits / trials >= 0.95


def test_estimator_mean_converges():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=0\nH 0\n")
    values = [
        path_sum_estimator(circ, samples=64, seed=seed).value for seed in range(300)
    ]
    # normalization 2^(0-1) = 1/2; exact trace 0.5, sd of the mean ~ 0.0036
    assert np.mean(values) == pytest.approx(0.5, abs=0.02)


def test_estimator_metadata_and_validation():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
    est = path_sum_estimator(circ, samples=128, seed=3)
    assert est.epsilon == pytest.approx(np.sqrt(2.0 * np.log(8.0) / 128))
    assert est.delta == pytest.approx(0.25)
    with pytest.raises(PreconditionError):
        path_sum_estimator(circ, samples=4, seed=0, epsilon=0.5)
    with pytest.raises(PreconditionError):
        path_sum_estimator(circ, samples=0, seed=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionError, match="epsilon must be finite"):
            path_sum_estimator(circ, samples=128, seed=0, epsilon=bad)
    # X is 4 core gates, so each sample draws 2T = 8 uniforms
    with pytest.raises(CapExceeded, match="cap"):
        path_sum_estimator(circ, samples=SAMPLE_CAP // 8 + 1, seed=0)


def test_estimator_seed_determinism():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
    a = path_sum_estimator(circ, samples=256, seed=17)
    b = path_sum_estimator(circ, samples=256, seed=17)
    assert a.value == b.value
