"""Sign-path sums: integer identity against a brute-force path enumerator
and the spectral oracle, and the walk-pair sampler's draws, memory and
Hoeffding law."""

import tracemalloc

import numpy as np
import pytest

import qcount.cli
import qcount.pathsum
from circgen import dense_matrix, ensemble, random_circuit
from qcount import (
    CapExceeded,
    PreconditionError,
    build_acceptance_operator,
    free_path_bits,
    path_sum_estimator,
    path_sum_exact,
)
from qcount.circuit import Gate, VerifierCircuit, basis_index, parse_circuit
from qcount.limits import SAMPLE_CAP
from qcount.rngstreams import stream

README_QCV = "registers: ancilla=1 input=0 witness=2\nH 1\nTOF 1 2 0\nX 0\n"


def element(gate, q, row, col):
    """Phase (mod 4) of <row| q_i |col> for the rescaled gate, None when it is 0."""
    pos = [q - 1 - k for k in gate.qubits]  # qubit 0 is the most significant bit
    bits = [(col >> p) & 1 for p in pos]
    if gate.kind == "H":
        if (row ^ col) & ~(1 << pos[0]):
            return None
        return 2 * ((row >> pos[0]) & 1 & bits[0])
    if gate.kind == "S":
        return bits[0] if row == col else None
    return 0 if row == col ^ ((bits[0] & bits[1]) << pos[2]) else None


def reference_tallies(circuit, x=""):
    """(g, i+, f, i-) by listing every path with a nonzero product, one by one.

    Each chain is extended one intermediate state at a time over all 2**Q
    basis states, keeping the nonzero elements; a path pairs a backward
    and a forward chain with the same endpoints.  Pure Python ints, no
    array code.
    """
    q, w = circuit.num_qubits, circuit.num_witness
    x_val = int(x, 2) if x else 0
    tallies = [0, 0, 0, 0]
    for y in range(1 << w):
        chains = [((x_val << w) | y, 0)]  # (end state, phase) of each chain
        for gate in circuit.gates:
            chains = [
                (row, (phase + ph) % 4)
                for state, phase in chains
                for row in range(1 << q)
                if (ph := element(gate, q, row, state)) is not None
            ]
        for v, a in chains:
            for u, b in chains:
                if u == v and v >> (q - 1):
                    tallies[(b - a) % 4] += 1
    return tuple(tallies)


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


def test_dense_cap():
    # 15 qubits, one past the 14-qubit dense cap; rejected before any walk count
    rng = np.random.default_rng(402)
    circ = random_circuit(rng, num_witness=14, gate_count=4)
    with pytest.raises(CapExceeded, match="15 qubits exceeds the 14-qubit dense cap"):
        path_sum_exact(circ)


def test_tallies_match_brute_force_enumerator():
    checked = 0
    for circ, x in ensemble(406, 400, max_ancilla=2, max_input=1, max_witness=2, max_gates=5):
        if free_path_bits(circ) > 16:
            continue
        r = path_sum_exact(circ, x)
        assert (r.g, r.i_plus, r.f, r.i_minus) == reference_tallies(circ, x)
        checked += 1
    assert checked >= 200


def test_exact_on_large_path_spaces_matches_oracle():
    # the README example has N* = 34, the h = 30 circuit N* = 957
    readme = parse_circuit(README_QCV)
    rng = np.random.default_rng(407)
    kinds = ["H"] * 30 + ["S"] * 15 + ["TOF"] * 15
    rng.shuffle(kinds)
    gates = tuple(
        Gate(k, tuple(int(b) for b in rng.choice(8, size=3 if k == "TOF" else 1, replace=False)))
        for k in kinds
    )
    deep = VerifierCircuit(2, 0, 6, gates)
    assert (free_path_bits(readme), deep.h_count, free_path_bits(deep)) == (34, 30, 957)
    for circ in (readme, deep):
        r = path_sum_exact(circ)
        assert r.trace == pytest.approx(build_acceptance_operator(circ).trace, abs=1e-9)
        assert r.i_plus == r.i_minus
    assert path_sum_exact(readme).trace == 3.0


def test_caps_exit_2(tmp_path, capsys):
    wide = tmp_path / "wide.qcv"
    wide.write_text("registers: ancilla=1 input=0 witness=14\nH 0\n")
    deep = tmp_path / "deep.qcv"
    deep.write_text("registers: ancilla=1 input=0 witness=0\n" + "H 0\n" * 63)
    assert qcount.cli.run(["path-sum", str(wide), "--mode", "exact"]) == 2
    assert "dense cap" in capsys.readouterr().err
    assert qcount.cli.run(["path-sum", str(deep), "--mode", "exact"]) == 2
    assert "63 H gates exceed the 62" in capsys.readouterr().err
    # a sampled walk state is one int64 basis index
    tall = tmp_path / "tall.qcv"
    tall.write_text("registers: ancilla=64 input=0 witness=0\nH 0\n")
    argv = ["path-sum", str(tall), "--mode", "sampled", "--samples", "8", "--seed", "1"]
    assert qcount.cli.run(argv) == 2
    assert "64 qubits exceed the 63" in capsys.readouterr().err


def test_matches_spectral_oracle():
    for circ, x in ensemble(403, 40, max_ancilla=1, max_input=1, max_witness=1, max_gates=3):
        r = path_sum_exact(circ, x)
        exact = float(np.real(np.trace(dense_matrix(build_acceptance_operator(circ, x)))))
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
        exact = float(np.real(np.trace(dense_matrix(build_acceptance_operator(circ)))))
        assert r.trace == pytest.approx(exact, abs=1e-9)


def test_estimator_on_sure_acceptor():
    # worked coverage example: expanded X, S = ceil(8/eps^2) at eps = 0.5
    circ = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
    hits = 0
    trials = 200
    for seed in range(trials):
        est = path_sum_estimator(circ, samples=32, seed=seed, epsilon=0.5)
        assert est.normalization == 2.0 ** 3  # 2**(w + h)
        if abs(est.value - 2.0) <= 0.5 * est.normalization:
            hits += 1
    assert hits / trials >= 0.95


def test_estimator_mean_converges():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=0\nH 0\n")
    values = [
        path_sum_estimator(circ, samples=64, seed=seed).value for seed in range(300)
    ]
    # normalization 2^(0+1) = 2; exact trace 0.5, sd of the mean ~ 0.0063
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
    # X has h = 2, so each sample draws 1 + 2h = 5 uniforms
    path_sum_estimator(circ, samples=SAMPLE_CAP // 5, seed=0)
    with pytest.raises(CapExceeded, match="cap"):
        path_sum_estimator(circ, samples=SAMPLE_CAP // 5 + 1, seed=0)


def test_negative_epsilon_fails_before_any_walk(qcount_calls):
    walks = qcount_calls(qcount.pathsum._walk_pair_scores)
    circ = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
    with pytest.raises(PreconditionError, match="epsilon must be finite and positive"):
        path_sum_estimator(circ, samples=1024, seed=0, epsilon=-0.1)
    assert walks == []


def test_estimator_seed_determinism():
    circ = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
    a = path_sum_estimator(circ, samples=256, seed=17)
    b = path_sum_estimator(circ, samples=256, seed=17)
    assert a.value == b.value


def test_estimator_mean_and_hoeffding_law():
    # over seeds: the mean of the runs sits within 5 sd of the oracle trace,
    # and no more than a delta share of runs misses by eps * 2**(w + h)
    rng = np.random.default_rng(408)
    runs, samples = 200, 512
    for _ in range(4):
        circ = random_circuit(rng, num_ancilla=2, num_witness=3, gate_count=12)
        trace = build_acceptance_operator(circ).trace
        ests = [path_sum_estimator(circ, samples=samples, seed=s) for s in range(runs)]
        u = ests[0].normalization
        assert u == 2.0 ** (3 + circ.h_count)
        values = np.array([e.value for e in ests])
        assert abs(values.mean() - trace) <= 5 * u / np.sqrt(samples * runs)
        misses = np.mean(np.abs(values - trace) >= ests[0].epsilon * u)
        assert misses <= ests[0].delta


def reference_walk_pair_scores(circuit, x_val, rng, samples):
    """Walk-pair scores from whole int64 arrays, every draw at once.

    The witnesses are floor(u * 2**w) of the first `samples` uniforms and
    each H's branches floor(2u) of the next 2 * samples, the first walk's
    before the second's: the documented layout, written the plain way.
    """
    q = circuit.num_qubits
    y = np.floor(rng.random(samples) * (1 << circuit.num_witness)).astype(np.int64)
    state = np.tile(basis_index(circuit, x_val, y), (2, 1))
    phase = np.zeros((2, samples), dtype=np.int64)
    for gate in circuit.gates:
        *controls, target = (q - 1 - k for k in gate.qubits)
        bit = (state >> target) & 1
        if gate.kind == "H":
            branch = np.floor(rng.random((2, samples)) * 2).astype(np.int64)
            phase += 2 * (bit & branch)
            state ^= (bit ^ branch) << target
        elif gate.kind == "S":
            phase += bit
        else:
            state ^= ((state >> controls[0]) & (state >> controls[1]) & 1) << target
    same = (state[0] == state[1]) & ((state[0] >> (q - 1)) == 1)
    diff = (phase[1] - phase[0]) % 4
    return np.where(same, (diff == 0).astype(np.int64) - (diff == 2), 0)


@pytest.mark.parametrize("samples", [1, 3, 2**15, 2**15 + 1, 70001])
def test_walk_pair_scores_match_the_whole_array_reference(samples):
    # 2**15 + 1 and 70001 samples cross the sampler's 2**14-uniform draw buffer
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 6:
        circ = random_circuit(rng, num_ancilla=2, num_input=2, num_witness=3, gate_count=24)
        if {g.kind for g in circ.gates} != {"H", "S", "TOF"}:
            continue
        x_val = int(rng.integers(1, 4))
        seed = int(rng.integers(0, 2**63))
        scores = qcount.pathsum._walk_pair_scores(circ, x_val, stream(seed), samples)
        assert scores.dtype == np.int8
        np.testing.assert_array_equal(
            scores, reference_walk_pair_scores(circ, x_val, stream(seed), samples)
        )
        checked += 1


@pytest.mark.parametrize(
    "shape",
    [
        dict(num_ancilla=1, num_witness=2, gate_count=4),
        dict(num_ancilla=2, num_witness=13, gate_count=60),
    ],
    ids=["p22-shaped", "m13-shaped"],
)
def test_walk_pair_scores_hold_a_few_bytes_per_sample(shape):
    # two int64 states, two uint8 phases, two uint8 scratch bits and an int8
    # score are 21 bytes a sample; the whole-array reference holds over 100
    circ = random_circuit(np.random.default_rng(99), **shape)
    samples = 1 << 18
    tracemalloc.start()
    try:
        qcount.pathsum._walk_pair_scores(circ, 0, stream(1), samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * samples, peak / samples
