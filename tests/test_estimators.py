"""Monte Carlo trace estimator: law, amplification, and the decider."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

import qcount.circuit
import qcount.estimators
import qcount.spectral
from circgen import dense_matrix, ensemble, random_circuit, random_input
from qcount import (
    AdditiveEstimate,
    PreconditionError,
    accept_probability,
    avg_accept_decider,
    build_acceptance_operator,
    median_amplify,
    quantum_trace_estimator,
    witness_probabilities,
)
from qcount.circuit import basis_index, parse_circuit
from qcount.errors import CapExceeded
from qcount.estimators import trace_estimate
from qcount.limits import SAMPLE_CAP, dense_qubit_cap
from qcount.rngstreams import index_chunks, stream

X_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
H_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nH 0\n")
ID_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\n")


def test_sure_acceptor_estimates_exactly():
    # every witness accepts with probability 1, so every run returns 2^w
    for seed in range(5):
        est = quantum_trace_estimator(X_CIRC, M=32, seed=seed)
        assert est.value == 2.0


def test_never_acceptor_estimates_exactly():
    for seed in range(5):
        assert quantum_trace_estimator(ID_CIRC, M=32, seed=seed).value == 0.0


def test_estimate_metadata():
    est = quantum_trace_estimator(H_CIRC, M=64, seed=9)
    assert est.samples == 64
    assert est.normalization == 2.0
    assert est.epsilon == pytest.approx(math.sqrt(math.log(8.0) / 128))  # 2 exp(-128 eps^2) = 1/4
    assert est.delta == pytest.approx(0.25)
    assert est.seed == 9


def test_explicit_epsilon_tightens_delta():
    est = quantum_trace_estimator(H_CIRC, M=64, seed=9, epsilon=0.2)
    assert est.delta == pytest.approx(2.0 * math.exp(-2.0 * 64 * 0.04))
    # 9 * 0.19**2 = 0.3249 is below ln(2) / 2 = 0.3466, where 2 exp(-2 M eps^2) reaches 1
    with pytest.raises(PreconditionError, match="unattainable"):
        quantum_trace_estimator(H_CIRC, M=9, seed=0, epsilon=0.19)
    quantum_trace_estimator(H_CIRC, M=9, seed=0, epsilon=0.2)
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="epsilon must be finite"):
            trace_estimate(H_CIRC, "", 64, stream(0), epsilon=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_additive_estimate_rejects_unusable_epsilon(bad):
    with pytest.raises(PreconditionError, match="epsilon must be finite and positive"):
        AdditiveEstimate(
            value=0.0, normalization=1.0, epsilon=bad, delta=0.5, samples=1, seed=0
        )


def test_unbiased_within_standard_error():
    rng = np.random.default_rng(301)
    circ = random_circuit(rng, num_witness=3, gate_count=15)
    op = build_acceptance_operator(circ)
    exact = float(np.real(np.trace(dense_matrix(op))))
    probs = witness_probabilities(circ)
    runs = 4000
    gen = stream(302)
    values = np.array(
        [trace_estimate(circ, "", 8, gen, probabilities=probs).value for _ in range(runs)]
    )
    var_theory = exact * (8.0 - exact) / 8.0  # (1/M) Tr (2^w - Tr)
    se = math.sqrt(var_theory / runs)
    assert abs(values.mean() - exact) <= 5.0 * se


def test_median_of_one_is_the_plain_estimator():
    base = partial(trace_estimate, H_CIRC, "", 16)
    for seed in (0, 7, 123):
        amplified = median_amplify(base, 1, seed)
        plain = quantum_trace_estimator(H_CIRC, M=16, seed=seed)
        assert amplified.value == plain.value


def test_median_amplification_metadata():
    base = partial(trace_estimate, H_CIRC, "", 16)
    est = median_amplify(base, 33, seed=4)
    assert est.samples == 33 * 16
    assert est.delta == pytest.approx(math.exp(-33 / 8.0))
    with pytest.raises(PreconditionError):
        median_amplify(base, 0, seed=1)


@pytest.mark.parametrize("k", [4, 5])
def test_median_amplify_takes_the_middle_runs(k):
    base = partial(trace_estimate, H_CIRC, "", 16)
    values = sorted(base(stream(8, jump=j)).value for j in range(k))
    middle = (values[(k - 1) // 2] + values[k // 2]) / 2.0  # even k: mean of the two
    assert median_amplify(base, k, seed=8).value == middle


def test_median_delta_bounds_the_binomial_tail_of_its_runs():
    # the median misses only when at least ceil(k/2) of k runs, each missing
    # w.p. at most 1/4, do
    base = partial(trace_estimate, H_CIRC, "", 16)
    for k in range(1, 65):
        tail = sum(
            math.comb(k, j) * 0.25**j * 0.75 ** (k - j) for j in range(math.ceil(k / 2), k + 1)
        )
        assert median_amplify(base, k, seed=k).delta >= tail, k


def test_median_refuses_runs_that_fail_too_often():
    loose = partial(trace_estimate, H_CIRC, "", 64, epsilon=0.1)  # delta = 2 exp(-1.28) = 0.56
    runs = []

    def counted(rng):
        runs.append(rng)
        return loose(rng)

    assert median_amplify(counted, 1, seed=4).delta == pytest.approx(2.0 * math.exp(-1.28))
    runs.clear()
    with pytest.raises(PreconditionError, match="fail w.p. at most 1/4"):
        median_amplify(counted, 33, seed=4)
    assert len(runs) == 1  # refused after the first run, before the other 32


def test_underflowing_deltas_are_floored_at_the_smallest_double():
    tiny = math.ulp(0.0)
    assert quantum_trace_estimator(H_CIRC, M=64, seed=1, epsilon=1e200).delta == tiny
    fixed = quantum_trace_estimator(H_CIRC, M=16, seed=1)
    assert median_amplify(lambda rng: fixed, 6000, seed=1).delta == tiny  # exp(-750)


def test_sample_cap_rejects_before_drawing():
    # 2 uniforms per sample: M = SAMPLE_CAP / 2 is the largest accepted
    assert trace_estimate(H_CIRC, "", SAMPLE_CAP // 2, stream(1)).samples == SAMPLE_CAP // 2
    rng = stream(1)
    with pytest.raises(CapExceeded, match="cap"):
        trace_estimate(H_CIRC, "", SAMPLE_CAP // 2 + 1, rng)
    assert rng.random() == stream(1).random()  # nothing drawn
    with pytest.raises(CapExceeded):
        avg_accept_decider(X_CIRC, seed=1, epsilon=1e-7)  # M = 3e14 + 1


def test_a_run_holds_at_most_four_bytes_per_sample():
    # within the dense cap the coin biases come from one embed, made here
    # before the run; the run then holds one uint16 witness per sample and
    # reads its uniforms chunk by chunk
    circ = random_circuit(np.random.default_rng(315), num_ancilla=1, num_witness=10, gate_count=40)
    assert circ.num_qubits <= dense_qubit_cap()
    M = 2**18
    probs = witness_probabilities(circ)
    tracemalloc.start()
    try:
        est = trace_estimate(circ, "", M, stream(1), probabilities=probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < est.value < est.normalization
    assert peak <= 4 * M, peak / M


def test_a_run_past_the_dense_cap_holds_at_most_eight_bytes_per_sample(monkeypatch):
    # past the cap the run sorts its picks once for the distinct witnesses, simulates
    # each once, and rewrites every pick as its rank chunk by chunk: an unchunked
    # remap would hold one int64 per sample
    circ = random_circuit(np.random.default_rng(315), num_ancilla=1, num_witness=10, gate_count=40)
    M = 2**18
    monkeypatch.setenv("QCOUNT_DENSE_CAP", "3")
    assert circ.num_qubits > dense_qubit_cap()
    tracemalloc.start()
    try:
        est = trace_estimate(circ, "", M, stream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    probs = np.array([accept_probability(circ, y) for y in range(1 << circ.num_witness)])
    assert est.value == trace_estimate(circ, "", M, stream(1), probabilities=probs).value
    assert peak <= 8 * M, peak / M


def test_decider_checks_sample_cap_before_building(monkeypatch):
    builds = []
    monkeypatch.setattr(qcount.estimators, "witness_probabilities", lambda *a: builds.append(a))
    with pytest.raises(CapExceeded, match="cap"):
        avg_accept_decider(H_CIRC, seed=1, epsilon=1e-7)
    assert builds == []


@pytest.mark.parametrize("M, embed_calls", [(16, 0), (31, 0), (32, 1), (64, 1)])
def test_in_cap_estimate_embeds_only_past_a_sixteenth(qcount_calls, M, embed_calls):
    # below 2**w / 16 draws an estimate simulates each sampled witness, so a
    # d9-sized circuit (Q = 11, within the dense cap) is never embedded; from
    # there on one embed reads every witness
    embeds = qcount_calls(qcount.circuit.embedded_witness_matrix)
    circ = random_circuit(np.random.default_rng(314), num_ancilla=2, num_witness=9, gate_count=120)
    assert circ.num_qubits == 11 <= dense_qubit_cap()
    est = quantum_trace_estimator(circ, M=M, seed=1)
    assert 0.0 <= est.value <= est.normalization
    assert len(embeds) == embed_calls


def test_witness_picks_past_a_draws_53_bits_are_refused_before_drawing():
    rng = stream(1)
    with pytest.raises(CapExceeded, match="54 witness qubits exceed a draw's 53 bits"):
        index_chunks(rng, 4, 54)
    assert rng.random() == stream(1).random()  # nothing drawn
    [(_, picks)] = index_chunks(stream(1), 4, 53)  # the widest pick: k itself of u = k / 2**53
    assert np.array_equal(picks, stream(1).random(4) * 2.0**53)


def test_negative_epsilon_fails_when_the_estimator_is_built():
    rng = stream(0)
    with pytest.raises(PreconditionError, match="epsilon must be finite and positive"):
        trace_estimate(H_CIRC, "", 64, rng, epsilon=-1.0)
    assert rng.random() == stream(0).random()  # nothing drawn


@pytest.mark.parametrize(
    "num_witness, work",
    [(13, qcount.spectral.accept_probability), (9, qcount.circuit.embedded_witness_matrix)],
    ids=["past-cap-simulations", "in-cap-embeds"],
)
def test_negative_epsilon_fails_before_any_work(qcount_calls, num_witness, work):
    # past the dense cap (Q = 15) each sampled witness would be simulated;
    # within it (Q = 11, 16 M >= 2**w) one embed would read every witness
    calls = qcount_calls(work)
    rng = np.random.default_rng(314)
    circ = random_circuit(rng, num_ancilla=2, num_witness=num_witness, gate_count=120)
    assert (circ.num_qubits > dense_qubit_cap()) == (num_witness == 13)
    with pytest.raises(PreconditionError, match="epsilon must be finite and positive"):
        quantum_trace_estimator(circ, M=64, seed=1, epsilon=-0.5)
    assert calls == []


def test_same_seed_same_value():
    a = quantum_trace_estimator(H_CIRC, M=256, seed=11)
    b = quantum_trace_estimator(H_CIRC, M=256, seed=11)
    assert a.value == b.value
    c = quantum_trace_estimator(H_CIRC, M=256, seed=12)
    assert c.value != a.value or c.seed != a.seed


def test_decider_trivial_instances():
    yes = avg_accept_decider(X_CIRC, seed=3)
    assert yes.answer == "YES" and not yes.promise_violated
    no = avg_accept_decider(ID_CIRC, seed=3)
    assert no.answer == "NO" and not no.promise_violated
    assert yes.samples == math.ceil(3.0 / (1.0 / 9.0) ** 2) + 1  # eps = gap/3


def test_decider_flags_promise_violation():
    # normalized trace exactly 1/2 sits inside the (1/3, 2/3) gap
    r = avg_accept_decider(H_CIRC, seed=5)
    assert r.promise_violated
    assert r.exact_normalized_trace == pytest.approx(0.5, abs=1e-12)


def test_decider_epsilon_override():
    eps = 1.0 / 6.0 - 0.01
    r = avg_accept_decider(X_CIRC, seed=2, epsilon=eps)
    assert r.samples == math.ceil(3.0 / (eps * eps)) + 1
    assert r.epsilon == pytest.approx(eps)


def test_decider_rejects_unusable_epsilon():
    with pytest.raises(PreconditionError):
        avg_accept_decider(X_CIRC, seed=0, epsilon=1.0 / 6.0)  # not < gap/2
    with pytest.raises(PreconditionError):
        avg_accept_decider(X_CIRC, c=0.9, s=0.95, seed=0)


def test_estimator_handles_input_register():
    for circ, x in ensemble(303, 5, max_input=2, max_witness=2):
        est = quantum_trace_estimator(circ, x, M=16, seed=1)
        assert 0.0 <= est.value <= est.normalization
        # the decider's mean is one estimator run on the same stream, over 2**w
        decided = avg_accept_decider(circ, x, seed=1)
        run = trace_estimate(circ, x, decided.samples, stream(1))
        assert decided.mean == run.value / 2**circ.num_witness


def test_route_past_the_dense_cap_agrees_with_the_dense_route(monkeypatch):
    # past the cap every sampled witness is one simulation of the output cone;
    # within it the coins are drawn from the whole diagonal
    rng = np.random.default_rng(313)
    for _ in range(12):
        circ = random_circuit(
            rng, num_ancilla=2, num_input=1, num_witness=3, gate_count=int(rng.integers(1, 40))
        )
        x = random_input(rng, circ)
        probs = witness_probabilities(circ, x)
        dense = [
            trace_estimate(circ, x, 64, stream(seed), probabilities=probs).value
            for seed in range(4)
        ]
        decided = avg_accept_decider(circ, x, seed=5)
        monkeypatch.setenv("QCOUNT_DENSE_CAP", str(circ.num_qubits - 1))
        past = [accept_probability(circ, basis_index(circ, int(x, 2), y)) for y in range(8)]
        assert np.allclose(past, probs, rtol=0.0, atol=1e-12)
        assert [quantum_trace_estimator(circ, x, 64, seed).value for seed in range(4)] == dense
        past_decided = avg_accept_decider(circ, x, seed=5)
        assert (past_decided.mean, past_decided.answer) == (decided.mean, decided.answer)
        assert past_decided.exact_normalized_trace is None
        monkeypatch.delenv("QCOUNT_DENSE_CAP")
