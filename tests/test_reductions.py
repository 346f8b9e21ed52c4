"""Counting-oracle reductions: interval recovery, decision, and padding."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import qcount.circuit
import qcount.reductions
import qcount.spectral
import qcount.svt
from circgen import dense_matrix, ensemble, gapped_circuit
from qcount import (
    CapExceeded,
    InvariantViolation,
    IntervalPartition,
    MiscountingOracle,
    PreconditionError,
    build_acceptance_operator,
    decide_by_interval_recovery,
    interval_partition_trace,
    padding_reduction,
)
from qcount.circuit import VerifierCircuit, parse_circuit
from qcount.limits import PARTITION_CAP
from qcount.reductions import DELTA_STRATEGIES, EPS_STRATEGIES

X_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
H_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nH 0\n")
ID_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\n")


@pytest.mark.parametrize("M", [2, 8, 64, 256])
def test_partition_formulas(M):
    # bit for bit: c_i = (M-i)/M and s_i = c_i - 1/(4M), i = 1 .. M-1
    pairs = IntervalPartition(M).intervals()
    expected = [((M - i) / M - 1.0 / (4.0 * M), (M - i) / M) for i in range(1, M)]
    assert np.array_equal(np.array(pairs).view(np.uint64), np.array(expected).view(np.uint64))
    assert pairs[0] == (1.0 - 1.25 / M, 1.0 - 1.0 / M)
    assert pairs[-1] == (0.75 / M, 1.0 / M)


@pytest.mark.parametrize("M", [2, 8, 64, 256])
def test_partition_intervals_disjoint(M):
    pairs = IntervalPartition(M).intervals()
    assert len(pairs) == M - 1
    for (s_hi, c_hi), (s_lo, c_lo) in zip(pairs, pairs[1:]):
        assert c_lo < s_hi  # queried bands never overlap


def test_partition_validation():
    with pytest.raises(PreconditionError):
        IntervalPartition(1)
    IntervalPartition(PARTITION_CAP)
    with pytest.raises(CapExceeded, match=f"M={PARTITION_CAP + 1} exceeds"):
        IntervalPartition(PARTITION_CAP + 1)


def test_worked_recovery_half_identity():
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.0)
    r = interval_partition_trace(oracle, 8)
    assert r.estimate == pytest.approx(1.125, abs=1e-12)
    assert r.abs_error <= r.error_bound == pytest.approx(0.625)
    # the count jumps 0 -> 2 exactly at the c_4 = 0.5 threshold
    assert r.n_hat[3] == 0.0 and r.n_hat[4] == 2.0


@pytest.mark.parametrize("M", [8, 32])
def test_worked_recovery_sure_acceptor(M):
    oracle = MiscountingOracle(X_CIRC, eps_bound=0.0)
    r = interval_partition_trace(oracle, M)
    assert r.estimate == pytest.approx(2.0 - 1.0 / M, abs=1e-12)


def test_query_counts_telescope():
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.0)
    r = interval_partition_trace(oracle, 16)
    increments = np.diff(np.array(r.n_hat))
    assert increments.sum() == pytest.approx(1 << H_CIRC.num_witness)


def test_all_adversary_combinations_respect_bound():
    M = 16
    for circ, x in ensemble(601, 6, max_ancilla=2, max_witness=3):
        for ds, es in itertools.product(DELTA_STRATEGIES, EPS_STRATEGIES):
            oracle = MiscountingOracle(
                circ, x, eps_bound=1.0 / M, delta_strategy=ds, eps_strategy=es, seed=9
            )
            r = interval_partition_trace(oracle, M)
            dim = 1 << oracle.w_total
            assert r.abs_error <= r.error_bound + 1e-9
            assert r.error_bound == pytest.approx(2.5 * dim / M)
            assert len(oracle.query_log) == M - 1


def test_query_log_is_audited():
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.25, delta_strategy="max", seed=3)
    oracle.query(0.6, 0.4)
    rec = oracle.query_log[-1]
    assert rec["n_geq_c"] == 0 and rec["n_interval"] == 2
    assert rec["answer"] == rec["n_geq_c"] + rec["delta"] + rec["eps"]
    assert abs(rec["eps"]) <= 0.25 * oracle.normalization + 1e-12


def test_oracle_validation():
    for bad in (-0.1, float("nan")):
        with pytest.raises(PreconditionError):
            MiscountingOracle(H_CIRC, eps_bound=bad)
    with pytest.raises(PreconditionError):
        MiscountingOracle(H_CIRC, eps_bound=0.1, delta_strategy="worst")
    with pytest.raises(PreconditionError):
        MiscountingOracle(H_CIRC, eps_bound=0.1, eps_strategy="big")
    with pytest.raises(PreconditionError):
        MiscountingOracle(H_CIRC, eps_bound=0.1, backing="quantum")
    with pytest.raises(PreconditionError):
        MiscountingOracle(H_CIRC, eps_bound=0.1, backing="estimator", pad_qubits=1)
    with pytest.raises(PreconditionError, match="pad_qubits must be nonnegative"):
        MiscountingOracle(H_CIRC, eps_bound=0.1, pad_qubits=-1)
    with pytest.raises(PreconditionError, match="estimator backing needs a positive eps_bound"):
        MiscountingOracle(H_CIRC, eps_bound=0.0, backing="estimator")
    # the estimator backing's error is sampled: it has no strategy to apply
    for strategies in ({"delta_strategy": "max"}, {"eps_strategy": "adversarial"}):
        with pytest.raises(PreconditionError, match="no padding or strategies"):
            MiscountingOracle(H_CIRC, eps_bound=0.1, backing="estimator", **strategies)
    # (eps/2)**2 is subnormal at 1e-160 (4 / it overflows) and 0 at 1e-200
    for eps in (1e-160, 1e-200):
        with pytest.raises(CapExceeded, match=f"eps_bound={eps} needs inf draws"):
            MiscountingOracle(H_CIRC, eps_bound=eps, backing="estimator")
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.1)
    with pytest.raises(PreconditionError):
        oracle.query(0.4, 0.6)


def test_recovery_rejects_oversized_error_budget():
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.5)
    with pytest.raises(PreconditionError):
        interval_partition_trace(oracle, 8)  # needs eps_bound <= 1/8


def test_recovery_rejects_padded_oracle():
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.01, pad_qubits=2)
    with pytest.raises(PreconditionError):
        interval_partition_trace(oracle, 8)


def test_decide_trivial_instances():
    c, s = 2.0 / 3.0, 1.0 / 3.0
    M = math.ceil(5.0 / (c - s)) + 1
    yes, _ = decide_by_interval_recovery(
        MiscountingOracle(X_CIRC, eps_bound=1.0 / M), c, s
    )
    no, _ = decide_by_interval_recovery(
        MiscountingOracle(ID_CIRC, eps_bound=1.0 / M), c, s
    )
    assert (yes, no) == ("YES", "NO")


def test_decide_names_the_gap_over_the_partition_cap():
    oracle = MiscountingOracle(H_CIRC, eps_bound=1e-6)
    with pytest.raises(CapExceeded, match=r"gap c - s = 1\.0000\d*e-05 needs M=500001 bands"):
        decide_by_interval_recovery(oracle, 0.5, 0.49999)
    with pytest.raises(CapExceeded, match="gap c - s = 5e-324 needs M=inf bands"):
        decide_by_interval_recovery(oracle, 5e-324, 0.0)  # 5 / 5e-324 overflows


def test_padding_worked_example():
    r = padding_reduction(H_CIRC, c=0.5, eps=0.9, seed=0)
    assert r.pad_qubits == 4  # floor(1 / 0.5) + 2
    assert r.rounding_margin == pytest.approx(0.45)
    assert r.n_geq_c <= r.count <= r.n_geq_s
    assert (r.n_geq_c, r.n_geq_s) == (0, 2)


@pytest.mark.parametrize("count,member", [(-1, False), (0, True), (2, True), (3, False)])
def test_padding_in_interval_is_membership_of_the_exact_interval(count, member):
    r = dataclasses.replace(padding_reduction(H_CIRC, c=0.5, eps=0.9, seed=0), count=count)
    assert (r.n_geq_c, r.n_geq_s) == (0, 2)
    assert r.in_interval is member


def test_padding_recovers_exact_count_on_gapped_circuits():
    rng = np.random.default_rng(602)
    for _ in range(10):
        circ = gapped_circuit(rng, 1.0 / 3.0, 2.0 / 3.0, num_witness=2)
        op = build_acceptance_operator(circ)
        exact = int(np.sum(op.eigenvalues >= 2.0 / 3.0 - 1e-12))
        for ds, es in itertools.product(("zero", "max"), ("zero", "adversarial")):
            r = padding_reduction(
                circ, c=0.5, eps=0.9, delta_strategy=ds, eps_strategy=es, seed=5
            )
            assert r.count == exact  # gapped: the interval is a single integer


def test_padding_multiplicity_matches_direct_eigensolve():
    # the padded-oracle shortcut multiplies counts by 2^l; check it against
    # a literal dense build of the padded circuit for small l
    for circ, x in ensemble(603, 5, max_ancilla=1, max_input=1, max_witness=2):
        base = build_acceptance_operator(circ, x)
        for extra in (1, 3):
            wider = VerifierCircuit(
                circ.num_ancilla, circ.num_input, circ.num_witness + extra, circ.gates
            )
            padded = build_acceptance_operator(wider, x)
            tiled = np.sort(np.tile(base.eigenvalues, 1 << extra))
            assert np.allclose(np.sort(padded.eigenvalues), tiled, atol=1e-9)


def test_padding_rejects_bad_thresholds_before_embedding(monkeypatch):
    embeds = []
    monkeypatch.setattr(qcount.spectral, "embedded_witness_matrix", lambda *a: embeds.append(a))
    with pytest.raises(PreconditionError, match="got c=0.3, s=0.6"):
        padding_reduction(H_CIRC, c=0.5, c_threshold=0.3, s_threshold=0.6)
    assert embeds == []


def test_padding_rejects_infeasible_setups():
    with pytest.raises(PreconditionError):
        padding_reduction(H_CIRC, c=0.97, eps=0.9)  # headroom below the floor
    with pytest.raises(PreconditionError):
        padding_reduction(H_CIRC, c=0.9, eps=0.9)  # margin crosses 1/2
    with pytest.raises(PreconditionError):
        padding_reduction(H_CIRC, c=0.5, eps=-1.0)


def test_estimator_backing_answers_within_audit():
    # the query raises InvariantViolation if the sampled answer escapes
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.5, backing="estimator", seed=42)
    answer = oracle.query(2.0 / 3.0, 1.0 / 3.0)
    assert 0.0 - 1.0 - 1e-6 <= answer <= 2.0 + 1.0 + 1e-6
    assert math.isnan(oracle.query_log[-1]["delta"])


def test_estimator_backing_interval_recovery():
    oracle = MiscountingOracle(H_CIRC, eps_bound=0.25, backing="estimator", seed=7)
    r = interval_partition_trace(oracle, 4)
    assert r.abs_error <= r.error_bound


def test_estimator_backing_is_seed_deterministic():
    a = MiscountingOracle(X_CIRC, eps_bound=0.5, backing="estimator", seed=3)
    b = MiscountingOracle(X_CIRC, eps_bound=0.5, backing="estimator", seed=3)
    assert a.query(0.7, 0.2) == b.query(0.7, 0.2)


def test_estimator_amplified_diagonal_matches_a_dense_eigh(monkeypatch):
    # the oracle amplifies block by block; the reference decomposes the
    # assembled dense operator in one eigh
    polys, probs = [], []
    band, estimator = qcount.reductions.band_polynomial, qcount.reductions.make_trace_estimator

    def recording_band(*args):
        polys.append(band(*args))
        return polys[-1]

    def recording_estimator(*args, probabilities, **kwargs):
        probs.append(probabilities)
        return estimator(*args, probabilities=probabilities, **kwargs)

    monkeypatch.setattr(qcount.reductions, "band_polynomial", recording_band)
    monkeypatch.setattr(qcount.reductions, "make_trace_estimator", recording_estimator)
    split = 0
    for circ, x in ensemble(235, 12, max_witness=4):
        oracle = MiscountingOracle(circ, x, eps_bound=1.0 / 8.0, backing="estimator", seed=2)
        if oracle.operator.blocks.shape[0] == 1:
            continue
        split += 1
        del polys[:], probs[:]
        interval_partition_trace(oracle, 8)
        lam, vecs = np.linalg.eigh(dense_matrix(oracle.operator))
        sigma = np.sqrt(np.clip(lam, 0.0, 1.0))
        for poly, got in zip(polys, probs, strict=True):
            ref = np.clip((np.abs(vecs) ** 2) @ (poly(sigma) ** 2), 0.0, 1.0)
            assert np.max(np.abs(got - ref)) <= 1e-12
    assert split >= 3


def test_estimator_backing_builds_one_encoding(monkeypatch):
    # one embed and one eigh per oracle, whatever the number of queries
    calls = {"embed": 0, "svd": 0}
    embed = qcount.circuit.embedded_witness_matrix

    def counting_embed(*args, **kwargs):
        calls["embed"] += 1
        return embed(*args, **kwargs)

    svd = qcount.spectral.AcceptanceOperator.svd.fget

    def counting_svd(self):
        calls["svd"] += self._svd is None
        return svd(self)

    for module in (qcount.spectral, qcount.svt):  # every binding that could embed
        if hasattr(module, "embedded_witness_matrix"):
            monkeypatch.setattr(module, "embedded_witness_matrix", counting_embed)
    monkeypatch.setattr(qcount.spectral.AcceptanceOperator, "svd", property(counting_svd))
    oracle = MiscountingOracle(H_CIRC, eps_bound=1.0 / 8.0, backing="estimator", seed=5)
    r = interval_partition_trace(oracle, 8)
    assert r.abs_error <= r.error_bound
    assert len(oracle.query_log) == 7
    assert calls == {"embed": 1, "svd": 1}
