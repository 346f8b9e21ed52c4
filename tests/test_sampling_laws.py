"""The samplers against their exact laws, and each claimed delta against the exact tail.

A trace-estimator run of M samples hits Binomial(M, Tr / 2**w) times; a
walk pair scores +1 and -1 with probabilities g / 2**(w + 2h) and
f / 2**(w + 2h) from the exact path tallies.  Both laws come from the
dense oracle, and the tails of the second are trinomial.  Each claimed
delta is the one Hoeffding law 2 exp(-2 S eps^2 / r^2), r = 1 for coins
and 2 for walk pairs; the estimator-backed oracle's answer is one coin
run sized to fail w.p. at most ESTIMATOR_DELTA.  Seeds and thresholds
are fixed, so each check is deterministic.
"""

import math

import numpy as np
import pytest

import qcount.reductions
import qcount.rngstreams
from circgen import random_circuit
from qcount import (
    MiscountingOracle,
    accept_probability,
    interval_partition_trace,
    path_sum_estimator,
    path_sum_exact,
    quantum_trace_estimator,
    witness_probabilities,
)
from qcount.circuit import parse_circuit
from qcount.estimators import trace_estimate
from qcount.pathsum import _walk_pair_scores
from qcount.reductions import ESTIMATOR_DELTA
from qcount.rngstreams import stream

X_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")
H_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nH 0\n")
CHI2_999 = (10.83, 13.82, 16.27, 18.47, 20.52, 22.46, 24.32, 26.12)  # 0.999 quantiles, df 1..8
TIE = 1e-12  # a deviation this close to eps counts as a failure


def binomial_pmf(n: int, p: float) -> np.ndarray:
    return np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])


def pooled_chi_square(observed, expected) -> tuple[float, int]:
    """Pearson statistic over runs of cells pooled until each expects >= 5, and its df."""
    cells, obs, exp = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            cells.append([obs, exp])
            obs = exp = 0.0
    cells[-1][0] += obs  # the short tail joins the last full cell
    cells[-1][1] += exp
    return sum((o - e) ** 2 / e for o, e in cells), len(cells) - 1


@pytest.mark.parametrize(
    "seed, num_witness, gate_count",
    [(505, 4, 24), (525, 4, 24), (506, 8, 40)],
    ids=["w4-embed", "w4-embed-mixed", "w8-simulated"],
)
def test_trace_sampler_hits_are_binomial(seed, num_witness, gate_count):
    # each circuit's witnesses accept with different probabilities, so a
    # skewed witness pick moves the law; w8 draws 16 M < 2**w samples, so
    # trace_estimate would simulate each sampled witness: the runs are handed
    # the biases it would read, computed once
    circ = random_circuit(
        np.random.default_rng(seed), num_ancilla=2, num_witness=num_witness, gate_count=gate_count
    )
    dim = 1 << num_witness
    probs = witness_probabilities(circ)
    p = float(probs.sum()) / dim
    assert 0.1 < p < 0.9
    M, runs = 8, 2000
    if 16 * M < dim:
        probs = np.array([accept_probability(circ, y) for y in range(dim)])
    gen = stream(seed)
    hits = [
        round(trace_estimate(circ, "", M, gen, probabilities=probs).value * M / dim)
        for _ in range(runs)
    ]
    stat, df = pooled_chi_square(np.bincount(hits, minlength=M + 1), runs * binomial_pmf(M, p))
    assert df >= 2
    assert stat <= CHI2_999[df - 1]


def test_walk_pair_scores_follow_the_path_tallies():
    circ = random_circuit(np.random.default_rng(408), num_ancilla=2, num_witness=3, gate_count=12)
    exact = path_sum_exact(circ)
    pairs = 1 << (circ.num_witness + 2 * exact.h)
    n = 1 << 20
    scores = _walk_pair_scores(circ, 0, stream(4), n)
    for outcome, tally in ((1, exact.g), (-1, exact.f)):
        p = tally / pairs
        z = (np.count_nonzero(scores == outcome) - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) <= 4.0, (outcome, z)


def binomial_tail_max(n: int, eps: float) -> float:
    """Largest Pr(|K/n - p| >= eps) over a grid of p, K ~ Binomial(n, p)."""
    grid = np.linspace(0.0, 1.0, 41)
    misses = np.abs(np.arange(n + 1)[:, None] / n - grid)
    pmf = np.stack([binomial_pmf(n, p) for p in grid], axis=1)
    return float((pmf * (misses >= eps - TIE)).sum(axis=0).max())


def test_coin_hoeffding_delta_bounds_the_exact_binomial_tail():
    # hits K ~ Binomial(M, p); the estimate misses when |K/M - p| >= eps.
    # "edge" sits just above M eps^2 = ln(2) / 2, below which delta would reach 1
    for M in (1, 2, 3, 5, 8, 13, 32, 64):
        edge = math.sqrt(math.log(2.0) / (2.0 * M)) * (1.0 + 1e-9)
        for eps in (None, edge, 0.1, 0.2, 0.3, 0.5, 0.9):
            if eps is not None and M * eps * eps <= math.log(2.0) / 2.0:
                continue  # unattainable: the estimator refuses it
            est = quantum_trace_estimator(X_CIRC, M=M, seed=0, epsilon=eps)
            assert binomial_tail_max(M, est.epsilon) <= est.delta, (M, eps)


@pytest.mark.parametrize("eps_bound, samples", [(0.25, 244), (0.125, 973)])
def test_estimator_oracle_answers_from_one_run_within_its_delta(monkeypatch, eps_bound, samples):
    # the oracle's one run of S coins misses by eps_bound / 2 (times 2**w)
    # w.p. at most ESTIMATOR_DELTA, exactly and by the run's own claim
    runs = []
    estimate = qcount.reductions.trace_estimate

    def recording(*args, **kwargs):
        runs.append(estimate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(qcount.reductions, "trace_estimate", recording)
    oracle = MiscountingOracle(H_CIRC, eps_bound=eps_bound, backing="estimator", seed=1)
    oracle.query(2.0 / 3.0, 1.0 / 3.0)
    (run,) = runs
    assert (run.samples, run.epsilon) == (samples, eps_bound / 2.0)
    assert run.delta <= ESTIMATOR_DELTA
    assert binomial_tail_max(samples, eps_bound / 2.0) <= ESTIMATOR_DELTA


def test_estimator_oracle_query_draws_only_its_own_stream(qcount_calls):
    # query i runs on stream(seed, i) itself: no sub-seed, no jumped substreams
    streams = qcount_calls(qcount.rngstreams.stream)
    oracle = MiscountingOracle(H_CIRC, eps_bound=1.0 / 8, backing="estimator", seed=7)
    interval_partition_trace(oracle, 8)
    assert streams == [(7, i) for i in range(7)]


def test_hoeffding_delta_bounds_the_exact_trinomial_tail():
    # n+ and n- pairs score +1 and -1; the estimate misses when
    # |(n+ - n-)/S - (q+ - q-)| >= eps
    grid = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
    laws = [(a, b) for a in grid for b in grid[:4] if a + b <= 1.0]
    for S in (1, 2, 4, 9, 16, 40):
        up, down = np.meshgrid(np.arange(S + 1), np.arange(S + 1), indexing="ij")
        rest = np.maximum(S - up - down, 0)
        ways = np.array(  # zero where up + down > S
            [[math.comb(S, i) * math.comb(S - i, j) for j in range(S + 1)] for i in range(S + 1)],
            dtype=float,
        )
        for eps in (None, 0.3, 0.5, 0.9):
            if eps is not None and S * eps * eps <= 2.0 * math.log(2.0):
                continue  # unattainable: the estimator refuses it
            est = path_sum_estimator(X_CIRC, samples=S, seed=0, epsilon=eps)
            for q_up, q_down in laws:
                pmf = ways * q_up**up * q_down**down * (1.0 - q_up - q_down) ** rest
                miss = np.abs((up - down) / S - (q_up - q_down)) >= est.epsilon - TIE
                tail = float((pmf * miss).sum())
                assert tail <= est.delta, (S, eps, q_up, q_down)
