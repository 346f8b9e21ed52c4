"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every threshold here is a hard contract; none is tuned to the run.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from circgen import (
    dense_matrix,
    full_rows,
    gapped_circuit,
    promise_instances,
    random_circuit,
    thresholds_from_sigma_gap,
)
from qcount import (
    MiscountingOracle,
    avg_accept_decider,
    build_acceptance_operator,
    decide_by_interval_recovery,
    degree_budget,
    interval_partition_trace,
    padding_reduction,
    path_sum_exact,
    rect_poly,
    sandwich_bounds,
    witness_probabilities,
)
from qcount.circuit import embedded_witness_matrix
from qcount.estimators import make_trace_estimator
from qcount.rngstreams import stream


def report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def mid_trace_ensemble(seed, count):
    """Random circuits (w <= 4) whose variance law is non-degenerate."""
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < count:
        circ = random_circuit(
            rng,
            num_ancilla=int(rng.integers(1, 3)),
            num_witness=int(rng.integers(1, 5)),
            gate_count=int(rng.integers(3, 25)),
        )
        op = build_acceptance_operator(circ)
        tr = float(np.real(np.trace(dense_matrix(op))))
        if 0.05 * op.dim <= tr <= 0.95 * op.dim:
            kept.append((circ, op, tr))
    return kept


def test_criterion_01_path_sum_identity():
    t0 = time.time()
    rng = np.random.default_rng(1101)
    shapes = [(1, 0), (1, 1), (2, 0)]
    worst = 0.0
    circuits = []
    for _ in range(100):
        a, w = shapes[int(rng.integers(0, 3))]
        circuits.append(
            random_circuit(rng, num_ancilla=a, num_witness=w, gate_count=int(rng.integers(1, 5)))
        )
    for _ in range(50):  # a=2, w=4 with up to 30 gates: N* up to 358 free bits
        circuits.append(
            random_circuit(rng, num_ancilla=2, num_witness=4, gate_count=int(rng.integers(1, 31)))
        )
    for circ in circuits:
        r = path_sum_exact(circ)
        exact = float(np.real(np.trace(dense_matrix(build_acceptance_operator(circ)))))
        worst = max(worst, abs(r.trace - exact))
    elapsed = time.time() - t0
    report(
        1,
        "path-sum identity",
        worst <= 1e-9 and elapsed < 60.0,
        f"worst |(g-f)/2^h - Tr| = {worst:.2e} over {len(circuits)} circuits in {elapsed:.2f}s",
    )


def test_criterion_02_estimator_mean_and_variance():
    t0 = time.time()
    runs, M = 10_000, 16
    worst_z, worst_rel = 0.0, 0.0
    for idx, (circ, op, tr) in enumerate(mid_trace_ensemble(999, 10)):
        base = make_trace_estimator(circ, M=M, probabilities=witness_probabilities(circ))
        gen = stream(2000 + idx)
        values = np.array([base(gen).value for _ in range(runs)])
        var_theory = tr * (op.dim - tr) / M
        z = abs(values.mean() - tr) / math.sqrt(var_theory / runs)
        rel = abs(values.var(ddof=1) - var_theory) / var_theory
        worst_z, worst_rel = max(worst_z, z), max(worst_rel, rel)
    elapsed = time.time() - t0
    report(
        2,
        "estimator mean/variance law",
        worst_z <= 5.0 and worst_rel <= 0.10 and elapsed < 300.0,
        f"worst |mean-Tr|/SE = {worst_z:.2f} (<=5), worst relative variance "
        f"error = {worst_rel:.3f} (<=0.10), 10 circuits x {runs} runs in {elapsed:.1f}s",
    )


def test_criterion_03_chebyshev_concentration():
    worst_rate = 0.0
    for idx, (circ, op, tr) in enumerate(mid_trace_ensemble(999, 10)):
        base = make_trace_estimator(circ, M=64, probabilities=witness_probabilities(circ), epsilon=0.25)
        gen = stream(3000 + idx)
        values = np.array([base(gen).value for _ in range(1000)])
        rate = float(np.mean(np.abs(values - tr) >= 0.25 * op.dim))
        worst_rate = max(worst_rate, rate)
    report(
        3,
        "Chebyshev concentration",
        worst_rate <= 0.25,
        f"worst empirical Pr(|X-Tr| >= 0.25*2^w) = {worst_rate:.4f} "
        f"(bound 0.25), M=64, 10^3 trials per circuit",
    )


def test_criterion_04_interval_recovery_bound():
    M = 32
    rng = np.random.default_rng(1204)
    violations = 0
    worst_ratio = 0.0
    for i in range(50):
        circ = random_circuit(
            rng,
            num_ancilla=int(rng.integers(1, 3)),
            num_witness=int(rng.integers(1, 4)),
            gate_count=int(rng.integers(2, 20)),
        )
        for ds, es in itertools.product(
            ("zero", "max", "random"), ("zero", "adversarial", "random")
        ):
            oracle = MiscountingOracle(
                circ,
                eps_bound=1.0 / M,
                delta_strategy=ds,
                eps_strategy=es,
                seed=i,
            )
            r = interval_partition_trace(oracle, M)
            worst_ratio = max(worst_ratio, r.abs_error / r.error_bound)
            if r.abs_error > r.error_bound + 1e-9:
                violations += 1
    report(
        4,
        "interval recovery bound",
        violations == 0,
        f"0 violations in 50 circuits x 9 adversary combos at M={M}; "
        f"worst error/bound ratio = {worst_ratio:.3f}",
    )


def test_criterion_05_decision_via_reduction():
    c, s = 2.0 / 3.0, 1.0 / 3.0
    M = math.ceil(5.0 / (c - s)) + 1
    combos = list(
        itertools.product(("zero", "max", "random"), ("zero", "adversarial", "random"))
    )
    correct = 0
    instances = promise_instances(888, 50)
    for i, (circ, x, truth) in enumerate(instances):
        ds, es = combos[i % len(combos)]
        oracle = MiscountingOracle(
            circ, x, eps_bound=1.0 / M, delta_strategy=ds, eps_strategy=es, seed=i
        )
        answer, _ = decide_by_interval_recovery(oracle, c, s)
        correct += answer == truth
    report(
        5,
        "decision via interval recovery",
        correct == len(instances),
        f"{correct}/{len(instances)} promise-valid instances decided "
        f"correctly at M={M} under cycling adversary strategies",
    )


def test_criterion_06_padding_recovers_interval_member():
    rng = np.random.default_rng(777)
    failures = 0
    for i in range(50):
        circ = gapped_circuit(rng, 1.0 / 3.0, 2.0 / 3.0, num_witness=int(rng.integers(1, 4)))
        exact = int(
            np.sum(build_acceptance_operator(circ).eigenvalues >= 2.0 / 3.0 - 1e-12)
        )
        for ds, es in itertools.product(("zero", "max"), ("zero", "adversarial")):
            r = padding_reduction(
                circ, c=0.5, eps=0.9, delta_strategy=ds, eps_strategy=es, seed=i
            )
            if not r.in_interval or r.count != exact:
                failures += 1
    report(
        6,
        "padding reduction",
        failures == 0,
        "50 gapped circuits (w <= 3), eps=0.9, exponent 0.5: rounded answer "
        "in the exact interval under every noise combo, 0 failures",
    )


def test_criterion_07_rectangle_polynomial_grid():
    rows = []
    ok = True
    for delta, eps in itertools.product((0.2, 0.1, 0.05), (0.1, 0.01)):
        t0 = time.time()
        poly = rect_poly(0.5, delta, eps)
        elapsed = time.time() - t0
        rep = poly.report
        budget = degree_budget(delta, eps)
        good = (
            rep["violations"] == 0
            and rep["grid_points"] >= 10_000
            and poly.degree <= budget
            and elapsed < 10.0
        )
        ok &= good
        rows.append(f"d={delta},e={eps}:deg {poly.degree}<={budget},{elapsed:.2f}s")
    report(7, "rectangle polynomial grid", ok, "; ".join(rows))


def sandwich_test_circuits(seed, count):
    """Circuits paired with thresholds whose band no singular value enters."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        circ = random_circuit(
            rng,
            num_ancilla=int(rng.integers(1, 3)),
            num_witness=int(rng.integers(1, 3)),
            gate_count=int(rng.integers(2, 20)),
        )
        op = build_acceptance_operator(circ)
        picked = thresholds_from_sigma_gap(op.singular_values)
        if picked is not None:
            out.append((circ, op, picked))
    return out


def test_criterion_08_trace_sandwich():
    eps = 0.01
    violations = 0
    for circ, op, (c, s) in sandwich_test_circuits(1448, 50):
        bounds = sandwich_bounds(op, c, s, eps)
        if bounds.sigma_in_gap != 0 or not bounds.satisfied:
            violations += 1
    report(
        8,
        "trace sandwich",
        violations == 0,
        f"0 violations on 50 circuits with per-circuit thresholds from "
        f"singular-value gaps, eps={eps}",
    )


def test_criterion_09_block_encoding_consistency():
    rng = np.random.default_rng(1500)
    worst = 0.0
    for _ in range(60):
        circ = random_circuit(
            rng,
            num_ancilla=int(rng.integers(1, 3)),
            num_input=int(rng.integers(0, 3)),
            num_witness=int(rng.integers(0, 4)),
            gate_count=int(rng.integers(1, 25)),
        )
        n = circ.num_input
        x = "".join(str(int(b)) for b in rng.integers(0, 2, size=n)) if n else ""
        # the output block U from the embed, decomposed here, not by the core
        ve = full_rows(embedded_witness_matrix(circ, x), circ)
        sigma = np.linalg.svd(ve[ve.shape[0] // 2 :], compute_uv=False)
        eigs = build_acceptance_operator(circ, x).eigenvalues
        worst = max(worst, float(np.max(np.abs(np.sort(sigma**2) - np.sort(eigs)))))
    report(
        9,
        "block-encoding consistency",
        worst <= 1e-9,
        f"worst max|sigma(U)^2 - lambda(V_x)| = {worst:.2e} over 60 circuits",
    )


def test_criterion_10_average_accept_decider():
    eps = 1.0 / 6.0 - 0.01
    trials = 1000
    worst_rate = 1.0
    for circ, x, truth in promise_instances(555, 4):
        probs = witness_probabilities(circ, x)
        hits = sum(
            avg_accept_decider(circ, x, seed=seed, epsilon=eps, probabilities=probs).answer
            == truth
            for seed in range(trials)
        )
        worst_rate = min(worst_rate, hits / trials)
    report(
        10,
        "average-accept decider",
        worst_rate >= 0.66,
        f"worst per-instance correct rate = {worst_rate:.3f} (floor 0.66) "
        f"over 8 instances x {trials} trials, eps = 1/6 - 0.01",
    )


def test_criterion_11_cli_byte_determinism(tmp_path):
    x_path = tmp_path / "x.qcv"
    x_path.write_text("registers: ancilla=1 input=0 witness=1\nX 0\n")
    h_path = tmp_path / "h.qcv"
    h_path.write_text("registers: ancilla=1 input=0 witness=1\nH 0\n")
    invocations = [
        ["estimate-trace", str(x_path), "--M", "64", "--seed", "11"],
        ["path-sum", str(x_path), "--mode", "sampled", "--samples", "128", "--seed", "5"],
        ["decide-avg-accept", str(h_path), "--seed", "21"],
        [
            "reduce-interval", str(h_path), "--M", "8",
            "--delta-strategy", "random", "--eps-strategy", "random", "--seed", "13",
        ],
        ["reduce-interval", str(h_path), "--M", "4", "--mode", "estimator", "--seed", "3"],
        [
            "reduce-pad", str(h_path), "--u-exponent", "0.5", "--eps", "0.9",
            "--delta-strategy", "random", "--eps-strategy", "random", "--seed", "99",
        ],
    ]
    mismatches = []
    for args in invocations:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "qcount.cli", *args],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        json.loads(outs[0])  # each run emits one well-formed record
        if outs[0] != outs[1]:
            mismatches.append(args[0])
    report(
        11,
        "CLI byte determinism",
        not mismatches,
        f"{len(invocations)} stochastic invocations byte-identical across "
        f"seeded re-runs" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
