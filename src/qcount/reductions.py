"""Reductions from exact counting to noisy additive count oracles.

Two constructions show that a mildly wrong counting oracle still pins
down spectral structure.

Interval partition: split [0, 1] into M bands with query thresholds
c_i = (M-i)/M, s_i = c_i - 1/(4M), ask a miscounting oracle for every
n_hat_i (i = 1 .. M-1), hardwire n_hat_0 = 0 and n_hat_M = 2**w, and
recombine with weights D_i = c_i + 1/(2M):

    estimate = sum_i D_i (n_hat_i - n_hat_{i-1}).

As long as each answer is N_geq_c_i + delta_i + eps_i with
delta_i in [0, N_[s_i, c_i]] and |eps_i| <= 2**w / M, the estimate
lands within (5/2) 2**w / M of the true trace, whatever strategy the
oracle uses inside its allowance.  With M > 5/(c-s) that error is
below half the promise gap, so comparing against (c+s)/2 decides.

Padding: tensoring l = floor(w/(1-c)) + 2 idle witness qubits onto the
verifier multiplies every exact count by 2**l while an additive oracle
with normalization 2**(c (w+l)) gains accuracy only like 2**(c l), so
dividing its answer by 2**l and rounding recovers an exact member of
the counting interval.  Setup is rejected unless
eps * 2**(w - (1-c) l) < 1/2.

The MiscountingOracle here simulates the adversary: it answers from the
exact spectrum plus the worst (or random, or no) slack its contract
allows, logging every query.  It can also answer from the genuine
sampling pipeline (SVT amplification + median-amplified trace
estimation), in which case its slack is real noise rather than an
injected strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import VerifierCircuit, _parse_bits
from .errors import CapExceeded, InvariantViolation, PreconditionError
from .estimators import make_trace_estimator, median_amplify, median_repetitions
from .limits import PARTITION_CAP, ceil_quotient, check_draws
from .rngstreams import stream
from .spectral import (
    AUDIT_SLACK,
    SpectralCount,
    build_acceptance_operator,
    check_promise,
    trace_normalized,
)
from .svt import band_polynomial

DELTA_STRATEGIES = ("zero", "max", "random")
EPS_STRATEGIES = ("zero", "adversarial", "random")
MIN_HEADROOM = 0.05  # smallest supported 1 - c for the padding exponent
ESTIMATOR_DELTA = 1e-3  # failure probability of each estimator-backed answer


@dataclass(frozen=True)
class IntervalPartition:
    """The M-1 query intervals of a partition of [0, 1] into M bands."""

    M: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise PreconditionError(f"partition needs M >= 2, got {self.M}")
        if self.M > PARTITION_CAP:
            raise CapExceeded(f"partition M={self.M} exceeds the {PARTITION_CAP}-band cap")

    def intervals(self) -> list[tuple[float, float]]:
        """The M-1 queried (s_i, c_i) pairs, i = 1 .. M-1, in query order."""
        M = self.M
        return [((M - i) / M - 1.0 / (4.0 * M), (M - i) / M) for i in range(1, M)]


class MiscountingOracle:
    """Simulated additive count oracle with a bounded, logged error budget.

    Answers query(c, s) with N_geq_c + delta + eps where delta is within
    [0, N_[s,c]] (strategy: zero, max, or random) and |eps| is within
    eps_bound * u for normalization u = 2**(u_exponent * w_total).
    pad_qubits idle witness qubits are accounted for by multiplicity
    (the tensor identity is verified directly elsewhere), so w_total =
    w + pad_qubits.  With backing="estimator" the answer instead comes
    from SVT amplification plus median-amplified trace sampling, so it
    takes no strategy and no padding, and the error budget must absorb
    genuine noise; every query is audited against the exact range
    either way.  Only the rectangle polynomial changes between
    estimator-backed queries: the first such query decomposes the
    oracle's operator, its block encoding, in one stacked eigh that
    every later query reuses, so there is one embedding and one eigh
    per oracle.  The exact backing never decomposes beyond eigvalsh;
    the estimator backing checks its per-query sample count against
    SAMPLE_CAP before anything is built.
    """

    def __init__(
        self,
        circuit: VerifierCircuit,
        x: str = "",
        *,
        eps_bound: float,
        delta_strategy: str = "zero",
        eps_strategy: str = "zero",
        seed: int = 0,
        pad_qubits: int = 0,
        u_exponent: float = 1.0,
        backing: str = "exact",
    ):
        if delta_strategy not in DELTA_STRATEGIES:
            raise PreconditionError(
                f"delta_strategy must be one of {DELTA_STRATEGIES}, got {delta_strategy!r}"
            )
        if eps_strategy not in EPS_STRATEGIES:
            raise PreconditionError(
                f"eps_strategy must be one of {EPS_STRATEGIES}, got {eps_strategy!r}"
            )
        if backing not in ("exact", "estimator"):
            raise PreconditionError(f"backing must be exact or estimator, got {backing!r}")
        if not eps_bound >= 0:
            raise PreconditionError(f"eps_bound must be nonnegative, got {eps_bound}")
        if pad_qubits < 0:
            raise PreconditionError(f"pad_qubits must be nonnegative, got {pad_qubits}")
        injected = pad_qubits or delta_strategy != "zero" or eps_strategy != "zero"
        if backing == "estimator" and injected:
            raise PreconditionError("estimator backing samples its error: no padding or strategies")
        _parse_bits(x, circuit.num_input, "input bits")
        if backing == "estimator":
            if not eps_bound > 0:
                raise PreconditionError("estimator backing needs a positive eps_bound")
            # per query: radius eps/2 at confidence 3/4 needs M >= 4/(eps/2)^2
            self._samples = ceil_quotient(4.0, (eps_bound / 2.0) * (eps_bound / 2.0))
            check_draws(2 * self._samples, f"eps_bound={eps_bound}")
        self.circuit = circuit
        self.x = x
        self.eps_bound = eps_bound
        self.delta_strategy = delta_strategy
        self.eps_strategy = eps_strategy
        self.seed = seed
        self.pad_qubits = pad_qubits
        self.u_exponent = u_exponent
        self.backing = backing
        self.operator = build_acceptance_operator(circuit, x)
        self.multiplicity = 1 << pad_qubits
        self.w_total = circuit.num_witness + pad_qubits
        self.normalization = 2.0 ** (u_exponent * self.w_total)
        self.query_log: list[dict] = []
        self._queries = 0

    def query(self, c: float, s: float) -> float:
        """One noisy count answer for thresholds (c, s), appended to the log."""
        # checks (c, s) before the query counter moves
        count = SpectralCount.of(self.operator.eigenvalues, c, s)
        rng = stream(self.seed, jump=self._queries)
        self._queries += 1
        mult = self.multiplicity
        n_c = count.n_geq_c * mult
        n_interval = count.n_interval * mult
        budget = self.eps_bound * self.normalization
        if self.backing == "exact":
            if self.delta_strategy == "zero":
                delta = 0.0
            elif self.delta_strategy == "max":
                delta = float(n_interval)
            else:
                delta = float(rng.integers(0, n_interval + 1))
            if self.eps_strategy == "zero":
                eps = 0.0
            elif self.eps_strategy == "adversarial":
                eps = budget
            else:
                eps = float(rng.uniform(-budget, budget))
            answer = n_c + delta + eps
        else:
            answer = self._estimator_answer(c, s, rng)
            delta = float("nan")
            eps = float("nan")
        # n_interval can double-count an eigenvalue sitting exactly at c,
        # so the honest ceiling is n_c + n_interval, not n_s
        lo = n_c - budget - AUDIT_SLACK
        hi = n_c + n_interval + budget + AUDIT_SLACK
        if not lo <= answer <= hi:
            raise InvariantViolation(
                f"oracle answer {answer} escapes its allowed range "
                f"[{lo}, {hi}] at thresholds ({c}, {s})"
            )
        self.query_log.append(
            {
                "c": c,
                "s": s,
                "n_geq_c": n_c,
                "n_geq_s": count.n_geq_s * mult,
                "n_interval": n_interval,
                "delta": delta,
                "eps": eps,
                "answer": answer,
            }
        )
        return answer

    def _estimator_answer(self, c: float, s: float, rng: np.random.Generator) -> float:
        """Genuinely sampled answer: amplify at (sqrt(c), sqrt(s)), then estimate.

        The declared eps_bound is split between amplification loss and
        sampling error; the range audit in query() then checks the split
        actually held for this run.
        """
        samp_eps = self.eps_bound / 2.0
        poly = band_polynomial(math.sqrt(c), math.sqrt(s), self.eps_bound / 4.0)
        # per-witness probabilities: the amplified diagonal sum_j |V_yj|^2 P(sigma_j)^2 by block,
        # clipped like any diagonal (P is checked on a grid, not between its points)
        sigma, vecs = self.operator.svd
        amplified = np.einsum("bij,bj->bi", np.abs(vecs) ** 2, poly(sigma) ** 2)
        probs = np.empty(self.operator.dim)
        probs[self.operator.order] = np.clip(amplified, 0.0, 1.0).ravel()
        # the other eps/2 absorbs the amplification's (2e-e^2) trace loss
        base = make_trace_estimator(
            self.circuit, self.x, self._samples, probabilities=probs, epsilon=samp_eps
        )
        k = median_repetitions(ESTIMATOR_DELTA)
        sub_seed = int(rng.integers(0, 2**63))
        return median_amplify(base, k, sub_seed).value


@dataclass(frozen=True)
class IntervalTraceResult:
    """Recovered trace with its certified worst-case error bound."""

    estimate: float
    error_bound: float
    M: int
    n_hat: tuple[float, ...]
    exact_trace: float
    abs_error: float

    @property
    def within_bound(self) -> bool:
        """Whether the recovery error met its certified bound."""
        return self.abs_error <= self.error_bound + AUDIT_SLACK


def interval_partition_trace(oracle: MiscountingOracle, M: int) -> IntervalTraceResult:
    """Recover the trace from M-1 noisy interval counts.

    The oracle's error allowance must be at most 2**w_total / M (the
    eps = 1/M setting of the underlying argument, scaled by the
    normalization); anything looser voids the certified bound.
    """
    partition = IntervalPartition(M)
    if oracle.pad_qubits or oracle.u_exponent != 1.0:
        raise PreconditionError("interval recovery expects an unpadded, u = 2**w oracle")
    dim = float(1 << oracle.w_total)
    if oracle.eps_bound * oracle.normalization > dim / M + AUDIT_SLACK:
        raise PreconditionError(
            f"oracle allows errors up to {oracle.eps_bound * oracle.normalization}, "
            f"more than the 2**w / M = {dim / M} the bound needs"
        )
    n_hat = [0.0] + [oracle.query(c, s) for s, c in partition.intervals()] + [dim]
    estimate = 0.0
    for i in range(1, M + 1):  # weight D_i = c_i + 1/(2M), c_M = 0
        estimate += ((M - i) / M + 1.0 / (2.0 * M)) * (n_hat[i] - n_hat[i - 1])
    exact = trace_normalized(oracle.operator) * dim
    bound = 2.5 * dim / M
    return IntervalTraceResult(
        estimate=estimate,
        error_bound=bound,
        M=M,
        n_hat=tuple(n_hat),
        exact_trace=exact,
        abs_error=abs(estimate - exact),
    )


def decide_by_interval_recovery(
    oracle: MiscountingOracle, c: float, s: float
) -> tuple[str, IntervalTraceResult]:
    """YES/NO for the promise (trace/2**w >= c or <= s) via the reduction."""
    check_promise(c, s)
    M = ceil_quotient(5.0, c - s) + 1
    if M > PARTITION_CAP:
        raise CapExceeded(
            f"gap c - s = {c - s} needs M={M} bands, over the {PARTITION_CAP}-band cap"
        )
    result = interval_partition_trace(oracle, M)
    dim = float(1 << oracle.w_total)
    answer = "YES" if result.estimate / dim >= (c + s) / 2.0 else "NO"
    return answer, result


@dataclass(frozen=True)
class PaddingResult:
    """Exact interval member recovered from one padded noisy query."""

    count: int
    pad_qubits: int
    raw_answer: float
    normalization: float
    n_geq_c: int
    n_geq_s: int
    rounding_margin: float

    @property
    def in_interval(self) -> bool:
        """Whether the recovered count is a member of the exact interval [N_geq_c, N_geq_s]."""
        return self.n_geq_c <= self.count <= self.n_geq_s


def padding_reduction(
    circuit: VerifierCircuit,
    x: str = "",
    c: float = 0.5,
    *,
    c_threshold: float = 2.0 / 3.0,
    s_threshold: float = 1.0 / 3.0,
    eps: float = 0.9,
    delta_strategy: str = "max",
    eps_strategy: str = "adversarial",
    seed: int = 0,
) -> PaddingResult:
    """Recover an exact counting-interval member through witness padding.

    `c` is the oracle's normalization exponent (accuracy eps * 2**(c w')
    on a w'-witness query); the counting thresholds are c_threshold and
    s_threshold.  The pad length l = floor(w / (1-c)) + 2 always
    satisfies l > w/(1-c) + 1; setup is still rejected when the
    worst-case post-division error eps * 2**(w - (1-c) l) reaches 1/2.
    """
    check_promise(c_threshold, s_threshold)
    if not 0.0 < c < 1.0:
        raise PreconditionError(f"normalization exponent must lie in (0, 1), got {c}")
    if 1.0 - c < MIN_HEADROOM:
        raise PreconditionError(
            f"normalization exponent leaves headroom {1.0 - c}, below the "
            f"supported floor {MIN_HEADROOM}"
        )
    if not eps > 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    w = circuit.num_witness
    pad = math.floor(w / (1.0 - c)) + 2
    margin = eps * 2.0 ** (w - (1.0 - c) * pad)
    if margin >= 0.5:
        raise PreconditionError(
            f"infeasible: eps * 2**(w - (1-c) l) = {margin} >= 1/2 at l={pad}"
        )
    oracle = MiscountingOracle(
        circuit,
        x,
        eps_bound=eps,
        delta_strategy=delta_strategy,
        eps_strategy=eps_strategy,
        seed=seed,
        pad_qubits=pad,
        u_exponent=c,
    )
    raw = oracle.query(c_threshold, s_threshold)
    count = round(raw / float(1 << pad))
    record = oracle.query_log[-1]
    return PaddingResult(
        count=count,
        pad_qubits=pad,
        raw_answer=raw,
        normalization=oracle.normalization,
        n_geq_c=record["n_geq_c"] // oracle.multiplicity,
        n_geq_s=record["n_geq_s"] // oracle.multiplicity,
        rounding_margin=margin,
    )
