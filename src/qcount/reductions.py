"""Reductions from exact counting to noisy additive count oracles.

Two constructions show that a mildly wrong counting oracle still pins
down spectral structure.

Interval partition: split [0, 1] into M bands with query thresholds
c_i = (M-i)/M, s_i = c_i - 1/(4M), ask a miscounting oracle for every
n_hat_i (i = 1 .. M-1), hardwire n_hat_0 = 0 and n_hat_M = 2**W, and
recombine with weights D_i = c_i + 1/(2M):

    estimate = sum_i D_i (n_hat_i - n_hat_{i-1}).

As long as each answer is N_geq_c_i + delta_i + eps_i with
delta_i in [0, N_[s_i, c_i]] and |eps_i| <= 2**W / M, the estimate
lands within RECOVERY_ERROR = 5/2 times 2**W / M of the true trace,
whatever the oracle does inside that allowance, its one precondition;
W is the witness count of the operator it answers for, w + l for
A tensor I on l idle qubits.  With M > 2 RECOVERY_ERROR / (c-s) that
error is below half the promise gap, so comparing against (c+s)/2
decides.

Padding: tensoring l = floor(w/(1-u)) + 2 idle witness qubits onto the
verifier multiplies every exact count by 2**l while an additive oracle
with normalization 2**(u (w+l)) gains accuracy only like 2**(u l), so
dividing its answer by 2**l and rounding recovers an exact member of
the counting interval.  Setup is rejected unless
eps * 2**(w - (1-u) l) < 1/2.

The MiscountingOracle here simulates the adversary: it answers from the
exact spectrum plus the worst (or random, or no) slack its contract
allows, logging every query.  It can also answer from the genuine
sampling pipeline (SVT amplification + one run of the trace estimator,
sized by coin_samples to fail w.p. at most ESTIMATOR_DELTA), in
which case its slack is real noise rather than an injected strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import VerifierCircuit, _parse_bits
from .errors import CapExceeded, InvariantViolation, PreconditionError
from .estimators import coin_samples, trace_estimate
from .limits import PARTITION_CAP, ceil_quotient
from .rngstreams import check_seed, stream
from .spectral import (
    AUDIT_SLACK,
    AcceptanceOperator,
    SpectralCount,
    build_acceptance_operator,
    check_promise,
    clamp_to_unit,
    trace_normalized,
)
from .svt import RectanglePolynomial, band_polynomial

DELTA_STRATEGIES = ("zero", "max", "random")
EPS_STRATEGIES = ("zero", "adversarial", "random")
MIN_HEADROOM = 0.05  # smallest supported 1 - c for the padding exponent
ESTIMATOR_DELTA = 1e-3  # failure probability of each estimator-backed answer
RECOVERY_ERROR = 2.5  # interval recovery's certified error, in units of 2**W / M


def partition_intervals(M: int) -> list[tuple[float, float]]:
    """The M-1 queried (s_i, c_i) of a partition of [0, 1] into M bands, in query order."""
    if M < 2:
        raise PreconditionError(f"partition needs M >= 2, got {M}")
    if M > PARTITION_CAP:
        raise CapExceeded(f"partition M={M} exceeds the {PARTITION_CAP}-band cap")
    return [((M - i) / M - 1.0 / (4.0 * M), (M - i) / M) for i in range(1, M)]


class MiscountingOracle:
    """Simulated additive count oracle with a bounded, logged error budget.

    Answers query(c, s) with N_geq_c + delta + eps where delta is within
    [0, N_[s,c)] (strategy: zero, max, or random) and |eps| is within
    eps_bound * u for normalization u = 2**(u_exponent * w_total).
    pad_qubits idle witness qubits count by multiplicity, so the oracle
    answers for A tensor I with w_total = w + pad_qubits
    (test_padding_multiplicity_matches_direct_eigensolve checks this).
    A query after i logged answers draws from stream i of the seed, and
    only when a random strategy or the estimator backing reads it.  With
    backing="estimator" the answer instead comes from SVT amplification
    plus one trace-estimator run on that stream, of the coin_samples that
    miss by eps_bound/2 * 2**w w.p. at most ESTIMATOR_DELTA; it takes no
    strategy or padding and u_exponent 1 only, and the error budget must
    absorb genuine noise.  Every query is audited against the exact range
    either way.  The operator is built at its first read, after an
    estimator-backed query has built its rectangle polynomial, so the
    degree cap refuses before any embed; its one stacked eigh then serves
    every later query.  The exact backing never decomposes beyond
    eigvalsh; the estimator backing checks its per-query sample count
    against SAMPLE_CAP before anything is built.  Counts up to 2**w_total
    and the normalization must fit in a double, which is checked first.
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
        if not math.isfinite(u_exponent):
            raise PreconditionError(f"u_exponent must be finite, got {u_exponent}")
        check_seed(seed)  # even where no strategy draws from it
        injected = pad_qubits or delta_strategy != "zero" or eps_strategy != "zero"
        # the sampler's error scales with 2**w, so a smaller u would fail the audit
        if backing == "estimator" and (injected or u_exponent != 1.0):
            raise PreconditionError(
                "estimator backing samples its error: no padding or strategies, u_exponent 1"
            )
        _parse_bits(x, circuit.num_input, "input bits")
        self.w_total = circuit.num_witness + pad_qubits
        exponent = max(1.0, u_exponent) * self.w_total  # counts reach 2**w_total
        if exponent >= 1024:
            raise CapExceeded(f"{self.w_total} witness qubits: 2**{exponent:g} overflows a double")
        if backing == "estimator":
            if not eps_bound > 0:
                raise PreconditionError("estimator backing needs a positive eps_bound")
            self._samples = coin_samples(eps_bound / 2.0, ESTIMATOR_DELTA, f"eps_bound={eps_bound}")
        self.circuit = circuit
        self.x = x
        self.eps_bound = eps_bound
        self.delta_strategy = delta_strategy
        self.eps_strategy = eps_strategy
        self.seed = seed
        self.backing = backing
        self.multiplicity = 1 << pad_qubits
        self.normalization = 2.0 ** (u_exponent * self.w_total)
        self.query_log: list[dict] = []

    @cached_property
    def operator(self) -> AcceptanceOperator:
        """The unpadded acceptance operator, built at its first read."""
        return build_acceptance_operator(self.circuit, self.x)

    def query(self, c: float, s: float) -> float:
        """One noisy count answer for thresholds (c, s), appended to the log."""
        if self.backing == "estimator":  # the degree cap before the embed
            check_promise(c, s)
            poly = band_polynomial(math.sqrt(c), math.sqrt(s), self.eps_bound / 4.0)
        count = SpectralCount.of(self.operator.eigenvalues, c, s)
        draws = self.backing == "estimator" or "random" in (self.delta_strategy, self.eps_strategy)
        rng = stream(self.seed, len(self.query_log)) if draws else None
        mult = self.multiplicity
        n_c = count.n_geq_c * mult
        n_s = count.n_geq_s * mult
        budget = self.eps_bound * self.normalization
        if self.backing == "exact":
            if self.delta_strategy == "zero":
                delta = 0.0
            elif self.delta_strategy == "max":  # the band [s, c) under the tie rule
                delta = float(n_s - n_c)
            else:
                delta = float(rng.integers(0, n_s - n_c + 1))
            if self.eps_strategy == "zero":
                eps = 0.0
            elif self.eps_strategy == "adversarial":
                eps = budget
            else:
                eps = float(rng.uniform(-budget, budget))
            answer = n_c + delta + eps
        else:
            answer = self._estimator_answer(poly, rng)
            delta = float("nan")
            eps = float("nan")
        lo = n_c - budget - AUDIT_SLACK
        hi = n_s + budget + AUDIT_SLACK
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
                "n_geq_s": n_s,
                "delta": delta,
                "eps": eps,
                "answer": answer,
            }
        )
        return answer

    def _estimator_answer(self, poly: RectanglePolynomial, rng: np.random.Generator) -> float:
        """Genuinely sampled answer: amplify by the band polynomial, then estimate.

        The declared eps_bound is split between amplification loss and
        sampling error; the range audit in query() then checks the split
        actually held for this run.
        """
        # per-witness probabilities: the amplified diagonal sum_j |V_yj|^2 P(sigma_j)^2 by block,
        # clamped like any probability (P is certified in [0, 1]; the clamp absorbs rounding)
        sigma, vecs = self.operator.svd
        amplified = np.einsum("bij,bj->bi", np.abs(vecs) ** 2, poly(sigma) ** 2)
        probs = np.empty(self.operator.dim)
        probs[self.operator.order] = clamp_to_unit(amplified).ravel()
        # the other eps/2 absorbs the amplification's (2e-e^2) trace loss
        return trace_estimate(
            self.circuit, self.x, self._samples, rng,
            probabilities=probs, epsilon=self.eps_bound / 2.0,
        ).value


@dataclass(frozen=True)
class IntervalTraceResult:
    """Recovered trace with its certified worst-case error bound."""

    estimate: float
    error_bound: float
    n_hat: tuple[float, ...]
    exact_trace: float
    abs_error: float

    @property
    def within_bound(self) -> bool:
        """Whether the recovery error met its certified bound."""
        return self.abs_error <= self.error_bound + AUDIT_SLACK


def interval_partition_trace(oracle: MiscountingOracle, M: int) -> IntervalTraceResult:
    """Recover the trace from M-1 noisy interval counts.

    The one precondition: the oracle's error allowance is at most
    2**w_total / M (eps = 1/M in the underlying argument), whatever its
    padding or normalization; anything looser voids the certified bound.
    """
    intervals = partition_intervals(M)
    dim = float(1 << oracle.w_total)
    if oracle.eps_bound * oracle.normalization > dim / M + AUDIT_SLACK:
        raise PreconditionError(
            f"oracle allows errors up to {oracle.eps_bound * oracle.normalization}, "
            f"more than the 2**w / M = {dim / M} the bound needs"
        )
    n_hat = [0.0] + [oracle.query(c, s) for s, c in intervals] + [dim]
    estimate = 0.0
    thresholds = [c for _, c in intervals] + [0.0]  # c_1 .. c_M, c_M = 0
    for i, c_i in enumerate(thresholds, start=1):  # weight D_i = c_i + 1/(2M)
        estimate += (c_i + 1.0 / (2.0 * M)) * (n_hat[i] - n_hat[i - 1])
    exact = trace_normalized(oracle.operator) * dim
    bound = RECOVERY_ERROR * dim / M
    return IntervalTraceResult(
        estimate=estimate,
        error_bound=bound,
        n_hat=tuple(n_hat),
        exact_trace=exact,
        abs_error=abs(estimate - exact),
    )


def decide_by_interval_recovery(
    oracle: MiscountingOracle, c: float, s: float
) -> tuple[str, IntervalTraceResult]:
    """YES/NO for the promise (trace/2**w >= c or <= s) via the reduction."""
    check_promise(c, s)
    M = ceil_quotient(2.0 * RECOVERY_ERROR, c - s) + 1  # error below half the gap
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
    u_exponent: float = 0.5,
    *,
    c: float = 2.0 / 3.0,
    s: float = 1.0 / 3.0,
    eps: float = 0.9,
    delta_strategy: str = "max",
    eps_strategy: str = "adversarial",
    seed: int = 0,
) -> PaddingResult:
    """Recover an exact counting-interval member through witness padding.

    `u_exponent` is the oracle's normalization exponent u (accuracy
    eps * 2**(u w') on a w'-witness query); the counting thresholds are c
    and s, as for the oracle and the CLI.  The pad length
    l = floor(w / (1-u)) + 2 always satisfies l > w/(1-u) + 1; setup is
    still rejected when the worst-case post-division error
    eps * 2**(w - (1-u) l) reaches 1/2.
    """
    check_promise(c, s)
    if not 0.0 < u_exponent < 1.0:
        raise PreconditionError(f"normalization exponent must lie in (0, 1), got {u_exponent}")
    if 1.0 - u_exponent < MIN_HEADROOM:
        raise PreconditionError(
            f"normalization exponent leaves headroom {1.0 - u_exponent}, below the "
            f"supported floor {MIN_HEADROOM}"
        )
    if not eps > 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    w = circuit.num_witness
    pad = math.floor(w / (1.0 - u_exponent)) + 2
    margin = eps * 2.0 ** (w - (1.0 - u_exponent) * pad)
    if margin >= 0.5:
        raise PreconditionError(
            f"infeasible: eps * 2**(w - (1-u) l) = {margin} >= 1/2 at l={pad}"
        )
    oracle = MiscountingOracle(
        circuit,
        x,
        eps_bound=eps,
        delta_strategy=delta_strategy,
        eps_strategy=eps_strategy,
        seed=seed,
        pad_qubits=pad,
        u_exponent=u_exponent,
    )
    raw = oracle.query(c, s)
    exact = SpectralCount.of(oracle.operator.eigenvalues, c, s)
    return PaddingResult(
        count=round(raw / float(1 << pad)),
        pad_qubits=pad,
        raw_answer=raw,
        normalization=oracle.normalization,
        n_geq_c=exact.n_geq_c,
        n_geq_s=exact.n_geq_s,
        rounding_margin=margin,
    )
