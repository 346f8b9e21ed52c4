"""Monte Carlo additive estimates: one sampling core and the trace estimator.

An additive estimate is a value within eps * normalization of the trace
except with probability delta, from S single-shot samples.  The core,
additive_template, checks the sample count, SAMPLE_CAP, eps and delta
before any draw and returns the AdditiveEstimate each run copies.  An
estimator is then its draw plus the tail bound of a mean of S scores in
[-1, 1]: CHEBYSHEV, delta = 1/(S eps^2), or HOEFFDING, delta =
2 exp(-S eps^2 / 2), each with the default eps that puts delta at 1/4.
The median of k >= 2 runs that each fail w.p. at most 1/4 fails w.p. at
most exp(-k/8), so k = ceil(8 * ln(1/delta)) runs give confidence delta.

The trace estimator's sample is: pick a uniform witness y, run the
verifier once, record whether the output qubit read 1.  Averaging M such
Bernoulli outcomes and scaling by 2**w gives X = (2**w / M) * sum(X_i),
unbiased for the acceptance-operator trace, with the Chebyshev tail.
Sampling is simulated classically but never peeks beyond what one run
of the verifier would reveal: a witness index and one biased coin flip
per sample, drawn from counter-based streams (see rngstreams).  The
coin's bias is one accept_probability per distinct sampled witness,
simulating only the output cone, or, within the dense cap from 2**w / 16
draws on, every witness's at once from one embed (witness_probabilities).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .circuit import VerifierCircuit, _parse_bits, basis_index
from .errors import PreconditionError
from .limits import ceil_quotient, check_draws, dense_qubit_cap
from .rngstreams import stream, uniform_indices
from .spectral import (
    AUDIT_SLACK,
    accept_probability,
    at_least,
    at_most,
    check_promise,
    witness_probabilities,
)


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise PreconditionError(f"epsilon must be finite and positive, got {epsilon}")


@dataclass(frozen=True)
class AdditiveEstimate:
    """A value promised within epsilon * normalization, except w.p. delta.

    Its check is the package's one check of an estimate's epsilon, delta
    and sample count; additive_template runs it before any draw.
    """

    value: float
    normalization: float
    epsilon: float
    delta: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        if not 0.0 < self.delta < 1.0:
            raise PreconditionError(f"delta must lie in (0, 1), got {self.delta}")
        if self.samples < 1:
            raise PreconditionError(f"need at least one sample, got {self.samples}")


@dataclass(frozen=True)
class TailBound:
    """Failure bound delta(S, eps) of a mean of S scores in [-1, 1]."""

    law: str  # as the unattainable-epsilon message names it
    unattainable_at: float  # S eps^2 at or below which delta would reach 1
    default_epsilon: Callable[[int], float]  # puts delta at 1/4
    delta: Callable[[int, float], float]


CHEBYSHEV = TailBound(
    "Chebyshev 1/(M eps^2)", 1.0, lambda M: 2.0 / math.sqrt(M), lambda M, eps: 1.0 / (M * eps * eps)
)
HOEFFDING = TailBound(
    "Hoeffding 2 exp(-S eps^2 / 2)",
    2.0 * math.log(2.0),
    lambda S: float(np.sqrt(2.0 * np.log(8.0) / S)),
    lambda S, eps: float(2.0 * np.exp(-S * eps * eps / 2.0)),
)


def additive_template(
    samples: int, draws_per_sample: int, normalization: float,
    epsilon: float | None, bound: TailBound, who: str,
) -> AdditiveEstimate:
    """The checked estimate (value 0, seed 0) of one run, before its first draw.

    Checks the sample count, SAMPLE_CAP, epsilon (the bound's 1/4 point if
    None) and that the bound says anything there, in that order.  delta is
    floored at the smallest positive double, still a bound if it underflows.
    """
    if samples < 1:
        raise PreconditionError(f"sample count must be >= 1, got {samples}")
    check_draws(samples * draws_per_sample, who)
    if epsilon is None:
        epsilon = bound.default_epsilon(samples)
    _check_epsilon(epsilon)
    if samples * epsilon * epsilon <= bound.unattainable_at:
        raise PreconditionError(
            f"epsilon={epsilon} is unattainable at {samples} samples: "
            f"the {bound.law} bound would reach 1"
        )
    delta = max(bound.delta(samples, epsilon), math.ulp(0.0))
    return AdditiveEstimate(0.0, normalization, epsilon, delta, samples, 0)


def make_trace_estimator(
    circuit: VerifierCircuit,
    x: str = "",
    M: int = 64,
    *,
    probabilities: np.ndarray | None = None,
    epsilon: float | None = None,
) -> Callable[[np.random.Generator], AdditiveEstimate]:
    """Closure running one M-sample estimate per generator handed in.

    The per-witness acceptance probabilities are `probabilities` if given;
    else, within the dense cap once M >= 2**w / 16, one embed's read-out,
    cheaper there than a simulation per drawn witness; else each new
    sampled witness is simulated once and cached.  Sample i consumes the
    generator's uniforms at positions i (witness pick) and M + i
    (acceptance coin): the package's one Monte Carlo draw, which
    avg_accept_decider and the estimator-backed oracle sample through too.
    """
    dim_w = 1 << circuit.num_witness
    template = additive_template(M, 2, float(dim_w), epsilon, CHEBYSHEV, f"M={M}")
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    if probabilities is None and 16 * M >= dim_w and circuit.num_qubits <= dense_qubit_cap():
        probabilities = witness_probabilities(circuit, x)
    prob_cache: dict[int, float] = {}

    def run(rng: np.random.Generator) -> AdditiveEstimate:
        witnesses = uniform_indices(rng, dim_w, M)
        if probabilities is not None:
            probs = probabilities[witnesses]
        else:  # one simulation per new witness
            ys = witnesses.tolist()
            for y in set(ys) - prob_cache.keys():
                prob_cache[y] = accept_probability(circuit, basis_index(circuit, x_val, y))
            probs = np.array([prob_cache[y] for y in ys])
        hits = rng.random(M) < probs
        return replace(template, value=dim_w * (int(hits.sum()) / M))

    return run


def quantum_trace_estimator(
    circuit: VerifierCircuit,
    x: str = "",
    M: int = 64,
    seed: int = 0,
    *,
    epsilon: float | None = None,
) -> AdditiveEstimate:
    """One M-sample additive estimate of the acceptance-operator trace."""
    return replace(make_trace_estimator(circuit, x, M, epsilon=epsilon)(stream(seed)), seed=seed)


def median_repetitions(delta: float) -> int:
    """Runs needed so the median fails with probability at most delta."""
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    return max(1, math.ceil(8.0 * math.log(1.0 / delta)))


def median_amplify(
    base: Callable[[np.random.Generator], AdditiveEstimate], k: int, seed: int
) -> AdditiveEstimate:
    """Median of k independent runs of a 1/4-failure additive estimator.

    Run j draws from substream j of the seed, so k=1 reproduces the
    plain estimator bit for bit, its delta included, and the runs
    parallelize freely.  For k >= 2 the median fails only when at least
    half the runs do, which the Hoeffding envelope exp(-k/8) bounds for
    runs failing w.p. at most 1/4; a base with a larger delta is refused
    after its first run.
    """
    if k < 1:
        raise PreconditionError(f"need at least one run, got {k}")
    runs = [base(stream(seed))]
    if k > 1 and runs[0].delta > 0.25 + AUDIT_SLACK:
        raise PreconditionError(
            f"a median of {k} runs needs runs that fail w.p. at most 1/4, got {runs[0].delta}"
        )
    runs += [base(stream(seed, jump=j)) for j in range(1, k)]
    return replace(
        runs[0],
        value=statistics.median(r.value for r in runs),
        delta=runs[0].delta if k == 1 else max(math.exp(-k / 8.0), math.ulp(0.0)),
        samples=sum(r.samples for r in runs),
        seed=seed,
    )


@dataclass(frozen=True)
class DeciderResult:
    """Outcome of the average-acceptance decision procedure."""

    answer: str  # "YES" or "NO"
    mean: float
    samples: int
    epsilon: float
    promise_violated: bool | None  # None when the exact check was unaffordable
    exact_normalized_trace: float | None


def avg_accept_decider(
    circuit: VerifierCircuit,
    x: str = "",
    c: float = 2.0 / 3.0,
    s: float = 1.0 / 3.0,
    seed: int = 0,
    *,
    epsilon: float | None = None,
) -> DeciderResult:
    """Decide whether the normalized trace is >= c or <= s by plain averaging.

    Uses eps = min(1/6, (c-s)/3) unless overridden and M = ceil(3/eps^2)+1
    single-shot samples, which by Chebyshev decides correctly with
    probability at least 2/3 whenever the promise holds.  The samples
    are one run of make_trace_estimator on stream(seed), so the mean is
    that run's value divided by 2**w.  The promise is not checkable from
    samples; within the dense cap one embed (witness_probabilities) gives
    the per-witness probabilities the run samples from and flags whether
    this input violated it.  SAMPLE_CAP is checked before anything is embedded.
    """
    check_promise(c, s)
    gap = c - s
    if epsilon is None:
        epsilon = min(1.0 / 6.0, gap / 3.0)
    if not 0.0 < epsilon < gap / 2.0:
        raise PreconditionError(f"epsilon={epsilon} cannot separate the promise gap {gap}")
    M = ceil_quotient(3.0, epsilon * epsilon) + 1
    check_draws(2 * M, f"M={M}")
    dense = circuit.num_qubits <= dense_qubit_cap()
    probabilities = witness_probabilities(circuit, x) if dense else None
    run = make_trace_estimator(circuit, x, M, probabilities=probabilities)
    dim_w = 1 << circuit.num_witness
    mean = run(stream(seed)).value / dim_w
    answer = "YES" if mean >= (c + s) / 2.0 else "NO"
    promise_violated: bool | None = None
    exact: float | None = None
    if probabilities is not None:
        exact = min(1.0, float(probabilities.sum()) / dim_w)
        promise_violated = not at_most(exact, s) and not at_least(exact, c)
    return DeciderResult(answer, mean, M, epsilon, promise_violated, exact)
