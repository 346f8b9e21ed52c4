"""Monte Carlo additive estimates: one sampling core and the trace estimator.

An additive estimate is a value within eps * normalization of the trace
except with probability delta, from S single-shot samples.  The core,
additive_template, checks the sample count, SAMPLE_CAP, eps and delta
before any draw and returns the AdditiveEstimate each run copies.  An
estimator is then its draw plus the one tail law every sampler here
shares: a mean of S independent scores in a range of width r misses its
expectation by eps or more w.p. at most delta = 2 exp(-2 S eps^2 / r^2)
(Hoeffding 1963), with the default eps that puts delta at 1/4.  Coin
scores lie in [0, 1], r = 1, and coin_samples inverts the law for them;
walk-pair scores lie in [-1, 1], r = 2.

The trace estimator's sample is: pick a uniform witness y, run the
verifier once, record whether the output qubit read 1.  Averaging M such
Bernoulli outcomes and scaling by 2**w gives X = (2**w / M) * sum(X_i),
unbiased for the acceptance-operator trace.  Sampling is simulated
classically but never peeks beyond what one run of the verifier would
reveal: a witness index and one biased coin flip per sample, drawn from
counter-based streams chunk by chunk (see rngstreams), so a run holds
one small witness index per sample and nothing else per sample.  Coins
are flipped against one probability vector: one embed's read-out
(witness_probabilities) within the dense cap from 2**w / 16 draws on,
else one accept_probability per distinct drawn witness (its output cone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .circuit import VerifierCircuit, _parse_bits, basis_index
from .errors import PreconditionError
from .limits import ceil_quotient, check_draws, dense_qubit_cap
from .rngstreams import DRAW_CHUNK, index_chunks, stream, uniform_chunks
from .spectral import (
    AUDIT_SLACK,
    accept_probability,
    at_least,
    at_most,
    check_promise,
    clamp_to_unit,
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


def additive_template(
    samples: int, draws_per_sample: int, normalization: float,
    epsilon: float | None, score_range: float, who: str,
) -> AdditiveEstimate:
    """The checked estimate (value 0, seed 0) of one run, before its first draw.

    Checks the sample count, SAMPLE_CAP, epsilon (the Hoeffding law's 1/4
    point if None) and that the law says anything there, in that order.
    delta is floored at the smallest positive double, still a bound if it
    underflows.
    """
    if samples < 1:
        raise PreconditionError(f"sample count must be >= 1, got {samples}")
    check_draws(samples * draws_per_sample, who)
    r2 = score_range * score_range
    if epsilon is None:
        epsilon = float(np.sqrt(r2 * np.log(8.0) / (2 * samples)))
    _check_epsilon(epsilon)
    if samples * epsilon * epsilon <= r2 * math.log(2.0) / 2.0:
        raise PreconditionError(
            f"epsilon={epsilon} is unattainable at {samples} samples: the Hoeffding "
            f"2 exp(-2 S eps^2 / {score_range:g}^2) bound would reach 1"
        )
    delta = max(float(2.0 * np.exp(-2.0 * samples * epsilon * epsilon / r2)), math.ulp(0.0))
    return AdditiveEstimate(0.0, normalization, epsilon, delta, samples, 0)


def coin_samples(epsilon: float, delta: float, who: str) -> int:
    """The least S with 2 exp(-2 S eps^2) <= delta, checked at two draws per sample.

    S coins miss by eps w.p. at most delta, and SAMPLE_CAP refuses a run
    of them here, before anything is built.
    """
    samples = ceil_quotient(math.log(2.0 / delta), 2.0 * epsilon * epsilon)
    check_draws(2 * samples, who)
    return samples


def trace_estimate(
    circuit: VerifierCircuit,
    x: str,
    M: int,
    rng: np.random.Generator,
    *,
    probabilities: np.ndarray | None = None,
    epsilon: float | None = None,
) -> AdditiveEstimate:
    """One M-sample additive estimate of the trace from `rng`; its seed field is left 0.

    The per-witness acceptance probabilities are `probabilities` if given;
    else, within the dense cap once M >= 2**w / 16, one embed's read-out,
    cheaper there than a simulation per drawn witness; else one simulation
    per distinct drawn witness, with each pick rewritten as its rank among
    them.  Sample i consumes the generator's uniforms at positions i
    (witness pick) and M + i (acceptance coin): the package's one Monte
    Carlo draw, which avg_accept_decider and the estimator-backed oracle
    sample through too.  A run holds each pick in the smallest unsigned
    type that fits 2**w - 1, and remaps picks and flips coins chunk by chunk.
    """
    picks = index_chunks(rng, M, circuit.num_witness)  # checks w <= 53 before 2**w is formed
    dim_w = 1 << circuit.num_witness
    template = additive_template(M, 2, float(dim_w), epsilon, 1.0, f"M={M}")
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    if probabilities is None and 16 * M >= dim_w and circuit.num_qubits <= dense_qubit_cap():
        probabilities = witness_probabilities(circuit, x)
    witnesses = np.empty(M, dtype=np.min_scalar_type(dim_w - 1))
    for cols, y in picks:
        witnesses[cols] = y
    if probabilities is None:  # one simulation per distinct witness; each pick becomes its rank
        drawn = np.sort(witnesses)  # np.unique's order, without the numpy.ma import it costs
        drawn = drawn[np.concatenate(([True], drawn[1:] != drawn[:-1]))]
        probabilities = np.array(
            [accept_probability(circuit, basis_index(circuit, x_val, y)) for y in drawn.tolist()]
        )
        for start in range(0, M, DRAW_CHUNK):
            cols = slice(start, start + DRAW_CHUNK)
            witnesses[cols] = np.searchsorted(drawn, witnesses[cols])
    hits = 0
    for cols, u in uniform_chunks(rng, M):
        hits += int(np.count_nonzero(u < probabilities[witnesses[cols]]))
    return replace(template, value=dim_w * (hits / M))


def quantum_trace_estimator(
    circuit: VerifierCircuit,
    x: str = "",
    M: int = 64,
    seed: int = 0,
    *,
    epsilon: float | None = None,
) -> AdditiveEstimate:
    """One M-sample additive estimate of the acceptance-operator trace."""
    return replace(trace_estimate(circuit, x, M, stream(seed), epsilon=epsilon), seed=seed)


# Nothing in the package calls the median any more; it stays only for the benchmark
# tracer's estimators.median span, which binds it by name, until that span is retargeted.
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
    import statistics  # here, not at the top: it loads fractions and decimal

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
    single-shot samples, which by the Hoeffding law decides correctly with
    probability at least 1 - 2 exp(-6) whenever the promise holds.  The
    samples are one trace_estimate on stream(seed), so the mean is its
    value divided by 2**w.  The promise is not checkable from samples;
    within the dense cap one embed (witness_probabilities) gives the
    per-witness probabilities the run samples from and flags whether this
    input violated it.  SAMPLE_CAP is checked before anything is embedded.
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
    dim_w = 1 << circuit.num_witness
    mean = trace_estimate(circuit, x, M, stream(seed), probabilities=probabilities).value / dim_w
    answer = "YES" if mean >= (c + s) / 2.0 else "NO"
    promise_violated: bool | None = None
    exact: float | None = None
    if probabilities is not None:
        exact = float(clamp_to_unit(probabilities.sum() / dim_w))
        promise_violated = not at_most(exact, s) and not at_least(exact, c)
    return DeciderResult(answer, mean, M, epsilon, promise_violated, exact)
