"""Monte Carlo additive trace estimation from single-shot acceptance draws.

One sample of the basic estimator is: pick a uniform witness y, run the
verifier once, record whether the output qubit read 1.  Averaging M such
Bernoulli outcomes and scaling by 2**w gives

    X = (2**w / M) * sum(X_i),

which is unbiased for the acceptance-operator trace and has variance
exactly (1/M) * Tr * (2**w - Tr), so Chebyshev gives
Pr(|X - Tr| >= eps * 2**w) <= 1 / (M * eps**2).  Taking the median of k
independent runs sharpens the 1/4-failure setting to exp(-k/8), hence
k = ceil(8 * ln(1/delta)) repetitions suffice for confidence delta.

Sampling is simulated classically but never peeks beyond what one run
of the verifier would reveal: a witness index and one biased coin flip
per sample, drawn from counter-based streams (see rngstreams).  The
coin's bias is one accept_probability per distinct sampled witness,
simulating only the output cone, or, within the dense cap from 2**w / 16
draws on, every witness's at once from one embed (witness_probabilities).
No operator is built.  Every estimator builds its AdditiveEstimate, the
one check of epsilon, delta and the sample count, before its first draw
or embed, and returns copies of it with the value filled in.
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
    accept_probability,
    at_least,
    at_most,
    check_promise,
    witness_probabilities,
)


@dataclass(frozen=True)
class AdditiveEstimate:
    """A value promised within epsilon * normalization, except w.p. delta.

    Its check is the package's one check of an estimate's epsilon, delta
    and sample count; each estimator builds one before it draws anything.
    """

    value: float
    normalization: float
    epsilon: float
    delta: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise PreconditionError(
                f"epsilon must be finite and positive, got {self.epsilon}"
            )
        if not 0.0 < self.delta < 1.0:
            raise PreconditionError(f"delta must lie in (0, 1), got {self.delta}")
        if self.samples < 1:
            raise PreconditionError(f"need at least one sample, got {self.samples}")


def _check_sample_count(M: int) -> None:
    if M < 1:
        raise PreconditionError(f"sample count must be >= 1, got {M}")
    check_draws(2 * M, f"M={M}")


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
    _check_sample_count(M)
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    dim_w = 1 << circuit.num_witness
    if epsilon is None:
        epsilon = 2.0 / math.sqrt(M)  # puts the Chebyshev failure bound at 1/4
    elif epsilon * epsilon * M <= 1.0:
        raise PreconditionError(
            f"epsilon={epsilon} is unattainable at M={M}: the failure "
            f"bound 1/(M eps^2) would reach 1"
        )
    template = AdditiveEstimate(0.0, float(dim_w), epsilon, 1.0 / (M * epsilon * epsilon), M, 0)
    if probabilities is None and 16 * M >= dim_w and circuit.num_qubits <= dense_qubit_cap():
        probabilities = witness_probabilities(circuit, x)
    prob_cache: dict[int, float] = {}

    def run(rng: np.random.Generator, seed_record: int = 0) -> AdditiveEstimate:
        witnesses = uniform_indices(rng, dim_w, M)
        if probabilities is not None:
            probs = probabilities[witnesses]
        else:  # one simulation per new witness
            ys = witnesses.tolist()
            for y in set(ys) - prob_cache.keys():
                prob_cache[y] = accept_probability(circuit, basis_index(circuit, x_val, y))
            probs = np.array([prob_cache[y] for y in ys])
        hits = rng.random(M) < probs
        return replace(template, value=dim_w * (int(hits.sum()) / M), seed=seed_record)

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
    run = make_trace_estimator(circuit, x, M, epsilon=epsilon)
    return run(stream(seed), seed_record=seed)


def median_repetitions(delta: float) -> int:
    """Runs needed so the median fails with probability at most delta."""
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    return max(1, math.ceil(8.0 * math.log(1.0 / delta)))


def median_amplify(
    base: Callable[[np.random.Generator], AdditiveEstimate],
    k: int,
    seed: int,
) -> AdditiveEstimate:
    """Median of k independent runs of a 1/4-failure additive estimator.

    Run j draws from substream j of the seed, so k=1 reproduces the
    plain estimator bit for bit and the runs parallelize freely.  The
    returned failure probability is the Hoeffding envelope exp(-k/8).
    """
    if k < 1:
        raise PreconditionError(f"need at least one run, got {k}")
    runs = [base(stream(seed, jump=j)) for j in range(k)]
    return replace(
        runs[0],
        value=statistics.median(r.value for r in runs),
        delta=min(math.exp(-k / 8.0), 0.25),
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
    probabilities: np.ndarray | None = None,
) -> DeciderResult:
    """Decide whether the normalized trace is >= c or <= s by plain averaging.

    Uses eps = min(1/6, (c-s)/3) unless overridden and M = ceil(3/eps^2)+1
    single-shot samples, which by Chebyshev decides correctly with
    probability at least 2/3 whenever the promise holds.  The samples
    are one run of make_trace_estimator on stream(seed), so the mean is
    that run's value divided by 2**w.  The promise is not checkable from
    samples; when the per-witness probabilities are given or within the
    dense cap (one embed, witness_probabilities), the result flags whether
    this input violated it.  SAMPLE_CAP is checked before anything is embedded.
    """
    check_promise(c, s)
    gap = c - s
    if epsilon is None:
        epsilon = min(1.0 / 6.0, gap / 3.0)
    if not 0.0 < epsilon < gap / 2.0:
        raise PreconditionError(f"epsilon={epsilon} cannot separate the promise gap {gap}")
    M = ceil_quotient(3.0, epsilon * epsilon) + 1
    _check_sample_count(M)
    if probabilities is None and circuit.num_qubits <= dense_qubit_cap():
        probabilities = witness_probabilities(circuit, x)
    run = make_trace_estimator(circuit, x, M, probabilities=probabilities)
    dim_w = 1 << circuit.num_witness
    mean = run(stream(seed)).value / dim_w
    answer = "YES" if mean >= (c + s) / 2.0 else "NO"
    promise_violated: bool | None = None
    exact: float | None = None
    if probabilities is not None:
        exact = min(1.0, float(probabilities.sum()) / dim_w)
        promise_violated = not at_most(exact, s) and not at_least(exact, c)
    return DeciderResult(
        answer=answer,
        mean=mean,
        samples=M,
        epsilon=epsilon,
        promise_violated=promise_violated,
        exact_normalized_trace=exact,
    )
