"""Singular value transformation route to eigenvalue counting.

The bottom half-block U of the embedded circuit matrix (output qubit
fixed at |1>, ancillas and input fixed on the column side) satisfies
U'U = A, the acceptance operator, so the singular values of U are the
square roots of A's eigenvalues and its right singular vectors are A's
eigenvectors: the block encoding is A itself.  apply_svt and
sandwich_bounds take the AcceptanceOperator, which reads its singular
values off its cached eigenvalues and caches its svd, one stacked eigh
of its diagonal blocks.  Pushing the singular values through an even
rectangle-shaped polynomial P and squaring yields the amplified spectrum
P(sigma)^2, whose sum is sandwiched between the exact counts:

    N_geq_c - (2 eps - eps^2) 2**w  <=  sum P(sigma)^2  <=  N_geq_s + eps^2 2**w

with thresholds read on singular values, t = (c+s)/2, half-width
Delta = (c-s)/2.  Callers holding eigenvalue-space thresholds take
their square roots first.  sandwich_bounds is the one amplification
call: it builds P, applies it once and checks the bracket, counting the
singular values with spectral's SpectralCount.of and checking within
its AUDIT_SLACK.

P is built from a difference of scaled error functions, interpolated
once in the Chebyshev basis at Chebyshev nodes (a DCT-II through one
real FFT, O(p log p)), odd coefficients forced to zero (evenness is
exact), then renormalized affinely into [0, 1] by its certified error
bound.  P is evaluated by Clenshaw over its even terms only, in the
variable 2x^2 - 1.  The degree is fixed before anything is built: the
least even one whose a-priori interpolation bound is at most eps/4.  It
must stay within the declared budget p <= 40 ln(1/eps) / Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, PreconditionError
from .limits import POLY_DEGREE_CAP
from .spectral import (
    AUDIT_SLACK,
    AcceptanceOperator,
    SpectralCount,
    at_least,
    at_most,
    build_acceptance_operator,
    clamp_to_unit,
)

DEGREE_BUDGET_FACTOR = 40.0
_SAFETY = 1e-9
SV_FLOOR = 1e-6  # smallest threshold s: sqrt(lambda) is off by ~1e-8 near lambda = 0


@dataclass(frozen=True)
class RectanglePolynomial:
    """Even Chebyshev-basis polynomial, ~1 outside the band, ~0 inside.

    Guarantees (certified, not sampled): 0 <= P <= 1 on [-1, 1], P in
    [1-eps, 1] for |x| >= t + delta, and P in [0, eps] for |x| <= t - delta.
    `report` is that certificate: the degree budget it was checked against,
    the interpolation bound and the band margins it implies, with 0 violations.
    """

    coefficients: np.ndarray
    degree: int
    t: float
    delta: float
    eps: float
    report: dict = field(default_factory=dict, compare=False, repr=False)

    def __call__(self, x) -> np.ndarray:
        if np.any(self.coefficients[1::2] != 0.0):
            raise PreconditionError("rectangle polynomial has a nonzero odd coefficient")
        return _even_chebval(x, self.coefficients)


def degree_budget(delta: float, eps: float) -> int:
    """Largest degree the construction may use for these parameters."""
    budget = DEGREE_BUDGET_FACTOR * math.log(1.0 / eps) / delta
    if not math.isfinite(budget):
        raise PreconditionError(f"half-width delta={delta} leaves no finite degree budget")
    return int(math.ceil(budget))


def _target(t: float, k: float, x: np.ndarray) -> np.ndarray:
    # 1 outside [-t, t], 0 inside, transitions of width ~1/k; even in x
    erf = np.fromiter(map(math.erf, np.concatenate([k * (x - t), k * (x + t)]).tolist()), float)
    return 1.0 + 0.5 * (erf[: x.size] - erf[x.size :])


def _chebinterpolate(func, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of func at degree + 1 nodes.

    Same nodes and coefficients as numpy's chebinterpolate, computed as a
    DCT-II of the samples through one real FFT of their mirror image.
    """
    n = degree + 1
    # numpy's chebpts1(n), ascending; reversed it is cos(pi (2j + 1) / 2n), j = 0..n-1
    nodes = np.sin(0.5 * np.pi / n * np.arange(-n + 1, n + 1, 2))
    samples = np.asarray(func(nodes), dtype=float)[::-1]
    spectrum = np.fft.rfft(np.concatenate([samples, samples[::-1]]))[:n]
    shift = np.exp(-0.5j * np.pi * np.arange(n) / n)
    # the real part alone, in float products: numpy's complex product rounds by SIMD level
    coeffs = (spectrum.real * shift.real - spectrum.imag * shift.imag) / n
    coeffs[0] /= 2.0
    return coeffs


def _even_chebval(x, coeffs: np.ndarray) -> np.ndarray:
    """Sum of the even Chebyshev terms of coeffs at x, exactly even in x.

    Clenshaw in y = 2x^2 - 1 over c_0, c_2, c_4, ..., using
    T_2j(x) = T_j(2x^2 - 1); odd coefficients are not read.
    """
    x = np.asarray(x, dtype=float)
    even = np.asarray(coeffs, dtype=float)[::2]
    y = 2.0 * x * x - 1.0
    two_y = 2.0 * y
    b1 = np.zeros_like(y)
    b2 = np.zeros_like(y)
    tmp = np.empty_like(y)
    # b_j = c_2j + 2y b_(j+1) - b_(j+2), down to j = 1
    for c in even[:0:-1]:
        np.multiply(two_y, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    # P(x) = c_0 + y b_1 - b_2
    np.multiply(y, b1, out=tmp)
    tmp -= b2
    tmp += even[0]
    return tmp


def _log_bound_terms(b, k: float, xp):
    """ln(M / (rho - 1)) and ln(rho) for the ellipse of half-height b / k, in numpy or math."""
    beta = b / k
    rho_m1 = beta + beta * beta / (1.0 + xp.sqrt(1.0 + beta * beta))  # rho - 1, no cancellation
    return b * b + xp.log1p(2.0 * xp.exp(-b * b)) - xp.log(rho_m1), xp.log1p(rho_m1)


def _interpolation_degree(k: float, tol: float) -> tuple[int, float]:
    """Least even degree p whose interpolation bound eta is <= tol, and that eta.

    On the Bernstein ellipse of parameter rho, half-height beta = (rho - 1/rho)/2,
    the target is at most M = 2 + e^(k^2 beta^2), as |erf(a + ib)| <= 1 + erfi(|b|)
    <= 1 + e^(b^2); its interpolant at p + 1 first-kind Chebyshev nodes is then
    within eta = 4 M rho^-p / (rho - 1) of it on [-1, 1] (Trefethen, ATAP Thm 8.2;
    aliasing carries it to first-kind nodes).  One scan over b = k beta picks rho;
    math evaluates the bound there, so the degree is deterministic.
    """
    b = np.geomspace(2.0**-6, 2.0**6, 4096)
    log_ratio, log_rho = _log_bound_terms(b, k, np)
    i = int(np.argmin((math.log(4.0 / tol) + log_ratio) / log_rho))
    log_ratio, log_rho = _log_bound_terms(float(b[i]), k, math)
    degree = 2 * math.ceil((math.log(4.0 / tol) + log_ratio) / log_rho / 2.0)
    while (eta := 4.0 * math.exp(log_ratio - degree * log_rho)) > tol:
        degree += 2  # the ceiling fell short by a rounding
    return degree, eta


def _rounding_slack(coeffs: np.ndarray, k: float) -> float:
    """Bound r on the float rounding between the evaluated P and the exact interpolant.

    With u = 2^-53 and n = p + 1: a sample errs by <= 16(k+1)u (node error 6u,
    slope <= 2k/sqrt(pi)), times the Lebesgue constant <= (2/pi) ln(n+1) + 1; the
    FFT of the 2n mirrored samples in [0, 1] errs by ~u log2(2n) times its 2-norm
    2n, and the shift's real part (two products and a difference, as an unfused
    complex product rounds) by 3u |X_k| / n, 6u sqrt(n) in all: <= 16u sqrt(n)
    log2(2n) in the coefficients' 1-norm; a Clenshaw rounding in step j perturbs
    c_2j alone (|T_j| <= 1) by a few u sum_i (i-j+1)|c_2i| (|U_m| <= m+1), and
    y = 2x^2 - 1 errs by 3u, moving the sum by 3u sum j^2|c_2j|
    (Markov): 12u sum (j+1)^2 |c_2j| in all.  The +1 covers the renormalization and
    the report.  Zeroing odd coefficients keeps the even part, no farther from f.
    """
    n = coeffs.size
    even = np.abs(coeffs[::2])
    nodes = (k + 1.0) * (2.0 / math.pi * math.log(n + 1) + 1.0) + math.sqrt(n) * math.log2(2 * n)
    return 16.0 * 2.0**-53 * (nodes + float(even @ np.arange(1.0, even.size + 1) ** 2) + 1.0)


def rect_poly(t: float, delta: float, eps: float) -> RectanglePolynomial:
    """Construct the certified rectangle polynomial for band center t, half-width delta.

    The erf target f lies in [0, 1], increases in |x|, and is >= 1 - eps/4
    outside the band and <= eps/2 inside it.  One interpolation Q at the degree
    of _interpolation_degree (eta <= eps/4), odd coefficients zeroed, has
    |Q - f| <= d = eta + r (_rounding_slack); P = (Q + d)/(1 + 2d) lies in [0, 1],
    and f at 0 and t -+ delta gives the certified band margins, its report.

    Fails with PreconditionError on infeasible parameters (delta must leave room
    on both sides of t), a degree over the budget or a certificate that rounding
    leaves short of eps, and with CapExceeded above POLY_DEGREE_CAP.
    """
    if not 0.0 < t < 1.0:
        raise PreconditionError(f"band center t must lie in (0, 1), got {t}")
    if not 0.0 < delta < min(t, 1.0 - t):
        raise PreconditionError(
            f"half-width delta must lie in (0, min(t, 1-t)) = (0, {min(t, 1.0 - t)}), got {delta}"
        )
    if not _SAFETY < eps < 0.5:
        # at smaller eps the rounding slack r is no longer small beside eps
        raise PreconditionError(f"eps must lie in ({_SAFETY}, 0.5), got {eps}")
    from statistics import NormalDist  # here, not at the top: it loads fractions and decimal

    budget = degree_budget(delta, eps)
    # erfcinv(eps / 2) through the normal quantile: erfc(z) = 2 Phi(-z sqrt 2)
    k = -NormalDist().inv_cdf(eps / 4.0) / math.sqrt(2.0) / delta
    degree, eta = _interpolation_degree(k, eps / 4.0)
    if degree > budget:
        raise PreconditionError(
            f"rect_poly({t}, {delta}, {eps}) needs degree {degree}, over its budget {budget}"
        )
    if degree > POLY_DEGREE_CAP:
        raise CapExceeded(f"rectangle polynomial degree {degree} exceeds the {POLY_DEGREE_CAP} cap")
    coeffs = _chebinterpolate(lambda x: _target(t, k, x), degree)
    coeffs[1::2] = 0.0  # evenness is exact by construction
    d = eta + _rounding_slack(coeffs, k)
    scale = 1.0 + 2.0 * d
    coeffs /= scale
    coeffs[0] += d / scale
    erfc = math.erfc  # f(0), f(t - delta) and f(t + delta), accurate near 0
    report = {
        "degree_budget": budget,
        "interpolation_bound": eta,
        "max_abs": 1.0,  # -d <= Q <= 1 + d maps onto [0, 1]
        "outer_min": (1.0 - 0.5 * (erfc(k * delta) - erfc(k * (2.0 * t + delta)))) / scale,
        "inner_max": (0.5 * (erfc(k * delta) + erfc(k * (2.0 * t - delta))) + 2.0 * d) / scale,
        "inner_min": erfc(k * t) / scale,
    }
    report["violations"] = int(report["outer_min"] < 1.0 - eps) + int(report["inner_max"] > eps)
    if report["violations"]:
        raise PreconditionError(f"rounding leaves rect_poly({t}, {delta}, {eps}) uncertified")
    return RectanglePolynomial(coeffs, degree, t, delta, eps, report)


# The block encoding is the operator itself; these names stay only for the benchmark
# tracer's svt.block_encoding and svt.svd spans, until it times the operator directly.
BlockEncoding = AcceptanceOperator
build_block_encoding = build_acceptance_operator


def apply_svt(operator: AcceptanceOperator, poly: RectanglePolynomial) -> np.ndarray:
    """Amplified spectrum P(sigma)^2, elementwise in singular_values order.

    These are the eigenvalues of the amplified operator V P(Sigma)^2 V',
    which is never built.  The polynomial must be even; calling it
    raises PreconditionError otherwise.
    """
    return clamp_to_unit(poly(operator.singular_values) ** 2)


@dataclass(frozen=True)
class SandwichBounds:
    """Exact-count bracket around the amplified trace, with what was amplified."""

    n_geq_c: int
    n_geq_s: int
    lower: float
    upper: float
    trace_amplified: float
    sigma_in_gap: int
    satisfied: bool
    poly: RectanglePolynomial = field(compare=False, repr=False)
    amplified: np.ndarray = field(compare=False, repr=False)  # apply_svt's spectrum


def sandwich_bounds(operator: AcceptanceOperator, c: float, s: float, eps: float) -> SandwichBounds:
    """Amplify the operator over the singular-value band (s, c) and check the sandwich.

    One band_polynomial(c, s, eps), one apply_svt; the amplified trace is
    bracketed by the exact sigma counts.  The singular values are the
    operator's cached eigvalsh values, so amplifying one operator at many
    thresholds decomposes it once.
    """
    poly = band_polynomial(c, s, eps)
    amplified = apply_svt(operator, poly)
    sigma = operator.singular_values
    count = SpectralCount.of(sigma, c, s)
    dim = float(operator.dim)
    trace = float(amplified.sum())
    lower = count.n_geq_c - (2.0 * eps - eps * eps) * dim
    upper = count.n_geq_s + eps * eps * dim
    return SandwichBounds(
        n_geq_c=count.n_geq_c,
        n_geq_s=count.n_geq_s,
        lower=lower,
        upper=upper,
        trace_amplified=trace,
        sigma_in_gap=int(np.count_nonzero(~at_most(sigma, s) & ~at_least(sigma, c))),
        satisfied=bool(lower - AUDIT_SLACK <= trace <= upper + AUDIT_SLACK),
        poly=poly,
        amplified=amplified,
    )


def band_polynomial(c: float, s: float, eps: float) -> RectanglePolynomial:
    """Rectangle polynomial for the singular-value band (s, c), s >= SV_FLOOR.

    Eigenvalue-space thresholds become singular-value ones by a square root.
    """
    if not SV_FLOOR <= s < c < 1.0:
        raise PreconditionError(
            f"need {SV_FLOOR} <= s < c < 1 for a realizable rectangle on "
            f"trustworthy singular values, got c={c}, s={s}"
        )
    return rect_poly((c + s) / 2.0, (c - s) / 2.0, eps)
