"""Singular value transformation route to eigenvalue counting.

The bottom half-block U of the embedded circuit matrix (output qubit
fixed at |1>, ancillas and input fixed on the column side) satisfies
U'U = A, the acceptance operator, so the singular values of U are the
square roots of A's eigenvalues and its right singular vectors are A's
eigenvectors: a block encoding is a view of A, and BlockEncoding.svd
decomposes A's diagonal blocks in one stacked eigh.  Pushing the singular
values through an even rectangle-shaped polynomial P and squaring yields
the amplified spectrum P(sigma)^2, whose sum is sandwiched between the
exact counts:

    N_geq_c - (2 eps - eps^2) 2**w  <=  sum P(sigma)^2  <=  N_geq_s + eps^2 2**w

with thresholds read on singular values, t = (c+s)/2, half-width
Delta = (c-s)/2.  Callers holding eigenvalue-space thresholds take
their square roots first.  sandwich_bounds is the
one amplification call: it builds P, applies it once and checks the
bracket, counting the singular values with spectral's SpectralCount.of
and checking within its AUDIT_SLACK.

P is built from a difference of scaled error functions, interpolated in
the Chebyshev basis at Chebyshev nodes (a DCT-II through one real FFT,
O(p log p)), odd coefficients forced to zero (evenness is exact), then
renormalized affinely into [0, 1].  P is evaluated by Clenshaw over its
even terms only, in the variable 2x^2 - 1.  The degree comes from a
doubling-then-bisection search over even degrees, verified on a dense
grid, and must stay within the declared budget p <= 40 ln(1/eps) / Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .circuit import VerifierCircuit
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
GRID_SIZE = 10001
_SAFETY = 1e-9
SV_FLOOR = 1e-6  # smallest threshold s: sqrt(lambda) is off by ~1e-8 near lambda = 0


@dataclass(frozen=True)
class RectanglePolynomial:
    """Even Chebyshev-basis polynomial, ~1 outside the band, ~0 inside.

    Guarantees (verified on the construction grid): |P| <= 1 on [-1, 1],
    P in [1-eps, 1] for |x| >= t + delta, and P in [0, eps] for
    |x| <= t - delta.  `report` is that check: the accepted candidate's
    margins on the grid, with 0 violations.
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


def _verification_grid(t: float, delta: float) -> np.ndarray:
    pts = np.linspace(-1.0, 1.0, GRID_SIZE)
    edges = np.array([t - delta, t + delta, t, 0.0])
    pts = np.sort(np.clip(np.concatenate([pts, edges, -edges]), -1.0, 1.0))
    # dedupe by hand: np.unique loads numpy.ma on its first call
    return pts[np.concatenate(([True], np.diff(pts) != 0.0))]


def _erf(z: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erf, z.tolist()), dtype=float, count=z.size)


def _target(t: float, k: float, x: np.ndarray) -> np.ndarray:
    # 1 outside [-t, t], 0 inside, transitions of width ~1/k; even in x
    return 1.0 + 0.5 * (_erf(k * (x - t)) - _erf(k * (x + t)))


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
    coeffs = (spectrum * shift).real / n
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


def _candidate(target, degree: int) -> np.ndarray:
    coeffs = _chebinterpolate(target, degree)
    coeffs[1::2] = 0.0  # evenness is exact by construction
    # affine renormalization into [0, 1]: P = (Q + d) / (1 + 2d)
    probe = _even_chebval(np.linspace(-1.0, 1.0, 2048), coeffs)
    d = max(0.0, -float(probe.min()), float(probe.max()) - 1.0) + _SAFETY
    coeffs = coeffs / (1.0 + 2.0 * d)
    coeffs[0] += d / (1.0 + 2.0 * d)
    return coeffs


def rect_poly(t: float, delta: float, eps: float) -> RectanglePolynomial:
    """Construct the rectangle polynomial for band center t, half-width delta.

    Fails with PreconditionError when the parameters are infeasible
    (delta must leave room on both sides of t) or when no degree within
    the budget passes the grid verification, and with CapExceeded when
    the search would build a candidate above POLY_DEGREE_CAP.
    """
    if not 0.0 < t < 1.0:
        raise PreconditionError(f"band center t must lie in (0, 1), got {t}")
    if not 0.0 < delta < min(t, 1.0 - t):
        raise PreconditionError(
            f"half-width delta must lie in (0, min(t, 1-t)) = "
            f"(0, {min(t, 1.0 - t)}), got {delta}"
        )
    if not _SAFETY < eps < 0.5:
        # the renormalization caps P near 1 - _SAFETY on the outer band
        raise PreconditionError(f"eps must lie in ({_SAFETY}, 0.5), got {eps}")
    budget = degree_budget(delta, eps)
    budget_even = budget if budget % 2 == 0 else budget - 1
    # erfcinv(eps / 2) through the normal quantile: erfc(z) = 2 Phi(-z sqrt 2)
    k = -NormalDist().inv_cdf(eps / 4.0) / math.sqrt(2.0) / delta
    grid = _verification_grid(t, delta)

    def accepted(degree: int) -> tuple[np.ndarray, dict] | None:
        """The candidate of this degree and its report if it has no violations, else None."""
        coeffs = _candidate(lambda x: _target(t, k, x), degree)
        report = _report(_even_chebval(grid, coeffs), grid, t, delta, eps)
        return (coeffs, report) if report["violations"] == 0 else None

    # doubling phase: lo is the last failing even degree, hi the next to try
    lo, hi = 0, 4
    while (best := accepted(hi)) is None:
        if hi >= budget_even:
            raise PreconditionError(
                f"no rectangle polynomial up to the degree budget {budget} "
                f"meets (t={t}, delta={delta}, eps={eps})"
            )
        lo, hi = hi, min(2 * hi, budget_even)
        if hi > POLY_DEGREE_CAP:
            raise CapExceeded(
                f"rectangle polynomial degree {hi} exceeds the {POLY_DEGREE_CAP} cap"
            )
    # bisection phase: minimal passing even degree in (lo, hi]
    while hi - lo > 2:
        mid = (lo + hi) // 2
        mid -= mid % 2
        if (found := accepted(mid)) is not None:
            hi, best = mid, found
        else:
            lo = mid
    coeffs, report = best
    return RectanglePolynomial(coeffs, hi, t, delta, eps, report)


def _report(vals: np.ndarray, grid: np.ndarray, t: float, delta: float, eps: float) -> dict:
    """Band violations and margins of P's values on the verification grid."""
    abs_vals = np.abs(vals)
    outer = vals[np.abs(grid) >= t + delta]
    inner = vals[np.abs(grid) <= t - delta]
    return {
        "grid_points": int(grid.size),
        "max_abs": float(abs_vals.max()),
        "outer_min": float(outer.min()),
        "inner_max": float(inner.max()),
        "inner_min": float(inner.min()),
        "violations": int(
            np.count_nonzero(abs_vals > 1.0)
            + np.count_nonzero(outer < 1.0 - eps)
            + np.count_nonzero(inner < 0.0)
            + np.count_nonzero(inner > eps)
        ),
    }


class BlockEncoding:
    """The output block U of a circuit, held only as its acceptance operator U'U."""

    def __init__(self, operator: AcceptanceOperator):
        self.operator = operator
        self._svd: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def svd(self) -> tuple[np.ndarray, np.ndarray]:
        """(sigma, V) of U per diagonal block of U'U, from one stacked eigh of the blocks.

        sigma is (2**k, m) and V is (2**k, m, m): V[b, :, j], over witnesses
        operator.order[b * m : (b + 1) * m], has sigma[b, j], ascending in j.
        """
        if self._svd is None:
            lam, vecs = np.linalg.eigh(self.operator.blocks)
            self._svd = (np.sqrt(clamp_to_unit(lam)), vecs)
        return self._svd

    @property
    def singular_values(self) -> np.ndarray:
        """All 2**w singular values, descending: sqrt of the operator's eigenvalues."""
        return np.sqrt(self.operator.eigenvalues)


def build_block_encoding(circuit: VerifierCircuit, x: str = "") -> BlockEncoding:
    """Output-block of the circuit on the embedded witness register."""
    return BlockEncoding(build_acceptance_operator(circuit, x))


def apply_svt(encoding: BlockEncoding, poly: RectanglePolynomial) -> np.ndarray:
    """Amplified spectrum P(sigma)^2, elementwise in singular_values order.

    These are the eigenvalues of the amplified operator V P(Sigma)^2 V',
    which is never built.  The polynomial must be even; calling it
    raises PreconditionError otherwise.
    """
    return clamp_to_unit(poly(encoding.singular_values) ** 2)


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


def sandwich_bounds(encoding: BlockEncoding, c: float, s: float, eps: float) -> SandwichBounds:
    """Amplify the encoding over the singular-value band (s, c) and check the sandwich.

    One band_polynomial(c, s, eps), one apply_svt; the amplified trace is
    bracketed by the exact sigma counts.  The singular values are the
    operator's cached eigvalsh values, so amplifying one encoding at many
    thresholds decomposes it once.
    """
    poly = band_polynomial(c, s, eps)
    amplified = apply_svt(encoding, poly)
    sigma = encoding.singular_values
    count = SpectralCount.of(sigma, c, s)
    dim = float(encoding.operator.dim)
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
