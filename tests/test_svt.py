"""Block encodings, rectangle polynomials, and the trace sandwich."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

import qcount
from circgen import (
    certificate_misses,
    dense_matrix,
    ensemble,
    full_rows,
    kron_unitary,
    random_circuit,
    thresholds_from_sigma_gap,
)
from qcount import (
    AcceptanceOperator,
    PreconditionError,
    apply_svt,
    build_acceptance_operator,
    degree_budget,
    rect_poly,
    sandwich_bounds,
)
from qcount import svt
from qcount.circuit import parse_circuit
from qcount.errors import CapExceeded
from qcount.reductions import partition_intervals
from qcount.svt import RectanglePolynomial, _chebinterpolate, _even_chebval

X_CIRC = parse_circuit("registers: ancilla=1 input=0 witness=1\nX 0\n")


def test_block_encoding_of_sure_acceptor():
    op = build_acceptance_operator(X_CIRC)
    assert dense_matrix(op).shape == (2, 2)
    assert np.allclose(op.singular_values, [1.0, 1.0], atol=1e-12)
    sigma, vecs = op.svd  # per diagonal block
    assert np.allclose(sigma, 1.0, atol=1e-12) and sigma.size == 2
    eye = np.eye(vecs.shape[1])
    assert np.allclose(vecs @ vecs.conj().transpose(0, 2, 1), eye, atol=1e-12)


def test_block_encoding_names_alias_the_operator():
    # the two svt names stay for the benchmark tracer's spans; the package exports neither
    assert svt.BlockEncoding is AcceptanceOperator
    assert svt.build_block_encoding is build_acceptance_operator
    assert not hasattr(qcount, "BlockEncoding") and not hasattr(qcount, "build_block_encoding")
    assert isinstance(vars(AcceptanceOperator)["svd"], property)
    op = build_acceptance_operator(X_CIRC)
    assert op._svd is None
    assert op.svd is op._svd is op.svd  # one stacked eigh, cached


def test_gram_matrix_is_acceptance_operator():
    # U from the embedded columns of the kron reference unitary, not from the embed
    for circ, x in ensemble(501, 30, max_ancilla=2, max_input=1, max_witness=3):
        u = kron_unitary(circ)
        cols = (int(x or "0", 2) << circ.num_witness) + np.arange(1 << circ.num_witness)
        block = u[u.shape[0] // 2 :, cols]
        op = build_acceptance_operator(circ, x)
        assert np.max(np.abs(block.conj().T @ block - dense_matrix(op))) <= 1e-9


def test_singular_values_square_to_eigenvalues():
    for circ, x in ensemble(502, 15, max_witness=3):
        ve = full_rows(circ, x)
        sigma = np.linalg.svd(ve[ve.shape[0] // 2 :], compute_uv=False)  # descending
        op = build_acceptance_operator(circ, x)
        assert np.allclose(op.singular_values**2, sigma**2, atol=1e-9)
        eigh_sigma, vecs = op.svd  # per diagonal block, ascending in each
        assert np.allclose(np.sort(eigh_sigma, axis=None)[::-1] ** 2, sigma**2, atol=1e-9)
        blocks = (vecs * eigh_sigma[:, np.newaxis, :] ** 2) @ vecs.conj().transpose(0, 2, 1)
        rebuilt = dense_matrix(AcceptanceOperator(blocks, circ.num_witness, op.order))
        assert np.max(np.abs(rebuilt - dense_matrix(op))) <= 1e-9


@pytest.mark.parametrize("delta,eps", [(0.2, 0.1), (0.1, 0.01)])
def test_rect_poly_properties(delta, eps):
    poly = rect_poly(0.5, delta, eps)
    report = poly.report
    assert certificate_misses(poly) == 0  # it certifies these coefficients
    assert report["violations"] == 0
    assert report["max_abs"] <= 1.0
    assert report["outer_min"] >= 1.0 - eps
    assert 0.0 <= report["inner_min"] and report["inner_max"] <= eps
    assert 0.0 < report["interpolation_bound"] <= eps / 4.0


def _band_cases(m, eps):
    """The (t, delta, eps) of every band an M-band interval recovery amplifies."""
    cases = []
    for s, c in partition_intervals(m):
        c_sv, s_sv = math.sqrt(c), math.sqrt(s)
        cases.append(((c_sv + s_sv) / 2.0, (c_sv - s_sv) / 2.0, eps))
    return cases


@pytest.mark.parametrize(
    "t,delta,eps",
    [
        (0.5, 0.001, 0.01),  # a grid check passed degree 8192, which reached 1 + 9.07e-6
        (0.5, 0.01, 1e-3),
        (0.5, 0.1, 0.01),
        (0.7, 0.02, 1e-3),
        (0.5, 0.25, 1.5e-9),
        *_band_cases(8, 1 / 32),
        *_band_cases(16, 1 / 64),
    ],
)
def test_certified_bounds_hold_on_a_dense_sample(t, delta, eps):
    poly = rect_poly(t, delta, eps)
    assert poly.report["violations"] == 0
    assert certificate_misses(poly) == 0


def test_sandwich_holds_where_a_grid_checked_polynomial_overshot():
    # query 2 of an estimator-backed M=8 recovery: a grid-checked degree-604
    # polynomial reached 1 + 2.079e-09 at a singular value, past the clamp tolerance
    circ = random_circuit(np.random.default_rng(5), num_ancilla=2, num_witness=10, gate_count=200)
    op = build_acceptance_operator(circ)
    assert sandwich_bounds(op, 0.8660254037844386, 0.8477912478906585, 0.03125).satisfied


def test_rect_poly_builds_one_candidate(monkeypatch):
    degrees = []

    def counting(func, degree):
        degrees.append(degree)
        return _chebinterpolate(func, degree)

    monkeypatch.setattr(svt, "_chebinterpolate", counting)
    poly = rect_poly(0.5, 0.01, 1e-3)
    assert degrees == [poly.degree] == [1832]


def test_rect_poly_is_exactly_even():
    poly = rect_poly(0.5, 0.1, 0.1)
    assert np.all(poly.coefficients[1::2] == 0.0)
    xs = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(poly(xs), poly(-xs))


def test_rect_poly_respects_degree_budget():
    for delta, eps in [(0.2, 0.1), (0.1, 0.1), (0.05, 0.01)]:
        poly = rect_poly(0.5, delta, eps)
        assert poly.degree % 2 == 0
        assert poly.degree <= degree_budget(delta, eps)
    assert degree_budget(0.1, 0.01) == 1843  # ceil(40 ln(100) / 0.1), printed by rect-poly


def test_rect_poly_degree_scaling():
    # squaring the error cost at most doubles the degree plus a constant
    for delta in (0.2, 0.1, 0.05):
        p1 = rect_poly(0.5, delta, 0.1).degree
        p2 = rect_poly(0.5, delta, 0.01).degree
        assert p2 <= 2 * p1 + 16


@pytest.mark.parametrize("degree", [2, 34, 1024, 2048])
def test_fft_interpolation_and_even_clenshaw_match_numpy(degree):
    def func(x):
        return np.exp(np.sin(3.0 * x)) + x  # neither even nor odd

    coeffs = _chebinterpolate(func, degree)
    assert coeffs.shape == (degree + 1,)
    assert np.max(np.abs(coeffs - cheb.chebinterpolate(func, degree))) <= 1e-12
    coeffs[1::2] = 0.0
    xs = np.linspace(-1.0, 1.0, 4001)
    vals = _even_chebval(xs, coeffs)
    assert np.max(np.abs(vals - cheb.chebval(xs, coeffs))) <= 1e-12
    assert np.array_equal(vals, _even_chebval(-xs, coeffs))


def test_rect_poly_degrees_are_pinned():
    assert rect_poly(0.5, 0.01, 1e-3).degree == 1832
    degrees = [rect_poly(*case).degree for case in _band_cases(8, 1 / 32)]
    assert degrees == [1306, 1204, 1092, 968, 828, 662, 442]


def test_rect_poly_parameter_validation():
    with pytest.raises(PreconditionError):
        rect_poly(0.0, 0.1, 0.1)
    with pytest.raises(PreconditionError):
        rect_poly(0.5, 0.6, 0.1)  # delta >= min(t, 1-t)
    with pytest.raises(PreconditionError):
        rect_poly(0.5, 0.1, 0.5)
    with pytest.raises(PreconditionError):
        rect_poly(0.5, 0.25, 1e-9)  # eps <= _SAFETY
    with pytest.raises(PreconditionError, match="delta=5e-324"):
        rect_poly(0.5, 5e-324, 0.1)  # 40 ln(10) / delta overflows to inf
    assert rect_poly(0.5, 0.25, 1.5e-9).degree <= degree_budget(0.25, 1.5e-9)
    with pytest.raises(PreconditionError, match="uncertified"):
        # the target reaches nearly eps/2 at t - delta, leaving about eps^2/4 for rounding
        rect_poly(0.01, 0.00999, 2e-9)


def test_rect_poly_and_estimator_oracle_load_no_numpy_ma():
    # np.unique and np.median import numpy.ma on their first call
    code = (
        "import sys\n"
        "from qcount.circuit import parse_circuit\n"
        "from qcount.reductions import MiscountingOracle, interval_partition_trace\n"
        "from qcount.svt import rect_poly\n"
        "rect_poly(0.6, 0.2, 0.05)\n"
        "circ = parse_circuit('registers: ancilla=1 input=0 witness=1\\nH 0\\n')\n"
        "oracle = MiscountingOracle(circ, eps_bound=0.25, backing='estimator', seed=1)\n"
        "interval_partition_trace(oracle, 4)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rect_poly_degree_cap(monkeypatch):
    monkeypatch.setattr(svt, "POLY_DEGREE_CAP", 64)
    with pytest.raises(CapExceeded, match="exceeds the 64 cap"):
        rect_poly(0.5, 0.01, 1e-3)


def test_apply_svt_threshold_separation():
    eps = 0.05
    for circ, x in ensemble(503, 20, max_ancilla=2, max_witness=2):
        op = build_acceptance_operator(circ, x)
        picked = thresholds_from_sigma_gap(op.singular_values)
        if picked is None:
            continue
        c, s = picked
        t, delta = (c + s) / 2.0, (c - s) / 2.0
        amplified = apply_svt(op, rect_poly(t, delta, eps))
        # the amplified spectrum is elementwise: entry k is P(sigma_k)^2
        for sigma, lam in zip(op.singular_values, amplified):
            if sigma >= c:
                assert lam >= (1.0 - eps) ** 2 - 1e-9
            elif sigma <= s:
                assert lam <= eps * eps + 1e-9


def test_apply_svt_rejects_odd_polynomial():
    odd = RectanglePolynomial(
        coefficients=np.array([0.5, 0.25]), degree=1, t=0.5, delta=0.1, eps=0.1
    )
    with pytest.raises(PreconditionError, match="nonzero odd coefficient"):
        odd(np.linspace(0.0, 1.0, 5))
    op = build_acceptance_operator(X_CIRC)
    with pytest.raises(PreconditionError):
        apply_svt(op, odd)


def test_worked_sandwich_on_sure_acceptor():
    eps = 0.05
    op = build_acceptance_operator(X_CIRC)
    bounds = sandwich_bounds(op, 0.666, 0.333, eps)
    assert np.array_equal(bounds.amplified, apply_svt(op, bounds.poly))
    assert (bounds.n_geq_c, bounds.n_geq_s) == (2, 2)
    assert bounds.lower == pytest.approx(2.0 - (2 * eps - eps * eps) * 2.0)
    assert bounds.upper == pytest.approx(2.0 + eps * eps * 2.0)
    assert bounds.satisfied
    assert bounds.sigma_in_gap == 0


def test_sandwich_bounds_amplifies_end_to_end():
    bounds = sandwich_bounds(build_acceptance_operator(X_CIRC), 0.666, 0.333, 0.05)
    poly = bounds.poly
    assert (poly.t, poly.delta, poly.eps) == pytest.approx((0.4995, 0.1665, 0.05))
    assert bounds.amplified.shape == (2,)
    assert np.all(bounds.amplified >= (1.0 - 0.05) ** 2 - 1e-9)
    assert bounds.trace_amplified == float(bounds.amplified.sum())


def test_sandwich_bounds_validates_thresholds():
    op = build_acceptance_operator(X_CIRC)
    with pytest.raises(PreconditionError):
        sandwich_bounds(op, 1.0, 0.5, 0.05)
    with pytest.raises(PreconditionError):
        sandwich_bounds(op, 0.5, 0.0, 0.05)
    with pytest.raises(PreconditionError, match="trustworthy"):
        sandwich_bounds(op, 0.5, svt.SV_FLOOR / 2.0, 0.05)
