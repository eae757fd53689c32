import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gamma

from radwig import (DegreeOverflowError, DomainError, laguerre_assoc,
                    laguerre_log, log_factorial)


def laguerre_series_exact(n, alpha, x):
    """Independent oracle: explicit power series in exact rationals."""
    xf = Fraction(x)
    total = Fraction(0)
    for i in range(n + 1):
        binom = Fraction(1)
        for j in range(n - i):
            binom *= Fraction(n + alpha - j)
        binom /= math.factorial(n - i)
        total += (-1) ** i * binom * xf ** i / math.factorial(i)
    return float(total)


def test_degree_zero_is_exactly_one():
    out = laguerre_assoc(0, 0.0, 5.0)
    assert out.value == 1.0
    assert out.sign == 1
    assert out.log_abs == 0.0


def test_degree_one_root():
    assert laguerre_assoc(1, 0.0, 1.0).value == 0.0
    assert laguerre_assoc(1, 0.0, 1.0).sign == 0


def test_explicit_series_value():
    # (alpha+1)(alpha+2)/2 - (alpha+2) x + x^2/2 at alpha=2, x=1
    expected = laguerre_series_exact(2, 2, 1)
    assert expected == 2.5
    assert laguerre_assoc(2, 2.0, 1.0).value == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize("n,alpha", [(3, 0), (5, 2), (10, 1), (20, 3)])
def test_matches_series_oracle(n, alpha):
    for x in (0.0, 0.37, 2.0, 11.5, 48.0):
        expected = laguerre_series_exact(n, alpha, Fraction(x))
        got = laguerre_assoc(n, float(alpha), x)
        assert got.value == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_matches_scipy_across_random_sample():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 30))
        alpha = float(rng.choice([0, 1, 2, 3, 4]))
        x = float(rng.uniform(0, 60))
        ours = laguerre_assoc(n, alpha, x).value
        ref = float(eval_genlaguerre(n, alpha, x))
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_log_sign_consistency():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        alpha = float(rng.choice([0, 2]))
        x = float(rng.uniform(0, 100))
        out = laguerre_assoc(n, alpha, x)
        if out.sign == 0:
            continue
        assert out.value == pytest.approx(out.sign * np.exp(out.log_abs),
                                          rel=1e-12)


def test_log_form_survives_huge_arguments():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for x in (600.0, 3000.0, math.exp(10)):
        log_abs, sign = laguerre_log(64, 0.0, np.array([x]))
        assert np.isfinite(log_abs[0])
        ref = mpmath.laguerre(64, 0, x)
        assert sign[0] == (1 if ref > 0 else -1)
        assert float(log_abs[0]) == pytest.approx(
            float(mpmath.log(abs(ref))), rel=1e-10)


# past 1e150 the recurrence's second step would overflow; there
# L_n^alpha(x) is its leading term (-x)^n / n!, to a relative n (n + alpha) / x
@pytest.mark.parametrize("x", [1e155, 1e200, 1e308])
def test_far_arguments_take_the_leading_term(x):
    mpmath = pytest.importorskip("mpmath")
    for n, alpha in ((0, 2.0), (1, 0.0), (2, 0.0), (7, 3.0), (64, 5.0)):
        log_abs, sign = laguerre_log(n, alpha, np.array([x]))
        with mpmath.workdps(60):
            ref = float(mpmath.log(abs(mpmath.laguerre(n, alpha, x))))
        assert sign[0] == (-1) ** n
        assert log_abs[0] == pytest.approx(ref, rel=1e-14, abs=1e-14)
        out = laguerre_assoc(n, alpha, x)
        assert (out.log_abs, out.sign) == (log_abs[0], sign[0])
    assert laguerre_assoc(2, 0.0, x).value == np.inf


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_non_finite_arguments_are_domain_errors(x):
    with pytest.raises(DomainError):
        laguerre_log(3, 0.0, np.array([1.0, x]))
    with pytest.raises(DomainError):
        laguerre_assoc(3, 0.0, x)


def test_degree_overflow_and_domain_errors():
    with pytest.raises(DegreeOverflowError):
        laguerre_assoc(65, 0.0, 1.0)
    with pytest.raises(DomainError):
        laguerre_assoc(3, 0.0, -0.5)
    with pytest.raises(DomainError):
        laguerre_assoc(3, -1.0, 0.5)
    with pytest.raises(DomainError):
        laguerre_assoc(3, 0.0, float("nan"))


def test_recurrence_residual_random():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(2, 21))
        alpha = float(rng.choice([0, 1, 2]))
        x = float(rng.uniform(0, 50))
        ln = laguerre_assoc(n, alpha, x).value
        l1 = laguerre_assoc(n - 1, alpha, x).value
        l2 = laguerre_assoc(n - 2, alpha, x).value
        resid = n * ln - (2 * n - 1 + alpha - x) * l1 + (n - 1 + alpha) * l2
        scale = max(abs(n * ln), abs((2 * n - 1 + alpha - x) * l1),
                    abs((n - 1 + alpha) * l2), 1.0)
        assert abs(resid) / scale < 1e-10


def test_derivative_identity():
    # d/dx L_n^a = -L_{n-1}^{a+1}, against central differences
    rng = np.random.default_rng(321)
    h = 1e-6
    for _ in range(200):
        n = int(rng.integers(1, 16))
        alpha = float(rng.choice([0, 1, 2]))
        x = float(rng.uniform(0.1, 20.0))
        fd = (laguerre_assoc(n, alpha, x + h).value
              - laguerre_assoc(n, alpha, x - h).value) / (2 * h)
        exact = -laguerre_assoc(n - 1, alpha + 1.0, x).value
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 2.0])
def test_orthogonality_by_quadrature(alpha):
    for n in range(6):
        for m in range(6):
            val, _ = quad(
                lambda x: x ** alpha * np.exp(-x)
                * laguerre_assoc(n, alpha, x).value
                * laguerre_assoc(m, alpha, x).value,
                0.0, 150.0, limit=200)
            expected = gamma(n + alpha + 1) / math.factorial(n) if n == m else 0.0
            assert val == pytest.approx(expected, abs=1e-8)


def test_log_factorial_values():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-12)
    # 12+ significant digits against an explicit log sum
    for n in (50, 170, 2000):
        direct = sum(math.log(k) for k in range(2, n + 1))
        assert log_factorial(n) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(DomainError):
        log_factorial(-1)
    with pytest.raises(DomainError):
        log_factorial(10 ** 6 + 1)
