import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gamma, roots_genlaguerre

from radwig import (DegreeOverflowError, DomainError, laguerre_assoc,
                    log_factorial)


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
        out = laguerre_assoc(64, 0.0, x)
        assert np.isfinite(out.log_abs)
        ref = mpmath.laguerre(64, 0, x)
        assert out.sign == (1 if ref > 0 else -1)
        assert out.log_abs == pytest.approx(float(mpmath.log(abs(ref))),
                                            rel=1e-10)


# past 1e150 the recurrence's second step would overflow; there
# L_n^alpha(x) is its leading term (-x)^n / n!, to a relative n (n + alpha) / x
@pytest.mark.parametrize("x", [1e155, 1e200, 1e308])
def test_far_arguments_take_the_leading_term(x):
    mpmath = pytest.importorskip("mpmath")
    for n, alpha in ((0, 2.0), (1, 0.0), (2, 0.0), (7, 3.0), (64, 5.0)):
        out = laguerre_assoc(n, alpha, x)
        with mpmath.workdps(60):
            ref = float(mpmath.log(abs(mpmath.laguerre(n, alpha, x))))
        assert out.sign == (-1) ** n
        assert out.log_abs == pytest.approx(ref, rel=1e-14, abs=1e-14)
        arr = laguerre_assoc(n, alpha, np.array([x]))
        assert (arr.log_abs[0], arr.sign[0]) == (out.log_abs, out.sign)
    assert laguerre_assoc(2, 0.0, x).value == np.inf


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
def test_non_finite_arguments_are_domain_errors(x):
    with pytest.raises(DomainError):
        laguerre_assoc(3, 0.0, np.array([1.0, x]))
    with pytest.raises(DomainError):
        laguerre_assoc(3, 0.0, x)


# exact zeros (L_1^a(a + 1)), Gauss-Laguerre nodes, values rescaled past
# 1e100 and past the double range, up to the largest double
@pytest.mark.parametrize("alpha", [0.0, 2.0, 7.0])
def test_array_argument_matches_scalar_calls_bitwise(alpha):
    base = [0.0, 1.0, 3.0, 8.0, 0.37, 11.5, 48.0, 600.0, 3000.0, 1e100,
            1e155, 1e200, 1e308]
    values, signs = [], []
    for n in (0, 1, 2, 7, 20, 33, 64):
        x = np.concatenate([base, roots_genlaguerre(max(n, 1), alpha)[0]])
        x = np.stack([x, x[::-1]])
        out = laguerre_assoc(n, alpha, x)
        calls = [laguerre_assoc(n, alpha, float(xi)) for xi in x.ravel()]
        for field, dtype in (("value", float), ("log_abs", float),
                             ("sign", int)):
            got = getattr(out, field)
            want = np.array([getattr(c, field) for c in calls], dtype=dtype)
            assert got.shape == x.shape
            assert got.tobytes() == want.reshape(x.shape).tobytes(), field
        values.append(out.value.ravel())
        signs.append(out.sign.ravel())
    values, signs = np.concatenate(values), np.concatenate(signs)
    assert np.any(signs == 0) and np.any(np.isinf(values))
    assert np.any(np.abs(values[np.isfinite(values)]) > 1e100)
    # a 0-d argument is a scalar one: Python float and int fields
    zero_d = laguerre_assoc(5, alpha, np.array(3.0))
    assert zero_d == laguerre_assoc(5, alpha, 3.0)
    assert [type(zero_d.value), type(zero_d.log_abs), type(zero_d.sign)] \
        == [float, float, int]


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
