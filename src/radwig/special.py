"""Associated Laguerre polynomials with overflow-safe log/sign evaluation.

Every radial wavefunction in this package multiplies a Laguerre polynomial
by a steeply decaying exponential.  At the arguments reached inside the
phase-space integrals the polynomial value alone can exceed the double
range, so alongside the plain value each evaluation carries its sign and
the log of its magnitude, and the integrators assemble products entirely
in the log domain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeOverflowError, DomainError

__all__ = ["LaguerreEval", "laguerre_assoc", "log_factorial", "MAX_DEGREE"]

MAX_DEGREE = 64

_RESCALE_THRESHOLD = 1e100


@dataclass(frozen=True)
class LaguerreEval:
    """Value of an associated Laguerre polynomial in dual representation.

    ``value == sign * exp(log_abs)`` whenever the value is representable in
    a double; ``log_abs``/``sign`` stay finite and meaningful far beyond
    that range.  ``sign == 0`` (with ``log_abs == -inf``) marks an exact
    zero.  The three fields are arrays of the argument's shape when
    :func:`laguerre_assoc` is given an array.
    """

    n: int
    alpha: float
    value: float
    log_abs: float
    sign: int


def laguerre_assoc(n: int, alpha: float, x) -> LaguerreEval:
    """Evaluate the associated Laguerre polynomial L_n^alpha(x).

    Uses the three-term recurrence

        k L_k = (2k - 1 + alpha - x) L_{k-1} - (k - 1 + alpha) L_{k-2}

    which is stable for the nonnegative arguments used here, rather than
    the explicit power series whose terms alternate catastrophically at
    large ``x``.  Elementwise in ``x``: each element of an array argument
    gets exactly the bits of its own scalar call.

    Parameters
    ----------
    n : int
        Degree, ``0 <= n <= MAX_DEGREE``.
    alpha : float
        Order, ``alpha >= 0``.
    x : float or array_like
        Argument, finite and ``>= 0``.

    Returns
    -------
    LaguerreEval
        Plain value plus the sign / log-magnitude pair: Python ``float``
        and ``int`` for a scalar ``x``, arrays of its shape otherwise.
    """
    _check_degree_order(n, alpha)
    x = np.asarray(x, dtype=float)
    ok = np.isfinite(x) & (x >= 0)
    if not np.all(ok):
        raise DomainError(f"argument must be finite and >= 0, got {x[~ok][0]}")
    cur, offset, log_abs = _last_log(
        _scaled_recurrence(int(n), alpha, np.atleast_1d(x)))
    sign = np.sign(cur).astype(int)
    # no rescale (offset 0): exactly the plain recurrence's value; else
    # |L| passed 1e100 on the way, and the log form gives +-inf past the
    # double range
    with np.errstate(over="ignore"):
        value = np.where(offset == 0, cur, sign * np.exp(log_abs))
    if x.ndim == 0:
        return LaguerreEval(int(n), alpha, float(value[0]),
                            float(log_abs[0]), int(sign[0]))
    return LaguerreEval(int(n), alpha, value, log_abs, sign)


def _check_degree_order(n, alpha):
    if n < 0 or n != int(n):
        raise DomainError(f"degree must be a nonnegative integer, got {n}")
    if n > MAX_DEGREE:
        raise DegreeOverflowError(
            f"degree {n} exceeds the configured maximum {MAX_DEGREE}")
    if alpha < 0:
        raise DomainError(f"order must be nonnegative, got {alpha}")


def _scaled_recurrence(n: int, alpha: float, x: np.ndarray):
    """Yield L_k^alpha(x) as ``cur * exp(offset)`` for k = 0..n in turn.

    Wherever |L_k| passes ``_RESCALE_THRESHOLD``, L_1 included, the pair
    (L_k, L_{k-1}) is divided by |L_k| and ``offset`` (a scalar until then)
    gains its log, so every finite x >= 0 stays finite; where it never
    does, ``offset`` is 0 and ``cur`` is the plain recurrence's value.
    Each yielded pair is fresh and later steps leave it alone, so a caller
    may use every degree (the radial rows of
    :func:`radwig.states._radial_rows`) or only the last.
    """
    offset, prev, cur = 0.0, None, np.ones_like(x)
    for k in range(n + 1):
        if k == 1:
            prev, cur = cur, 1.0 + alpha - x
        elif k > 1:
            prev, cur = cur, ((2*k - 1 + alpha - x) * cur
                              - (k - 1 + alpha) * prev) / k
        if (cur.max(initial=0.0) > _RESCALE_THRESHOLD
                or cur.min(initial=0.0) < -_RESCALE_THRESHOLD):
            mag = np.abs(cur)
            scale = np.where(mag > _RESCALE_THRESHOLD, mag, 1.0)
            cur /= scale
            prev = prev / scale
            offset = offset + np.log(scale)
        yield cur, offset


def _last_log(pairs):
    """Run a ``(cur, offset)`` generator to its last degree: that degree's
    ``(cur, offset, offset + ln|cur|)``, the log -inf where ``cur`` is 0."""
    for cur, offset in pairs:
        pass
    with np.errstate(divide="ignore"):
        return cur, offset, offset + np.log(np.abs(cur))


def log_factorial(n: int) -> float:
    """ln(n!) for 0 <= n <= 10**6, accurate to better than 12 digits."""
    if n < 0 or n != int(n):
        raise DomainError(f"factorial argument must be a nonnegative integer, got {n}")
    if n > 10**6:
        raise DomainError(f"factorial argument {n} above supported range 1e6")
    return math.lgamma(n + 1.0)
