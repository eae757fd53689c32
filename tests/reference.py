"""Adaptive-quadrature reference for the closed-form Wigner ladder.

:func:`wigner_l0_closed` integrates the same closed form as
``radwig.wigner_l0_grid`` by scipy's adaptive Gauss-Kronrod ``quad``
instead of the trapezoid rule, so it checks the ladder's step and its
cosine transform.  It cuts the integral where the library's ladder ends,
so there is one cut rule.
"""

import numpy as np
from scipy.integrate import quad

from radwig import AccuracyError, laguerre_log
from radwig.wigner import _ladder


def wigner_l0_closed(l: int, gamma: float, delta: float) -> float:
    """Closed-form W_l at a single phase-space point.

    Adaptive Gauss-Kronrod refinement (oscillatory cosine weight for
    delta != 0) of the even part on [0, cut], absolute tolerance 1e-10,
    relative 1e-8.  Raises AccuracyError with the residual estimate if
    refinement fails to converge.
    """
    z = np.exp(2.0 * gamma)
    cut = float(_ladder(l, np.array([gamma]), abs(delta))[-1])

    def even_part(eps):
        log_p, sign_p = laguerre_log(l, 0.0, np.array([z * np.exp(2.0 * eps)]))
        log_m, sign_m = laguerre_log(l, 0.0, np.array([z * np.exp(-2.0 * eps)]))
        phi = -z * np.cosh(2.0 * eps) + log_p[0] + log_m[0]
        return float(sign_p[0] * sign_m[0] * np.exp(phi))

    if delta == 0.0:
        result = quad(even_part, 0.0, cut, epsabs=1e-10, epsrel=1e-8,
                      limit=200, full_output=True)
    else:
        result = quad(even_part, 0.0, cut, weight="cos", wvar=2.0 * delta,
                      epsabs=1e-10, epsrel=1e-8, limit=200, full_output=True)
    if len(result) > 3:
        raise AccuracyError(
            f"quadrature for W_{l}({gamma}, {delta}) did not converge: "
            f"{result[3]}", residual=float(result[1]))
    return float((4.0 * np.exp(2.0 * gamma) / np.pi) * result[0])
