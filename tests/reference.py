"""Test references: slower, plainer forms of library computations.

:func:`wigner_l0_closed` integrates the same closed form as
``radwig.wigner_l0_grid`` by scipy's adaptive Gauss-Kronrod ``quad``
instead of the trapezoid rule, so it checks the ladder's step and its
cosine transform.  It cuts the integral where the library's ladder ends
for that row, so there is one cut rule.

:func:`wigner_bessel_sum` is the third, independent route: W_{l,m} as a
finite sum of Bessel functions K_nu in mpmath, with no Laguerre
recurrence, log-domain assembly or quadrature.

:func:`wigner_l0_rectangular` is ``radwig.wigner_l0_grid`` with one
rectangle of nodes: every gamma row runs to the end of the deepest row's
ladder, in one product, instead of stopping at its own cut.

:func:`dense_u_rotation` and :func:`per_block_radial_kernel` are the Fock
pipeline's first two stages in their direct form: one dense unitary
U rho U^dag over every sector, and one complex ``basis.T @ block @ basis``
update per angular momentum m, with basis rows from :func:`scipy_psi`.

:func:`scipy_psi` assembles the rescaled radial eigenfunction psi_k(v)
from scipy's Laguerre values and log-gamma, independent of the library's
recurrence.

:func:`wigner_two_sided` is the density route's transform in its direct
form: every anti-diagonal slice over both signs of tau, one complex
exponential kernel, no Hermitian fold.

:func:`trace_kernel_sandwich` is the displacement trace kernel's matrix
element <g|D(lam, mu) D^dag(lam', mu')|g> as a per-packet sandwich, the
direct form of the adjoint product <D^dag g|D'^dag g> that the
``displacement-trace-kernel`` invariant takes over a packet stack.

:func:`gaussian_filter_reference` is the ordering-lowering smoothing of
``radwig.s_smooth`` done by scipy's separable ``gaussian_filter``, with the
same kernel radius (10 standard deviations) and zero padding, instead of
the library's two matrix products.
"""

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.ndimage import gaussian_filter
from scipy.special import eval_genlaguerre, gammaln

from radwig import (AccuracyError, WavefunctionV, apply_displacement,
                    laguerre_assoc, sector_isometry)
from radwig.wigner import _ladder, _log_integrand


def wigner_l0_closed(l: int, gamma: float, delta: float) -> float:
    """Closed-form W_l at a single phase-space point.

    Adaptive Gauss-Kronrod refinement (oscillatory cosine weight for
    delta != 0) of the even part on [0, cut], absolute tolerance 1e-10,
    relative 1e-8.  Raises AccuracyError with the residual estimate if
    refinement fails to converge.
    """
    z = np.exp(2.0 * gamma)
    step, counts = _ladder(l, np.array([gamma]), abs(delta))
    cut = float((counts[0] - 1) * step)

    def even_part(eps):
        p = laguerre_assoc(l, 0.0, z * np.exp(2.0 * eps))
        m = laguerre_assoc(l, 0.0, z * np.exp(-2.0 * eps))
        phi = -z * np.cosh(2.0 * eps) + p.log_abs + m.log_abs
        return float(p.sign * m.sign * np.exp(phi))

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


def wigner_bessel_sum(k: int, alpha: int, gamma: float, delta: float) -> float:
    """W of the oscillator level k = l - |m|, alpha = 2|m| at one point, as
    a finite sum of Bessel functions in mpmath.

    Expanding both Laguerre factors of the closed form as
    L_k^alpha(x) = sum_j c_j x^j, c_j = (-1)^j C(k + alpha, k - j) / j!,
    and integrating term by term with
    integral dt e^{nu t - z cosh t} = 2 K_nu(z) gives, with z = e^{2 gamma},

        W = (2 k! / (pi (k + alpha)!)) z^{alpha + 1}
            sum_{i,j} c_i c_j z^{i+j} K_{i-j-i delta}(z).

    K_{-nu} = K_nu and, for real z, K_{n + i delta} is the conjugate of
    K_{n - i delta}, so only n = 0..k are needed; they follow from two
    ``besselk`` calls by the upward recurrence
    K_{nu+1} = K_{nu-1} + (2 nu / z) K_nu.  The terms cancel badly at large
    k and z, so a 30-digit probe first finds the largest term, |K_n|
    included, and the sum runs at 30 digits past it: about 1e-30 absolute.
    """
    def parts():
        z = mpmath.exp(2 * mpmath.mpf(gamma))
        nu = mpmath.mpc(0, -delta)
        bessel = [mpmath.besselk(nu, z), mpmath.besselk(nu + 1, z)]
        for n in range(1, k):
            bessel.append(bessel[n - 1] + 2 * (nu + n) / z * bessel[n])
        a = [(-1) ** j * mpmath.binomial(k + alpha, k - j) * z ** j
             / mpmath.factorial(j) for j in range(k + 1)]
        pref = (2 * mpmath.factorial(k) * z ** (alpha + 1)
                / (mpmath.pi * mpmath.factorial(k + alpha)))
        return bessel[:k + 1], a, pref

    with mpmath.workdps(30):
        bessel, a, pref = parts()
        largest = pref * max(abs(a[i] * a[j] * bessel[abs(i - j)])
                             for i in range(k + 1) for j in range(k + 1))
        dps = 30 + max(0, int(mpmath.ceil(mpmath.log10(largest))))
    with mpmath.workdps(dps):
        bessel, a, pref = parts()
        # the (i, j) and (j, i) terms are conjugates: group by d = i - j
        total = mpmath.mpf(0)
        for d in range(k + 1):
            pairs = mpmath.fsum(a[i] * a[i - d] for i in range(d, k + 1))
            total += (1 if d == 0 else 2) * pairs * mpmath.re(bessel[d])
        return float(pref * total)


def wigner_l0_rectangular(l: int, gamma_grid, delta_grid) -> np.ndarray:
    """Closed-form W_l values with every gamma row on the full ladder,
    eps_k = k * step for k below the largest node count of any row."""
    gammas, deltas = gamma_grid.points, delta_grid.points
    step, counts = _ladder(l, gammas, float(np.abs(deltas).max()))
    eps = np.arange(counts.max()) * step
    phi, sign = _log_integrand(l, gammas[:, None], eps)
    peak = phi.max(axis=1, keepdims=True)
    integrand = sign * np.exp(phi - peak)
    integrand[:, 0] *= 0.5
    kernel = np.cos(2.0 * np.outer(eps, deltas))
    return (2.0 / np.pi) * np.exp(peak) * step * (integrand @ kernel)


def scipy_psi(k, alpha, v):
    """psi_k(v) = e^v R(e^v) from scipy's Laguerre values and log-gamma."""
    x = np.exp(2.0 * v)
    lag = eval_genlaguerre(k, alpha, x)
    with np.errstate(divide="ignore"):
        log_abs = (0.5 * (np.log(2.0) + gammaln(k + 1.0) - gammaln(k + alpha + 1.0))
                   + (alpha + 1.0) * v - x / 2.0 + np.log(np.abs(lag)))
    return (-1.0) ** k * np.sign(lag) * np.exp(log_abs)


def dense_u_rotation(rho) -> np.ndarray:
    """Schwinger entries U rho U^dag of a FockDensityMatrix, U assembled
    densely from the sector isometries, then symmetrised."""
    n_max = rho.n_max
    dim_s = (2 * n_max + 1) * (2 * n_max + 2) // 2
    u = np.zeros((dim_s, (n_max + 1) ** 2), dtype=complex)
    for total in range(2 * n_max + 1):
        rows = [total * (total + 1) // 2 + p for p in range(total + 1)]
        cols = [nx * (n_max + 1) + (total - nx)
                for nx in range(max(0, total - n_max), min(total, n_max) + 1)]
        u[np.ix_(rows, cols)] = sector_isometry(total, n_max)
    entries = u @ rho.entries @ u.conj().T
    return 0.5 * (entries + entries.conj().T)


def per_block_radial_kernel(rho_s, grid) -> np.ndarray:
    """Radial kernel of a SchwingerDensityMatrix on ``grid``, one m block
    at a time."""
    v = grid.points
    labels = rho_s.labels
    by_m = {}
    for idx, lab in enumerate(labels):
        by_m.setdefault(lab.n_plus - lab.n_minus, []).append(idx)
    kernel = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for idx in by_m.values():
        block = rho_s.entries[np.ix_(idx, idx)]
        basis = np.array([scipy_psi(min(labels[i].n_plus, labels[i].n_minus),
                                    abs(labels[i].n_plus - labels[i].n_minus), v)
                          for i in idx])
        kernel += basis.T @ block @ basis
    return kernel


def wigner_two_sided(rho, gamma_grid, delta_grid) -> np.ndarray:
    """Complex (h/pi) sum_tau f(tau) e^{-i tau delta} of a DensityMatrixV
    over the full anti-diagonal slice f(tau), tau of both signs; its real
    part is the Wigner function, its imaginary part 0 for Hermitian input.
    ``gamma_grid`` must sit on the density grid's half-spacings."""
    v0, h, n = rho.grid.min, rho.grid.spacing, rho.grid.n_points
    s_idx = np.rint(2.0 * (gamma_grid.points - v0) / h).astype(int)
    ntau = 2 * n - 1
    gather = np.zeros((gamma_grid.n_points, ntau), dtype=complex)
    for k, s in enumerate(s_idx):
        a = np.arange(max(0, s - (n - 1)), min(n - 1, s) + 1)
        gather[k, 2 * a - s + (n - 1)] = rho.entries[a, s - a]
    tau = (np.arange(ntau) - (n - 1)) * h
    return (h / np.pi) * (gather @ np.exp(-1j * np.outer(tau, delta_grid.points)))


def trace_kernel_sandwich(grid, packets, lam, mu, lam_p, mu_p) -> complex:
    """sum_g <g| D(lam, mu) D^dag(lam', mu') |g> h over the rows g of
    ``packets``: the trace-kernel element in its direct form, two
    ``apply_displacement`` calls on one packet at a time."""
    total = 0.0 + 0.0j
    for row in packets:
        g = WavefunctionV(grid, row)
        x = apply_displacement(-lam_p, -mu_p, g)       # D^dag(lam', mu')
        x = apply_displacement(lam, mu, x)
        total += np.sum(np.conj(g.samples) * x.samples) * grid.spacing
    return total


def gaussian_filter_reference(w, s: float) -> np.ndarray:
    """Values of a WignerGrid convolved with the Gaussian of variance
    |s|/2 per axis by scipy's ``gaussian_filter`` (``mode="constant"``,
    ``truncate=10``)."""
    sigma = np.sqrt(-s / 2.0)
    pix = (sigma / w.gamma_grid.spacing, sigma / w.delta_grid.spacing)
    return gaussian_filter(w.values, sigma=pix, mode="constant", truncate=10.0)
