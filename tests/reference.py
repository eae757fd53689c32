"""Test references: slower, plainer forms of library computations.

:func:`wigner_l0_closed` integrates the same closed form as
``radwig.wigner_l0_grid`` by scipy's adaptive Gauss-Kronrod ``quad``
instead of the trapezoid rule, so it checks the ladder's step and its
cosine transform.  It cuts the integral where the library's ladder ends
for that row, so there is one cut rule.

:func:`wigner_bessel_sum` is the third, independent route: W_{l,m} as a
finite sum of Bessel functions K_nu in mpmath, with no Laguerre
recurrence, log-domain assembly or quadrature.  Given a second level, it
is W of the radial coherence between the two, so it checks every entry
of an equal-m block C_m, not only the diagonal.

:func:`wigner_l0_rectangular` is ``radwig.wigner_l0_grid`` with one
rectangle of nodes: every gamma row runs to the end of the deepest row's
ladder, in one product, instead of stopping at its own cut.  Given
``step=``, it runs to the same cut on nodes of that step; at half the
library's step W's images move twice as far out, so it checks the step
rule.

:func:`dense_u_rotation` and :func:`per_block_radial_kernel` are the Fock
pipeline's first two stages in their direct form: one dense unitary
U rho U^dag over every sector, and one complex ``basis.T @ block @ basis``
update per stored block C_m, with basis rows from :func:`scipy_psi`.
U is assembled from :func:`sector_isometry_exact`, the sector blocks from
exact integer polynomials, so it shares no arithmetic with the library's
float recursion.  The dense matrix is the whole angular-momentum matrix,
m != m' coherences included, that ``radwig.SchwingerDensityMatrix`` does
not store; :func:`schwinger_index` gives the row of a label in it, and
:func:`fock_to_schwinger` slices its equal-m blocks out into that type.

:func:`scipy_psi` assembles the rescaled radial eigenfunction psi_k(v)
from scipy's Laguerre values and log-gamma, independent of the library's
recurrence.

:func:`wigner_two_sided` is the density route's transform in its direct
form: every anti-diagonal slice over both signs of tau, one complex
exponential kernel, no Hermitian fold.

:func:`fold_slices_loop` is the density route's folded gather one
anti-diagonal at a time, by fancy indexing, instead of the library's one
strided view of the flat kernel; :func:`wigner_from_density_loop` is the
whole density route on it, the same transform in the same order, so
both must match the library to the bit.

:func:`trace_kernel_sandwich` is the displacement trace kernel's matrix
element <g|D(lam, mu) D^dag(lam', mu')|g> as a per-packet sandwich, the
direct form of the adjoint product <D^dag g|D'^dag g> that the
``displacement-trace-kernel`` invariant takes over a packet stack.

:func:`gaussian_filter_reference` is the ordering-lowering smoothing of
``radwig.s_smooth`` done by scipy's separable ``gaussian_filter``, with the
same kernel radius (10 standard deviations) and zero padding, instead of
the library's two matrix products.  :func:`s_smooth_dense` is those two
products taken whole, (A @ W) @ B^T, zeros off the band included.

:func:`laguerre_explicit` is L_n^a(x) as the explicit sum in
``fractions.Fraction`` arithmetic, the rational form of the integer sum
that the ``laguerre-recurrence`` invariant takes.
"""

import functools
import math
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.ndimage import gaussian_filter
from scipy.special import eval_genlaguerre, gammaln

from radwig import (AccuracyError, SchwingerDensityMatrix, SchwingerLabel,
                    WavefunctionV, apply_displacement, laguerre_assoc)
from radwig.wigner import (_delta_fold, _flush_tiny, _gamma_nodes,
                           _gaussian_matrix, _ladder, _log_integrand)


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


@functools.lru_cache(maxsize=256)
def _bessel_pair(gamma: float, delta: float, dps: int):
    """K_{-i delta}(z) and K_{1 - i delta}(z), z = e^{2 gamma}, at ``dps``
    digits: everything they depend on is in the key, so every (k, k2,
    alpha) of :func:`wigner_bessel_sum` at one point and one working
    precision shares the same two ``besselk`` values."""
    with mpmath.workdps(dps):
        z = mpmath.exp(2 * mpmath.mpf(gamma))
        nu = mpmath.mpc(0, -delta)
        return mpmath.besselk(nu, z), mpmath.besselk(nu + 1, z)


def wigner_bessel_sum(k: int, alpha: int, gamma: float, delta: float,
                      k2: int | None = None) -> complex:
    """W_{k k2 alpha} of the radial coherence between the oscillator
    levels k and k2 (default k) = l - |m| at alpha = 2|m|, at one point,
    as a finite sum of Bessel functions in mpmath.

    It is W of the log-radius kernel psi_k(v) psi_k2(v'); a block C_m
    contributes sum_{k, k2} C_m[k, k2] W_{k k2 alpha}.  Expanding both
    Laguerre factors of the closed form as L_k^alpha(x) = sum_j c_j x^j,
    c_j = (-1)^j C(k + alpha, k - j) / j! (c'_j for k2), and integrating
    term by term with integral dt e^{nu t - z cosh t} = 2 K_nu(z) gives,
    with z = e^{2 gamma},

        W = (2 / pi) sqrt(k! k2! / ((k + alpha)! (k2 + alpha)!))
            (-1)^{k + k2} z^{alpha + 1}
            sum_{i,j} c_i c'_j z^{i+j} K_{i-j-i delta}(z).

    K_{-nu} = K_nu and, for real z, K_{n + i delta} is the conjugate of
    K_{n - i delta}, so only n = 0..max(k, k2) are needed; they follow
    from two ``besselk`` calls (:func:`_bessel_pair`, shared by every call
    at the same point and precision) by the upward recurrence
    K_{nu+1} = K_{nu-1} + (2 nu / z) K_nu.  W_{k2 k alpha} is the
    conjugate of W_{k k2 alpha}, and W_{k k alpha} is real: its imaginary
    part is exactly 0.  The terms cancel badly at large k and z, so a
    30-digit probe first finds the largest term, |K_n| included, and the
    sum runs at 30 digits past it: about 1e-30 absolute.
    """
    if k2 is None:
        k2 = k
    top = max(k, k2)

    def parts(dps):
        z = mpmath.exp(2 * mpmath.mpf(gamma))
        nu = mpmath.mpc(0, -delta)
        bessel = list(_bessel_pair(gamma, delta, dps))
        for n in range(1, top):
            bessel.append(bessel[n - 1] + 2 * (nu + n) / z * bessel[n])
        a, b = ([(-1) ** j * mpmath.binomial(level + alpha, level - j) * z ** j
                 / mpmath.factorial(j) for j in range(level + 1)]
                for level in (k, k2))
        norm = mpmath.sqrt(mpmath.factorial(k) * mpmath.factorial(k2))
        pref = ((-1) ** (k + k2) * 2 * norm * z ** (alpha + 1)
                / (mpmath.pi * mpmath.sqrt(mpmath.factorial(k + alpha)
                                           * mpmath.factorial(k2 + alpha))))
        # K_{-i delta}(z) is real: drop the rounding of its imaginary part
        return [mpmath.re(bessel[0])] + bessel[1:top + 1], a, b, pref

    with mpmath.workdps(30):
        bessel, a, b, pref = parts(30)
        largest = abs(pref) * max(abs(a[i] * b[j] * bessel[abs(i - j)])
                                  for i in range(k + 1) for j in range(k2 + 1))
        dps = 30 + max(0, int(mpmath.ceil(mpmath.log10(largest))))
    with mpmath.workdps(dps):
        bessel, a, b, pref = parts(dps)
        # group by d = |i - j|: K_{d - i delta} where i - j = d, and its
        # conjugate where j - i = d
        total = mpmath.mpc(0)
        for d in range(top + 1):
            plus = mpmath.fsum(a[i] * b[i - d]
                               for i in range(d, min(k, k2 + d) + 1))
            minus = mpmath.fsum(b[j] * a[j - d]
                                for j in range(d, min(k2, k + d) + 1)) if d else 0
            total += plus * bessel[d] + minus * mpmath.conj(bessel[d])
        return complex(pref * total)


def wigner_l0_rectangular(l: int, gamma_grid, delta_grid, *,
                          step=None) -> np.ndarray:
    """Closed-form W_l values with every gamma row on the full ladder,
    eps_k = k * step for k below the largest node count of any row.

    ``step`` (default: the library's) replaces the ladder's step, and the
    rows then run to the same cut, the deepest row's last node, on nodes
    of the given step: ``step=`` half the library's doubles every node
    count and moves W's images twice as far out."""
    gammas, deltas = gamma_grid.points, delta_grid.points
    ladder_step, counts = _ladder(l, gammas, float(np.abs(deltas).max()))
    nodes = counts.max()
    if step is None:
        step = ladder_step
    else:
        nodes = int(np.ceil((nodes - 1) * ladder_step / step - 1e-9)) + 1
    eps = np.arange(nodes) * step
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


def sector_isometry_exact(total: int, n_max: int) -> np.ndarray:
    """``radwig.sector_isometry`` from exact integer coefficients, each
    entry rounded once.

    Expanding the cartesian creation monomial in circular modes,
    a_x^dag = (A_+^dag + A_-^dag)/sqrt(2) and
    a_y^dag = -i (A_+^dag - A_-^dag)/sqrt(2), the coefficient c_p of
    u^{n_+} w^{n_-} in P_{n_x, n_y} = (u + w)^{n_x} (u - w)^{n_y} carries
    the whole combinatorial content: the entry is
    (-i)^{n_y} c_p sqrt(n_+! n_-! / (n_x! n_y! 2^total)).  The c_p are
    integers past 2^53 at large totals, where their signs cancel, so they
    are kept exact in Python ints, and so is the square of each entry;
    the float square root of its rounding is within an ulp or so.
    Column to column, P_{n_x+1, n_y-1} = P_{n_x, n_y} (u + w) / (u - w):
    one exact synthetic division and one multiplication.
    """
    nx0 = max(0, total - n_max)
    ny0 = total - nx0
    # coefficient of u^p (w = 1) in (1 + u)^nx0 (u - 1)^ny0
    poly = [sum(math.comb(nx0, j) * math.comb(ny0, p - j) * (-1) ** (ny0 - p + j)
                for j in range(max(0, p - ny0), min(nx0, p) + 1))
            for p in range(total + 1)]
    cols = [poly]
    for _ in range(nx0, min(total, n_max)):
        # q = P / (u - 1) has q_i = -S_i, with S the prefix sums of P;
        # then (u + 1) q has coefficient q_{i-1} + q_i
        sums = list(accumulate(poly))
        poly = [-(a + b) for a, b in zip([0] + sums[:-1], sums)]
        cols.append(poly)
    fact = [math.factorial(k) for k in range(total + 1)]
    out = np.empty((total + 1, len(cols)), dtype=complex)
    for col, poly in enumerate(cols):
        nx = nx0 + col
        ny = total - nx
        scale = fact[nx] * fact[ny] << total
        for p, c in enumerate(poly):
            square = Fraction(c * c * fact[p] * fact[total - p], scale)
            out[p, col] = (-1j) ** ny * math.copysign(math.sqrt(square), c)
    return out


def schwinger_index(label) -> int:
    """Row of the SchwingerLabel ``label`` in :func:`dense_u_rotation`:
    sector by sector in the total n_plus + n_minus, then by n_plus."""
    total = label.n_plus + label.n_minus
    return total * (total + 1) // 2 + label.n_plus


def dense_u_rotation(rho) -> np.ndarray:
    """Schwinger entries U rho U^dag of a FockDensityMatrix, U assembled
    densely from :func:`sector_isometry_exact`, then symmetrised."""
    n_max = rho.n_max
    dim_s = (2 * n_max + 1) * (2 * n_max + 2) // 2
    u = np.zeros((dim_s, (n_max + 1) ** 2), dtype=complex)
    for total in range(2 * n_max + 1):
        rows = [total * (total + 1) // 2 + p for p in range(total + 1)]
        cols = [nx * (n_max + 1) + (total - nx)
                for nx in range(max(0, total - n_max), min(total, n_max) + 1)]
        u[np.ix_(rows, cols)] = sector_isometry_exact(total, n_max)
    entries = u @ rho.entries @ u.conj().T
    return 0.5 * (entries + entries.conj().T)


def fock_to_schwinger(rho):
    """The FockDensityMatrix ``rho`` in angular-momentum labels: the
    SchwingerDensityMatrix of the equal-m blocks of
    :func:`dense_u_rotation`."""
    entries = dense_u_rotation(rho)
    blocks = {}
    for two_m in range(-2 * rho.n_max, 2 * rho.n_max + 1):
        idx = [schwinger_index(SchwingerLabel.from_occupations(
                   k + max(two_m, 0), k + max(-two_m, 0)))
               for k in range((2 * rho.n_max - abs(two_m)) // 2 + 1)]
        blocks[two_m] = entries[np.ix_(idx, idx)]
    return SchwingerDensityMatrix(rho.n_max, blocks)


def per_block_radial_kernel(rho_s, grid) -> np.ndarray:
    """Radial kernel of a SchwingerDensityMatrix on ``grid``, one stored
    block C_m at a time."""
    v = grid.points
    kernel = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for two_m, block in rho_s.blocks.items():
        basis = np.array([scipy_psi(k, abs(two_m), v)
                          for k in range(len(block))])
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


def fold_slices_loop(entries, s) -> np.ndarray:
    """The slices of the kernel ``entries`` through the anti-diagonals
    s[k], all of one parity p, folded onto tau = p, p + 2, ...: row k holds
    entries[a, b] + entries[b, a]^* at column (a - b) // 2 for every a >= b
    with a + b = s[k], and 0 elsewhere; one fancy index per row."""
    n = entries.shape[0]
    gather = np.zeros((len(s), (n - s[0] % 2 + 1) // 2), dtype=entries.dtype)
    for k, sk in enumerate(s):
        a = np.arange((sk + 1) // 2, min(n - 1, sk) + 1)
        b = sk - a
        gather[k, (a - b) // 2] = entries[a, b] + entries[b, a].conj()
    return gather


def wigner_from_density_loop(rho, gamma_grid, delta_grid) -> np.ndarray:
    """W of ``radwig.wigner_from_density``, its slices gathered by
    :func:`fold_slices_loop`: the same halving, flush, tables and products
    in the same order."""
    h, n = rho.grid.spacing, rho.grid.n_points
    s_idx = _gamma_nodes(gamma_grid, rho.grid)
    cols, col, sign = _delta_fold(delta_grid)
    values = np.empty((gamma_grid.n_points, delta_grid.n_points))
    for p in np.unique(s_idx % 2):
        rows = np.flatnonzero(s_idx % 2 == p)
        gather = fold_slices_loop(rho.entries, s_idx[rows])
        if p == 0:
            gather[:, 0] *= 0.5
        _flush_tiny(gather)
        arg = np.outer(np.arange(p, n, 2) * h, cols)
        w = (gather.real @ np.cos(arg))[:, col]
        if np.iscomplexobj(gather):
            w += sign * (gather.imag @ np.sin(arg))[:, col]
        values[rows] = (h / np.pi) * w
    return values


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


def s_smooth_dense(w, s: float) -> np.ndarray:
    """Values of a WignerGrid smoothed to ordering s by the dense products
    (A @ W) @ B^T of the library's smoothing matrices, every entry of A
    and B taken, the zeros off their bands included."""
    sigma = np.sqrt(-s / 2.0)
    a, _ = _gaussian_matrix(w.gamma_grid, sigma)
    b, _ = _gaussian_matrix(w.delta_grid, sigma)
    return (a @ w.values) @ b.T


def laguerre_explicit(n: int, a: int, x: float) -> Fraction:
    """L_n^a(x) = sum_j (-1)^j C(n + a, n - j) x^j / j!, exact in
    rationals at the float x."""
    xq = Fraction(x)
    return sum((-1) ** j * math.comb(n + a, n - j) * xq ** j
               / math.factorial(j) for j in range(n + 1))
