"""Named numerical invariants behind the ``radwig check`` command.

Every invariant measures one residual; it passes when the residual is at
most its tolerance.  The registry doubles as the machine-checkable record
of the operator algebra: the canonical commutators, the adjoint action of
the scale displacement, the annihilation of the ground state, and the
delta-normalisation of the displacement trace kernel.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .grids import Grid1D
from .operators import _displace, apply_displacement, apply_pr, expectation
from .special import laguerre_assoc
from .states import (SchwingerLabel, WavefunctionR, WavefunctionV,
                     dilaton_coherent, dilaton_vacuum, radial_wavefunction,
                     vbar_schwinger_l0)
from .wigner import (WIGNER_LOWER_BOUND, marginal_position, s_smooth,
                     schwinger_density, wigner_from_density, wigner_l0_grid)

__all__ = ["InvariantResult", "available_invariants", "run_invariants"]


@dataclass
class InvariantResult:
    name: str
    description: str
    measured: float
    tolerance: float
    passed: bool
    seconds: float

    def as_dict(self) -> dict:
        """The result as JSON values: a non-finite measurement is None."""
        return {
            "invariant": self.name,
            "description": self.description,
            "measured": self.measured if math.isfinite(self.measured) else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seconds": self.seconds,
        }


def _l2(samples: np.ndarray, spacing: float) -> float:
    return float(np.sqrt(np.sum(np.abs(samples) ** 2) * spacing))


def _gaussian_suite():
    """Smooth, strongly edge-decayed log-radius test states."""
    grid = Grid1D(-10.0, 10.0, 2001)
    v = grid.points
    states = [
        WavefunctionV(grid, dilaton_vacuum("vbar", v)),
        dilaton_coherent(0.4 + 0.3j, grid),
        dilaton_coherent(-0.6 + 0.8j, grid),
        WavefunctionV(grid, (2.0 / np.pi) ** 0.25 * np.exp(-((v + 0.5) ** 2))),
    ]
    two_bump = np.exp(-((v - 1.2) ** 2) / 2) + 0.7j * np.exp(-((v + 1.0) ** 2) / 2)
    two_bump /= np.sqrt(np.sum(np.abs(two_bump) ** 2) * grid.spacing)
    states.append(WavefunctionV(grid, two_bump))
    return grid, states


def _radial_suite():
    # the window below r_min holds ~2e-5 of the (exact) closed-form mass
    r = np.linspace(0.004, 10.0, 2500)
    labels = [(0, 0), (1, 0), (1, 1), (2, 1)]
    return r, [WavefunctionR(r, radial_wavefunction(SchwingerLabel(l, m), r),
                             norm_tol=1e-4)
               for l, m in labels]


def _laguerre_draws(seed, degrees, orders, interval) -> dict:
    """200 seeded draws of (n, a, x), as x arrays keyed by (n, a)."""
    rng = np.random.default_rng(seed)
    draws = {}
    for _ in range(200):
        n = int(rng.integers(*degrees))
        alpha = float(rng.choice(orders))
        draws.setdefault((n, alpha), []).append(float(rng.uniform(*interval)))
    return {key: np.array(xs) for key, xs in draws.items()}


def _laguerre_coefficients(n: int, a: int) -> list:
    """c_j = (-1)^j C(n + a, n - j) n!/j!, so n! L_n^a(x) = sum_j c_j x^j."""
    return [(-1) ** j * math.comb(n + a, n - j)
            * (math.factorial(n) // math.factorial(j)) for j in range(n + 1)]


def _check_laguerre_recurrence() -> float:
    """Worst relative error of the recurrence's L_n^a(x) against the exact
    explicit sum, in integers.  With x = p/q and value = u/b,

        s = n! q^n L_n^a(x) = sum_j c_j p^j q^(n-j),

    one Horner sum per point, and the error (u n! q^n - s b) / (s b) is
    one correctly rounded int/int division."""
    worst = 0.0
    for (n, alpha), xs in _laguerre_draws(
            20210, (2, 21), [0.0, 1.0, 2.0, 3.0], (0.0, 50.0)).items():
        values = laguerre_assoc(n, alpha, xs).value
        coeffs = _laguerre_coefficients(n, int(alpha))[::-1]
        scale = math.factorial(n)
        for x, value in zip(xs.tolist(), values.tolist()):
            p, q = x.as_integer_ratio()
            s, qk = 0, 1
            for c in coeffs:
                s, qk = s * p + c * qk, qk * q
            u, b = value.as_integer_ratio()
            worst = max(worst, abs((u * scale * q ** n - s * b) / (s * b)))
    return worst


def _check_laguerre_derivative() -> float:
    """Worst |central difference - (-L_{n-1}^{a+1})| over max(1, |L'|), at
    the step h = (3 x 2.2e-16)^(1/3) = 8.7e-6 where rounding and
    truncation error balance."""
    step = (3.0 * np.finfo(float).eps) ** (1.0 / 3.0)
    worst = 0.0
    for (n, alpha), xs in _laguerre_draws(
            20211, (1, 16), [0.0, 1.0, 2.0], (0.1, 20.0)).items():
        ends = laguerre_assoc(n, alpha, np.stack([xs + step, xs - step])).value
        fd = (ends[0] - ends[1]) / (2 * step)
        exact = -laguerre_assoc(n - 1, alpha + 1.0, xs).value
        worst = max(worst, float(np.max(
            np.abs(fd - exact) / np.maximum(1.0, np.abs(exact)))))
    return worst


def _check_orthonormality() -> float:
    grid = Grid1D(-12.0, 4.0, 1601)
    v = grid.points
    psis = [vbar_schwinger_l0(l, v) for l in range(6)]
    worst = 0.0
    for i in range(6):
        for j in range(6):
            val = np.sum(psis[i] * psis[j]) * grid.spacing
            worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    return float(worst)


def _check_weyl_commutator() -> float:
    grid, states = _gaussian_suite()
    v = grid.points
    worst = 0.0
    for psi in states:
        p_psi = apply_pr(psi)
        vp = WavefunctionV(grid, v * psi.samples, norm_tol=None)
        resid = v * p_psi - apply_pr(vp) - 1j * psi.samples
        worst = max(worst, _l2(resid, grid.spacing))
    return worst


def _check_dilation_commutator() -> float:
    r, states = _radial_suite()
    h = r[1] - r[0]
    worst = 0.0
    for psi in states:
        p_psi = apply_pr(psi)
        rp = WavefunctionR(r, r * psi.samples, norm_tol=None)
        resid = r * p_psi - apply_pr(rp) - 1j * r * psi.samples
        worst = max(worst, float(np.sqrt(np.sum(r * np.abs(resid) ** 2) * h)))
    return worst


def _check_vacuum_annihilation() -> float:
    grid = Grid1D(-10.0, 10.0, 2001)
    v = grid.points
    psi = WavefunctionV(grid, dilaton_vacuum("vbar", v))
    resid = (v * psi.samples + 1j * apply_pr(psi)) / np.sqrt(2.0)
    return _l2(resid, grid.spacing)


def _check_exponentiated_dilation() -> float:
    grid, states = _gaussian_suite()
    worst = 0.0
    for sigma in (-1.0, -0.5, 0.5, 1.0):
        psi = states[1]
        before = expectation("R", psi).real
        after = expectation("R", apply_displacement(0.0, -sigma, psi)).real
        worst = max(worst, abs(after - np.exp(sigma) * before) / abs(before))
    return worst


def _check_displacement_r_adjoint() -> float:
    grid, states = _gaussian_suite()
    psi = states[2]
    before = expectation("R", psi).real
    worst = 0.0
    for lam in (-1.0, -0.3, 0.5, 1.0):
        for mu in (-1.0, -0.4, 0.7, 1.0):
            after = expectation("R", apply_displacement(lam, mu, psi)).real
            worst = max(worst, abs(after - np.exp(-mu) * before) / abs(before))
    return worst


def _check_displacement_pr_adjoint() -> float:
    grid, states = _gaussian_suite()
    psi = states[1]
    before = expectation("Pr", psi).real
    worst = 0.0
    for lam in (-1.0, -0.3, 0.5, 1.0):
        for mu in (-1.0, 0.4, 1.0):
            after = expectation("Pr", apply_displacement(lam, mu, psi)).real
            worst = max(worst, abs(after - (before + lam)))
    return worst


def _check_displacement_composition() -> float:
    grid, states = _gaussian_suite()
    worst = 0.0
    for mu1, mu2 in ((0.3, 0.5), (-0.4, 0.9), (1.0, -1.0)):
        for psi in states[:3]:
            once = apply_displacement(0.0, mu1 + mu2, psi).samples
            twice = apply_displacement(0.0, mu1, apply_displacement(0.0, mu2, psi)).samples
            worst = max(worst, _l2(once - twice, grid.spacing))
    return worst


def _check_pr_self_adjoint() -> float:
    grid, states = _gaussian_suite()
    h = grid.spacing
    worst = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            phi, psi = states[i], states[j]
            lhs = np.sum(np.conj(phi.samples) * apply_pr(psi)) * h
            rhs = np.sum(np.conj(apply_pr(phi)) * psi.samples) * h
            worst = max(worst, abs(lhs - rhs))
    return worst


_PACKET_WIDTH = 0.05


def _trace_packets():
    """The trace-kernel probe: normalised Gaussian packets of width 0.05,
    centred 0.2 apart on [-2, 2], one per row; returns the grid, the
    (21, 2001) packet stack and the centres."""
    grid = Grid1D(-10.0, 10.0, 2001)
    centers = np.arange(-2.0, 2.0001, 0.2)
    g = (np.pi * _PACKET_WIDTH ** 2) ** -0.25 * np.exp(
        -((grid.points - centers[:, None]) ** 2) / (2 * _PACKET_WIDTH ** 2))
    g = g / np.sqrt(np.sum(g ** 2, axis=1, keepdims=True) * grid.spacing)
    return grid, g.astype(complex), centers


def _packet_kernel(c, lam, mu, lam_p, mu_p):
    """<D^dag(lam, mu) g_c | D^dag(lam', mu') g_c> in closed form, for the
    normalised Gaussian packet g_c of width 0.05 centred at c."""
    w = _PACKET_WIDTH
    return (np.exp(-(mu - mu_p) ** 2 / (4 * w * w)
                   - (lam - lam_p) ** 2 * w * w / 4)
            * np.exp(1j * ((lam - lam_p) * (c + (mu + mu_p) / 2)
                           - lam * mu / 2 + lam_p * mu_p / 2)))


def _trace_kernel_terms(lam0, mu0):
    """Probe points and packet elements around (lam0, mu0).

    Returns the 27 points (lam', mu'), 9 along each axis and 9 off both,
    and two (27, 21) arrays, one row per point and one column per packet
    g_c: the numeric <D^dag(lam0, mu0) g_c | D^dag(lam', mu') g_c> and its
    closed form.  The points take 9 distinct mu', and the packet stack is
    shifted once per mu', with every lam' of that mu' in one array."""
    grid, packets, centers = _trace_packets()
    etas = np.linspace(-2.5 * np.pi, 2.5 * np.pi, 9)
    gaps = np.linspace(-0.4, 0.4, 9)
    lam_p = lam0 + np.concatenate([etas, np.zeros(9), etas])
    mu_p = mu0 - np.concatenate([np.zeros(9), gaps, gaps[::-1]])
    left = np.conj(_displace(grid, packets, -lam0, -mu0))
    numeric = np.empty((lam_p.size, centers.size), dtype=complex)
    for mu in np.unique(mu_p):          # one shift of the stack per mu'
        at = mu_p == mu
        numeric[at] = np.sum(_displace(grid, packets, -lam_p[at], -mu) * left,
                             axis=-1)
    numeric *= grid.spacing
    exact = _packet_kernel(centers, lam0, mu0, lam_p[:, None], mu_p[:, None])
    return lam_p, mu_p, numeric, exact


def _check_trace_kernel() -> float:
    """Worst |numeric - closed form| of the packet elements
    <D^dag(l, m) g_c | D^dag(l', m') g_c> = <g_c|D(l, m) D^dag(l', m')|g_c>
    over the 21 packets and the 27 points of ``_trace_kernel_terms`` at
    (l, m) = (0.7, 0.2) and (0.7, 0.6); the closed form peaks at 1.  Its
    centre sum, integrated over (l', m'), carries the 2 pi x packet-area
    weight of Tr[D(l, m) D^dag(l', m')] = 2 pi delta(l - l') delta(m - m').
    """
    worst = 0.0
    for mu0 in (0.2, 0.6):
        _, _, numeric, exact = _trace_kernel_terms(0.7, mu0)
        worst = max(worst, float(np.abs(numeric - exact).max()))
    return worst


def _check_wigner_cross_route() -> float:
    gamma = Grid1D(-3.0, 2.0, 51)
    delta = Grid1D(-4.0, 4.0, 41)
    rho = schwinger_density(1)
    dens = wigner_from_density(rho, gamma, delta)
    closed = wigner_l0_grid(1, gamma, delta)
    return float(np.abs(dens.values - closed.values).max())


def _check_wigner_normalization() -> float:
    gamma = Grid1D(-12.0, 2.0, 701)
    delta = Grid1D(-26.0, 26.0, 1041)
    w = wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    return abs(w.total() - 1.0)


def _check_wigner_marginal() -> float:
    gamma = Grid1D(-12.0, 2.0, 701)
    delta = Grid1D(-26.0, 26.0, 1041)
    w = wigner_l0_grid(2, gamma, delta, allow_deep_tail=True)
    marg = marginal_position(w)
    exact = vbar_schwinger_l0(2, gamma.points) ** 2
    return float(np.abs(marg - exact).max())


def _check_wigner_bound() -> float:
    gamma = Grid1D(-3.0, 2.0, 126)
    delta = Grid1D(-4.0, 4.0, 81)
    excess = 0.0
    for l in range(4):
        w = wigner_l0_grid(l, gamma, delta)
        excess = max(excess, WIGNER_LOWER_BOUND - w.min_value())
    return max(0.0, excess)


def _check_wigner_negativity() -> float:
    """1e-3 over the shallowest negative depth among W_l, l = 1..3.

    Passes (at most 1) while every minimum lies at or below -1e-3; a
    level without negative values gives inf.
    """
    gamma = Grid1D(-3.0, 2.0, 126)
    delta = Grid1D(-4.0, 4.0, 81)
    depth = -max(wigner_l0_grid(l, gamma, delta).min_value() for l in (1, 2, 3))
    return 1e-3 / depth if depth > 0 else np.inf


def _check_husimi_nonnegative() -> float:
    gamma = Grid1D(-11.0, 6.0, 681)
    delta = Grid1D(-16.0, 16.0, 641)
    w = wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    q = s_smooth(w, -1.0)
    margin = 6.5 * np.sqrt(0.5)
    gi = (gamma.points > gamma.min + margin) & (gamma.points < gamma.max - margin)
    di = (delta.points > delta.min + margin) & (delta.points < delta.max - margin)
    interior_min = q.values[np.ix_(gi, di)].min()
    return max(0.0, -float(interior_min))


def _husimi_exact(l: int, gamma_grid: Grid1D, delta_grid: Grid1D,
                  vbar_grid: Grid1D) -> np.ndarray:
    """Exact Husimi function of the level |l, 0> over a phase-space grid.

    Q(gamma, delta) = |<alpha|l, 0>|^2 / 2 pi, with <alpha| the
    ``dilaton_coherent`` state centred at (gamma, delta):

        <alpha|psi> = pi^{-1/4} e^{i delta gamma / 2}
                      integral dv e^{-(v - gamma)^2 / 2} psi(v) e^{-i delta v}.

    Over a grid this is one Gaussian-windowed Fourier transform of the
    real psi: M[gamma, v] = e^{-(v - gamma)^2 / 2} psi(v) times the cosine
    and the sine of v delta, two real products, summed on ``vbar_grid``.
    """
    v, h = vbar_grid.points, vbar_grid.spacing
    m = (np.exp(-0.5 * (v[None, :] - gamma_grid.points[:, None]) ** 2)
         * vbar_schwinger_l0(l, v))
    arg = np.outer(v, delta_grid.points)
    c, s = m @ np.cos(arg), m @ np.sin(arg)
    return (h * h / (2.0 * np.pi ** 1.5)) * (c * c + s * s)


def _check_husimi_exact() -> float:
    """Largest |s_smooth(W_1, -1) - Q| over the whole grid, edges included."""
    gamma = Grid1D(-12.0, 3.0, 131)
    delta = Grid1D(-18.0, 18.0, 161)
    w = wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    q = s_smooth(w, -1.0)
    exact = _husimi_exact(1, gamma, delta, Grid1D(-24.0, 8.0, 801))
    return float(np.abs(q.values - exact).max())


# A one-line model above an entry stays below its tolerance, itself >= 100x
# the measured value (husimi-exact: 5x); eps = 1.1e-16, n = 2001, h = 0.01
_REGISTRY = [
    # rounding: n <= 20 steps x last-step cancellation <= 50 x eps ~ 1.1e-13
    ("laguerre-recurrence",
     "L_n^a against the exact explicit sum in integers, relative",
     1e-11, _check_laguerre_recurrence),
    # rounding eps max|L|/h ~ 4e-8 + truncation h^2 max|L'''|/6 ~ 2e-8
    ("laguerre-derivative",
     "d/dx L_n^a = -L_{n-1}^{a+1} against central differences",
     1e-6, _check_laguerre_derivative),
    # window: each psi_l's mass below v = -12 is e^{-24} ~ 3.8e-11
    ("schwinger-orthonormality",
     "<l,0|l',0> = delta_{ll'} for l, l' <= 5",
     1e-8, _check_orthonormality),
    # rounding: eps x pi/h (spectral derivative) x max|v| = 10 ~ 3.5e-13
    ("weyl-commutator",
     "L2 residual of ([v, P] - i) psi on the smooth test suite",
     1e-10, _check_weyl_commutator),
    # truncation: the stencils leave r h^4 psi''''/6 (h = 0.004): 2.0e-9
    ("dilation-commutator",
     "L2 residual of ([r, P] - i r) psi in the r basis",
     1e-6, _check_dilation_commutator),
    # rounding: eps x pi/h (spectral derivative) ~ 3.5e-14
    ("vacuum-annihilation",
     "L2 norm of (v + iP) |vacuum> / sqrt(2)",
     1e-11, _check_vacuum_annihilation),
    # rounding: n eps ~ 2.2e-13 bounds the spectral shift and the n-term sums
    ("exponentiated-dilation",
     "<r> scales by e^sigma under the exponentiated momentum",
     1e-12, _check_exponentiated_dilation),
    # rounding: n eps ~ 2.2e-13 bounds the spectral shift and the n-term sums
    ("displacement-r-adjoint",
     "<r> -> e^{-mu} <r> under D(lam, mu), relative",
     1e-12, _check_displacement_r_adjoint),
    # rounding: 2 sums x n eps ||P psi|| (<= 1.6) ~ 7e-13 + eps pi/h ~ 3.5e-14
    ("displacement-pr-adjoint",
     "<P> -> <P> + lam under D(lam, mu)",
     1e-12, _check_displacement_pr_adjoint),
    # rounding: n eps ~ 2.2e-13 per shift; its phases eps pi/h |mu| <= 1e-13
    ("displacement-composition",
     "D(0, mu1) D(0, mu2) = D(0, mu1 + mu2), L2 discrepancy",
     1e-12, _check_displacement_composition),
    # rounding: 2 sums x n eps ||P psi|| (<= 1.4) ~ 6e-13; i k is exactly skew
    ("pr-self-adjoint",
     "<phi|P psi> = <P phi|psi> on decayed pairs",
     1e-12, _check_pr_self_adjoint),
    # rounding: n eps ~ 2.2e-13 bounds each n-term inner product
    ("displacement-trace-kernel",
     "packet elements <D^dag g|D'^dag g> equal their closed form",
     1e-12, _check_trace_kernel),
    # rounding: 671 + 65 terms (density, ladder), sum|.| <= 2/pi: ~5.2e-14
    ("wigner-cross-route",
     "density-matrix route equals the closed form for l = 1",
     1e-13, _check_wigner_cross_route),
    # window: psi_1's mass e^{-24} ~ 3.8e-11 below gamma = -12; fold ~2e-15
    ("wigner-normalization",
     "phase-space integral of W_1 equals 1",
     1e-6, _check_wigner_normalization),
    # window: W_2 past |delta| = 26 (off by 8e-9 cut at 20, 9e-15 at 30)
    ("wigner-marginal",
     "delta-marginal of W_2 equals the position density",
     1e-9, _check_wigner_marginal),
    # min W_0..3 is 0.081 above -1/pi: no rounding or fold error moves 0
    ("wigner-bound",
     "W stays above -1/pi",
     1e-6, _check_wigner_bound),
    # ratio 1e-3 / depth 0.197; rounding and fold move depth <= 1e-14 max|W|
    ("wigner-negativity",
     "1e-3 over the shallowest negative depth of W_l, l = 1..3",
     1.0, _check_wigner_negativity),
    # Q >= 0: a dip is W's error where smoothed |W| <= 2.6e-10; fold <= 1e-14
    ("husimi-nonnegativity",
     "ordering -1 smoothing is nonnegative (grid interior)",
     1e-9, _check_husimi_nonnegative),
    # window: W_1 mass 1.2e-10 past |delta| = 18 lost to padding; fold 2e-15
    ("husimi-exact",
     "ordering -1 smoothing of W_1 equals |<alpha|1,0>|^2 / 2 pi",
     1e-10, _check_husimi_exact),
]


def available_invariants() -> list:
    return [name for name, _, _, _ in _REGISTRY]


def run_invariants(names=None) -> list:
    """Measure the selected invariants (all by default).

    Each invariant is held to the tolerance its registry entry states.
    Each result records the wall-clock seconds its measurement took.
    """
    selected = set(names) if names is not None else None
    unknown = (selected or set()) - set(available_invariants())
    if unknown:
        raise KeyError(f"unknown invariants: {sorted(unknown)}")
    results = []
    for name, description, tol, fn in _REGISTRY:
        if selected is not None and name not in selected:
            continue
        start = time.perf_counter()
        measured = float(fn())
        seconds = time.perf_counter() - start
        results.append(InvariantResult(
            name=name, description=description, measured=measured,
            tolerance=tol, passed=measured <= tol, seconds=seconds))
    return results
