"""Wigner quasi-probability functions over the log-radius phase plane.

Two independent routes produce the same distribution:

* :func:`wigner_from_density` transforms an arbitrary density matrix in
  the rescaled log-radius basis,

      W(gamma, delta) = (1/2pi) integral d_eps e^{-i eps delta}
                        <gamma + eps/2| rho |gamma - eps/2>,

  by gathering anti-diagonal slices of the sampled kernel and Fourier
  transforming in eps.

* :func:`wigner_l0_closed` / :func:`wigner_l0_grid` evaluate the closed
  form for the zero-angular-momentum oscillator levels l,

      W_l(gamma, delta) = (2 e^{2 gamma} / pi) integral d_eps
          e^{-2 i eps delta} exp(-e^{2 gamma} cosh 2 eps)
          L_l(e^{2(gamma+eps)}) L_l(e^{2(gamma-eps)}),

  with the integrand assembled in the log domain (the Laguerre values
  overflow long before the damping wins) and truncated where it has
  dropped 45 e-folds below its peak.  The substitution eps -> 2 eps maps
  one form onto the other; the cross-route test suite is the arbiter
  that both agree.

With this normalisation  integral W dgamma ddelta = trace(rho),  the
delta-marginal is the position density, the gamma-marginal the momentum
density, |W| <= 1/pi, and  2 pi * integral W1 W2 = trace(rho1 rho2).
"""

import numpy as np

from .errors import (AccuracyError, DomainError, GridAlignmentError,
                     GridMismatchError, TruncationError, UnsupportedOrderError,
                     ValidationError)
from .grids import Grid1D
from .special import MAX_DEGREE, laguerre_log
from .states import WavefunctionV, default_vbar_grid, vbar_schwinger_l0

__all__ = [
    "DensityMatrixV", "WignerGrid", "wigner_from_density",
    "wigner_l0_closed", "wigner_l0_grid", "marginal_position",
    "marginal_momentum", "overlap", "s_smooth", "schwinger_density",
    "validate_density_matrix", "GAMMA_GUARD", "OVERLAP_FACTOR",
    "WIGNER_LOWER_BOUND",
]

# 2 pi * integral W1 W2 = trace(rho1 rho2); fixed by the purity oracle.
OVERLAP_FACTOR = 2.0 * np.pi

WIGNER_LOWER_BOUND = -1.0 / np.pi

_LOG_CUTOFF = 45.0          # integrand ignored below peak * e^{-45}
_PROBE_STEP = 0.01
_PROBE_MAX = 30.0

# default (lo, hi) window of gamma: below lo the integration window grows
# like -gamma while the state mass is negligible
GAMMA_GUARD = (-6.0, 4.0)


def validate_density_matrix(entries: np.ndarray, *, spacing: float = 1.0,
                            trace_tol: float = 1e-10, label=None,
                            what: str = "density matrix"):
    """Check that ``entries`` is finite, Hermitian and of unit trace.

    Hermiticity holds to 1e-10 of the largest entry magnitude; the trace
    is sum(diagonal) * spacing and must be within ``trace_tol`` of 1.
    The worst violating pair is named in the error, through
    ``label(row, col)`` when given.  Raises ValidationError.
    """
    if not np.all(np.isfinite(entries)):
        raise ValidationError(f"{what} entries must be finite")
    # rho - rho^dagger formed in the one copy np.conjugate makes (the
    # method .conj() returns a real array itself): a 1891^2 complex
    # Schwinger matrix (n_max 30) is 57 MB
    dev = np.conjugate(entries).T
    np.subtract(entries, dev, out=dev)
    dev = np.abs(dev)
    worst = float(dev.max())
    if worst > 1e-10 * max(1.0, float(np.abs(entries).max())):
        row, col = np.unravel_index(int(np.argmax(dev)), dev.shape)
        pair = label(row, col) if label else f"({row}, {col})"
        raise ValidationError(
            f"{what} violates Hermiticity: entry {pair} = {entries[row, col]} "
            f"but its mirror is {entries[col, row]} (deviation {worst:.3e})")
    tr = float(np.trace(entries).real) * spacing
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError(
            f"{what} trace {tr} deviates from 1 by more than {trace_tol}")


class DensityMatrixV:
    """Hermitian density-matrix kernel sampled on a log-radius grid.

    ``entries[i, j]`` holds <vbar_i| rho |vbar_j>; the trace convention is
    sum(diagonal) * spacing == 1.  Construction validates Hermiticity
    (to 1e-10) and the trace (to 1e-8); positive semidefiniteness is
    checked on demand via :meth:`min_eigenvalue`.
    """

    def __init__(self, grid: Grid1D, entries, *, trace_tol=1e-8, meta=None):
        entries = np.asarray(entries, dtype=complex)
        n = grid.n_points
        if entries.shape != (n, n):
            raise ValidationError(
                f"entries shape {entries.shape} does not match grid size {n}")
        validate_density_matrix(entries, spacing=grid.spacing,
                                trace_tol=trace_tol)
        self.grid = grid
        self.entries = entries
        self.meta = dict(meta) if meta else {}

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real) * self.grid.spacing

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue in the trace normalisation (PSD check)."""
        w = np.linalg.eigvalsh(self.entries)
        return float(w[0]) * self.grid.spacing

    @classmethod
    def from_pure(cls, psi: WavefunctionV) -> "DensityMatrixV":
        """|psi><psi| with the discrete norm divided out exactly."""
        s = psi.samples / np.sqrt(psi.norm())
        return cls(psi.grid, np.outer(s, s.conj()))

    @classmethod
    def from_mixture(cls, weights, states) -> "DensityMatrixV":
        """Convex mixture of pure states on a common grid."""
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError("mixture weights must be nonnegative and sum to 1")
        grid = states[0].grid
        n = grid.n_points
        acc = np.zeros((n, n), dtype=complex)
        for w, psi in zip(weights, states):
            if psi.grid != grid:
                raise GridMismatchError("mixture states must share one grid")
            s = psi.samples / np.sqrt(psi.norm())
            acc += w * np.outer(s, s.conj())
        return cls(grid, acc)


class WignerGrid:
    """Real Wigner samples over a (gamma, delta) product grid.

    ``values[i, j]`` is W(gamma_i, delta_j).  ``meta`` carries the state
    label, ordering parameter, hbar convention and numerical diagnostics;
    it is preserved by the JSON round trip.
    """

    def __init__(self, gamma_grid: Grid1D, delta_grid: Grid1D, values, *, meta=None):
        values = np.asarray(values, dtype=float)
        if values.shape != (gamma_grid.n_points, delta_grid.n_points):
            raise ValidationError(
                f"values shape {values.shape} does not match grids "
                f"({gamma_grid.n_points}, {delta_grid.n_points})")
        if not np.all(np.isfinite(values)):
            raise ValidationError("Wigner values must be finite")
        self.gamma_grid = gamma_grid
        self.delta_grid = delta_grid
        self.values = values
        self.meta = {"s": 0.0, "hbar": 1.0}
        if meta:
            self.meta.update(meta)

    def total(self) -> float:
        """Phase-space integral of W (trace of the source state)."""
        inner = self.delta_grid.trapezoid(self.values, axis=1)
        return float(self.gamma_grid.trapezoid(inner))

    def min_value(self) -> float:
        return float(self.values.min())

    def __eq__(self, other):
        return (isinstance(other, WignerGrid)
                and self.gamma_grid == other.gamma_grid
                and self.delta_grid == other.delta_grid
                and np.array_equal(self.values, other.values))


def wigner_from_density(rho: DensityMatrixV, gamma_grid: Grid1D,
                        delta_grid: Grid1D) -> WignerGrid:
    """Wigner function of a sampled density matrix.

    Every requested gamma must sit on a half-integer multiple of the
    density grid spacing so the pair (gamma + eps/2, gamma - eps/2) hits
    stored samples exactly; anything else raises GridAlignmentError
    rather than silently interpolating.  For each gamma the anti-diagonal
    slice over all available eps is zero-padded onto a common ladder and
    one Fourier matrix maps it to every delta at once.
    """
    v0 = rho.grid.min
    h = rho.grid.spacing
    n = rho.grid.n_points
    gammas = gamma_grid.points

    s_float = 2.0 * (gammas - v0) / h
    s_idx = np.rint(s_float).astype(int)
    if np.abs(s_float - s_idx).max() > 1e-6:
        worst = int(np.argmax(np.abs(s_float - s_idx)))
        raise GridAlignmentError(
            f"gamma = {gammas[worst]} is not on a half-integer multiple of "
            f"the density grid spacing {h}")
    if s_idx.min() < 0 or s_idx.max() > 2 * (n - 1):
        raise GridAlignmentError("gamma grid extends outside the density grid")

    ntau = 2 * n - 1
    gather = np.zeros((gamma_grid.n_points, ntau), dtype=complex)
    for k, s in enumerate(s_idx):
        a = np.arange(max(0, s - (n - 1)), min(n - 1, s) + 1)
        b = s - a
        gather[k, 2 * a - s + (n - 1)] = rho.entries[a, b]

    tau = (np.arange(ntau) - (n - 1)) * h
    kernel = np.exp(-1j * np.outer(tau, delta_grid.points))
    w_complex = (h / np.pi) * (gather @ kernel)

    max_imag = float(np.abs(w_complex.imag).max())
    if max_imag > 1e-8:
        raise ValidationError(
            f"Wigner transform of Hermitian input has |Im| = {max_imag:.3e}")
    meta = {"route": "density-matrix", "max_imag": max_imag,
            "overlap_factor": OVERLAP_FACTOR}
    meta.update({k: rho.meta[k] for k in ("l",) if k in rho.meta})
    return WignerGrid(gamma_grid, delta_grid, w_complex.real, meta=meta)


def _check_gamma_guard(gamma_min: float, allow_deep_tail: bool):
    lo = GAMMA_GUARD[0]
    if gamma_min < lo and not allow_deep_tail:
        raise DomainError(
            f"gamma = {gamma_min} below the default guard {lo}: the "
            "integration window there grows like -gamma while the state mass "
            "is negligible; pass allow_deep_tail=True to force it")


def _eps_cutoffs(l: int, z: np.ndarray) -> np.ndarray:
    """Truncation points where the log envelope drops 45 below its peak.

    The envelope -z cosh(2 eps) + l ln(1 + x_+) + l ln(1 + x_-) bounds the
    log integrand from above (|L_l(x)| <= (1 + x)^l) and has no spurious
    dips at Laguerre roots.
    """
    probe = np.arange(0.0, _PROBE_MAX + 1e-12, _PROBE_STEP)[None, :]
    zc = z[:, None]
    with np.errstate(over="ignore"):
        env = (-zc * np.cosh(2.0 * probe)
               + l * np.log1p(zc * np.exp(2.0 * probe))
               + l * np.log1p(zc * np.exp(-2.0 * probe)))
    env = np.where(np.isfinite(env), env, -np.inf)
    peak = env.max(axis=1, keepdims=True)
    keep = env >= peak - _LOG_CUTOFF
    last = probe[0, keep.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)]
    return last + _PROBE_STEP


def _oscillation_step(delta_max: float) -> float:
    return min(0.04, np.pi / (10.0 * (1.0 + 2.0 * delta_max)))


def _closed_form_rows(l: int, gammas: np.ndarray, deltas: np.ndarray,
                      step: float, cutoffs: np.ndarray,
                      n_nodes: int) -> np.ndarray:
    """Closed-form W_l rows on a fixed ladder of integration nodes.

    The ladder geometry (step, node count) is supplied by the caller so
    that evaluating the same rows in different batches reproduces the
    same bits; each row is truncated at its own cutoff and assembled in
    the log domain around its own peak.
    """
    eps = np.arange(n_nodes) * step
    zc = np.exp(2.0 * gammas)[:, None]
    ep = eps[None, :]
    with np.errstate(over="ignore"):
        log_plus, sign_plus = laguerre_log(l, 0.0, zc * np.exp(2.0 * ep))
        log_minus, sign_minus = laguerre_log(l, 0.0, zc * np.exp(-2.0 * ep))
        phi = -zc * np.cosh(2.0 * ep) + log_plus + log_minus
    phi = np.where(np.isfinite(phi), phi, -np.inf)
    peak = phi.max(axis=1, keepdims=True)
    integrand = sign_plus * sign_minus * np.exp(phi - peak)
    integrand[ep > cutoffs[:, None]] = 0.0
    integrand[:, 0] *= 0.5                          # trapezoid end weight

    kernel = np.cos(2.0 * np.outer(eps, deltas))
    # even integrand: full-line integral is twice the cosine half-line sum
    return (4.0 / np.pi) * np.exp(peak + 2.0 * gammas[:, None]) * step \
        * (integrand @ kernel)


def wigner_l0_grid(l: int, gamma_grid: Grid1D, delta_grid: Grid1D, *,
                   allow_deep_tail: bool = False) -> WignerGrid:
    """Closed-form W_l evaluated on a full phase-space grid.

    All gamma rows share one ladder of integration nodes (step bounded by
    the fastest requested oscillation), each row truncated at its own
    cutoff; a single cosine matrix then maps the log-assembled integrand
    to every delta.  The node step is far inside the spectral-accuracy
    regime of the trapezoid rule for this entire, double-exponentially
    decaying integrand, which is what lets a fixed ladder match the
    adaptive scalar evaluator to ~1e-10.
    """
    if l < 0 or l > MAX_DEGREE:
        raise DomainError(f"l must be in [0, {MAX_DEGREE}], got {l}")
    _check_gamma_guard(gamma_grid.min, allow_deep_tail)

    gammas = gamma_grid.points
    deltas = delta_grid.points
    cutoffs = _eps_cutoffs(l, np.exp(2.0 * gammas))
    step = _oscillation_step(float(np.abs(deltas).max()))
    n_nodes = int(np.ceil(cutoffs.max() / step)) + 1
    values = _closed_form_rows(l, gammas, deltas, step, cutoffs, n_nodes)
    meta = {"route": "closed-form", "l": int(l),
            "overlap_factor": OVERLAP_FACTOR}
    return WignerGrid(gamma_grid, delta_grid, values, meta=meta)


def wigner_l0_closed(l: int, gamma: float, delta: float, *,
                     allow_deep_tail: bool = False) -> float:
    """Closed-form W_l at a single phase-space point.

    Adaptive Gauss-Kronrod refinement (oscillatory cosine weight for
    delta != 0) of the even part on [0, cutoff], absolute tolerance
    1e-10, relative 1e-8.  Raises AccuracyError with the residual
    estimate if refinement fails to converge.
    """
    if l < 0 or l > MAX_DEGREE:
        raise DomainError(f"l must be in [0, {MAX_DEGREE}], got {l}")
    if not (np.isfinite(gamma) and np.isfinite(delta)):
        raise DomainError("gamma and delta must be finite")
    _check_gamma_guard(gamma, allow_deep_tail)

    z = np.exp(2.0 * gamma)
    cutoff = float(_eps_cutoffs(l, np.array([z]))[0])

    def even_part(eps):
        log_p, sign_p = laguerre_log(l, 0.0, np.array([z * np.exp(2.0 * eps)]))
        log_m, sign_m = laguerre_log(l, 0.0, np.array([z * np.exp(-2.0 * eps)]))
        phi = -z * np.cosh(2.0 * eps) + log_p[0] + log_m[0]
        return float(sign_p[0] * sign_m[0] * np.exp(phi))

    from scipy.integrate import quad
    if delta == 0.0:
        result = quad(even_part, 0.0, cutoff, epsabs=1e-10, epsrel=1e-8,
                      limit=200, full_output=True)
    else:
        result = quad(even_part, 0.0, cutoff, weight="cos", wvar=2.0 * delta,
                      epsabs=1e-10, epsrel=1e-8, limit=200, full_output=True)
    if len(result) > 3:
        raise AccuracyError(
            f"quadrature for W_{l}({gamma}, {delta}) did not converge: "
            f"{result[3]}", residual=float(result[1]))
    return float((4.0 * np.exp(2.0 * gamma) / np.pi) * result[0])


def _edge_mass(w: WignerGrid, axis: int) -> float:
    """Mass of the outermost strip along the integrated axis.

    Needs two points on both axes: along a one-point axis the whole
    window is its edge strip, and across one the strip mass has no
    integral; both raise TruncationError.
    """
    if min(w.values.shape) == 1:
        raise TruncationError(
            "a marginal needs at least two points on each axis; this grid "
            f"is {w.values.shape[0]} x {w.values.shape[1]}")
    if axis == 1:      # integrating over delta
        col0, col1 = np.abs(w.values[:, 0]), np.abs(w.values[:, -1])
        other = w.gamma_grid
        strip = w.delta_grid.spacing
    else:
        col0, col1 = np.abs(w.values[0, :]), np.abs(w.values[-1, :])
        other = w.delta_grid
        strip = w.gamma_grid.spacing
    return float(max(other.trapezoid(col0), other.trapezoid(col1)) * strip)


def marginal_position(w: WignerGrid) -> np.ndarray:
    """Position (gamma) density: trapezoid of W over delta.

    Requires the delta window to be wide enough that the outermost strip
    carries less than 1e-6 of |W|; raises TruncationError otherwise.
    """
    mass = _edge_mass(w, axis=1)
    if mass > 1e-6:
        raise TruncationError(
            f"delta window too narrow for a faithful marginal: outermost "
            f"strip holds ~{mass:.2e}", lost_mass=mass)
    return w.delta_grid.trapezoid(w.values, axis=1)


def marginal_momentum(w: WignerGrid) -> np.ndarray:
    """Momentum (delta) density: trapezoid of W over gamma."""
    mass = _edge_mass(w, axis=0)
    if mass > 1e-6:
        raise TruncationError(
            f"gamma window too narrow for a faithful marginal: outermost "
            f"strip holds ~{mass:.2e}", lost_mass=mass)
    return w.gamma_grid.trapezoid(w.values, axis=0)


def overlap(w1: WignerGrid, w2: WignerGrid) -> float:
    """State overlap functional  2 pi * double-integral of W1 * W2.

    Equals trace(rho1 rho2), hence |<psi1|psi2>|^2 for pure states; the
    2 pi is pinned by the purity of any pure test state.
    """
    if w1.gamma_grid != w2.gamma_grid or w1.delta_grid != w2.delta_grid:
        raise GridMismatchError("overlap requires identical grids")
    inner = w1.delta_grid.trapezoid(w1.values * w2.values, axis=1)
    return float(OVERLAP_FACTOR * w1.gamma_grid.trapezoid(inner))


def s_smooth(w: WignerGrid, s: float) -> WignerGrid:
    """Lower the ordering parameter by Gaussian smoothing.

    For s < 0 convolves with an isotropic Gaussian of variance |s|/2 per
    axis (s = -1 gives the nonnegative Husimi-like function); s = 0 is
    the identity.  s > 0 would require deconvolution, which is ill-posed
    on sampled data, and is refused.  The discrete kernel is normalised,
    so the phase-space integral is preserved up to mass lost through the
    open grid edges; keep the state well inside the window.
    """
    if s > 0:
        raise UnsupportedOrderError(
            "s > 0 needs deconvolution, which is ill-posed on sampled data")
    meta = dict(w.meta)
    if s == 0:
        return WignerGrid(w.gamma_grid, w.delta_grid, w.values.copy(), meta=meta)
    sigma = np.sqrt(-s / 2.0)
    pix = (sigma / w.gamma_grid.spacing, sigma / w.delta_grid.spacing)
    from scipy.ndimage import gaussian_filter
    smoothed = gaussian_filter(w.values, sigma=pix, mode="constant",
                               truncate=10.0)
    meta["s"] = float(meta.get("s", 0.0) + s)
    return WignerGrid(w.gamma_grid, w.delta_grid, smoothed, meta=meta)


def schwinger_density(l: int, grid: Grid1D | None = None) -> DensityMatrixV:
    """Pure density matrix of the zero-angular-momentum level l."""
    if grid is None:
        grid = default_vbar_grid()
    psi = WavefunctionV(grid, vbar_schwinger_l0(l, grid.points))
    rho = DensityMatrixV.from_pure(psi)
    rho.meta["l"] = int(l)
    return rho
