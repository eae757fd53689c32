"""Wigner quasi-probability functions over the log-radius phase plane.

Two independent routes produce the same distribution:

* :func:`wigner_from_density` transforms an arbitrary density matrix in
  the rescaled log-radius basis,

      W(gamma, delta) = (1/2pi) integral d_eps e^{-i eps delta}
                        <gamma + eps/2| rho |gamma - eps/2>,

  by gathering anti-diagonal slices of the sampled kernel, folding each
  Hermitian slice onto eps >= 0 and transforming it in real products:
  a cosine product always, and a sine product only for a complex
  kernel.  A kernel whose input carries no imaginary part (any
  oscillator level, any mixture of real states) is stored as float64,
  so it is gathered real and its sine half, exactly 0, is never formed.
  A slice through an odd or even anti-diagonal only has samples at odd
  or even multiples of the spacing, so the rows go in those two classes,
  each on the columns it fills.

* :func:`wigner_l0_grid` evaluates the closed form for the
  zero-angular-momentum oscillator levels l,

      W_l(gamma, delta) = (1/pi) integral d_eps e^{-2 i eps delta}
                          psi_l(gamma + eps) psi_l(gamma - eps),

  by the trapezoid rule on nodes of one shared step, both factors the
  last row of the one radial producer (:mod:`radwig.states`) in the log
  domain.  Each gamma row is cut where the bound
  ln 2 + 2 gamma - u/2 + l ln(1 + u), u = e^{2(gamma+eps)}, on
  log|psi_l psi_l| has fallen 45 e-folds below its value at the first
  two nodes, and evaluates no node past its own cut.  The substitution
  eps -> 2 eps maps one form onto the other; the cross-route test suite
  is the arbiter that both agree.

Operands that reach the far tails of a state are zeroed below
sqrt(tiny) before they enter a dense product, so that no product meets a
subnormal number; :func:`_flush_tiny` states the rule and its error
bound.

With this normalisation  integral W dgamma ddelta = trace(rho),  the
delta-marginal is the position density, the gamma-marginal the momentum
density, |W| <= 1/pi, and  2 pi * integral W1 W2 = trace(rho1 rho2).
"""

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DomainError, GridAlignmentError, GridMismatchError,
                     TruncationError, TruncationWarning, UnsupportedOrderError,
                     ValidationError)
from .grids import Grid1D
from .special import MAX_DEGREE, _last_log
from .states import (WavefunctionV, _radial_rows, default_vbar_grid,
                     vbar_schwinger_l0)

__all__ = [
    "DensityMatrixV", "WignerGrid", "wigner_from_density", "wigner_l0_grid",
    "marginal_position", "marginal_momentum", "overlap", "s_smooth",
    "schwinger_density", "validate_density_matrix", "GAMMA_GUARD",
    "OVERLAP_FACTOR", "WIGNER_LOWER_BOUND",
]

# 2 pi * integral W1 W2 = trace(rho1 rho2); fixed by the purity oracle.
OVERLAP_FACTOR = 2.0 * np.pi

WIGNER_LOWER_BOUND = -1.0 / np.pi

_LOG_CUTOFF = 45.0          # integrand ignored below peak * e^{-45}

_SMOOTH_TRUNCATE = 10.0     # smoothing kernel radius in standard deviations
_TAIL_BLOCK = 16384         # longest kernel tail summed sample by sample

# rows per strip where an n x n matrix is processed strip by strip to keep
# its temporaries small
_STRIP = 128
# closed-form rows per strip, ordered by node count, each on its own prefix
_LADDER_STRIP = 64

# 2^-511: operands below it are zeroed before a dense product (see
# _flush_tiny)
_FLUSH = np.sqrt(np.finfo(float).tiny)

# default lowest gamma: the state mass below it is negligible
GAMMA_GUARD = -6.0


def validate_density_matrix(entries: np.ndarray, *, spacing: float = 1.0,
                            trace_tol: float = 1e-10, label=None,
                            what: str = "density matrix"):
    """Check that ``entries`` is finite, Hermitian and of unit trace.

    Hermiticity holds to 1e-10 of the largest entry magnitude; the trace
    is sum(diagonal) * spacing and must be within ``trace_tol`` of 1.
    The worst violating pair is named in the error, through
    ``label(row, col)`` when given.  Raises ValidationError, else returns
    the Hermiticity residual max |rho - rho^dagger| (the one such check).
    """
    if not np.all(np.isfinite(entries)):
        raise ValidationError(f"{what} entries must be finite")
    # rho - rho^dagger one row strip at a time, so no temporary has the
    # full size (a 1891^2 complex Schwinger matrix, n_max 30, is 57 MB).
    # |rho_ij - rho_ji^*| is symmetric in (i, j), so the strip starting at
    # row a needs only the columns j >= a: they still hold the first
    # occurrence, in row-major order, of every deviation
    worst, (row, col), scale = 0.0, (0, 0), 0.0
    for a in range(0, entries.shape[0], _STRIP):
        rows = entries[a:a + _STRIP]
        dev = np.abs(rows[:, a:] - entries[a:, a:a + _STRIP].T.conj())
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if dev[i, j] > worst:
            worst, row, col = float(dev[i, j]), a + i, a + j
        scale = max(scale, float(np.abs(rows).max()))
    if worst > 1e-10 * max(1.0, scale):
        pair = label(row, col) if label else f"({row}, {col})"
        raise ValidationError(
            f"{what} violates Hermiticity: entry {pair} = {entries[row, col]} "
            f"but its mirror is {entries[col, row]} (deviation {worst:.3e})")
    tr = float(np.trace(entries).real) * spacing
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError(
            f"{what} trace {tr} deviates from 1 by more than {trace_tol}")
    return worst


def _flush_tiny(a: np.ndarray) -> np.ndarray:
    """Zero every real and imaginary part of ``a`` below _FLUSH in
    magnitude, in place, and return ``a``.

    The one rule for dense-product operands that reach the far tails of a
    state: the radial basis of :func:`radwig.fock.radial_reduce`, the
    sample stack of :meth:`DensityMatrixV.from_mixture` and the gathered
    slices of :func:`wigner_from_density`.  A part below
    _FLUSH = sqrt(tiny) = 2^-511 ~ 1.5e-154 is zeroed, so the product of
    two nonzero parts is at least tiny and never subnormal (a sum of such
    products can still cancel below tiny, at a rare entry).  On x86 each
    subnormal operand or result costs a microcode assist, and one BLAS
    thread runs at less than half speed over tiles of them.  The
    floating-point state of the process (flush-to-zero,
    denormals-are-zero) is never set: it is global, and would change the
    caller's own arithmetic.

    The truncation is negligible.  If each part of A and of B moves by at
    most e_A and e_B, each part of an entry of A @ B, with K terms per
    entry, moves by at most K (e_A max|B| + e_B max|A| + e_A e_B), twice
    that for complex operands.  A zeroed operand has e = _FLUSH, and one
    built as C @ Z from a zeroed Z has e = K_C max|C| _FLUSH.  For the
    real products Phi^T (C Phi) of the radial kernel at the largest
    cutoff, MAX_FOCK_CUTOFF = 40 (K = 1681, |Phi| < 2.7, K_C <= 41,
    |C| <= 1), that is at most 1681 * 2 * 41 * 2.7 * _FLUSH < 6e-149
    absolute, against a kernel of unit trace (< 3e-149 at n_max = 30).
    """
    for part in ((a.real, a.imag) if np.iscomplexobj(a) else (a,)):
        part[np.abs(part) < _FLUSH] = 0.0
    return a


class _DensityMatrix:
    """A validated density matrix, the one contract of every basis.

    Real input is stored as float64 and anything else as complex128.
    Construction checks the ``(dim, dim)`` shape and runs
    :func:`validate_density_matrix`.  Hermiticity is measured, not imposed:
    the entries are stored as given, their residual in
    ``meta["hermiticity_residual"]``; ``trace`` and :meth:`min_eigenvalue`
    are scaled by ``spacing``, which is 1 in a discrete basis.
    """

    def __init__(self, entries, dim: int, *, spacing: float = 1.0,
                 trace_tol: float = 1e-10, label=None,
                 what: str = "density matrix"):
        entries = np.asarray(
            entries, dtype=complex if np.iscomplexobj(entries) else float)
        if entries.shape != (dim, dim):
            raise ValidationError(
                f"{what} entries shape {entries.shape} does not match "
                f"dimension {dim}")
        self.meta = {"hermiticity_residual": validate_density_matrix(
            entries, spacing=spacing, trace_tol=trace_tol, label=label,
            what=what)}
        self.entries = entries
        self._spacing = spacing

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real) * self._spacing

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue in the trace normalisation (PSD check)."""
        return float(np.linalg.eigvalsh(self.entries)[0]) * self._spacing


class DensityMatrixV(_DensityMatrix):
    """Hermitian density-matrix kernel sampled on a log-radius grid.

    ``entries[i, j]`` holds <vbar_i| rho |vbar_j>; the trace convention is
    sum(diagonal) * spacing == 1, validated to 1e-8.  The entries are
    float64 when the kernel is real (a real symmetric matrix) and
    complex128 otherwise.
    """

    def __init__(self, grid: Grid1D, entries, *, trace_tol=1e-8):
        super().__init__(entries, grid.n_points, spacing=grid.spacing,
                         trace_tol=trace_tol)
        self.grid = grid

    @classmethod
    def from_pure(cls, psi: WavefunctionV) -> "DensityMatrixV":
        """|psi><psi| with the discrete norm divided out exactly."""
        return cls.from_mixture([1.0], [psi])

    @classmethod
    def from_mixture(cls, weights, states) -> "DensityMatrixV":
        """Convex mixture of pure states on a common grid, one weight per
        state: one product (S^T w) S^* of the normalised sample stack S,
        its tails zeroed below sqrt(tiny) (see :func:`_flush_tiny`).  If no
        sample of S has a nonzero imaginary part, the product is taken
        over Re S and the kernel is float64."""
        weights = np.asarray(weights, dtype=float)
        if len(states) == 0 or weights.shape != (len(states),):
            raise ValidationError(
                "a mixture needs one weight per state and at least one "
                f"state; got {weights.size} weights for {len(states)} states")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError("mixture weights must be nonnegative and sum to 1")
        grid = states[0].grid
        if any(psi.grid != grid for psi in states):
            raise GridMismatchError("mixture states must share one grid")
        stack = _flush_tiny(np.array([psi.samples / np.sqrt(psi.norm())
                                      for psi in states]))
        if not stack.imag.any():
            stack = stack.real
        return cls(grid, (stack.T * weights) @ stack.conj())


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
    rather than silently interpolating.  Each anti-diagonal slice
    f(tau) = <gamma + tau/2| rho |gamma - tau/2> is folded onto tau >= 0 as
    g = f(tau) + f(-tau)^* (g(0) halved), and
    Re g cos(tau delta) + Im g sin(tau delta) is summed by two real
    products: the real part of the two-sided sum.  The slices are
    gathered in the dtype of ``rho.entries``; for a real (float64) kernel
    Im g is 0 and only the cosine product runs, with the same result to
    the bit as the complex route on the kernel cast to complex.  The
    slice through anti-diagonal s = i + j of the n x n samples only holds
    tau = i - j of the parity of s, so the rows go in two parity classes,
    each gathered on its ceil((n - p) / 2) columns tau = p, p + 2, ...
    with a cosine table (and a sine table for a complex kernel) over
    those tau alone; the gathered slices are zeroed below sqrt(tiny)
    first (see :func:`_flush_tiny`).  Hermiticity was checked at
    construction; its residual is copied into ``meta``.

    Sampled at tau spacing 2h, each class yields W(delta) + W(delta +- pi/h)
    + ..., so a delta past the band limit pi/(2h) raises DomainError.
    """
    v0 = rho.grid.min
    h = rho.grid.spacing
    n = rho.grid.n_points
    gammas = gamma_grid.points

    band = np.pi / (2.0 * h)
    delta_max = float(np.abs(delta_grid.points).max())
    if delta_max > band:
        raise DomainError(
            f"|delta| = {delta_max} exceeds the band limit pi/(2h) = "
            f"{band:.6g} of the density grid spacing h = {h}: each parity "
            "class samples tau at 2h, so W would alias with its images at "
            "delta +- pi/h")

    s_float = 2.0 * (gammas - v0) / h
    s_idx = np.rint(s_float).astype(int)
    if np.abs(s_float - s_idx).max() > 1e-6:
        worst = int(np.argmax(np.abs(s_float - s_idx)))
        raise GridAlignmentError(
            f"gamma = {gammas[worst]} is not on a half-integer multiple of "
            f"the density grid spacing {h}")
    if s_idx.min() < 0 or s_idx.max() > 2 * (n - 1):
        raise GridAlignmentError("gamma grid extends outside the density grid")

    values = np.empty((gamma_grid.n_points, delta_grid.n_points))
    for p in np.unique(s_idx % 2):
        rows = np.flatnonzero(s_idx % 2 == p)
        tau = np.arange(p, n, 2)
        gather = np.zeros((rows.size, tau.size), dtype=rho.entries.dtype)
        for k, s in enumerate(s_idx[rows]):
            a = np.arange((s + 1) // 2, min(n - 1, s) + 1)
            b = s - a
            gather[k, (a - b) // 2] = rho.entries[a, b] + rho.entries[b, a].conj()
        if p == 0:
            gather[:, 0] *= 0.5
        _flush_tiny(gather)
        arg = np.outer(tau * h, delta_grid.points)
        w = gather.real @ np.cos(arg)
        if np.iscomplexobj(gather):
            w += gather.imag @ np.sin(arg)
        values[rows] = (h / np.pi) * w
    meta = {"route": "density-matrix", "overlap_factor": OVERLAP_FACTOR}
    meta.update({k: rho.meta[k] for k in ("hermiticity_residual", "l")
                 if k in rho.meta})
    return WignerGrid(gamma_grid, delta_grid, values, meta=meta)


def _log_integrand(l: int, gamma: np.ndarray, eps: np.ndarray):
    """Log magnitude and sign of psi_l(gamma + eps) psi_l(gamma - eps) over
    the column ``gamma`` and the nodes ``eps``, each factor the last row of
    the one radial producer, :func:`radwig.states._radial_rows`."""
    # v is reused, offsets are dropped, and sign(a) sign(b) = sign(sign(a) b)
    v = gamma + eps
    sign, phi = _last_log(_radial_rows(0, l + 1, v, first=l))[::2]
    np.sign(sign, out=sign)
    cur, log_minus = _last_log(_radial_rows(
        0, l + 1, np.subtract(gamma, eps, out=v), first=l))[::2]
    phi += log_minus
    sign *= cur
    return phi, np.sign(sign, out=sign)


def _ladder(l: int, gammas: np.ndarray, delta_max: float):
    """Node step and each gamma row's own node count.

    Row i integrates over eps_k = k * step, k < counts[i].  With
    u = e^{2(gamma+eps)}, |L_l(x)| <= (1 + x)^l and e^{-x/2} |L_l(x)| <= 1
    bound log|psi_l(gamma+eps) psi_l(gamma-eps)| by
    ln 2 + 2 gamma - u/2 + l ln(1 + u), which falls for u > 2l.  A row ends
    where that bound drops 45 below the larger of its log integrand at the
    first two nodes (two, since a row on a root has phi(0) = -inf), so
    counts[i] = ceil(end_i / step) + 1.  The step, shared by every row,
    resolves the cosine weight and the Laguerre phase rate 4l + 2.
    """
    step = min(0.04, np.pi / (10.0 * (1.0 + 2.0 * delta_max)),
               np.pi / (4.0 * l + 2.0 + 2.0 * delta_max))
    z = np.exp(2.0 * gammas)
    phi, _ = _log_integrand(l, gammas[:, None], np.array([0.0, step]))
    # the floor less the bound's ln 2 + 2 gamma: u -> 2 (l ln(1 + u) - floor)
    # climbs to where the bound meets it, contracting by 2l / (1 + u) < 1/2
    # there (l <= 64), so 60 rounds converge
    floor = phi.max(axis=1) - _LOG_CUTOFF - (np.log(2.0) + 2.0 * gammas)
    u = np.maximum(2.0 * l, z)
    for _ in range(60):
        u = np.maximum(z, 2.0 * (l * np.log1p(u) - floor))
    end = 0.5 * np.log(u / z)
    return step, np.ceil(end / step).astype(int) + 1


def wigner_l0_grid(l: int, gamma_grid: Grid1D, delta_grid: Grid1D, *,
                   allow_deep_tail: bool = False) -> WignerGrid:
    """Closed-form W_l = (2/pi) integral_0^inf d_eps cos(2 eps delta)
    psi_l(gamma + eps) psi_l(gamma - eps) on a full phase-space grid.

    Every gamma row takes nodes from one ladder eps_k = k * step, but only
    as many as its own cut needs (see :func:`_ladder`): near gamma = 2 a
    row ends after tens of nodes where one near gamma = -12 runs to
    thousands.  The rows go in strips of similar node counts; each strip
    evaluates log|psi_l psi_l| on its own prefix of the ladder around each
    row's own peak, and maps it to every delta through the same prefix of
    one cosine table.  The trapezoid rule converges exponentially for this
    entire, double-exponentially decaying integrand, so the fixed ladder
    matches an adaptive quadrature of the same integral to ~1e-10.  A
    gamma below GAMMA_GUARD raises DomainError unless ``allow_deep_tail``.
    """
    if l < 0 or l > MAX_DEGREE:
        raise DomainError(f"l must be in [0, {MAX_DEGREE}], got {l}")
    if gamma_grid.min < GAMMA_GUARD and not allow_deep_tail:
        raise DomainError(
            f"gamma = {gamma_grid.min} below the default guard {GAMMA_GUARD}, "
            "where the state mass is negligible; pass allow_deep_tail=True "
            "(wl --allow-wide-gamma) to evaluate it")
    if gamma_grid.max > 0.5 * np.log(np.finfo(float).max):
        raise DomainError(
            f"gamma = {gamma_grid.max} too large: e^(2 gamma) overflows")

    gammas = gamma_grid.points
    deltas = delta_grid.points
    step, counts = _ladder(l, gammas, float(np.abs(deltas).max()))
    eps = np.arange(counts.max()) * step
    kernel = np.outer(eps, 2.0 * deltas)
    np.cos(kernel, out=kernel)      # in place: one table, not two at once
    values = np.empty((gammas.size, deltas.size))
    order = np.argsort(counts, kind="stable")
    for a in range(0, order.size, _LADDER_STRIP):
        rows = order[a:a + _LADDER_STRIP]
        m = counts[rows[-1]]
        phi, sign = _log_integrand(l, gammas[rows, None], eps[:m])
        peak = phi.max(axis=1, keepdims=True)
        phi -= peak
        integrand = np.exp(phi, out=phi) * sign
        integrand[:, 0] *= 0.5                      # trapezoid end weight
        # even integrand: full-line integral is twice the cosine half-line sum
        values[rows] = (2.0 / np.pi) * np.exp(peak) * step \
            * (integrand @ kernel[:m])
    meta = {"route": "closed-form", "l": int(l),
            "overlap_factor": OVERLAP_FACTOR}
    return WignerGrid(gamma_grid, delta_grid, values, meta=meta)


def _edge_strip_mass(w: WignerGrid, axis: int) -> float:
    """|W| mass of the outermost strip at either end of ``axis`` (1: delta,
    0: gamma), the larger of the two: the trapezoid of |W| across the
    strip times the spacing along ``axis``."""
    along, across = ((w.delta_grid, w.gamma_grid) if axis == 1
                     else (w.gamma_grid, w.delta_grid))
    strips = np.moveaxis(w.values, axis, 0)
    return float(max(across.trapezoid(np.abs(strips[0])),
                     across.trapezoid(np.abs(strips[-1]))) * along.spacing)


def _marginal(w: WignerGrid, axis: int) -> np.ndarray:
    """Trapezoid of W over ``axis`` (1: delta, 0: gamma).

    Needs two points on both axes: along a one-point axis the whole
    window is its edge strip, and across one the strip mass has no
    integral; both raise TruncationError, as does an edge strip over 1e-6.
    """
    if min(w.values.shape) == 1:
        raise TruncationError(
            "a marginal needs at least two points on each axis; this grid "
            f"is {w.values.shape[0]} x {w.values.shape[1]}")
    name, along = (("delta", w.delta_grid) if axis == 1
                   else ("gamma", w.gamma_grid))
    mass = _edge_strip_mass(w, axis)
    if mass > 1e-6:
        raise TruncationError(
            f"{name} window too narrow for a faithful marginal: outermost "
            f"strip holds ~{mass:.2e}", lost_mass=mass)
    return along.trapezoid(w.values, axis=axis)


def marginal_position(w: WignerGrid) -> np.ndarray:
    """Position (gamma) density: trapezoid of W over delta.  Raises
    TruncationError if the outermost delta strip holds more than 1e-6 of |W|."""
    return _marginal(w, axis=1)


def marginal_momentum(w: WignerGrid) -> np.ndarray:
    """Momentum (delta) density: trapezoid of W over gamma.  Raises
    TruncationError if the outermost gamma strip holds more than 1e-6 of |W|."""
    return _marginal(w, axis=0)


def overlap(w1: WignerGrid, w2: WignerGrid) -> float:
    """State overlap functional  2 pi * double-integral of W1 * W2.

    Equals trace(rho1 rho2), hence |<psi1|psi2>|^2 for pure states; the
    2 pi is pinned by the purity of any pure test state.
    """
    if w1.gamma_grid != w2.gamma_grid or w1.delta_grid != w2.delta_grid:
        raise GridMismatchError("overlap requires identical grids")
    inner = w1.delta_grid.trapezoid(w1.values * w2.values, axis=1)
    return float(OVERLAP_FACTOR * w1.gamma_grid.trapezoid(inner))


def _gaussian_matrix(grid: Grid1D, sigma: float) -> np.ndarray:
    """Smoothing matrix of the sampled Gaussian of width ``sigma`` on ``grid``.

    With sigma_pix = sigma / spacing, row i holds the kernel
    exp(-x^2 / 2 sigma_pix^2), x = -radius..radius with radius
    int(10 sigma_pix + 0.5), normalised to sum 1 and centred
    on column i; columns past the window are dropped (zero padding).
    Only the at most 2n - 1 samples that land on the grid are kept; the
    tails past them enter the normalising sum only, summed directly up to
    a fixed length and past it in the Poisson-summation closed form,
    exact to double there.  The Toeplitz matrix is a strided view of the
    zero-padded kernel, so building it costs O(n) memory for any sigma.
    """
    n = grid.n_points
    pix = sigma / grid.spacing
    radius = int(_SMOOTH_TRUNCATE * pix + 0.5)
    r = min(radius, n - 1)

    def samples(start, stop):
        x = np.arange(start, stop)
        return np.exp(-0.5 / (pix * pix) * x ** 2)

    kernel = samples(-r, r + 1)
    if radius - r > _TAIL_BLOCK:
        # sigma_pix > 1638: by Poisson summation the full-line sum is
        # pix sqrt(2 pi) (1 + 2 sum_k e^{-2 pi^2 pix^2 k^2}), whose k >= 1
        # terms underflow, and the samples past the radius are below
        # e^{-50} of it
        total = pix * np.sqrt(2.0 * np.pi)
    else:
        total = kernel.sum() + 2.0 * samples(r + 1, radius + 1).sum()
    kernel /= total
    padded = np.zeros(2 * n - 1)
    padded[n - 1 - r:n + r] = kernel
    # window s of the view is padded[s:s + n]; row i needs s = n - 1 - i
    return sliding_window_view(padded, n)[::-1]


def s_smooth(w: WignerGrid, s: float) -> WignerGrid:
    """Lower the ordering parameter by Gaussian smoothing.

    For s < 0 convolves with an isotropic Gaussian of variance |s|/2 per
    axis (s = -1 gives the nonnegative Husimi function); s = 0 is the
    identity.  s > 0 would require deconvolution, which is ill-posed on
    sampled data, and is refused.

    The separable filter is two dense matrix products, A @ W @ B^T, with
    A and B the Toeplitz matrices of the normalised sampled kernel of
    each axis (see :func:`_gaussian_matrix`), zero outside the window.
    Two losses go in ``meta``:

    * ``"mass_past_window"``: the smoothed total minus the input total,
      the mass the kernel pushes past the window edges.  The values
      inside stay right, so this is recorded only.
    * ``"edge_strip_mass"``: the input |W| mass in the outermost strips
      (the larger over both axes), where zero padding makes the smoothed
      values wrong.  Past 1e-8 it raises a TruncationWarning: widen the
      window.

    A one-point axis has no spacing and raises DomainError, as does an
    ``s`` that is -inf or nan.
    """
    if s > 0:
        raise UnsupportedOrderError(
            "s > 0 needs deconvolution, which is ill-posed on sampled data")
    if not np.isfinite(s):
        raise DomainError(f"ordering parameter s must be finite, got {s}")
    meta = dict(w.meta)
    if s == 0:
        return WignerGrid(w.gamma_grid, w.delta_grid, w.values.copy(), meta=meta)
    sigma = np.sqrt(-s / 2.0)
    a = _gaussian_matrix(w.gamma_grid, sigma)
    b = _gaussian_matrix(w.delta_grid, sigma)
    edge = max(_edge_strip_mass(w, 0), _edge_strip_mass(w, 1))
    if edge > 1e-8:
        warnings.warn(
            f"the outermost strips of the window hold {edge:.2e} of |W|; the "
            "smoothed values near the edges are off by that order",
            TruncationWarning, stacklevel=2)
    meta["s"] = float(meta.get("s", 0.0) + s)
    meta["edge_strip_mass"] = edge
    q = WignerGrid(w.gamma_grid, w.delta_grid, (a @ w.values) @ b.T, meta=meta)
    q.meta["mass_past_window"] = q.total() - w.total()
    return q


def schwinger_density(l: int, grid: Grid1D | None = None) -> DensityMatrixV:
    """Pure density matrix of the zero-angular-momentum level l."""
    if grid is None:
        grid = default_vbar_grid()
    psi = WavefunctionV(grid, vbar_schwinger_l0(l, grid.points))
    rho = DensityMatrixV.from_pure(psi)
    rho.meta["l"] = int(l)
    return rho
