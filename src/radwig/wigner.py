"""Wigner quasi-probability functions over the log-radius phase plane.

Two independent routes produce the same distribution:

* :func:`wigner_from_density` transforms an arbitrary density matrix in
  the rescaled log-radius basis,

      W(gamma, delta) = (1/2pi) integral d_eps e^{-i eps delta}
                        <gamma + eps/2| rho |gamma - eps/2>,

  by gathering anti-diagonal slices of the sampled kernel, read through
  one read-only strided view of its flat buffer (see
  :func:`_fold_slices`), folding each Hermitian slice onto eps >= 0 and
  transforming it in real products: a cosine product always, and a sine
  product only for a complex kernel (a real input, any oscillator level
  or mixture of real states, is stored as float64, so its sine half,
  exactly 0, is never formed).

* :func:`wigner_l0_grid` evaluates the closed form for the
  zero-angular-momentum oscillator levels l,

      W_l(gamma, delta) = (1/pi) integral d_eps e^{-2 i eps delta}
                          psi_l(gamma + eps) psi_l(gamma - eps),

  by the trapezoid rule on nodes of one shared step, both factors the
  last row of the one radial producer (:mod:`radwig.states`) in the log
  domain.  Each gamma row is cut where a bound on log|psi_l psi_l| has
  fallen 45 e-folds below its peak (see :func:`_ladder`).  The
  substitution eps -> 2 eps maps one form onto the other; the
  cross-route test suite is the arbiter that both agree.

Both routes sample an integral over eps at a uniform step, so by Poisson
summation each returns W plus its images one period apart in delta: pi/h
for the density route's kernel spacing h, pi / step for the ladder.  One
band rule sets both periods (:func:`_band_reach`): level l holds
dilation momentum up to about 2l + 1, its tail reaches 2^-52 of its peak
within the margin 26 + 4.5 sqrt(l) past that, and the period must clear
max|delta| plus both.  The ladder takes its step from it, and the Fock
pipeline its kernel stride (:func:`radwig.fock._kernel_grid`).

Both routes transform only the delta >= 0 half of a symmetric axis
(min == -max; :func:`_delta_fold`): the cosine half of W is even
in delta and the sine half odd, so column j < n // 2 is read at
-delta_{n-1-j}, within linspace rounding (<= 7.1e-15 at |delta| <= 27)
of delta_j, and W of a real state is exactly even.

Operands that reach the far tails of a state are zeroed below
sqrt(tiny) before they enter a dense product, so that no product meets a
subnormal number; :func:`_flush_tiny` states the rule and its error
bound.

Gaussian smoothing (:func:`s_smooth`) multiplies by banded Toeplitz
matrices, one block of rows or columns at a time over the band alone,
so the exact zeros off the band never enter a product.

With this normalisation  integral W dgamma ddelta = trace(rho),  the
delta-marginal is the position density, the gamma-marginal the momentum
density, |W| <= 1/pi, and  2 pi * integral W1 W2 = trace(rho1 rho2).
Each of these integrals is a product with its axis's trapezoid weights
(:attr:`radwig.grids.Grid1D.weights`), so none of them copies W.
"""

import warnings

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
    "schwinger_density", "GAMMA_GUARD", "OVERLAP_FACTOR", "WIGNER_LOWER_BOUND",
]

# 2 pi * integral W1 W2 = trace(rho1 rho2); fixed by the purity oracle.
OVERLAP_FACTOR = 2.0 * np.pi

WIGNER_LOWER_BOUND = -1.0 / np.pi

_LOG_CUTOFF = 45.0          # integrand ignored below peak * e^{-45}

_SMOOTH_TRUNCATE = 10.0     # smoothing kernel radius in standard deviations

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


def _stored(entries, dim: int, name: str) -> np.ndarray:
    """``entries`` as stored by every density type: float64 when real,
    else complex128.  A shape other than (dim, dim) raises
    ValidationError naming ``name``."""
    entries = np.asarray(
        entries, dtype=complex if np.iscomplexobj(entries) else float)
    if entries.shape != (dim, dim):
        raise ValidationError(
            f"{name} shape {entries.shape} does not match dimension {dim}")
    return entries


def _validate_blocks(blocks, *, spacing: float = 1.0, trace_tol: float = 1e-10,
                     label=None, what: str = "density matrix"):
    """Check that the block-diagonal matrix whose diagonal blocks are
    ``blocks`` is finite, Hermitian and of unit trace, without forming it:
    the one validator of every density type.

    Hermiticity holds to 1e-10 of the largest entry magnitude; the trace
    is sum(diagonal) * spacing and must be within ``trace_tol`` of 1.
    The worst violating pair is named in the error by its row and column
    counted across the blocks in order, through ``label(row, col)`` when
    given.  Raises ValidationError, else returns the Hermiticity residual
    max |rho - rho^dagger| and the trace.
    """
    # rho - rho^dagger one row strip at a time, so no temporary has the
    # full size (a Fock matrix at its cutoff 40 is 1681^2 complex entries,
    # 45 MB, and a complex 1351^2 kernel on the default window 29 MB).
    # |rho_ij - rho_ji^*| is symmetric in (i, j), so the strip starting at
    # row a needs only the columns j >= a: they still hold the first
    # occurrence, in row-major order, of every deviation.  The strips'
    # scales are also the finiteness check: the largest |entry| of a strip
    # is finite exactly when all of its entries are, and every strip is
    # scanned before the Hermiticity error can be raised
    worst, scale, offset = 0.0, 0.0, 0
    for block in blocks:
        for a in range(0, block.shape[0], _STRIP):
            rows = block[a:a + _STRIP]
            top = float(np.maximum(rows.max(), -rows.min())
                        if rows.dtype == float else np.abs(rows).max())
            # tested before the fold: builtin max drops a nan second argument
            if not np.isfinite(top):
                raise ValidationError(f"{what} entries must be finite")
            scale = max(scale, top)
            dev = np.abs(rows[:, a:] - block[a:, a:a + _STRIP].T.conj())
            i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
            if dev[i, j] > worst:
                # the worst pair's block, its first row and the pair in it
                worst, entries, first = float(dev[i, j]), block, offset
                row, col = a + i, a + j
        offset += block.shape[0]
    if worst > 1e-10 * max(1.0, scale):
        pair = label(first + row, first + col) if label \
            else f"({first + row}, {first + col})"
        raise ValidationError(
            f"{what} violates Hermiticity: entry {pair} = {entries[row, col]} "
            f"but its mirror is {entries[col, row]} (deviation {worst:.3e})")
    tr = sum(float(np.trace(block).real) for block in blocks) * spacing
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError(
            f"{what} trace {tr} deviates from 1 by more than {trace_tol}")
    return worst, tr


def _flush_tiny(a: np.ndarray) -> np.ndarray:
    """Zero every real and imaginary part of ``a`` below _FLUSH in
    magnitude, in place, and return ``a``.  The rows go in strips of
    _STRIP, so the magnitudes and the mask are strip-sized, never the
    size of ``a``.

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
        for k in range(0, part.shape[0], _STRIP):
            rows = part[k:k + _STRIP]
            rows[np.abs(rows) < _FLUSH] = 0.0
    return a


class _DensityMatrix:
    """A validated density matrix, the one contract of every basis.

    Construction stores the entries by :func:`_stored`, checking the
    ``(dim, dim)`` shape, and runs :func:`_validate_blocks` on them as one
    block.  Hermiticity is measured, not imposed: the entries are stored
    as given, their residual in ``meta["hermiticity_residual"]``;
    ``trace`` (the validator's own measurement) and :meth:`min_eigenvalue`
    are scaled by ``spacing``, which is 1 in a discrete basis.
    """

    def __init__(self, entries, dim: int, *, spacing: float = 1.0,
                 trace_tol: float = 1e-10, label=None,
                 what: str = "density matrix"):
        self.entries = _stored(entries, dim, f"{what} entries")
        residual, self._trace = _validate_blocks(
            [self.entries], spacing=spacing, trace_tol=trace_tol,
            label=label, what=what)
        self.meta = {"hermiticity_residual": residual}
        self._spacing = spacing

    @property
    def trace(self) -> float:
        return self._trace

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue in the trace normalisation (PSD check)."""
        return float(np.linalg.eigvalsh(self.entries)[0]) * self._spacing


class DensityMatrixV(_DensityMatrix):
    """Hermitian density-matrix kernel sampled on a log-radius grid.

    ``entries[i, j]`` holds <vbar_i| rho |vbar_j>, float64 when the kernel
    is real (a real symmetric matrix) and complex128 otherwise.  This is
    the one trace rule of a log-radius kernel: the entries are stored as
    given, never rescaled, and their trace sum(diagonal) * spacing, which
    lacks whatever mass lies outside the grid's window, is measured and
    recorded as ``meta["radial_trace"]``, beside the grid itself as
    ``meta["radial_grid"] = [min, max, n_points]``.  A trace more than
    1e-8 from 1 raises ValidationError naming the window.
    """

    def __init__(self, grid: Grid1D, entries):
        super().__init__(entries, grid.n_points, spacing=grid.spacing,
                         trace_tol=1e-8, what="log-radius kernel (window "
                         f"[{grid.min}, {grid.max}])")
        self.grid = grid
        self.meta["radial_trace"] = self.trace
        self.meta["radial_grid"] = [grid.min, grid.max, grid.n_points]

    @classmethod
    def from_pure(cls, psi: WavefunctionV) -> "DensityMatrixV":
        """|psi><psi| of the samples as given (see :meth:`from_mixture`)."""
        return cls.from_mixture([1.0], [psi])

    @classmethod
    def from_mixture(cls, weights, states) -> "DensityMatrixV":
        """Convex mixture of pure states on a common grid, one weight per
        state: one product (S^T w) S^* of the sample stack S, its tails
        zeroed below sqrt(tiny) (see :func:`_flush_tiny`).  The samples
        are not renormalised, so the kernel's trace is the weighted sum of
        the states' discrete norms, held to 1e-8 of 1.  If no sample of S
        has a nonzero imaginary part, the product is taken over Re S and
        the kernel is float64."""
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
        stack = _flush_tiny(np.array([psi.samples for psi in states]))
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


def _delta_fold(delta_grid: Grid1D):
    """(cols, col, sign): W at column j of ``delta_grid`` is the cosine
    half at cols[col[j]] plus sign[j] times the sine half there; a
    symmetric axis keeps cols = points[n // 2:] (see the module notes)."""
    points = delta_grid.points
    n = points.size
    j = np.arange(n)
    if delta_grid.min != -delta_grid.max:
        return points, j, np.ones(n)
    return (points[n // 2:], np.maximum(j, n - 1 - j) - n // 2,
            np.where(j < n // 2, -1.0, 1.0))


def _gamma_nodes(gamma_grid: Grid1D, grid: Grid1D) -> np.ndarray:
    """Index s = 2 (gamma - v_0) / h of every gamma on the half-integer
    nodes of the log-radius ``grid``: gamma sits on the anti-diagonal
    i + j = s of the kernel's samples.  A gamma off its node by more than
    1e-6 in s, or outside the grid, raises GridAlignmentError."""
    gammas = gamma_grid.points
    h = grid.spacing
    s_float = 2.0 * (gammas - grid.min) / h
    s_idx = np.rint(s_float).astype(int)
    if np.abs(s_float - s_idx).max() > 1e-6:
        worst = int(np.argmax(np.abs(s_float - s_idx)))
        raise GridAlignmentError(
            f"gamma = {gammas[worst]} is not on a half-integer multiple of "
            f"the density grid spacing {h}")
    if s_idx.min() < 0 or s_idx.max() > 2 * (grid.n_points - 1):
        raise GridAlignmentError("gamma grid extends outside the density grid")
    return s_idx


def _fold_slices(entries: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The slices of the n x n kernel ``entries`` through the
    anti-diagonals i + j = s[k], all of one parity p, folded onto tau >= 0:

        g[k, t] = x[k, a_k + t] + x[k, b_k - t]^*,   x[k, a] = entries[a, s_k - a],

    at tau = 2t + p for t < T = ceil((n - p) / 2), with a_k = ceil(s_k / 2)
    and b_k = s_k - a_k, and g[k, t] = 0 past the kernel's edge,
    t > min(n - 1 - a_k, b_k).

    x is one read-only strided view of the flat kernel, of strides
    (d, n - 1) items.  s steps by one even d: a uniform gamma axis on the
    nodes gives an arithmetic progression of anti-diagonals (within the
    1e-6 of :func:`_gamma_nodes` no index can jump), and a parity class
    keeps every one or every other of them; one row has no step.  The
    view stays inside the kernel's buffer, since s_k <= 2(n - 1) puts its
    last item at s_k + (n - 1)^2 <= n^2 - 1; where s_k - a leaves [0, n)
    it reads some other entry, which lands only where g is zeroed.  The
    rows go in strips of _STRIP, each copied once (the copy reads d items
    apart along k, so it streams) into a buffer with T zeros at either
    end, so that both terms are strided views of it whose reads past a
    row land in a neighbour row or the padding, again only where g is
    zeroed.  Each kept entry is the one sum x + x^* of the direct
    gather, so g is the same to the bit.
    """
    n = entries.shape[0]
    T = (n - s[0] % 2 + 1) // 2
    flat = np.ravel(entries)
    item = flat.itemsize
    d = int(s[1] - s[0]) if s.size > 1 else 0
    t = np.arange(T)
    g = np.empty((s.size, T), dtype=entries.dtype)
    for k0 in range(0, s.size, _STRIP):
        sk = s[k0:k0 + _STRIP]
        m = sk.size
        x = np.zeros(m * n + 2 * T, dtype=entries.dtype)
        x[T:T + m * n].reshape(m, n)[...] = as_strided(
            flat[sk[0]:], shape=(m, n), strides=(d * item, (n - 1) * item),
            writeable=False)
        a0 = (int(sk[0]) + 1) // 2
        row = (n + d // 2) * item
        first = as_strided(x[T + a0:], shape=(m, T), strides=(row, item),
                           writeable=False)
        second = as_strided(x[T + sk[0] - a0:], shape=(m, T),
                            strides=(row, -item), writeable=False)
        out = g[k0:k0 + m]
        np.add(first, second.conj(), out=out)
        ak = (sk + 1) // 2
        out[t > np.minimum(n - 1 - ak, sk - ak)[:, None]] = 0.0
    return g


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
    those tau alone and over the delta >= 0 half of a symmetric axis of
    m points, column j < m // 2 read at -delta_{m-1-j} (see
    :func:`_delta_fold`); the gathered slices are zeroed below sqrt(tiny)
    first (see :func:`_flush_tiny`).  Hermiticity was checked at
    construction; the kernel's whole ``meta`` (its residual and trace,
    and what its producer recorded) is copied into W's.  Each class's
    slices come from one strided view of the flat kernel, copied a strip
    of _STRIP rows at a time and folded by two strided views of the copy
    (see :func:`_fold_slices`): the same sums as a gather one
    anti-diagonal at a time, so W is the same to the bit.  The cosine
    table overwrites its argument, and when one parity class holds every
    gamma row (a gamma step that is a multiple of h) its product is
    gathered straight into W's values and scaled there, so a real kernel
    makes no W-sized temporary: on a 551 x 641 W its tracemalloc peak
    is 3.18 W, the folded slices, the table and the product over the
    delta >= 0 half.

    Sampled at tau spacing 2h, each class yields W(delta) + W(delta +- pi/h)
    + ..., so a delta past the band limit pi/(2h) raises DomainError.
    """
    h = rho.grid.spacing
    n = rho.grid.n_points

    band = np.pi / (2.0 * h)
    delta_max = float(np.abs(delta_grid.points).max())
    if delta_max > band:
        raise DomainError(
            f"|delta| = {delta_max} exceeds the band limit pi/(2h) = "
            f"{band:.6g} of the density grid spacing h = {h}: each parity "
            "class samples tau at 2h, so W would alias with its images at "
            "delta +- pi/h")

    s_idx = _gamma_nodes(gamma_grid, rho.grid)
    cols, col, sign = _delta_fold(delta_grid)
    values = np.empty((gamma_grid.n_points, delta_grid.n_points))
    for p in np.unique(s_idx % 2):
        rows = np.flatnonzero(s_idx % 2 == p)
        tau = np.arange(p, n, 2)
        gather = _fold_slices(rho.entries, s_idx[rows])
        if p == 0:
            gather[:, 0] *= 0.5
        _flush_tiny(gather)
        arg = np.outer(tau * h, cols)
        sine = np.sin(arg) if np.iscomplexobj(gather) else None
        # one class holding every row is gathered straight into W; col
        # is in range by construction, and mode="clip" makes take write
        # out without first buffering a copy of it
        w = np.take(gather.real @ np.cos(arg, out=arg), col, axis=1,
                    out=values if rows.size == values.shape[0] else None,
                    mode="clip")
        if sine is not None:
            w += sign * (gather.imag @ sine)[:, col]
        w *= h / np.pi
        if w is not values:
            values[rows] = w
    meta = {"route": "density-matrix", "overlap_factor": OVERLAP_FACTOR}
    meta.update(rho.meta)
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


# Past B = 2l + 1, max |W_l| over gamma falls to 2^-52 of its peak within
# x = 26 + 4.5 sqrt(l) in delta (see _band_reach)
_BAND_MARGIN = (26.0, 4.5)


def _band_reach(l: int, delta_max: float) -> float:
    """delta_max + 2l + 1 + 26 + 4.5 sqrt(l): the shortest period in delta
    whose images of W, at any level up to l, stay below rounding on
    |delta| <= delta_max (see the module notes).

    A level l holds dilation momentum up to about B = 2l + 1, and the
    margin is how far past B the tail of W_l takes to reach rounding.
    psi_l(v) is analytic and bounded in the strip |Im v| < pi/4, so W_l
    falls as e^{-pi x / 2} far past B: (2/pi) ln 2^52 = 23 to rounding.
    Its degree-2l polynomial factor slows that fall near B: max|W_l| over
    gamma in [-6, 3.5], on the density route at h = 0.005, reaches 2^-52
    of its peak at x = 24 (l = 0), 32 (4), 42 (16), 44 (20), 53 (40) and
    60 (64), and no later at m != 0.  The margin 26 + 4.5 sqrt(l) lies
    past all of them.  It bounds W's images against max|W|, not each
    gamma row against its own size: a row whose W is far below max|W|
    (gamma >~ 2, where W ~ e^{-e^{2 gamma}}) can be off by more of its
    own value.
    """
    return (delta_max + 2 * l + 1 + _BAND_MARGIN[0]
            + _BAND_MARGIN[1] * float(np.sqrt(l)))


def _ladder(l: int, gammas: np.ndarray, delta_max: float):
    """Node step and each gamma row's own node count.

    Row i integrates over eps_k = k * step, k < counts[i].  By Poisson
    summation the trapezoid sum of the even integrand on the whole line,
    (1/pi) step sum_k e^{-2 i eps_k delta} f(eps_k), is
    sum_j W_l(gamma, delta + j pi / step): W itself plus its images one
    period pi / step apart (Trefethen & Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Rev. 56, 2014).  So the step is
    pi / _band_reach(l, delta_max): every image of W_l past its band
    2l + 1 + 26 + 4.5 sqrt(l) stays clear of |delta| <= delta_max, the
    same band rule the density route's stride keeps (see
    :func:`_band_reach`).

    With u = e^{2(gamma+eps)}, |L_l(x)| <= (1 + x)^l and
    e^{-x/2} |L_l(x)| <= 1 bound log|psi_l(gamma+eps) psi_l(gamma-eps)| by
    ln 2 + 2 gamma - u/2 + l ln(1 + u), which falls for u > 2l.  A row ends
    where that bound drops 45 below the larger of its log integrand at the
    first two nodes (two, since a row on a root has phi(0) = -inf), so
    counts[i] = ceil(end_i / step) + 1.
    """
    step = np.pi / _band_reach(l, delta_max)
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
    one cosine table, over the delta >= 0 half of a symmetric axis: a
    column j < n // 2 is read at -delta_{n-1-j} (see :func:`_delta_fold`).

    The step is pi / (max|delta| + 2l + 1 + 26 + 4.5 sqrt(l)): by Poisson
    summation the ladder adds to W only its images at delta + j pi / step,
    and that period keeps them past W's band 2l + 1 and the margin, shared
    with the density route's stride, where its tail reaches 2^-52 of its
    peak (see :func:`_ladder` and :func:`_band_reach`).  So W holds to
    rounding against max|W|, and matches an adaptive quadrature of the
    same integral to ~1e-10.  ``meta`` records the step, ``ladder_step``,
    and the longest row's node count, ``ladder_nodes``.  A gamma below
    GAMMA_GUARD raises DomainError unless ``allow_deep_tail``.
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
    cols, col, _ = _delta_fold(delta_grid)
    step, counts = _ladder(l, gammas, float(np.abs(cols).max()))
    eps = np.arange(counts.max()) * step
    kernel = np.outer(eps, 2.0 * cols)
    np.cos(kernel, out=kernel)      # in place: one table, not two at once
    values = np.empty((gammas.size, delta_grid.n_points))
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
            * (integrand @ kernel[:m])[:, col]
    meta = {"route": "closed-form", "l": int(l),
            "overlap_factor": OVERLAP_FACTOR, "ladder_step": float(step),
            "ladder_nodes": int(counts.max())}
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

    The delta integral is one contraction of W1, W2 and the delta axis's
    trapezoid weights, sum_j W1[i, j] W2[i, j] w_j, so no W-sized product
    is formed; the gamma integral is :meth:`Grid1D.trapezoid`.  Both use
    the weights of :attr:`Grid1D.weights`, so a one-point axis raises
    DomainError.  The result differs from the :func:`numpy.trapezoid` of
    W1 * W2 by rounding alone: by at most 5.6e-16 of 2 pi * integral
    |W1 W2| over l, l' <= 2 on two 1041-column windows.
    """
    if w1.gamma_grid != w2.gamma_grid or w1.delta_grid != w2.delta_grid:
        raise GridMismatchError("overlap requires identical grids")
    inner = np.einsum("ij,ij,j->i", w1.values, w2.values,
                      w1.delta_grid.weights)
    return float(OVERLAP_FACTOR * w1.gamma_grid.trapezoid(inner))


def _gaussian_matrix(grid: Grid1D, sigma: float):
    """Smoothing matrix of the sampled Gaussian of width ``sigma`` on
    ``grid``, and its band radius r.

    With sigma_pix = sigma / spacing, row i holds the kernel
    exp(-x^2 / 2 sigma_pix^2), x = -radius..radius with radius
    int(10 sigma_pix + 0.5), normalised to sum 1 and centred
    on column i; columns past the window are dropped (zero padding).
    Only the at most 2n - 1 samples that land on the grid are kept, so
    every entry more than r = min(radius, n - 1) from the diagonal is
    exactly 0; the tails past them enter the normalising sum only.  That
    sum is of the kept samples when r = radius, and otherwise the
    Poisson-summation closed form of the full-line sum,
    pix sqrt(2 pi) (1 + 2 sum_{k >= 1} e^{-2 pi^2 pix^2 k^2}), within
    1e-15 of the direct sum to the radius.  The Toeplitz matrix is a strided
    view of the zero-padded kernel, so building it costs O(n) memory for
    any sigma.
    """
    n = grid.n_points
    pix = sigma / grid.spacing
    radius = int(_SMOOTH_TRUNCATE * pix + 0.5)
    r = min(radius, n - 1)

    kernel = np.exp(-0.5 / (pix * pix) * np.arange(-r, r + 1) ** 2)
    if r == radius:
        total = kernel.sum()
    else:
        # by Poisson summation the full-line sum; the samples past the
        # radius are below e^{-50} of it, and the terms k > 1.5 / pix
        # below e^{-44}
        k = np.arange(1, int(1.5 / pix) + 2)
        total = pix * np.sqrt(2.0 * np.pi) * (
            1.0 + 2.0 * np.exp(-2.0 * (np.pi * pix * k) ** 2).sum())
    kernel /= total
    padded = np.zeros(2 * n - 1)
    padded[n - 1 - r:n + r] = kernel
    # window s of the view is padded[s:s + n]; row i needs s = n - 1 - i
    return sliding_window_view(padded, n)[::-1], r


def _band_blocks(n: int, r: int):
    """(block, band) per block of _STRIP rows of an n x n matrix that is 0
    more than r from its diagonal: the block's rows are 0 outside the
    columns ``band``."""
    for i0 in range(0, n, _STRIP):
        i1 = min(i0 + _STRIP, n)
        yield slice(i0, i1), slice(max(0, i0 - r), min(n, i1 + r))


def s_smooth(w: WignerGrid, s: float) -> WignerGrid:
    """Lower the ordering parameter by Gaussian smoothing.

    For s < 0 convolves with an isotropic Gaussian of variance |s|/2 per
    axis (s = -1 gives the nonnegative Husimi function); s = 0 is the
    identity.  s > 0 would require deconvolution, which is ill-posed on
    sampled data, and is refused.

    The separable filter is two banded matrix products, (A @ W) @ B^T,
    with A and B the Toeplitz matrices of the normalised sampled kernel
    of each axis (see :func:`_gaussian_matrix`), zero outside the window.
    Each entry of A or B more than its radius r from the diagonal is
    exactly 0, so each block of _STRIP rows of A @ W (columns of
    (A @ W) @ B^T) is the product over that band alone; the zeros left
    out change Q by reassociation only, within 4e-15 of max|Q| of the
    dense product.  Two losses go in ``meta``:

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
    a, ra = _gaussian_matrix(w.gamma_grid, sigma)
    b, rb = _gaussian_matrix(w.delta_grid, sigma)
    edge = max(_edge_strip_mass(w, 0), _edge_strip_mass(w, 1))
    if edge > 1e-8:
        warnings.warn(
            f"the outermost strips of the window hold {edge:.2e} of |W|; the "
            "smoothed values near the edges are off by that order",
            TruncationWarning, stacklevel=2)
    meta["s"] = float(meta.get("s", 0.0) + s)
    meta["edge_strip_mass"] = edge
    aw = np.empty(w.values.shape)
    for rows, band in _band_blocks(a.shape[0], ra):
        aw[rows] = a[rows, band] @ w.values[band]
    values = np.empty(aw.shape)
    for cols, band in _band_blocks(b.shape[0], rb):
        values[:, cols] = aw[:, band] @ b[cols, band].T
    q = WignerGrid(w.gamma_grid, w.delta_grid, values, meta=meta)
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
