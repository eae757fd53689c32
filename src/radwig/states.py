"""Closed-form states of the radial problem in the r and log-radius bases.

Conventions (hbar = 1 throughout):

* ``r`` basis: kets normalised against the measure ``r dr``, so a state
  psi(r) satisfies  integral r |psi(r)|^2 dr = 1.
* ``vbar`` basis: the log-radius coordinate vbar = ln r with rescaled
  kets such that the inner product is a plain delta(vbar - vbar') and the
  measure is ``dvbar``.  A state converts between the two pictures via
  psi_vbar(vbar) = exp(vbar) * psi_r(exp(vbar)).

Every oscillator eigenfunction comes from one log-domain producer,
``_radial_rows``: :func:`radial_wavefunction`, :func:`vbar_schwinger_l0`
and the closed-form Wigner integrand of :mod:`radwig.wigner` read its
last row alone, :func:`radwig.fock.radial_reduce` every row.
"""

import math
import warnings
from fractions import Fraction

import numpy as np

from .errors import (BasisMismatchError, DomainError, TruncationError,
                     TruncationWarning, ValidationError)
from .grids import Grid1D
from .special import (_check_degree_order, _last_log, _scaled_recurrence,
                      log_factorial)

__all__ = [
    "WavefunctionV", "WavefunctionR", "SchwingerLabel",
    "radial_wavefunction", "to_vbar", "vbar_schwinger_l0",
    "dilaton_vacuum", "dilaton_coherent", "default_vbar_grid",
]

_SQRT2 = math.sqrt(2.0)
_VACUUM_NORM = np.pi ** -0.25


def default_vbar_grid() -> Grid1D:
    """Default log-radius axis: [-9.5, 4] at spacing 0.01.

    Wide enough that every bound state used in this package (oscillator
    radial levels up to l ~ 40 and moderately displaced Gaussians) keeps
    its tail mass outside the window below 1e-8; the slowly decaying
    exp(vbar) left tail of the oscillator states is what forces the deep
    negative end.
    """
    return Grid1D(-9.5, 4.0, 1351)


def _accept_samples(state, norm_tol, meta) -> None:
    """The checks every state makes of its own samples: they are finite,
    and, unless ``norm_tol`` is None, ``state.norm()`` is within
    ``norm_tol`` of 1; ``state.meta`` is a copy of ``meta``."""
    if not np.all(np.isfinite(state.samples)):
        raise ValidationError("wavefunction samples must be finite")
    state.meta = dict(meta) if meta else {}
    if norm_tol is not None:
        n = state.norm()
        if abs(n - 1.0) > norm_tol:
            raise ValidationError(
                f"state norm {n} deviates from 1 by more than {norm_tol}")


class WavefunctionV:
    """Complex state samples over a uniform log-radius grid.

    Normalisation convention: sum(|psi|^2) * spacing == 1 within
    ``norm_tol`` (pass ``norm_tol=None`` to skip the check for raw
    intermediate data).
    """

    def __init__(self, grid: Grid1D, samples, *, norm_tol=1e-6, meta=None):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (grid.n_points,):
            raise ValidationError(
                f"samples shape {samples.shape} does not match grid length {grid.n_points}")
        self.grid = grid
        self.samples = samples
        _accept_samples(self, norm_tol, meta)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.spacing)


class WavefunctionR:
    """Complex state samples over strictly positive radii.

    The radius samples may be non-uniform (log spacing is fine).
    Normalisation uses the radial measure: trapezoid of r |psi|^2 over r.
    """

    def __init__(self, r, samples, *, norm_tol=1e-6, meta=None):
        r = np.asarray(r, dtype=float)
        samples = np.asarray(samples, dtype=complex)
        if r.ndim != 1 or r.size < 2:
            raise ValidationError("need at least two radius samples")
        if samples.shape != r.shape:
            raise ValidationError("samples and radii must have the same length")
        if np.any(r <= 0):
            raise DomainError("radii must be strictly positive")
        if np.any(np.diff(r) <= 0):
            raise ValidationError("radii must be strictly increasing")
        self.r = r
        self.samples = samples
        _accept_samples(self, norm_tol, meta)

    def norm(self) -> float:
        return float(np.trapezoid(self.r * np.abs(self.samples) ** 2, self.r))

    @property
    def spacing(self) -> float:
        """Uniform spacing, or raise if the radii are not uniform."""
        d = np.diff(self.r)
        if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
            raise ValidationError("radius samples are not uniformly spaced")
        return float(d[0])


class SchwingerLabel:
    """Angular-momentum label (l, m) of a 2D oscillator level.

    Stored internally as the circular-mode occupation numbers
    ``n_plus = l + m`` and ``n_minus = l - m`` so that half-integer labels
    stay exact; ``l`` and ``m`` are exposed as `fractions.Fraction`.
    Half-integer labels (odd total quanta) are valid inputs everywhere.
    Levels are those of the oscillator of unit length (beta = 1); another
    length beta is the scale displacement D(0, ln beta) of
    :func:`radwig.operators.apply_displacement`.
    """

    def __init__(self, l, m):
        lf, mf = Fraction(l), Fraction(m)
        n_plus, n_minus = lf + mf, lf - mf
        if n_plus.denominator != 1 or n_minus.denominator != 1:
            raise DomainError(f"l+m and l-m must be integers, got l={l}, m={m}")
        if n_plus < 0 or n_minus < 0:
            raise DomainError(f"l+m and l-m must be nonnegative, got l={l}, m={m}")
        self.n_plus = int(n_plus)
        self.n_minus = int(n_minus)

    @classmethod
    def from_occupations(cls, n_plus: int, n_minus: int):
        return cls(Fraction(n_plus + n_minus, 2), Fraction(n_plus - n_minus, 2))

    @property
    def l(self) -> Fraction:
        return Fraction(self.n_plus + self.n_minus, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.n_plus - self.n_minus, 2)

    def __eq__(self, other):
        return (isinstance(other, SchwingerLabel)
                and (self.n_plus, self.n_minus) == (other.n_plus, other.n_minus))

    def __hash__(self):
        return hash((self.n_plus, self.n_minus))

    def __repr__(self):
        return f"SchwingerLabel(l={self.l}, m={self.m})"


def _radial_rows(alpha: int, count: int, v: np.ndarray, first: int = 0):
    """Yield the log-radius eigenfunctions psi_k(v) for k = first..count-1.

        psi_k(v) = sqrt(2 k! / (k+alpha)!) e^{(alpha+1) v} e^{-e^{2v}/2}
                   L_k^alpha(e^{2v}) (-1)^k

    is e^v R_{l,m}(e^v), for k = l - |m| and alpha = 2|m|.
    One Laguerre recurrence in k at fixed alpha gives every row as a pair
    ``(cur, offset)`` with psi_k = cur * exp(offset), the magnitude kept
    in the log domain so that no row overflows; rows below ``first`` are
    not assembled (``first=count - 1`` is the path to the last row alone).
    Where x = e^{2v} overflows every row is 0 under the offset -x/2, and
    the recurrence runs at the largest double.
    """
    _check_degree_order(count - 1, alpha)
    # in place: a second live temporary of the caller's size costs pages
    with np.errstate(over="ignore"):
        x = np.exp(v, out=np.empty(np.shape(v)))
        x *= x
    base = x * -0.5
    base += v if alpha == 0 else (alpha + 1.0) * v
    np.fmin(x, np.finfo(float).max, out=x)
    for k, (cur, offset) in enumerate(
            _scaled_recurrence(int(count) - 1, float(alpha), x)):
        if k < first:
            continue
        log_pref = 0.5 * (np.log(2.0) + log_factorial(k)
                          - log_factorial(k + alpha))
        yield (-cur if k % 2 else cur), base + (log_pref + offset)


def radial_wavefunction(label: SchwingerLabel, r):
    """Radial eigenfunction R_{l,m}(r) of the 2D isotropic oscillator.

    R_{l,m}(r) = sqrt(2 (l-|m|)! / (l+|m|)!) r^{2|m|} exp(-r^2 / 2)
                 * L_{l-|m|}^{2|m|}(r^2) * (-1)^{l-|m|}

    normalised so that  integral r R^2 dr = 1, at unit oscillator length
    (hbar = 1, beta = 1); the level of length beta is beta R(beta r), the
    scale displacement D(0, ln beta) of this one.  Read off the last row
    of the log-radius producer as R(r) = psi(ln r) / r, with ln r taken
    off in the log domain, so neither large degrees nor large radii
    overflow.
    Accepts a scalar or an array of radii; r must be strictly positive.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0) or not np.all(np.isfinite(r_arr)):
        raise DomainError("radius must be strictly positive and finite")
    k = min(label.n_plus, label.n_minus)
    log_r = np.log(r_arr)
    cur, _, log_psi = _last_log(_radial_rows(
        abs(label.n_plus - label.n_minus), k + 1, log_r, first=k))
    out = np.sign(cur) * np.exp(log_psi - log_r)
    return float(out) if r_arr.ndim == 0 else out


def vbar_schwinger_l0(l: int, vbar):
    """Log-radius wavefunction of the zero-angular-momentum level l.

    <vbar | l, 0> = sqrt(2) e^{vbar} e^{-e^{2 vbar}/2} L_l(e^{2 vbar}) (-1)^l

    (hbar = 1, beta = 1): the alpha = 0 row of the log-radius producer.
    Evaluated log-safely, so arguments up to vbar ~ +10 simply underflow
    to 0 instead of overflowing.  Accepts a scalar or array.
    """
    v = np.asarray(vbar, dtype=float)
    cur, _, log_psi = _last_log(_radial_rows(0, l + 1, v, first=l))
    out = np.sign(cur) * np.exp(log_psi)
    return float(out) if v.ndim == 0 else out


def dilaton_vacuum(basis: str, point):
    """Ground state annihilated by (vbar + i P) / sqrt(2).

    In the vbar basis this is the unit-norm Gaussian
    pi^{-1/4} exp(-vbar^2 / 2); in the r basis it is the log-normal-like
    profile (pi^{-1/4} / r) exp(-(ln r)^2 / 2), unit-norm against r dr.
    Accepts a scalar or array ``point``.
    """
    p = np.asarray(point, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if basis == "vbar":
        out = _VACUUM_NORM * np.exp(-p ** 2 / 2.0)
    elif basis == "r":
        if np.any(p <= 0):
            raise DomainError("radius must be strictly positive")
        lnr = np.log(p)
        out = _VACUUM_NORM / p * np.exp(-lnr ** 2 / 2.0)
    else:
        raise DomainError(f"basis must be 'vbar' or 'r', got {basis!r}")
    return float(out[0]) if scalar else out


def dilaton_coherent(alpha: complex, grid: Grid1D) -> WavefunctionV:
    """Displaced vacuum D(alpha)|0> sampled on ``grid``.

    The displacement exp(alpha a^dag - alpha* a) with
    a = (vbar + i P)/sqrt(2) splits into a phase, a momentum boost and a
    translation, giving the minimum-uncertainty Gaussian

        pi^{-1/4} exp(i p0 (vbar - v0/2) - (vbar - v0)^2 / 2)

    with v0 = sqrt(2) Re alpha and p0 = sqrt(2) Im alpha, so
    <vbar> = v0, <P> = p0 and both spreads equal 1/sqrt(2).  Warns if the
    grid holds less than 1 - 1e-8 of the probability and raises
    TruncationError below 1/2; an alpha whose v0 or p0 is not finite, or
    a one-point grid (no normalisable state), raises DomainError.
    """
    if grid.n_points < 2:
        raise DomainError(f"a coherent state needs at least two grid "
                          f"points, got one at {grid.min}")
    alpha = complex(alpha)
    v0 = _SQRT2 * alpha.real
    p0 = _SQRT2 * alpha.imag
    if not (math.isfinite(v0) and math.isfinite(p0)):
        raise DomainError(f"alpha and sqrt(2) alpha must be finite, got {alpha!r}")
    lost = 0.5 * (math.erfc(grid.max - v0) + math.erfc(v0 - grid.min))
    if lost > 1e-8:
        msg = (f"grid [{grid.min}, {grid.max}] holds only {1 - lost:.10f} "
               "of the coherent-state probability")
        if lost > 0.5:
            raise TruncationError(msg, lost_mass=lost)
        warnings.warn(msg, TruncationWarning, stacklevel=2)
    v = grid.points
    samples = _VACUUM_NORM * np.exp(1j * p0 * (v - v0 / 2.0) - (v - v0) ** 2 / 2.0)
    tol = max(1e-6, 10.0 * lost)
    return WavefunctionV(grid, samples, norm_tol=tol,
                         meta={"alpha": alpha, "lost_mass": float(lost)})


def to_vbar(psi_r, target: Grid1D) -> WavefunctionV:
    """Re-express an r-basis state in the rescaled log-radius basis.

    psi_vbar(vbar) = exp(vbar) * psi_r(exp(vbar)); the change of variables
    dvbar = dr / r absorbs the radial measure, so the norm carries over.

    Parameters
    ----------
    psi_r : callable
        Closed-form r-basis state, evaluated exactly at the target radii,
        for example ``lambda r: radial_wavefunction(label, r)``.  Sampled
        states are not interpolated: a WavefunctionR raises
        BasisMismatchError.
    target : Grid1D
        Log-radius axis for the output.
    """
    if not callable(psi_r):
        raise BasisMismatchError(
            f"to_vbar takes a callable psi_r(r), evaluated at the target "
            f"radii, not a {type(psi_r).__name__}: sampled states are not "
            "interpolated; pass the closed form, e.g. "
            "lambda r: radial_wavefunction(label, r)")
    v = target.points
    samples = np.exp(v) * np.asarray(psi_r(np.exp(v)), dtype=complex)
    return WavefunctionV(target, samples)
