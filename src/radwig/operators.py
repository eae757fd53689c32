"""Grid actions of the radial momentum operators and the scale displacement.

Operators implemented here (hbar = 1):

* ``PD``  -- the symmetrised conjugate of the radius, acting on r-basis
  samples as -i (d/dr + 1/(2r)).  Canonically conjugate to r but not
  self-adjoint on the half-line.
* ``Pr``  -- the dilation (scaling) momentum, -i (r d/dr + 1) in the r
  basis; in the rescaled log-radius basis it is the ordinary -i d/dvbar,
  which is what makes that coordinate the natural one.
* ``V``/``R`` -- multiplication by vbar resp. r = exp(vbar).
* ``D(lambda, mu)`` -- the scale displacement
  exp(i mu Pr / 2) r^{i lambda} exp(i mu Pr / 2), acting on log-radius
  samples as psi(vbar) -> exp(i lambda (vbar + mu/2)) psi(vbar + mu).

A displacement built instead by exponentiating a linear combination
a (Pr + m r) is deliberately not provided: because [r, Pr] = i r is not
symmetric between the two operators, the normal-ordered factorisations
exp(iaPr) exp(imr(1-e^{-a})) and exp(imr(e^a-1)) exp(iaPr) differ, so the
adjoint action would depend on an arbitrary ordering choice.  The
translate/phase/translate sandwich D(lambda, mu) has no such ambiguity.
"""

import numpy as np

from .errors import (BasisMismatchError, DomainError, TruncationError,
                     TruncationWarning, ValidationError)
from .grids import Grid1D
from .states import WavefunctionR, WavefunctionV

import warnings

__all__ = ["apply_pd", "apply_pr", "apply_displacement",
           "momentum_transform", "expectation"]

_EDGE_DECAY = 1e-10
_HERMITIAN_KINDS = frozenset({"Pr", "V", "R"})


def _fd_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative; one-sided stencils at the edges."""
    n = samples.size
    if n < 5:
        raise ValidationError("finite differences need at least 5 samples")
    d = np.empty_like(samples)
    d[2:-2] = (samples[:-4] - 8*samples[1:-3] + 8*samples[3:-1] - samples[4:]) / (12*h)
    d[0] = (-25*samples[0] + 48*samples[1] - 36*samples[2]
            + 16*samples[3] - 3*samples[4]) / (12*h)
    d[1] = (-3*samples[0] - 10*samples[1] + 18*samples[2]
            - 6*samples[3] + samples[4]) / (12*h)
    d[-2] = (3*samples[-1] + 10*samples[-2] - 18*samples[-3]
             + 6*samples[-4] - samples[-5]) / (12*h)
    d[-1] = (25*samples[-1] - 48*samples[-2] + 36*samples[-3]
             - 16*samples[-4] + 3*samples[-5]) / (12*h)
    return d


def _wavenumbers(grid: Grid1D) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)


def _spectral_derivative(psi: WavefunctionV) -> np.ndarray:
    k = _wavenumbers(psi.grid)
    if psi.grid.n_points % 2 == 0:
        k = k.copy()
        k[psi.grid.n_points // 2] = 0.0  # odd-derivative Nyquist convention
    return np.fft.ifft(1j * k * np.fft.fft(psi.samples))


def _warn_edges(samples: np.ndarray, spacing: float, what: str):
    edge = max(abs(samples[0]), abs(samples[-1]))
    if edge > _EDGE_DECAY:
        mass = float((abs(samples[0]) ** 2 + abs(samples[-1]) ** 2) * spacing)
        warnings.warn(
            f"{what}: edge samples ~{edge:.2e} exceed {_EDGE_DECAY:g} "
            f"(roughly {mass:.1e} probability per edge step); the periodic "
            "wrap-around of the spectral grid may contaminate the result",
            TruncationWarning, stacklevel=3)


def apply_pd(psi: WavefunctionR) -> np.ndarray:
    """Apply -i (d/dr + 1/(2r)) to r-basis samples.

    Returns raw (unnormalised) samples on the same radii.  The radii must
    be uniformly spaced with the first point at least one spacing away
    from r = 0, and there must be at least 5 of them for the fourth-order
    stencils.
    """
    if not isinstance(psi, WavefunctionR):
        raise BasisMismatchError("PD acts on r-basis states only")
    h = psi.spacing
    if psi.r.size < 5:
        raise ValidationError("PD needs at least 5 grid points")
    if psi.r[0] < h * (1 - 1e-9):
        raise DomainError("first radius sample must be at least one spacing from 0")
    return -1j * (_fd_derivative(psi.samples, h) + psi.samples / (2.0 * psi.r))


def apply_pr(psi) -> np.ndarray:
    """Apply the dilation momentum and return raw samples.

    Log-radius states get the spectral -i d/dvbar; r-basis states get the
    equivalent -i (r d/dr + 1) via finite differences.
    """
    if isinstance(psi, WavefunctionV):
        _warn_edges(psi.samples, psi.grid.spacing, "apply_pr")
        return -1j * _spectral_derivative(psi)
    if isinstance(psi, WavefunctionR):
        dpsi = _fd_derivative(psi.samples, psi.spacing)
        return -1j * (psi.r * dpsi + psi.samples)
    raise BasisMismatchError(f"cannot apply Pr to {type(psi).__name__}")


def _displace(grid: Grid1D, samples: np.ndarray, lam: float, mu: float) -> np.ndarray:
    """D(lam, mu) along the last axis of a (..., n) stack of samples.

    One band-limited shift psi(vbar) -> psi(vbar + mu) of every row, then
    the phase exp(i lam (vbar + mu/2)).  Raises TruncationError with the
    lost mass of the worst row.
    """
    v = grid.points
    if mu != 0.0:
        strip = v < grid.min + mu if mu > 0 else v > grid.max + mu
        lost = float(np.max(np.sum(np.abs(samples[..., strip]) ** 2 * grid.spacing,
                                   axis=-1)))
        if lost > 1e-8:
            raise TruncationError(
                f"displacement by mu={mu} pushes ~{lost:.3e} of the "
                "probability across the grid edge", lost_mass=lost)

    shifted = np.fft.ifft(np.exp(1j * _wavenumbers(grid) * mu) * np.fft.fft(samples))
    return np.exp(1j * lam * (v + mu / 2.0)) * shifted


def apply_displacement(lam: float, mu: float, psi: WavefunctionV) -> WavefunctionV:
    """Scale displacement D(lam, mu) on a log-radius state.

    Applied as the action of exp(i mu Pr/2) r^{i lam} exp(i mu Pr/2): one
    spectral translation psi(vbar) -> psi(vbar + mu), times the exact
    phase exp(i lam (vbar + mu/2)) at the grid points.  The translation is
    a unitary spectral shift, so repeated displacements compose without
    dispersive grid error.

    Raises TruncationError (with the estimated lost mass) if the state
    carries more than 1e-8 of its probability within |mu| of the grid
    edge it is pushed across, since the spectral shift would wrap that
    mass around.  ``lam`` and ``mu`` must be finite scalars (DomainError
    otherwise).
    """
    if not isinstance(psi, WavefunctionV):
        raise BasisMismatchError("the displacement acts on log-radius states")
    if np.ndim(lam) or np.ndim(mu):
        raise DomainError("displacement parameters must be scalars, got "
                          f"shapes {np.shape(lam)} and {np.shape(mu)}")
    if not (np.isfinite(lam) and np.isfinite(mu)):
        raise DomainError("displacement parameters must be finite")
    out = _displace(psi.grid, psi.samples, lam, mu)
    return WavefunctionV(psi.grid, out, norm_tol=None, meta=dict(psi.meta))


def momentum_transform(psi: WavefunctionV, p_grid: Grid1D) -> np.ndarray:
    """Momentum-representation samples over ``p_grid``.

    Unitary convention  psi~(P) = (2 pi)^{-1/2} integral e^{-i P vbar}
    psi(vbar) dvbar,  evaluated as a Riemann sum (spectrally accurate for
    edge-decayed states).  Parseval then holds on any momentum window
    wide enough to hold the transform.
    """
    _warn_edges(psi.samples, psi.grid.spacing, "momentum_transform")
    v = psi.grid.points
    phases = np.exp(-1j * np.outer(p_grid.points, v))
    return phases @ psi.samples * (psi.grid.spacing / np.sqrt(2.0 * np.pi))


def _apply(kind: str, psi):
    if kind == "Pr":
        return apply_pr(psi)
    if kind == "PD":
        return apply_pd(psi)
    if isinstance(psi, WavefunctionV):
        v = psi.grid.points
        return (v if kind == "V" else np.exp(v)) * psi.samples
    if isinstance(psi, WavefunctionR):
        return (np.log(psi.r) if kind == "V" else psi.r) * psi.samples
    raise BasisMismatchError(f"cannot apply {kind} to {type(psi).__name__}")


def expectation(kind: str, psi) -> complex:
    """<psi| O |psi> by trapezoidal quadrature in the state's measure.

    ``kind`` names the operator: "PD", "Pr", "V" (vbar) or "R" (r); any
    other name raises DomainError.  For the Hermitian kinds (Pr, V, R)
    the imaginary part is asserted below 1e-9 and the full complex value
    returned; for Pr on r-basis samples the error names the boundary
    terms r^2 |psi|^2 / 2 at the first and last radius, which is what an
    imaginary part there measures.  The expectation of a scale
    displacement D(lam, mu) is the inner product of ``psi`` with
    :func:`apply_displacement`'s result.
    """
    if kind != "PD" and kind not in _HERMITIAN_KINDS:
        raise DomainError(f"unknown operator kind {kind!r}")
    acted = _apply(kind, psi)
    if isinstance(psi, WavefunctionV):
        val = np.trapezoid(np.conj(psi.samples) * acted, dx=psi.grid.spacing)
    else:
        val = np.trapezoid(psi.r * np.conj(psi.samples) * acted, psi.r)
    val = complex(val)
    if kind in _HERMITIAN_KINDS and abs(val.imag) > 1e-9:
        msg = f"expectation of Hermitian {kind} has imaginary part {val.imag:.3e}"
        if kind == "Pr" and isinstance(psi, WavefunctionR):
            # in r dr, Im <psi| -i (r d/dr + 1) |psi> is the boundary term
            # r^2 |psi|^2 / 2 at the first radius less the one at the last
            edges = [0, -1]
            first, last = (psi.r[edges] * np.abs(psi.samples[edges])) ** 2 / 2
            msg += (f": the boundary term r^2 |psi|^2 / 2 is {first:.3e} at the "
                    f"first radius r_min = {psi.r[0]:g} and {last:.3e} at the "
                    f"last, r_max = {psi.r[-1]:g}; start the radii nearer 0 "
                    "and end them where psi has decayed")
        raise ValidationError(msg)
    return val
