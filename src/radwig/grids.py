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
        it, so :attr:`spacing` and :meth:`trapezoid` raise DomainError.
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
        object.__setattr__(
            self, "_points", np.linspace(self.min, self.max, self.n_points)
        )

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
        pts = self._points
        pts.flags.writeable = False
        return pts

    def trapezoid(self, values, axis: int = -1) -> np.ndarray:
        """Trapezoid integral of ``values`` over this axis along ``axis``."""
        self._require_interval("integral")
        return np.trapezoid(values, self._points, axis=axis)

    def __len__(self) -> int:
        return self.n_points
