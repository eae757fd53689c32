"""Wigner quasi-probability functions for the radial sector of 2D systems.

The radius of a 2D quantum system has a half-infinite spectrum, so the
naive conjugate momentum is not self-adjoint and no honest phase-space
distribution exists over (r, p_r).  The scaling generator, by contrast,
is self-adjoint, and in the log-radius coordinate vbar = ln r it becomes
an ordinary momentum with [vbar, P] = i.  This package builds that
coordinate pair numerically: stable radial special functions, the
closed-form oscillator states in both bases, grid actions of the
operators and the scale displacement, the Wigner function over
(vbar, P) by two independent routes, and the pipeline from a cartesian
Fock density matrix down to the radial Wigner function.
"""

from .errors import (AccuracyError, BasisMismatchError, DegreeOverflowError,
                     DomainError, GridAlignmentError, GridMismatchError,
                     RadwigError, SchemaError, TruncationError,
                     TruncationWarning, UnsupportedOrderError, ValidationError)
from .grids import Grid1D
from .special import LaguerreEval, laguerre_assoc, log_factorial
from .states import (SchwingerLabel, WavefunctionR, WavefunctionV,
                     default_vbar_grid, dilaton_coherent, dilaton_vacuum,
                     radial_wavefunction, to_vbar, vbar_schwinger_l0)
from .operators import (apply_displacement, apply_pd, apply_pr, expectation,
                        momentum_transform)
from .wigner import (OVERLAP_FACTOR, WIGNER_LOWER_BOUND, DensityMatrixV,
                     WignerGrid, marginal_momentum, marginal_position,
                     overlap, s_smooth, schwinger_density,
                     wigner_from_density, wigner_l0_grid)
from .fock import (FockDensityMatrix, SchwingerDensityMatrix, end_to_end,
                   load_fock_density, radial_reduce, sector_isometry)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BasisMismatchError", "DegreeOverflowError",
    "DomainError", "GridAlignmentError", "GridMismatchError", "RadwigError",
    "SchemaError", "TruncationError", "TruncationWarning",
    "UnsupportedOrderError", "ValidationError",
    "Grid1D",
    "LaguerreEval", "laguerre_assoc", "log_factorial",
    "SchwingerLabel", "WavefunctionR", "WavefunctionV", "default_vbar_grid",
    "dilaton_coherent", "dilaton_vacuum", "radial_wavefunction", "to_vbar",
    "vbar_schwinger_l0",
    "apply_displacement", "apply_pd", "apply_pr", "expectation",
    "momentum_transform",
    "OVERLAP_FACTOR", "WIGNER_LOWER_BOUND", "DensityMatrixV", "WignerGrid",
    "marginal_momentum", "marginal_position", "overlap", "s_smooth",
    "schwinger_density", "wigner_from_density", "wigner_l0_grid",
    "FockDensityMatrix", "SchwingerDensityMatrix", "end_to_end",
    "load_fock_density", "radial_reduce", "sector_isometry",
    "__version__",
]
