"""From a cartesian 2D-oscillator Fock density matrix to the radial sector.

The chain is: rotate the (n_x, n_y) Fock basis into the circular-mode
basis labelled by angular momentum (a beam-splitter-type unitary, block
diagonal in the total quantum number), trace out the angle (which kills
every coherence between different angular momenta m), and accumulate the
radial kernel on a log-radius grid.  The result feeds straight into
:func:`radwig.wigner.wigner_from_density`.
"""

import json
import math
import warnings

import numpy as np

from .errors import (DomainError, SchemaError, TruncationWarning,
                     ValidationError)
from .grids import Grid1D
from .special import log_factorial
from .states import SchwingerLabel, default_vbar_grid, radial_wavefunction
from .wigner import (DensityMatrixV, WignerGrid, validate_density_matrix,
                     wigner_from_density)

__all__ = [
    "FockDensityMatrix", "SchwingerDensityMatrix", "fock_to_schwinger",
    "radial_reduce", "end_to_end", "sector_isometry", "load_fock_density",
    "MAX_FOCK_CUTOFF",
]

MAX_FOCK_CUTOFF = 40


class FockDensityMatrix:
    """Density matrix over the square cartesian Fock cutoff n_x, n_y <= n_max.

    Entries are stored as a dense matrix over the flattened index
    ``nx * (n_max + 1) + ny``.  Hermiticity (the worst violating pair
    named by its occupations) and unit trace are validated at
    construction; positivity via :meth:`min_eigenvalue`.
    """

    def __init__(self, n_max: int, entries, *, meta=None):
        if n_max < 0 or n_max != int(n_max):
            raise DomainError(f"n_max must be a nonnegative integer, got {n_max}")
        if n_max > MAX_FOCK_CUTOFF:
            raise DomainError(
                f"n_max {n_max} exceeds the supported cutoff {MAX_FOCK_CUTOFF}")
        side = int(n_max) + 1
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (side ** 2, side ** 2):
            raise ValidationError(
                f"entries shape {entries.shape} does not match cutoff dim "
                f"{side ** 2}")

        def label(row, col):
            return "(nx={}, ny={}; nx'={}, ny'={})".format(
                *divmod(row, side), *divmod(col, side))

        validate_density_matrix(entries, label=label,
                                what="Fock density matrix")
        self.n_max = int(n_max)
        self.entries = entries
        self.meta = dict(meta) if meta else {}

    def index(self, nx: int, ny: int) -> int:
        if not (0 <= nx <= self.n_max and 0 <= ny <= self.n_max):
            raise DomainError(f"occupation ({nx}, {ny}) outside cutoff {self.n_max}")
        return nx * (self.n_max + 1) + ny

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    @classmethod
    def from_pure(cls, n_max: int, amplitudes: dict) -> "FockDensityMatrix":
        """|phi><phi| from a {(nx, ny): amplitude} dictionary."""
        dim = (n_max + 1) ** 2
        vec = np.zeros(dim, dtype=complex)
        for (nx, ny), a in amplitudes.items():
            vec[nx * (n_max + 1) + ny] = a
        vec = vec / np.linalg.norm(vec)
        return cls(n_max, np.outer(vec, vec.conj()))


def _schwinger_dim(n_max: int) -> int:
    return (2 * n_max + 1) * (2 * n_max + 2) // 2


def _schwinger_flat(total: int, n_plus: int) -> int:
    return total * (total + 1) // 2 + n_plus


class SchwingerDensityMatrix:
    """Density matrix over angular-momentum labels (l, m).

    Labels are stored through the circular occupations (n_plus, n_minus)
    with n_plus + n_minus <= 2 n_max, flattened sector by sector; the
    exact half-integer (l, m) of each index is available via ``labels``.
    """

    def __init__(self, n_max: int, entries, *, meta=None):
        dim = _schwinger_dim(n_max)
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (dim, dim):
            raise ValidationError(
                f"entries shape {entries.shape} does not match dim {dim}")
        validate_density_matrix(entries, what="Schwinger density matrix")
        self.n_max = int(n_max)
        self.entries = entries
        self.meta = dict(meta) if meta else {}

    @property
    def labels(self) -> list:
        out = []
        for total in range(2 * self.n_max + 1):
            for n_plus in range(total + 1):
                out.append(SchwingerLabel.from_occupations(n_plus, total - n_plus))
        return out

    def index(self, label: SchwingerLabel) -> int:
        total = label.n_plus + label.n_minus
        if total > 2 * self.n_max:
            raise DomainError(f"label {label} outside cutoff 2l <= {2 * self.n_max}")
        return _schwinger_flat(total, label.n_plus)

    def coefficient(self, bra: SchwingerLabel, ket: SchwingerLabel) -> complex:
        """C_{lm;l'm'} = <bra| rho |ket>."""
        return complex(self.entries[self.index(bra), self.index(ket)])

    @classmethod
    def pure(cls, label: SchwingerLabel, n_max: int) -> "SchwingerDensityMatrix":
        dim = _schwinger_dim(n_max)
        vec = np.zeros(dim, dtype=complex)
        vec[_schwinger_flat(label.n_plus + label.n_minus, label.n_plus)] = 1.0
        return cls(n_max, np.outer(vec, vec.conj()))


def sector_isometry(total: int, n_max: int) -> np.ndarray:
    """Overlap matrix <n_plus, total - n_plus | n_x, n_y> for one sector.

    Rows run over n_plus = 0..total; columns over the cartesian states of
    the sector that fit the square cutoff (n_x from max(0, total - n_max)
    to min(total, n_max)).  Obtained by expanding the cartesian creation
    monomial in circular modes:  a_x^dag = (A_+^dag + A_-^dag)/sqrt(2),
    a_y^dag = -i (A_+^dag - A_-^dag)/sqrt(2),  so the coefficient of
    u^{n_+} w^{n_-} in (u + w)^{n_x} (u - w)^{n_y} carries the whole
    combinatorial content.  Columns are orthonormal.
    """
    nx_values = range(max(0, total - n_max), min(total, n_max) + 1)
    cols = []
    for nx in nx_values:
        ny = total - nx
        p1 = np.array([math.comb(nx, j) for j in range(nx + 1)], dtype=float)
        p2 = np.array([math.comb(ny, k) * (-1.0) ** (ny - k)
                       for k in range(ny + 1)], dtype=float)
        conv = np.convolve(p1, p2)
        n_plus = np.arange(total + 1)
        log_norm = 0.5 * np.array(
            [log_factorial(p) + log_factorial(total - p) for p in n_plus]) \
            - 0.5 * (log_factorial(nx) + log_factorial(ny)) \
            - total * 0.5 * np.log(2.0)
        cols.append((-1j) ** ny * conv * np.exp(log_norm))
    return np.array(cols, dtype=complex).T


def fock_to_schwinger(rho: FockDensityMatrix) -> SchwingerDensityMatrix:
    """Rotate a cartesian Fock density matrix into angular-momentum labels.

    The change of basis is block diagonal in the total quantum number, so
    the full map is assembled sector by sector; coherences between
    different totals are carried along unchanged in structure.  Trace and
    spectrum are preserved because every sector map is an isometry.
    """
    n_max = rho.n_max
    dim_f = (n_max + 1) ** 2
    dim_s = _schwinger_dim(n_max)
    U = np.zeros((dim_s, dim_f), dtype=complex)
    for total in range(2 * n_max + 1):
        block = sector_isometry(total, n_max)
        rows = [_schwinger_flat(total, p) for p in range(total + 1)]
        cols = [nx * (n_max + 1) + (total - nx)
                for nx in range(max(0, total - n_max), min(total, n_max) + 1)]
        U[np.ix_(rows, cols)] = block
    entries = U @ rho.entries @ U.conj().T
    # scrub rounding asymmetry in place (no second dim_s^2 copy)
    entries += entries.conj().T
    entries *= 0.5
    out = SchwingerDensityMatrix(n_max, entries, meta=dict(rho.meta))
    out.meta["source"] = "fock"
    return out


def radial_reduce(rho_s: SchwingerDensityMatrix,
                  grid: Grid1D | None = None) -> DensityMatrixV:
    """Trace out the angle and sample the radial kernel on a log-radius grid.

    Angular orthogonality removes every m != m' coherence, so

        rho_v(v, v') = sum_m sum_{l, l'} C_{lm;l'm}
                       [e^v R_{l,m}(e^v)] [e^{v'} R_{l',m}(e^{v'})]

    with the radial eigenfunctions rescaled into the log-radius basis.
    The sum over m runs over every label the input cutoff admits; the
    range actually included is recorded in the result metadata.  Warns if
    grid truncation loses more than 1e-8 of the trace.
    """
    if grid is None:
        grid = default_vbar_grid()
    v = grid.points
    r = np.exp(v)
    labels = rho_s.labels
    by_m = {}
    for idx, lab in enumerate(labels):
        by_m.setdefault(lab.n_plus - lab.n_minus, []).append(idx)

    kernel = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    included = []
    for two_m in sorted(by_m):
        idx = by_m[two_m]
        block = rho_s.entries[np.ix_(idx, idx)]
        if np.abs(block).max() == 0.0:
            continue
        included.append(two_m / 2.0)
        basis = np.array([np.exp(v) * radial_wavefunction(labels[i], r)
                          for i in idx])
        kernel += basis.T @ block @ basis

    trace = float(np.trace(kernel).real) * grid.spacing
    loss = abs(trace - 1.0)
    if loss > 1e-8:
        warnings.warn(
            f"radial grid truncation lost {loss:.2e} of the trace "
            f"(measured {trace})", TruncationWarning, stacklevel=2)
    out = DensityMatrixV(grid, kernel, trace_tol=max(1e-8, 10.0 * loss))
    out.meta.update({"m_values": included, "measured_trace": trace})
    return out


def end_to_end(rho: FockDensityMatrix, gamma_grid: Grid1D, delta_grid: Grid1D,
               vbar_grid: Grid1D | None = None) -> WignerGrid:
    """Full chain: Fock basis -> angular-momentum basis -> radial kernel
    -> Wigner function, with the tolerances met along the way recorded in
    the output metadata."""
    rho_s = fock_to_schwinger(rho)
    rho_v = radial_reduce(rho_s, vbar_grid)
    w = wigner_from_density(rho_v, gamma_grid, delta_grid)
    w.meta.update({
        "pipeline": "fock",
        "fock_n_max": rho.n_max,
        "m_values": rho_v.meta.get("m_values", []),
        "radial_trace": rho_v.meta.get("measured_trace"),
    })
    return w


_ENTRY_INT_FIELDS = ("nx", "ny", "nxp", "nyp")


def load_fock_density(source) -> FockDensityMatrix:
    """Parse the JSON interchange format for Fock density matrices.

    Schema: ``{"n_max": N, "entries": [{"nx", "ny", "nxp", "nyp", "re",
    "im"}, ...]}``; omitted entries are zero.  Hermiticity is validated
    by :class:`FockDensityMatrix`, not assumed: the mirror of every stored
    entry must be stored too (or both zero), and the worst violating pair
    is named in the error.

    ``source`` may be a path, an open file object or an already-parsed
    dictionary.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)

    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    if "n_max" not in doc:
        raise SchemaError("missing required field 'n_max'")
    n_max = doc["n_max"]
    if not isinstance(n_max, int) or isinstance(n_max, bool) \
            or not (0 <= n_max <= MAX_FOCK_CUTOFF):
        raise SchemaError(
            f"'n_max' must be an integer in [0, {MAX_FOCK_CUTOFF}], got {n_max!r}")
    raw = doc.get("entries", [])
    if not isinstance(raw, list):
        raise SchemaError("'entries' must be a list")

    dim = (n_max + 1) ** 2
    entries = np.zeros((dim, dim), dtype=complex)
    seen = {}
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SchemaError(f"entries[{i}]: expected an object, got {type(item).__name__}")
        for f in _ENTRY_INT_FIELDS:
            if f not in item:
                raise SchemaError(f"entries[{i}]: missing field '{f}'")
            val = item[f]
            if not isinstance(val, int) or isinstance(val, bool):
                raise SchemaError(f"entries[{i}]: field '{f}' must be an integer")
            if not 0 <= val <= n_max:
                raise SchemaError(
                    f"entries[{i}]: field '{f}' = {val} outside [0, {n_max}]")
        for f in ("re", "im"):
            if f not in item:
                raise SchemaError(f"entries[{i}]: missing field '{f}'")
            if not isinstance(item[f], (int, float)) or isinstance(item[f], bool):
                raise SchemaError(f"entries[{i}]: field '{f}' must be a number")
        key = (item["nx"], item["ny"], item["nxp"], item["nyp"])
        if key in seen:
            raise SchemaError(
                f"entries[{i}]: duplicate of entries[{seen[key]}] for "
                f"(nx,ny;nx',ny') = {key}")
        seen[key] = i
        row = item["nx"] * (n_max + 1) + item["ny"]
        col = item["nxp"] * (n_max + 1) + item["nyp"]
        entries[row, col] = item["re"] + 1j * item["im"]
    return FockDensityMatrix(n_max, entries)
