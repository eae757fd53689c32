"""From a cartesian 2D-oscillator Fock density matrix to the radial sector.

The chain is: rotate the (n_x, n_y) Fock basis into the circular-mode
basis labelled by angular momentum (a beam-splitter-type unitary, block
diagonal in the total quantum number, applied one sector block at a
time), trace out the angle (which kills every coherence between
different angular momenta m), and accumulate the radial kernel on a
log-radius grid with real matrix products over the stacked radial
basis of every |m| (m and -m share their radial eigenfunctions, so
their two blocks are summed first), whose rows come from the one
radial-eigenfunction producer of :mod:`radwig.states`.  The result
feeds straight into :func:`radwig.wigner.wigner_from_density`.

The sector blocks are built from exact integer coefficients, so the
whole chain holds to rounding at every cutoff up to ``MAX_FOCK_CUTOFF``.
"""

import json
import math
import numbers
import warnings
from itertools import accumulate, chain

import numpy as np

from .errors import (DomainError, SchemaError, TruncationWarning,
                     ValidationError)
from .grids import Grid1D
from .special import MAX_DEGREE, log_factorial
from .states import SchwingerLabel, _radial_rows, default_vbar_grid
from .wigner import (_STRIP, DensityMatrixV, WignerGrid, _DensityMatrix,
                     _flush_tiny, wigner_from_density)

__all__ = [
    "FockDensityMatrix", "SchwingerDensityMatrix", "fock_to_schwinger",
    "radial_reduce", "end_to_end", "sector_isometry", "load_fock_density",
    "MAX_FOCK_CUTOFF",
]

MAX_FOCK_CUTOFF = 40


class FockDensityMatrix(_DensityMatrix):
    """Density matrix over the square cartesian Fock cutoff n_x, n_y <= n_max.

    Entries are stored as a dense matrix over the flattened index
    ``nx * (n_max + 1) + ny``, with ``n_max`` an integer in
    [0, ``MAX_FOCK_CUTOFF``].  Hermiticity (the worst violating pair
    named by its occupations) and unit trace are validated at
    construction; positivity via :meth:`min_eigenvalue`.
    """

    def __init__(self, n_max: int, entries):
        n_max = _check_cutoff(n_max, MAX_FOCK_CUTOFF)
        side = n_max + 1

        def label(row, col):
            return "(nx={}, ny={}; nx'={}, ny'={})".format(
                *divmod(row, side), *divmod(col, side))

        super().__init__(entries, side ** 2, label=label,
                         what="Fock density matrix")
        self.n_max = n_max

    @classmethod
    def from_pure(cls, n_max: int, amplitudes: dict) -> "FockDensityMatrix":
        """|phi><phi| from a {(nx, ny): amplitude} dictionary; all-zero
        amplitudes raise ValidationError."""
        dim = (_check_cutoff(n_max, MAX_FOCK_CUTOFF) + 1) ** 2
        vec = np.zeros(dim, dtype=complex)
        for (nx, ny), a in amplitudes.items():
            vec[_fock_index(n_max, nx, ny)] = a
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValidationError("all Fock amplitudes are zero")
        vec = vec / norm
        return cls(n_max, np.outer(vec, vec.conj()))


def _check_cutoff(n_max, limit: int) -> int:
    """``n_max`` as an int, checked before anything of its size exists."""
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral) \
            or not 0 <= n_max <= limit:
        raise DomainError(
            f"n_max must be an integer in [0, {limit}], got {n_max!r}")
    return int(n_max)


def _fock_index(n_max: int, nx: int, ny: int) -> int:
    if not (0 <= nx <= n_max and 0 <= ny <= n_max):
        raise DomainError(f"occupation ({nx}, {ny}) outside cutoff {n_max}")
    return nx * (n_max + 1) + ny


def _schwinger_index(n_max: int, label: SchwingerLabel) -> int:
    total = label.n_plus + label.n_minus
    if total > 2 * n_max:
        raise DomainError(f"label {label} outside cutoff 2l <= {2 * n_max}")
    return _schwinger_flat(total, label.n_plus)


def _schwinger_dim(n_max: int) -> int:
    return (2 * n_max + 1) * (2 * n_max + 2) // 2


def _schwinger_flat(total: int, n_plus: int) -> int:
    return total * (total + 1) // 2 + n_plus


class SchwingerDensityMatrix(_DensityMatrix):
    """Density matrix over angular-momentum labels (l, m).

    Labels are stored through the circular occupations (n_plus, n_minus)
    with n_plus + n_minus <= 2 n_max, flattened sector by sector; the
    exact half-integer (l, m) of each index is available via ``labels``.
    ``n_max`` is an integer in [0, ``special.MAX_DEGREE``], the largest
    cutoff whose radial rows :func:`radial_reduce` can expand.
    """

    def __init__(self, n_max: int, entries):
        n_max = _check_cutoff(n_max, MAX_DEGREE)
        super().__init__(entries, _schwinger_dim(n_max),
                         what="Schwinger density matrix")
        self.n_max = n_max

    @property
    def labels(self) -> list:
        out = []
        for total in range(2 * self.n_max + 1):
            for n_plus in range(total + 1):
                out.append(SchwingerLabel.from_occupations(n_plus, total - n_plus))
        return out

    def index(self, label: SchwingerLabel) -> int:
        return _schwinger_index(self.n_max, label)

    def coefficient(self, bra: SchwingerLabel, ket: SchwingerLabel) -> complex:
        """C_{lm;l'm'} = <bra| rho |ket>."""
        return complex(self.entries[self.index(bra), self.index(ket)])

    @classmethod
    def pure(cls, label: SchwingerLabel, n_max: int) -> "SchwingerDensityMatrix":
        dim = _schwinger_dim(_check_cutoff(n_max, MAX_DEGREE))
        vec = np.zeros(dim, dtype=complex)
        vec[_schwinger_index(n_max, label)] = 1.0
        return cls(n_max, np.outer(vec, vec.conj()))


def sector_isometry(total: int, n_max: int) -> np.ndarray:
    """Overlap matrix <n_plus, total - n_plus | n_x, n_y> for one sector.

    Rows run over n_plus = 0..total; columns over the cartesian states of
    the sector that fit the square cutoff (n_x from max(0, total - n_max)
    to min(total, n_max)).  Obtained by expanding the cartesian creation
    monomial in circular modes:  a_x^dag = (A_+^dag + A_-^dag)/sqrt(2),
    a_y^dag = -i (A_+^dag - A_-^dag)/sqrt(2),  so the coefficient of
    u^{n_+} w^{n_-} in P_{n_x, n_y} = (u + w)^{n_x} (u - w)^{n_y} carries
    the whole combinatorial content.

    The coefficients are integers past 2^53 at large totals, where their
    signs cancel, so they are kept exact in Python ints and rounded once.
    Column to column, P_{n_x+1, n_y-1} = P_{n_x, n_y} (u + w) / (u - w):
    one exact synthetic division and one multiplication.  Columns are
    orthonormal to ~1e-14 at every cutoff up to ``MAX_FOCK_CUTOFF``.
    """
    if not 0 <= total <= 2 * n_max:
        raise DomainError(f"total {total} outside the sectors 0..{2 * n_max}")
    nx0 = max(0, total - n_max)
    nx = np.arange(nx0, min(total, n_max) + 1)
    ny0 = total - nx0
    # coefficient of u^p (w = 1) in (1 + u)^nx0 (u - 1)^ny0
    poly = [sum(math.comb(nx0, j) * math.comb(ny0, p - j) * (-1) ** (ny0 - p + j)
                for j in range(max(0, p - ny0), min(nx0, p) + 1))
            for p in range(total + 1)]
    cols = [poly]
    for _ in nx[1:]:
        # q = P / (u - 1) has q_i = -S_i, with S the prefix sums of P;
        # then (u + 1) q has coefficient q_{i-1} + q_i
        sums = list(accumulate(poly))
        poly = [-(a + b) for a, b in zip([0] + sums[:-1], sums)]
        cols.append(poly)
    conv = np.array(cols, dtype=float).T
    lf = np.array([log_factorial(k) for k in range(total + 1)])
    ny = total - nx
    log_norm = (0.5 * (lf + lf[::-1]))[:, None] \
        - 0.5 * (lf[nx] + lf[ny]) \
        - total * 0.5 * np.log(2.0)
    phase = np.array([(-1j) ** int(k) for k in ny])
    return phase * conv * np.exp(log_norm)


def fock_to_schwinger(rho: FockDensityMatrix) -> SchwingerDensityMatrix:
    """Rotate a cartesian Fock density matrix into angular-momentum labels.

    The change of basis B is block diagonal in the total quantum number T,
    with the blocks B_T of :func:`sector_isometry`.  The Hermitian part
    H = (rho + rho^dag) / 2 of the Fock matrix is gathered into
    total-sorted order (the Schwinger labels are stored in that order),
    one sector's rows at a time; B_T acts on the row strip of sector T,
    then B_T^dag on its column strip, so no dense map is formed.
    Coherences between different totals keep their structure.  Trace and
    spectrum are preserved because every B_T is an isometry.  B H B^dag is
    stored as computed, so its ``meta["hermiticity_residual"]`` measures
    the rotation's own rounding; :func:`radial_reduce` reads the Hermitian
    part of each block.
    """
    n_max = rho.n_max
    blocks = [sector_isometry(t, n_max) for t in range(2 * n_max + 1)]
    order = np.array([nx * (n_max + 1) + t - nx for t in range(2 * n_max + 1)
                      for nx in range(max(0, t - n_max), min(t, n_max) + 1)])
    f_off = np.cumsum([0] + [b.shape[1] for b in blocks])
    s_off = np.cumsum([0] + [b.shape[0] for b in blocks])
    dim_s = _schwinger_dim(n_max)

    left = np.empty((dim_s, order.size), dtype=complex)      # B H
    for t, b in enumerate(blocks):
        sector = order[f_off[t]:f_off[t + 1]]
        rows = 0.5 * (rho.entries[np.ix_(sector, order)]
                      + rho.entries[np.ix_(order, sector)].conj().T)
        np.matmul(b, rows, out=left[s_off[t]:s_off[t + 1]])
    entries = np.empty((dim_s, dim_s), dtype=complex)        # B H B^dag
    for t, b in enumerate(blocks):
        entries[:, s_off[t]:s_off[t + 1]] = \
            left[:, f_off[t]:f_off[t + 1]] @ b.conj().T
    del left
    return SchwingerDensityMatrix(n_max, entries)


def radial_reduce(rho_s: SchwingerDensityMatrix,
                  grid: Grid1D | None = None) -> DensityMatrixV:
    """Trace out the angle and sample the radial kernel on a log-radius grid.

    Angular orthogonality removes every m != m' coherence, so

        rho_v(v, v') = sum_m sum_{l, l'} C_{lm;l'm}
                       [e^v R_{l,m}(e^v)] [e^{v'} R_{l',m}(e^{v'})]

    with the radial eigenfunctions rescaled into the log-radius basis.
    R_{l,m} depends on m only through alpha = |2m|, so m and -m share
    their rows and enter through one block C_{+m} + C_{-m} per alpha,
    each C_m read as its exactly Hermitian part (C_m + C_m^dag) / 2.
    The basis rows of every alpha are exponentiated from the log-domain
    producer straight into one real matrix Phi (N rows x grid points;
    N = 961 at n_max = 30, against 1891 labels), its tails zeroed below
    sqrt(tiny) so that no product meets a subnormal (see
    :func:`radwig.wigner._flush_tiny`: the kernel moves by under 6e-149),
    and with
    C = blockdiag(C_{+m} + C_{-m}) the kernel is Phi^T (Re C) Phi
    + i Phi^T (Im C) Phi: two real products, through one real buffer
    that holds a column strip of (Re C) Phi and then of (Im C) Phi.
    When no block has a nonzero imaginary part (a level mixture, a pure
    label) the second product is skipped and the kernel is float64; a
    rotated real Fock input keeps rounding-level imaginary parts and
    stays complex128.
    The first product is symmetric and the second antisymmetric, so each
    forms only the upper triangle, one column strip at a time, and the
    lower one is mirrored from it.  The sum over m runs over every label
    the input cutoff admits, skipping all-zero blocks; the signed m of
    every nonzero block, ascending, is recorded as ``meta["m_values"]``.
    Warns if grid truncation loses more than 1e-8 of the trace.
    """
    if grid is None:
        grid = default_vbar_grid()
    v = grid.points
    n_max = rho_s.n_max
    blocks, two_ms = [], []
    for alpha in range(2 * n_max + 1):
        # labels of m = +-alpha/2 in stored order: k = l - |m| at total
        # 2k + alpha; both signs share the radial rows of alpha
        parts = []
        for two_m in sorted({-alpha, alpha}):
            idx = [_schwinger_flat(alpha + 2 * k, k + max(two_m, 0))
                   for k in range((2 * n_max - alpha) // 2 + 1)]
            part = rho_s.entries[np.ix_(idx, idx)]
            part = 0.5 * (part + part.conj().T)
            if np.abs(part).max() != 0.0:
                two_ms.append(two_m)
                parts.append(part)
        if parts:
            blocks.append((alpha, sum(parts)))

    g = grid.n_points
    phi = np.empty((sum(len(block) for _, block in blocks), g))
    rows = chain.from_iterable(_radial_rows(alpha, len(block), v)
                               for alpha, block in blocks)
    for row, (cur, offset) in zip(phi, rows):
        with np.errstate(divide="ignore"):
            np.exp(offset + np.log(np.abs(cur)), out=row)
        row *= np.sign(cur)
    _flush_tiny(phi)

    imaginary = any(block.imag.any() for _, block in blocks)
    kernel = np.empty((g, g), dtype=complex if imaginary else float)
    halves = [(kernel.real, np.real)]
    if imaginary:
        halves.append((kernel.imag, np.imag))
    y = np.empty((len(phi), _STRIP))
    for target, part in halves:
        coeffs = [np.ascontiguousarray(part(block)) for _, block in blocks]
        for a in range(0, g, _STRIP):
            cols = slice(a, min(a + _STRIP, g))
            ys = y[:, :cols.stop - a]
            start = 0
            for c in coeffs:
                np.matmul(c, phi[start:start + len(c), cols],
                          out=ys[start:start + len(c)])
                start += len(c)
            # rows up to the diagonal block only: the product is symmetric
            # (real part) or antisymmetric (imaginary part)
            target[:cols.stop, cols] = phi[:, :cols.stop].T @ ys
    del phi, y
    for a in range(0, g, _STRIP):
        kernel[a + _STRIP:, a:a + _STRIP] = \
            kernel[a:a + _STRIP, a + _STRIP:].conj().T

    trace = float(np.trace(kernel).real) * grid.spacing
    loss = abs(trace - 1.0)
    if loss > 1e-8:
        warnings.warn(
            f"radial grid truncation lost {loss:.2e} of the trace "
            f"(measured {trace})", TruncationWarning, stacklevel=2)
    out = DensityMatrixV(grid, kernel, trace_tol=max(1e-8, 10.0 * loss))
    out.meta["m_values"] = [two_m / 2.0 for two_m in sorted(two_ms)]
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
        "radial_trace": rho_v.trace,
    })
    return w


_ENTRY_INT_FIELDS = ("nx", "ny", "nxp", "nyp")      # occupations, range-checked
# entry field -> (accepted types, their name)
_ENTRY_FIELDS = dict.fromkeys(_ENTRY_INT_FIELDS, (int, "an integer")) \
    | dict.fromkeys(("re", "im"), ((int, float), "a number"))


def load_fock_density(path) -> FockDensityMatrix:
    """Read a Fock density matrix from the JSON file at ``path``.

    Schema: ``{"n_max": N, "entries": [{"nx", "ny", "nxp", "nyp", "re",
    "im"}, ...]}``; omitted entries are zero.  A file that breaks the
    schema raises SchemaError naming the field.  Hermiticity is validated
    by :class:`FockDensityMatrix`, not assumed: the mirror of every stored
    entry must be stored too (or both zero), and the worst violating pair
    is named in the error.
    """
    with open(path, "r", encoding="utf-8") as fh:
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
        for f, (kinds, noun) in _ENTRY_FIELDS.items():
            if f not in item:
                raise SchemaError(f"entries[{i}]: missing field '{f}'")
            val = item[f]
            if not isinstance(val, kinds) or isinstance(val, bool):
                raise SchemaError(f"entries[{i}]: field '{f}' must be {noun}")
            if f in _ENTRY_INT_FIELDS and not 0 <= val <= n_max:
                raise SchemaError(
                    f"entries[{i}]: field '{f}' = {val} outside [0, {n_max}]")
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
