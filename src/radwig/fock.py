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

:func:`radial_reduce` is that chain up to the kernel, on the grid it is
given, and :func:`end_to_end` adds the Wigner function.  A
:class:`SchwingerDensityMatrix` stores only the equal-m blocks, since
the radial Wigner function cannot see the rest; a Fock matrix is
rotated into it one such block at a time, from the half-rotated rows,
and both then take one path to the kernel.

:func:`end_to_end` reads its log-radius grid as a window and a finest
spacing h_0, and samples the kernel on every j-th point of it, for the
coarsest stride whose aliasing images stay clear of W's band: a cutoff
n_max holds dilation momentum up to about 2 n_max + 1, and the images
must clear it by a margin of 26 + 4.5 sqrt(n_max) (see
:func:`_kernel_grid`).  W moves by <= 1e-14 max|W| from the h_0 kernel
where the window holds its anti-diagonals, and the sampled grid is
recorded as ``meta["radial_grid"]``.

The sector blocks of every total come from one float recursion (see
:func:`_sector_blocks`), within 2.8e-16 of the exact ones, so the whole
chain holds to rounding at every cutoff up to ``MAX_FOCK_CUTOFF``.
"""

import json
import math
import numbers
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import DomainError, SchemaError, ValidationError
from .grids import Grid1D
from .special import MAX_DEGREE
from .states import SchwingerLabel, _radial_rows, default_vbar_grid
from .wigner import (_STRIP, DensityMatrixV, WignerGrid, _band_reach,
                     _DensityMatrix, _flush_tiny, _gamma_nodes, _stored,
                     _validate_blocks, wigner_from_density)

__all__ = [
    "FockDensityMatrix", "SchwingerDensityMatrix", "radial_reduce",
    "end_to_end", "sector_isometry", "load_fock_density", "MAX_FOCK_CUTOFF",
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

    def _angular(self):
        """Its rotated equal-m blocks as a :class:`SchwingerDensityMatrix`,
        and their residual as the kernel's ``rotation_residual``."""
        left, sectors = _rotated_rows(self)
        rotated = SchwingerDensityMatrix(self.n_max, {
            two_m: _rotated_block(left, sectors, self.n_max, two_m)
            for two_m in range(-2 * self.n_max, 2 * self.n_max + 1)})
        return rotated, {
            "rotation_residual": rotated.meta["hermiticity_residual"]}


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


def _schwinger_flat(total: int, n_plus: int) -> int:
    return total * (total + 1) // 2 + n_plus


def _block_size(n_max: int, two_m: int) -> int:
    """Levels k = l - |m| = 0..size-1 of the signed 2m within 2l <= 2 n_max."""
    return (2 * n_max - abs(two_m)) // 2 + 1


class SchwingerDensityMatrix:
    """Angular-momentum density matrix, stored as its equal-m blocks C_m.

    ``blocks`` maps each signed 2m, an integer in [-2 n_max, 2 n_max], to
    C_m over k = l - |m| = 0..(2 n_max - |2m|) // 2: entry [k, k'] is
    <l, m| rho |l', m>.  An omitted m is zero.  The m != m' coherences are
    not stored, because the radial Wigner function cannot see them, so a
    full matrix whose only Hermiticity error lies in one is not rejected.
    The blocks are stored, float64 when real and complex128 otherwise, and
    validated in the order 2m = 0, -1, +1, -2, ..., by one call of the one
    validator: each is finite and Hermitian to 1e-10 of the largest entry
    (a violation names both (l, m) labels), and their traces sum to 1
    within 1e-10; the residual goes in ``meta["hermiticity_residual"]``.
    ``n_max`` is an integer in [0, ``special.MAX_DEGREE``], the largest
    cutoff whose radial rows :func:`radial_reduce` can expand.
    """

    def __init__(self, n_max: int, blocks: dict):
        self.n_max = n_max = _check_cutoff(n_max, MAX_DEGREE)
        what = "Schwinger density matrix"
        order = sorted(range(-2 * n_max, 2 * n_max + 1), key=abs)
        if blocks.keys() - set(order):
            raise ValidationError(
                f"{what} block keys {blocks.keys() - set(order)} are not "
                f"integers 2m in [{-2 * n_max}, {2 * n_max}]")
        self.blocks = {
            two_m: _stored(blocks[two_m], _block_size(n_max, two_m),
                           f"{what} block 2m = {two_m}")
            for two_m in order if two_m in blocks}

        def label(row, col):
            # (2m, k) of every row, counted across the blocks in order
            rows = [(two_m, k) for two_m, block in self.blocks.items()
                    for k in range(len(block))]
            (m, k), (mp, kp) = rows[row], rows[col]
            return (f"(l={Fraction(2 * k + abs(m), 2)}, m={Fraction(m, 2)}; "
                    f"l'={Fraction(2 * kp + abs(mp), 2)}, m'={Fraction(mp, 2)})")

        residual, _ = _validate_blocks(list(self.blocks.values()),
                                       label=label, what=what)
        self.meta = {"hermiticity_residual": residual}

    @classmethod
    def pure(cls, label: SchwingerLabel, n_max: int) -> "SchwingerDensityMatrix":
        """|label><label|: one block, with a single unit entry."""
        n_max = _check_cutoff(n_max, MAX_DEGREE)
        if label.n_plus + label.n_minus > 2 * n_max:
            raise DomainError(f"label {label} outside cutoff 2l <= {2 * n_max}")
        two_m = label.n_plus - label.n_minus
        block = np.zeros((_block_size(n_max, two_m),) * 2)
        k = min(label.n_plus, label.n_minus)
        block[k, k] = 1.0
        return cls(n_max, {two_m: block})

    def _angular(self):
        """Itself, and no kernel metadata (see radial_reduce)."""
        return self, {}


def sector_isometry(total: int, n_max: int) -> np.ndarray:
    """Overlap matrix <n_plus, total - n_plus | n_x, n_y> for one sector.

    Rows run over n_plus = 0..total; columns over the cartesian states of
    the sector that fit the square cutoff (n_x from max(0, total - n_max)
    to min(total, n_max)).  With a_x^dag = (A_+^dag + A_-^dag)/sqrt(2) and
    a_y^dag = -i (A_+^dag - A_-^dag)/sqrt(2), column n_x is
    (-i)^{n_y} R_T[:, n_x], with R_T (T = total) the real spin-T/2
    rotation d^{T/2}(pi/2) up to column signs; :func:`_sector_blocks`
    builds it.
    """
    if not 0 <= total <= 2 * n_max:
        raise DomainError(f"total {total} outside the sectors 0..{2 * n_max}")
    return _sector_blocks(n_max, total)[total]


def _sector_blocks(n_max: int, last: int) -> list:
    """The sector blocks B_0..B_last of cutoff ``n_max``, by one float
    recursion over the full real blocks R_T from R_0 = [[1]].

    Adding an x or a y quantum each gives a step to R_{T+1}, weighted by
    sqrt(x) or sqrt(T+1-x); their sum never divides by less than T + 1
    (indices outside R_T read as 0):

        (T+1) sqrt(2) R_{T+1}[p, x]
            = sqrt(x) (sqrt(p) R_T[p-1, x-1] + sqrt(T+1-p) R_T[p, x-1])
            + sqrt(T+1-x) (sqrt(p) R_T[p-1, x] - sqrt(T+1-p) R_T[p, x]).

    Either step alone divides by its weight, and is 2.4e-6 off at
    n_max = 40.  The loop carries 2^{T/2} R_T and scales each block once
    (a rounded sqrt(2) per step shrinks the column norms by 4e-15 at
    T = 60).  The blocks are within 2.8e-16 of the exactly rounded ones
    and orthonormal to 1.1e-15 at every T <= 80.
    """
    root = np.sqrt(np.arange(last + 1))
    blocks, r = [np.ones((1, 1), dtype=complex)], np.ones((1, 1))
    for t in range(1, last + 1):
        pad = np.zeros((t + 2, t + 2))          # pad[p + 1, x + 1] = r[p, x]
        pad[1:-1, 1:-1] = r
        up, down = root[:t + 1, None], root[t::-1, None]
        r = (root[:t + 1] * (up * pad[:-1, :-1] + down * pad[1:, :-1])
             + root[t::-1] * (up * pad[:-1, 1:] - down * pad[1:, 1:])) / t
        nx = np.arange(max(0, t - n_max), min(t, n_max) + 1)
        phase = np.array([1, -1j, -1, 1j])[(t - nx) % 4]       # (-i)^{n_y}
        scale = math.ldexp(math.sqrt(0.5) if t % 2 else 1.0, -(t // 2))
        blocks.append(r[:, nx] * (scale * phase))
    return blocks


def _sector_slice(total: int, n_max: int) -> slice:
    """The Fock indices of sector ``total``: (n_x, total - n_x) sits at
    n_x n_max + total, so they are one basic slice."""
    return slice(max(0, total - n_max) * n_max + total,
                 min(total, n_max) * n_max + total + 1, max(n_max, 1))


def _rotated_rows(rho: FockDensityMatrix):
    """B H, the row half of the rotation, with the sector blocks B_T.

    B_T acts on the row strip of sector T of the Hermitian part
    H = (rho + rho^dag) / 2, formed from two strided views of the Fock
    matrix (:func:`_sector_slice`), so neither a dense map nor a permuted
    copy is formed.  Rows are in Schwinger order, columns in Fock order.
    """
    n_max, e = rho.n_max, rho.entries
    blocks = _sector_blocks(n_max, 2 * n_max)
    left = np.empty((_schwinger_flat(len(blocks), 0), len(e)), dtype=complex)
    for t, b in enumerate(blocks):
        sector = _sector_slice(t, n_max)
        s = _schwinger_flat(t, 0)
        np.matmul(b, 0.5 * (e[sector] + e[:, sector].conj().T),
                  out=left[s:s + len(b)])
    return left, blocks


def _rotated_block(left, blocks, n_max, two_m) -> np.ndarray:
    """C_m = (B H B^dag)[m, m] from the rows B H: column k is (B H)[m] on
    the Fock columns of sector T = |2m| + 2k, times conj(B_T[n_plus]), with
    n_plus = k + max(2m, 0) the row of the label (2m, k) in its sector."""
    labels = [(abs(two_m) + 2 * k, k + max(two_m, 0))
              for k in range(_block_size(n_max, two_m))]
    rows = left[[_schwinger_flat(t, n_plus) for t, n_plus in labels]]
    out = np.empty((len(labels), len(labels)), dtype=complex)
    for j, (t, n_plus) in enumerate(labels):
        out[:, j] = rows[:, _sector_slice(t, n_max)] @ blocks[t][n_plus].conj()
    return out


def radial_reduce(rho: FockDensityMatrix | SchwingerDensityMatrix,
                  grid: Grid1D | None = None) -> DensityMatrixV:
    """Trace out the angle and sample the radial kernel on a log-radius grid.

    Angular orthogonality removes every m != m' coherence, so

        rho_v(v, v') = sum_m sum_{l, l'} C_{lm;l'm}
                       [e^v R_{l,m}(e^v)] [e^{v'} R_{l',m}(e^{v'})]

    with the radial eigenfunctions rescaled into the log-radius basis.
    R_{l,m} depends on m only through alpha = |2m|, so m and -m share
    their rows and enter through one block C_{+m} + C_{-m} per alpha,
    each C_m read as its exactly Hermitian part (C_m + C_m^dag) / 2.

    Both inputs take one path, through the equal-m blocks C_m of a
    :class:`SchwingerDensityMatrix`, validated by its constructor; it
    stores no m != m' coherence, since the angle trace removes them.  A
    :class:`FockDensityMatrix` is first rotated into that type by the
    sector blocks B_T of :func:`sector_isometry`, built by one float
    recursion to within 2.8e-16 of the exact blocks, but only where the
    angle trace keeps it: each column of C_m = (B H)[m] B[m]^dag is
    contracted from the rows B H of the Hermitian part H of the input, on
    the Fock columns of its label's sector only.  The rows are freed
    before the radial products, so the full Schwinger matrix B H B^dag
    (57 MB at n_max = 30) is never formed.  C_{-m} and C_{+m} come from
    products of one shape, so a real input's imaginary parts cancel
    between them.  The rotated blocks' Hermiticity residual, the
    rotation's own rounding, goes in ``meta["rotation_residual"]``.

    The basis rows of every alpha are exponentiated from the log-domain
    producer straight into one real matrix Phi (N rows x grid points;
    N = 961 at n_max = 30, against 1891 labels), its tails zeroed below
    sqrt(tiny) so that no product meets a subnormal (see
    :func:`radwig.wigner._flush_tiny`: the kernel moves by under 6e-149),
    and with
    C = blockdiag(C_{+m} + C_{-m}) the kernel is Phi^T (Re C) Phi
    + i Phi^T (Im C) Phi: two real products, through one real buffer
    that holds a column strip of (Re C) Phi and then of (Im C) Phi.
    When no block has a nonzero imaginary part (a real Fock input, a
    level mixture, a pure label) the second product is skipped and the
    kernel is float64.
    The first product is symmetric and the second antisymmetric, so each
    forms only the upper triangle, one column strip at a time, and the
    lower one is mirrored from it.  The sum over m runs over every stored
    block, skipping all-zero ones; the signed m of every block above
    rounding, ascending, goes in ``meta["m_values"]``.
    The kernel keeps its samples: :class:`radwig.wigner.DensityMatrixV`
    records their trace as ``meta["radial_trace"]`` and raises if the
    grid's window loses more than 1e-8 of it.
    """
    rho, meta = rho._angular()
    blocks, two_ms = _equal_m_blocks(rho)

    if grid is None:
        grid = default_vbar_grid()
    v = grid.points
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
    out = DensityMatrixV(grid, kernel)
    out.meta["m_values"] = [two_m / 2.0 for two_m in sorted(two_ms)]
    out.meta.update(meta)
    return out


def _equal_m_blocks(rho: SchwingerDensityMatrix):
    """The blocks the angle trace keeps: every stored C_m, read as its
    Hermitian part and summed with -m's.  Returns (alpha, C_{+m} + C_{-m})
    for every alpha = |2m| with a nonzero block, and the signed 2m of each
    C_m above the rotation's rounding, (2 n_max + 1) eps times the largest
    entry."""
    blocks, sizes = [], {}
    for alpha in range(2 * rho.n_max + 1):
        parts = []
        for two_m in sorted(rho.blocks.keys() & {-alpha, alpha}):
            part = rho.blocks[two_m]
            part = 0.5 * (part + part.conj().T)
            size = np.abs(part).max()
            if size != 0.0:
                sizes[two_m] = size
                parts.append(part)
        if parts:
            blocks.append((alpha, sum(parts)))
    floor = (2 * rho.n_max + 1) * np.finfo(float).eps * max(sizes.values())
    return blocks, [two_m for two_m, size in sizes.items() if size > floor]


def _kernel_grid(window: Grid1D, n_max: int, gamma_grid: Grid1D,
                 delta_grid: Grid1D) -> Grid1D:
    """Every j-th point of ``window`` from its left edge, for the largest
    stride j that keeps W of a cutoff-``n_max`` input at rounding.

    - Alignment: j divides every node index s_i = 2 (gamma_i - v_0) / h_0
      of :func:`radwig.wigner._gamma_nodes` (which raises on a gamma off
      the window's nodes), so every gamma stays on a half-integer node.
    - Window: the sub-grid's last point still covers the gamma range.
    - Band: a level l holds dilation momentum up to about B = 2l + 1 <=
      2 n_max + 1, and sampling at h = j h_0 adds W's images at
      delta +- pi / h, so pi / h - max|delta| >= 2 n_max + 1 + margin,
      and pi / (2h) >= max|delta| (the density route's own band limit).

    The margin, 26 + 4.5 sqrt(n_max), is how far past B the tail of W_l
    takes to reach rounding; :func:`radwig.wigner._band_reach` gives the
    whole reach and its derivation, and the closed-form ladder takes its
    step from the same rule.  On the default window and the CLI's axes that
    is h = 0.04 up to n_max = 15 and h = 0.02 up to 40, where W moves by
    <= 1e-14 max|W| from its h_0 = 0.01 value wherever the window holds
    W's anti-diagonals (gamma >= -3.8).  Deeper, the window's cut of
    them, up to 4e-5 against the closed form at h_0, dominates, and the
    stride moves W by up to 4e-6 of max|W| there.  The kernel's trace, a
    rectangle sum, moves by its left-edge term (j - 1) h_0 rho(v_0, v_0)
    / 2, up to 1.7e-10 on the default window at j = 4.
    """
    s = _gamma_nodes(gamma_grid, window)
    delta_max = float(np.abs(delta_grid.points).max())
    reach = max(2.0 * delta_max, _band_reach(n_max, delta_max))
    common = int(np.gcd.reduce(s))
    last = window.n_points - 1
    coarsest = min(last, int(np.pi / (window.spacing * reach)))
    stride = next(j for j in range(max(1, coarsest), 0, -1)
                  if common % j == 0 and 2 * (last // j * j) >= s.max())
    end = last // stride * stride
    return Grid1D(window.min, float(window.points[end]), end // stride + 1)


def end_to_end(rho: FockDensityMatrix, gamma_grid: Grid1D, delta_grid: Grid1D,
               vbar_grid: Grid1D | None = None) -> WignerGrid:
    """Full chain: the radial kernel of :func:`radial_reduce`, then its
    Wigner function on (``gamma_grid``, ``delta_grid``).

    ``vbar_grid`` (default :func:`radwig.states.default_vbar_grid`) is the
    window and the finest spacing h_0 allowed.  The kernel is sampled on
    every j-th point of it, from its left edge, for the largest stride j
    whose images stay clear of W's band (see :func:`_kernel_grid`: j
    keeps every gamma on a node, the sub-grid covers the gamma range,
    and pi / (j h_0) - max|delta| >= 2 n_max + 1 + 26 + 4.5 sqrt(n_max)).
    j = 1 is the window itself.  On the default window and axes, W moves
    by <= 1e-14 max|W| from the j = 1 kernel (gamma >= -3.8; see
    :func:`_kernel_grid` for deeper gamma).  W's metadata holds the
    kernel's (``m_values``, ``rotation_residual``, the measured
    ``radial_trace`` and the sampled ``radial_grid`` [min, max,
    n_points], forwarded by :func:`radwig.wigner.wigner_from_density`),
    plus ``pipeline`` and ``fock_n_max``.
    """
    if vbar_grid is None:
        vbar_grid = default_vbar_grid()
    grid = _kernel_grid(vbar_grid, rho.n_max, gamma_grid, delta_grid)
    w = wigner_from_density(radial_reduce(rho, grid), gamma_grid, delta_grid)
    w.meta.update({"pipeline": "fock", "fock_n_max": rho.n_max})
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
