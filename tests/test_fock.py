import json
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import radwig.fock
import radwig.wigner
from radwig import (DomainError, FockDensityMatrix, Grid1D,
                    GridAlignmentError, SchemaError, SchwingerDensityMatrix,
                    SchwingerLabel, TruncationWarning, ValidationError,
                    default_vbar_grid, end_to_end, load_fock_density,
                    radial_reduce, radial_wavefunction, sector_isometry,
                    vbar_schwinger_l0, wigner_from_density, wigner_l0_grid)
from radwig.states import _radial_rows
from radwig.wigner import DensityMatrixV

from reference import (dense_u_rotation, fock_to_schwinger,
                       per_block_radial_kernel, schwinger_index, scipy_psi,
                       sector_isometry_exact, wigner_bessel_sum,
                       wigner_two_sided)

GAMMA = Grid1D(-3.0, 2.0, 126)
DELTA = Grid1D(-4.0, 4.0, 81)


def fock_vacuum(n_max=1):
    return FockDensityMatrix.from_pure(n_max, {(0, 0): 1.0})


# ------------------------------------------------------ basis rotation

def test_one_quantum_sector_explicit_unitary():
    # a_x^dag = (A+^dag + A-^dag)/sqrt2, a_y^dag = -i(A+^dag - A-^dag)/sqrt2:
    # rows n_plus = 0, 1; columns n_x = 0 (one y quantum), 1 (one x quantum)
    expected = np.array([[1.0j, 1.0], [-1.0j, 1.0]]) / np.sqrt(2.0)
    got = sector_isometry(1, 1)
    assert np.abs(got - expected).max() < 1e-15


def test_sector_isometry_columns_orthonormal():
    for n_max in (3, 10, 40):
        for total in range(2 * n_max + 1):
            u = sector_isometry(total, n_max)
            gram = u.conj().T @ u
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 2e-14


@pytest.mark.parametrize("n_max", [0, 1, 3, 10, 40])
def test_sector_isometry_matches_exact_integer_blocks(n_max):
    # the float recursion against the exact-integer expansion, at every total
    for total in range(2 * n_max + 1):
        got = sector_isometry(total, n_max)
        assert np.abs(got - sector_isometry_exact(total, n_max)).max() < 2e-14


def test_sector_isometry_rejects_total_outside_cutoff():
    for total in (-1, 5):
        with pytest.raises(DomainError, match="outside the sectors"):
            sector_isometry(total, 2)


def dense_state(n_max, seed, rank=3, real=False):
    """Seeded low-rank mixed state with every entry nonzero."""
    rng = np.random.default_rng(seed)
    dim = (n_max + 1) ** 2
    nx, ny = np.divmod(np.arange(dim), n_max + 1)
    vecs = rng.normal(size=(dim, rank))
    if not real:
        vecs = vecs + 1j * rng.normal(size=(dim, rank))
    vecs *= np.exp(-(nx + ny) / (0.5 * n_max))[:, None]
    rho = (vecs * rng.dirichlet(np.ones(rank))) @ vecs.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return FockDensityMatrix(n_max, rho / np.trace(rho).real)


def test_every_density_type_records_its_own_residual():
    dense = dense_state(3, seed=17)
    skew = np.zeros_like(dense.entries)
    skew[0, 1] = 1e-13j                     # inside the 1e-10 tolerance
    rho_f = FockDensityMatrix(3, dense.entries + skew)
    rho_v = radial_reduce(rho_f)
    assert rho_f.meta["hermiticity_residual"] == \
        pytest.approx(1e-13, rel=1e-3)
    # each stage measures its own entries: the rotation acts on the Fock
    # input's Hermitian part, so the rotated blocks record only the
    # rotation's rounding asymmetry, not the 1e-13 planted in the input
    assert 0.0 < rho_v.meta["rotation_residual"] < 1e-15
    assert rho_v.meta["hermiticity_residual"] <= 1e-10
    assert rho_f.trace == pytest.approx(1.0, abs=1e-12)
    assert rho_f.min_eigenvalue() >= -1e-12
    w = end_to_end(rho_f, GAMMA, DELTA)
    # end_to_end samples the kernel on the sub-grid it records
    assert w.meta["radial_trace"] == radial_reduce(
        rho_f, Grid1D(*w.meta["radial_grid"])).trace
    assert w.meta["rotation_residual"] == rho_v.meta["rotation_residual"]


def test_rotation_records_its_measured_residual():
    # the residual is measured on the rotated blocks before their
    # Hermitian parts are taken: the rotation's own rounding asymmetry,
    # which is not 0
    residual = radial_reduce(dense_state(10, seed=1010)).meta[
        "rotation_residual"]
    assert 0.0 < residual < 1e-13


def test_rotation_takes_the_hermitian_part_of_its_input():
    # an anti-Hermitian error inside the Fock tolerance must not be carried
    # through the rotation, where it can grow: this block reads 0.7e-10 in
    # Fock labels but would land as 0.7e-10j on a Schwinger diagonal entry,
    # a residual of 1.4e-10
    e = 0.7e-10
    clean = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    noisy = clean.copy()
    noisy[1:3, 1:3] += 0.5 * e * np.array([[1j, 1], [-1, 1j]])
    rho_f = FockDensityMatrix(1, noisy)
    assert rho_f.meta["hermiticity_residual"] == pytest.approx(e)
    assert radial_reduce(rho_f).meta["rotation_residual"] < 1e-15
    assert np.array_equal(
        end_to_end(rho_f, GAMMA, DELTA).values,
        end_to_end(FockDensityMatrix(1, clean), GAMMA, DELTA).values)


def test_folded_route_matches_two_sided_on_fock_kernel():
    rho_v = radial_reduce(dense_state(3, seed=903), default_vbar_grid())
    w = wigner_from_density(rho_v, GAMMA, DELTA)
    assert np.abs(w.values - wigner_two_sided(rho_v, GAMMA, DELTA).real
                  ).max() <= 1e-14
    assert w.meta["hermiticity_residual"] == \
        rho_v.meta["hermiticity_residual"] <= 1e-10


@pytest.mark.parametrize("n_max", [3, 10, 20, 30])
def test_block_pipeline_matches_dense_reference(n_max):
    rho = dense_state(n_max, seed=700 + n_max)
    grid = default_vbar_grid()
    kernel = radial_reduce(rho, grid).entries
    ref = per_block_radial_kernel(fock_to_schwinger(rho), grid)
    assert np.abs(kernel - ref).max() < 1e-12


def test_recurrence_rows_match_radial_wavefunction():
    """The radial rows, radial_wavefunction and vbar_schwinger_l0 all
    match an independent scipy assembly for every label of total <= 80."""
    v = default_vbar_grid().points
    for two_m in range(-80, 81):
        alpha = abs(two_m)
        rows = _radial_rows(alpha, (80 - alpha) // 2 + 1, v)
        for k, (cur, offset) in enumerate(rows):
            ref = scipy_psi(k, alpha, v)
            label = SchwingerLabel.from_occupations(k + max(two_m, 0),
                                                    k + max(-two_m, 0))
            found = [cur * np.exp(offset),
                     np.exp(v) * radial_wavefunction(label, np.exp(v))]
            if two_m == 0:
                found.append(vbar_schwinger_l0(k, v))
            for f in found:
                assert np.all(np.abs(f - ref) < 1e-12), (two_m, k)


def test_vacuum_maps_to_vacuum():
    entries = dense_u_rotation(fock_vacuum())
    i = schwinger_index(SchwingerLabel(0, 0))
    assert entries[i, i] == pytest.approx(1.0)
    assert np.abs(entries).sum() == pytest.approx(1.0, abs=1e-12)


def test_single_x_quantum_splits_evenly():
    rho = FockDensityMatrix.from_pure(1, {(1, 0): 1.0})
    entries = dense_u_rotation(rho)
    plus = SchwingerLabel("1/2", "1/2")    # (n+, n-) = (1, 0)
    minus = SchwingerLabel("1/2", "-1/2")  # (n+, n-) = (0, 1)
    for bra in (plus, minus):
        for ket in (plus, minus):
            assert abs(entries[schwinger_index(bra), schwinger_index(ket)]) \
                == pytest.approx(0.5, abs=1e-12)


def test_rotation_preserves_trace_and_spectrum():
    rng = np.random.default_rng(99)
    n_max = 4
    dim = (n_max + 1) ** 2
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    rho_f = FockDensityMatrix(n_max, rho)
    entries = dense_u_rotation(rho_f)
    assert np.trace(entries).real == pytest.approx(1.0, abs=1e-10)
    ev_f = np.sort(np.linalg.eigvalsh(rho_f.entries))
    ev_s = np.sort(np.linalg.eigvalsh(entries))[-ev_f.size:]
    assert np.abs(ev_f - ev_s).max() < 1e-10


def test_schwinger_pure_state_in_two_quanta_sector():
    # (|2,0> + |0,2>)/sqrt(2) in cartesian occupations is the l=1, m=0 level
    rho = FockDensityMatrix.from_pure(
        2, {(2, 0): 1.0 / np.sqrt(2.0), (0, 2): 1.0 / np.sqrt(2.0)})
    entries = dense_u_rotation(rho)
    i = schwinger_index(SchwingerLabel(1, 0))
    assert entries[i, i] == pytest.approx(1.0, abs=1e-12)
    off = np.abs(entries).sum() - abs(entries[i, i])
    assert off < 1e-12


# ------------------------------------------------------ radial reduction

def test_radial_reduce_single_level_outer_product():
    rho_s = SchwingerDensityMatrix.pure(SchwingerLabel(1, 0), n_max=2)
    grid = Grid1D(-9.5, 4.0, 676)
    rho_v = radial_reduce(rho_s, grid)
    u = vbar_schwinger_l0(1, grid.points)
    assert np.abs(rho_v.entries - np.outer(u, u)).max() < 1e-10
    assert rho_v.meta["m_values"] == [0.0]


def test_radial_reduce_diagonal_mixture():
    # l = 0, 1, 2 at m = 0 are k = 0, 1, 2 of the one block C_0
    rho_s = SchwingerDensityMatrix(2, {0: np.diag([0.5, 0.3, 0.2])})
    rho_v = radial_reduce(rho_s)
    assert rho_v.trace == pytest.approx(1.0, abs=1e-8)
    assert rho_v.min_eigenvalue() >= -1e-8
    herm = np.abs(rho_v.entries - rho_v.entries.conj().T).max()
    assert herm < 1e-12


def test_radial_reduce_of_a_level_mixture_is_real():
    # every m = 0 block is real, so the kernel is float64, and its W is
    # the complex route's on the same kernel cast to complex, bitwise
    n_max = 10
    weights = np.random.default_rng(10).dirichlet(np.ones(n_max + 1))
    rho_v = radial_reduce(SchwingerDensityMatrix(
        n_max, {0: np.diag(weights).astype(complex)}))
    assert rho_v.entries.dtype == np.float64
    cast = DensityMatrixV(rho_v.grid, rho_v.entries.astype(complex))
    assert np.array_equal(wigner_from_density(rho_v, GAMMA, DELTA).values,
                          wigner_from_density(cast, GAMMA, DELTA).values)
    pure = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max)
    assert radial_reduce(pure).entries.dtype == np.float64


@pytest.mark.parametrize("n_max", [4, 10, 20, 40])
def test_radial_reduce_of_a_real_fock_input_is_real(n_max):
    # C_{-m} and C_{+m} of a real input come from mirrored products of one
    # shape, so their imaginary parts cancel to the bit and the kernel is
    # float64, with no imaginary product
    rho = dense_state(n_max, seed=2600 + n_max, real=True)
    assert radial_reduce(rho).entries.dtype == np.float64


def test_radial_reduce_takes_the_hermitian_part_of_each_block():
    # an imaginary diagonal within the validator's tolerance is not
    # Hermitian; the Hermitian part of each block drops it, so the kernel
    # stays float64 and W is the clean mixture's, bitwise
    n_max = 6
    labels = [SchwingerLabel(l, 0) for l in range(n_max + 1)] + [
        SchwingerLabel(2, 1), SchwingerLabel(2, -1),
        SchwingerLabel(Fraction(5, 2), Fraction(-3, 2))]
    weights = np.random.default_rng(23).dirichlet(np.ones(len(labels)))
    clean = {}
    for w, lab in zip(weights, labels):
        two_m = lab.n_plus - lab.n_minus
        block = clean.setdefault(two_m, np.zeros(
            ((2 * n_max - abs(two_m)) // 2 + 1,) * 2, dtype=complex))
        k = min(lab.n_plus, lab.n_minus)
        block[k, k] = w
    noisy = {two_m: b + 1e-14j * (b != 0) for two_m, b in clean.items()}
    kernels = [radial_reduce(SchwingerDensityMatrix(n_max, blocks))
               for blocks in (clean, noisy)]
    assert kernels[1].entries.dtype == np.float64
    assert kernels[1].meta["m_values"] == kernels[0].meta["m_values"]
    assert np.array_equal(wigner_from_density(kernels[1], GAMMA, DELTA).values,
                          wigner_from_density(kernels[0], GAMMA, DELTA).values)


def test_radial_reduce_cross_sector_coherence():
    # (|l=0,m=0> + |l=1,m=0>)/sqrt(2) keeps its m=0 coherence through the
    # angular trace
    # l = 0 and 1 at m = 0 are k = 0 and 1 of the block C_0 at n_max = 2
    vec = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
    rho_s = SchwingerDensityMatrix(2, {0: np.outer(vec, vec.conj())})
    grid = Grid1D(-9.5, 4.0, 676)
    rho_v = radial_reduce(rho_s, grid)
    w = (vbar_schwinger_l0(0, grid.points)
         + vbar_schwinger_l0(1, grid.points)) / np.sqrt(2)
    assert np.abs(rho_v.entries - np.outer(w, w)).max() < 1e-10


def signed_blocks_state(n_max, two_ms, seed):
    """Schwinger state with unequal complex PSD blocks at each signed 2m
    of ``two_ms``, and zeros everywhere else."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for weight, two_m in zip(rng.dirichlet(np.ones(len(two_ms))), two_ms):
        size = (2 * n_max - abs(two_m)) // 2 + 1
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        block = g @ g.conj().T
        blocks[two_m] = weight * block / np.trace(block).real
    return SchwingerDensityMatrix(n_max, blocks)


@pytest.mark.parametrize("two_m", [2, 3], ids=["m=1", "m=3/2"])
def test_radial_reduce_folds_both_signs_of_m(two_m):
    rho_s = signed_blocks_state(4, (two_m, -two_m), seed=40 + two_m)
    grid = default_vbar_grid()
    rho_v = radial_reduce(rho_s, grid)
    ref = per_block_radial_kernel(rho_s, grid)
    assert rho_v.entries.dtype == np.complex128     # complex blocks
    assert np.abs(rho_v.entries - ref).max() < 1e-12
    assert rho_v.meta["m_values"] == [-two_m / 2, two_m / 2]


def test_radial_reduce_lists_a_one_sided_m():
    rho_s = SchwingerDensityMatrix.pure(SchwingerLabel.from_occupations(0, 3), 2)
    grid = default_vbar_grid()
    rho_v = radial_reduce(rho_s, grid)
    assert rho_v.meta["m_values"] == [-1.5]
    assert np.abs(rho_v.entries - per_block_radial_kernel(rho_s, grid)
                  ).max() < 1e-12


@pytest.mark.parametrize("alpha, n_max", [(0, 3), (1, 3), (2, 3), (5, 4)])
def test_radial_reduce_matches_bessel_sum_on_every_coherence(alpha, n_max):
    # random complex Hermitian blocks C_{-m} and C_{+m}, m = alpha / 2 (half
    # an integer at odd alpha), through radial_reduce and the density route
    # on the default window.  W is sum_{k, k'} C[k, k'] W_{k k' alpha} with
    # C = C_{-m} + C_{+m}, each W_{k k' alpha} from the Bessel sum, which
    # shares no code with the radial rows, the gather or the transform;
    # W_{k' k alpha} is the conjugate of W_{k k' alpha}.  A transposed
    # block flips Im C against the odd-in-delta Im W_{k k' alpha}.  Every
    # block holds at least two levels, so k != k' at every alpha
    rng = np.random.default_rng(3300 + alpha)
    two_ms = sorted({-alpha, alpha})
    size = (2 * n_max - alpha) // 2 + 1
    blocks = {}
    for weight, two_m in zip(rng.dirichlet(np.ones(len(two_ms))), two_ms):
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        block = g @ g.conj().T
        blocks[two_m] = weight * block / np.trace(block).real
    gamma, delta = Grid1D(-2.0, 1.5, 8), Grid1D(-8.0, 8.0, 5)
    rho_v = radial_reduce(SchwingerDensityMatrix(n_max, blocks))
    assert rho_v.meta["m_values"] == [two_m / 2 for two_m in two_ms]
    w = wigner_from_density(rho_v, gamma, delta).values
    c = sum(blocks.values())
    # one delta per gamma row, 8 points per alpha, 32 in all
    for i, g in enumerate(gamma.points):
        j = (i + alpha) % delta.n_points
        ref = 0.0
        for k in range(size):
            ref += c[k, k].real * wigner_bessel_sum(
                k, alpha, g, delta.points[j]).real
            for k2 in range(k + 1, size):
                ref += 2.0 * (c[k, k2] * wigner_bessel_sum(
                    k, alpha, g, delta.points[j], k2=k2)).real
        assert abs(w[i, j] - ref) <= 1e-12 + 1e-10 * abs(ref), (g, j)


@pytest.mark.parametrize("l, m", [(64, 0), (32, 32), (64, -64)])
def test_pure_level_at_the_largest_cutoff_stays_small(l, m):
    # the whole angular-momentum matrix at n_max = 64 would be 8385^2
    # complex entries (1.12 GB); the level's one block and the 1351^2
    # kernel are all that is built
    tracemalloc.start()
    try:
        rho_v = radial_reduce(
            SchwingerDensityMatrix.pure(SchwingerLabel(l, m), 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert abs(rho_v.meta["radial_trace"] - 1.0) <= 1e-8
    assert rho_v.meta["m_values"] == [m]


def test_radial_reduce_builds_one_row_block_per_abs_m(monkeypatch):
    # m and -m share the rows of alpha = |2m|: 7 alphas at n_max = 3,
    # against 13 signed m
    alphas = []
    radial_rows = radwig.fock._radial_rows

    def counted(alpha, count, v):
        alphas.append(alpha)
        return radial_rows(alpha, count, v)

    monkeypatch.setattr(radwig.fock, "_radial_rows", counted)
    rho_v = radial_reduce(dense_state(3, seed=303))
    assert alphas == list(range(7))
    assert rho_v.meta["m_values"] == [two_m / 2 for two_m in range(-6, 7)]


def test_radial_reduce_kernel_holds_few_subnormal_parts():
    # the basis rows reach 1e-308 at the window edges; zeroed below
    # _FLUSH, no product of two basis tails is subnormal (> 11,000 such
    # parts without the flush).  What can remain comes from single strip
    # entries of C Phi below _FLUSH, one output part each (5-7 measured)
    kernel = radial_reduce(dense_state(30, seed=930)).entries
    tiny = np.finfo(float).tiny
    assert sum(int(np.count_nonzero((part != 0) & (np.abs(part) < tiny)))
               for part in (kernel.real, kernel.imag)) <= 50


def test_radial_reduce_narrow_grid_raises():
    # the window [-2, 2] holds 1 - 1.8e-2 of the vacuum's radial mass; the
    # kernel keeps its samples, so DensityMatrixV's one trace rule raises
    # and names the window, with no warning and no widened tolerance
    rho_s = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"window \[-2\.0, 2\.0\]\) trace 0\.98"):
            radial_reduce(rho_s, Grid1D(-2.0, 2.0, 201))


# ------------------------------------------------------------ pipeline

@pytest.mark.parametrize("occupation", [(30, 36), (40, 40)])
def test_end_to_end_at_the_largest_cutoff(occupation):
    rho = FockDensityMatrix.from_pure(40, {occupation: 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        w = end_to_end(rho, Grid1D(-3.0, 2.0, 26), Grid1D(-4.0, 4.0, 33))
    assert abs(w.meta["radial_trace"] - 1.0) < 1e-8


def test_end_to_end_matches_closed_form_l1():
    rho = FockDensityMatrix.from_pure(
        2, {(2, 0): 1.0 / np.sqrt(2.0), (0, 2): 1.0 / np.sqrt(2.0)})
    w = end_to_end(rho, GAMMA, DELTA)
    closed = wigner_l0_grid(1, GAMMA, DELTA)
    assert np.abs(w.values - closed.values).max() < 1e-5
    assert w.meta["pipeline"] == "fock"


def test_end_to_end_vacuum_matches_closed_form_l0():
    w = end_to_end(fock_vacuum(), GAMMA, DELTA)
    closed = wigner_l0_grid(0, GAMMA, DELTA)
    assert np.abs(w.values - closed.values).max() < 1e-5


@pytest.mark.parametrize("n_max", [10, 30])
def test_end_to_end_matches_unflushed_dense_reference(n_max):
    # the reference kernel keeps every tail value of its scipy basis rows
    rho = dense_state(n_max, seed=900 + n_max)
    rho_s = fock_to_schwinger(rho)
    w = end_to_end(rho, GAMMA, DELTA)
    grid = default_vbar_grid()
    ref = wigner_two_sided(
        DensityMatrixV(grid, per_block_radial_kernel(rho_s, grid)),
        GAMMA, DELTA).real
    assert np.abs(w.values - ref).max() <= 1e-14 * np.abs(ref).max()
    assert w.meta["m_values"] == [
        two_m / 2 for two_m, block in sorted(rho_s.blocks.items())
        if np.abs(block).max() > 0]


def level_mixture(n_max, seed):
    """Fock form of sum_l p_l |l, 0><l, 0| over 2 l <= n_max."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(n_max // 2 + 1))
    entries = 0.0
    for l, p in enumerate(weights):
        vec = np.zeros((n_max + 1) ** 2, dtype=complex)
        nx = np.arange(max(0, 2 * l - n_max), min(2 * l, n_max) + 1)
        vec[nx * (n_max + 1) + 2 * l - nx] = \
            sector_isometry_exact(2 * l, n_max)[l].conj()
        entries = entries + p * np.outer(vec, vec.conj())
    return FockDensityMatrix(n_max, entries)


AGREEMENT_CASES = {
    "dense-n1": lambda: dense_state(1, seed=2401),
    "dense-n4": lambda: dense_state(4, seed=2404),
    "dense-n10": lambda: dense_state(10, seed=2410),
    "dense-n30": lambda: dense_state(30, seed=2430),
    "real-n10": lambda: dense_state(10, seed=2411, real=True),
    "levels-n10": lambda: level_mixture(10, seed=2412),
    "half-integer-m": lambda: FockDensityMatrix.from_pure(
        3, {(2, 1): 0.6, (0, 1): 0.8j, (3, 0): 0.3}),
}


@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_end_to_end_agrees_with_the_full_rotation(case, monkeypatch):
    # end_to_end rotates only the equal-m blocks, from B H; the route
    # through the whole, symmetrised Schwinger matrix of the dense
    # reference, on the grid end_to_end sampled, must give the same W to
    # rounding, the same kernel dtype, the same m values and the same
    # radial trace
    rho = AGREEMENT_CASES[case]()
    kernels = []

    def capture(rho_v, gamma, delta):
        kernels.append(rho_v)
        return wigner_from_density(rho_v, gamma, delta)

    monkeypatch.setattr(radwig.fock, "wigner_from_density", capture)
    w = end_to_end(rho, GAMMA, DELTA)
    rho_v = radial_reduce(fock_to_schwinger(rho), kernels[0].grid)
    full = wigner_from_density(rho_v, GAMMA, DELTA)
    assert np.abs(w.values - full.values).max() <= 1e-15
    assert kernels[0].entries.dtype == rho_v.entries.dtype
    assert w.meta["m_values"] == rho_v.meta["m_values"]
    assert abs(w.meta["radial_trace"] - rho_v.trace) <= 1e-15


def finest_reference(rho, gamma=GAMMA, delta=DELTA):
    """W and kernel of ``rho`` on the whole default window at h_0 = 0.01."""
    rho_v = radial_reduce(rho, default_vbar_grid())
    return wigner_from_density(rho_v, gamma, delta), rho_v


RULE_CASES = {
    "dense": lambda n: dense_state(n, seed=2800 + n),
    "real": lambda n: dense_state(n, seed=2850 + n, real=True),
    "levels": lambda n: level_mixture(n, seed=2880 + n),
    # all of its weight on l = n_max, the level the band margin is sized for
    "top": lambda n: FockDensityMatrix.from_pure(n, {(n, n): 1.0}),
}


@pytest.mark.parametrize("n_max", [10, 30, 40])
@pytest.mark.parametrize("kind", RULE_CASES)
def test_end_to_end_matches_the_finest_grid(kind, n_max):
    # end_to_end samples the kernel on every j-th point of the window
    # (j = 4 at n_max <= 15 and 2 above, on these axes), and W stays
    # within 1e-14 of the kernel on the whole window at h_0.  The trace,
    # a rectangle sum, moves only by its left-edge term (j - 1) h_0
    # rho(v_0, v_0) / 2: rho there is ~2 e^{2 v_0} times the m = 0 weight
    rho = RULE_CASES[kind](n_max)
    w = end_to_end(rho, GAMMA, DELTA)
    ref, rho_v = finest_reference(rho)
    v0, vmax, points = w.meta["radial_grid"]
    stride = 4 if n_max <= 15 else 2
    assert (v0, points) == (-9.5, 1350 // stride + 1)
    assert vmax == default_vbar_grid().points[1350 // stride * stride]
    assert np.abs(w.values - ref.values).max() <= \
        1e-14 * np.abs(ref.values).max()
    assert w.meta["m_values"] == rho_v.meta["m_values"]
    assert abs(w.meta["radial_trace"] - rho_v.trace) <= \
        stride * 0.01 * rho_v.entries[0, 0].real


def test_the_band_margin_rejects_a_stride_that_moves_w(monkeypatch):
    # stride 4 (h = 0.04) leaves pi/h - max|delta| = 74.5 against the
    # 2 n_max + 1 = 61 of a dense n_max = 30 input: a margin of 13.5, where
    # W's images still reach 1e-10.  Without the margin term the rule
    # takes that stride and W moves; with it, stride 2 keeps W at rounding
    rho = dense_state(30, seed=2830)
    ref = finest_reference(rho)[0].values
    scale = np.abs(ref).max()
    w = end_to_end(rho, GAMMA, DELTA)
    assert w.meta["radial_grid"][2] == 676
    assert np.abs(w.values - ref).max() <= 1e-14 * scale
    monkeypatch.setattr(radwig.wigner, "_BAND_MARGIN", (0.0, 0.0))
    bypassed = end_to_end(rho, GAMMA, DELTA)
    assert bypassed.meta["radial_grid"][2] == 338
    assert np.abs(bypassed.values - ref).max() > 1e-12 * scale


def test_end_to_end_keeps_the_window_errors():
    # the chooser reads gamma's nodes through the one alignment rule on the
    # whole window, so a gamma off its nodes, or outside it, fails with
    # the density route's own text before any kernel exists; a delta past
    # the band of h_0 leaves stride 1, where the density route refuses it
    rho = fock_vacuum()
    for gamma, text in ((Grid1D(0.003, 0.003, 1),
                         "gamma = 0.003 is not on a half-integer multiple of "
                         "the density grid spacing 0.01"),
                        (Grid1D(-10.0, -9.0, 3),
                         "gamma grid extends outside the density grid")):
        with pytest.raises(GridAlignmentError) as err:
            end_to_end(rho, gamma, DELTA)
        assert str(err.value) == text
    with pytest.raises(DomainError) as err:
        end_to_end(rho, GAMMA, Grid1D(-320.0, 320.0, 11))
    assert str(err.value) == (
        "|delta| = 320.0 exceeds the band limit pi/(2h) = 157.08 of the "
        "density grid spacing h = 0.01: each parity class samples tau at "
        "2h, so W would alias with its images at delta +- pi/h")


def test_m_values_skip_blocks_of_rotation_rounding():
    # a level mixture holds only m = 0; the rotation leaves blocks of at
    # most ~3e-17 of the largest at other m, which the kernel still sums
    # but does not list, from the Fock input and from the dense
    # reference's Schwinger matrix alike.  Dense inputs hold every m,
    # their smallest genuine block ~1e-5 of the largest
    gamma, delta = Grid1D(-3.0, 2.0, 26), Grid1D(-4.0, 4.0, 9)
    for seed in range(20):
        rho = level_mixture(10, seed)
        assert end_to_end(rho, gamma, delta).meta["m_values"] == [0.0]
        assert radial_reduce(fock_to_schwinger(rho)).meta["m_values"] == [0.0]
    for n_max in (10, 20, 30):
        w = end_to_end(dense_state(n_max, seed=900 + n_max), gamma, delta)
        assert w.meta["m_values"] == [two_m / 2 for two_m in
                                      range(-2 * n_max, 2 * n_max + 1)]


def test_end_to_end_never_forms_the_schwinger_matrix():
    # the 1891^2 complex Schwinger matrix of n_max = 30 alone is 57 MB;
    # B H (29 MB) and the 1351^2 kernel (29 MB) are never live together
    rho = dense_state(30, seed=2431)
    gamma, delta = Grid1D(-3.0, 2.0, 26), Grid1D(-4.0, 4.0, 33)
    tracemalloc.start()
    try:
        end_to_end(rho, gamma, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_end_to_end_checks_the_rotated_trace(monkeypatch):
    # a sector block scaled by 1 + 1e-6 keeps every block Hermitian but
    # moves the trace of its sector; the pipeline's trace check must catch it
    build = radwig.fock._sector_blocks

    def scaled(n_max, last):
        return [b * (1.0 + 1e-6 * (total == 1))
                for total, b in enumerate(build(n_max, last))]

    monkeypatch.setattr(radwig.fock, "_sector_blocks", scaled)
    with pytest.raises(ValidationError, match="Schwinger density matrix trace"):
        end_to_end(dense_state(4, seed=2440), GAMMA, DELTA)


def test_end_to_end_linearity():
    rho_a = fock_vacuum(2)
    rho_b = FockDensityMatrix.from_pure(
        2, {(2, 0): 1.0 / np.sqrt(2.0), (0, 2): 1.0 / np.sqrt(2.0)})
    mixed = FockDensityMatrix(2, 0.5 * rho_a.entries + 0.5 * rho_b.entries)
    w_mixed = end_to_end(mixed, GAMMA, DELTA)
    w_a = end_to_end(rho_a, GAMMA, DELTA)
    w_b = end_to_end(rho_b, GAMMA, DELTA)
    assert np.abs(w_mixed.values - 0.5 * (w_a.values + w_b.values)).max() < 1e-10


# ---------------------------------------------------------- validation

def test_fock_matrix_validation():
    with pytest.raises(DomainError):
        FockDensityMatrix(41, np.eye(42 * 42))
    dim = 4
    bad = np.zeros((dim, dim), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5
    with pytest.raises(ValidationError):
        FockDensityMatrix(1, bad)


def test_fock_matrix_validation_names_pair_and_trace():
    dim = 4
    bad = np.zeros((dim, dim), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5
    with pytest.raises(ValidationError, match=r"nx'=0, ny'=1"):
        FockDensityMatrix(1, bad)
    with pytest.raises(ValidationError, match="trace"):
        FockDensityMatrix(1, 2.0 * np.eye(dim) / dim)


@pytest.mark.parametrize("occupation", [(0, 3), (-1, 0)])
def test_from_pure_rejects_occupation_outside_cutoff(occupation):
    with pytest.raises(DomainError, match="outside cutoff"):
        FockDensityMatrix.from_pure(2, {occupation: 1.0})


@pytest.mark.parametrize("amplitudes", [{}, {(0, 0): 0.0}],
                         ids=["empty", "zero"])
def test_from_pure_rejects_all_zero_amplitudes(amplitudes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="amplitudes are zero"):
            FockDensityMatrix.from_pure(2, amplitudes)


CUTOFF_CASES = [-1, 2.5, 3.0, True, None]


@pytest.mark.parametrize("n_max", CUTOFF_CASES + [41])
def test_fock_matrix_rejects_bad_cutoff(n_max):
    with pytest.raises(DomainError, match="n_max must be an integer"):
        FockDensityMatrix(n_max, np.eye(1))
    with pytest.raises(DomainError, match="n_max must be an integer"):
        FockDensityMatrix.from_pure(n_max, {(0, 0): 1.0})


@pytest.mark.parametrize("n_max", CUTOFF_CASES + [65])
def test_schwinger_matrix_rejects_bad_cutoff(n_max):
    with pytest.raises(DomainError, match="n_max must be an integer"):
        SchwingerDensityMatrix(n_max, {0: np.eye(1)})
    with pytest.raises(DomainError, match="n_max must be an integer"):
        SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max)


def test_cutoff_is_checked_before_allocation():
    # n_max = 100 would be a 10201^2 complex Fock matrix (1.7 GB); the
    # Schwinger type's largest block there is only 101^2
    tracemalloc.start()
    try:
        for make in (lambda: SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), 100),
                     lambda: FockDensityMatrix.from_pure(100, {(0, 0): 1.0})):
            with pytest.raises(DomainError, match=r"\[0, (64|40)\], got 100"):
                make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e3


def test_cutoff_accepts_numpy_integers():
    rho = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), np.int64(1))
    assert rho.n_max == 1 and type(rho.n_max) is int
    rho = FockDensityMatrix.from_pure(np.int32(1), {(1, 0): 1.0})
    assert rho.n_max == 1 and type(rho.n_max) is int


def test_schwinger_pure_rejects_label_outside_cutoff():
    with pytest.raises(DomainError, match="outside cutoff"):
        SchwingerDensityMatrix.pure(SchwingerLabel(3, 0), 1)


def test_schwinger_matrix_validation():
    # n_max = 1: C_0 holds l = 0, 1 and every other 2m one level
    good = {0: np.diag([1.0, 0.0]).astype(complex), 1: np.zeros((1, 1))}
    assert SchwingerDensityMatrix(1, good).n_max == 1
    bad = good | {1: np.array([[np.nan]])}
    with pytest.raises(ValidationError, match="finite"):
        SchwingerDensityMatrix(1, bad)
    bad = good | {0: np.array([[1.0, 0.5], [0.0, 0.0]])}
    with pytest.raises(ValidationError, match="Hermiticity"):
        SchwingerDensityMatrix(1, bad)
    for key in (3, -3, 0.5, "0"):
        with pytest.raises(ValidationError, match=r"keys \{.*\} are not "
                                                  r"integers 2m in \[-2, 2\]"):
            SchwingerDensityMatrix(1, good | {key: np.zeros((1, 1))})
    with pytest.raises(ValidationError,
                       match=r"block 2m = -1 shape \(2, 2\) does not match "
                             r"dimension 1"):
        SchwingerDensityMatrix(1, good | {-1: np.zeros((2, 2))})


def test_schwinger_matrix_validation_names_both_labels():
    # rows of C_0 are k = l = 0, 1; the one row of C_{1/2} is (1/2, 1/2)
    good = {0: np.diag([1.0, 0.0]).astype(complex), 1: np.zeros((1, 1))}
    bad = good | {0: np.array([[1.0, 0.5], [0.0, 0.0]])}
    with pytest.raises(ValidationError,
                       match=r"entry \(l=0, m=0; l'=1, m'=0\) = "):
        SchwingerDensityMatrix(1, bad)
    bad = good | {1: np.array([[0.7e-10j]])}
    with pytest.raises(ValidationError,
                       match=r"entry \(l=1/2, m=1/2; l'=1/2, m'=1/2\) = 7e-11j"):
        SchwingerDensityMatrix(1, bad)


def test_schwinger_matrix_keeps_its_blocks_in_m_order():
    # blocks are stored, and validated, in the order 2m = 0, -1, +1, ...;
    # real blocks stay float64, as in every density type
    rho = SchwingerDensityMatrix(1, {1: np.zeros((1, 1), dtype=complex),
                                     -2: [[0]], 0: np.diag([1.0, 0.0])})
    assert list(rho.blocks) == [0, 1, -2]
    assert [b.dtype for b in rho.blocks.values()] == \
        [np.float64, np.complex128, np.float64]
    assert rho.meta["hermiticity_residual"] == 0.0


# ---------------------------------------------------------- JSON input

def write_json(tmp_path, doc, name="rho.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_vacuum_json(tmp_path):
    doc = {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0}]}
    rho = load_fock_density(write_json(tmp_path, doc))
    assert rho.n_max == 1
    assert rho.entries[0, 0] == 1.0


def test_load_missing_field(tmp_path):
    doc = {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0}]}
    with pytest.raises(SchemaError, match=r"entries\[0\].*'im'"):
        load_fock_density(write_json(tmp_path, doc))


def test_load_hermiticity_violation_names_pair(tmp_path):
    doc = {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0},
        {"nx": 0, "ny": 0, "nxp": 1, "nyp": 0, "re": 0.25, "im": 0.0}]}
    with pytest.raises(ValidationError, match=r"nx'=1"):
        load_fock_density(write_json(tmp_path, doc))


def test_load_rejects_bad_types_and_ranges(tmp_path):
    with pytest.raises(SchemaError, match="n_max"):
        load_fock_density(write_json(tmp_path, {"n_max": "two", "entries": []}))
    doc = {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 5, "re": 1.0, "im": 0.0}]}
    with pytest.raises(SchemaError, match="nyp"):
        load_fock_density(write_json(tmp_path, doc))
    doc = {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0},
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0}]}
    with pytest.raises(SchemaError, match="duplicate"):
        load_fock_density(write_json(tmp_path, doc))


def test_load_reads_a_path_only(tmp_path):
    doc = {"n_max": 0, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0}]}
    path = write_json(tmp_path, doc)
    for source in (path, str(path)):
        assert load_fock_density(source).n_max == 0
    with pytest.raises(TypeError):
        load_fock_density(doc)
