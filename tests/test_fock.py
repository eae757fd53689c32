import json
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import radwig.fock
from radwig import (DomainError, FockDensityMatrix, Grid1D, SchemaError,
                    SchwingerDensityMatrix, SchwingerLabel, TruncationWarning,
                    ValidationError, default_vbar_grid, end_to_end,
                    fock_to_schwinger, load_fock_density, radial_reduce,
                    radial_wavefunction, sector_isometry, vbar_schwinger_l0,
                    wigner_from_density, wigner_l0_grid)
from radwig.states import _radial_rows
from radwig.wigner import DensityMatrixV, validate_density_matrix

from reference import (dense_u_rotation, per_block_radial_kernel, scipy_psi,
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
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-13


def test_sector_isometry_rejects_total_outside_cutoff():
    for total in (-1, 5):
        with pytest.raises(DomainError, match="outside the sectors"):
            sector_isometry(total, 2)


def dense_state(n_max, seed, rank=3):
    """Seeded low-rank mixed state with every entry nonzero."""
    rng = np.random.default_rng(seed)
    dim = (n_max + 1) ** 2
    nx, ny = np.divmod(np.arange(dim), n_max + 1)
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    vecs *= np.exp(-(nx + ny) / (0.5 * n_max))[:, None]
    rho = (vecs * rng.dirichlet(np.ones(rank))) @ vecs.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return FockDensityMatrix(n_max, rho / np.trace(rho).real)


def test_every_density_type_records_its_own_residual():
    dense = dense_state(3, seed=17)
    skew = np.zeros_like(dense.entries)
    skew[0, 1] = 1e-13j                     # inside the 1e-10 tolerance
    rho_f = FockDensityMatrix(3, dense.entries + skew)
    rho_s = fock_to_schwinger(rho_f)
    rho_v = radial_reduce(rho_s)
    assert rho_f.meta["hermiticity_residual"] == \
        pytest.approx(1e-13, rel=1e-3)
    # each stage measures its own entries: the rotation acts on the Fock
    # input's Hermitian part, so the Schwinger matrix records only the
    # rotation's rounding asymmetry, not the 1e-13 planted in the input
    assert rho_s.meta["hermiticity_residual"] == \
        validate_density_matrix(rho_s.entries) < 1e-15
    assert rho_v.meta["hermiticity_residual"] <= 1e-10
    for rho in (rho_f, rho_s):
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert rho.min_eigenvalue() >= -1e-12
    w = end_to_end(rho_f, GAMMA, DELTA)
    assert w.meta["radial_trace"] == rho_v.trace


def test_rotation_records_its_measured_residual():
    # the rotated matrix is stored as computed, not re-symmetrised, so its
    # residual is the rotation's own rounding asymmetry, which is not 0
    rho_s = fock_to_schwinger(dense_state(10, seed=1010))
    fresh = np.abs(rho_s.entries - rho_s.entries.conj().T).max()
    assert rho_s.meta == {"hermiticity_residual": fresh}
    assert 0.0 < fresh < 1e-13


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
    assert fock_to_schwinger(rho_f).meta["hermiticity_residual"] < 1e-15
    assert np.array_equal(
        end_to_end(rho_f, GAMMA, DELTA).values,
        end_to_end(FockDensityMatrix(1, clean), GAMMA, DELTA).values)


def test_folded_route_matches_two_sided_on_fock_kernel():
    rho_v = radial_reduce(fock_to_schwinger(dense_state(3, seed=903)),
                          default_vbar_grid())
    w = wigner_from_density(rho_v, GAMMA, DELTA)
    assert np.abs(w.values - wigner_two_sided(rho_v, GAMMA, DELTA).real
                  ).max() <= 1e-14
    assert w.meta["hermiticity_residual"] == \
        rho_v.meta["hermiticity_residual"] <= 1e-10


@pytest.mark.parametrize("n_max", [3, 10, 20, 30])
def test_block_pipeline_matches_dense_reference(n_max):
    rho = dense_state(n_max, seed=700 + n_max)
    rho_s = fock_to_schwinger(rho)
    assert np.abs(rho_s.entries - dense_u_rotation(rho)).max() < 1e-12
    grid = default_vbar_grid()
    kernel = radial_reduce(rho_s, grid).entries
    assert np.abs(kernel - per_block_radial_kernel(rho_s, grid)).max() < 1e-12


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
    rho_s = fock_to_schwinger(fock_vacuum())
    lab00 = SchwingerLabel(0, 0)
    assert rho_s.coefficient(lab00, lab00) == pytest.approx(1.0)
    assert np.abs(rho_s.entries).sum() == pytest.approx(1.0, abs=1e-12)


def test_single_x_quantum_splits_evenly():
    rho = FockDensityMatrix.from_pure(1, {(1, 0): 1.0})
    rho_s = fock_to_schwinger(rho)
    plus = SchwingerLabel("1/2", "1/2")    # (n+, n-) = (1, 0)
    minus = SchwingerLabel("1/2", "-1/2")  # (n+, n-) = (0, 1)
    for bra in (plus, minus):
        for ket in (plus, minus):
            assert abs(rho_s.coefficient(bra, ket)) == pytest.approx(0.5,
                                                                     abs=1e-12)


def test_rotation_preserves_trace_and_spectrum():
    rng = np.random.default_rng(99)
    n_max = 4
    dim = (n_max + 1) ** 2
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    rho_f = FockDensityMatrix(n_max, rho)
    rho_s = fock_to_schwinger(rho_f)
    assert np.trace(rho_s.entries).real == pytest.approx(1.0, abs=1e-10)
    ev_f = np.sort(np.linalg.eigvalsh(rho_f.entries))
    ev_s = np.sort(np.linalg.eigvalsh(rho_s.entries))[-ev_f.size:]
    assert np.abs(ev_f - ev_s).max() < 1e-10


def test_schwinger_pure_state_in_two_quanta_sector():
    # (|2,0> + |0,2>)/sqrt(2) in cartesian occupations is the l=1, m=0 level
    rho = FockDensityMatrix.from_pure(
        2, {(2, 0): 1.0 / np.sqrt(2.0), (0, 2): 1.0 / np.sqrt(2.0)})
    rho_s = fock_to_schwinger(rho)
    lab = SchwingerLabel(1, 0)
    assert rho_s.coefficient(lab, lab) == pytest.approx(1.0, abs=1e-12)
    off = np.abs(rho_s.entries).sum() - abs(rho_s.coefficient(lab, lab))
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
    n_max = 2
    dim = (2 * n_max + 1) * (2 * n_max + 2) // 2
    entries = np.zeros((dim, dim), dtype=complex)
    weights = [0.5, 0.3, 0.2]
    tmp = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max)
    for w, l in zip(weights, (0, 1, 2)):
        lab = SchwingerLabel(l, 0)
        entries[tmp.index(lab), tmp.index(lab)] = w
    rho_s = SchwingerDensityMatrix(n_max, entries)
    rho_v = radial_reduce(rho_s)
    assert rho_v.trace == pytest.approx(1.0, abs=1e-8)
    assert rho_v.min_eigenvalue() >= -1e-8
    herm = np.abs(rho_v.entries - rho_v.entries.conj().T).max()
    assert herm < 1e-12


def test_radial_reduce_of_a_level_mixture_is_real():
    # every m = 0 block is real, so the kernel is float64, and its W is
    # the complex route's on the same kernel cast to complex, bitwise
    n_max = 10
    tmp = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max)
    entries = np.zeros_like(tmp.entries)
    weights = np.random.default_rng(10).dirichlet(np.ones(n_max + 1))
    for w, l in zip(weights, range(n_max + 1)):
        i = tmp.index(SchwingerLabel(l, 0))
        entries[i, i] = w
    rho_v = radial_reduce(SchwingerDensityMatrix(n_max, entries))
    assert rho_v.entries.dtype == np.float64
    cast = DensityMatrixV(rho_v.grid, rho_v.entries.astype(complex))
    assert np.array_equal(wigner_from_density(rho_v, GAMMA, DELTA).values,
                          wigner_from_density(cast, GAMMA, DELTA).values)
    assert radial_reduce(tmp).entries.dtype == np.float64


def test_radial_reduce_takes_the_hermitian_part_of_each_block():
    # an imaginary diagonal within the validator's tolerance is not
    # Hermitian; the Hermitian part of each block drops it, so the kernel
    # stays float64 and W is the clean mixture's, bitwise
    n_max = 6
    tmp = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max)
    labels = [SchwingerLabel(l, 0) for l in range(n_max + 1)] + [
        SchwingerLabel(2, 1), SchwingerLabel(2, -1),
        SchwingerLabel(Fraction(5, 2), Fraction(-3, 2))]
    weights = np.random.default_rng(23).dirichlet(np.ones(len(labels)))
    clean = np.zeros_like(tmp.entries)
    for w, lab in zip(weights, labels):
        clean[tmp.index(lab), tmp.index(lab)] = w
    noisy = clean + 1e-14j * (clean != 0)
    kernels = [radial_reduce(SchwingerDensityMatrix(n_max, e))
               for e in (clean, noisy)]
    assert kernels[1].entries.dtype == np.float64
    assert kernels[1].meta["m_values"] == kernels[0].meta["m_values"]
    assert np.array_equal(wigner_from_density(kernels[1], GAMMA, DELTA).values,
                          wigner_from_density(kernels[0], GAMMA, DELTA).values)


def test_radial_reduce_cross_sector_coherence():
    # (|l=0,m=0> + |l=1,m=0>)/sqrt(2) keeps its m=0 coherence through the
    # angular trace
    n_max = 2
    dim = (2 * n_max + 1) * (2 * n_max + 2) // 2
    vec = np.zeros(dim, dtype=complex)
    tmp = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max)
    vec[tmp.index(SchwingerLabel(0, 0))] = 1 / np.sqrt(2)
    vec[tmp.index(SchwingerLabel(1, 0))] = 1 / np.sqrt(2)
    rho_s = SchwingerDensityMatrix(n_max, np.outer(vec, vec.conj()))
    grid = Grid1D(-9.5, 4.0, 676)
    rho_v = radial_reduce(rho_s, grid)
    w = (vbar_schwinger_l0(0, grid.points)
         + vbar_schwinger_l0(1, grid.points)) / np.sqrt(2)
    assert np.abs(rho_v.entries - np.outer(w, w)).max() < 1e-10


def signed_blocks_state(n_max, two_ms, seed):
    """Schwinger state with unequal complex PSD blocks at each signed 2m
    of ``two_ms``, and zeros everywhere else."""
    rng = np.random.default_rng(seed)
    labels = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max).labels
    entries = np.zeros((len(labels), len(labels)), dtype=complex)
    for weight, two_m in zip(rng.dirichlet(np.ones(len(two_ms))), two_ms):
        idx = [i for i, lab in enumerate(labels)
               if lab.n_plus - lab.n_minus == two_m]
        g = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
        block = g @ g.conj().T
        entries[np.ix_(idx, idx)] = weight * block / np.trace(block).real
    return SchwingerDensityMatrix(n_max, entries)


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


def test_radial_reduce_builds_one_row_block_per_abs_m(monkeypatch):
    # m and -m share the rows of alpha = |2m|: 7 alphas at n_max = 3,
    # against 13 signed m
    alphas = []
    radial_rows = radwig.fock._radial_rows

    def counted(alpha, count, v):
        alphas.append(alpha)
        return radial_rows(alpha, count, v)

    monkeypatch.setattr(radwig.fock, "_radial_rows", counted)
    rho_v = radial_reduce(fock_to_schwinger(dense_state(3, seed=303)))
    assert alphas == list(range(7))
    assert rho_v.meta["m_values"] == [two_m / 2 for two_m in range(-6, 7)]


def test_radial_reduce_kernel_holds_few_subnormal_parts():
    # the basis rows reach 1e-308 at the window edges; zeroed below
    # _FLUSH, no product of two basis tails is subnormal (> 11,000 such
    # parts without the flush).  What can remain comes from single strip
    # entries of C Phi below _FLUSH, one output part each (5-7 measured)
    kernel = radial_reduce(fock_to_schwinger(dense_state(30, seed=930))).entries
    tiny = np.finfo(float).tiny
    assert sum(int(np.count_nonzero((part != 0) & (np.abs(part) < tiny)))
               for part in (kernel.real, kernel.imag)) <= 50


def test_radial_reduce_narrow_grid_warns():
    rho_s = SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max=1)
    with pytest.warns(TruncationWarning):
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
    m = np.array([(lab.n_plus - lab.n_minus) / 2 for lab in rho_s.labels])
    assert w.meta["m_values"] == [
        float(mu) for mu in np.unique(m)
        if np.abs(rho_s.entries[np.ix_(m == mu, m == mu)]).max() > 0]


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
        SchwingerDensityMatrix(n_max, np.eye(1))
    with pytest.raises(DomainError, match="n_max must be an integer"):
        SchwingerDensityMatrix.pure(SchwingerLabel(0, 0), n_max)


def test_cutoff_is_checked_before_allocation():
    # n_max = 100 would be a 20301^2 complex Schwinger matrix (6.6 GB)
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
    dim = 6                                   # n_max = 1: 2l <= 2
    good = np.zeros((dim, dim), dtype=complex)
    good[0, 0] = 1.0
    assert SchwingerDensityMatrix(1, good).n_max == 1
    bad = good.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        SchwingerDensityMatrix(1, bad)
    bad = good.copy()
    bad[0, 2] = 0.5
    with pytest.raises(ValidationError, match="Hermiticity"):
        SchwingerDensityMatrix(1, bad)


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
