import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from radwig import (DensityMatrixV, DomainError, Grid1D, GridAlignmentError,
                    GridMismatchError, RadwigError, SchwingerLabel,
                    TruncationError, TruncationWarning, UnsupportedOrderError,
                    ValidationError, WavefunctionV, WignerGrid,
                    default_vbar_grid, dilaton_coherent, dilaton_vacuum,
                    marginal_momentum, marginal_position, momentum_transform,
                    overlap, radial_wavefunction, s_smooth, schwinger_density,
                    to_vbar, vbar_schwinger_l0, wigner_from_density,
                    wigner_l0_grid)
import radwig.wigner
from radwig.checks import _husimi_exact
from radwig.wigner import _FLUSH, _fold_slices, _gaussian_matrix, _ladder
from reference import (fold_slices_loop, gaussian_filter_reference,
                       s_smooth_dense, wigner_bessel_sum,
                       wigner_from_density_loop, wigner_l0_closed,
                       wigner_l0_rectangular, wigner_two_sided)

GAMMA = Grid1D(-3.0, 2.0, 126)
DELTA = Grid1D(-4.0, 4.0, 81)


@pytest.fixture(scope="module")
def vacuum_rho():
    grid = Grid1D(-8.0, 8.0, 1601)
    psi = WavefunctionV(grid, dilaton_vacuum("vbar", grid.points))
    return DensityMatrixV.from_pure(psi)


# ------------------------------------------------------ density matrices

def test_density_matrix_validation():
    grid = Grid1D(-1.0, 1.0, 3)
    good = np.diag([1.0, 1.0, 1.0]) / 3.0
    rho = DensityMatrixV(grid, good)
    assert rho.trace == pytest.approx(1.0)
    assert rho.min_eigenvalue() >= -1e-12
    bad_herm = good + 1e-5 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValidationError):
        DensityMatrixV(grid, bad_herm)
    with pytest.raises(ValidationError):
        DensityMatrixV(grid, 2.0 * good)


def test_validate_density_matrix_leaves_real_input_intact():
    from radwig.wigner import _validate_blocks
    good = np.array([[0.5, 0.1], [0.1, 0.5]])
    _validate_blocks([good])
    assert np.array_equal(good, [[0.5, 0.1], [0.1, 0.5]])
    bad = np.array([[0.5, 0.1], [0.3, 0.5]])
    with pytest.raises(ValidationError, match=r"entry \(0, 1\) = 0.1"):
        _validate_blocks([bad])
    assert np.array_equal(bad, [[0.5, 0.1], [0.3, 0.5]])


def test_validate_density_matrix_names_worst_pair_past_first_strip():
    # the Hermiticity check runs in row strips: the worst pair, its first
    # occurrence and the scale must come out as from the whole matrix
    from radwig.wigner import _validate_blocks
    rho = np.eye(300, dtype=complex) / 300
    rho[5, 200] = 3e-3
    rho[250, 7] = 1e-3j
    with pytest.raises(ValidationError, match=r"entry \(5, 200\) = \(0.003"):
        _validate_blocks([rho])
    rho[200, 5] = 3e-3
    with pytest.raises(ValidationError, match=r"entry \(7, 250\) = 0j"):
        _validate_blocks([rho])
    rho[7, 250] = -1e-3j
    _validate_blocks([rho])


def test_validate_density_matrix_scans_each_pair_once():
    # a strip starting at row a reads only the columns >= a: the residual
    # is still the full-matrix maximum, bit for bit, and a worst pair
    # below the diagonal past the first strip is named by its mirror
    from radwig.wigner import _validate_blocks
    rng = np.random.default_rng(3)
    rho = np.eye(300, dtype=complex) / 300
    rho += 1e-12 * (rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape))
    residual, trace = _validate_blocks([rho], trace_tol=1e-6)
    assert residual == np.abs(rho - rho.conj().T).max()
    assert trace == float(np.trace(rho).real)
    rho[280, 150] = 2e-3
    with pytest.raises(ValidationError, match=r"entry \(150, 280\) = \("):
        _validate_blocks([rho], trace_tol=1e-6)


def test_validation_over_diagonal_blocks_counts_across_them():
    # the blocks of a block-diagonal matrix: one residual, one trace and
    # one scale over all of them, the worst pair named by its row and
    # column in the whole matrix
    from radwig.wigner import _validate_blocks
    a = np.diag([0.25, 0.25]).astype(complex)
    b = np.diag([0.25, 0.125, 0.125]).astype(complex)
    b[0, 2] = 1e-12j
    whole = np.zeros((5, 5), dtype=complex)
    whole[:2, :2], whole[2:, 2:] = a, b
    assert _validate_blocks([a, b]) == _validate_blocks([whole]) == (1e-12, 1.0)
    b[2, 1] = 3e-3
    with pytest.raises(ValidationError, match=r"entry \(3, 4\) = 0j"):
        _validate_blocks([a, b])
    with pytest.raises(ValidationError, match=r"entry <3\|4> = 0j"):
        _validate_blocks([a, b], label=lambda r, c: f"<{r}|{c}>")
    with pytest.raises(ValidationError, match="trace 0.5 deviates"):
        _validate_blocks([a])


def test_non_finite_entries_are_named_before_hermiticity():
    # finiteness is read off each strip's largest |entry|, yet a
    # non-finite entry past a Hermiticity violation still raises as such:
    # nan in the last row strip, +inf (with its mirror) off the diagonal
    # of a later block, and a nan imaginary part
    from radwig.wigner import _validate_blocks
    rho = np.eye(300) / 300
    rho[5, 200] = 3e-3
    rho[299, 298] = np.nan
    with pytest.raises(ValidationError, match="entries must be finite"):
        _validate_blocks([rho])
    a = np.diag([0.5, 0.5]).astype(complex)
    a[0, 1] = 1e-3
    b = np.eye(3, dtype=complex) / 3
    b[0, 2] = b[2, 0] = np.inf
    with pytest.raises(ValidationError, match="entries must be finite"):
        _validate_blocks([a, b])
    rho = np.eye(300, dtype=complex) / 300
    rho[5, 200] = 3e-3
    rho[250, 10] = complex(1e-3, np.nan)
    with pytest.raises(ValidationError, match="entries must be finite"):
        _validate_blocks([rho])


def test_density_matrix_mixture_is_psd():
    grid = Grid1D(-8.0, 8.0, 401)
    states = [
        WavefunctionV(grid, dilaton_vacuum("vbar", grid.points)),
        dilaton_coherent(0.4, grid),
    ]
    rho = DensityMatrixV.from_mixture([0.25, 0.75], states)
    assert rho.trace == pytest.approx(1.0, abs=1e-12)
    assert rho.min_eigenvalue() >= -1e-8
    with pytest.raises(ValidationError):
        DensityMatrixV.from_mixture([0.5, 0.2], states)


def _mixture_states():
    grid = Grid1D(-8.0, 8.0, 401)
    return [WavefunctionV(grid, dilaton_vacuum("vbar", grid.points)),
            dilaton_coherent(0.4, grid), dilaton_coherent(0.3 - 0.5j, grid)]


def test_mixture_is_the_weighted_sum_of_outer_products():
    # reference: the per-state loop of outer products of the raw samples,
    # which the stacked product replaced; only the summation order differs
    states = _mixture_states()
    weights = [0.2, 0.5, 0.3]
    raw = [psi.samples for psi in states]
    ref = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, raw))
    rho = DensityMatrixV.from_mixture(weights, states)
    assert np.abs(rho.entries - ref).max() <= 1e-15 * np.abs(ref).max()
    pure = DensityMatrixV.from_pure(states[2])
    ref = np.outer(raw[2], raw[2].conj())
    assert np.abs(pure.entries - ref).max() <= 1e-15 * np.abs(ref).max()


def test_mixture_keeps_the_scale_of_its_samples():
    # the samples are not renormalised: a state scaled by 1 + 1e-9 keeps
    # that scale, squared, in the kernel's trace; one scaled by 1 + 1e-7,
    # which WavefunctionV still accepts at norm_tol = 1e-6, is a kernel
    # 2e-7 off unit trace and raises, naming the window
    grid = Grid1D(-8.0, 8.0, 1601)
    samples = dilaton_vacuum("vbar", grid.points)
    base = DensityMatrixV.from_pure(WavefunctionV(grid, samples))
    scaled = DensityMatrixV.from_mixture(
        [1.0], [WavefunctionV(grid, (1.0 + 1e-9) * samples)])
    assert scaled.meta["radial_trace"] == scaled.trace
    assert scaled.trace == pytest.approx((1.0 + 1e-9) ** 2 * base.trace,
                                         rel=1e-15, abs=0.0)
    psi = WavefunctionV(grid, (1.0 + 1e-7) * samples)
    with pytest.raises(ValidationError, match=r"window \[-8\.0, 8\.0\]"):
        DensityMatrixV.from_pure(psi)


@pytest.mark.parametrize("l", [0, 1, 16, 64])
def test_schwinger_density_records_its_window_trace(l):
    # psi_l(v) ~ sqrt(2) e^v as v -> -inf, so the default window [-9.5, 4]
    # misses e^{-19} = 5.6e-9 of every level's mass; the kernel records
    # what it holds and the grid it holds it on, and W carries that record
    rho = schwinger_density(l)
    assert 1.0 - rho.meta["radial_trace"] == pytest.approx(5.547e-9,
                                                            rel=1e-3)
    assert rho.meta["radial_trace"] == rho.trace
    assert rho.meta["radial_grid"] == [-9.5, 4.0, 1351]
    w = wigner_from_density(rho, GAMMA, DELTA)
    assert w.meta["radial_trace"] == rho.meta["radial_trace"]
    assert w.meta["radial_grid"] == rho.meta["radial_grid"]
    assert w.meta["l"] == l


def test_real_states_store_a_real_kernel():
    # a real sample stack gives a float64 kernel; a phase e^{iv} on one
    # state of the mixture keeps it complex128
    for l in (0, 3):
        assert schwinger_density(l).entries.dtype == np.float64
    grid = default_vbar_grid()
    v = grid.points
    psi2 = WavefunctionV(grid, vbar_schwinger_l0(2, v))
    psi5 = vbar_schwinger_l0(5, v)
    real = DensityMatrixV.from_mixture(
        [0.3, 0.7], [psi2, WavefunctionV(grid, psi5)])
    assert real.entries.dtype == np.float64
    phased = DensityMatrixV.from_mixture(
        [0.3, 0.7], [psi2, WavefunctionV(grid, psi5 * np.exp(1j * v))])
    assert phased.entries.dtype == np.complex128


@pytest.mark.parametrize("l", [0, 3, 16])
def test_real_kernel_w_equals_its_complex_cast(l):
    # the cosine-only route of a real kernel is the complex route with its
    # sine half exactly 0
    rho = schwinger_density(l)
    cast = DensityMatrixV(rho.grid, rho.entries.astype(complex))
    assert (rho.entries.dtype, cast.entries.dtype) == (np.float64,
                                                       np.complex128)
    assert np.array_equal(wigner_from_density(rho, GAMMA, DELTA).values,
                          wigner_from_density(cast, GAMMA, DELTA).values)


@pytest.mark.parametrize("weights, n_states", [
    ([0.4, 0.6], 3), ([1.0], 2), ([0.4, 0.6], 1), ([1.0], 0), ([], 0)],
    ids=["fewer-weights", "one-weight", "more-weights", "no-states",
         "empty"])
def test_mixture_needs_one_weight_per_state(weights, n_states):
    states = _mixture_states()[:n_states]
    with pytest.raises(ValidationError, match="one weight per state"):
        DensityMatrixV.from_mixture(weights, states)


# ----------------------------------------------- density-matrix route

def test_vacuum_wigner_is_gaussian(vacuum_rho):
    gamma = Grid1D(-4.0, 4.0, 161)
    delta = Grid1D(-4.0, 4.0, 161)
    w = wigner_from_density(vacuum_rho, gamma, delta)
    gg, dd = np.meshgrid(gamma.points, delta.points, indexing="ij")
    oracle = np.exp(-gg ** 2 - dd ** 2) / np.pi
    assert np.abs(w.values - oracle).max() < 1e-6
    assert w.meta["hermiticity_residual"] <= 1e-10


@pytest.fixture(scope="module")
def boosted_rho():
    return DensityMatrixV.from_pure(
        dilaton_coherent(0.5 + 0.8j, Grid1D(-8.0, 8.0, 1601)))


@pytest.mark.parametrize("gamma", [Grid1D(-3.0, 3.0, 601),
                                   Grid1D(-3.005, 2.995, 601)],
                         ids=["even-index", "odd-index"])
def test_folded_route_matches_two_sided_and_exact(boosted_rho, gamma):
    # a momentum boost p0 != 0 makes Im f(tau) != 0, so the sine half of
    # the fold carries weight; the two gamma grids hit even and odd
    # anti-diagonals of the density grid
    delta = Grid1D(-4.0, 4.0, 161)
    w = wigner_from_density(boosted_rho, gamma, delta)
    assert np.abs(w.values - wigner_two_sided(boosted_rho, gamma, delta).real
                  ).max() <= 1e-14
    v0, p0 = np.sqrt(2.0) * 0.5, np.sqrt(2.0) * 0.8
    gg, dd = np.meshgrid(gamma.points, delta.points, indexing="ij")
    exact = np.exp(-(gg - v0) ** 2 - (dd - p0) ** 2) / np.pi
    assert np.abs(w.values - exact).max() <= 1e-12
    assert w.meta["hermiticity_residual"] == \
        boosted_rho.meta["hermiticity_residual"] <= 1e-10


def _random_density(n, seed, real=False):
    """Hermitian, unit-trace, otherwise random entries on an n-point grid:
    every anti-diagonal, both parities and both corners carry weight;
    float64 (real symmetric) when ``real``."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    if not real:
        m = m + 1j * rng.normal(size=(n, n))
    m = m + m.conj().T
    grid = Grid1D(-1.0, 1.0, n)
    return DensityMatrixV(grid, m / (np.trace(m).real * grid.spacing))


# on the density grid's spacing h = 0.05 (41 points from -1): h / 2 hits
# both parity classes of anti-diagonals, h odd or even ones only, and the
# one-row grids the first (s = 0) and last (s = 2(n - 1)) anti-diagonal
@pytest.mark.parametrize("gamma", [
    Grid1D(-1.0, 1.0, 81), Grid1D(-0.975, 0.975, 40), Grid1D(-1.0, 1.0, 41),
    Grid1D(-1.0, -1.0, 1), Grid1D(1.0, 1.0, 1)],
    ids=["half-spacing", "odd-s", "even-s", "s=0", "s=2(n-1)"])
def test_parity_split_matches_two_sided(gamma):
    rho = _random_density(41, seed=14)
    delta = Grid1D(-30.0, 30.0, 33)
    w = wigner_from_density(rho, gamma, delta)
    ref = wigner_two_sided(rho, gamma, delta)
    assert np.abs(ref.imag).max() <= 1e-13 * np.abs(ref.real).max()
    assert np.abs(w.values - ref.real).max() <= 1e-14 * np.abs(ref.real).max()


def _anti_diagonal_runs(n):
    """Anti-diagonal index runs s_0, s_0 + c, ... inside [0, 2(n - 1)] for
    steps c = 1..4, one from the first anti-diagonal and one to the last,
    and the one-point runs on the first, middle and last."""
    last = 2 * (n - 1)
    runs = [np.array([0]), np.array([n - 1]), np.array([last])]
    for c in range(1, 5):
        count = last // c + 1
        runs += [c * np.arange(count), last - c * np.arange(count)[::-1]]
    return runs


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 40, 41])
def test_fold_slices_match_the_loop_gather_bitwise(n, real):
    # one strided view of the flat kernel against one fancy index per
    # anti-diagonal: the same sums, to the bit, in both parity classes,
    # on the first (s = 0) and last (s = 2(n - 1)) anti-diagonals, where
    # the view meets the ends of the kernel's buffer
    rng = np.random.default_rng(n)
    entries = rng.normal(size=(n, n))
    if not real:
        entries = entries + 1j * rng.normal(size=(n, n))
    for run in _anti_diagonal_runs(n):
        for p in np.unique(run % 2):
            s = run[run % 2 == p]
            got = _fold_slices(entries, s)
            assert got.dtype == entries.dtype
            assert got.tobytes() == fold_slices_loop(entries, s).tobytes()


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 40, 41])
def test_density_route_matches_the_loop_gather_bitwise(n, real):
    # gamma steps of h/2 to 2h (anti-diagonal steps 1 to 4), from the
    # first and to the last anti-diagonal, and one-point gamma axes
    rho = _random_density(n, seed=n, real=real)
    v0, h = rho.grid.min, rho.grid.spacing
    band = np.pi / (2.0 * h)
    delta = Grid1D(-0.9 * band, 0.9 * band, 17)
    for run in _anti_diagonal_runs(n):
        gamma = Grid1D(v0 + 0.5 * h * run[0], v0 + 0.5 * h * run[-1], run.size)
        w = wigner_from_density(rho, gamma, delta)
        assert w.values.tobytes() == \
            wigner_from_density_loop(rho, gamma, delta).tobytes()


def test_density_route_matches_closed_form():
    # on the CLI's default 251 x 321 window the two routes share only the
    # radial producer; with the samples kept as given they agree at
    # rounding (<= 4.7e-15 measured against |W| <= 1/pi)
    gamma, delta = Grid1D(-3.0, 2.0, 251), Grid1D(-4.0, 4.0, 321)
    worst = {l: float(np.abs(
        wigner_from_density(schwinger_density(l), gamma, delta).values
        - wigner_l0_grid(l, gamma, delta).values).max())
        for l in (0, 1, 4, 16, 32, 64)}
    assert max(worst.values()) <= 1e-13, worst


def test_density_route_refuses_delta_past_its_band():
    # h = 0.1: each parity class samples tau at 0.2, so only
    # |delta| <= pi/0.2 = 15.7 is resolved; past it the sum is W plus its
    # images at delta -+ 10 pi (off by 1.4e-2 at |delta| <= 26)
    rho = schwinger_density(1, Grid1D(-9.5, 4.0, 136))
    gamma = Grid1D(-3.0, 2.0, 51)
    inside = Grid1D(-4.0, 4.0, 81)
    assert np.abs(wigner_from_density(rho, gamma, inside).values
                  - wigner_l0_grid(1, gamma, inside).values).max() < 1e-8
    with pytest.raises(DomainError,
                       match=r"band limit pi/\(2h\) = 15\.708.* h = 0\.1"):
        wigner_from_density(rho, gamma, Grid1D(-26.0, 26.0, 521))


def test_densities_hold_no_subnormal_parts():
    tiny = np.finfo(float).tiny

    def subnormal_parts(rho):
        return sum(int(np.count_nonzero((part != 0) & (np.abs(part) < tiny)))
                   for part in (rho.entries.real, rho.entries.imag))

    grid = default_vbar_grid()
    v = grid.points
    psi2 = WavefunctionV(grid, vbar_schwinger_l0(2, v))
    psi5 = vbar_schwinger_l0(5, v)
    # an entry of a real-state density is one product per state, none of
    # them subnormal (7,222 and 6,562 subnormal parts without the flush)
    assert subnormal_parts(schwinger_density(2)) == 0
    assert subnormal_parts(DensityMatrixV.from_mixture(
        [0.3, 0.7], [psi2, WavefunctionV(grid, psi5)])) == 0
    # complex parts are sums of products, and a sum of two tail products
    # can cancel below tiny: 2 parts here, 13,420 without the flush
    assert subnormal_parts(DensityMatrixV.from_mixture(
        [0.3, 0.7], [psi2, WavefunctionV(grid, psi5 * np.exp(1j * v))])) <= 20


def test_planted_subnormal_entries_move_w_within_the_flush_bound():
    # entries below _FLUSH / 2 in each part: their gathered sums fall
    # below _FLUSH and are zeroed, and W = (h/pi) (Re g cos + Im g sin)
    # moves by at most the bound of wigner._flush_tiny, 2 K _FLUSH h/pi
    # for K <= n gathered columns and |cos|, |sin| <= 1
    # the level-1 kernel is real; plant into a complex copy, so that the
    # complex values keep their imaginary parts and the sine half runs
    grid = Grid1D(-9.5, 4.0, 136)
    base = schwinger_density(1, grid).entries.astype(complex)
    rng = np.random.default_rng(5)
    i, j = rng.choice(grid.n_points, size=(2, 40))
    values = rng.choice([5e-320, 1e-200 + 3e-310j, 7e-160j, -2e-170], size=40)
    planted, zeroed = base.copy(), base.copy()
    planted[i, j], planted[j, i] = values, values.conj()
    planted[i[i == j], i[i == j]] = values[i == j].real
    zeroed[i, j] = zeroed[j, i] = 0.0
    rho = DensityMatrixV(grid, planted)
    gamma, delta = Grid1D(-3.0, 2.0, 51), Grid1D(-4.0, 4.0, 81)
    moved = np.abs(wigner_from_density(rho, gamma, delta).values
                   - wigner_from_density(DensityMatrixV(grid, zeroed),
                                         gamma, delta).values).max()
    bound = 2 * grid.n_points * _FLUSH * grid.spacing / np.pi
    assert moved <= bound
    assert np.array_equal(rho.entries, planted)     # the input is untouched


def test_alignment_error_without_interpolation():
    rho = schwinger_density(0)
    bad = Grid1D(-3.0 + 0.0013, 2.0, 126)
    with pytest.raises(GridAlignmentError):
        wigner_from_density(rho, bad, DELTA)
    outside = Grid1D(-11.0, 2.0, 14)
    with pytest.raises(GridAlignmentError):
        wigner_from_density(rho, outside, DELTA)


# ------------------------------------------------------ closed form

def test_point_value_bessel_oracle():
    origin = Grid1D(0.0, 0.0, 1)
    ours = wigner_l0_grid(0, origin, origin).values[0, 0]
    bessel = 2.0 / np.pi * k0(1.0)
    brute, _ = quad(lambda u: np.exp(-np.cosh(u)), 0, 30, limit=200)
    brute *= 2.0 / np.pi  # full line, and the overall 1/pi
    assert ours == pytest.approx(bessel, abs=1e-10)
    assert ours == pytest.approx(brute, abs=1e-8)
    assert ours == pytest.approx(0.268032, abs=1e-6)


def test_scalar_matches_grid():
    rng = np.random.default_rng(5)
    for l in range(4):
        w = wigner_l0_grid(l, GAMMA, DELTA)
        for _ in range(5):
            i = int(rng.integers(0, GAMMA.n_points))
            j = int(rng.integers(0, DELTA.n_points))
            scalar = wigner_l0_closed(l, GAMMA.points[i], DELTA.points[j])
            assert scalar == pytest.approx(w.values[i, j], abs=1e-8)


# the adaptive quad side samples every 16th delta node (11 of 161, with
# delta = 0 and both ends) to keep the test cheap; the ladder still runs
# on the full axis, so its step is the one the CLI uses for this window
@pytest.mark.parametrize("gamma", [-6.0, -3.0, 0.0, 1.5, 4.0])
@pytest.mark.parametrize("l", [0, 1, 2, 4, 8])
def test_single_cell_ladder_matches_adaptive(l, gamma):
    delta = Grid1D(-4.0, 4.0, 161)
    w = wigner_l0_grid(l, Grid1D(gamma, gamma, 1), delta)
    assert w.values.shape == (1, 161)
    for j in range(0, 161, 16):
        scalar = wigner_l0_closed(l, gamma, delta.points[j])
        assert abs(w.values[0, j] - scalar) < 1e-10


def test_sine_component_vanishes():
    # even modulus in the integration variable: the sine transform is zero
    for gamma, delta in [(0.0, 1.0), (-0.5, 2.5), (0.7, 0.3)]:
        z = np.exp(2 * gamma)
        from radwig.special import laguerre_assoc

        def even_part(eps, z=z):
            p = laguerre_assoc(2, 0.0, z * np.exp(2 * eps))
            m = laguerre_assoc(2, 0.0, z * np.exp(-2 * eps))
            return float(p.sign * m.sign
                         * np.exp(-z * np.cosh(2 * eps) + p.log_abs + m.log_abs))

        full, _ = quad(even_part, -6.0, 6.0, weight="sin", wvar=2 * delta,
                       limit=200)
        assert abs(full) < 1e-10


def test_closed_form_even_in_delta():
    w = wigner_l0_grid(2, GAMMA, Grid1D(-3.0, 3.0, 121))
    assert np.abs(w.values - w.values[:, ::-1]).max() < 1e-12


# ------------------------------------------------------ the delta fold

def _phased_mixture():
    """Complex two-level mixture with a phase e^{iv} on one state: its W
    is shifted in delta, so its odd part is as large as its even part."""
    grid = default_vbar_grid()
    v = grid.points
    return DensityMatrixV.from_mixture(
        [0.3, 0.7], [WavefunctionV(grid, vbar_schwinger_l0(2, v)),
                     WavefunctionV(grid, vbar_schwinger_l0(5, v)
                                   * np.exp(1j * v))])


FOLD_CASES = {
    "closed-l0": lambda g, d: wigner_l0_grid(0, g, d),
    "closed-l16": lambda g, d: wigner_l0_grid(16, g, d),
    "closed-l64": lambda g, d: wigner_l0_grid(64, g, d),
    "real-kernel": lambda g, d: wigner_from_density(schwinger_density(3), g, d),
    "complex-mixture": lambda g, d: wigner_from_density(_phased_mixture(), g, d),
}


def test_delta_fold_maps():
    fold = radwig.wigner._delta_fold
    cols, col, sign = fold(Grid1D(-4.0, 4.0, 5))
    assert np.array_equal(cols, [0.0, 2.0, 4.0])
    assert np.array_equal(col, [2, 1, 0, 1, 2])
    assert np.array_equal(sign, [-1, -1, 1, 1, 1])
    cols, col, sign = fold(Grid1D(-1.5, 1.5, 4))         # no delta = 0
    assert np.array_equal(cols, [0.5, 1.5])
    assert np.array_equal(col, [1, 0, 0, 1])
    assert np.array_equal(sign, [-1, -1, 1, 1])
    for grid in (Grid1D(-4.0, 3.0, 8), Grid1D(2.0, 2.0, 1),
                 Grid1D(0.0, 0.0, 1)):
        cols, col, sign = fold(grid)
        assert np.array_equal(cols, grid.points)
        assert np.array_equal(col, np.arange(grid.n_points))
        assert np.array_equal(sign, np.ones(grid.n_points))


@pytest.mark.parametrize("case", ["closed-l0", "closed-l16", "real-kernel"])
def test_symmetric_axis_gives_an_exactly_even_w(case):
    # real states: every column j < n // 2 is the column of -delta_j
    for delta in (Grid1D(-4.0, 4.0, 321), Grid1D(-4.0, 4.0, 320)):
        w = FOLD_CASES[case](GAMMA, delta)
        assert np.array_equal(w.values, w.values[:, ::-1])


# the asymmetric axes hold the same points, up to linspace rounding, with
# the same largest |delta|, so the ladder takes the same step; only the
# symmetric one is folded
@pytest.mark.parametrize("axes", [
    (Grid1D(-4.0, 4.0, 321), Grid1D(-4.0, 3.975, 320)),
    (Grid1D(-4.0, 4.0, 320), Grid1D(-4.0, 4.0 - 8.0 / 319, 319)),
    (Grid1D(-4.0, 4.0, 2), Grid1D(-4.0, -4.0, 1)),
    (Grid1D(-4.0, 4.0, 2), Grid1D(4.0, 4.0, 1)),
], ids=["odd-n", "even-n", "two-point-low", "two-point-high"])
@pytest.mark.parametrize("case", FOLD_CASES)
def test_folded_axis_matches_the_same_points_unfolded(case, axes):
    folded, plain = axes
    w = FOLD_CASES[case](GAMMA, folded).values
    ref = FOLD_CASES[case](GAMMA, plain).values
    j = slice(1, None) if plain.min > folded.min else slice(0, plain.n_points)
    assert np.abs(w[:, j] - ref).max() <= 1e-14 * np.abs(ref).max()
    if case == "complex-mixture" and folded.n_points > 2:
        odd = 0.5 * (w - w[:, ::-1])
        assert np.abs(odd).max() >= 0.3 * np.abs(w).max()


def test_gamma_guard():
    deep = Grid1D(-8.0, 2.0, 201)
    with pytest.raises(DomainError):
        wigner_l0_grid(0, deep, DELTA)
    w = wigner_l0_grid(0, deep, DELTA, allow_deep_tail=True)
    assert np.isfinite(w.values).all()


def test_normalization_single_level():
    gamma = Grid1D(-12.0, 2.0, 701)
    delta = Grid1D(-26.0, 26.0, 1041)
    w = wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    assert w.total() == pytest.approx(1.0, abs=1e-6)


def test_degree_cap():
    origin = Grid1D(0.0, 0.0, 1)
    with pytest.raises(DomainError):
        wigner_l0_grid(65, origin, origin)


def test_gamma_overflow_is_a_domain_error():
    far = Grid1D(360.0, 360.0, 1)
    with pytest.raises(DomainError, match="overflows"):
        wigner_l0_grid(0, far, Grid1D(0.0, 0.0, 1))


# the ladder step keeps W's images past its band 2l + 1 and the margin,
# and its cut bounds the true log integrand, so high levels need no
# looser tolerance
@pytest.mark.parametrize("l", [24, 32, 48, 64])
def test_high_level_ladder_matches_density_route(l):
    w_dens = wigner_from_density(schwinger_density(l), GAMMA, DELTA)
    w_closed = wigner_l0_grid(l, GAMMA, DELTA)
    assert np.abs(w_dens.values - w_closed.values).max() <= 1e-13


# each row stops at its own cut instead of the deepest row's: only terms
# 45 e-folds below a row's peak are dropped
@pytest.mark.parametrize("window", [
    (Grid1D(-12.0, 2.2, 143), Grid1D(-26.0, 26.0, 105)),
    (Grid1D(-3.0, 2.5, 221), Grid1D(-4.0, 4.0, 81))], ids=["wide", "narrow"])
@pytest.mark.parametrize("l", [0, 1, 2, 16, 64])
def test_strip_ladder_matches_rectangle(l, window):
    gamma, delta = window
    w = wigner_l0_grid(l, gamma, delta, allow_deep_tail=True)
    ref = wigner_l0_rectangular(l, gamma, delta)
    assert np.abs(w.values - ref).max() <= 1e-14 * np.abs(ref).max()


def test_strip_ladder_evaluates_no_rectangle(monkeypatch):
    # a row near gamma = 2 needs ~12 nodes where one at -12 needs ~270;
    # the full rectangle would be rows x nodes x 2 points psi(gamma +- eps)
    gamma = Grid1D(-12.0, 2.2, 701)
    delta = Grid1D(-26.0, 26.0, 1041)
    nodes = _ladder(1, gamma.points, 26.0)[1].max()
    points = []
    radial_rows = radwig.wigner._radial_rows

    def counted(alpha, count, v, first=0):
        points.append(np.size(v))
        return radial_rows(alpha, count, v, first)

    monkeypatch.setattr(radwig.wigner, "_radial_rows", counted)
    wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    assert 0 < sum(points) <= 0.6 * gamma.n_points * nodes * 2


# the step puts W's images pi / step apart in delta, past its band and the
# margin where its tail reaches rounding; the half-step reference moves
# them twice as far out, so the two agree to rounding only if the step's
# own images are already below it.  The wide and deep windows keep their
# extents (which set the step and the deepest cut) and take every 5th
# gamma row and delta column
RULE_WINDOWS = {
    "default": (Grid1D(-3.0, 2.0, 251), Grid1D(-4.0, 4.0, 321)),
    "wide": (Grid1D(-12.0, 2.0, 141), Grid1D(-26.0, 26.0, 209)),
    "deep": (Grid1D(-32.0, 6.0, 77), Grid1D(-8.0, 8.0, 81)),
}


@pytest.mark.parametrize("window", list(RULE_WINDOWS))
@pytest.mark.parametrize("l", [0, 1, 4, 16, 32, 64])
def test_ladder_step_matches_the_half_step(l, window):
    gamma, delta = RULE_WINDOWS[window]
    w = wigner_l0_grid(l, gamma, delta, allow_deep_tail=True)
    step = w.meta["ladder_step"]
    assert step == np.pi / (delta.max + 2 * l + 1 + 26.0 + 4.5 * np.sqrt(l))
    ref = wigner_l0_rectangular(l, gamma, delta, step=step / 2)
    assert np.abs(w.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_the_band_margin_keeps_the_ladder_off_w(monkeypatch):
    # with the margin, W_4 on the default window holds to rounding at step
    # pi / 48 (test above); without it the step pi / 13 puts W's images at
    # delta +- 13, inside the tail of its band 2l + 1 = 9, and W moves
    gamma, delta = RULE_WINDOWS["default"]
    ref = wigner_l0_rectangular(4, gamma, delta, step=np.pi / 96)
    monkeypatch.setattr(radwig.wigner, "_BAND_MARGIN", (0.0, 0.0))
    bypassed = wigner_l0_grid(4, gamma, delta)
    assert bypassed.meta["ladder_step"] == np.pi / 13
    assert np.abs(bypassed.values - ref).max() > 1e-12 * np.abs(ref).max()


def test_deep_gamma_point_value_bessel_oracle():
    # W_0(gamma, 0) = (2z/pi) K0(z), z = e^{2 gamma}: the ladder must reach
    # eps ~ -gamma, where the integrand is still at its peak value
    z = np.exp(-64.0)
    w = wigner_l0_grid(0, Grid1D(-32.0, -32.0, 1), Grid1D(0.0, 0.0, 1),
                       allow_deep_tail=True)
    exact = 2.0 * z / np.pi * k0(z)
    assert w.values[0, 0] == pytest.approx(exact, rel=1e-10, abs=0.0)


# the Bessel sum shares no code with either library route: every point is
# held to 1e-12 absolute plus 1e-10 relative
BESSEL_POINTS = [(-32.0, 0.0), (-9.0, 8.0), (-2.5, -3.0), (0.0, 0.5),
                 (1.3, 1.7), (2.2, 4.0), (3.0, -6.0), (6.0, 2.0)]


@pytest.mark.parametrize("l", [0, 1, 4, 16, 32, 64])
def test_closed_form_matches_bessel_sum(l):
    for gamma, delta in BESSEL_POINTS:
        w = wigner_l0_grid(l, Grid1D(gamma, gamma, 1), Grid1D(delta, delta, 1),
                           allow_deep_tail=True).values[0, 0]
        ref = wigner_bessel_sum(l, 0, gamma, delta)
        assert abs(w - ref) <= 1e-12 + 1e-10 * abs(ref), (gamma, delta)


@pytest.mark.parametrize("l, m", [(Fraction(1, 2), Fraction(1, 2)),
                                  (Fraction(3, 2), Fraction(-1, 2)),
                                  (2, 1), (Fraction(7, 2), Fraction(5, 2)),
                                  (5, -3)])
def test_density_route_matches_bessel_sum_off_m0(l, m):
    label = SchwingerLabel(l, m)
    grid = default_vbar_grid()
    psi = to_vbar(lambda r: radial_wavefunction(label, r), grid)
    gamma, delta = Grid1D(-2.0, 1.5, 8), Grid1D(-8.0, 8.0, 5)
    w = wigner_from_density(DensityMatrixV.from_pure(psi), gamma, delta)
    k = min(label.n_plus, label.n_minus)
    alpha = abs(label.n_plus - label.n_minus)
    for i, g in enumerate(gamma.points):
        for j, d in enumerate(delta.points):
            ref = wigner_bessel_sum(k, alpha, g, d)
            err = abs(w.values[i, j] - ref)
            assert err <= 1e-12 + 1e-10 * abs(ref), (g, d)


# ------------------------------------------------------ one-point axes

def _one_point_grid(axis):
    single = Grid1D(0.0, 0.0, 1)
    wide = Grid1D(-4.0, 4.0, 41)
    gamma, delta = (single, wide) if axis == "gamma" else (wide, single)
    return wigner_l0_grid(0, gamma, delta)


@pytest.mark.parametrize("axis", ["gamma", "delta"])
@pytest.mark.parametrize("integral", [
    lambda w: w.total(),
    lambda w: overlap(w, w),
    marginal_position,
    marginal_momentum,
    lambda w: s_smooth(w, -1.0),
    lambda w: DensityMatrixV(Grid1D(0.0, 0.0, 1), [[1.0]]),
], ids=["total", "overlap", "marginal_position", "marginal_momentum",
        "s_smooth", "DensityMatrixV"])
def test_one_point_axis_never_yields_a_number(integral, axis):
    with pytest.raises(RadwigError):
        integral(_one_point_grid(axis))


def test_one_point_grid_has_no_spacing():
    single = Grid1D(1.5, 1.5, 1)
    assert single.points.tolist() == [1.5]
    with pytest.raises(DomainError):
        single.spacing
    with pytest.raises(DomainError):
        single.trapezoid(np.ones(1))
    with pytest.raises(ValidationError):
        Grid1D(0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        Grid1D(0.0, 0.0, 0)


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.inf),
                                    (-np.inf, 0.0)],
                         ids=["nan-min", "inf-max", "inf-min"])
def test_grid_bounds_must_be_finite(lo, hi):
    with pytest.raises(ValidationError, match="bounds must be finite"):
        Grid1D(lo, hi, 3)


def test_grid_span_must_not_overflow():
    # finite bounds whose difference is not: the spacing and the points
    # would be inf and nan
    with pytest.raises(ValidationError, match="overflows"):
        Grid1D(-1e308, 1e308, 3)
    wide = Grid1D(-8e307, 8e307, 3)
    assert wide.points.tolist() == [-8e307, 0.0, 8e307]
    assert wide.spacing == 8e307


def test_marginal_along_one_point_axis_is_truncation():
    for axis, marginal in (("delta", marginal_position),
                           ("gamma", marginal_momentum)):
        with pytest.raises(TruncationError):
            marginal(_one_point_grid(axis))


# -------------------------------------------------------- marginals

def test_position_marginal_matches_state_density():
    # the exp(2 gamma) left tail carries ~6e-6 of mass below gamma = -6,
    # so the unit-integral check needs the deep window
    gamma = Grid1D(-12.0, 2.0, 701)
    delta = Grid1D(-26.0, 26.0, 1041)
    for l in (0, 2):
        w = wigner_l0_grid(l, gamma, delta, allow_deep_tail=True)
        marg = marginal_position(w)
        oracle = vbar_schwinger_l0(l, gamma.points) ** 2
        assert np.abs(marg - oracle).max() < 1e-5
        assert np.trapezoid(marg, gamma.points) == pytest.approx(1.0, abs=1e-6)


def test_vacuum_marginals_gaussian(vacuum_rho):
    gamma = Grid1D(-8.0, 8.0, 321)
    delta = Grid1D(-8.0, 8.0, 321)
    w = wigner_from_density(vacuum_rho, gamma, delta)
    pos = marginal_position(w)
    mom = marginal_momentum(w)
    oracle = np.pi ** -0.5 * np.exp(-gamma.points ** 2)
    assert np.abs(pos - oracle).max() < 1e-6
    assert np.abs(mom - oracle).max() < 1e-6


def test_momentum_marginal_matches_fourier_density():
    gamma = Grid1D(-13.0, 2.0, 751)
    delta = Grid1D(-4.0, 4.0, 321)
    w = wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    marg = marginal_momentum(w)
    vgrid = Grid1D(-13.0, 2.0, 1501)
    psi = WavefunctionV(vgrid, vbar_schwinger_l0(1, vgrid.points),
                        norm_tol=1e-5)
    with pytest.warns(UserWarning):
        tilde = momentum_transform(psi, delta)
    assert np.abs(marg - np.abs(tilde) ** 2).max() < 1e-5


def test_momentum_marginal_even_for_real_state():
    gamma = Grid1D(-12.0, 2.0, 701)
    delta = Grid1D(-6.0, 6.0, 241)
    w = wigner_l0_grid(3, gamma, delta, allow_deep_tail=True)
    mom = marginal_momentum(w)
    assert np.abs(mom - mom[::-1]).max() < 1e-8


def test_marginal_truncation_error():
    w = wigner_l0_grid(1, GAMMA, Grid1D(-2.0, 2.0, 81))
    with pytest.raises(TruncationError):
        marginal_position(w)
    narrow_gamma = wigner_l0_grid(1, Grid1D(-1.0, 1.0, 51),
                                  Grid1D(-4.0, 4.0, 161))
    with pytest.raises(TruncationError):
        marginal_momentum(narrow_gamma)


# ---------------------------------------------------------- overlap

@pytest.fixture(scope="module")
def overlap_grids():
    gamma = Grid1D(-5.0, 2.0, 351)
    delta = Grid1D(-13.0, 13.0, 1041)
    return {l: wigner_l0_grid(l, gamma, delta) for l in range(2)}


def test_overlap_purity_and_orthogonality(overlap_grids):
    assert overlap(overlap_grids[0], overlap_grids[0]) == pytest.approx(
        1.0, abs=1e-5)
    assert overlap(overlap_grids[0], overlap_grids[1]) == pytest.approx(
        0.0, abs=1e-5)
    assert overlap_grids[0].meta["overlap_factor"] == pytest.approx(
        2.0 * np.pi)


def test_overlap_vacuum_coherent():
    # |<0|alpha>|^2 = e^{-|alpha|^2}; alpha = 2 displaces the log-radius
    # Gaussian by 2 sqrt(2)
    grid = Grid1D(-8.0, 8.0, 1601)
    gamma = Grid1D(-6.0, 6.0, 601)
    delta = Grid1D(-6.0, 6.0, 601)
    rho0 = DensityMatrixV.from_pure(
        WavefunctionV(grid, dilaton_vacuum("vbar", grid.points)))
    rho_a = DensityMatrixV.from_pure(dilaton_coherent(2.0, grid))
    w0 = wigner_from_density(rho0, gamma, delta)
    wa = wigner_from_density(rho_a, gamma, delta)
    got = overlap(w0, wa)
    psi0 = dilaton_vacuum("vbar", grid.points)
    psia = dilaton_coherent(2.0, grid).samples
    braket = np.abs(np.sum(np.conj(psi0) * psia) * grid.spacing) ** 2
    assert got == pytest.approx(np.exp(-4.0), abs=1e-5)
    assert got == pytest.approx(braket, abs=1e-5)
    assert got == pytest.approx(0.018316, abs=1e-5)


def test_overlap_grid_mismatch(overlap_grids):
    other = wigner_l0_grid(0, GAMMA, DELTA)
    with pytest.raises(GridMismatchError):
        overlap(overlap_grids[0], other)


# ------------------------------------------------------- negativity

def test_negativity_and_lower_bound():
    for l in range(4):
        w = wigner_l0_grid(l, GAMMA, DELTA)
        assert w.min_value() >= -1.0 / np.pi - 1e-6
        if l >= 1:
            assert w.min_value() < -1e-3


# -------------------------------------------------------- smoothing

def test_s_smooth_identity_and_refusal():
    w = wigner_l0_grid(1, GAMMA, DELTA)
    same = s_smooth(w, 0.0)
    assert np.array_equal(same.values, w.values)
    with pytest.raises(UnsupportedOrderError):
        s_smooth(w, 0.5)


@pytest.mark.parametrize("s, error", [
    (-np.inf, DomainError), (np.nan, DomainError),
    (np.inf, UnsupportedOrderError)], ids=["-inf", "nan", "+inf"])
def test_s_smooth_rejects_a_non_finite_order(s, error):
    w = WignerGrid(GAMMA, DELTA, np.zeros((GAMMA.n_points, DELTA.n_points)))
    with pytest.raises(error):
        s_smooth(w, s)


def test_s_smooth_mass_preservation(vacuum_rho):
    gamma = Grid1D(-8.0, 8.0, 321)
    delta = Grid1D(-8.0, 8.0, 321)
    w = wigner_from_density(vacuum_rho, gamma, delta)
    q = s_smooth(w, -1.0)
    assert q.total() == pytest.approx(w.total(), abs=1e-8)
    assert q.meta["s"] == -1.0
    assert q.meta["mass_past_window"] == q.total() - w.total()
    assert q.meta["edge_strip_mass"] < 1e-8


def test_s_smooth_husimi_nonnegative():
    gamma = Grid1D(-11.0, 6.0, 681)
    delta = Grid1D(-16.0, 16.0, 641)
    w = wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = s_smooth(w, -1.0)
    margin = 6.5 * np.sqrt(0.5)
    gi = (gamma.points > gamma.min + margin) & (gamma.points < gamma.max - margin)
    di = (delta.points > delta.min + margin) & (delta.points < delta.max - margin)
    assert q.values[np.ix_(gi, di)].min() >= -1e-9
    # the unsmoothed function is deeply negative there
    assert w.values[np.ix_(gi, di)].min() < -1e-3


@pytest.fixture(scope="module")
def wide_levels():
    """W_0, W_1, W_2 on the wide window -12:2 x -26:26 (701 x 1041)."""
    gamma = Grid1D(-12.0, 2.0, 701)
    delta = Grid1D(-26.0, 26.0, 1041)
    return {l: wigner_l0_grid(l, gamma, delta, allow_deep_tail=True)
            for l in (0, 1, 2)}


def _anisotropic_grid():
    # gamma spacing 0.03, delta spacing 0.1: different kernel radii
    return wigner_l0_grid(2, Grid1D(-4.0, 3.0, 234), Grid1D(-8.0, 8.0, 161))


def _tiny_grid():
    # 23 x 17 at spacings 0.1 and 0.2: kernel radii 71 and 35 exceed both axes
    return wigner_l0_grid(1, Grid1D(-1.1, 1.1, 23), Grid1D(-1.6, 1.6, 17))


@pytest.mark.parametrize("make", [
    lambda levels: levels[1], lambda levels: _anisotropic_grid(),
    lambda levels: _tiny_grid()], ids=["wide", "anisotropic", "tiny"])
def test_s_smooth_matches_gaussian_filter(make, wide_levels):
    w = make(wide_levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        q = s_smooth(w, -1.0)
    ref = gaussian_filter_reference(w, -1.0)
    assert np.abs(q.values - ref).max() <= 1e-15 * np.abs(w.values).max()


def test_s_smooth_memory_does_not_grow_with_the_kernel():
    # spacing 0.01 at s = -2e7: a kernel radius of 3.2e6 samples on 5 x 5
    axis = Grid1D(0.0, 0.04, 5)
    w = WignerGrid(axis, axis, np.ones((5, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        tracemalloc.start()
        try:
            q = s_smooth(w, -2e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2e6
    # the kernel is flat across the grid: every cell sums 25 inputs of
    # weight 1 / (2 pi sigma_pix^2)
    pix = np.sqrt(1e7) / axis.spacing
    assert q.values == pytest.approx(np.full((5, 5), 25.0 / (2.0 * np.pi * pix ** 2)),
                                      rel=1e-9)


@pytest.mark.parametrize("make, s", [
    (lambda levels: _anisotropic_grid(), -2e-6),
    (lambda levels: WignerGrid(Grid1D(0.0, 0.04, 5), Grid1D(0.0, 0.04, 5),
                               np.arange(25.0).reshape(5, 5)), -2e7),
    (lambda levels: _anisotropic_grid(), -1.0),
    (lambda levels: levels[1], -1.0)],
    ids=["radius-0", "radius-past-the-grid", "anisotropic", "wide"])
def test_s_smooth_matches_the_dense_product(make, s, wide_levels):
    # the banded blocks leave out only zeros of A and B, so Q moves from
    # the dense (A @ W) @ B^T by reassociation alone: sigma_pix < 0.05
    # (radius 0, A = B = I), a radius past n - 1 (the band is the whole
    # matrix), the anisotropic grid's 233 (all of gamma) and 71, and the
    # wide window's 354 and 141
    w = make(wide_levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        q = s_smooth(w, s)
    ref = s_smooth_dense(w, s)
    assert np.abs(q.values - ref).max() <= 4e-15 * np.abs(ref).max()


def test_gaussian_tail_sum_is_closed_form():
    # spacing 0.01: a kernel radius of 3.2e6 samples at s = -2e7 and 3.2e8
    # at s = -2e11; the normalising sum must not walk either tail
    axis = Grid1D(0.0, 0.04, 5)
    pix = np.sqrt(1e7) / axis.spacing
    x = np.arange(-int(10.0 * pix + 0.5), int(10.0 * pix + 0.5) + 1)
    direct = np.exp(-0.5 / (pix * pix) * np.subtract.outer(
        np.arange(5), np.arange(5)) ** 2) / np.exp(-0.5 / (pix * pix) * x ** 2).sum()
    a, _ = _gaussian_matrix(axis, np.sqrt(1e7))
    assert np.abs(a / direct - 1.0).max() <= 1e-15
    w = WignerGrid(axis, axis, np.ones((5, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        start = time.perf_counter()
        s_smooth(w, -2e11)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("pix", [0.15, 0.16, 0.7, 3.0, 40.0, 1638.0, 1639.0,
                                 1700.0])
def test_gaussian_normaliser_matches_the_direct_sum(pix):
    # a kernel that overhangs a two-point window is normalised by the
    # Poisson-summation closed form of its full-line sum, which must match
    # the direct sum of every sample to the radius, on both sides of
    # sigma_pix ~ 1638.5, where the tail past the window reaches 16384
    # samples
    axis = Grid1D(0.0, 1.0, 2)
    radius = int(10.0 * pix + 0.5)
    x = np.arange(-radius, radius + 1)
    direct = math.fsum(np.exp(-0.5 / (pix * pix) * x ** 2))
    a, r = _gaussian_matrix(axis, pix)
    assert r == 1 < radius
    assert abs(a[0, 0] * direct - 1.0) <= 1e-15


@pytest.mark.parametrize("l", [0, 1, 2])
def test_s_smooth_equals_exact_husimi(l, wide_levels):
    w = wide_levels[l]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no TruncationWarning, no RuntimeWarning
        q = s_smooth(w, -1.0)
    exact = _husimi_exact(l, w.gamma_grid, w.delta_grid,
                          Grid1D(-24.0, 10.0, 3401))
    assert np.abs(q.values - exact).max() < 1e-10       # edge cells included
    # the kernel pushes mass past gamma = 2, and the record says how much
    assert q.meta["mass_past_window"] == q.total() - w.total()
    assert q.meta["mass_past_window"] < -1e-3
    assert q.meta["edge_strip_mass"] < 1e-8


def test_husimi_oracle_matches_coherent_overlaps():
    vbar = Grid1D(-24.0, 10.0, 3401)
    gamma, delta = Grid1D(-3.0, 2.0, 6), Grid1D(-4.0, 4.0, 5)
    psi = vbar_schwinger_l0(2, vbar.points)
    exact = _husimi_exact(2, gamma, delta, vbar)
    for i, g in enumerate(gamma.points):
        for j, d in enumerate(delta.points):
            alpha = dilaton_coherent(complex(g, d) / np.sqrt(2.0), vbar)
            amp = np.sum(alpha.samples.conj() * psi) * vbar.spacing
            assert abs(exact[i, j] - abs(amp) ** 2 / (2.0 * np.pi)) < 1e-15


def test_s_smooth_warns_on_a_narrow_window():
    # delta to +-12 leaves 6.5e-8 of |W_1| in the outermost delta strips
    gamma, delta = Grid1D(-11.0, 6.0, 681), Grid1D(-12.0, 12.0, 481)
    w = wigner_l0_grid(1, gamma, delta, allow_deep_tail=True)
    with pytest.warns(TruncationWarning, match="outermost strips"):
        q = s_smooth(w, -1.0)
    strips = ([gamma.trapezoid(np.abs(w.values[:, k])) * delta.spacing
               for k in (0, -1)]
              + [delta.trapezoid(np.abs(w.values[k])) * gamma.spacing
                 for k in (0, -1)])
    assert q.meta["edge_strip_mass"] == pytest.approx(max(strips), rel=1e-12)
    assert 1e-8 < max(strips) < 1e-7


@pytest.mark.parametrize("axis", ["gamma", "delta"])
def test_s_smooth_one_point_axis_raises_domain_error(axis):
    with pytest.raises(DomainError):
        s_smooth(_one_point_grid(axis), -1.0)


def test_s_smooth_vacuum_against_analytic_convolution(vacuum_rho):
    # variance 1/2 (vacuum) + 1/2 (kernel) per axis: the peak 1/pi
    # Gaussian widens into (1/2pi) e^{-(g^2+d^2)/2}
    gamma = Grid1D(-8.0, 8.0, 321)
    delta = Grid1D(-8.0, 8.0, 321)
    w = wigner_from_density(vacuum_rho, gamma, delta)
    q = s_smooth(w, -1.0)
    gg, dd = np.meshgrid(gamma.points, delta.points, indexing="ij")
    oracle = np.exp(-(gg ** 2 + dd ** 2) / 2.0) / (2.0 * np.pi)
    assert np.abs(q.values - oracle).max() < 1e-6


# ------------------------------------------------- trapezoid weights

_DEFAULT_WINDOW = (Grid1D(-3.0, 2.0, 251), Grid1D(-4.0, 4.0, 321))


def _trapezoid_case(case, wide_levels):
    """(grid, values, axis) for one accuracy case of Grid1D.trapezoid."""
    if case == "1d":
        gamma, delta = _DEFAULT_WINDOW
        return gamma, vbar_schwinger_l0(2, gamma.points) ** 2, -1
    if case.startswith("two-point"):
        axis = int(case[-1])
        values = np.random.default_rng(35).uniform(0.5, 1.5, (2, 5))
        return Grid1D(0.5, 1.5, 2), np.moveaxis(values, 0, axis), axis
    window, axis = case.rsplit("-", 1)
    w = (wide_levels[1] if window == "wide"
         else wigner_l0_grid(2, *_DEFAULT_WINDOW))
    return (w.delta_grid, w.gamma_grid)[int(axis) == 0], w.values, int(axis)


@pytest.mark.parametrize("case", ["1d", "two-point-0", "two-point-1",
                                  "default-0", "default-1", "wide-0",
                                  "wide-1"])
def test_trapezoid_matches_numpy(case, wide_levels):
    # one product with the grid's weights sums the terms of np.trapezoid
    # grouped per sample, so the two differ by rounding alone
    grid, values, axis = _trapezoid_case(case, wide_levels)
    ref = np.trapezoid(values, grid.points, axis=axis)
    got = grid.trapezoid(values, axis=axis)
    assert np.shape(got) == np.shape(ref)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("integral, bound", [
    (lambda w: w.total(), 0.05),
    (marginal_position, 0.05),
    (marginal_momentum, 0.05),
    (lambda w: overlap(w, w), 0.05),
    (lambda w: s_smooth(w, -1.0), 2.25),
], ids=["total", "marginal_position", "marginal_momentum", "overlap",
        "s_smooth"])
def test_integrals_make_no_w_sized_temporary(integral, bound, wide_levels):
    # each integral is a product with the trapezoid weights, so none of
    # them copies W; smoothing holds its two W-sized outputs, A @ W and Q
    w = wide_levels[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        integral(w)
        tracemalloc.start()
        try:
            integral(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= bound * w.values.nbytes


# ------------------------------------------------------- WignerGrid

def test_wigner_grid_validation():
    with pytest.raises(ValidationError):
        WignerGrid(GAMMA, DELTA, np.zeros((3, 3)))
    vals = np.zeros((GAMMA.n_points, DELTA.n_points))
    vals[0, 0] = np.nan
    with pytest.raises(ValidationError):
        WignerGrid(GAMMA, DELTA, vals)
