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
from radwig.wigner import _FLUSH, _gaussian_matrix, _ladder
from reference import (gaussian_filter_reference, wigner_bessel_sum,
                       wigner_l0_closed, wigner_l0_rectangular,
                       wigner_two_sided)

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
    from radwig.wigner import validate_density_matrix
    good = np.array([[0.5, 0.1], [0.1, 0.5]])
    validate_density_matrix(good)
    assert np.array_equal(good, [[0.5, 0.1], [0.1, 0.5]])
    bad = np.array([[0.5, 0.1], [0.3, 0.5]])
    with pytest.raises(ValidationError, match=r"entry \(0, 1\) = 0.1"):
        validate_density_matrix(bad)
    assert np.array_equal(bad, [[0.5, 0.1], [0.3, 0.5]])


def test_validate_density_matrix_names_worst_pair_past_first_strip():
    # the Hermiticity check runs in row strips: the worst pair, its first
    # occurrence and the scale must come out as from the whole matrix
    from radwig.wigner import validate_density_matrix
    rho = np.eye(300, dtype=complex) / 300
    rho[5, 200] = 3e-3
    rho[250, 7] = 1e-3j
    with pytest.raises(ValidationError, match=r"entry \(5, 200\) = \(0.003"):
        validate_density_matrix(rho)
    rho[200, 5] = 3e-3
    with pytest.raises(ValidationError, match=r"entry \(7, 250\) = 0j"):
        validate_density_matrix(rho)
    rho[7, 250] = -1e-3j
    validate_density_matrix(rho)


def test_validate_density_matrix_scans_each_pair_once():
    # a strip starting at row a reads only the columns >= a: the residual
    # is still the full-matrix maximum, bit for bit, and a worst pair
    # below the diagonal past the first strip is named by its mirror
    from radwig.wigner import validate_density_matrix
    rng = np.random.default_rng(3)
    rho = np.eye(300, dtype=complex) / 300
    rho += 1e-12 * (rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape))
    residual = validate_density_matrix(rho, trace_tol=1e-6)
    assert residual == np.abs(rho - rho.conj().T).max()
    rho[280, 150] = 2e-3
    with pytest.raises(ValidationError, match=r"entry \(150, 280\) = \("):
        validate_density_matrix(rho, trace_tol=1e-6)


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
    # reference: the per-state loop of outer products that the stacked
    # product replaced; only the summation order differs
    states = _mixture_states()
    weights = [0.2, 0.5, 0.3]
    unit = [psi.samples / np.sqrt(psi.norm()) for psi in states]
    ref = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, unit))
    rho = DensityMatrixV.from_mixture(weights, states)
    assert np.abs(rho.entries - ref).max() <= 1e-15 * np.abs(ref).max()
    pure = DensityMatrixV.from_pure(states[2])
    ref = np.outer(unit[2], unit[2].conj())
    assert np.abs(pure.entries - ref).max() <= 1e-15 * np.abs(ref).max()


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


def _random_density(n, seed):
    """Hermitian, unit-trace, otherwise random entries on an n-point grid:
    every anti-diagonal, both parities and both corners carry weight."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
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


def test_density_route_matches_closed_form():
    rho = schwinger_density(0)
    w_dens = wigner_from_density(rho, GAMMA, DELTA)
    w_closed = wigner_l0_grid(0, GAMMA, DELTA)
    assert np.abs(w_dens.values - w_closed.values).max() < 1e-6


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


# the ladder step resolves the Laguerre phase rate 4l + 2, and its cut
# bounds the true log integrand, so high levels need no looser tolerance
@pytest.mark.parametrize("l", [24, 32, 48, 64])
def test_high_level_ladder_matches_density_route(l):
    w_dens = wigner_from_density(schwinger_density(l), GAMMA, DELTA)
    w_closed = wigner_l0_grid(l, GAMMA, DELTA)
    assert np.abs(w_dens.values - w_closed.values).max() < 1e-8


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
    # a row near gamma = 2 needs ~100 nodes where one at -12 needs ~2,400;
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


def test_gaussian_tail_sum_is_closed_form():
    # spacing 0.01: a kernel radius of 3.2e6 samples at s = -2e7 and 3.2e8
    # at s = -2e11; the normalising sum must not walk either tail
    axis = Grid1D(0.0, 0.04, 5)
    pix = np.sqrt(1e7) / axis.spacing
    x = np.arange(-int(10.0 * pix + 0.5), int(10.0 * pix + 0.5) + 1)
    direct = np.exp(-0.5 / (pix * pix) * np.subtract.outer(
        np.arange(5), np.arange(5)) ** 2) / np.exp(-0.5 / (pix * pix) * x ** 2).sum()
    a = _gaussian_matrix(axis, np.sqrt(1e7))
    assert np.abs(a / direct - 1.0).max() <= 1e-15
    w = WignerGrid(axis, axis, np.ones((5, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        start = time.perf_counter()
        s_smooth(w, -2e11)
        assert time.perf_counter() - start < 0.1


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


# ------------------------------------------------------- WignerGrid

def test_wigner_grid_validation():
    with pytest.raises(ValidationError):
        WignerGrid(GAMMA, DELTA, np.zeros((3, 3)))
    vals = np.zeros((GAMMA.n_points, DELTA.n_points))
    vals[0, 0] = np.nan
    with pytest.raises(ValidationError):
        WignerGrid(GAMMA, DELTA, vals)
