import numpy as np
import pytest
from scipy.special import erf

from radwig import (BasisMismatchError, DomainError, Grid1D, SchwingerLabel, TruncationError, TruncationWarning,
                    ValidationError, WavefunctionR, WavefunctionV,
                    apply_displacement, apply_pd,
                    apply_pr, dilaton_coherent, dilaton_vacuum, expectation,
                    momentum_transform, radial_wavefunction,
                    vbar_schwinger_l0)
from radwig.operators import _displace

SQRT2 = np.sqrt(2.0)


def make_vacuum(grid=None):
    grid = grid or Grid1D(-10.0, 10.0, 2001)
    return WavefunctionV(grid, dilaton_vacuum("vbar", grid.points))


def l2(samples, spacing):
    return np.sqrt(np.sum(np.abs(samples) ** 2) * spacing)


# ----------------------------------------------------------------- PD

def test_pd_annihilates_inverse_sqrt():
    r = np.linspace(0.05, 5.0, 1200)
    samples = r ** -0.5 / np.sqrt(r[-1] - r[0])   # unit norm against r dr
    psi = WavefunctionR(r, samples)
    out = apply_pd(psi)
    # away from the small-r region, where the profile's fifth derivative
    # no longer dominates the h^4 stencil error
    interior = (r > 0.5) & (r < r[-1] - 10 * psi.spacing)
    assert np.abs(out[interior]).max() < 1e-6


def test_pd_gaussian_symbolic_oracle():
    r = np.linspace(0.02, 8.0, 2500)
    samples = SQRT2 * np.exp(-r ** 2 / 2)         # normalized against r dr
    psi = WavefunctionR(r, samples, norm_tol=1e-3)   # window misses [0, 0.02)
    out = apply_pd(psi)
    oracle = -1j * (-r + 1.0 / (2 * r)) * samples
    interior = slice(5, -5)
    rel = np.abs(out[interior] - oracle[interior]) / np.abs(oracle[interior])
    assert rel.max() < 1e-6


def test_pd_canonical_commutator():
    # [r, PD] psi = i psi
    r = np.linspace(0.02, 8.0, 2500)
    psi = WavefunctionR(r, radial_wavefunction(SchwingerLabel(1, 1), r))
    r_pd = r * apply_pd(psi)
    pd_r = apply_pd(WavefunctionR(r, r * psi.samples, norm_tol=None))
    resid = r_pd - pd_r - 1j * psi.samples
    h = r[1] - r[0]
    assert np.sqrt(np.sum(r * np.abs(resid) ** 2) * h) < 1e-6


def test_pd_requires_r_basis_and_enough_points():
    with pytest.raises(BasisMismatchError):
        apply_pd(make_vacuum())
    tiny = WavefunctionR(np.linspace(1.0, 2.0, 4), np.ones(4), norm_tol=None)
    with pytest.raises(ValidationError):
        apply_pd(tiny)


# ----------------------------------------------------------------- Pr

def test_pr_on_vacuum_symbolic_oracle():
    psi = make_vacuum()
    v = psi.grid.points
    out = apply_pr(psi)
    # -i d/dv of the Gaussian gives +i v psi
    assert np.abs(out - 1j * v * psi.samples).max() < 1e-8


def test_pr_windowed_plane_wave():
    grid = Grid1D(-12.0, 12.0, 2401)
    v = grid.points
    k = 3.0
    window = 0.5 * (erf((v + 6.0)) - erf((v - 6.0)))
    samples = np.exp(1j * k * v) * window
    samples /= l2(samples, grid.spacing)
    psi = WavefunctionV(grid, samples)
    out = apply_pr(psi)
    core = np.abs(v) <= 2.0
    rel = np.abs(out[core] - k * psi.samples[core]) / np.abs(psi.samples[core])
    assert rel.max() < 1e-6


def test_pr_expectation_on_boosted_coherent():
    psi = dilaton_coherent(1j / SQRT2, Grid1D(-10.0, 10.0, 2001))
    val = np.sum(np.conj(psi.samples) * apply_pr(psi)).real * psi.grid.spacing
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n_points", [2000, 2001], ids=["even", "odd"])
def test_pr_matches_exact_derivative_on_either_parity(n_points):
    # an even grid has a Nyquist wavenumber, whose odd-derivative weight
    # is zeroed; it stays as exact as the odd grid on a band-limited state
    alpha = 0.3 + 0.2j
    psi = dilaton_coherent(alpha, Grid1D(-10.0, 10.0, n_points))
    v0, p0 = SQRT2 * alpha.real, SQRT2 * alpha.imag
    exact = (p0 + 1j * (psi.grid.points - v0)) * psi.samples   # -i psi'
    assert np.abs(apply_pr(psi) - exact).max() < 1e-12


def test_pr_r_basis_form():
    # -i (r d/dr + 1) on the scale-invariant profile 1/r gives zero
    r = np.linspace(0.1, 5.0, 1000)
    psi = WavefunctionR(r, 1.0 / r, norm_tol=None)
    out = apply_pr(psi)
    assert np.abs(out[r > 1.5]).max() < 1e-9


def test_pr_edge_warning():
    grid = Grid1D(-2.0, 2.0, 401)
    samples = np.pi ** -0.25 * np.exp(-grid.points ** 2 / 2)
    psi = WavefunctionV(grid, samples, norm_tol=0.2)
    with pytest.warns(TruncationWarning):
        apply_pr(psi)


# --------------------------------------------------------- displacement

def test_displacement_identity():
    psi = make_vacuum()
    out = apply_displacement(0.0, 0.0, psi)
    assert np.abs(out.samples - psi.samples).max() < 1e-14


def test_displacement_scales_radius_expectation():
    psi = dilaton_coherent(0.3 + 0.2j, Grid1D(-10.0, 10.0, 2001))
    before = expectation("R", psi).real
    for lam, mu in [(-1.0, -1.0), (0.0, 0.7), (1.0, 0.25), (0.4, -0.8)]:
        after = expectation("R", apply_displacement(lam, mu, psi)).real
        assert after == pytest.approx(np.exp(-mu) * before, rel=1e-6)


def test_displacement_boosts_momentum_expectation():
    psi = dilaton_coherent(0.3 + 0.2j, Grid1D(-10.0, 10.0, 2001))
    before = expectation("Pr", psi).real
    for lam, mu in [(-1.0, 0.5), (0.6, -0.4), (1.0, 1.0)]:
        after = expectation("Pr", apply_displacement(lam, mu, psi)).real
        assert after == pytest.approx(before + lam, abs=1e-8)


def test_displacement_composition():
    psi = make_vacuum()
    one = apply_displacement(0.0, 0.75, apply_displacement(0.0, -0.35, psi))
    two = apply_displacement(0.0, 0.4, psi)
    assert l2(one.samples - two.samples, psi.grid.spacing) < 1e-8


def test_displacement_truncation_error():
    psi = dilaton_coherent(0.0, Grid1D(-6.0, 6.0, 1201))
    with pytest.raises(TruncationError) as info:
        apply_displacement(0.0, 5.0, psi)
    assert info.value.lost_mass > 1e-8


def test_displacement_is_unitary():
    psi = make_vacuum()
    out = apply_displacement(0.8, -0.6, psi)
    assert out.norm() == pytest.approx(psi.norm(), abs=1e-12)


def _stack(grid):
    return [make_vacuum(grid), dilaton_coherent(0.4 + 0.3j, grid),
            dilaton_coherent(-0.6 + 0.8j, grid)]


@pytest.mark.parametrize("lam, mu", [(0.0, 0.0), (0.7, 0.35), (-1.2, -0.8)])
def test_stacked_displacement_matches_rows(lam, mu):
    grid = Grid1D(-10.0, 10.0, 2001)
    states = _stack(grid)
    stacked = _displace(grid, np.array([s.samples for s in states]), lam, mu)
    for row, psi in zip(stacked, states):
        assert np.abs(row - apply_displacement(lam, mu, psi).samples).max() <= 1e-15


def test_stacked_displacement_reports_the_edge_row():
    grid = Grid1D(-10.0, 10.0, 2001)
    states = _stack(grid)

    def packet(center):
        return np.pi ** -0.25 * np.exp(-(grid.points - center) ** 2 / 2)

    edge = WavefunctionV(grid, packet(-6.5))
    with pytest.raises(TruncationError) as single:
        apply_displacement(0.0, 2.0, edge)
    # a second row loses ~2e-4, so a stack-wide sum would not match
    stack = np.array([s.samples for s in states[:2]] + [edge.samples]
                     + [packet(-5.5), states[2].samples])
    with pytest.raises(TruncationError) as stacked:
        _displace(grid, stack, 0.0, 2.0)
    assert stacked.value.lost_mass > 1e-8
    assert stacked.value.lost_mass == pytest.approx(single.value.lost_mass,
                                                    rel=0, abs=1e-15)
    assert str(stacked.value) == str(single.value)


def test_stacked_displacement_identity():
    grid = Grid1D(-10.0, 10.0, 2001)
    stack = np.array([s.samples for s in _stack(grid)])
    assert np.abs(_displace(grid, stack, 0.0, 0.0) - stack).max() <= 1e-15


# ----------------------------------------------------- momentum transform

def test_momentum_transform_vacuum_gaussian_pair():
    psi = make_vacuum()
    p = Grid1D(-10.0, 10.0, 2001)
    out = momentum_transform(psi, p)
    oracle = np.pi ** -0.25 * np.exp(-p.points ** 2 / 2)
    assert np.abs(out - oracle).max() < 1e-10


def test_momentum_transform_real_displacement_keeps_center():
    psi = dilaton_coherent(1.0 / SQRT2, Grid1D(-10.0, 10.0, 2001))
    p = Grid1D(-8.0, 8.0, 1601)
    out = momentum_transform(psi, p)
    density = np.abs(out) ** 2
    center = np.sum(p.points * density) * p.spacing
    assert abs(center) < 1e-8


def test_momentum_transform_parseval():
    psi = dilaton_coherent(0.4 - 0.3j, Grid1D(-10.0, 10.0, 2001))
    p = Grid1D(-12.0, 12.0, 2401)
    out = momentum_transform(psi, p)
    assert np.sum(np.abs(out) ** 2) * p.spacing == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------- expectation

def test_expectation_position_of_vacuum():
    assert abs(expectation("V", make_vacuum())) < 1e-10


def test_expectation_radius_of_vacuum():
    # Gaussian integral: int e^v pi^{-1/2} e^{-v^2} dv = e^{1/4}
    from scipy.integrate import quad
    oracle, _ = quad(lambda v: np.exp(v) * np.pi ** -0.5 * np.exp(-v ** 2),
                     -12, 12)
    val = expectation("R", make_vacuum()).real
    assert val == pytest.approx(oracle, rel=1e-10)
    assert val == pytest.approx(np.exp(0.25), rel=1e-8)
    assert val == pytest.approx(1.28403, abs=1e-5)


def test_expectation_momentum_of_real_state():
    # the exp(v) left tail needs v ~ -24 to drop below the edge threshold
    grid = Grid1D(-24.0, 4.0, 2801)
    psi = WavefunctionV(grid, vbar_schwinger_l0(2, grid.points))
    assert abs(expectation("Pr", psi)) < 1e-9


@pytest.mark.parametrize("l, m, mean_r", [
    (0, 0, np.sqrt(np.pi) / 2),
    ("1/2", "1/2", 3 * np.sqrt(np.pi) / 4),
    (1, 1, 15 * np.sqrt(np.pi) / 16),
], ids=["R00", "R(1/2,1/2)", "R11"])
def test_expectation_on_r_basis_states(l, m, mean_r):
    # <r> of the nodeless level alpha = 2|m| is Gamma(alpha + 3/2) / alpha!;
    # the unsampled strip [0, 0.001] holds ~1e-6 of R00's norm and ~7e-10
    # of its <r>
    r = np.linspace(0.001, 12.0, 12000)
    psi = WavefunctionR(r, radial_wavefunction(SchwingerLabel(l, m), r),
                        norm_tol=1e-5)
    val = expectation("R", psi)
    assert val.imag == 0.0
    assert val.real == pytest.approx(mean_r, abs=2e-9)


def test_pr_expectation_error_names_the_first_radius():
    # for m = 0, R(0) = sqrt(2): the boundary term r^2 |psi|^2 / 2 at the
    # first radius 0.001 is 1e-6, above the 1e-9 imaginary-part threshold
    r = np.linspace(0.001, 12.0, 12000)
    psi = WavefunctionR(r, radial_wavefunction(SchwingerLabel(0, 0), r),
                        norm_tol=1e-5)
    with pytest.raises(ValidationError,
                       match=r"boundary term r\^2 \|psi\|\^2 / 2 is 1\.000e-06 at "
                             r"the first radius r_min = 0\.001 .*start the "
                             r"radii nearer 0"):
        expectation("Pr", psi)


def test_expectation_of_log_radius_on_r_basis_state():
    # <ln r> of R11 is digamma(3) / 2 = (3/2 - Euler's gamma) / 2
    r = np.linspace(0.001, 12.0, 12000)
    psi = WavefunctionR(r, radial_wavefunction(SchwingerLabel(1, 1), r))
    val = expectation("V", psi)
    assert val.real == pytest.approx((1.5 - np.euler_gamma) / 2, abs=1e-9)


def test_expectation_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        expectation("PD", make_vacuum())
    with pytest.raises(BasisMismatchError):
        expectation("V", np.ones(5))


def test_operator_action_validation():
    # the kinds are PD, Pr, V and R; a displacement's expectation is an
    # inner product with apply_displacement's result, on the vacuum
    # <D(lam, mu)> = exp(-(lam^2 + mu^2) / 4)
    psi = make_vacuum()
    for kind in ("Q", "D", "pr"):
        with pytest.raises(DomainError, match="unknown operator kind"):
            expectation(kind, psi)
    out = apply_displacement(0.5, -0.25, psi)
    val = np.sum(np.conj(psi.samples) * out.samples) * psi.grid.spacing
    assert abs(val - np.exp(-(0.5 ** 2 + 0.25 ** 2) / 4)) < 1e-12


@pytest.mark.parametrize("lam, mu", [(np.array([0.1, 0.2]), 0.3),
                                     (0.1, np.array([0.3, 0.4])),
                                     ([0.1], 0.0)],
                         ids=["array-lam", "array-mu", "list-lam"])
def test_displacement_parameters_must_be_scalars(lam, mu):
    with pytest.raises(DomainError, match="scalars"):
        apply_displacement(lam, mu, make_vacuum())


# ------------------------------------------------------ algebra residuals

def test_weyl_commutator_residual():
    psi = dilaton_coherent(0.5 + 0.4j, Grid1D(-10.0, 10.0, 2001))
    v = psi.grid.points
    vp = WavefunctionV(psi.grid, v * psi.samples, norm_tol=None)
    resid = v * apply_pr(psi) - apply_pr(vp) - 1j * psi.samples
    assert l2(resid, psi.grid.spacing) < 1e-6


def test_dilation_commutator_residual_r_basis():
    r = np.linspace(0.004, 10.0, 2500)
    psi = WavefunctionR(r, radial_wavefunction(SchwingerLabel(2, 1), r))
    rp = WavefunctionR(r, r * psi.samples, norm_tol=None)
    resid = r * apply_pr(psi) - apply_pr(rp) - 1j * r * psi.samples
    h = r[1] - r[0]
    assert np.sqrt(np.sum(r * np.abs(resid) ** 2) * h) < 1e-6


def test_exponentiated_dilation_scaling():
    psi = dilaton_coherent(0.2 + 0.1j, Grid1D(-10.0, 10.0, 2001))
    before = expectation("R", psi).real
    for sigma in (-1.0, -0.3, 0.5, 1.0):
        shifted = apply_displacement(0.0, -sigma, psi)
        after = expectation("R", shifted).real
        assert after == pytest.approx(np.exp(sigma) * before, rel=1e-6)


def test_vacuum_annihilation_residual():
    psi = make_vacuum()
    v = psi.grid.points
    resid = (v * psi.samples + 1j * apply_pr(psi)) / SQRT2
    assert l2(resid, psi.grid.spacing) < 1e-6


def test_pr_symmetric_on_decayed_pairs():
    grid = Grid1D(-10.0, 10.0, 2001)
    phi = dilaton_coherent(0.5, grid)
    psi = dilaton_coherent(-0.2 + 0.6j, grid)
    h = grid.spacing
    lhs = np.sum(np.conj(phi.samples) * apply_pr(psi)) * h
    rhs = np.sum(np.conj(apply_pr(phi)) * psi.samples) * h
    assert abs(lhs - rhs) < 1e-8
