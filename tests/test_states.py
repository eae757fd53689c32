import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from radwig import (BasisMismatchError, DomainError, Grid1D, SchwingerLabel,
                    TruncationError, TruncationWarning, ValidationError,
                    WavefunctionR, WavefunctionV,
                    apply_displacement, default_vbar_grid, dilaton_coherent,
                    dilaton_vacuum, radial_wavefunction, to_vbar,
                    vbar_schwinger_l0)

from reference import scipy_psi

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------- labels

def test_label_validation():
    lab = SchwingerLabel(2, 1)
    assert (lab.n_plus, lab.n_minus) == (3, 1)
    half = SchwingerLabel("1/2", "1/2")
    assert (half.n_plus, half.n_minus) == (1, 0)
    with pytest.raises(DomainError):
        SchwingerLabel(1, 0.4)
    with pytest.raises(DomainError):
        SchwingerLabel(1, 2)         # l - m < 0


# ------------------------------------------------- radial wavefunctions

def test_radial_wavefunction_at_origin_limits():
    assert radial_wavefunction(SchwingerLabel(0, 0), 1e-8) == pytest.approx(
        SQRT2, rel=1e-6)
    assert radial_wavefunction(SchwingerLabel(1, 0), 1e-8) == pytest.approx(
        -SQRT2, rel=1e-6)
    with pytest.raises(DomainError):
        radial_wavefunction(SchwingerLabel(0, 0), 0.0)
    with pytest.raises(DomainError):
        radial_wavefunction(SchwingerLabel(0, 0), -1.0)


def test_eigenfunctions_past_overflow_are_exactly_zero():
    # e^{2v} overflows at vbar ~ 354.9 (r ~ 1.3e154), and the degree-64
    # recurrence overflows from vbar ~ 177.4 on; the true value is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert radial_wavefunction(SchwingerLabel(2, 1), 1e200) == 0.0
        assert vbar_schwinger_l0(2, 400.0) == 0.0
        pair = vbar_schwinger_l0(1, np.array([0.0, 400.0]))
        assert pair[1] == 0.0
        assert vbar_schwinger_l0(64, 180.0) == 0.0


@pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2),
                                 ("5/2", "1/2")])
def test_radial_normalization_by_quadrature(l, m):
    lab = SchwingerLabel(l, m)
    val, err = quad(lambda r: r * radial_wavefunction(lab, r) ** 2,
                    1e-12, 12.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_oscillator_length_is_a_scale_displacement():
    # the level of length beta, beta R(beta r), is D(0, ln beta) of the
    # unit-length level: a translation of vbar by ln beta
    lab, beta = SchwingerLabel(1, 1), 2.0
    grid = default_vbar_grid()
    psi = to_vbar(lambda r: radial_wavefunction(lab, r), grid)
    shifted = apply_displacement(0.0, np.log(beta), psi)
    r = np.exp(grid.points)
    oracle = r * beta * radial_wavefunction(lab, beta * r)
    assert np.abs(shifted.samples - oracle).max() < 1e-11


def test_radial_l1m1_shape_and_ode_oracle():
    """(l, m) = (1, 1): no node, peak at r = sqrt(2), and agreement with a
    brute-force finite-difference eigensolve of the radial problem."""
    lab = SchwingerLabel(1, 1)
    r = np.linspace(0.01, 8.0, 1600)
    vals = radial_wavefunction(lab, r)
    assert np.all(vals > 0)
    assert r[np.argmax(vals)] == pytest.approx(np.sqrt(2.0), abs=0.01)

    # substitute u = sqrt(r) R: -(1/2) u'' + [((2m)^2 - 1/4)/(2 r^2)
    # + r^2/2] u = E u, plain dr measure, Dirichlet box
    n, rmax = 4000, 12.0
    h = rmax / (n + 1)
    rr = h * np.arange(1, n + 1)
    diag = 1.0 / h ** 2 + (4.0 - 0.25) / (2.0 * rr ** 2) + rr ** 2 / 2.0
    off = -0.5 / h ** 2 * np.ones(n - 1)
    energies, vectors = eigh_tridiagonal(diag, off, select="i",
                                         select_range=(0, 0))
    assert energies[0] == pytest.approx(3.0, abs=1e-4)
    u = vectors[:, 0]
    u /= np.sqrt(np.sum(u ** 2) * h)
    u *= np.sign(u[np.argmax(np.abs(u))])
    u_closed = np.sqrt(rr) * radial_wavefunction(lab, rr)
    assert np.sqrt(np.sum((u - u_closed) ** 2) * h) < 1e-4


# ------------------------------------------------------- log-radius form

def test_vbar_schwinger_matches_formula_and_radial():
    v = np.linspace(-6.0, 3.0, 181)
    for l in range(4):
        formula = scipy_psi(l, 0, v)
        direct = vbar_schwinger_l0(l, v)
        via_radial = np.exp(v) * radial_wavefunction(
            SchwingerLabel(l, 0), np.exp(v))
        assert np.all(np.abs(direct - formula) < 1e-12), l
        assert np.all(np.abs(via_radial - formula) < 1e-12), l


def test_vbar_schwinger_point_values():
    assert vbar_schwinger_l0(0, 0.0) == pytest.approx(
        SQRT2 * np.exp(-0.5), rel=1e-12)
    assert vbar_schwinger_l0(0, 0.0) == pytest.approx(0.857763, abs=1e-6)
    assert vbar_schwinger_l0(1, 0.0) == 0.0
    # log-safe far to the right: underflows cleanly to zero
    assert vbar_schwinger_l0(3, 10.0) == 0.0
    assert np.isfinite(vbar_schwinger_l0(3, 8.0))


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_vbar_schwinger_unit_norm_by_quadrature(l):
    val, _ = quad(lambda v: vbar_schwinger_l0(l, v) ** 2, -30.0, 4.0,
                  limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_vbar_orthonormality():
    grid = Grid1D(-12.0, 4.0, 1601)
    v = grid.points
    psis = [vbar_schwinger_l0(l, v) for l in range(6)]
    for i in range(6):
        for j in range(6):
            val = np.sum(psis[i] * psis[j]) * grid.spacing
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


# ---------------------------------------------------------- basis change

def test_to_vbar_closed_form_matches_product_formula():
    grid = default_vbar_grid()
    psi = to_vbar(lambda r: radial_wavefunction(SchwingerLabel(0, 0), r), grid)
    expected = SQRT2 * np.exp(grid.points - np.exp(2 * grid.points) / 2)
    assert np.abs(psi.samples - expected).max() < 1e-12


def test_to_vbar_closed_form_norm_exact():
    # on a window holding all but ~4e-11 of the state, the closed-form
    # path must reproduce the norm to 1e-10
    grid = Grid1D(-12.0, 4.0, 1601)
    psi = to_vbar(lambda r: radial_wavefunction(SchwingerLabel(0, 0), r), grid)
    assert psi.norm() == pytest.approx(1.0, abs=1e-10)


def test_to_vbar_refuses_sampled_states():
    r = np.linspace(0.02, 10.0, 3000)
    psi_r = WavefunctionR(r, radial_wavefunction(SchwingerLabel(1, 1), r))
    with pytest.raises(BasisMismatchError, match="callable"):
        to_vbar(psi_r, Grid1D(-3.5, 2.2, 1001))


# -------------------------------------------------------- vacuum states

def test_vacuum_point_values():
    assert dilaton_vacuum("vbar", 0.0) == pytest.approx(np.pi ** -0.25,
                                                        rel=1e-12)
    assert dilaton_vacuum("vbar", 0.0) == pytest.approx(0.751126, abs=1e-6)
    assert dilaton_vacuum("r", 1.0) == pytest.approx(np.pi ** -0.25, rel=1e-12)
    with pytest.raises(DomainError):
        dilaton_vacuum("r", 0.0)
    with pytest.raises(DomainError):
        dilaton_vacuum("x", 0.0)


def test_vacuum_vbar_norm_gaussian_oracle():
    # integral of exp(-v^2) is sqrt(pi), so the norm constant is pi^{-1/4}
    val, _ = quad(lambda v: dilaton_vacuum("vbar", v) ** 2, -12.0, 12.0)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_vacuum_r_basis_unit_norm():
    val, _ = quad(lambda r: r * abs(dilaton_vacuum("r", r)) ** 2,
                  0.0, np.inf, limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------- coherent states

def test_coherent_zero_is_vacuum():
    grid = Grid1D(-8.0, 8.0, 1601)
    psi = dilaton_coherent(0.0, grid)
    assert np.abs(psi.samples - dilaton_vacuum("vbar", grid.points)).max() < 1e-14


def test_coherent_position_expectation():
    grid = Grid1D(-10.0, 10.0, 2001)
    psi = dilaton_coherent(1.0 / SQRT2, grid)
    mean = np.sum(grid.points * np.abs(psi.samples) ** 2) * grid.spacing
    assert mean == pytest.approx(1.0, abs=1e-8)
    # minimum-uncertainty width
    var = np.sum((grid.points - mean) ** 2 * np.abs(psi.samples) ** 2) \
        * grid.spacing
    assert np.sqrt(var) == pytest.approx(1.0 / SQRT2, abs=1e-8)


def test_coherent_momentum_expectation_spectral_oracle():
    grid = Grid1D(-10.0, 10.0, 2001)
    psi = dilaton_coherent(1j / SQRT2, grid)
    # independent spectral-derivative oracle
    k = 2 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    dpsi = np.fft.ifft(1j * k * np.fft.fft(psi.samples))
    mean_p = np.sum(np.conj(psi.samples) * (-1j) * dpsi).real * grid.spacing
    assert mean_p == pytest.approx(1.0, abs=1e-8)


def test_coherent_truncation_warning():
    # lost = 0.404: past the 1e-8 warning rule, short of the 1/2 error rule
    with pytest.warns(TruncationWarning):
        psi = dilaton_coherent(2.0, Grid1D(-3.0, 3.0, 301))
    assert psi.meta["lost_mass"] == pytest.approx(0.404, abs=1e-3)


@pytest.mark.parametrize("alpha", [1e200, -1e200, 5.0])
def test_coherent_off_the_grid_raises(alpha):
    # the grid holds less than half the state: an error, not a warning
    # followed by samples that are all zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError, match="holds only") as info:
            dilaton_coherent(alpha, Grid1D(-3.0, 3.0, 101))
    assert info.value.lost_mass > 0.5


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                   complex(0.0, float("-inf")), 1.5e308j])
def test_coherent_rejects_a_non_finite_alpha(alpha):
    # 1.5e308j is finite, but p0 = sqrt(2) Im alpha overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="sqrt\\(2\\) alpha must be finite"):
            dilaton_coherent(alpha, Grid1D(-3.0, 3.0, 101))


# ------------------------------------------------------------ validation

def test_wavefunction_norm_validation():
    grid = Grid1D(-5.0, 5.0, 101)
    with pytest.raises(ValidationError):
        WavefunctionV(grid, np.ones(101))
    # norm_tol=None admits raw data
    raw = WavefunctionV(grid, np.ones(101), norm_tol=None)
    assert raw.norm() > 1.0


def test_wavefunction_r_validation():
    with pytest.raises(DomainError):
        WavefunctionR(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        WavefunctionR(np.array([1.0, 0.5]), np.array([1.0, 1.0]))


def test_wavefunction_v_rejects_bad_samples():
    grid = Grid1D(-5.0, 5.0, 101)
    with pytest.raises(ValidationError, match="shape"):
        WavefunctionV(grid, np.ones(100), norm_tol=None)
    bad = np.ones(101)
    bad[50] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        WavefunctionV(grid, bad, norm_tol=None)


def test_wavefunction_r_rejects_bad_samples():
    r = np.linspace(0.1, 5.0, 50)
    with pytest.raises(ValidationError, match="two radius samples"):
        WavefunctionR(r[:1], np.ones(1), norm_tol=None)
    with pytest.raises(ValidationError, match="same length"):
        WavefunctionR(r, np.ones(49), norm_tol=None)
    bad = np.ones(50)
    bad[7] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        WavefunctionR(r, bad, norm_tol=None)
    with pytest.raises(ValidationError, match="norm"):
        WavefunctionR(r, np.ones(50))
