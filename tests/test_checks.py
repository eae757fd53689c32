import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import radwig.checks
from radwig import laguerre_assoc
from radwig.checks import (_PACKET_WIDTH, _check_laguerre_recurrence,
                           _laguerre_draws, _packet_kernel, _trace_kernel_terms,
                           _trace_packets, available_invariants, run_invariants)
from reference import laguerre_explicit, trace_kernel_sandwich


def test_registry_names_are_stable():
    names = available_invariants()
    assert "weyl-commutator" in names
    assert "displacement-trace-kernel" in names
    assert len(names) == len(set(names))


def test_unknown_invariant_rejected():
    with pytest.raises(KeyError):
        run_invariants(["not-a-check"])


def test_subset_selection():
    results = run_invariants(["laguerre-recurrence", "laguerre-derivative"])
    assert {r.name for r in results} == {"laguerre-recurrence",
                                         "laguerre-derivative"}


def _zero_tolerances(monkeypatch):
    """Scale every registry tolerance by 0: the failure path, forced."""
    monkeypatch.setattr(radwig.checks, "_REGISTRY", [
        (name, description, 0.0 * tol, fn)
        for name, description, tol, fn in radwig.checks._REGISTRY])


def test_tolerance_scale_forces_failure(monkeypatch):
    _zero_tolerances(monkeypatch)
    results = run_invariants(["laguerre-derivative"])
    assert not results[0].passed
    assert results[0].measured > 0.0
    assert results[0].tolerance == 0.0


def test_full_registry_passes():
    results = run_invariants()
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"invariants out of tolerance: {failing}"
    assert {r.name for r in results} == set(available_invariants())


# each entry's measured value at the last change that moved it, and the
# class of its model line: how far the value may move before it fails
CHECK_VALUES = json.loads(
    (Path(__file__).parent / "check_values.json").read_text(encoding="utf-8"))


def test_check_values_match_their_ledger():
    # a window, truncation or depth value is deterministic: within 1e-6
    # relative.  A rounding value is a maximum of rounding errors, which
    # moves with the BLAS thread count: at most 10x its ledger value.
    # wigner-bound is exactly 0.  A change that moves a value updates the
    # ledger and says why.
    moved = {}
    for r in run_invariants():
        entry = CHECK_VALUES[r.name]
        value = entry["value"]
        if entry["model"] == "rounding":
            held = r.measured <= 10.0 * value
        elif entry["model"] == "exact":
            held = r.measured == value
        else:
            held = abs(r.measured - value) <= 1e-6 * abs(value)
        if not held:
            moved[r.name] = (r.measured, value)
    assert not moved, f"values off their ledger (measured, ledger): {moved}"


def test_wigner_negativity_obeys_tolerance_scale(monkeypatch):
    passing, = run_invariants(["wigner-negativity"])
    assert passing.passed and 0.0 < passing.measured < 1.0
    _zero_tolerances(monkeypatch)
    failing, = run_invariants(["wigner-negativity"])
    assert not failing.passed


def test_integer_laguerre_oracle_matches_the_rational_sum():
    # the invariant's own 200 draws, each against the Fraction sum: the
    # worst relative error is the same float, bit for bit
    worst = 0.0
    for (n, alpha), xs in _laguerre_draws(
            20210, (2, 21), [0.0, 1.0, 2.0, 3.0], (0.0, 50.0)).items():
        values = laguerre_assoc(n, alpha, xs).value
        for x, value in zip(xs.tolist(), values.tolist()):
            exact = laguerre_explicit(n, int(alpha), x)
            worst = max(worst, abs(float((Fraction(value) - exact) / exact)))
    assert 0.0 < worst <= 1e-13
    assert _check_laguerre_recurrence() == worst


def test_laguerre_recurrence_fails_on_one_coefficient_off_by_one(monkeypatch):
    # the constant term of one degree only, 2! L_2^0(x) = x^2 - 4x + 2,
    # raised by one: L_2 moves by 1/2, 5.7e-3 of it at the worst draw
    coefficients = radwig.checks._laguerre_coefficients

    def off_by_one(n, a):
        c = coefficients(n, a)
        if (n, a) == (2, 0):
            c[0] += 1
        return c

    monkeypatch.setattr(radwig.checks, "_laguerre_coefficients", off_by_one)
    res, = run_invariants(["laguerre-recurrence"])
    assert not res.passed
    assert res.measured > 1e-3


@pytest.mark.parametrize("lam0, mu0", [(0.7, 0.2), (0.7, 0.6)])
def test_trace_kernel_adjoint_form_matches_sandwich(lam0, mu0):
    grid, packets, _ = _trace_packets()
    lam_p, mu_p, numeric, _ = _trace_kernel_terms(lam0, mu0)
    for i in (0, 10, 20):                   # the end packets and the middle one
        for k in range(lam_p.size):
            sandwich = trace_kernel_sandwich(grid, packets[i:i + 1], lam0, mu0,
                                             lam_p[k], mu_p[k])
            assert abs(numeric[k, i] - sandwich) <= 1e-14


def test_trace_kernel_value_is_pinned():
    res, = run_invariants(["displacement-trace-kernel"])
    assert res.measured <= 1e-13
    assert res.tolerance == 1e-12 and res.passed


def test_trace_kernel_fails_on_a_v_plus_mu_phase(monkeypatch):
    # e^{i lam mu / 2} turns D's phase e^{i lam (v + mu/2)} into
    # e^{i lam (v + mu)}; one factor per lam, broadcast over the stack
    displace = radwig.checks._displace

    def v_plus_mu(grid, samples, lam, mu):
        phase = np.exp(0.5j * np.asarray(lam) * mu)
        return (phase.reshape(np.shape(lam) + (1,) * samples.ndim)
                * displace(grid, samples, lam, mu))

    monkeypatch.setattr(radwig.checks, "_displace", v_plus_mu)
    res, = run_invariants(["displacement-trace-kernel"])
    assert not res.passed
    assert res.measured > 0.1


def test_trace_kernel_normalisation_follows_from_the_closed_form():
    # Tr[D D'^dag] = 2 pi delta(lam - lam') delta(mu - mu'): smeared over
    # the packets, the closed form's Gaussian factor integrates to
    # 2 w sqrt(pi) over mu', and its centre sum dc sum_c e^{i eta c} to
    # 2 pi over one period 2 pi / dc of eta = lam - lam'
    _, _, centers = _trace_packets()
    w, dc = _PACKET_WIDTH, centers[1] - centers[0]
    mu_p = np.linspace(-1.0, 1.4, 4801)
    gauss = _packet_kernel(0.0, 0.0, 0.2, 0.0, mu_p)    # lam = lam' = 0: no phase
    area = np.trapezoid(gauss.real, mu_p)
    assert area == pytest.approx(2.0 * w * np.sqrt(np.pi), rel=1e-13)
    eta = np.linspace(-np.pi / dc, np.pi / dc, 4001)
    # at mu = mu' = lam' = 0 the closed form is the Gaussian in eta times
    # e^{i eta c}; the centre-0 packet divides the Gaussian out
    comb = dc * sum(_packet_kernel(c, eta, 0.0, 0.0, 0.0) for c in centers) \
        / _packet_kernel(0.0, eta, 0.0, 0.0, 0.0)
    period = np.trapezoid(comb, eta)
    assert period == pytest.approx(2.0 * np.pi, rel=1e-13)
    assert area * period == pytest.approx(2.0 * np.pi * 2.0 * w * np.sqrt(np.pi),
                                          rel=1e-13)


def test_trace_kernel_shifts_the_stack_once_per_mu(monkeypatch):
    # per (lam0, mu0): the left factor and one shift of the packet stack
    # for each of the 9 distinct mu' of the 27 points, so 20 forward FFTs
    fft = np.fft.fft
    calls = []

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    res, = run_invariants(["displacement-trace-kernel"])
    assert res.passed
    assert len(calls) <= 20
