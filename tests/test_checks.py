import numpy as np
import pytest

from radwig import DomainError
from radwig.checks import (_smeared_adjoint, _trace_packets,
                           available_invariants, run_invariants)
from radwig.operators import _displace
from reference import trace_kernel_sandwich


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


def test_tolerance_scale_forces_failure():
    results = run_invariants(["laguerre-derivative"], tolerance_scale=0.0)
    assert not results[0].passed
    assert results[0].measured > 0.0


def test_full_registry_passes():
    results = run_invariants()
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"invariants out of tolerance: {failing}"
    assert {r.name for r in results} == set(available_invariants())


def test_wigner_negativity_obeys_tolerance_scale():
    passing, = run_invariants(["wigner-negativity"])
    assert passing.passed and 0.0 < passing.measured < 1.0
    failing, = run_invariants(["wigner-negativity"], tolerance_scale=0.0)
    assert not failing.passed


@pytest.mark.parametrize("scale", [np.inf, np.nan, -1.0])
def test_tolerance_scale_must_be_finite_and_nonnegative(scale):
    with pytest.raises(DomainError):
        run_invariants(["laguerre-recurrence"], tolerance_scale=scale)


@pytest.mark.parametrize("lam0, mu0", [(0.7, 0.2), (0.7, 0.6)])
def test_trace_kernel_adjoint_form_matches_sandwich(lam0, mu0):
    grid, packets, _ = _trace_packets()
    left = np.conj(_displace(grid, packets, -lam0, -mu0))
    for lam_p, mu_p in [(lam0, mu0), (lam0 + 3.0, mu0), (lam0, mu0 - 0.3),
                        (lam0 + 0.1, mu0 - 0.05)]:
        adjoint = _smeared_adjoint(grid, left, packets, lam_p, mu_p)
        sandwich = trace_kernel_sandwich(grid, packets, lam0, mu0, lam_p, mu_p)
        assert abs(adjoint - sandwich) <= 1e-14
    lam_ps = lam0 + np.array([0.0, 3.0, -1.7, 0.1])
    adjoints = _smeared_adjoint(grid, left, packets, lam_ps, mu0 - 0.05)
    assert adjoints.shape == lam_ps.shape
    for lam_p, adjoint in zip(lam_ps, adjoints):
        sandwich = trace_kernel_sandwich(grid, packets, lam0, mu0, lam_p, mu0 - 0.05)
        assert abs(adjoint - sandwich) <= 1e-14


def test_trace_kernel_value_is_pinned():
    res, = run_invariants(["displacement-trace-kernel"])
    assert res.measured == pytest.approx(0.02207841421620449, rel=1e-12)
    assert res.tolerance == 5e-2 and res.passed


def test_trace_kernel_shifts_the_stack_once_per_lam_chunk(monkeypatch):
    # per mu: the left factor, 10 chunks of the 158 eta values, 41 gaps
    # and the peak, so 106 forward FFTs (402 with one shift per value)
    fft = np.fft.fft
    calls = []

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    res, = run_invariants(["displacement-trace-kernel"])
    assert res.passed
    assert len(calls) <= 110
