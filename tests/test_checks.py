import pytest

from radwig.checks import available_invariants, run_invariants


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
