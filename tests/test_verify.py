"""The self-check battery: claim bookkeeping and reproducibility."""

import pytest

from wsim import run_verification


def test_all_claims_pass_at_default_tolerances(verification):
    results = verification(seed=1)
    assert len(results) >= 20
    ids = [r.claim_id for r in results]
    assert len(set(ids)) == len(ids)
    for r in results:
        assert r.passed, f"{r.claim_id}: residual {r.residual} > {r.tolerance}"
        assert r.passed == (r.residual <= r.tolerance)
        assert r.description


def test_tolerance_override_replaces_defaults(verification):
    results = verification(seed=1, tolerance=1e-15)
    assert all(r.tolerance == 1e-15 for r in results)
    # a few claims rely on quadrature or stochastic estimates and cannot
    # reach 1e-15; the battery must report that honestly
    assert any(not r.passed for r in results)


class _BatteryStarted(Exception):
    pass


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_smallest_tolerances_accepted(tol, monkeypatch):
    # negative, NaN and infinite values are rejected (see test_cli); stop at
    # the first random draw so the battery itself does not run
    def stop(seed):
        raise _BatteryStarted

    monkeypatch.setattr("wsim.verify.np.random.default_rng", stop)
    with pytest.raises(_BatteryStarted):
        run_verification(seed=1, tolerance=tol)
