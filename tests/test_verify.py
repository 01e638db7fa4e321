"""The self-check battery: claim bookkeeping and reproducibility."""

import math

import numpy as np
import pytest

from wsim import DetectorModel, run_verification, verify
from wsim.witness import _witness_states, witness_ratio_closed_form


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


def witness_claim_one_stack(rng, count):
    """The witness claim with all items drawn first and read out as one stack."""
    items, dets = [], []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        coeffs = verify._random_coefficients(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        items.append((coeffs, int(i), int(j)))
        dets.append(DetectorModel(float(rng.uniform(0.05, 1.0))))
    sims = _witness_states(items, [det.eta for det in dets])
    res = 0.0
    worst_ratio = -math.inf
    for (coeffs, i, j), det, sim in zip(items, dets, sims):
        closed = witness_ratio_closed_form(coeffs.alphas[i], coeffs.alphas[j], det)
        res = max(res, abs(sim.ratio - closed))
        worst_ratio = max(worst_ratio, sim.ratio, closed)
    return res, worst_ratio


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_witness_claim_in_slices_equals_one_stack(seed):
    sliced_rng, stack_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert verify._witness_claim(sliced_rng, 1000) == witness_claim_one_stack(stack_rng, 1000)
    # the slices make the same generator calls
    assert sliced_rng.bit_generator.state == stack_rng.bit_generator.state
