"""The self-check battery: claim bookkeeping and reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

from wsim import TOL, DetectorModel, run_verification, verify
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


# Every tolerance as it stands.  A change may tighten one of them, never
# loosen it; a new TOL field or claim is pinned here when it is added.
PINNED_TOL = {
    "hermiticity": 1e-12,
    "positivity": 1e-10,
    "trace": 1e-12,
    "norm": 1e-12,
    "unitarity": 1e-12,
    "support": 1e-12,
    "povm": 1e-12,
    "violation": 1e-12,
    "closed_form": 1e-10,
    "exact_match": 1e-12,
    "state_match": 1e-11,
    "protocol_match": 1e-8,
    "average_match": 1e-6,
    "bound_slack": 1e-9,
    "golden_section": 1e-10,
    "bisection": 1e-10,
    "bisection_onoff": 1e-9,
}
PINNED_CLAIM_TOLERANCES = {
    "symmetric-coefficients": 1e-12,
    "chain-product-formula": 1e-12,
    "coefficient-round-trip": 1e-10,
    "witness-closed-vs-simulated": 1e-10,
    "witness-universal-violation": 0.0,
    "symmetric-trio-ratio": 1e-12,
    "thinning-vs-ancilla-loss": 1e-10,
    "detector-backend-agreement": 1e-12,
    "resource-closed-form": 1e-12,
    "bob-state-closed-form": 1e-11,
    "event-probability": 1e-11,
    "averaged-closed-vs-moments": 1e-8,
    "averaged-quadrature": 1e-8,
    "averaged-monte-carlo": 5.0,
    "optimal-angle": 1e-8,
    "max-fidelity-closed-form": 1e-8,
    "critical-eta-constants": 1e-12,
    "critical-eta-bisection": 1e-9,
    "onoff-maximum-grid": 1e-8,
    "onoff-critical-values": 5e-3,
    "ideal-pair-teleportation": 1e-12,
    "rejected-events-bound": 1e-9,
    "orderings": 0.0,
}


def test_tol_fields_never_looser():
    fields = dataclasses.asdict(TOL)
    assert fields.keys() == PINNED_TOL.keys()
    assert {k: v for k, v in fields.items() if not v <= PINNED_TOL[k]} == {}


def test_claim_tolerances_never_looser(verification):
    results = verification(seed=1)
    assert [r.claim_id for r in results] == list(PINNED_CLAIM_TOLERANCES)
    loosened = {
        r.claim_id: r.tolerance
        for r in results
        if not r.tolerance <= PINNED_CLAIM_TOLERANCES[r.claim_id]
    }
    assert loosened == {}


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
