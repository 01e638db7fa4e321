"""Acceptance gate: the twelve headline checks, one reported line each.

Each test prints exactly one ``ACCEPTANCE nn: PASS/FAIL - description`` line
so the suite log shows the full scorecard at a glance.
"""

import math

import numpy as np
import pytest

from wsim import (
    DetectorModel,
    TeleportParams,
    averaged_fidelity_probability,
    bell_events,
    bob_state,
    conditional_resource,
    conditional_resource_closed_form,
    critical_eta,
    critical_eta_bisection,
    event_probability_closed_form,
    generate_w,
    max_fidelity,
    max_fidelity_closed_form,
    nonadvantageous_bound,
    optimal_theta,
    povm_moments,
    reduced_pair,
    scan_all_pairs,
    simulate_averaged,
    symmetric_angles,
    witness_ratio_closed_form,
    witness_ratio_simulated,
)
from wsim.circuits import coefficients_from_angles
from wsim.teleport import _fbar
from wsim.verify import _refine_max

from oracles import random_qubit


def _report(capsys, number, description, body):
    """Run one criterion body; print its single scorecard line."""
    try:
        body()
    except Exception:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number:02d}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:02d}: PASS - {description}")


def _random_coefficient_pair(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    tail = float(rng.uniform(0.0, 0.8))
    a *= math.sqrt(1.0 - tail) / np.linalg.norm(a)
    return complex(a[0]), complex(a[1])


def _random_params(rng, detector_kind=None, event_set=None):
    n = int(rng.integers(2, 9))
    return TeleportParams(
        n,
        int(rng.integers(0, n - 1)),
        float(rng.uniform(0.05, 1.0)),
        float(rng.uniform(0.0, math.pi / 2)),
        detector_kind=detector_kind or ("number", "onoff")[int(rng.integers(2))],
        event_set=event_set or ("D10", "D01", "both")[int(rng.integers(3))],
    )


def test_01_symmetric_generation(capsys):
    def body():
        for n in range(2, 9):
            state = generate_w(symmetric_angles(n))
            target = 1.0 / math.sqrt(n)
            for k in range(n):
                occ = tuple(1 if i == k else 0 for i in range(n))
                amp = state.amplitudes.get(occ, 0.0)
                assert abs(amp - target) < 1e-12

    _report(capsys, 1, "balanced splitter chains emit uniform amplitudes", body)


def test_02_witness_closed_form_matches_simulation(capsys):
    def body():
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            a_i, a_j = _random_coefficient_pair(rng)
            rest = math.sqrt(max(0.0, 1.0 - abs(a_i) ** 2 - abs(a_j) ** 2))
            det = DetectorModel(float(rng.uniform(1e-3, 1.0)))
            closed = witness_ratio_closed_form(a_i, a_j, det)
            rho = reduced_pair((a_i, a_j, complex(rest)), 0, 1)
            sim = witness_ratio_simulated(rho, det)
            assert abs(sim.ratio - closed) < 1e-10
            assert closed < 1.0

    _report(
        capsys,
        2,
        "variance-product ratio: closed form vs interferometer, 1000 draws",
        body,
    )


def test_03_symmetric_trio_ratio(capsys):
    def body():
        w = coefficients_from_angles(symmetric_angles(3))
        rho = reduced_pair(w, 0, 1)
        result = witness_ratio_simulated(rho, DetectorModel(1.0))
        assert abs(result.ratio - 11.0 / 15.0) < 1e-12
        closed = witness_ratio_closed_form(w.alphas[0], w.alphas[1], DetectorModel(1.0))
        assert abs(closed - 11.0 / 15.0) < 1e-12

    _report(capsys, 3, "three-mode balanced pair ratio equals 11/15", body)


def test_04_conditional_resource(capsys):
    def body():
        for n in range(2, 9):
            for m in range(0, n - 1):
                for eta in (0.25, 0.5, 0.75, 1.0):
                    params = TeleportParams(n, m, eta, 0.3)
                    sim = conditional_resource(params)
                    closed = conditional_resource_closed_form(params)
                    assert np.max(np.abs(sim.matrix - closed.matrix)) < 1e-12

    _report(
        capsys,
        4,
        "heralded resource equals Bell-plus-vacuum mixture (N<=8, all m)",
        body,
    )


def test_05_protocol_closed_forms(capsys):
    def body():
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = _random_params(rng)
            qubit = random_qubit(rng)
            event = params.events[0]
            assert (
                abs(
                    bob_state(event, qubit, params).trace()
                    - event_probability_closed_form(event, qubit, params)
                )
                < 1e-8
            )
            report = averaged_fidelity_probability(params)
            f, p = simulate_averaged(params, method="moments")
            assert abs(f - report.avg_fidelity) < 1e-8
            assert abs(p - report.avg_probability) < 1e-8
        for n, m in ((3, 0), (4, 2), (6, 3), (10, 5)):
            for eta in (0.3, 0.7, 1.0):
                closed = optimal_theta(n, m, eta)
                grid = np.linspace(0.0, math.pi / 2, 2001)
                values = [_fbar(TeleportParams(n, m, eta, float(t))) for t in grid]
                k = min(max(int(np.argmax(values)), 1), len(grid) - 2)
                numeric = _refine_max(
                    lambda t: _fbar(TeleportParams(n, m, eta, t)),
                    float(grid[k]),
                    float(grid[1] - grid[0]),
                )
                assert abs(numeric - closed) < 1e-8
                fmax, popt = max_fidelity_closed_form(n, m, eta)
                at_best = TeleportParams(n, m, eta, closed)
                f, p = simulate_averaged(at_best, method="moments")
                assert abs(f - fmax) < 1e-8
                assert abs(p - popt) < 1e-8

    _report(
        capsys,
        5,
        "teleportation probabilities, averages, and optima match simulation",
        body,
    )


def test_06_threshold_constants(capsys):
    def body():
        assert abs(critical_eta(3, 0) - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-15
        assert abs(critical_eta(3, 1) - (2.0 - math.sqrt(2.0)) / 2.0) < 1e-15
        assert abs(critical_eta_bisection(3, 0) - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-9
        assert abs(critical_eta_bisection(3, 1) - (2.0 - math.sqrt(2.0)) / 2.0) < 1e-9

    _report(
        capsys,
        6,
        "trio thresholds (3-sqrt5)/2 and (2-sqrt2)/2: closed form and bisection",
        body,
    )


def test_07_threshold_families(capsys):
    def body():
        for n in range(3, 13):
            assert (
                abs(critical_eta(n, n - 2) - (1.0 - 1.0 / math.sqrt(n - 1.0))) < 1e-12
            )
            if n >= 3:
                family = (2.0 * n - 3.0 - math.sqrt(4.0 * n - 7.0)) / (2.0 * n - 4.0)
                if n == 3:
                    # both families coincide at the smallest network
                    assert abs(critical_eta(3, 0) - family) < 1e-12
                else:
                    assert abs(critical_eta(n, n - 3) - family) < 1e-12

    _report(capsys, 7, "threshold families in closed form for N in [3, 12]", body)


def test_08_onoff_thresholds(capsys):
    eta31 = critical_eta(3, 1, detector_kind="onoff")
    eta30 = critical_eta(3, 0, detector_kind="onoff")

    def body():
        assert abs(eta31 - 0.435) < 5e-3
        assert abs(eta30 - 0.583) < 5e-3
        for n, m, eta in ((3, 1, 0.5), (4, 2, 0.8)):
            report = max_fidelity(n, m, eta, detector_kind="onoff")
            grid = np.linspace(0.0, math.pi / 2, 10_001)
            best = max(
                _fbar(TeleportParams(n, m, eta, float(t), detector_kind="onoff"))
                for t in grid
            )
            assert abs(report.avg_fidelity - best) < 1e-8

    _report(
        capsys,
        8,
        f"on-off thresholds: trio with helper {eta31:.10f}, bare trio {eta30:.10f}",
        body,
    )


def test_09_minimal_network_ideal_case(capsys):
    def body():
        params = TeleportParams(2, 0, 1.0, math.pi / 4, event_set="both")
        report = averaged_fidelity_probability(params)
        assert abs(report.avg_fidelity - 1.0) < 1e-12
        assert abs(report.avg_probability - 0.5) < 1e-12
        for method in ("moments", "quadrature"):
            f, p = simulate_averaged(params, method=method)
            assert abs(f - 1.0) < 1e-12
            assert abs(p - 0.5) < 1e-12

    _report(capsys, 9, "two-party ideal case reaches fidelity 1 at rate 1/2", body)


def test_10_rejected_events_stay_classical(capsys):
    def body():
        rejected = tuple(e for e in bell_events() if not e.advantageous)
        for n, m, eta in ((3, 0, 1.0), (3, 1, 0.7), (4, 2, 0.9)):
            bounds = nonadvantageous_bound(n, m, eta, n_theta=1000, n_phase=64)
            assert set(bounds) == set(rejected)
            for value in bounds.values():
                assert value <= 2.0 / 3.0 + 1e-9

    _report(
        capsys,
        10,
        "no rejected detection event beats the classical fidelity 2/3",
        body,
    )


def test_11_orderings_and_monotonicity(capsys):
    def body():
        # pooling both events never helps, and ties only at the ideal pair
        for n, m, eta in ((2, 0, 1.0), (3, 0, 0.5), (4, 1, 0.8), (6, 3, 1.0)):
            single = max_fidelity(n, m, eta).avg_fidelity
            both = max_fidelity(n, m, eta, event_set="both").avg_fidelity
            assert both <= single + 1e-12
        assert (
            max_fidelity(4, 1, 0.8, event_set="both").avg_fidelity
            < max_fidelity(4, 1, 0.8).avg_fidelity
        )
        # cooperation strictly helps
        for n in (4, 7, 12):
            for eta in (0.5, 1.0):
                fs = [max_fidelity_closed_form(n, m, eta)[0] for m in range(n - 1)]
                assert all(b > a for a, b in zip(fs, fs[1:]))
        # an on-off counter strictly hurts wherever photons can bunch
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 9):
            for eta in (0.4, 0.9):
                f_num = _fbar(TeleportParams(4, 1, eta, float(theta)))
                f_onoff = _fbar(
                    TeleportParams(4, 1, eta, float(theta), detector_kind="onoff")
                )
                assert f_onoff < f_num
        # larger networks need better detectors; cooperation relaxes that
        for m in (0, 1):
            etas = [critical_eta(n, m) for n in range(m + 3, 10)]
            assert all(b > a for a, b in zip(etas, etas[1:]))
        for n in (4, 6, 9):
            etas = [critical_eta(n, m) for m in range(n - 1)]
            assert all(b < a for a, b in zip(etas, etas[1:]))

    _report(capsys, 11, "event pooling, cooperation, and threshold orderings", body)


def test_12_witness_backend_invariance(capsys):
    def body():
        det = DetectorModel(0.6)
        for n in (3, 4, 5):
            w = coefficients_from_angles(symmetric_angles(n))
            report = scan_all_pairs(w, det)
            for result in report.results:
                rho = reduced_pair(w, *result.pair)
                ratios = {}
                for kind in ("number", "onoff"):
                    vx, vy, np_meas = povm_moments(rho, det, kind=kind)
                    ratios[kind] = ((1.0 + 4.0 * vx) * (1.0 + 4.0 * vy)) / (
                        (1.0 + np_meas) ** 2
                    )
                assert abs(ratios["number"] - ratios["onoff"]) < 1e-12
                assert abs(ratios["number"] - result.ratio) < 1e-12

    _report(
        capsys,
        12,
        "witness scan identical under number-resolving and on-off readout",
        body,
    )
