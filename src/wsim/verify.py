"""End-to-end verification of the package's analytic claims.

Every claim pits a closed-form statement against an independently computed
numerical route (or a second, structurally different simulation) and
records the worst residual seen against its tolerance, a field of
``config.TOL`` unless the claim says otherwise.  run_verification returns
the ClaimResult records in a fixed order; randomized claims draw from a
single generator seeded by ``seed``, so equal seeds give equal records.

A caller-supplied tolerance replaces every claim's own default.  That is
deliberately blunt: at extreme settings such as 1e-15 the genuinely tight
claims fail, and the failures are reported honestly rather than clamped.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    SplitterAngles,
    WCoefficients,
    angles_from_coefficients,
    coefficients_from_angles,
    generate_w,
    symmetric_angles,
)
from .config import TOL
from .detection import (
    DetectorModel,
    lossy_moments,
    lossy_moments_ancilla,
    povm_moments,
)
from .fock import DensityOperator, FockSpace
from .teleport import (
    TeleportParams,
    UnknownQubit,
    _averaged_moments,
    _curve_on_terms,
    _grid_terms,
    averaged_fidelity_curve,
    averaged_fidelity_probability,
    bob_state,
    bob_state_closed_form,
    conditional_resource,
    conditional_resource_closed_form,
    critical_eta,
    critical_eta_bisection,
    event_probability_closed_form,
    max_fidelity,
    max_fidelity_closed_form,
    mc_averaged,
    nonadvantageous_bound,
    optimal_theta,
    simulate_averaged,
)
from .witness import (
    _witness_states,
    reduced_pair,
    scan_all_pairs,
    witness_ratio_closed_form,
    witness_ratio_simulated,
)


@dataclass(frozen=True)
class ClaimResult:
    """One verified claim: its worst residual against its tolerance."""

    claim_id: str
    description: str
    residual: float
    tolerance: float
    passed: bool


def _random_coefficients(rng: np.random.Generator, n: int) -> WCoefficients:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return WCoefficients(tuple(complex(x) for x in v))


def _random_qubit(rng: np.random.Generator) -> UnknownQubit:
    x = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return UnknownQubit(
        math.sqrt((1.0 + x) / 2.0) * np.exp(-1j * phi), math.sqrt((1.0 - x) / 2.0)
    )


# witness items drawn, reduced and read out together by _witness_claim
_WITNESS_SLICE = 128


def _witness_claim(rng: np.random.Generator, count: int) -> tuple[float, float]:
    """(largest |simulated - closed-form| ratio, largest ratio of either
    route) over ``count`` random witness items.

    Items are drawn with the generator calls of a per-item loop, in
    slices of _WITNESS_SLICE; each slice is reduced and read out as one
    stack by _witness_states, and its items and results are dropped
    before the next slice is drawn."""
    res = 0.0
    worst_ratio = -math.inf
    for start in range(0, count, _WITNESS_SLICE):
        items, dets = [], []
        for _ in range(min(_WITNESS_SLICE, count - start)):
            n = int(rng.integers(2, 7))
            coeffs = _random_coefficients(rng, n)
            i, j = sorted(rng.choice(n, size=2, replace=False))
            items.append((coeffs, int(i), int(j)))
            dets.append(DetectorModel(float(rng.uniform(0.05, 1.0))))
        sims = _witness_states(items, [det.eta for det in dets])
        for (coeffs, i, j), det, sim in zip(items, dets, sims):
            closed = witness_ratio_closed_form(coeffs.alphas[i], coeffs.alphas[j], det)
            res = max(res, abs(sim.ratio - closed))
            worst_ratio = max(worst_ratio, sim.ratio, closed)
        del items, dets, sims
    return res, worst_ratio


def _refine_max(f, x: float, h: float) -> float:
    """Locate an interior maximum by two parabolic-vertex steps.

    Each step is exact for a quadratic, so the bias is set by the cubic
    term and the shrinking step size; two rounds reach ~1e-10 in x where
    direct comparison methods stall near sqrt(machine epsilon).
    """
    for step in (h, h / 40.0):
        f0, f1, f2 = f(x - step), f(x), f(x + step)
        denom = f0 - 2.0 * f1 + f2
        if denom == 0.0:
            return x
        x += 0.5 * step * (f0 - f2) / denom
    return x


def _random_teleport_params(rng: np.random.Generator) -> TeleportParams:
    n = int(rng.integers(2, 11))
    m = int(rng.integers(0, n - 1))
    eta = float(rng.uniform(0.05, 1.0))
    theta = float(rng.uniform(0.0, math.pi / 2.0))
    kind = str(rng.choice(["number", "onoff"]))
    event_set = str(rng.choice(["D10", "D01", "both"]))
    return TeleportParams(n, m, eta, theta, kind, event_set)


def run_verification(seed: int = 0, tolerance: float | None = None) -> list[ClaimResult]:
    """Run every claim and return its record; see the module docstring."""
    if tolerance is not None and not 0.0 <= float(tolerance) < math.inf:
        raise ValueError(f"tolerance {tolerance} must be finite and non-negative")
    rng = np.random.default_rng(seed)
    results: list[ClaimResult] = []

    def check(claim_id: str, description: str, residual: float, default_tol: float) -> None:
        tol = default_tol if tolerance is None else float(tolerance)
        residual = float(residual)
        results.append(ClaimResult(claim_id, description, residual, tol, residual <= tol))

    # -- preparation circuit --------------------------------------------

    res = 0.0
    for n in range(2, 9):
        coeffs = coefficients_from_angles(symmetric_angles(n))
        res = max(res, max(abs(a - 1.0 / math.sqrt(n)) for a in coeffs.alphas))
    check(
        "symmetric-coefficients",
        "symmetric angles produce uniform coefficients 1/sqrt(N) for N=2..8",
        res,
        TOL.exact_match,
    )

    res = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        thetas = tuple(float(t) for t in rng.uniform(0.0, math.pi / 2.0, n - 1))
        phis = tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, n))
        angles = SplitterAngles(thetas, phis)
        coeffs = coefficients_from_angles(angles)
        state = generate_w(angles)
        for j in range(n):
            prod = math.sin(thetas[j]) if j < n - 1 else 1.0
            for i in range(min(j, n - 1)):
                prod *= math.cos(thetas[i])
            expected = np.exp(-1j * phis[j]) * prod
            res = max(res, abs(coeffs.alphas[j] - expected))
            occ = tuple(1 if k == j else 0 for k in range(n))
            res = max(res, abs(state.amplitudes.get(occ, 0.0) - expected))
    check(
        "chain-product-formula",
        "splitter-chain amplitudes match the analytic product of sines and cosines",
        res,
        TOL.exact_match,
    )

    res = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        coeffs = _random_coefficients(rng, n)
        back = coefficients_from_angles(angles_from_coefficients(coeffs))
        res = max(res, max(abs(a - b) for a, b in zip(coeffs.alphas, back.alphas)))
    check(
        "coefficient-round-trip",
        "angles_from_coefficients inverts coefficients_from_angles on 1000 random targets",
        res,
        TOL.closed_form,
    )

    # -- pairwise witness ------------------------------------------------

    res, worst_ratio = _witness_claim(rng, 1000)
    check(
        "witness-closed-vs-simulated",
        "simulated witness ratio matches the closed form on 1000 random pairs",
        res,
        TOL.closed_form,
    )
    check(
        "witness-universal-violation",
        "every random pair with nonzero coefficients violates the witness (ratio < 1)",
        max(0.0, worst_ratio - 1.0),
        0.0,  # strict: any ratio at or above 1 is a failed witness
    )

    det1 = DetectorModel(1.0)
    trio = coefficients_from_angles(symmetric_angles(3))
    res = abs(
        witness_ratio_simulated(reduced_pair(trio, 0, 1), det1).ratio - 11.0 / 15.0
    )
    res = max(
        res,
        abs(
            witness_ratio_closed_form(trio.alphas[0], trio.alphas[1], det1)
            - 11.0 / 15.0
        ),
    )
    for row in scan_all_pairs(trio, det1).results:
        res = max(res, abs(row.ratio - 11.0 / 15.0))
    check(
        "symmetric-trio-ratio",
        "symmetric three-party state at unit efficiency gives ratio 11/15 on every pair",
        res,
        TOL.exact_match,
    )

    space2 = FockSpace(2)
    res = 0.0
    for _ in range(60):
        v = rng.normal(size=space2.dim) + 1j * rng.normal(size=space2.dim)
        v /= np.linalg.norm(v)
        rho = DensityOperator(space2, np.outer(v, v.conj()), normalized=True)
        det = DetectorModel(float(rng.uniform(0.0, 1.0)))
        a = lossy_moments(rho, det)
        b = lossy_moments_ancilla(rho, det)
        res = max(res, max(abs(x - y) for x, y in zip(a, b)))
    check(
        "thinning-vs-ancilla-loss",
        "moment transform for lossy detection equals the beam-splitter ancilla model",
        res,
        TOL.closed_form,
    )

    res = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        coeffs = _random_coefficients(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        det = DetectorModel(float(rng.uniform(0.05, 1.0)))
        rho2 = reduced_pair(coeffs, int(i), int(j))
        a = povm_moments(rho2, det, kind="number")
        b = povm_moments(rho2, det, kind="onoff")
        c = lossy_moments(rho2, det)
        res = max(res, max(abs(x - y) for x, y in zip(a, b)))
        res = max(res, max(abs(x - y) for x, y in zip(a, c)))
    check(
        "detector-backend-agreement",
        "number-resolving and on-off detection statistics agree on single-photon pairs",
        res,
        TOL.exact_match,
    )

    # -- conditional resource and single-event teleportation -------------

    res = 0.0
    for n in range(2, 9):
        for m in range(0, n - 1):
            for eta in (0.25, 0.5, 0.75, 1.0):
                params = TeleportParams(n, m, eta, 0.0)
                diff = conditional_resource(params).matrix - conditional_resource_closed_form(
                    params
                ).matrix
                res = max(res, float(np.max(np.abs(diff))))
                res = max(
                    res,
                    abs(conditional_resource(params).trace() - (n - eta * m) / n),
                )
    check(
        "resource-closed-form",
        "conditioned pair equals the Bell-plus-vacuum mixture for N=2..8, all m, four efficiencies",
        res,
        TOL.exact_match,
    )

    res_state = 0.0
    res_prob = 0.0
    for _ in range(40):
        params = _random_teleport_params(rng)
        qubit = _random_qubit(rng)
        for event in ("D10", "D01"):
            sim = bob_state(event, qubit, params)
            closed = bob_state_closed_form(event, qubit, params)
            res_state = max(res_state, float(np.max(np.abs(sim.matrix - closed.matrix))))
            res_prob = max(
                res_prob,
                abs(sim.trace() - event_probability_closed_form(event, qubit, params)),
            )
    check(
        "bob-state-closed-form",
        "simulated conditional state matches the closed form on 40 random settings",
        res_state,
        TOL.state_match,
    )
    check(
        "event-probability",
        "simulated event probability matches the closed form on the same settings",
        res_prob,
        TOL.state_match,
    )

    # -- Bloch-averaged fidelity and probability -------------------------

    res = 0.0
    tuples = [_random_teleport_params(rng) for _ in range(200)]
    for params, (f_sim, p_sim) in zip(tuples, _averaged_moments(tuples)):
        report = averaged_fidelity_probability(params)
        res = max(res, abs(report.avg_fidelity - f_sim), abs(report.avg_probability - p_sim))
    check(
        "averaged-closed-vs-moments",
        "closed-form averaged fidelity and probability match the exact simulated average on 200 random tuples",
        res,
        TOL.protocol_match,
    )

    res = 0.0
    for params in tuples[:6]:
        report = averaged_fidelity_probability(params)
        f_sim, p_sim = simulate_averaged(params, method="quadrature")
        res = max(res, abs(report.avg_fidelity - f_sim), abs(report.avg_probability - p_sim))
    check(
        "averaged-quadrature",
        "quadrature over the Bloch sphere reproduces the closed forms on 6 tuples",
        res,
        TOL.protocol_match,
    )

    params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
    report = averaged_fidelity_probability(params)
    mc = mc_averaged(params, n_samples=1_000_000, seed=seed)
    res = max(
        abs(mc.avg_fidelity - report.avg_fidelity) / mc.stderr_fidelity,
        abs(mc.avg_probability - report.avg_probability) / mc.stderr_probability,
    )
    check(
        "averaged-monte-carlo",
        "one-million-sample Monte Carlo average sits within 5 standard errors of the closed form (residual in sigma units)",
        res,
        5.0,  # in standard errors, not absolute: a statistical bound
    )

    # -- optimization -----------------------------------------------------

    grid = [
        (3, 0),
        (3, 1),
        (4, 2),
        (5, 0),
        (6, 3),
        (8, 4),
        (10, 8),
        (12, 5),
    ]
    res_angle = 0.0
    res_value = 0.0
    thetas = np.linspace(0.0, math.pi / 2.0, 2001)
    terms = _grid_terms(thetas)
    for n, m in grid:
        for eta in (0.3, 0.7, 1.0):
            base = TeleportParams(n, m, eta, 0.0)

            def fidelity_at(t: float) -> float:
                return float(averaged_fidelity_curve(base, [t])[0])

            values = _curve_on_terms(base, terms)
            k = min(max(int(np.argmax(values)), 1), len(thetas) - 2)
            t_num = _refine_max(fidelity_at, float(thetas[k]), float(thetas[1] - thetas[0]))
            t_closed = optimal_theta(n, m, eta)
            fmax, popt = max_fidelity_closed_form(n, m, eta)
            res_angle = max(res_angle, abs(t_closed - t_num))
            res_value = max(res_value, abs(fmax - fidelity_at(t_num)))
            res_value = max(
                res_value,
                abs(
                    popt
                    - averaged_fidelity_probability(
                        dataclasses.replace(base, theta=t_closed)
                    ).avg_probability
                ),
            )
    check(
        "optimal-angle",
        "closed-form optimal splitter angle matches numerical maximization on a 24-point grid",
        res_angle,
        TOL.protocol_match,
    )
    check(
        "max-fidelity-closed-form",
        "closed-form maximal fidelity and its probability match the numerical optimum",
        res_value,
        TOL.protocol_match,
    )

    res = 0.0
    res = max(res, abs(critical_eta(3, 0) - (3.0 - math.sqrt(5.0)) / 2.0))
    res = max(res, abs(critical_eta(3, 1) - (2.0 - math.sqrt(2.0)) / 2.0))
    res = max(res, abs(critical_eta(2, 0)))
    for n in range(3, 13):
        res = max(
            res, abs(critical_eta(n, n - 2) - (1.0 - 1.0 / math.sqrt(n - 1.0)))
        )
        res = max(
            res,
            abs(
                critical_eta(n, n - 3)
                - (2.0 * n - 3.0 - math.sqrt(4.0 * n - 7.0)) / (2.0 * n - 4.0)
            ),
        )
    check(
        "critical-eta-constants",
        "closed-form critical efficiencies reproduce the analytic family values for N=3..12",
        res,
        TOL.exact_match,
    )

    res = 0.0
    for n in range(3, 9):
        for m in {0, (n - 2) // 2, n - 2}:
            res = max(res, abs(critical_eta(n, m) - critical_eta_bisection(n, m)))
    check(
        "critical-eta-bisection",
        "bisection on the optimized fidelity reproduces the closed-form critical efficiency",
        res,
        TOL.bound_slack,
    )

    res = 0.0
    for n, m, eta in ((3, 1, 0.5), (4, 2, 0.8)):
        report = max_fidelity(n, m, eta, detector_kind="onoff")
        base = TeleportParams(n, m, eta, 0.0, "onoff")
        grid_best = float(
            np.max(averaged_fidelity_curve(base, np.linspace(0.0, math.pi / 2.0, 10_001)))
        )
        res = max(res, max(0.0, grid_best - report.avg_fidelity))
    check(
        "onoff-maximum-grid",
        "golden-section optimum for on-off detectors is no worse than a 10^4-point grid",
        res,
        TOL.protocol_match,
    )

    res = max(
        abs(critical_eta(3, 1, "onoff") - 0.435), abs(critical_eta(3, 0, "onoff") - 0.583)
    )
    check(
        "onoff-critical-values",
        "on-off critical efficiencies reproduce the published three-party values",
        res,
        5e-3,  # the published values carry three decimals
    )

    params = TeleportParams(2, 0, 1.0, math.pi / 4.0, "number", "both")
    report = averaged_fidelity_probability(params)
    f_sim, p_sim = simulate_averaged(params, method="moments")
    res = max(
        abs(report.avg_fidelity - 1.0),
        abs(report.avg_probability - 0.5),
        abs(f_sim - 1.0),
        abs(p_sim - 0.5),
    )
    check(
        "ideal-pair-teleportation",
        "two parties, unit efficiency, both events at theta=pi/4 teleport perfectly with probability 1/2",
        res,
        TOL.exact_match,
    )

    res = 0.0
    for n, m, eta in ((3, 0, 1.0), (3, 1, 0.7)):
        bounds = nonadvantageous_bound(n, m, eta)
        res = max(res, max(bounds.values()) - 2.0 / 3.0)
    check(
        "rejected-events-bound",
        "no rejected detection event beats the classical fidelity 2/3 under any angle or phase correction",
        max(0.0, res),
        TOL.bound_slack,
    )

    violation = 0.0
    inner = np.linspace(0.05, math.pi / 2.0 - 0.05, 25)
    for n in (4, 7, 12):
        for eta in (0.5, 1.0):
            fids = [max_fidelity(n, m, eta).avg_fidelity for m in range(n - 1)]
            worst = min(b - a for a, b in zip(fids, fids[1:]))
            violation = max(violation, -worst if worst <= 0.0 else 0.0)
    for n, m in grid:
        for eta in (0.4, 0.9):
            single = max_fidelity(n, m, eta).avg_fidelity
            both = max_fidelity(n, m, eta, event_set="both").avg_fidelity
            violation = max(violation, both - single - 1e-15)
            f_nums = averaged_fidelity_curve(TeleportParams(n, m, eta, 0.0), inner)
            f_offs = averaged_fidelity_curve(TeleportParams(n, m, eta, 0.0, "onoff"), inner)
            for f_num, f_off in zip(f_nums.tolist(), f_offs.tolist()):
                if f_off >= f_num:
                    violation = max(violation, f_off - f_num + 1e-15)
    for m in (0, 1):
        etas = [critical_eta(n, m) for n in range(3, 13)]
        worst = min(b - a for a, b in zip(etas, etas[1:]))
        violation = max(violation, -worst if worst <= 0.0 else 0.0)
    check(
        "orderings",
        "cooperation helps strictly, combined events never beat the better single event, on-off never beats number-resolving, critical efficiency grows with network size",
        max(0.0, violation),
        0.0,  # strict: every ordering must hold outright
    )

    return results
