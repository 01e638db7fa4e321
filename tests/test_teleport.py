"""Conditional teleportation: events, resources, Bob's states, averages."""

import math

import numpy as np
import pytest

from wsim import (
    ADVANTAGEOUS,
    BellEvent,
    FockSpace,
    TeleportParams,
    TeleportReport,
    UnknownQubit,
    averaged_fidelity_probability,
    bell_events,
    bloch_average,
    bob_state,
    bob_state_closed_form,
    conditional_resource,
    conditional_resource_closed_form,
    critical_eta,
    critical_eta_bisection,
    event_probability_closed_form,
    fock_state,
    max_fidelity,
    max_fidelity_closed_form,
    mc_averaged,
    nonadvantageous_bound,
    onoff_excess,
    optimal_theta,
    overlap_fidelity,
    simulate_averaged,
    vacuum_weight,
)

from oracles import random_qubit


class TestEvents:
    def test_six_outcomes(self):
        events = bell_events()
        assert len(events) == 6
        assert {e.counts for e in events} == {
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        }

    def test_advantageous_pair(self):
        assert ADVANTAGEOUS == {BellEvent.D10, BellEvent.D01}
        for e in bell_events():
            assert e.advantageous == (e in ADVANTAGEOUS)

    def test_unknown_event_name_rejected(self):
        with pytest.raises(ValueError):
            TeleportParams(3, 1, 0.5, 0.4, event_set="D99")


class TestParams:
    def test_cooperator_range(self):
        TeleportParams(4, 2, 0.5, 0.3)
        with pytest.raises(ValueError):
            TeleportParams(4, 3, 0.5, 0.3)
        with pytest.raises(ValueError):
            TeleportParams(4, -1, 0.5, 0.3)

    def test_network_size_floor(self):
        with pytest.raises(ValueError):
            TeleportParams(1, 0, 0.5, 0.3)

    @pytest.mark.parametrize("value", [3.5, "4", True, 4.0, None])
    @pytest.mark.parametrize("field", ["N", "m"])
    def test_sizes_must_be_integers(self, field, value):
        sizes = {"N": 4, "m": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TeleportParams(sizes["N"], sizes["m"], 0.5, 0.3)

    def test_numpy_integer_sizes_become_python_ints(self):
        params = TeleportParams(np.int64(4), np.int32(1), 0.5, 0.3)
        assert (params.N, params.m) == (4, 1)
        assert type(params.N) is int and type(params.m) is int

    @pytest.mark.parametrize(
        "call",
        [
            lambda: critical_eta(3.5, 1),
            lambda: optimal_theta(3.5, 1, 0.5),
            lambda: max_fidelity_closed_form(4, 1.9, 0.5),
            lambda: max_fidelity(True, 0, 0.5),
        ],
        ids=["critical_eta", "optimal_theta", "max_fidelity_closed_form", "max_fidelity"],
    )
    def test_size_checked_before_closed_forms(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            TeleportParams(3, 0, 0.0, 0.3)
        with pytest.raises(ValueError):
            TeleportParams(3, 0, 1.2, 0.3)

    def test_detector_aliases(self):
        a = TeleportParams(3, 0, 0.5, 0.3, detector_kind="number-resolving")
        b = TeleportParams(3, 0, 0.5, 0.3, detector_kind="on-off")
        assert a.detector_kind == "number"
        assert b.detector_kind == "onoff"
        with pytest.raises(ValueError):
            TeleportParams(3, 0, 0.5, 0.3, detector_kind="photomultiplier")

    def test_event_sets(self):
        assert TeleportParams(3, 0, 0.5, 0.3, event_set="D10").events == (
            BellEvent.D10,
        )
        assert TeleportParams(3, 0, 0.5, 0.3, event_set="both").events == (
            BellEvent.D10,
            BellEvent.D01,
        )


class TestQubit:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            UnknownQubit(1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(float("nan"), 0.0), (1.0, complex("nan")), (float("inf"), 0.0)])
    def test_non_finite_amplitudes_rejected(self, a, b):
        with pytest.raises(ValueError):
            UnknownQubit(a, b)

    def test_from_bloch(self):
        q = UnknownQubit.from_bloch(math.pi / 2, 0.0)
        assert abs(q.a) == pytest.approx(1.0 / math.sqrt(2.0))
        assert abs(q.b) == pytest.approx(1.0 / math.sqrt(2.0))
        psi = q.state()
        assert psi.space.num_modes == 1


class TestResource:
    @pytest.mark.parametrize("n,m", [(2, 0), (3, 0), (3, 1), (5, 2), (6, 4)])
    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_matches_closed_form(self, n, m, eta):
        params = TeleportParams(n, m, eta, 0.4)
        sim = conditional_resource(params)
        closed = conditional_resource_closed_form(params)
        assert np.allclose(sim.matrix, closed.matrix, atol=1e-12)
        assert sim.trace() == pytest.approx((n - eta * m) / n)

    def test_ideal_pair_is_maximally_entangled(self):
        # N=2 leaves no bystander modes, so no vacuum admixture survives
        params = TeleportParams(2, 0, 0.6, 0.4)
        rho = conditional_resource(params)
        space = rho.space
        vac = space.index[(0, 0)]
        assert rho.matrix[vac, vac] == pytest.approx(0.0, abs=1e-14)
        assert rho.trace() == pytest.approx(1.0)


class TestBobState:
    def test_reference_overlap(self):
        # a=1 input on the ideal pair: the photon reaches Bob with the
        # splitter transmission, and the heralded state carries cos^2
        params = TeleportParams(2, 0, 1.0, math.pi / 4)
        out = bob_state("D10", UnknownQubit(1.0, 0.0), params)
        one = fock_state(FockSpace(1), (1,))
        assert overlap_fidelity(out, one) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("event", ["D10", "D01"])
    @pytest.mark.parametrize("kind", ["number", "onoff"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_closed_form(self, event, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(0, n - 1))
        params = TeleportParams(
            n,
            m,
            float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(0.0, math.pi / 2)),
            detector_kind=kind,
        )
        q = random_qubit(rng)
        sim = bob_state(event, q, params)
        closed = bob_state_closed_form(event, q, params)
        assert np.allclose(sim.matrix, closed.matrix, atol=1e-11)

    def test_mirror_symmetry_between_events(self):
        # the d-side event at theta equals the c-side event at the
        # complementary angle once Bob's correction is applied
        rng = np.random.default_rng(11)
        q = random_qubit(rng)
        theta = 0.37
        a = bob_state("D01", q, TeleportParams(4, 1, 0.8, theta))
        b = bob_state("D10", q, TeleportParams(4, 1, 0.8, math.pi / 2 - theta))
        assert np.allclose(a.matrix, b.matrix, atol=1e-11)

    def test_rejected_event_refused(self):
        params = TeleportParams(3, 0, 0.5, 0.4)
        with pytest.raises(ValueError):
            bob_state("D11", UnknownQubit(1.0, 0.0), params)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_is_event_probability(self, seed):
        rng = np.random.default_rng(40 + seed)
        params = TeleportParams(3, 1, 0.7, 0.5, event_set="D01")
        q = random_qubit(rng)
        out = bob_state("D01", q, params)
        assert out.trace() == pytest.approx(
            event_probability_closed_form("D01", q, params), abs=1e-12
        )


class TestAveraging:
    def test_bloch_moments_are_exact(self):
        assert bloch_average(lambda q: abs(q.a) ** 2) == pytest.approx(0.5)
        assert bloch_average(lambda q: abs(q.a) ** 4) == pytest.approx(1.0 / 3.0)
        assert bloch_average(lambda q: q.b.real**4) == pytest.approx(1.0 / 3.0)
        assert bloch_average(lambda q: abs(q.a) ** 2 * q.b.real**2) == pytest.approx(
            1.0 / 6.0
        )

    @pytest.mark.parametrize("kind", ["number", "onoff"])
    @pytest.mark.parametrize("event_set", ["D10", "D01", "both"])
    def test_moment_route_matches_closed_form(self, kind, event_set):
        params = TeleportParams(
            4, 1, 0.75, 0.6, detector_kind=kind, event_set=event_set
        )
        report = averaged_fidelity_probability(params)
        f, p = simulate_averaged(params, method="moments")
        assert f == pytest.approx(report.avg_fidelity, abs=1e-12)
        assert p == pytest.approx(report.avg_probability, abs=1e-12)

    def test_quadrature_route_agrees(self):
        params = TeleportParams(3, 1, 0.8, 0.5, event_set="both")
        report = averaged_fidelity_probability(params)
        f, p = simulate_averaged(params, method="quadrature")
        assert f == pytest.approx(report.avg_fidelity, abs=1e-8)
        assert p == pytest.approx(report.avg_probability, abs=1e-8)

    def test_unknown_method_rejected(self):
        params = TeleportParams(3, 1, 0.8, 0.5)
        with pytest.raises(ValueError):
            simulate_averaged(params, method="contour")

    @pytest.mark.parametrize("n_azimuth", [0, -1])
    def test_empty_azimuthal_grid_rejected(self, n_azimuth):
        # an average over no nodes is not 0.0
        with pytest.raises(ValueError, match="n_azimuth"):
            bloch_average(lambda q: 1.0, n_azimuth=n_azimuth)
        with pytest.raises(ValueError, match="n_azimuth"):
            simulate_averaged(TeleportParams(3, 1, 0.8, 0.5), "quadrature", n_azimuth=n_azimuth)

    @pytest.mark.parametrize("n_polar, n_azimuth", [(8, 16), (3, 5)])
    def test_bloch_average_equals_node_loop(self, n_polar, n_azimuth):
        def f(q):
            return abs(q.a) ** 2 * q.b.real + (q.a * q.b).imag

        xs, wx = np.polynomial.legendre.leggauss(n_polar)
        total = 0.0
        for x, w in zip(xs, wx):
            theta_i = math.acos(float(np.clip(x, -1.0, 1.0)))
            for k in range(n_azimuth):
                qubit = UnknownQubit.from_bloch(theta_i, 2.0 * math.pi * k / n_azimuth)
                total += w / 2.0 / n_azimuth * f(qubit)
        assert bloch_average(f, n_polar, n_azimuth) == total

    # besides counts below 1: floats, bools and non-numbers are no counts
    NOT_COUNTS = [1e4, 2.5, 3.0, True, np.True_, "8", None, np.float64(4.0)]

    @pytest.mark.parametrize("n_samples", [0, -3] + NOT_COUNTS)
    def test_monte_carlo_needs_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            mc_averaged(TeleportParams(3, 1, 0.8, 0.5), n_samples=n_samples)

    @pytest.mark.parametrize("chunks", [0, -1] + NOT_COUNTS)
    def test_monte_carlo_needs_chunks(self, chunks):
        with pytest.raises(ValueError, match="chunks"):
            mc_averaged(TeleportParams(3, 1, 0.8, 0.5), n_samples=100, chunks=chunks)

    def test_monte_carlo_accepts_numpy_integers(self):
        params = TeleportParams(3, 1, 0.8, 0.5)
        got = mc_averaged(params, n_samples=np.int64(100), chunks=np.int32(3))
        assert got == mc_averaged(params, n_samples=100, chunks=3)
        assert type(got.n_samples) is int

    def test_monte_carlo_fields_are_python_floats(self):
        got = mc_averaged(TeleportParams(4, 1, 0.8, 0.9, event_set="both"), n_samples=5_000)
        # np.float64 is a float subclass, so compare the exact types
        assert {name: type(value) for name, value in vars(got).items()} == {
            "avg_fidelity": float,
            "avg_probability": float,
            "stderr_fidelity": float,
            "stderr_probability": float,
            "n_samples": int,
        }

    def test_monte_carlo_determinism_and_coverage(self):
        params = TeleportParams(4, 1, 0.8, 0.9, event_set="both")
        a = mc_averaged(params, n_samples=20_000, seed=7)
        b = mc_averaged(params, n_samples=20_000, seed=7)
        assert a == b
        report = averaged_fidelity_probability(params)
        assert abs(a.avg_fidelity - report.avg_fidelity) < 5.0 * a.stderr_fidelity
        assert abs(a.avg_probability - report.avg_probability) < (
            5.0 * a.stderr_probability
        )

    def test_both_events_probability_is_angle_free(self):
        n, m, eta = 5, 2, 0.7
        probs = {
            averaged_fidelity_probability(
                TeleportParams(n, m, eta, theta, event_set="both")
            ).avg_probability
            for theta in (0.1, 0.7, 1.4)
        }
        assert max(probs) - min(probs) < 1e-15

    def test_ideal_pair_teleports_perfectly(self):
        params = TeleportParams(2, 0, 1.0, math.pi / 4, event_set="both")
        report = averaged_fidelity_probability(params)
        assert report.avg_fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.avg_probability == pytest.approx(0.5, abs=1e-12)
        f, p = simulate_averaged(params, method="moments")
        assert f == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(0.5, abs=1e-12)


class TestOptimal:
    def test_complementary_optima(self):
        t10 = optimal_theta(5, 2, 0.8, event="D10")
        t01 = optimal_theta(5, 2, 0.8, event="D01")
        assert t01 == pytest.approx(math.pi / 2 - t10, abs=1e-14)

    @pytest.mark.parametrize("eta", [0.2, 0.6, 1.0])
    def test_minimal_network_closed_form(self, eta):
        fmax, _ = max_fidelity_closed_form(2, 0, eta)
        assert fmax == pytest.approx((1.0 + 2.0 / (2.0 - eta)) / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n,m", [(3, 0), (4, 2), (7, 3)])
    def test_ideal_detection_closed_form(self, n, m):
        fmax, _ = max_fidelity_closed_form(n, m, 1.0)
        assert fmax == pytest.approx(
            (1.0 + (n - m) / (n - m - 1.0)) / 3.0, abs=1e-12
        )

    def test_report_fields(self):
        report = max_fidelity(4, 1, 0.8)
        assert report.optimal
        assert report.theta_star is not None
        assert report.params.theta == pytest.approx(report.theta_star)
        fmax, popt = max_fidelity_closed_form(4, 1, 0.8)
        assert report.avg_fidelity == pytest.approx(fmax, abs=1e-12)
        assert report.avg_probability == pytest.approx(popt, abs=1e-12)

    def test_both_events_optimum_is_balanced(self):
        report = max_fidelity(4, 1, 0.8, event_set="both")
        assert report.theta_star == pytest.approx(math.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("n,m,eta", [(3, 0, 0.5), (5, 2, 0.9), (4, 1, 1.0)])
    def test_accepting_both_events_costs_fidelity(self, n, m, eta):
        single = max_fidelity(n, m, eta).avg_fidelity
        both = max_fidelity(n, m, eta, event_set="both").avg_fidelity
        assert both <= single + 1e-12

    def test_onoff_never_beats_number_resolving(self):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 7):
            f_num = averaged_fidelity_probability(
                TeleportParams(4, 1, 0.7, float(theta))
            ).avg_fidelity
            f_onoff = averaged_fidelity_probability(
                TeleportParams(4, 1, 0.7, float(theta), detector_kind="onoff")
            ).avg_fidelity
            assert f_onoff < f_num


class TestCriticalEfficiency:
    def test_reference_constants(self):
        assert critical_eta(3, 0) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0)
        assert critical_eta(3, 1) == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0)
        assert critical_eta(2, 0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_full_cooperation_family(self, n):
        assert critical_eta(n, n - 2) == pytest.approx(
            1.0 - 1.0 / math.sqrt(n - 1.0), abs=1e-12
        )

    @pytest.mark.parametrize("m", [0, 1])
    def test_threshold_grows_with_network_size(self, m):
        values = [critical_eta(n, m) for n in range(max(3, m + 2), 9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n,m", [(3, 0), (4, 2), (6, 1)])
    def test_bisection_agrees(self, n, m):
        assert critical_eta_bisection(n, m) == pytest.approx(
            critical_eta(n, m), abs=1e-9
        )

    def test_detector_kind_checked_and_aliased(self):
        with pytest.raises(ValueError, match="unknown detector kind"):
            critical_eta(3, 1, detector_kind="analog")
        assert critical_eta(3, 1, "number-resolving") == critical_eta(3, 1)

    def test_onoff_reference_values(self):
        assert critical_eta(3, 1, detector_kind="onoff") == pytest.approx(
            0.435, abs=5e-3
        )
        assert critical_eta(3, 0, detector_kind="onoff") == pytest.approx(
            0.583, abs=5e-3
        )

    def test_above_threshold_beats_classical(self):
        etac = critical_eta(4, 1)
        below = max_fidelity(4, 1, etac * 0.9).avg_fidelity
        above = max_fidelity(4, 1, min(1.0, etac * 1.1)).avg_fidelity
        assert below < 2.0 / 3.0 < above


class TestRejectedEvents:
    def test_no_rejected_event_beats_classical(self):
        bounds = nonadvantageous_bound(3, 0, 1.0, n_theta=150, n_phase=16)
        assert set(bounds) == set(e for e in bell_events() if not e.advantageous)
        for value in bounds.values():
            assert value <= 2.0 / 3.0 + 1e-9

    @pytest.mark.parametrize(
        "grid, name",
        [
            ({"n_theta": 0}, "n_theta"),
            ({"n_theta": -5}, "n_theta"),
            ({"n_phase": 0}, "n_phase"),
            ({"n_phase": -1}, "n_phase"),
            ({"n_theta": 10.0}, "n_theta"),
        ],
    )
    def test_empty_grid_rejected(self, grid, name):
        with pytest.raises(ValueError, match=name):
            nonadvantageous_bound(3, 0, 1.0, **grid)


class TestClosedFormPieces:
    def test_background_weights(self):
        assert vacuum_weight(4, 1, 0.5, 0.0) == pytest.approx(4 - 0.5 - 2 + 0.5)
        assert vacuum_weight(2, 0, 1.0, 0.3) == pytest.approx(0.0)
        assert onoff_excess(0.8, math.pi / 4) == pytest.approx(0.4)

    def test_report_validation(self):
        params = TeleportParams(3, 0, 0.5, 0.4)
        with pytest.raises(ValueError):
            TeleportReport(
                params=params,
                avg_fidelity=1.5,
                avg_probability=0.1,
                R_theta=0.0,
                Rprime_theta=0.0,
            )
        with pytest.raises(ValueError):
            TeleportReport(
                params=params,
                avg_fidelity=0.5,
                avg_probability=0.1,
                R_theta=0.0,
                Rprime_theta=0.0,
                optimal=True,
            )
