"""The closed-form fidelity curve over splitter angles.

averaged_fidelity_curve must reproduce, bit for bit, the per-angle
reports of averaged_fidelity_probability, reject every angle a
TeleportParams would reject, and, like the per-angle closed form, agree
with the exactly averaged simulated pipeline.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsim import (
    BellEvent,
    TeleportParams,
    averaged_fidelity_curve,
    averaged_fidelity_probability,
    simulate_averaged,
)
from wsim import teleport
from wsim.config import TOL

from oracles import HALF_PI, angles, teleport_params


def per_angle(params, grid):
    return np.array(
        [
            averaged_fidelity_probability(dataclasses.replace(params, theta=t)).avg_fidelity
            for t in grid
        ]
    )


class TestCurveEqualsReports:
    @settings(max_examples=80, deadline=None)
    @given(params=teleport_params(), inner=st.lists(angles, max_size=40))
    def test_bit_identical(self, params, inner):
        grid = [0.0, *inner, HALF_PI]
        assert np.array_equal(averaged_fidelity_curve(params, grid), per_angle(params, grid))

    def test_linspace_grid_and_upper_slack(self):
        params = TeleportParams(4, 1, 0.8, 0.3, "onoff", "both")
        grid = np.append(np.linspace(0.0, HALF_PI, 2001), HALF_PI + 1e-12)
        curve = averaged_fidelity_curve(params, grid)
        assert curve.shape == grid.shape
        assert np.array_equal(curve, per_angle(params, grid.tolist()))

    def test_params_angle_is_ignored(self):
        a = TeleportParams(5, 2, 0.6, 0.0)
        b = dataclasses.replace(a, theta=1.1)
        grid = [0.2, 0.9]
        assert np.array_equal(averaged_fidelity_curve(a, grid), averaged_fidelity_curve(b, grid))


def reference_fbar(params, theta):
    """The closed-form fidelity at one angle written out with math and
    Python floats, event by event, as the per-angle report once computed
    it: the oracle for the angle terms that the curve and the reports
    share."""
    s2 = math.sin(2.0 * theta)
    num = den = 0.0
    for event in params.events:
        angle = theta if event is BellEvent.D10 else theta + HALF_PI
        r = (params.N - params.eta * params.m - 2.0) * math.cos(angle) ** 2 + 1.0 - params.eta
        if params.detector_kind == "onoff":
            r += 2.0 * params.eta * (math.sin(theta) * math.cos(theta)) ** 2
        num += (2.0 + s2 + r) / 3.0
        den += 1.0 + r
    return num / den


class TestCurveEqualsReference:
    @settings(max_examples=80, deadline=None)
    @given(params=teleport_params(), inner=st.lists(angles, max_size=40))
    def test_bit_identical(self, params, inner):
        grid = [0.0, *inner, HALF_PI]
        expected = [reference_fbar(params, t) for t in grid]
        assert averaged_fidelity_curve(params, grid).tolist() == expected

    @pytest.mark.parametrize("kind", ["number", "onoff"])
    def test_dense_random_grid(self, kind):
        # squares by libm pow and by x*x differ in about one angle per thousand
        grid = np.random.default_rng(3).uniform(0.0, HALF_PI, 20_000).tolist()
        params = TeleportParams(7, 2, 0.65, 0.0, kind, "both")
        expected = [reference_fbar(params, t) for t in grid]
        assert averaged_fidelity_curve(params, grid).tolist() == expected


bad_angles = st.one_of(
    st.just(math.nan),
    st.just(math.inf),
    st.just(-math.inf),
    st.floats(max_value=-1e-300, allow_nan=False),
    st.floats(min_value=HALF_PI + 1e-11, allow_nan=False),
)


class TestCurveRejects:
    @settings(max_examples=60, deadline=None)
    @given(
        params=teleport_params(),
        good=st.lists(angles, max_size=10),
        bad=bad_angles,
        where=st.integers(0, 10),
    )
    def test_bad_angle_raises(self, params, good, bad, where):
        grid = list(good)
        grid.insert(min(where, len(grid)), bad)
        with pytest.raises(ValueError):
            averaged_fidelity_curve(params, grid)
        with pytest.raises(ValueError):
            dataclasses.replace(params, theta=bad)

    def test_grid_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            averaged_fidelity_curve(TeleportParams(3, 0, 1.0, 0.0), [[0.1, 0.2]])

    def test_curve_outside_unit_interval_raises(self, monkeypatch):
        monkeypatch.setattr(teleport, "_closed_integrals", lambda params, terms: (1.5, 1.0))
        with pytest.raises(ValueError):
            averaged_fidelity_curve(TeleportParams(3, 0, 1.0, 0.0), [0.1])


class TestClosedFormMatchesSimulation:
    @settings(max_examples=80, deadline=None)
    @given(params=teleport_params(theta=angles))
    @example(params=TeleportParams(6, 4, 1e-9, 0.0, "number", "both"))
    @example(params=TeleportParams(6, 4, 1e-9, HALF_PI, "onoff", "D01"))
    @example(params=TeleportParams(2, 0, 1e-9, HALF_PI, "number", "D10"))
    def test_moments_route(self, params):
        report = averaged_fidelity_probability(params)
        f_sim, p_sim = simulate_averaged(params, method="moments")
        assert abs(report.avg_fidelity - f_sim) <= TOL.protocol_match
        assert abs(report.avg_probability - p_sim) <= TOL.protocol_match


class TestGridTermBlocks:
    @pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 10_001])
    def test_blocks_equal_one_pass(self, size):
        # _grid_terms fills its array in blocks of _TERM_BLOCK angles
        rng = np.random.default_rng(size)
        for grid in (np.linspace(0.0, HALF_PI, size), rng.uniform(0.0, HALF_PI, size)):
            got = teleport._grid_terms(grid)
            expected = np.array(teleport._angle_terms(grid.tolist()), dtype=float)
            assert got.shape == expected.shape == (4, size)
            assert got.tobytes() == expected.tobytes()

    def test_first_bad_angle_raises_across_blocks(self):
        grid = np.linspace(0.0, HALF_PI, 3000)
        grid[2500] = -1.0
        grid[1500] = math.nan
        with pytest.raises(ValueError, match="splitter angle nan outside"):
            teleport._grid_terms(grid)
