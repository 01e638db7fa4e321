"""Detector models: POVMs, conditioning, and lossy moment statistics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsim import (
    DensityOperator,
    DetectorModel,
    FockSpace,
    PovmElement,
    PureState,
    condition,
    fock_state,
    lossy_moments,
    lossy_moments_ancilla,
    povm_moments,
    povm_number,
    povm_onoff,
    reduced_pair,
    symmetric_angles,
    w_state_from_coefficients,
)
from wsim.circuits import coefficients_from_angles
from wsim.config import TOL
from wsim.detection import _ancilla_moment_stack, _povm_moment_stack, _povm_weights

import oracles


def random_two_mode_state(rng):
    space = FockSpace(2)
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    v /= np.linalg.norm(v)
    return DensityOperator(space, np.outer(v, v.conj()), normalized=True)


class TestPovmElements:
    def test_detector_efficiency_range(self):
        with pytest.raises(ValueError):
            DetectorModel(1.5)
        with pytest.raises(ValueError):
            DetectorModel(-0.1)

    def test_number_element_single_count(self):
        eta = 0.7
        elem = povm_number(1, DetectorModel(eta))
        assert elem.entries == pytest.approx((0.0, eta, 2.0 * eta * (1.0 - eta)))

    def test_onoff_click_element(self):
        eta = 0.7
        elem = povm_onoff(True, DetectorModel(eta))
        assert elem.entries == pytest.approx((0.0, eta, 1.0 - (1.0 - eta) ** 2))

    def test_povm_element_rejects_nan(self):
        with pytest.raises(ValueError):
            PovmElement((1.0, float("nan"), 0.0), label="nan")

    def test_count_beyond_cutoff_rejected(self):
        with pytest.raises(ValueError):
            povm_number(3, DetectorModel(0.5))
        with pytest.raises(ValueError):
            povm_number(-1, DetectorModel(0.5))

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_number_elements_complete(self, eta):
        det = DetectorModel(eta)
        total = np.zeros(3)
        for k in range(3):
            total += np.array(povm_number(k, det).entries)
        assert total == pytest.approx(np.ones(3))

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_onoff_elements_complete(self, eta):
        det = DetectorModel(eta)
        total = np.array(povm_onoff(False, det).entries) + np.array(
            povm_onoff(True, det).entries
        )
        assert total == pytest.approx(np.ones(3))

    def test_onoff_excess_over_single_count(self):
        # the click element absorbs the two-photon weight that a
        # number-resolving single count rejects
        det = DetectorModel(0.6)
        on = np.array(povm_onoff(True, det).entries)
        one = np.array(povm_number(1, det).entries)
        assert on[1] == pytest.approx(one[1])
        assert on[2] - one[2] == pytest.approx(0.6**2)


class TestCondition:
    def test_vacuum_conditioning_heralds_pair(self):
        eta = 0.4
        w = w_state_from_coefficients(coefficients_from_angles(symmetric_angles(3)))
        out = condition(w.to_density(), {2: povm_number(0, DetectorModel(eta))})
        space = out.space
        psi = np.zeros(space.dim, dtype=complex)
        psi[space.index[(1, 0)]] = 1.0 / math.sqrt(2.0)
        psi[space.index[(0, 1)]] = 1.0 / math.sqrt(2.0)
        expected = (2.0 / 3.0) * np.outer(psi, psi.conj())
        vac = space.index[(0, 0)]
        expected[vac, vac] += (1.0 - eta) / 3.0
        assert np.allclose(out.matrix, expected, atol=1e-12)
        assert out.trace() == pytest.approx((3.0 - eta) / 3.0)

    def test_single_count_probability_is_efficiency(self):
        eta = 0.35
        out = condition(
            fock_state(FockSpace(1), (1,)).to_density(),
            {0: povm_number(1, DetectorModel(eta))},
        )
        assert out.space.num_modes == 0
        assert out.trace() == pytest.approx(eta)

    def test_empty_assignment_rejected(self):
        rho = fock_state(FockSpace(1), (1,)).to_density()
        with pytest.raises(ValueError):
            condition(rho, {})

    def test_out_of_range_mode_rejected(self):
        rho = fock_state(FockSpace(1), (1,)).to_density()
        with pytest.raises(ValueError):
            condition(rho, {1: povm_number(0, DetectorModel(0.5))})

    def test_povm_cutoff_must_cover_state(self):
        rho = fock_state(FockSpace(1), (2,)).to_density()
        short = povm_number(0, DetectorModel(0.5), cutoff=1)
        with pytest.raises(ValueError):
            condition(rho, {0: short})

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        rho = random_two_mode_state(rng)
        det = DetectorModel(0.6)
        total = 0.0
        for kc in range(3):
            for kd in range(3):
                out = condition(
                    rho, {0: povm_number(kc, det), 1: povm_number(kd, det)}
                )
                total += out.trace()
        assert total == pytest.approx(1.0, abs=1e-12)


class TestLossyMoments:
    def test_unit_efficiency_matches_ideal(self):
        rng = np.random.default_rng(5)
        rho = random_two_mode_state(rng)
        ideal = lossy_moments(rho, DetectorModel(1.0))
        anc = lossy_moments_ancilla(rho, DetectorModel(1.0))
        assert ideal == pytest.approx(anc, abs=1e-12)

    def test_zero_efficiency_sees_nothing(self):
        rng = np.random.default_rng(6)
        rho = random_two_mode_state(rng)
        var_jx, var_jy, n_plus = lossy_moments(rho, DetectorModel(0.0))
        assert var_jx == pytest.approx(0.0, abs=1e-14)
        assert var_jy == pytest.approx(0.0, abs=1e-14)
        assert n_plus == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_transform_equals_ancilla_model(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_two_mode_state(rng)
        det = DetectorModel(float(rng.uniform(0.0, 1.0)))
        a = lossy_moments(rho, det)
        b = lossy_moments_ancilla(rho, det)
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_povm_backends_agree_on_pair_states(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        rho2 = reduced_pair(tuple(complex(x) for x in v), int(i), int(j))
        det = DetectorModel(float(rng.uniform(0.05, 1.0)))
        number = povm_moments(rho2, det, kind="number")
        onoff = povm_moments(rho2, det, kind="onoff")
        transform = lossy_moments(rho2, det)
        assert number == pytest.approx(onoff, abs=1e-12)
        assert number == pytest.approx(transform, abs=1e-12)

    def test_unknown_backend_rejected(self):
        rho = fock_state(FockSpace(2), (1, 0)).to_density()
        with pytest.raises(ValueError):
            povm_moments(rho, DetectorModel(0.5), kind="analog")

    def test_occupation_above_detector_cutoff_rejected(self):
        # the same error condition gives, not an IndexError
        rho = fock_state(FockSpace(2, 3), (3, 0)).to_density()
        det = DetectorModel(0.5)
        with pytest.raises(ValueError, match="POVM cutoff below"):
            condition(rho, {0: povm_number(0, det), 1: povm_number(0, det)})
        for kind in ("number", "onoff"):
            with pytest.raises(ValueError, match="POVM cutoff below"):
                povm_moments(rho, det, kind=kind)

    def test_two_modes_required(self):
        rho = fock_state(FockSpace(1), (1,)).to_density()
        with pytest.raises(ValueError):
            lossy_moments(rho, DetectorModel(0.5))


# detector efficiencies at and near the bounds of [0, 1], and in between
stack_etas = st.one_of(st.just(0.0), st.just(1e-9), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def mixed_stacks(draw):
    """A stack of 1 to 20 two-mode states, each a random pure state or a
    reduced W pair, with one detector efficiency per state."""
    states, etas = [], []
    for _ in range(draw(st.integers(1, 20))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            states.append(random_two_mode_state(rng))
        else:
            n = int(rng.integers(2, 6))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            i, j = sorted(rng.choice(n, size=2, replace=False))
            states.append(reduced_pair(tuple(complex(x) for x in v / np.linalg.norm(v)), i, j))
        etas.append(draw(stack_etas))
    return states, etas


def moment_bytes(triples):
    """The bytes of a list of moment triples: equal bytes are equal bits,
    signed zeros included."""
    return np.array(triples, dtype=float).tobytes()


class TestMomentStacks:
    """The stacked loss and POVM readouts that verify runs: each entry is
    bit for bit the one-state public call of its slice, and the per-state
    routes they replaced (tests/oracles.py)."""

    @settings(max_examples=40, deadline=None)
    @given(stack=mixed_stacks())
    def test_ancilla_stack_equals_one_state_calls(self, stack):
        states, etas = stack
        matrices = np.stack([rho.matrix for rho in states])
        got = _ancilla_moment_stack(FockSpace(2), matrices, etas)
        dets = [DetectorModel(eta) for eta in etas]
        single = [lossy_moments_ancilla(rho, det) for rho, det in zip(states, dets)]
        assert moment_bytes(got) == moment_bytes(single)
        expected = [oracles.ancilla_moments(rho, det) for rho, det in zip(states, dets)]
        assert moment_bytes(got) == moment_bytes(expected)

    @settings(max_examples=40, deadline=None)
    @given(stack=mixed_stacks(), kind=st.sampled_from(["number", "onoff", "on-off"]))
    def test_povm_stack_equals_one_state_calls(self, stack, kind):
        states, etas = stack
        matrices = np.stack([rho.matrix for rho in states])
        got = _povm_moment_stack(FockSpace(2), matrices, etas, kind)
        dets = [DetectorModel(eta) for eta in etas]
        single = [povm_moments(rho, det, kind) for rho, det in zip(states, dets)]
        assert moment_bytes(got) == moment_bytes(single)
        expected = [oracles.povm_moments(rho, det, kind) for rho, det in zip(states, dets)]
        assert moment_bytes(got) == moment_bytes(expected)

    def test_stacks_keep_the_input_checks(self):
        one_mode = fock_state(FockSpace(1), (1,)).to_density().matrix[None]
        for stacked in (
            lambda m: _ancilla_moment_stack(FockSpace(1), m, [0.5]),
            lambda m: _povm_moment_stack(FockSpace(1), m, [0.5], "number"),
        ):
            with pytest.raises(ValueError, match="two-mode state"):
                stacked(one_mode)
        pair = fock_state(FockSpace(2), (1, 0)).to_density().matrix
        with pytest.raises(ValueError, match="normalized state"):
            _ancilla_moment_stack(FockSpace(2), np.stack([pair, 0.5 * pair]), [0.5, 0.5])
        with pytest.raises(ValueError, match="unknown detector back-end 'analog'"):
            _povm_moment_stack(FockSpace(2), pair[None], [0.5], "analog")


def outcome_families(eta):
    det = DetectorModel(eta)
    return {
        "number": [povm_number(k, det) for k in range(3)],
        "onoff": [povm_onoff(False, det), povm_onoff(True, det)],
    }


class TestPovmCompleteness:
    @settings(max_examples=60, deadline=None)
    @given(eta=st.floats(0.0, 1.0))
    @example(eta=0.0)
    @example(eta=1e-9)
    @example(eta=1.0)
    def test_elements_sum_to_identity(self, eta):
        for family in outcome_families(eta).values():
            total = np.sum([elem.entries for elem in family], axis=0)
            assert np.max(np.abs(total - 1.0)) <= TOL.povm

    @settings(max_examples=30, deadline=None)
    @given(eta=st.floats(0.0, 1.0))
    @example(eta=0.0)
    @example(eta=1e-9)
    @example(eta=1.0)
    def test_joint_weights_sum_to_one(self, eta):
        for family in outcome_families(eta).values():
            for space in (FockSpace(2), FockSpace(3)):
                total = np.zeros(space.dim)
                for elems in itertools.product(family, repeat=space.num_modes):
                    total += _povm_weights(space, dict(enumerate(elems)))
                assert np.max(np.abs(total - 1.0)) <= TOL.povm
