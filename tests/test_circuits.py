"""Splitter-chain preparation: coefficients, angles, and their inverses."""

import cmath
import math
import re
import time

import numpy as np
import pytest

from wsim import (
    FockSpace,
    PureState,
    SplitterAngles,
    WCoefficients,
    angles_from_coefficients,
    apply_two_mode_unitary,
    coefficients_from_angles,
    generate_w,
    splitter,
    symmetric_angles,
    w_state_from_coefficients,
)
from wsim import circuits, cli
from wsim.verify import _random_coefficients as random_coefficients


class TestTypes:
    def test_coefficients_need_two_modes(self):
        with pytest.raises(ValueError):
            WCoefficients((1.0,))

    def test_coefficients_need_unit_norm(self):
        with pytest.raises(ValueError):
            WCoefficients((0.5, 0.5))

    def test_coefficients_reject_nan(self):
        with pytest.raises(ValueError):
            WCoefficients((float("nan"), 1.0))

    def test_angle_range_validated(self):
        with pytest.raises(ValueError):
            SplitterAngles((math.pi,))
        with pytest.raises(ValueError):
            SplitterAngles((-0.1,))

    def test_phis_default_to_zero(self):
        angles = SplitterAngles((0.3, 0.4))
        assert angles.phis == (0.0, 0.0, 0.0)
        assert angles.num_modes == 3

    def test_phis_length_checked(self):
        with pytest.raises(ValueError):
            SplitterAngles((0.3,), phis=(0.0,))


class TestSymmetric:
    def test_two_modes_is_balanced(self):
        assert symmetric_angles(2).thetas[0] == pytest.approx(math.pi / 4.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_uniform_coefficients(self, n):
        coeffs = coefficients_from_angles(symmetric_angles(n))
        target = 1.0 / math.sqrt(n)
        assert all(abs(a - target) < 1e-12 for a in coeffs.alphas)

    def test_needs_two_modes(self):
        with pytest.raises(ValueError):
            symmetric_angles(1)


class TestChainFormula:
    @pytest.mark.parametrize("seed", range(8))
    def test_amplitudes_match_product(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        thetas = tuple(float(t) for t in rng.uniform(0.0, math.pi / 2.0, n - 1))
        phis = tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, n))
        state = generate_w(SplitterAngles(thetas, phis))
        for j in range(n):
            prod = math.sin(thetas[j]) if j < n - 1 else 1.0
            for i in range(min(j, n - 1)):
                prod *= math.cos(thetas[i])
            occ = tuple(1 if k == j else 0 for k in range(n))
            amp = state.amplitudes.get(occ, 0.0)
            assert abs(amp - cmath.exp(-1j * phis[j]) * prod) < 1e-12

    def test_single_photon_support_only(self):
        state = generate_w(symmetric_angles(5))
        assert all(sum(occ) == 1 for occ in state.amplitudes)

    def test_large_symmetric_chain(self):
        # the chain is O(N) on the amplitude vector; the basis of the
        # one-photon space is enumerated once per process and shared by
        # every equal FockSpace, so it is built before the clock starts
        n = 4096
        angles = symmetric_angles(n)
        assert FockSpace(n, 1).dim == n + 1
        start = time.perf_counter()
        state = generate_w(angles)
        elapsed = time.perf_counter() - start
        expected = coefficients_from_angles(angles).alphas
        assert len(state.amplitudes) == n
        for occ, amp in state.amplitudes.items():
            assert abs(amp - expected[occ.index(1)]) <= 1e-12
        assert elapsed < 1.0

    def test_last_coefficient_is_full_cosine_product(self):
        thetas = (0.3, 0.8, 1.1)
        coeffs = coefficients_from_angles(SplitterAngles(thetas))
        expected = math.cos(0.3) * math.cos(0.8) * math.cos(1.1)
        assert coeffs.alphas[-1] == pytest.approx(expected, abs=1e-14)


class TestInversion:
    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        coeffs = random_coefficients(rng, n)
        back = coefficients_from_angles(angles_from_coefficients(coeffs))
        assert max(abs(a - b) for a, b in zip(coeffs.alphas, back.alphas)) < 1e-10

    def test_basis_vector_target(self):
        angles = angles_from_coefficients((1.0, 0.0))
        assert angles.thetas[0] == pytest.approx(math.pi / 2.0)

    def test_zero_tail_angles_vanish(self):
        angles = angles_from_coefficients((0.6, 0.8, 0.0, 0.0))
        assert angles.thetas[2] == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_state_hits_target(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        coeffs = random_coefficients(rng, n)
        state = w_state_from_coefficients(coeffs)
        for j, alpha in enumerate(coeffs.alphas):
            occ = tuple(1 if k == j else 0 for k in range(n))
            assert abs(state.amplitudes.get(occ, 0.0) - alpha) < 1e-10


class TestConventionRobustness:
    @pytest.mark.parametrize("seed", range(4))
    def test_transposed_splitter_changes_only_phases(self, seed):
        # running the chain with the transposed splitter matrix must yield
        # the same photon distribution |alpha_j|^2, only signs can move
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        thetas = rng.uniform(0.1, math.pi / 2.0 - 0.1, n - 1)
        space = FockSpace(n)
        occ0 = tuple(1 if k == 0 else 0 for k in range(n))
        canonical = PureState(space, {occ0: 1.0})
        flipped = PureState(space, {occ0: 1.0})
        for j, theta in enumerate(thetas):
            canonical = apply_two_mode_unitary(canonical, (j, j + 1), splitter(theta))
            flipped = apply_two_mode_unitary(
                flipped, (j, j + 1), splitter(theta).T
            )
        for occ, amp in canonical.amplitudes.items():
            assert abs(abs(amp) - abs(flipped.amplitudes.get(occ, 0.0))) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_coefficient_permutation_permutes_amplitudes(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(3, 6))
        coeffs = random_coefficients(rng, n)
        perm = rng.permutation(n)
        permuted = WCoefficients(tuple(coeffs.alphas[p] for p in perm))
        state = w_state_from_coefficients(coeffs)
        state_p = w_state_from_coefficients(permuted)
        for slot, src in enumerate(perm):
            occ_src = tuple(1 if k == src else 0 for k in range(n))
            occ_dst = tuple(1 if k == slot else 0 for k in range(n))
            assert abs(
                state.amplitudes.get(occ_src, 0.0) - state_p.amplitudes.get(occ_dst, 0.0)
            ) < 1e-10


def read_by_mode(state):
    """A one-photon PureState's amplitudes, looked up mode by mode."""
    n, v = state.num_modes, state.to_vector()
    return np.array([v[state.space.index[tuple(int(k == j) for k in range(n))]] for j in range(n)])


class TestModeAmplitudes:
    """_mode_amplitudes is w_state_from_coefficients read by mode, byte for
    byte and error for error."""

    @pytest.mark.parametrize(
        "alphas",
        [
            (0.6, 0.8j),
            (0.6, -0.0, 0.8j),
            (complex(-0.0, 0.6), complex(0.8, -0.0)),
            (complex(-0.0, -0.0), 0.0, complex(0.6, -0.0), -0.8),
            (complex(0.0, -0.0), -0.6, complex(-0.0, 0.8)),
        ],
    )
    def test_signed_zeros(self, alphas):
        got = circuits._mode_amplitudes(alphas)
        assert got.tobytes() == read_by_mode(w_state_from_coefficients(alphas)).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_chain_and_random_coefficients(self, n):
        rng = np.random.default_rng(n)
        coeffs = random_coefficients(rng, n)
        angles = SplitterAngles(
            tuple(rng.uniform(0.0, math.pi / 2.0, n - 1)), tuple(rng.uniform(0.0, 6.0, n))
        )
        for alphas in (coeffs, coeffs.alphas, circuits._chain_amplitudes(angles)):
            got = circuits._mode_amplitudes(alphas)
            assert got.tobytes() == read_by_mode(w_state_from_coefficients(alphas)).tobytes()
        for angles in (angles, symmetric_angles(n)):
            got = circuits._mode_amplitudes(circuits._chain_amplitudes(angles))
            assert got.tobytes() == read_by_mode(generate_w(angles)).tobytes()

    @pytest.mark.parametrize(
        "alphas",
        [
            (1.0,),
            (0.6, 0.6),
            (math.nan, 1.0),
            # WCoefficients allows a squared-norm error of TOL.norm * N,
            # PureState TOL.norm, on either side of one
            tuple(math.sqrt(1.0 + 5e-12) / math.sqrt(10) for _ in range(10)),
            tuple(math.sqrt(1.0 - 5e-12) / math.sqrt(10) for _ in range(10)),
            # the squares overflow: norm^2 = inf, not an OverflowError
            (1e200, 1e200),
        ],
        ids=["one-mode", "unnormalized", "nan", "norm-above", "norm-below", "huge"],
    )
    def test_same_errors(self, alphas):
        with pytest.raises(ValueError) as expected:
            w_state_from_coefficients(alphas)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            circuits._mode_amplitudes(alphas)

    def test_admitted_symmetric_sizes_pass_the_norm_check(self):
        # a left-to-right sum of the squares drifted by up to 2.4e-11 and
        # refused most non-power-of-two N above 50,000 (121,206 among
        # them); the correctly rounded sum stays within TOL.norm of one
        rng = np.random.default_rng(121206)
        sizes = [36376, 49457, 121206] + rng.integers(50_000, cli._MAX_MODES, 3).tolist()
        for n in sizes:
            a = circuits._mode_amplitudes(circuits._chain_amplitudes(symmetric_angles(n)))
            assert len(a) == n
