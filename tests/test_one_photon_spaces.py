"""One-photon spaces: W states and heralded pairs are built with a single
photon and must equal, entry for entry, the same route run in the
two-photon space."""

import math

import numpy as np
import pytest

from wsim import (
    DensityOperator,
    DetectorModel,
    FockSpace,
    PureState,
    SplitterAngles,
    TeleportParams,
    WCoefficients,
    condition,
    conditional_resource,
    generate_w,
    partial_trace,
    povm_number,
    reduced_pair,
    scan_all_pairs,
    symmetric_angles,
    w_state_from_coefficients,
    witness_ratio_simulated,
)
from wsim import detection, fock, teleport, witness
from wsim.cli import main

from oracles import pad


def random_coefficients(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return WCoefficients(tuple(complex(x) for x in v))


def two_photon_density(state):
    """The same amplitudes as a density on the two-photon space."""
    return PureState(FockSpace(state.num_modes), state.amplitudes).to_density()


class TestSpaceSizes:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 40])
    def test_generate_w_dimension(self, n):
        state = generate_w(symmetric_angles(n))
        assert state.space.dim == n + 1

    def test_generate_w_with_phases_dimension(self):
        rng = np.random.default_rng(3)
        angles = SplitterAngles(
            tuple(rng.uniform(0.0, math.pi / 2.0, 5)), tuple(rng.uniform(0.0, 6.0, 6))
        )
        assert generate_w(angles).space.dim == 7

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_w_state_from_coefficients_dimension(self, n):
        state = w_state_from_coefficients(random_coefficients(np.random.default_rng(n), n))
        assert state.space.dim == n + 1


class TestExactAgainstTwoPhotonRoute:
    def test_conditional_resource(self):
        for n in range(2, 9):
            for m in range(n - 1):
                for eta in (0.25, 0.5, 0.75, 1.0):
                    rho = two_photon_density(generate_w(symmetric_angles(n)))
                    if m:
                        vac = povm_number(0, DetectorModel(eta))
                        rho = condition(rho, {2 + k: vac for k in range(m)})
                    if rho.num_modes > 2:
                        rho = partial_trace(rho, (0, 1))
                    got = conditional_resource(TeleportParams(n, m, eta, 0.3))
                    assert got.space == rho.space == FockSpace(2)
                    assert np.array_equal(got.matrix, rho.matrix)
                    assert got.normalized == rho.normalized

    def test_reduced_pair(self):
        rng = np.random.default_rng(11)
        for n in range(2, 8):
            w = random_coefficients(rng, n)
            full = two_photon_density(w_state_from_coefficients(w))
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    expected = partial_trace(full, (i, j))
                    got = reduced_pair(w, i, j)
                    assert got.space == expected.space
                    assert np.array_equal(got.matrix, expected.matrix)

    def test_scan_matches_per_pair_route(self):
        rng = np.random.default_rng(5)
        alphas = list(random_coefficients(rng, 6).alphas)
        alphas[2] = alphas[4] = 0.0  # one vacuum pair, two half-empty pairs
        norm = math.sqrt(sum(abs(a) ** 2 for a in alphas))
        w = WCoefficients(tuple(a / norm for a in alphas))
        det = DetectorModel(0.6)
        report = scan_all_pairs(w, det)
        assert len(report.results) == 15
        for row in report.results:
            i, j = row.pair
            if (i, j) == (2, 4):
                assert row.note is not None and row.ratio == 1.0
                continue
            assert row.ratio == witness_ratio_simulated(reduced_pair(w, i, j), det).ratio


def dense_resource(rho, m, eta):
    """The heralded pair from the dense W density ``rho``: the vacuum-POVM
    weights, the conditioning, the partial-trace plans and the zero padding
    into FockSpace(2)."""
    n, space, mat = rho.num_modes, rho.space, rho.matrix
    if m:
        vac = povm_number(0, DetectorModel(eta))
        assignments = {2 + k: vac for k in range(m)}
        keep = tuple(k for k in range(n) if k not in assignments)
        sq = np.sqrt(detection._povm_weights(space, assignments))
        space, mat = fock._ptrace_raw(space, sq[:, None] * mat * sq[None, :], keep)
    if space.num_modes > 2:
        space, mat = fock._ptrace_raw(space, mat, (0, 1))
    return DensityOperator(
        FockSpace(2), pad(space, mat, FockSpace(2)), normalized=rho.normalized and not m
    )


class TestResourceAgainstDenseRoute:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_bit_equal(self, n):
        rho = generate_w(symmetric_angles(n)).to_density()
        etas = (1.0, 0.5, 1e-9, float(np.random.default_rng(n).uniform(0.05, 0.95)))
        for m in sorted({0, 1, n // 2, n - 2} & set(range(n - 1))):
            for eta in etas:
                expected = dense_resource(rho, m, eta)
                got = conditional_resource(TeleportParams(n, m, eta, 0.3))
                assert got.matrix.tobytes() == expected.matrix.tobytes(), (n, m, eta)
                assert got.normalized == expected.normalized

    def test_large_network_validates_only_the_pair(self, monkeypatch):
        check = fock._check_density_stack
        shapes = []

        def spy(matrices, normalized=False):
            assert matrices.shape[-2:] == (6, 6), matrices.shape
            shapes.append(matrices.shape)
            return check(matrices, normalized)

        monkeypatch.setattr(fock, "_check_density_stack", spy)
        teleport._conditional_resource_cached.cache_clear()
        rho = conditional_resource(TeleportParams(2048, 1024, 0.9, 0.7))
        assert shapes == [(1, 6, 6)]
        assert rho.trace() == pytest.approx((2048 - 0.9 * 1024) / 2048)


class TestReducedPairCrossCheck:
    def test_disagreement_is_a_runtime_error(self, monkeypatch):
        original = witness._closed_pairs

        def skewed(amps, weight):
            # damp the pair's coherence: still a valid state, but not the W pair
            closed = original(amps, weight)
            closed[:, 1, 2] *= 1.0 - 1e-9
            closed[:, 2, 1] *= 1.0 - 1e-9
            return closed

        monkeypatch.setattr(witness, "_closed_pairs", skewed)
        w = WCoefficients((0.6, 0.8j))
        with pytest.raises(RuntimeError):
            reduced_pair(w, 0, 1)


class TestSharedBasis:
    def test_equal_spaces_share_one_enumeration(self):
        assert FockSpace(7).basis is FockSpace(7, 2).basis
        assert FockSpace(7).index is FockSpace(7, 2, 2).index
        assert FockSpace(7, 1).basis is not FockSpace(7).basis

    def test_pad_keeps_entries_and_zero_fills(self):
        small, big = FockSpace(3, 1), FockSpace(3)
        rng = np.random.default_rng(0)
        m = rng.normal(size=(small.dim, small.dim)) + 1j * rng.normal(size=(small.dim, small.dim))
        out = pad(small, m, big)
        for a, occ_a in enumerate(big.basis):
            for b, occ_b in enumerate(big.basis):
                if occ_a in small.index and occ_b in small.index:
                    assert out[a, b] == m[small.index[occ_a], small.index[occ_b]]
                else:
                    assert out[a, b] == 0


class TestNoLargeOnePhotonBasis:
    """The CLI reads W states by mode: no command enumerates a one-photon
    basis above N = 64, whatever its N."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "--N", "4096", "--m", "0,2048", "--eta", "0.9", "--theta", "0.7"],
            ["wstate", "--symmetric", "2048"],
            ["witness-scan", "--symmetric", "100"],
        ],
        ids=["teleport", "wstate", "witness-scan"],
    )
    def test_cli(self, monkeypatch, capsys, argv):
        tables = fock._basis_tables
        modes = []

        def spy(num_modes, total_cutoff, mode_cutoff):
            modes.append(num_modes)
            return tables(num_modes, total_cutoff, mode_cutoff)

        monkeypatch.setattr(fock, "_basis_tables", spy)
        teleport._conditional_resource_cached.cache_clear()
        teleport._w_amplitudes.cache_clear()
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert max(modes, default=0) <= 64


class TestBoundedCaches:
    @pytest.mark.parametrize(
        "cached",
        [
            teleport._conditional_resource_cached,
            teleport._event_weight_sqrt,
            fock._basis_tables,
            fock._tensor_plan,
            fock._ptrace_plan,
            fock._unitary_plan,
            fock._two_mode_table_plan,
            fock._mode_counts,
            teleport._operator_basis_maps,
            teleport._bell_unitary,
            teleport._trace_index,
            teleport._w_amplitudes,
            detection._readout_unitary,
            detection._count_vectors,
            fock._photon_numbers,
        ],
    )
    def test_cache_has_a_bound(self, cached):
        assert cached.cache_info().maxsize is not None

