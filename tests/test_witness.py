"""Pairwise variance witness: reduced states, ratios, and full scans."""

import cmath
import math

import numpy as np
import pytest

from wsim import (
    DetectorModel,
    PairWitnessResult,
    WCoefficients,
    reduced_pair,
    scan_all_pairs,
    symmetric_angles,
    witness_ratio_closed_form,
    witness_ratio_simulated,
)
from wsim.circuits import coefficients_from_angles
from wsim.verify import _random_coefficients as random_coefficients


class TestReducedPair:
    def test_symmetric_trio_pair(self):
        w = coefficients_from_angles(symmetric_angles(3))
        rho = reduced_pair(w, 0, 1)
        space = rho.space
        # one third of the weight sits on the traced-out mode
        assert rho.matrix[space.index[(0, 0)], space.index[(0, 0)]] == pytest.approx(
            1.0 / 3.0
        )
        assert rho.matrix[space.index[(1, 0)], space.index[(0, 1)]] == pytest.approx(
            1.0 / 3.0
        )
        assert rho.trace() == pytest.approx(1.0)

    def test_identical_modes_rejected(self):
        w = coefficients_from_angles(symmetric_angles(3))
        with pytest.raises(ValueError):
            reduced_pair(w, 1, 1)

    def test_mode_out_of_range_rejected(self):
        w = coefficients_from_angles(symmetric_angles(3))
        with pytest.raises(ValueError):
            reduced_pair(w, 0, 3)

    def test_weightless_pair_rejected(self):
        w = WCoefficients((1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0, 0.0))
        with pytest.raises(ValueError):
            reduced_pair(w, 2, 3)


class TestRatio:
    def test_symmetric_trio_value(self):
        w = coefficients_from_angles(symmetric_angles(3))
        rho = reduced_pair(w, 0, 1)
        result = witness_ratio_simulated(rho, DetectorModel(1.0))
        assert result.ratio == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert result.violated

    @pytest.mark.parametrize("seed", range(25))
    def test_closed_form_matches_simulation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        w = random_coefficients(rng, n)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        det = DetectorModel(float(rng.uniform(0.05, 1.0)))
        closed = witness_ratio_closed_form(w.alphas[i], w.alphas[j], det)
        rho = reduced_pair(w, int(i), int(j))
        sim = witness_ratio_simulated(rho, det)
        assert sim.ratio == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("seed", range(25))
    def test_any_efficiency_violates(self, seed):
        # whenever both coefficients carry weight, arbitrarily lossy
        # detectors still resolve a ratio below one
        rng = np.random.default_rng(100 + seed)
        w = random_coefficients(rng, 4)
        det = DetectorModel(float(rng.uniform(1e-4, 1.0)))
        ratio = witness_ratio_closed_form(w.alphas[0], w.alphas[1], det)
        assert ratio < 1.0

    @pytest.mark.parametrize("alpha", [float("nan"), complex(0.0, float("nan")), 1.5])
    def test_invalid_pair_weight_rejected(self, alpha):
        with pytest.raises(ValueError):
            witness_ratio_closed_form(alpha, 0.5, DetectorModel(0.5))

    def test_vanishing_efficiency_limit(self):
        w = coefficients_from_angles(symmetric_angles(3))
        ratio = witness_ratio_closed_form(w.alphas[0], w.alphas[1], DetectorModel(1e-6))
        assert 1.0 - 1e-4 < ratio < 1.0

    def test_global_phase_invariance(self):
        w = coefficients_from_angles(symmetric_angles(3))
        phase = cmath.exp(0.7j)
        det = DetectorModel(0.8)
        base = witness_ratio_closed_form(w.alphas[0], w.alphas[1], det)
        rotated = witness_ratio_closed_form(
            phase * w.alphas[0], phase * w.alphas[1], det
        )
        assert rotated == pytest.approx(base, abs=1e-12)

    def test_relative_phase_covariance(self):
        # both routes must see the same ratio for phased coefficients
        alphas = (
            0.5 * cmath.exp(0.3j),
            0.5 * cmath.exp(-1.1j),
            complex(math.sqrt(0.5)),
        )
        w = WCoefficients(alphas)
        det = DetectorModel(0.9)
        closed = witness_ratio_closed_form(alphas[0], alphas[1], det)
        sim = witness_ratio_simulated(reduced_pair(w, 0, 1), det)
        assert sim.ratio == pytest.approx(closed, abs=1e-12)

    def test_vacuum_pair_saturates_bound(self):
        space_state = WCoefficients((0.0, 0.0, 1.0))
        # build the vacuum pair directly: reduced_pair refuses it, so
        # condition on the full state by tracing the occupied mode
        from wsim import FockSpace, fock_state, partial_trace

        full = fock_state(FockSpace(3), (0, 0, 1)).to_density()
        rho = partial_trace(full, (0, 1))
        result = witness_ratio_simulated(rho, DetectorModel(0.7))
        assert result.ratio == pytest.approx(1.0)
        assert not result.violated
        assert result.note is not None
        del space_state


class TestScan:
    def test_symmetric_quartet_all_pairs_violate(self):
        w = coefficients_from_angles(symmetric_angles(4))
        report = scan_all_pairs(w, DetectorModel(1.0))
        assert report.N == 4
        assert len(report.results) == 6
        assert report.all_violated
        assert all(r.violated for r in report.results)
        assert "entangled across all parties" in report.conclusion
        # symmetric states give the same ratio on every pair
        ratios = [r.ratio for r in report.results]
        assert max(ratios) - min(ratios) < 1e-12

    def test_vacuum_pair_is_flagged(self):
        w = WCoefficients((1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0, 0.0))
        report = scan_all_pairs(w, DetectorModel(1.0))
        flagged = [r for r in report.results if r.note is not None]
        assert len(flagged) == 1
        assert flagged[0].pair == (2, 3)
        assert not flagged[0].violated
        assert not report.all_violated
        assert "fails" in report.conclusion

    def test_pair_bookkeeping(self):
        w = coefficients_from_angles(symmetric_angles(3))
        report = scan_all_pairs(w, DetectorModel(0.5))
        assert [r.pair for r in report.results] == [(0, 1), (0, 2), (1, 2)]
        for r in report.results:
            assert r.p_ij == pytest.approx(2.0 / 3.0)


class TestResultValidation:
    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError):
            PairWitnessResult(
                pair=(0, 1), p_ij=0.5, lhs=1.0, rhs=2.0, ratio=0.5, violated=False
            )

    def test_ratio_must_match_quotient(self):
        with pytest.raises(ValueError):
            PairWitnessResult(
                pair=(0, 1), p_ij=0.5, lhs=1.0, rhs=2.0, ratio=0.9, violated=True
            )

    @pytest.mark.parametrize("lhs, ratio", [(float("nan"), float("nan")), (1.0, float("nan"))])
    def test_nan_ratio_rejected(self, lhs, ratio):
        with pytest.raises(ValueError):
            PairWitnessResult(
                pair=None, p_ij=0.5, lhs=lhs, rhs=1.0, ratio=ratio, violated=False
            )
