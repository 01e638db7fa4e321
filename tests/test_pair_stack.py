"""Stacked witness pairs reduced from the W amplitudes.

reduced_pair, witness_ratio_simulated, scan_all_pairs and the witness
claim of verify reduce W-state pairs straight from the W state's mode
amplitudes and read them out as one stack.  The per-pair route they
replaced (the W density as a DensityOperator, the partial-trace plan,
zero padding, and one readout per pair) is kept here as the oracle: every
pair state, photon weight and ratio must equal it bit for bit.  A bad
slice must be rejected with the message DensityOperator gives, and a
disagreement with the closed form must raise RuntimeError.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsim import (
    DensityOperator,
    DetectorModel,
    FockSpace,
    WCoefficients,
    lossy_moments,
    reduced_pair,
    scan_all_pairs,
    w_state_from_coefficients,
    witness_ratio_simulated,
)
from wsim import detection, fock, witness
from wsim.config import TOL

from oracles import efficiencies, pad

PAIR = FockSpace(2)


# ---------------------------------------------------------------------------
# Reference oracles: the per-pair route.
# ---------------------------------------------------------------------------


def loop_reduced_pair(w, i, j):
    """The validated W density, the partial-trace plan onto (i, j) and the
    zero padding into FockSpace(2), one pair at a time."""
    rho = w_state_from_coefficients(w).to_density()
    sub_space, sub = fock._ptrace_raw(rho.space, rho.matrix, (i, j))
    return DensityOperator(PAIR, pad(sub_space, sub, PAIR), normalized=rho.normalized)


def loop_moments(rho2, eta):
    """lossy_moments as one phase shifter, splitter and np.diag readout
    per state, with 1-D dots."""
    full = detection._readout_unitary(rho2.space)
    d_vals, n_vals = detection._count_vectors(rho2.space, (0, 1))
    stats = []
    for phi in (0.0, math.pi / 2):
        probe = fock._phase_raw(rho2.space, rho2.matrix, 1, phi)
        diag = np.real(np.diag(full @ probe @ full.conj().T))
        mean_d = float(diag @ d_vals)
        stats.append((float(diag @ d_vals**2) - mean_d**2, float(diag @ n_vals)))
    (var_dx, n_plus), (var_dy, _) = stats
    var_jx = (eta**2 * var_dx + eta * (1.0 - eta) * n_plus) / 4.0
    var_jy = (eta**2 * var_dy + eta * (1.0 - eta) * n_plus) / 4.0
    return var_jx, var_jy, eta * n_plus


def loop_witness(rho2, eta):
    """(p_ij, ratio) of witness_ratio_simulated on one state."""
    var_jx, var_jy, n_plus_meas = loop_moments(rho2, eta)
    lhs = (1.0 + 4.0 * var_jx) * (1.0 + 4.0 * var_jy)
    rhs = (1.0 + n_plus_meas) ** 2
    p = float(np.real(np.diag(rho2.matrix)) @ fock._photon_numbers(rho2.space))
    return p, lhs / rhs


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@st.composite
def w_states(draw, max_modes=64):
    """A random complex W state, some of whose coefficients may be zero."""
    n = draw(st.integers(2, max_modes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    zeros = draw(st.lists(st.integers(0, n - 1), max_size=n - 1))
    v[zeros] = 0.0
    v /= np.linalg.norm(v)
    return WCoefficients(tuple(complex(x) for x in v))


@st.composite
def live_pairs(draw, w, max_pairs=12):
    """Mode pairs of w in either order that carry photon weight."""
    n = len(w.alphas)
    live = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and abs(w.alphas[i]) ** 2 + abs(w.alphas[j]) ** 2 > TOL.support
    ]
    return draw(st.lists(st.sampled_from(live), min_size=1, max_size=max_pairs))


def symmetric(n):
    return WCoefficients((complex(1.0 / math.sqrt(n)),) * n)


# ---------------------------------------------------------------------------
# Bit equality with the per-pair route.
# ---------------------------------------------------------------------------


def check_pairs(w, pairs, eta):
    for i, j in pairs:
        got = reduced_pair(w, i, j)
        expected = loop_reduced_pair(w, i, j)
        assert got.space == expected.space
        assert got.normalized == expected.normalized
        # bytes, not ==, so that a zero of the other sign fails too
        assert got.matrix.tobytes() == expected.matrix.tobytes()
        res = witness_ratio_simulated(got, DetectorModel(eta))
        assert (res.p_ij, res.ratio) == loop_witness(expected, eta)
        assert lossy_moments(got, DetectorModel(eta)) == loop_moments(expected, eta)


def check_scan(w, eta, pairs=None):
    """scan_all_pairs against the oracle on ``pairs`` (default: all)."""
    report = scan_all_pairs(w, DetectorModel(eta))
    n = len(w.alphas)
    assert [r.pair for r in report.results] == [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = {r.pair: r for r in report.results}
    for (i, j), row in rows.items():
        vacuous = abs(w.alphas[i]) ** 2 + abs(w.alphas[j]) ** 2 <= TOL.support
        assert (row.note is not None) == vacuous
        if vacuous:
            assert row.ratio == 1.0 and not row.violated
    for i, j in rows if pairs is None else pairs:
        if rows[i, j].note is None:
            expected = loop_witness(loop_reduced_pair(w, i, j), eta)
            assert (rows[i, j].p_ij, rows[i, j].ratio) == expected


class TestEqualsPerPairRoute:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), w=w_states(), eta=efficiencies)
    def test_reduced_pair_and_ratio(self, data, w, eta):
        check_pairs(w, data.draw(live_pairs(w)), eta)

    @pytest.mark.parametrize(
        "w, pairs",
        [
            (symmetric(64), [(0, 63), (63, 0), (5, 6)]),
            (WCoefficients((0.0, 0.0, 0.6, 0.8j)), [(2, 3), (3, 2), (0, 3), (3, 1)]),
            # signed zeros, in a vanishing coefficient and in live ones
            (
                WCoefficients((complex(-0.0, -0.0), complex(0.6, -0.0), complex(-0.0, -0.8))),
                [(1, 2), (2, 1), (0, 2), (1, 0)],
            ),
        ],
    )
    @pytest.mark.parametrize("eta", [1e-9, 1.0])
    def test_reduced_pair_examples(self, w, pairs, eta):
        check_pairs(w, pairs, eta)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), w=w_states(), eta=efficiencies)
    def test_scan_rows(self, data, w, eta):
        check_scan(w, eta, [tuple(sorted(p)) for p in data.draw(live_pairs(w))])

    @pytest.mark.parametrize("eta", [1e-9, 0.5, 1.0])
    def test_scan_with_vacuum_and_zero_cross_pairs(self, eta):
        check_scan(WCoefficients((0.0, 0.0, 0.6, 0.8j)), eta)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), count=st.integers(1, 30))
    def test_mixed_state_stack(self, data, count):
        """The verify claim's stack: every item with its own W state and
        efficiency, zero-padded to the largest N."""
        items, etas = [], []
        for _ in range(count):
            w = data.draw(w_states(max_modes=12))
            i, j = data.draw(live_pairs(w, max_pairs=1))[0]
            items.append((w, i, j))
            etas.append(data.draw(efficiencies))
        got = witness._witness_states(items, etas)
        for (w, i, j), eta, res in zip(items, etas, got):
            assert res.pair is None
            assert (res.p_ij, res.ratio) == loop_witness(loop_reduced_pair(w, i, j), eta)
        # the amplitudes come straight from the coefficients, not from a
        # PureState per item, and every pair keeps the oracle's bytes
        stack = witness._reduce_states(items)
        for (w, i, j), pair in zip(items, stack):
            assert pair.tobytes() == loop_reduced_pair(w, i, j).matrix.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20), eta=efficiencies)
    def test_general_two_mode_stack(self, seed, count, eta):
        """Stacks of two-mode states with two-photon weight, not only W pairs;
        a mean photon number above one is outside the witness's domain."""
        rng = np.random.default_rng(seed)
        # damp the two-photon amplitudes so that most states stay in that domain
        damp = np.where(fock._photon_numbers(PAIR) > 1, 0.3, 1.0)[:, None]
        mats = []
        for _ in range(count):
            a = rng.normal(size=(PAIR.dim, PAIR.dim)) + 1j * rng.normal(size=(PAIR.dim, PAIR.dim))
            rho = (damp * a) @ (damp * a).conj().T
            mats.append(rho / np.trace(rho).real)
        states = [DensityOperator(PAIR, m, normalized=True) for m in mats]
        stack = np.array([s.matrix for s in states])
        got = detection._lossy_moment_stack(PAIR, stack, [eta] * count)
        assert got == [loop_moments(s, eta) for s in states]
        inside = [k for k, s in enumerate(states) if loop_witness(s, eta)[0] <= 1.0]
        results = witness._witness_stack(PAIR, stack[inside], [eta] * len(inside), [None] * len(inside))
        assert [(r.p_ij, r.ratio) for r in results] == [loop_witness(states[k], eta) for k in inside]


class TestOnlyNormalizedStatesReachTheStack:
    """WCoefficients accepts a squared-norm error of up to TOL.norm * N,
    but PureState's norm check, which allows TOL.norm, runs on every W
    state; so every state the stack reduces is normalized, and each pair is
    validated as a normalized DensityOperator."""

    @pytest.mark.parametrize("error, message", [(5e-12, "squared norm"), (-5e-12, "sub-unit norm")])
    def test_norm_error_beyond_tol_norm_is_refused(self, error, message):
        n = 10
        alphas = [1.0 / math.sqrt(n)] * n
        alphas[0] *= math.sqrt(1.0 + error * n)
        w = WCoefficients(tuple(alphas))
        with pytest.raises(ValueError, match=message):
            reduced_pair(w, 0, 1)
        with pytest.raises(ValueError, match=message):
            scan_all_pairs(w, DetectorModel(0.5))
        with pytest.raises(ValueError, match=message):
            witness._witness_states([(w, 0, 1)], [0.5])


class TestNoPlanPerPair:
    def test_scan_and_reduced_pair_build_no_partial_trace_plan(self):
        fock._ptrace_plan.cache_clear()
        w = symmetric(40)
        scan_all_pairs(w, DetectorModel(0.7))
        reduced_pair(w, 3, 17)
        info = fock._ptrace_plan.cache_info()
        assert info.hits == info.misses == 0


# ---------------------------------------------------------------------------
# Every slice is validated and cross-checked.
# ---------------------------------------------------------------------------


def corrupt_positivity(weights, amps):
    weights[1, 1] = -0.1


def corrupt_trace(weights, amps):
    weights[1, 1] += 1e-6


def corrupt_finiteness(weights, amps):
    amps[1, 0] = np.nan


def dense_pair(weights, i, j, amps):
    """One W state's pair written out entry by entry: the kept block, and
    the other modes' weights summed into the vacuum entry."""
    m = np.zeros((PAIR.dim, PAIR.dim), dtype=complex)
    kept = [PAIR.index[(1, 0)], PAIR.index[(0, 1)]]
    m[np.ix_(kept, kept)] = np.outer(amps, amps.conj())
    m[PAIR.index[(0, 0)], PAIR.index[(0, 0)]] = sum(
        weights[k] for k in range(len(weights)) if k not in (i, j)
    )
    return m


class TestBadSliceRejected:
    """A corrupted slice in the middle of a stack is refused with the
    message DensityOperator gives for it.  A block built as a * conj(b) is
    Hermitian bit for bit, so that message is covered on the validator
    alone (test_stacked_pipeline.py::TestStackValidator)."""

    @pytest.mark.parametrize("corrupt", [corrupt_positivity, corrupt_trace, corrupt_finiteness])
    def test_message_of_density_operator(self, corrupt):
        ws = [symmetric(3), WCoefficients((0.6, 0.0, 0.8j)), symmetric(3)]
        i, j = 0, 2
        a = np.array([w.alphas for w in ws])
        weights, amps = a * a.conj(), a[:, [i, j]]
        corrupt(weights, amps)
        with pytest.raises(ValueError) as expected:
            DensityOperator(PAIR, dense_pair(weights[1], i, j, amps[1]), normalized=True)
        weight = (amps * amps.conj()).real.sum(axis=1)
        first, second = np.full(3, i), np.full(3, j)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            witness._reduce_pairs(weights, first, second, amps, weight)


class TestClosedFormDisagreement:
    @pytest.fixture
    def skewed(self, monkeypatch):
        original = witness._closed_pairs

        def skew_last(amps, weight):
            # damp the last pair's coherence: still a valid state, but not that pair
            closed = original(amps, weight)
            closed[-1, 1, 2] *= 1.0 - 1e-9
            closed[-1, 2, 1] *= 1.0 - 1e-9
            return closed

        monkeypatch.setattr(witness, "_closed_pairs", skew_last)

    def test_scan(self, skewed):
        with pytest.raises(RuntimeError, match="closed-form pair state"):
            scan_all_pairs(symmetric(5), DetectorModel(0.5))

    def test_mixed_state_stack(self, skewed):
        items = [(symmetric(3), 0, 1), (symmetric(4), 3, 1), (symmetric(2), 1, 0)]
        with pytest.raises(RuntimeError, match="closed-form pair state"):
            witness._witness_states(items, [0.5, 0.6, 0.7])
