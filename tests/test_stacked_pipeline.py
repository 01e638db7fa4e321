"""Stacked runs of the simulated teleport pipeline.

simulate_averaged's quadrature sends all of its nodes through _bob_states
as one stack, and mc_averaged draws, evaluates and sums its samples in
leaves of numpy's pairwise-sum tree, skipping the kernel entries that are
exactly zero.  Each must equal, bit for bit, the per-node, whole-chunk and
dense computations they replace, which are kept here as oracles; the
stack validator must reject a single bad slice exactly as DensityOperator
rejects that matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsim import (
    BellEvent,
    DensityOperator,
    FockSpace,
    TeleportParams,
    UnknownQubit,
    bob_state,
    conditional_resource,
    mc_averaged,
    simulate_averaged,
    tensor,
)
from wsim import fock, teleport
from wsim.circuits import bell_splitter
from wsim.detection import _condition_outcomes_raw
from wsim.teleport import MCResult

import oracles

HALF_PI = math.pi / 2.0

efficiencies = st.one_of(st.just(1e-9), st.just(1.0), st.floats(1e-9, 1.0))
angles = st.one_of(st.just(0.0), st.just(HALF_PI), st.floats(0.0, HALF_PI))


@st.composite
def teleport_params(draw):
    n = draw(st.integers(2, 10))
    m = draw(st.one_of(st.just(n - 2), st.integers(0, n - 2)))
    return TeleportParams(
        n,
        m,
        draw(efficiencies),
        draw(angles),
        draw(st.sampled_from(["number", "onoff"])),
        draw(st.sampled_from(["D10", "D01", "both"])),
    )


@st.composite
def qubits(draw):
    return UnknownQubit.from_bloch(draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi)))


def loop_bob_state(event, qubit, params):
    """bob_state as one validated run per qubit: public tensor, raw
    splitter, conditioning and correction, validation at return."""
    probe = tensor(qubit.state().to_density(), conditional_resource(params))
    u = fock._check_two_mode_unitary(bell_splitter(params.theta))
    mat = fock._unitary_raw(probe.space, probe.matrix, (0, 1), u)
    space, mat = _condition_outcomes_raw(
        probe.space, mat, teleport._event_assignments(event, params.eta, params.detector_kind)
    )
    if event is BellEvent.D01:
        mat = fock._phase_raw(space, mat, 0, math.pi)
    return DensityOperator(space, mat)


def loop_quadrature(params, n_polar=8, n_azimuth=16):
    """The quadrature average with one loop_bob_state per node and event."""
    xs, wx = np.polynomial.legendre.leggauss(n_polar)
    sum_f = sum_p = 0.0
    for x, w in zip(xs, wx):
        theta_i = math.acos(float(np.clip(x, -1.0, 1.0)))
        for k in range(n_azimuth):
            qubit = UnknownQubit.from_bloch(theta_i, 2.0 * math.pi * k / n_azimuth)
            target = qubit.state()
            weight = w / 2.0 / n_azimuth
            for event in params.events:
                rho_b = loop_bob_state(event, qubit, params)
                sum_f += weight * float(
                    np.real(target.to_vector().conj() @ rho_b.matrix @ target.to_vector())
                )
                sum_p += weight * rho_b.trace()
    return float(sum_f / sum_p), float(sum_p)


def density_stack(qs):
    vectors = [q.state().to_vector() for q in qs]
    return np.stack([np.outer(v, v.conj()) for v in vectors])


class TestStackEqualsLoop:
    @settings(max_examples=60, deadline=None)
    @given(params=teleport_params(), qs=st.lists(qubits(), min_size=1, max_size=6))
    def test_bob_states(self, params, qs):
        for event in (BellEvent.D10, BellEvent.D01):
            space, stack = teleport._bob_states(event, density_stack(qs), params)
            assert stack.shape == (len(qs), 3, 3)
            for q, mat in zip(qs, stack):
                expected = loop_bob_state(event, q, params)
                assert space == expected.space
                assert np.array_equal(mat, expected.matrix)
                assert np.array_equal(bob_state(event, q, params).matrix, expected.matrix)

    @settings(max_examples=15, deadline=None)
    @given(params=teleport_params())
    def test_quadrature(self, params):
        assert simulate_averaged(params, method="quadrature") == loop_quadrature(params)

    @pytest.mark.parametrize("n_polar, n_azimuth", [(1, 1), (3, 5), (9, 2)])
    def test_quadrature_grid_sizes(self, n_polar, n_azimuth):
        params = TeleportParams(5, 2, 0.6, 0.7, "onoff", "both")
        assert simulate_averaged(params, "quadrature", n_polar, n_azimuth) == loop_quadrature(
            params, n_polar, n_azimuth
        )

    @pytest.mark.parametrize("n_polar, n_azimuth", [(0, 16), (8, 0), (8, -1)])
    def test_empty_grid_rejected(self, n_polar, n_azimuth):
        with pytest.raises(ValueError):
            simulate_averaged(TeleportParams(3, 1, 0.8, 0.5), "quadrature", n_polar, n_azimuth)

    def test_cutoff_check_runs_per_slice(self):
        params = TeleportParams(3, 0, 0.8, 0.4)
        space = FockSpace(1)
        two = np.zeros((space.dim, space.dim), dtype=complex)
        two[space.index[(2,)], space.index[(2,)]] = 1.0
        stack = np.stack([density_stack([UnknownQubit(0.6, 0.8)])[0], two])
        with pytest.raises(ValueError, match="exceeds the total-photon cutoff"):
            teleport._bob_states(BellEvent.D10, stack, params)
        with pytest.raises(ValueError, match="exceeds the total-photon cutoff"):
            tensor(DensityOperator(space, two), conditional_resource(params))


def bits(pairs):
    """Each float of a list of (f, p) pairs by its repr: equal reprs are
    equal bits, signed zeros included."""
    return [tuple(repr(float(x)) for x in pair) for pair in pairs]


class TestBlockedMoments:
    """The moments route over blocks of rows against the per-row route,
    kept as the oracle: each row has its own resource, angle, efficiency,
    detector kind and event set."""

    @pytest.mark.parametrize("size", [1, 15, 16, 17, 40])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_blocks_equal_per_row_route(self, size, data):
        rows = data.draw(st.lists(teleport_params(), min_size=size, max_size=size))
        expected = [oracles.moments(params) for params in rows]
        assert bits(teleport._averaged_moments(rows)) == bits(expected)
        assert bits([simulate_averaged(rows[0], "moments")]) == bits(expected[:1])

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(teleport_params(), min_size=1, max_size=teleport._BLOCK))
    def test_block_kernels_equal_per_row_kernels(self, rows):
        # mc_averaged reads the one-row block's kernels
        index, kernels = teleport._block_kernels(rows)
        # all D10 kernels, then all D01 kernels, each in row order
        pairs = [
            (b, event)
            for event in (BellEvent.D10, BellEvent.D01)
            for b, params in enumerate(rows)
            if event in params.events
        ]
        assert index == [b for b, _ in pairs]
        assert len(kernels) == len(pairs)
        for (b, event), k in zip(pairs, kernels):
            expected = oracles.condition_kernels(oracles.transported(rows[b]), rows[b], event)
            assert k.tobytes() == expected.tobytes()


def plain_monomials(x, phi):
    """_monomials written out, every array freshly allocated."""
    a = np.sqrt((1.0 + x) / 2.0) * np.exp(-1j * phi)
    b = np.sqrt((1.0 - x) / 2.0)
    return b * b, np.conj(a) * b, a * b, np.abs(a) ** 2


def sampled_monomials(rng, size):
    """Draw ``size`` qubits uniformly on the Bloch sphere, all of x and then
    all of phi, and return their monomials for the whole draw at once."""
    x = rng.uniform(-1.0, 1.0, size)
    phi = rng.uniform(0.0, 2.0 * math.pi, size)
    return plain_monomials(x, phi)


def fresh_sample_values(kernels, monomials):
    """_sample_values in a workspace of its own, so results can be kept."""
    return teleport._sample_values(kernels, monomials, teleport._LeafWork(len(monomials[0])))


def dense_sample_values(kernels, monomials):
    """_sample_values with every kernel entry, zero or not, in the sum."""
    bb, cab, ab, aa = monomials
    f = np.zeros(aa.shape, dtype=complex)
    p = np.zeros(aa.shape, dtype=complex)
    for coeff, k in zip(monomials, kernels):
        inner = aa * k[1, 1] + cab * k[1, 0] + ab * k[0, 1] + bb * k[0, 0]
        f += coeff * inner
        p += coeff * np.trace(k)
    return f.real, p.real


def loop_mc(params, n_samples, seed, chunks):
    """mc_averaged with every chunk's monomials built, its samples
    evaluated with the dense kernel and its sums taken in one piece."""
    mats = oracles.transported(params)
    event_kernels = [oracles.condition_kernels(mats, params, e) for e in params.events]
    sizes = [n_samples // chunks + (1 if i < n_samples % chunks else 0) for i in range(chunks)]
    sum_f = sum_p = sum_ff = sum_pp = sum_fp = 0.0
    for seq, size in zip(np.random.SeedSequence(seed).spawn(chunks), sizes):
        monomials = sampled_monomials(np.random.default_rng(seq), size)
        f = np.zeros(size)
        p = np.zeros(size)
        for kernels in event_kernels:
            df, dp = dense_sample_values(kernels, monomials)
            f += df
            p += dp
        sum_f += f.sum()
        sum_p += p.sum()
        sum_ff += (f * f).sum()
        sum_pp += (p * p).sum()
        sum_fp += (f * p).sum()
    return sum_f, sum_p, sum_ff, sum_pp, sum_fp


class TestBlockedSamples:
    @pytest.mark.parametrize("size", [1, 1000, 16_385, 125_000])
    def test_sample_values_in_slices(self, size):
        params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
        mats = oracles.transported(params)
        kernels = oracles.condition_kernels(mats, params, BellEvent.D01)
        monomials = sampled_monomials(np.random.default_rng(size), size)
        f, p = fresh_sample_values(kernels, monomials)
        for block in (7, 1000, teleport._SAMPLE_BLOCK):
            parts = [
                fresh_sample_values(kernels, tuple(x[s : s + block] for x in monomials))
                for s in range(0, size, block)
            ]
            assert np.array_equal(np.concatenate([pf for pf, _ in parts]), f)
            assert np.array_equal(np.concatenate([pp for _, pp in parts]), p)

    @settings(max_examples=40, deadline=None)
    @given(params=teleport_params(), seed=st.integers(0, 2**32 - 1))
    def test_sample_values_skip_only_zero_terms(self, params, seed):
        mats = oracles.transported(params)
        monomials = sampled_monomials(np.random.default_rng(seed), 500)
        for event in params.events:
            kernels = oracles.condition_kernels(mats, params, event)
            f, p = fresh_sample_values(kernels, monomials)
            dense_f, dense_p = dense_sample_values(kernels, monomials)
            # equal as numbers: a skipped term can change only a zero's sign
            assert np.array_equal(f, dense_f)
            assert np.array_equal(p, dense_p)

    def test_leaf_workspace_is_written_in_place(self):
        # mc_averaged's leaves reuse one workspace; each leaf's monomials and
        # values are views into it, bit for bit the freshly allocated ones
        params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
        mats = oracles.transported(params)
        event_kernels = [oracles.condition_kernels(mats, params, e) for e in params.events]
        work = teleport._LeafWork(4096)
        rng = np.random.default_rng(11)
        for count in (4096, 1, 2500, 128):
            x = rng.uniform(-1.0, 1.0, count)
            phi = rng.uniform(0.0, 2.0 * math.pi, count)
            monomials = teleport._monomials(x, phi, work)
            for got, expected in zip(monomials, plain_monomials(x, phi)):
                assert got.tobytes() == expected.tobytes()
            assert all(
                np.shares_memory(m, getattr(work, name))
                for m, name in zip(monomials, ("bb", "cab", "ab", "aa"))
            )
            for kernels in event_kernels:
                f, p = teleport._sample_values(kernels, monomials, work)
                assert np.shares_memory(f, work.fc) and np.shares_memory(p, work.pc)
                fresh_f, fresh_p = fresh_sample_values(kernels, plain_monomials(x, phi))
                assert f.tobytes() == fresh_f.tobytes() and p.tobytes() == fresh_p.tobytes()

    @pytest.mark.parametrize("block", [7, 1000, None])
    def test_mc_averaged(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(teleport, "_SAMPLE_BLOCK", block)
        params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
        seed = 3
        # (n_samples, chunks): chunks of 13,335 / 13,334 samples; more chunks
        # than samples (three empty chunks); one sample; chunks of 25,000
        # samples, past one default block and not a multiple of any block
        for n_samples, chunks in [(40_003, 3), (5, 8), (1, 1), (50_000, 2)]:
            sum_f, sum_p, sum_ff, sum_pp, sum_fp = loop_mc(params, n_samples, seed, chunks)
            mean_f, mean_p = sum_f / n_samples, sum_p / n_samples
            fbar = mean_f / mean_p
            var_resid = max(
                sum_ff / n_samples
                - 2.0 * fbar * sum_fp / n_samples
                + fbar**2 * sum_pp / n_samples
                - (mean_f - fbar * mean_p) ** 2,
                0.0,
            )
            var_p = max(sum_pp / n_samples - mean_p**2, 0.0)
            expected = MCResult(
                avg_fidelity=fbar,
                avg_probability=mean_p,
                stderr_fidelity=math.sqrt(var_resid / n_samples) / mean_p,
                stderr_probability=math.sqrt(var_p / n_samples),
                n_samples=n_samples,
            )
            assert mc_averaged(params, n_samples, seed, chunks) == expected, (n_samples, chunks)

    def test_mc_averaged_memory_per_sample(self):
        # a chunk keeps its draws and per-sample values (x, phi, f, p and
        # one f * f temporary: 40 bytes a sample); whole-chunk complex
        # monomials would add 64 bytes a sample and more in temporaries
        params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
        n_samples = 400_000
        mc_averaged(params, n_samples=1, chunks=1)  # cached kernels stay out of the trace
        tracemalloc.start()
        try:
            mc_averaged(params, n_samples=n_samples, chunks=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n_samples + 4 * 2**20

    @pytest.mark.parametrize("n_samples, chunks", [(400_000, 1), (1_000_000, 8)])
    def test_mc_averaged_memory_is_bounded_by_a_leaf(self, n_samples, chunks):
        # no array spans more than a 4,096-sample leaf, whatever the chunk
        params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
        mc_averaged(params, n_samples=1, chunks=1)
        tracemalloc.start()
        try:
            mc_averaged(params, n_samples=n_samples, chunks=chunks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestTreeSums:
    """teleport._tree_sums adds leaf sums along numpy's pairwise-sum tree;
    if numpy changed how np.sum adds float64, these fail instead of the
    Monte Carlo digests moving silently."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(
            st.sampled_from([1, 7, 8, 127, 128, 129, 136, 4096, 4097, 300_000]),
            st.integers(1, 300_000),
        ),
        leaf=st.one_of(st.sampled_from([128, 129, 4096]), st.integers(128, 50_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_to_np_sum(self, n, leaf, seed):
        rng = np.random.default_rng(seed)
        # magnitudes over 16 decades, so that any other order of the
        # additions rounds differently
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        consumed = 0

        def leaf_sums(count):
            nonlocal consumed
            part = values[consumed : consumed + count]
            consumed += count
            return np.array([part.sum(), (part * part).sum()])

        total, squares = teleport._tree_sums(n, leaf_sums, leaf)
        assert consumed == n
        assert total == values.sum()
        assert squares == (values * values).sum()

    def test_leaves_never_split_below_numpy_block(self):
        counts = []

        def leaf_sums(count):
            counts.append(count)
            return np.zeros(1)

        teleport._tree_sums(100_000, leaf_sums, 7)
        assert sum(counts) == 100_000
        assert max(counts) <= teleport._SUM_BLOCK
        assert min(counts) >= teleport._SUM_BLOCK // 2


def valid_stack(rng, size=4, dim=3):
    v = rng.normal(size=(size, dim)) + 1j * rng.normal(size=(size, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, :, None] * v.conj()[:, None, :]


def broken(kind, dim=3):
    m = np.zeros((dim, dim), dtype=complex)
    if kind == "non-Hermitian":
        m[0, 0] = m[1, 1] = 0.5
        m[0, 1] = 0.1
    elif kind == "non-PSD":
        m[0, 0], m[1, 1] = 0.7, -0.1
    elif kind == "trace above 1":
        m[0, 0], m[1, 1] = 0.8, 0.4
    elif kind == "NaN":
        m[0, 0] = m[1, 1] = 0.5
        m[2, 2] = np.nan
    elif kind == "negative trace":
        m[0, 0] = -5e-11  # PSD within tolerance, trace below 0
    return m


class TestStackValidator:
    @pytest.mark.parametrize(
        "kind", ["non-Hermitian", "non-PSD", "trace above 1", "NaN", "negative trace"]
    )
    @pytest.mark.parametrize("position", [0, 2, 3])
    def test_one_bad_slice(self, kind, position):
        stack = valid_stack(np.random.default_rng(position))
        bad = broken(kind)
        stack[position] = bad
        with pytest.raises(ValueError) as from_class:
            DensityOperator(FockSpace(1), bad)
        with pytest.raises(ValueError) as from_stack:
            fock._check_density_stack(stack)
        assert str(from_stack.value) == str(from_class.value)

    def test_normalized_flag(self):
        stack = valid_stack(np.random.default_rng(0))
        fock._check_density_stack(stack, normalized=True)
        stack[1] *= 0.5
        fock._check_density_stack(stack)
        with pytest.raises(ValueError) as from_class:
            DensityOperator(FockSpace(1), stack[1], normalized=True)
        with pytest.raises(ValueError) as from_stack:
            fock._check_density_stack(stack, normalized=True)
        assert str(from_stack.value) == str(from_class.value)

    def test_bob_states_validate_each_node(self, monkeypatch):
        params = TeleportParams(3, 1, 0.7, 0.5)
        original = teleport._phase_raw

        def skewed(space, matrix, mode, phi):
            out = original(space, matrix, mode, phi)
            out[1, 0, 1] += 1e-6  # one node's state stops being Hermitian
            return out

        monkeypatch.setattr(teleport, "_phase_raw", skewed)
        stack = density_stack([UnknownQubit(0.6, 0.8), UnknownQubit(0.8, 0.6j)])
        teleport._bob_states(BellEvent.D10, stack, params)
        with pytest.raises(ValueError, match="not Hermitian"):
            teleport._bob_states(BellEvent.D01, stack, params)
