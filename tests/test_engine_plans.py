"""Index plans of the raw Fock engine and the stacked Bloch-kernel path.

The planned operations must reproduce, bit for bit, the direct loops they
replaced; those loops are kept here as reference oracles.  Preservation
of the trace (density operators) and of the squared norm (pure states)
under the public unitary and phase operations is checked as a property
over random states.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsim import (
    DensityOperator,
    FockSpace,
    PureState,
    TeleportParams,
    apply_phase_shift,
    apply_two_mode_unitary,
    bell_splitter,
    nonadvantageous_bound,
    splitter,
)
from wsim import fock, teleport
from wsim.config import TOL


# ---------------------------------------------------------------------------
# Reference oracles: the loop implementations of the raw engine.
# ---------------------------------------------------------------------------


def tensor_loop(space_a, a, space_b, b):
    space = FockSpace(
        space_a.num_modes + space_b.num_modes,
        max(space_a.total_cutoff, space_b.total_cutoff),
        max(space_a.mode_cutoff, space_b.mode_cutoff),
    )
    out = np.zeros((space.dim, space.dim), dtype=complex)
    index = space.index
    for ia, ta in enumerate(space_a.basis):
        for ib, tb in enumerate(space_b.basis):
            row = index.get(ta + tb)
            if row is None:
                continue
            for ja, ua in enumerate(space_a.basis):
                if a[ia, ja] == 0:
                    continue
                for jb, ub in enumerate(space_b.basis):
                    col = index.get(ua + ub)
                    if col is not None:
                        out[row, col] += a[ia, ja] * b[ib, jb]
    return space, out


def ptrace_loop(space, matrix, keep):
    traced = tuple(m for m in range(space.num_modes) if m not in keep)
    out_space = FockSpace(len(keep), space.total_cutoff, space.mode_cutoff)
    groups = {}
    for i, occ in enumerate(space.basis):
        kept = tuple(occ[m] for m in keep)
        rest = tuple(occ[m] for m in traced)
        groups.setdefault(rest, []).append((i, out_space.index[kept]))
    out = np.zeros((out_space.dim, out_space.dim), dtype=complex)
    for members in groups.values():
        for i, ki in members:
            for j, kj in members:
                out[ki, kj] += matrix[i, j]
    return out_space, out


def two_mode_blocks_loop(u, max_photons):
    blocks = []
    for n in range(max_photons + 1):
        block = np.zeros((n + 1, n + 1), dtype=complex)
        for k in range(n + 1):
            poly = np.zeros(n + 1, dtype=complex)
            for p in range(k + 1):
                c1 = math.comb(k, p) * u[0, 0] ** p * u[1, 0] ** (k - p)
                for q in range(n - k + 1):
                    c2 = math.comb(n - k, q) * u[0, 1] ** q * u[1, 1] ** (n - k - q)
                    poly[p + q] += c1 * c2
            norm_in = math.sqrt(math.factorial(k) * math.factorial(n - k))
            for p in range(n + 1):
                norm_out = math.sqrt(math.factorial(p) * math.factorial(n - p))
                block[p, k] = poly[p] * norm_out / norm_in
        blocks.append(block)
    return blocks


def embedded_unitary_loop(space, modes, u):
    i, j = modes
    blocks = two_mode_blocks_loop(u, min(space.total_cutoff, 2 * space.mode_cutoff))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for col, occ in enumerate(space.basis):
        n = occ[i] + occ[j]
        block = blocks[n]
        k = occ[i]
        for p in range(n + 1):
            amp = block[p, k]
            if amp == 0:
                continue
            target = list(occ)
            target[i] = p
            target[j] = n - p
            row = space.index.get(tuple(target))
            if row is None:
                if abs(amp) > TOL.support:
                    raise ValueError("per-mode cutoff overflow in two-mode unitary")
                continue
            out[row, col] = amp
    return out


def assert_same_bits(got, expected):
    """Equal shape and dtype and the same bytes, so signed zeros count."""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


CUTOFFS = [(1, None), (2, None), (2, 1), (3, None), (3, 2), (3, 1)]
SPACES = [FockSpace(n, c, mc) for n in range(1, 5) for c, mc in CUTOFFS]


def random_matrix(rng, dim, zero_frac=0.3):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m[rng.random((dim, dim)) < zero_frac] = 0.0
    return m


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitaries(rng):
    return [
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        bell_splitter(math.pi / 4),
        splitter(0.3),
        fock._check_two_mode_unitary(splitter(0.3)),
        random_unitary(rng),
    ]


def space_id(space):
    return f"{space.num_modes}-{space.total_cutoff}-{space.mode_cutoff}"


class TestPlansEqualLoops:
    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_embedded_unitary(self, space):
        rng = np.random.default_rng(space.num_modes * 10 + space.total_cutoff)
        for modes in itertools.permutations(range(space.num_modes), 2):
            for u in unitaries(rng):
                try:
                    expected = embedded_unitary_loop(space, modes, u)
                except ValueError:
                    with pytest.raises(ValueError, match="per-mode cutoff overflow"):
                        fock._embedded_unitary(space, modes, u)
                    continue
                assert_same_bits(fock._embedded_unitary(space, modes, u), expected)

    def test_per_mode_cutoff_overflow_still_raises(self):
        space = FockSpace(2, 2, 1)
        with pytest.raises(ValueError, match="per-mode cutoff overflow"):
            embedded_unitary_loop(space, (0, 1), bell_splitter(math.pi / 4))
        with pytest.raises(ValueError, match="per-mode cutoff overflow"):
            fock._embedded_unitary(space, (0, 1), bell_splitter(math.pi / 4))
        # the swap keeps |1,1> inside the space, so nothing overflows
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_same_bits(
            fock._embedded_unitary(space, (0, 1), swap), embedded_unitary_loop(space, (0, 1), swap)
        )

    @pytest.mark.parametrize("max_photons", [0, 1, 2, 3, 4])
    def test_packed_table_holds_the_blocks(self, max_photons):
        u = random_unitary(np.random.default_rng(max_photons))
        table = fock._two_mode_table(u, max_photons)
        for n, block in enumerate(two_mode_blocks_loop(u, max_photons)):
            assert_same_bits(table[n, : n + 1, : n + 1], block)

    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_partial_trace(self, space):
        rng = np.random.default_rng(space.dim)
        matrix = random_matrix(rng, space.dim)
        modes = range(space.num_modes)
        for size in range(1, space.num_modes + 1):
            for keep in itertools.permutations(modes, size):
                out_space, out = fock._ptrace_raw(space, matrix, keep)
                ref_space, ref = ptrace_loop(space, matrix, keep)
                assert out_space == ref_space
                assert_same_bits(out, ref)

    def test_partial_trace_of_a_stack_is_the_stack_of_traces(self):
        space = FockSpace(3)
        rng = np.random.default_rng(7)
        stack = np.stack([random_matrix(rng, space.dim) for _ in range(6)]).reshape(
            2, 3, space.dim, space.dim
        )
        _, out = fock._ptrace_raw(space, stack, (2,))
        for idx in np.ndindex(2, 3):
            assert_same_bits(out[idx], ptrace_loop(space, stack[idx], (2,))[1])

    @pytest.mark.parametrize(
        "space_a, space_b",
        [
            (a, b)
            for a in SPACES
            for b in SPACES
            if a.num_modes + b.num_modes <= 4 and a.dim * b.dim <= 100
        ],
        ids=lambda s: space_id(s),
    )
    def test_tensor(self, space_a, space_b):
        rng = np.random.default_rng(space_a.dim * 100 + space_b.dim)
        a = random_matrix(rng, space_a.dim)
        b = random_matrix(rng, space_b.dim)
        out_space, out = fock._tensor_raw(space_a, a, space_b, b)
        ref_space, ref = tensor_loop(space_a, a, space_b, b)
        assert out_space == ref_space
        assert_same_bits(out, ref)


class TestStackedKernels:
    def test_angle_stack_equals_single_angles(self):
        base = TeleportParams(5, 2, 0.6, 0.0)
        thetas = np.linspace(0.0, math.pi / 2.0, 7)
        stack = teleport._transported(base, thetas)
        assert stack.shape == (7, 4, 10, 10)
        for t, theta in enumerate(thetas):
            single = teleport._transported(dataclasses.replace(base, theta=float(theta)))
            assert_same_bits(stack[t], single)

    def test_stack_equals_two_dimensional_products(self):
        params = TeleportParams(4, 1, 0.8, 0.7, "onoff", "both")
        u = teleport._bell_unitary(params.theta)
        stack = teleport._transported(params)
        for slot in range(4):
            j, k = divmod(slot, 2)
            qubit = np.zeros((3, 3), dtype=complex)
            qubit[j, k] = 1.0
            _, t = fock._tensor_raw(
                FockSpace(1), qubit, teleport._RESOURCE_SPACE, teleport.conditional_resource(params).matrix
            )
            assert_same_bits(stack[slot], u @ t @ u.conj().T)

    def test_nonadvantageous_bound_equals_per_angle_loop(self):
        n, m, eta, n_theta, n_phase = 4, 1, 0.7, 301, 16
        base = TeleportParams(n, m, eta, 0.0)
        phases = np.array(
            sorted({0.0, math.pi} | {2.0 * math.pi * k / n_phase for k in range(n_phase)})
        )
        rot = np.exp(-1j * phases)
        best = {event: 0.0 for event in teleport.REJECTED}
        for theta in np.linspace(0.0, math.pi / 2.0, n_theta):
            params = dataclasses.replace(base, theta=float(theta))
            mats = teleport._transported(params)
            for event in teleport.REJECTED:
                k00, k01, k10, k11 = teleport._condition_kernels(mats, params, event, flip=False)
                int_p = float(np.real(np.trace(k11) + np.trace(k00))) / 2.0
                if int_p < 1e-14:
                    continue
                static = float(
                    np.real((k11[1, 1] + k00[0, 0]) / 3.0 + (k11[0, 0] + k00[1, 1]) / 6.0)
                )
                swept = static + np.real(rot * k10[1, 0] + np.conj(rot) * k01[0, 1]) / 6.0
                best[event] = max(best[event], float(np.max(swept)) / int_p)
        assert nonadvantageous_bound(n, m, eta, n_theta=n_theta, n_phase=n_phase) == best

    def test_sample_values_equal_per_slot_monomials(self):
        params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
        kernels = teleport._bob_kernels(params, teleport.BellEvent.D01)
        monomials = teleport._sampled_monomials(np.random.default_rng(2), 1000)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, 1000)
        phi = rng.uniform(0.0, 2.0 * math.pi, 1000)
        a = np.sqrt((1.0 + x) / 2.0) * np.exp(-1j * phi)
        b = np.sqrt((1.0 - x) / 2.0)
        f = np.zeros(a.shape, dtype=complex)
        p = np.zeros(a.shape, dtype=complex)
        coeffs = (b * b, np.conj(a) * b, a * b, np.abs(a) ** 2)
        for coeff, k in zip(coeffs, kernels):
            inner = (
                np.abs(a) ** 2 * k[1, 1]
                + np.conj(a) * b * k[1, 0]
                + a * b * k[0, 1]
                + b * b * k[0, 0]
            )
            f += coeff * inner
            p += coeff * np.trace(k)
        got_f, got_p = teleport._sample_values(kernels, monomials)
        assert_same_bits(got_f, f.real)
        assert_same_bits(got_p, p.real)


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------

_SPACE = FockSpace(3)


@st.composite
def psd_states(draw):
    """A random PSD operator on a three-mode space with trace in (0, 1]."""
    rank = draw(st.integers(1, 3))
    parts = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
            min_size=2 * _SPACE.dim * rank,
            max_size=2 * _SPACE.dim * rank,
        )
    )
    a = np.array(parts).reshape(2, _SPACE.dim, rank)
    a = a[0] + 1j * a[1]
    m = a @ a.conj().T
    tr = m.trace().real
    if tr < 1e-6:
        m = np.eye(_SPACE.dim, dtype=complex) / _SPACE.dim
        tr = 1.0
    scale = draw(st.floats(0.05, 1.0))
    return DensityOperator(_SPACE, scale * m / tr)


@st.composite
def pure_states(draw):
    """A random pure state on a three-mode space, normalized or, flagged
    as post-selected, with squared norm in (0, 1]."""
    parts = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
            min_size=2 * _SPACE.dim,
            max_size=2 * _SPACE.dim,
        )
    )
    v = np.array(parts[: _SPACE.dim]) + 1j * np.array(parts[_SPACE.dim :])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.eye(_SPACE.dim)[0].astype(complex), 1.0
    scale = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    amps = dict(zip(_SPACE.basis, math.sqrt(scale) * v / norm))
    return PureState(_SPACE, amps, post_selected=scale != 1.0)


angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


def random_two_mode_unitary(theta, alpha, beta, gamma):
    c, s = math.cos(theta), math.sin(theta)
    return np.exp(1j * gamma) * np.array(
        [
            [np.exp(1j * alpha) * c, np.exp(1j * beta) * s],
            [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
        ]
    )


class TestTracePreservation:
    @settings(max_examples=60, deadline=None)
    @given(
        rho=psd_states(),
        modes=st.permutations(range(3)).map(lambda p: (p[0], p[1])),
        theta=angles,
        alpha=angles,
        beta=angles,
        gamma=angles,
    )
    def test_two_mode_unitary(self, rho, modes, theta, alpha, beta, gamma):
        u = random_two_mode_unitary(theta, alpha, beta, gamma)
        out = apply_two_mode_unitary(rho, modes, u)
        assert abs(out.trace() - rho.trace()) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(rho=psd_states(), mode=st.integers(0, 2), phi=st.floats(-10.0, 10.0))
    def test_phase_shift(self, rho, mode, phi):
        out = apply_phase_shift(rho, mode, phi)
        assert abs(out.trace() - rho.trace()) <= 1e-12


class TestNormPreservation:
    @settings(max_examples=60, deadline=None)
    @given(
        psi=pure_states(),
        modes=st.permutations(range(3)).map(lambda p: (p[0], p[1])),
        theta=angles,
        alpha=angles,
        beta=angles,
        gamma=angles,
    )
    def test_two_mode_unitary(self, psi, modes, theta, alpha, beta, gamma):
        u = random_two_mode_unitary(theta, alpha, beta, gamma)
        out = apply_two_mode_unitary(psi, modes, u)
        assert abs(out.norm_sq - psi.norm_sq) <= TOL.norm

    @settings(max_examples=60, deadline=None)
    @given(psi=pure_states(), mode=st.integers(0, 2), phi=st.floats(-10.0, 10.0))
    def test_phase_shift(self, psi, mode, phi):
        out = apply_phase_shift(psi, mode, phi)
        assert abs(out.norm_sq - psi.norm_sq) <= TOL.norm
