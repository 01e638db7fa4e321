"""Index plans of the raw Fock engine and the stacked Bloch-kernel path.

The planned operations must reproduce, bit for bit, the direct loops they
replaced; those loops are kept here as reference oracles.  The occupation
dict loops that once applied splitters and phase shifters to a PureState
are kept too: the preparation chain on its amplitude vector must equal
them bit for bit, and the pure-state plan route within TOL.norm.
Preservation of the trace (density operators) and of the squared norm
(pure states) under the public unitary and phase operations is checked as
a property over random states.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsim import (
    DensityOperator,
    FockSpace,
    PureState,
    SplitterAngles,
    TeleportParams,
    apply_phase_shift,
    apply_two_mode_unitary,
    bell_splitter,
    fock_state,
    generate_w,
    nonadvantageous_bound,
    splitter,
    symmetric_angles,
)
from wsim import circuits, fock, teleport
from wsim.config import TOL

import oracles


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


def occupations_recursive(num_modes, total, mode_cutoff):
    if num_modes == 0:
        if total == 0:
            yield ()
        return
    for k in range(min(total, mode_cutoff) + 1):
        for rest in occupations_recursive(num_modes - 1, total - k, mode_cutoff):
            yield (k,) + rest


def unitary_dict_loop(state, modes, u):
    """A two-mode unitary on a PureState by its occupation dict."""
    i, j = modes
    space = state.space
    blocks = two_mode_blocks_loop(
        np.asarray(u, dtype=complex), min(space.total_cutoff, 2 * space.mode_cutoff)
    )
    new = {}
    for occ, amp in state.amplitudes.items():
        n = occ[i] + occ[j]
        k = occ[i]
        for p in range(n + 1):
            coeff = blocks[n][p, k] * amp
            if coeff == 0:
                continue
            target = list(occ)
            target[i] = p
            target[j] = n - p
            target = tuple(target)
            if target not in space.index:
                if abs(coeff) > TOL.support:
                    raise ValueError("per-mode cutoff overflow in two-mode unitary")
                continue
            new[target] = new.get(target, 0.0) + coeff
    return PureState(space, new, post_selected=state.post_selected)


def phase_dict_loop(state, mode, phi):
    new = {occ: amp * np.exp(-1j * phi * occ[mode]) for occ, amp in state.amplitudes.items()}
    return PureState(state.space, new, post_selected=state.post_selected)


def generate_w_dict_loop(angles):
    """The preparation chain run on the occupation dict, one splitter and
    one revalidated PureState at a time."""
    space = FockSpace(angles.num_modes, 1)
    state = fock_state(space, (1,) + (0,) * (angles.num_modes - 1))
    for j, theta in enumerate(angles.thetas):
        state = unitary_dict_loop(state, (j, j + 1), splitter(theta))
    for j, phi in enumerate(angles.phis):
        if phi != 0.0:
            state = phase_dict_loop(state, j, phi)
    return state


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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        theta=st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2)),
        max_photons=st.integers(1, 4),
    )
    def test_table_equals_the_block_loop(self, seed, theta, max_photons):
        # the loop powers, binomials and norms per term; the table
        # computes them once per call or once per max_photons
        for u in (bell_splitter(theta), splitter(theta), random_unitary(np.random.default_rng(seed))):
            table = fock._two_mode_table(u, max_photons)
            for n, block in enumerate(two_mode_blocks_loop(u, max_photons)):
                assert_same_bits(table[n, : n + 1, : n + 1], block)

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


class TestOccupations:
    def test_enumeration_equals_recursion(self):
        for num_modes in range(7):
            for total_cutoff in range(6):
                for mode_cutoff in range(6):
                    expected = [
                        occ
                        for n in range(total_cutoff + 1)
                        for occ in occupations_recursive(num_modes, n, mode_cutoff)
                    ]
                    space = FockSpace(num_modes, total_cutoff, mode_cutoff)
                    assert list(space.basis) == expected

    def test_thousands_of_modes(self):
        # one generator frame per mode would pass the recursion limit here
        space = FockSpace(2000, 1)
        assert space.dim == 2001
        assert space.basis[1] == (0,) * 1999 + (1,)
        assert space.basis[-1] == (1,) + (0,) * 1999


def assert_close_amplitudes(got, expected):
    assert got.space == expected.space
    assert got.post_selected == expected.post_selected
    for occ in set(got.amplitudes) | set(expected.amplitudes):
        assert abs(got.amplitudes.get(occ, 0.0) - expected.amplitudes.get(occ, 0.0)) <= TOL.norm


def random_pure_state(rng, space, zero_frac):
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    v[rng.random(space.dim) < zero_frac] = 0.0
    if not v.any():
        v[0] = 1.0
    return PureState(space, dict(zip(space.basis, v / np.linalg.norm(v))))


class TestPureStateRoute:
    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_unitary_equals_dict_loop(self, space):
        rng = np.random.default_rng(space.num_modes * 10 + space.total_cutoff + 1)
        randoms = [random_pure_state(rng, space, zero_frac) for zero_frac in (0.0, 0.8)]
        numbers = [fock_state(space, occ) for occ in space.basis]
        pairs = list(itertools.permutations(range(space.num_modes), 2))
        for index, modes in enumerate(pairs):
            # number states find every overflowing entry; both orders of one
            # pair are enough for them
            states = randoms + numbers if index < 2 else randoms
            for u in unitaries(rng):
                for state in states:
                    try:
                        expected = unitary_dict_loop(state, modes, u)
                    except ValueError:
                        with pytest.raises(ValueError, match="per-mode cutoff overflow"):
                            apply_two_mode_unitary(state, modes, u)
                        continue
                    assert_close_amplitudes(apply_two_mode_unitary(state, modes, u), expected)

    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_phase_equals_dict_loop(self, space):
        rng = np.random.default_rng(space.dim)
        state = random_pure_state(rng, space, 0.3)
        for mode in range(space.num_modes):
            for phi in (0.0, 0.7, -2.5, math.pi):
                assert_close_amplitudes(
                    apply_phase_shift(state, mode, phi), phase_dict_loop(state, mode, phi)
                )

    def test_overflow_only_for_carried_amplitudes(self):
        space = FockSpace(2, 2, 1)
        balanced = bell_splitter(math.pi / 4)
        one = fock_state(space, (1, 0))
        assert_close_amplitudes(
            apply_two_mode_unitary(one, (0, 1), balanced), unitary_dict_loop(one, (0, 1), balanced)
        )
        pair = fock_state(space, (1, 1))
        with pytest.raises(ValueError, match="per-mode cutoff overflow"):
            unitary_dict_loop(pair, (0, 1), balanced)
        with pytest.raises(ValueError, match="per-mode cutoff overflow"):
            apply_two_mode_unitary(pair, (0, 1), balanced)


_EDGE_ANGLES = st.sampled_from([0.0, math.pi / 2])


@st.composite
def chain_angles(draw):
    """Preparation-chain settings for N in 2..16, with angles drawn often
    at exactly 0 and pi/2 and phases often exactly 0."""
    n = draw(st.integers(2, 16))
    theta = st.one_of(_EDGE_ANGLES, st.floats(0.0, math.pi / 2))
    phi = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
    thetas = draw(st.lists(theta, min_size=n - 1, max_size=n - 1))
    phis = draw(st.lists(phi, min_size=n, max_size=n))
    return SplitterAngles(tuple(thetas), tuple(phis))


class TestChainOnAmplitudes:
    @settings(max_examples=100, deadline=None)
    @given(angles=chain_angles())
    @example(angles=SplitterAngles((0.0,) * 4))
    @example(angles=SplitterAngles((math.pi / 2,) * 4, (0.3, -1.0, 2.0, 0.0, 5.5)))
    @example(angles=SplitterAngles((0.0, math.pi / 2, 0.4, 0.0), (1.0, 0.0, -0.5, 2.0, 0.0)))
    @example(angles=SplitterAngles((0.7,) * 15, tuple(0.1 * j for j in range(16))))
    @example(angles=SplitterAngles((math.pi / 2 + 1e-12, 0.3, 0.0), (0.0, 1.0, 0.0, -2.0)))
    def test_generate_w_equals_dict_loop(self, angles):
        got = generate_w(angles)
        expected = generate_w_dict_loop(angles)
        assert got.space == expected.space
        assert set(got.amplitudes) == set(expected.amplitudes)
        for occ, amp in expected.amplitudes.items():
            assert_same_bits(np.complex128(got.amplitudes[occ]), np.complex128(amp))


def amplitude_reprs(amplitudes):
    """Each amplitude by the repr of its Python complex: equal reprs are
    equal bits, signed zeros included."""
    return [repr(complex(a)) for a in amplitudes]


class TestChainChecksOnce:
    """_chain_amplitudes builds the splitter stack, checks it once and runs
    the rotations on Python complex numbers; the per-splitter chain, each
    splitter a checked numpy 2x2, is the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 17, 64, 4096])
    def test_symmetric_chain_equals_per_splitter_chain(self, n):
        angles = symmetric_angles(n)
        got = amplitude_reprs(circuits._chain_amplitudes(angles))
        assert got == amplitude_reprs(oracles.chain_amplitudes(angles))

    @settings(max_examples=150, deadline=None)
    @given(angles=chain_angles())
    @example(angles=SplitterAngles((math.pi / 2 + 1e-12, 0.3, 0.0), (0.0, -0.0, math.pi, -2.0)))
    def test_random_chain_equals_per_splitter_chain(self, angles):
        got = amplitude_reprs(circuits._chain_amplitudes(angles))
        assert got == amplitude_reprs(oracles.chain_amplitudes(angles))

    def test_one_bad_splitter_fails_the_stack_check(self):
        stack = np.stack([splitter(0.3), splitter(1.1), splitter(0.7)]).astype(complex)
        fock._check_two_mode_unitaries(stack)
        stack[1, 0, 0] *= 1.0 + 1e-6
        message = "^mode-mixing matrix is not unitary within tolerance$"
        with pytest.raises(ValueError, match=message):
            fock._check_two_mode_unitary(stack[1])
        with pytest.raises(ValueError, match=message):
            fock._check_two_mode_unitaries(stack)

    def test_chain_checks_every_splitter_once(self, monkeypatch):
        checked = []
        monkeypatch.setattr(circuits, "_check_two_mode_unitaries", checked.append)
        angles = SplitterAngles((0.3, 0.0, math.pi / 2))
        circuits._chain_amplitudes(angles)
        (stack,) = checked
        expected = np.stack([splitter(theta) for theta in angles.thetas]).astype(complex)
        assert_same_bits(stack, expected)


# the flat entries i*10 + j of the joint-space matrices that the partial
# trace onto Bob's mode reads: _transported returns only these
_, (_I, _J, _, _) = fock._ptrace_plan(FockSpace(3), (2,))
TRACED = _I * 10 + _J


class TestStackedKernels:
    def test_angle_stack_equals_single_angles(self):
        # the grid form: one shared resource, the splitters built as one stack
        base = TeleportParams(5, 2, 0.6, 0.0)
        thetas = np.linspace(0.0, math.pi / 2.0, 7)
        splitters = fock._embedded_real_unitaries(
            teleport._JOINT_SPACE, (0, 1), np.stack([bell_splitter(theta) for theta in thetas])
        )
        stack = teleport._transported(teleport.conditional_resource(base).matrix[None], splitters)
        assert stack.shape == (7, 4, len(TRACED))
        for t, theta in enumerate(thetas):
            single = oracles.transported(dataclasses.replace(base, theta=float(theta)))
            assert_same_bits(stack[t], single.reshape(4, -1)[:, TRACED])

    def test_stack_equals_two_dimensional_products(self):
        params = TeleportParams(4, 1, 0.8, 0.7, "onoff", "both")
        u = oracles.bell_unitary(params.theta)
        (stack,) = teleport._transported(
            teleport.conditional_resource(params).matrix[None], u[None]
        )
        for slot in range(4):
            j, k = divmod(slot, 2)
            qubit = np.zeros((3, 3), dtype=complex)
            qubit[j, k] = 1.0
            _, t = fock._tensor_raw(
                FockSpace(1), qubit, teleport._RESOURCE_SPACE, teleport.conditional_resource(params).matrix
            )
            assert_same_bits(stack[slot], (u @ t @ u.conj().T).reshape(-1)[TRACED])

    @pytest.mark.parametrize("size", [1, 32, 1000])
    def test_stacked_splitters_equal_per_angle(self, size):
        # the rejected-event grid's splitters, built as one stack, against
        # _embedded_unitary at each angle
        rng = np.random.default_rng(size)
        edges = [0.0, math.pi / 4, math.pi / 2, math.pi / 2 + 1e-12]
        if size == 1:
            grids = [[theta] for theta in edges + [float(rng.uniform(0.0, math.pi / 2))]]
        else:
            mixed = edges + rng.uniform(0.0, math.pi / 2, size - len(edges)).tolist()
            grids = [np.linspace(0.0, math.pi / 2, size).tolist(), rng.permutation(mixed).tolist()]
        space = teleport._JOINT_SPACE
        for grid in grids:
            stack = fock._embedded_real_unitaries(
                space, (0, 1), np.stack([bell_splitter(theta) for theta in grid])
            )
            expected = np.stack(
                [fock._embedded_unitary(space, (0, 1), bell_splitter(theta)) for theta in grid]
            )
            assert_same_bits(stack, expected)

    @pytest.mark.parametrize("max_photons", [0, 1, 2, 3, 4])
    def test_stacked_tables_equal_single_tables(self, max_photons):
        rng = np.random.default_rng(max_photons)
        us = np.concatenate(
            [
                np.stack([bell_splitter(0.0), splitter(math.pi / 2), splitter(0.3)]),
                rng.normal(size=(200, 2, 2)),
            ]
        )
        tables = fock._real_two_mode_tables(us, max_photons)
        assert_same_bits(tables, np.stack([fock._two_mode_table(u, max_photons) for u in us]))

    def test_stacked_tables_take_real_stacks_only(self):
        rng = np.random.default_rng(0)
        for bad in (
            np.stack([random_unitary(rng)]),
            np.stack([bell_splitter(0.3)]).astype(complex),
            bell_splitter(0.3),
            np.zeros((2, 3, 3)),
        ):
            with pytest.raises(ValueError, match="real float64"):
                fock._real_two_mode_tables(bad, 2)
        with pytest.raises(ValueError, match="real float64"):
            fock._embedded_real_unitaries(
                FockSpace(3), (0, 1), np.stack([random_unitary(rng)])
            )

    def test_nonadvantageous_bound_equals_per_angle_loop(self, monkeypatch):
        n, m, eta, n_theta, n_phase = 4, 1, 0.7, 301, 16
        base = TeleportParams(n, m, eta, 0.0)
        phases = np.array(
            sorted({0.0, math.pi} | {2.0 * math.pi * k / n_phase for k in range(n_phase)})
        )
        rot = np.exp(-1j * phases)
        best = {event: 0.0 for event in teleport.REJECTED}
        for theta in np.linspace(0.0, math.pi / 2.0, n_theta):
            params = dataclasses.replace(base, theta=float(theta))
            mats = oracles.transported(params)
            for event in teleport.REJECTED:
                k00, k01, k10, k11 = oracles.condition_kernels(mats, params, event)
                int_p = float(np.real(np.trace(k11) + np.trace(k00))) / 2.0
                if int_p < 1e-14:
                    continue
                static = float(
                    np.real((k11[1, 1] + k00[0, 0]) / 3.0 + (k11[0, 0] + k00[1, 1]) / 6.0)
                )
                swept = static + np.real(rot * k10[1, 0] + np.conj(rot) * k01[0, 1]) / 6.0
                best[event] = max(best[event], float(np.max(swept)) / int_p)
        # one angle per block, the default blocks and the earlier 32- and
        # 125-angle ones
        for block in (1, 16, 32, 125):
            monkeypatch.setattr(teleport, "_BLOCK", block)
            assert nonadvantageous_bound(n, m, eta, n_theta=n_theta, n_phase=n_phase) == best

    def test_sample_values_equal_per_slot_monomials(self):
        params = TeleportParams(4, 1, 0.8, 0.9, "number", "both")
        kernels = oracles.condition_kernels(
            oracles.transported(params), params, teleport.BellEvent.D01
        )
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, 1000)
        phi = rng.uniform(0.0, 2.0 * math.pi, 1000)
        work = teleport._LeafWork(1000)
        monomials = teleport._monomials(x, phi, work)
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
        got_f, got_p = teleport._sample_values(kernels, monomials, work)
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
