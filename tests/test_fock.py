"""Foundation checks: basis order, states, operators, channels."""

import math

import numpy as np
import pytest

from wsim import (
    DensityOperator,
    FockSpace,
    PureState,
    annihilation_matrix,
    apply_phase_shift,
    apply_two_mode_unitary,
    bell_splitter,
    canonical_basis,
    creation_matrix,
    expectation,
    fock_state,
    jx_matrix,
    jy_matrix,
    jz_matrix,
    number_matrix,
    overlap_fidelity,
    partial_trace,
    splitter,
    tensor,
    total_number_matrix,
    vacuum_state,
)


def random_density(rng, space, rank=2, max_total=None):
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        if max_total is not None:
            for occ, i in space.index.items():
                if sum(occ) > max_total:
                    v[i] = 0.0
        v /= np.linalg.norm(v)
        mat += w * np.outer(v, v.conj())
    return DensityOperator(space, mat, normalized=True)


class TestBasis:
    def test_two_mode_canonical_order(self):
        assert canonical_basis(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_dimension_closed_form(self, n):
        # cutoff two: vacuum, n single-photon slots, n(n+1)/2 two-photon slots
        assert FockSpace(n).dim == 1 + n + n * (n + 1) // 2

    def test_graded_then_lex(self):
        basis = canonical_basis(3, 2)
        totals = [sum(occ) for occ in basis]
        assert totals == sorted(totals)
        for t in (0, 1, 2):
            sector = [occ for occ in basis if sum(occ) == t]
            assert sector == sorted(sector)

    def test_mode_cutoff_restricts(self):
        assert (2, 0) not in FockSpace(2, 2, mode_cutoff=1).index

    def test_zero_modes_rejected_for_canonical_basis(self):
        with pytest.raises(ValueError):
            canonical_basis(0)

    def test_index_inverts_basis(self):
        space = FockSpace(4)
        for i, occ in enumerate(space.basis):
            assert space.index[occ] == i


class TestStates:
    def test_fock_state_roundtrip(self):
        space = FockSpace(3)
        state = fock_state(space, (1, 0, 1))
        vec = state.to_vector()
        assert vec[space.index[(1, 0, 1)]] == 1.0
        assert np.count_nonzero(vec) == 1

    def test_vacuum(self):
        assert vacuum_state(FockSpace(2)).amplitudes == {(0, 0): 1.0 + 0.0j}

    def test_keys_become_basis_tuples(self):
        space = FockSpace(2)
        state = PureState(space, {(1.0, 0): 0.6, (np.int64(0), np.int64(1)): 0.8})
        assert list(state.amplitudes) == [(1, 0), (0, 1)]
        for occ in state.amplitudes:
            assert all(type(n) is int for n in occ)

    def test_occupation_outside_space_rejected(self):
        with pytest.raises(ValueError):
            PureState(FockSpace(2), {(2, 1): 1.0})

    @pytest.mark.parametrize("occ", [(1.5, 0), (0, 0.999), (np.float64(0.5), 1), ("1", 0)])
    def test_non_integer_occupation_rejected(self, occ):
        # int() would truncate (1.5, 0) to the basis state |1, 0>
        with pytest.raises(ValueError, match="non-integer"):
            PureState(FockSpace(2), {occ: 1.0})
        with pytest.raises(ValueError, match="non-integer"):
            fock_state(FockSpace(2), occ)

    def test_subnormalized_needs_flag(self):
        with pytest.raises(ValueError):
            PureState(FockSpace(2), {(0, 1): 0.5})
        branch = PureState(FockSpace(2), {(0, 1): 0.5}, post_selected=True)
        assert branch.norm_sq == pytest.approx(0.25)

    def test_density_requires_hermitian(self):
        mat = np.zeros((6, 6), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            DensityOperator(FockSpace(2), mat)

    def test_density_requires_psd(self):
        mat = np.zeros((6, 6), dtype=complex)
        mat[0, 0] = -0.5
        mat[1, 1] = 1.5
        with pytest.raises(ValueError):
            DensityOperator(FockSpace(2), mat)

    def test_density_trace_bounded(self):
        with pytest.raises(ValueError):
            DensityOperator(FockSpace(2), 2.0 * np.eye(6, dtype=complex))

    def test_density_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityOperator(FockSpace(1, 1), np.full((2, 2), np.nan))

    def test_pure_state_rejects_nan(self):
        with pytest.raises(ValueError):
            PureState(FockSpace(2), {(0, 1): float("nan")})


class TestSplitters:
    def test_single_photon_balanced(self):
        out = apply_two_mode_unitary(
            fock_state(FockSpace(2), (1, 0)), (0, 1), splitter(math.pi / 4)
        )
        r = 1.0 / math.sqrt(2.0)
        assert out.amplitudes[(1, 0)] == pytest.approx(r)
        assert out.amplitudes[(0, 1)] == pytest.approx(r)

    def test_two_photon_interference_chain(self):
        out = apply_two_mode_unitary(
            fock_state(FockSpace(2), (1, 1)), (0, 1), splitter(math.pi / 4)
        )
        r = 1.0 / math.sqrt(2.0)
        assert abs(out.amplitudes.get((1, 1), 0.0)) < 1e-12
        assert out.amplitudes[(0, 2)] == pytest.approx(r)
        assert out.amplitudes[(2, 0)] == pytest.approx(-r)

    def test_two_photon_interference_bell(self):
        out = apply_two_mode_unitary(
            fock_state(FockSpace(2), (1, 1)), (0, 1), bell_splitter(math.pi / 4)
        )
        r = 1.0 / math.sqrt(2.0)
        assert out.amplitudes[(2, 0)] == pytest.approx(r)
        assert out.amplitudes[(0, 2)] == pytest.approx(-r)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        space = FockSpace(3)
        rho = random_density(rng, space)
        theta = rng.uniform(0.0, math.pi / 2.0)
        out = apply_two_mode_unitary(rho, (0, 2), splitter(theta))
        assert out.trace() == pytest.approx(1.0, abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_two_mode_unitary(
                fock_state(FockSpace(2), (1, 0)), (0, 1), np.array([[1.0, 0.0], [1.0, 1.0]])
            )

    def test_mode_cutoff_overflow_rejected(self):
        space = FockSpace(2, 2, mode_cutoff=1)
        with pytest.raises(ValueError):
            apply_two_mode_unitary(fock_state(space, (1, 1)), (0, 1), splitter(math.pi / 4))

    def test_phase_shift_acts_per_photon(self):
        space = FockSpace(2)
        state = PureState(
            space, {(0, 0): 0.5, (1, 0): 0.5, (2, 0): math.sqrt(0.5)}
        )
        out = apply_phase_shift(state, 0, 0.7)
        assert out.amplitudes[(0, 0)] == pytest.approx(0.5)
        assert out.amplitudes[(1, 0)] == pytest.approx(0.5 * np.exp(-0.7j))
        assert out.amplitudes[(2, 0)] == pytest.approx(math.sqrt(0.5) * np.exp(-1.4j))


class TestTensorAndTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        space = FockSpace(2)
        bell = PureState(
            space, {(1, 0): 1.0 / math.sqrt(2.0), (0, 1): 1.0 / math.sqrt(2.0)}
        )
        reduced = partial_trace(bell.to_density(), (1,))
        expected = np.zeros((3, 3), dtype=complex)
        expected[reduced.space.index[(0,)], reduced.space.index[(0,)]] = 0.5
        expected[reduced.space.index[(1,)], reduced.space.index[(1,)]] = 0.5
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_tensor_then_trace_recovers_factors(self):
        rng = np.random.default_rng(7)
        a = random_density(rng, FockSpace(1), max_total=1)
        b = random_density(rng, FockSpace(2), max_total=1)
        joint = tensor(a, b)
        assert joint.space.num_modes == 3
        assert np.allclose(partial_trace(joint, (0,)).matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(joint, (1, 2)).matrix, b.matrix, atol=1e-12)

    def test_tensor_overflow_rejected(self):
        one = fock_state(FockSpace(1), (2,)).to_density()
        other = fock_state(FockSpace(1), (1,)).to_density()
        with pytest.raises(ValueError):
            tensor(one, other)

    def test_keep_validation(self):
        rho = vacuum_state(FockSpace(2)).to_density()
        with pytest.raises(ValueError):
            partial_trace(rho, ())
        with pytest.raises(ValueError):
            partial_trace(rho, (0, 0))
        with pytest.raises(ValueError):
            partial_trace(rho, (2,))

    def test_trace_invariant_under_reduction(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, FockSpace(3))
        assert partial_trace(rho, (1,)).trace() == pytest.approx(rho.trace(), abs=1e-12)


class TestOperators:
    def test_annihilation_matrix_elements(self):
        space = FockSpace(1)
        a = annihilation_matrix(space, 0)
        assert a[space.index[(0,)], space.index[(1,)]] == pytest.approx(1.0)
        assert a[space.index[(1,)], space.index[(2,)]] == pytest.approx(math.sqrt(2.0))

    def test_creation_is_adjoint(self):
        space = FockSpace(2)
        assert np.allclose(
            creation_matrix(space, 1), annihilation_matrix(space, 1).conj().T
        )

    def test_number_operator_diagonal(self):
        space = FockSpace(2)
        n0 = number_matrix(space, 0)
        for occ, i in space.index.items():
            assert n0[i, i] == pytest.approx(occ[0])
        assert np.allclose(
            total_number_matrix(space), number_matrix(space, 0) + number_matrix(space, 1)
        )

    def test_commutator_below_cutoff(self):
        # [a, a^dagger] = 1 holds on occupations that cannot overflow
        space = FockSpace(2)
        a = annihilation_matrix(space, 0)
        comm = a @ creation_matrix(space, 0) - creation_matrix(space, 0) @ a
        for occ, i in space.index.items():
            if sum(occ) < space.total_cutoff:
                assert comm[i, i] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_angular_momentum_algebra(self, seed):
        rng = np.random.default_rng(seed)
        space = FockSpace(2)
        rho = random_density(rng, space)
        jx, jy, jz = jx_matrix(space), jy_matrix(space), jz_matrix(space)
        lhs = expectation(rho, jx @ jy - jy @ jx)
        rhs = 1j * expectation(rho, jz)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_jz_is_half_difference(self):
        space = FockSpace(2)
        expected = (number_matrix(space, 0) - number_matrix(space, 1)) / 2.0
        assert np.allclose(jz_matrix(space), expected)

    def test_j_matrices_need_two_modes(self):
        with pytest.raises(ValueError):
            jx_matrix(FockSpace(3))


class TestFidelity:
    def test_overlap_against_pure_state(self):
        space = FockSpace(1)
        psi = fock_state(space, (1,))
        rho = DensityOperator(space, 0.25 * psi.to_vector()[:, None] @ psi.to_vector()[None, :].conj())
        assert overlap_fidelity(rho, psi) == pytest.approx(0.25)

    def test_requires_normalized_reference(self):
        space = FockSpace(1)
        rho = vacuum_state(space).to_density()
        sub = PureState(space, {(0,): 0.5}, post_selected=True)
        with pytest.raises(ValueError):
            overlap_fidelity(rho, sub)


class TestBasisPermutation:
    @pytest.mark.parametrize("seed", range(3))
    def test_unitary_commutes_with_mode_relabeling(self, seed):
        # applying a splitter on modes (0, 1) of a 3-mode state, then
        # relabeling, equals relabeling first and acting on the new labels
        rng = np.random.default_rng(seed)
        space = FockSpace(3)
        rho = random_density(rng, space)
        theta = rng.uniform(0.0, math.pi / 2.0)
        direct = apply_two_mode_unitary(rho, (0, 1), splitter(theta))
        perm = {0: 2, 1: 0, 2: 1}  # old mode -> new slot
        relabel = np.zeros((space.dim, space.dim))
        for occ, i in space.index.items():
            moved = [0, 0, 0]
            for old, new in perm.items():
                moved[new] = occ[old]
            relabel[space.index[tuple(moved)], i] = 1.0
        rho_perm = DensityOperator(space, relabel @ rho.matrix @ relabel.T, normalized=True)
        acted = apply_two_mode_unitary(rho_perm, (perm[0], perm[1]), splitter(theta))
        assert np.allclose(
            acted.matrix, relabel @ direct.matrix @ relabel.T, atol=1e-12
        )
