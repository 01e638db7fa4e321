"""Pairwise entanglement witness for single-photon W states under lossy detection.

Any separable two-mode state obeys

    [1 + 4 var(J_x)] [1 + 4 var(J_y)] >= (1 + <N_+>)^2,

where J_x, J_y are the two-mode quadrature-like photon operators and N_+
the total count, all evaluated with the detector's measured moments.  A
reduced W-state pair drives the ratio lhs/rhs below one for every nonzero
coefficient product and every efficiency eta > 0, which is the content of
the closed form evaluated by witness_ratio_closed_form.  Scanning all
pairs certifies entanglement across every bipartite reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuits import WCoefficients, _as_coefficients, w_state_from_coefficients
from .config import TOL
from .detection import DetectorModel, _lossy_moment_stack
from .fock import DensityOperator, FockSpace, _check_density_stack, _photon_numbers


@dataclass(frozen=True)
class PairWitnessResult:
    """Witness evaluation for one mode pair.

    ratio = lhs/rhs; the pair is entangled precisely when the ratio
    undercuts one by more than the violation tolerance.  note marks rows
    where the test is vacuous (both coefficients zero), which are reported
    as non-violations rather than errors so a scan always completes.
    """

    pair: tuple[int, int] | None
    p_ij: float
    lhs: float
    rhs: float
    ratio: float
    violated: bool
    note: str | None = None

    def __post_init__(self) -> None:
        if not abs(self.ratio - self.lhs / self.rhs) <= TOL.exact_match:
            raise ValueError("ratio field inconsistent with lhs/rhs")
        if self.violated != (self.ratio < 1.0 - TOL.violation):
            raise ValueError("violated flag inconsistent with ratio")
        if self.note is None and not TOL.support < self.p_ij <= 1.0 + TOL.norm:
            raise ValueError(f"pair photon weight {self.p_ij} outside (0, 1]")


@dataclass(frozen=True)
class WitnessScanReport:
    """All-pairs witness scan over an N-mode W state."""

    N: int
    eta: float
    results: tuple[PairWitnessResult, ...]
    all_violated: bool
    conclusion: str

    def __post_init__(self) -> None:
        if self.all_violated != all(r.violated for r in self.results):
            raise ValueError("all_violated flag inconsistent with results")


_PAIR_SPACE = FockSpace(2)
# where the kept one-photon block of a reduced pair sits in FockSpace(2)
_VACUUM, _SECOND, _FIRST = (_PAIR_SPACE.index[occ] for occ in ((0, 0), (0, 1), (1, 0)))
# pairs per stack in scan_all_pairs: bounds the stack's temporaries at any N,
# while the loop over the W basis in _reduce_pairs runs once per stack
_PAIR_SLICE = 4096


def reduced_pair(w, i: int, j: int) -> DensityOperator:
    """Two-mode reduction of the W state onto modes (i, j), in that order.

    The W state carries one photon, so its density |W><W| lives in the
    one-photon space of dimension N + 1.  The reduced pair keeps the
    density's 2x2 block at the basis states of modes i and j, and its
    vacuum entry sums the density's diagonal over every other basis state
    in basis order, which is the partial trace term for term; the pair is
    zero-padded into the two-photon space ``FockSpace(2)`` and validated
    as a normalized DensityOperator.  It is cross-checked against the
    closed form p|Psi><Psi| + (1-p)|00><00| with
    |Psi> = (alpha_i|10> + alpha_j|01>)/sqrt(p); the two must agree to
    rounding, and a disagreement raises RuntimeError.  Errors with
    ValueError when both coefficients vanish (the reduction is vacuum and
    the witness is vacuous).

    This is the one-pair call of the stacked reduction that scan_all_pairs
    runs on all pairs of a state.
    """
    (pair,) = _reduce_states([(_as_coefficients(w), i, j)])
    return DensityOperator(_PAIR_SPACE, pair, normalized=True)


def _reduce_states(items) -> np.ndarray:
    """reduced_pair of each (WCoefficients, i, j) item, every item with its
    own W state, as a (P, 6, 6) stack.  The densities are zero-padded to
    the largest N, which appends exact zeros to each vacuum sum.

    Each W vector is taken straight from its validated coefficients, in
    the basis order of w_state_from_coefficients: the vacuum amplitude 0,
    then the coefficients with the last mode first.  (That PureState
    would turn a signed zero into +0; the reduction adds every entry onto
    +0, so no pair can tell.)"""
    dim = max(len(w.alphas) for w, _, _ in items) + 1
    vectors = np.zeros((len(items), dim), dtype=complex)
    first, second, amps, weight = [], [], [], []
    for k, (w, i, j) in enumerate(items):
        n = len(w.alphas)
        vectors[k, n:0:-1] = w.alphas
        i, j = int(i), int(j)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError("pair indices must be distinct and in range")
        a_i, a_j = w.alphas[i], w.alphas[j]
        p = abs(a_i) ** 2 + abs(a_j) ** 2
        if p <= TOL.support:
            raise ValueError(f"modes ({i}, {j}) carry no photon weight; pair state is vacuum")
        first.append(n - i)
        second.append(n - j)
        amps.append((a_i, a_j))
        weight.append(p)
    # PureState's norm check, on every vector at once
    norm_sq = np.sum(np.abs(vectors) ** 2, axis=1)
    outside = ~((0.0 < norm_sq) & (norm_sq <= 1.0 + TOL.norm))
    if outside.any():
        raise ValueError(f"squared norm {float(norm_sq[outside][0])} outside (0, 1]")
    if not np.all(np.abs(norm_sq - 1.0) <= TOL.norm):
        raise ValueError("sub-unit norm requires the post_selected flag")
    rho = vectors[:, :, None] * vectors.conj()[:, None, :]
    return _reduce_pairs(rho, np.array(first), np.array(second), np.array(amps), np.array(weight))


def _reduce_pairs(
    rho: np.ndarray, first: np.ndarray, second: np.ndarray, amps: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Reduced pair states from a (P, D, D) stack of one-photon W densities,
    as a (P, 6, 6) stack in ``FockSpace(2)``.

    Slice p of ``rho`` is the outer product |W><W| of a validated W state
    (one density may be broadcast to every pair); ``first[p]`` and
    ``second[p]`` are the basis indices of the photon in the pair's first
    and second mode, ``amps[p]`` their coefficients and ``weight[p]`` the
    pair's photon weight p.  Each slice equals, bit for bit, the partial
    trace plan's reduction of that density zero-padded into FockSpace(2):
    the plan adds each kept entry onto zero once, and the vacuum entry's
    terms one by one in basis order.  Every slice is validated as a
    normalized DensityOperator (a W state is a normalized PureState, so
    its density has unit trace) and compared with the closed form.
    """
    count, dim = rho.shape[0], rho.shape[-1]
    diag = np.diagonal(rho, axis1=-2, axis2=-1)
    vacuum = np.zeros(count, dtype=complex)
    # one term at a time: np.sum adds pairwise and rounds differently
    for k in range(dim):
        vacuum += np.where((first == k) | (second == k), 0.0, diag[:, k])
    kept = np.stack([np.zeros_like(first), second, first], axis=1)
    block = np.array([_VACUUM, _SECOND, _FIRST])
    pairs = np.zeros((count, _PAIR_SPACE.dim, _PAIR_SPACE.dim), dtype=complex)
    # added onto zeros, not assigned: a -0.0 entry comes out as 0.0, as in the plan
    pairs[:, block[:, None], block] += rho[
        np.arange(count)[:, None, None], kept[:, :, None], kept[:, None, :]
    ]
    pairs[:, _VACUUM, _VACUUM] = vacuum
    _check_density_stack(pairs, normalized=True)
    if np.abs(pairs - _closed_pairs(amps, weight)).max() > TOL.exact_match:
        raise RuntimeError("partial trace disagrees with the closed-form pair state")
    return pairs


def _closed_pairs(amps: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The closed-form pair states p|Psi><Psi| + (1-p)|00><00| for (P, 2)
    coefficients and their weights p, as a (P, 6, 6) stack."""
    psi = np.zeros((len(weight), _PAIR_SPACE.dim), dtype=complex)
    psi[:, [_FIRST, _SECOND]] = amps / np.sqrt(weight)[:, None]
    closed = weight[:, None, None] * (psi[:, :, None] * psi.conj()[:, None, :])
    closed[:, _VACUUM, _VACUUM] = 1.0 - weight
    return closed


def witness_ratio_simulated(rho2: DensityOperator, det: DetectorModel) -> PairWitnessResult:
    """Evaluate the separability ratio from simulated measured moments.

    All moments come from lossy_moments, i.e. from the explicit
    phase-shifter-plus-balanced-splitter readout with the detector's
    thinning applied.  This is the one-state call of the stacked readout
    that scan_all_pairs runs on all pairs of a state.
    """
    return _witness_stack(rho2.space, rho2.matrix[None], [det.eta], [None])[0]


def _witness_stack(space: FockSpace, matrices: np.ndarray, etas, pairs) -> list[PairWitnessResult]:
    """witness_ratio_simulated of each matrix of a C-contiguous (P, dim, dim)
    stack of validated two-mode states, read by detectors of efficiency
    etas[p] and labelled pairs[p]; entry p is bit for bit that of slice p
    alone."""
    # one 1-D dot per slice, as for the moments (see _difference_statistics)
    weights = np.vecdot(
        np.real(np.diagonal(matrices, axis1=-2, axis2=-1)), _photon_numbers(space)
    ).tolist()
    out = []
    for p, (var_jx, var_jy, n_plus_meas), pair in zip(
        weights, _lossy_moment_stack(space, matrices, etas), pairs
    ):
        lhs = (1.0 + 4.0 * var_jx) * (1.0 + 4.0 * var_jy)
        rhs = (1.0 + n_plus_meas) ** 2
        ratio = lhs / rhs
        note = None
        if p <= TOL.support:
            note = "state carries no photon; the test is vacuous"
        out.append(
            PairWitnessResult(
                pair=pair,
                p_ij=p,
                lhs=lhs,
                rhs=rhs,
                ratio=ratio,
                violated=ratio < 1.0 - TOL.violation,
                note=note,
            )
        )
    return out


def _witness_states(items, etas) -> list[PairWitnessResult]:
    """witness_ratio_simulated(reduced_pair(w, i, j), DetectorModel(eta))
    for each (w, i, j) item and its eta, run as one stack."""
    return _witness_stack(_PAIR_SPACE, _reduce_states(items), etas, [None] * len(items))


def witness_ratio_closed_form(alpha_i: complex, alpha_j: complex, det: DetectorModel) -> float:
    """Closed-form separability ratio for a reduced W pair.

    ratio = (1 - 4 eta^2 Re^2[conj(a_i) a_j]/(1+eta p))
          * (1 - 4 eta^2 Im^2[conj(a_i) a_j]/(1+eta p))
    with p = |a_i|^2 + |a_j|^2; below one iff conj(a_i) a_j != 0 and eta > 0.
    """
    a_i, a_j = complex(alpha_i), complex(alpha_j)
    p = abs(a_i) ** 2 + abs(a_j) ** 2
    if not p <= 1.0 + TOL.norm:
        raise ValueError("pair photon weight exceeds 1")
    eta = det.eta
    cross = a_i.conjugate() * a_j
    denom = 1.0 + eta * p
    return float(
        (1.0 - 4.0 * eta**2 * cross.real**2 / denom)
        * (1.0 - 4.0 * eta**2 * cross.imag**2 / denom)
    )


def scan_all_pairs(w, det: DetectorModel) -> WitnessScanReport:
    """Witness every mode pair of a W state; certify full pairwise violation.

    The W state's amplitude vector and its density are built once; the
    pairs are reduced and read out in stacks of _PAIR_SLICE, each pair
    bit for bit as reduced_pair and witness_ratio_simulated give it, and
    each checked against the closed form.  Pairs where both coefficients
    vanish are reported as non-violations with a note instead of raising,
    so degenerate inputs yield a truthful failed certification.
    """
    w = _as_coefficients(w)
    n = len(w.alphas)
    v = w_state_from_coefficients(w).to_vector()
    rho = np.outer(v, v.conj())
    alphas = np.array(w.alphas, dtype=complex)
    firsts, seconds = np.triu_indices(n, k=1)
    weight = np.array([abs(a) ** 2 for a in w.alphas])
    weight = weight[firsts] + weight[seconds]
    results = [
        PairWitnessResult(
            pair=(i, j),
            p_ij=0.0,
            lhs=1.0,
            rhs=1.0,
            ratio=1.0,
            violated=False,
            note="both coefficients vanish; pair state is vacuum",
        )
        if p <= TOL.support
        else None
        for i, j, p in zip(firsts.tolist(), seconds.tolist(), weight.tolist())
    ]
    live = np.flatnonzero(weight > TOL.support)
    for start in range(0, len(live), _PAIR_SLICE):
        rows = live[start : start + _PAIR_SLICE]
        i, j = firsts[rows], seconds[rows]
        pairs = _reduce_pairs(
            np.broadcast_to(rho, (len(rows),) + rho.shape),
            n - i,
            n - j,
            np.stack([alphas[i], alphas[j]], axis=1),
            weight[rows],
        )
        labels = zip(i.tolist(), j.tolist())
        stack = _witness_stack(_PAIR_SPACE, pairs, itertools.repeat(det.eta), labels)
        for row, res in zip(rows.tolist(), stack):
            results[row] = res
    all_violated = all(r.violated for r in results)
    if all_violated:
        conclusion = (
            "every pair violates the separability bound, so no mode can be "
            "split off by a separable partition: the state is entangled "
            "across all parties"
        )
    else:
        conclusion = (
            "at least one pair satisfies the separability bound; full "
            "pairwise certification fails for this state"
        )
    return WitnessScanReport(
        N=n,
        eta=det.eta,
        results=tuple(results),
        all_violated=all_violated,
        conclusion=conclusion,
    )
