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

from .circuits import _as_coefficients, _mode_amplitudes
from .config import TOL
from .detection import DetectorModel, _lossy_moment_stack
from .fock import (
    DensityOperator,
    FockSpace,
    _check_density_stack,
    _integer,
    _norm_sq,
    _photon_numbers,
)


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
# while the loop over the modes in _reduce_pairs runs once per stack
_PAIR_SLICE = 4096


def reduced_pair(w, i: int, j: int) -> DensityOperator:
    """Two-mode reduction of the W state onto modes (i, j), in that order,
    as a normalized DensityOperator on the two-photon space ``FockSpace(2)``.

    This is the partial trace of |W><W|: the pair keeps the one-photon
    block of modes i and j, and its vacuum entry carries the photon weight
    of every other mode.  It is cross-checked against the closed form
    p|Psi><Psi| + (1-p)|00><00| with |Psi> = (alpha_i|10> + alpha_j|01>)/sqrt(p);
    the two must agree to rounding, and a disagreement raises RuntimeError.
    Errors with ValueError when both coefficients vanish (the reduction is
    vacuum and the witness is vacuous), and when i or j is not an integer
    (Python or numpy) naming two distinct modes.
    """
    (pair,) = _reduce_states([(_as_coefficients(w), i, j)])
    return DensityOperator(_PAIR_SPACE, pair, normalized=True)


def _reduce_states(items) -> np.ndarray:
    """reduced_pair of each (WCoefficients, i, j) item, every item with its
    own W state, as a (P, 6, 6) stack."""
    weights = np.zeros((len(items), max(len(w.alphas) for w, _, _ in items)), dtype=complex)
    first, second, amps, weight = [], [], [], []
    for k, (w, i, j) in enumerate(items):
        n = len(w.alphas)
        i, j = _integer("i", i), _integer("j", j)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError("pair indices must be distinct and in range")
        p = _norm_sq((w.alphas[i], w.alphas[j]))
        if p <= TOL.support:
            raise ValueError(f"modes ({i}, {j}) carry no photon weight; pair state is vacuum")
        a = _mode_amplitudes(w)
        weights[k, :n] = a * a.conj()
        first.append(i)
        second.append(j)
        amps.append((a[i], a[j]))
        weight.append(p)
    return _reduce_pairs(weights, np.array(first), np.array(second), np.array(amps), np.array(weight))


def _reduce_pairs(
    weights: np.ndarray, first: np.ndarray, second: np.ndarray, amps: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Reduced pair states of W states, as a (P, 6, 6) stack in ``FockSpace(2)``.

    ``weights`` holds each W state's photon weights a * a.conj() by mode,
    as a (P, N) stack or one row shared by every pair; they stay complex,
    as the diagonal of |W><W| is.  ``first[p]`` and ``second[p]`` are the
    pair's modes, ``amps[p]`` their amplitudes and ``weight[p]`` the pair's
    photon weight p.  Each slice is the partial trace of |W><W| onto the
    pair, bit for bit: the kept block is added onto zeros once, and the
    vacuum entry adds the other modes' weights one by one, from the last
    mode down.  Every slice is validated as a normalized DensityOperator
    and compared with the closed form.
    """
    count = len(first)
    vacuum = np.zeros(count, dtype=complex)
    # one term at a time: np.sum adds pairwise and rounds differently
    for k in range(weights.shape[-1] - 1, -1, -1):
        vacuum += np.where((first == k) | (second == k), 0.0, weights[..., k])
    kept = amps[:, ::-1]
    block = np.array([_SECOND, _FIRST])
    pairs = np.zeros((count, _PAIR_SPACE.dim, _PAIR_SPACE.dim), dtype=complex)
    # added onto zeros, not assigned: a -0.0 entry comes out as 0.0, as in a partial trace
    pairs[:, block[:, None], block] += kept[:, :, None] * kept.conj()[:, None, :]
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
    p = _norm_sq((a_i, a_j))
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

    The pairs are reduced and read out in stacks of _PAIR_SLICE pairs,
    each pair bit for bit as reduced_pair and witness_ratio_simulated give
    it, and each checked against the closed form.  Pairs where both
    coefficients vanish are reported as non-violations with a note instead
    of raising, so degenerate inputs yield a truthful failed certification.
    """
    w = _as_coefficients(w)
    a = _mode_amplitudes(w)
    n = len(a)
    firsts, seconds = np.triu_indices(n, k=1)
    weight = np.array([abs(x) ** 2 for x in w.alphas])
    weight = weight[firsts] + weight[seconds]
    weights = a * a.conj()
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
        pairs = _reduce_pairs(weights, i, j, np.stack([a[i], a[j]], axis=1), weight[rows])
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
