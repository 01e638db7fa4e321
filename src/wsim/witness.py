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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .circuits import WCoefficients, _as_coefficients, w_state_from_coefficients
from .config import TOL
from .detection import DetectorModel, lossy_moments
from .fock import DensityOperator, FockSpace, _pad_raw, _photon_numbers, _ptrace_raw


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


def reduced_pair(w, i: int, j: int) -> DensityOperator:
    """Two-mode reduction of the W state onto modes (i, j).

    Computed by partial trace of the full state, which carries one photon
    and so lives in the one-photon space of dimension N + 1; the reduced
    pair is zero-padded into the two-photon space ``FockSpace(2)``.  It is
    cross-checked against the closed form p|Psi><Psi| + (1-p)|00><00| with
    |Psi> = (alpha_i|10> + alpha_j|01>)/sqrt(p); the two must agree to
    rounding, and a disagreement raises RuntimeError.  Errors with
    ValueError when both coefficients vanish (the reduction is vacuum and
    the witness is vacuous).
    """
    w = _as_coefficients(w)
    return _reduce_pair(w, w_state_from_coefficients(w).to_density(), i, j)


def _reduce_pair(w: WCoefficients, rho: DensityOperator, i: int, j: int) -> DensityOperator:
    """reduced_pair from an already built density of the W state w."""
    n = len(w.alphas)
    i, j = int(i), int(j)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError("pair indices must be distinct and in range")
    a_i, a_j = w.alphas[i], w.alphas[j]
    p = abs(a_i) ** 2 + abs(a_j) ** 2
    if p <= TOL.support:
        raise ValueError(f"modes ({i}, {j}) carry no photon weight; pair state is vacuum")
    space = _PAIR_SPACE
    sub_space, sub = _ptrace_raw(rho.space, rho.matrix, (i, j))
    traced = DensityOperator(space, _pad_raw(sub_space, sub, space), normalized=rho.normalized)

    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index[(1, 0)]] = a_i / math.sqrt(p)
    psi[space.index[(0, 1)]] = a_j / math.sqrt(p)
    closed = p * np.outer(psi, psi.conj())
    closed[space.index[(0, 0)], space.index[(0, 0)]] = 1.0 - p
    if np.max(np.abs(traced.matrix - closed)) > TOL.exact_match:
        raise RuntimeError("partial trace disagrees with the closed-form pair state")
    return traced.normalized_copy() if not traced.normalized else traced


def witness_ratio_simulated(rho2: DensityOperator, det: DetectorModel) -> PairWitnessResult:
    """Evaluate the separability ratio from simulated measured moments.

    All moments come from lossy_moments, i.e. from the explicit
    phase-shifter-plus-balanced-splitter readout with the detector's
    thinning applied.
    """
    var_jx, var_jy, n_plus_meas = lossy_moments(rho2, det)
    lhs = (1.0 + 4.0 * var_jx) * (1.0 + 4.0 * var_jy)
    rhs = (1.0 + n_plus_meas) ** 2
    ratio = lhs / rhs
    diag = np.real(np.diag(rho2.matrix))
    p = float(diag @ _photon_numbers(rho2.space))
    note = None
    if p <= TOL.support:
        note = "state carries no photon; the test is vacuous"
    return PairWitnessResult(
        pair=None,
        p_ij=p,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        violated=ratio < 1.0 - TOL.violation,
        note=note,
    )


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

    The W state and its density are built once; every pair is reduced
    from them as reduced_pair would.  Pairs where both coefficients vanish
    are reported as non-violations with a note instead of raising, so
    degenerate inputs yield a truthful failed certification.
    """
    w = _as_coefficients(w)
    n = len(w.alphas)
    rho = w_state_from_coefficients(w).to_density()
    results = []
    for i in range(n):
        for j in range(i + 1, n):
            p = abs(w.alphas[i]) ** 2 + abs(w.alphas[j]) ** 2
            if p <= TOL.support:
                results.append(
                    PairWitnessResult(
                        pair=(i, j),
                        p_ij=0.0,
                        lhs=1.0,
                        rhs=1.0,
                        ratio=1.0,
                        violated=False,
                        note="both coefficients vanish; pair state is vacuum",
                    )
                )
                continue
            res = witness_ratio_simulated(_reduce_pair(w, rho, i, j), det)
            results.append(dataclasses.replace(res, pair=(i, j)))
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
