"""Nonideal photodetectors: POVM elements, conditioning, and measured moments.

A detector with quantum efficiency eta registers each arriving photon
independently with probability eta.  Its outcome statistics on a number
state are binomial, which makes every POVM element here diagonal in the
photon-number basis.  Three consequences are used throughout:

* conditioning on an outcome is an entrywise square-root weighting,
* the measured count is a binomial thinning of the ideal count, so
  mean_meas = eta * mean and var_meas = eta^2 * var + eta(1-eta) * mean_n,
* an equivalent physical model is a beam splitter of transmittance eta in
  front of a perfect detector (kept here as an independent cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .circuits import bell_splitter, splitter
from .config import TOL
from .fock import (
    DensityOperator,
    FockSpace,
    _check_two_mode_unitary,
    _embedded_unitary,
    _frozen,
    _integer,
    _mode_counts,
    _phase_raw,
    _ptrace_raw,
    _tensor_plan,
    _tensor_raw,
    vacuum_state,
)


# accepted detector kinds -> the back-end that reads them
_DETECTOR_KINDS = {
    "number": "number",
    "number-resolving": "number",
    "onoff": "onoff",
    "on-off": "onoff",
}


@dataclass(frozen=True)
class DetectorModel:
    """Photodetector with quantum efficiency eta in [0, 1]."""

    eta: float

    def __post_init__(self) -> None:
        eta = float(self.eta)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"efficiency {eta} outside [0, 1]")
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class PovmElement:
    """Single-mode POVM element, diagonal in the number basis.

    entries[l] is the probability of this outcome given l photons arrive.
    """

    entries: tuple[float, ...]
    label: str

    def __post_init__(self) -> None:
        entries = tuple(float(e) for e in self.entries)
        if not entries:
            raise ValueError("a POVM element needs at least the vacuum entry")
        for e in entries:
            if not -TOL.povm <= e <= 1.0 + TOL.povm:
                raise ValueError(f"POVM entry {e} outside [0, 1]")
        object.__setattr__(self, "entries", entries)

    @property
    def cutoff(self) -> int:
        return len(self.entries) - 1


def povm_number(k: int, det: DetectorModel, cutoff: int = 2) -> PovmElement:
    """Outcome "exactly k photons counted" for a number-resolving detector.

    Given l arriving photons the count is Binomial(l, eta), so the diagonal
    entry at l is C(l, k) eta^k (1-eta)^(l-k); the family k = 0..cutoff sums
    to the identity on the truncated space.  k and cutoff must be integers
    (ValueError otherwise).
    """
    k, cutoff = _integer("k", k), _integer("cutoff", cutoff)
    if k < 0 or k > cutoff:
        raise ValueError(f"count {k} outside the detector cutoff {cutoff}")
    eta = det.eta
    entries = []
    for l in range(cutoff + 1):
        if l < k:
            entries.append(0.0)
        else:
            entries.append(math.comb(l, k) * eta**k * (1.0 - eta) ** (l - k))
    return PovmElement(tuple(entries), label=f"count={k}")


def povm_onoff(on: bool, det: DetectorModel, cutoff: int = 2) -> PovmElement:
    """Outcome of a detector that only separates vacuum from "some photons".

    off is the k = 0 number outcome; on is its complement 1 - (1-eta)^l.
    cutoff must be an integer (ValueError otherwise).
    """
    eta = det.eta
    off = tuple((1.0 - eta) ** l for l in range(_integer("cutoff", cutoff) + 1))
    if on:
        return PovmElement(tuple(1.0 - e for e in off), label="some")
    return PovmElement(off, label="off")


def condition(rho: DensityOperator, assignments: Mapping[int, PovmElement]) -> DensityOperator:
    """Post-select on detector outcomes and trace out the measured modes.

    Returns sqrt(Pi) rho sqrt(Pi) reduced to the unmeasured modes; its trace
    is the outcome probability.  Measuring every mode leaves the zero-mode
    space whose single entry is that probability.  Mode keys must be
    distinct (guaranteed by the mapping) and in range.
    """
    return DensityOperator(*_condition_outcomes_raw(rho.space, rho.matrix, assignments))


def _condition_outcomes_raw(
    space: FockSpace, matrix: np.ndarray, assignments: Mapping[int, PovmElement]
) -> tuple[FockSpace, np.ndarray]:
    """condition on a raw matrix or (..., dim, dim) stack: the reduced space
    and matrix, unvalidated.  The partial trace weights each term it reads
    with the square roots of the POVM weights (_ptrace_raw).  Measuring
    every mode takes np.trace of the weighted matrix instead, whose
    diagonal sum runs in numpy's pairwise order."""
    sq = np.sqrt(_povm_weights(space, assignments))
    keep = tuple(m for m in range(space.num_modes) if m not in assignments)
    if keep:
        return _ptrace_raw(space, matrix, keep, sq)
    weighted = sq[:, None] * matrix * sq[None, :]
    out_space = FockSpace(0, space.total_cutoff, space.mode_cutoff)
    return out_space, np.trace(weighted, axis1=-2, axis2=-1)[..., None, None]


def _povm_weights(space: FockSpace, assignments: Mapping[int, PovmElement]) -> np.ndarray:
    """Diagonal of the joint POVM element over the basis of ``space``.  The
    modes must be integers (Python or numpy) in range; ValueError
    otherwise."""
    if not assignments:
        raise ValueError("no detector outcomes assigned")
    for mode in assignments:
        if not 0 <= _integer("mode", mode) < space.num_modes:
            raise ValueError(f"mode {mode} out of range")
    weights = np.ones(space.dim)
    for i, occ in enumerate(space.basis):
        w = 1.0
        for mode, elem in assignments.items():
            n = occ[mode]
            if n > elem.cutoff:
                raise ValueError("POVM cutoff below the state's occupation")
            w *= elem.entries[n]
        weights[i] = w
    return weights


def _require_two_mode_normalized(space: FockSpace, matrices: np.ndarray) -> None:
    """Every matrix of a (..., dim, dim) stack is a two-mode state of unit trace."""
    if space.num_modes != 2:
        raise ValueError("expected a two-mode state")
    if np.any(np.abs(matrices.trace(axis1=-2, axis2=-1).real - 1.0) > TOL.trace):
        raise ValueError("expected a normalized state")


@lru_cache(maxsize=64)
def _readout_unitary(space: FockSpace) -> np.ndarray:
    """The balanced readout splitter on modes (0, 1), checked and embedded
    into ``space`` once per space."""
    balanced = _check_two_mode_unitary(bell_splitter(math.pi / 4))
    (full,) = _frozen(_embedded_unitary(space, (0, 1), balanced))
    return full


@lru_cache(maxsize=64)
def _count_vectors(space: FockSpace, modes: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """(n_i - n_j, n_i + n_j) of modes (i, j) over the basis of ``space``,
    as floats, built once per space."""
    n_i, n_j = _mode_counts(space, modes[0]), _mode_counts(space, modes[1])
    return _frozen((n_i - n_j).astype(float), (n_i + n_j).astype(float))


def _readout_raw(space: FockSpace, matrices: np.ndarray, phi: float) -> np.ndarray:
    """Raw matrices of validated two-mode states, a (..., dim, dim) stack,
    after a phase phi on the second mode and a balanced splitter; the
    intermediates are not validated again."""
    probe = _phase_raw(space, matrices, 1, phi)
    full = _readout_unitary(space)
    return full @ probe @ full.conj().T


def _difference_statistics(
    space: FockSpace, matrices: np.ndarray, phi: float
) -> list[tuple[float, float]]:
    """Ideal photon-number-difference readout behind a balanced splitter.

    A phase phi on the second mode followed by a balanced splitter turns the
    count difference n_c - n_d into 2J_x (phi = 0) or 2J_y (phi = pi/2).
    Returns (variance of difference, mean total count) for each matrix of
    a (P, dim, dim) stack.  The readout runs once over the stack.  The
    contractions are np.vecdot, which runs numpy's 1-D dot kernel on each
    slice exactly as ``diag @ d_vals`` does on one slice alone; a stacked
    matrix-vector product rounds differently.  The squares stay Python
    floats, because numpy's x*x and libm's pow(x, 2) can differ in the
    last bit.
    """
    diags = np.real(np.diagonal(_readout_raw(space, matrices, phi), axis1=-2, axis2=-1))
    d_vals, n_vals = _count_vectors(space, (0, 1))
    mean_d = np.vecdot(diags, d_vals).tolist()
    mean_d2 = np.vecdot(diags, d_vals**2).tolist()
    mean_n = np.vecdot(diags, n_vals).tolist()
    return [(m2 - m**2, n) for m, m2, n in zip(mean_d, mean_d2, mean_n)]


def lossy_moments(rho2: DensityOperator, det: DetectorModel) -> tuple[float, float, float]:
    """Measured (var J_x, var J_y, <N_+>) for detectors of efficiency eta.

    Ideal statistics come from the explicit interferometer readout; the
    binomial thinning of each detector's count then gives the measured
    difference moments var(D_eta) = eta^2 var(D) + eta(1-eta)<N_+> and
    <N_+>_eta = eta <N_+>, quoted here per J component (a factor 1/4).

    This is the one-state call of _lossy_moment_stack, which the witness
    scan and verify run on whole stacks of pair states, as
    lossy_moments_ancilla and povm_moments are the one-state calls of
    _ancilla_moment_stack and _povm_moment_stack.  The input is already a
    validated DensityOperator, so the phase shifter and the splitter run
    on its matrix through the raw engine and no intermediate state is
    validated again.  The readout and loss splitters are the complex
    casts that _check_two_mode_unitary returns, embedded through
    _two_mode_table: the float embedding that teleport uses rounds
    differently.  The readout splitter and the count vectors of each
    space are checked and built once per process.
    """
    return _lossy_moment_stack(rho2.space, rho2.matrix[None], [det.eta])[0]


def _lossy_moment_stack(
    space: FockSpace, matrices: np.ndarray, etas
) -> list[tuple[float, float, float]]:
    """lossy_moments of each matrix of a (P, dim, dim) stack of validated
    two-mode states, read by detectors of efficiency etas[p]; entry p is
    bit for bit lossy_moments of slice p alone."""
    _require_two_mode_normalized(space, matrices)
    x_stats = _difference_statistics(space, matrices, 0.0)
    y_stats = _difference_statistics(space, matrices, math.pi / 2)
    out = []
    for eta, (var_dx, n_plus), (var_dy, _) in zip(etas, x_stats, y_stats):
        var_jx = (eta**2 * var_dx + eta * (1.0 - eta) * n_plus) / 4.0
        var_jy = (eta**2 * var_dy + eta * (1.0 - eta) * n_plus) / 4.0
        out.append((var_jx, var_jy, eta * n_plus))
    return out


def lossy_moments_ancilla(rho2: DensityOperator, det: DetectorModel) -> tuple[float, float, float]:
    """Same triple as lossy_moments via the physical loss model.

    Each interferometer output is mixed with a vacuum ancilla on a splitter
    of transmittance eta and a perfect detector reads the transmitted beam;
    no moment transform is applied.  Kept as an independent oracle for
    lossy_moments.  This is the one-state call of _ancilla_moment_stack.
    """
    return _ancilla_moment_stack(rho2.space, rho2.matrix[None], [det.eta])[0]


def _ancilla_moment_stack(
    space: FockSpace, matrices: np.ndarray, etas
) -> list[tuple[float, float, float]]:
    """lossy_moments_ancilla of each matrix of a (P, dim, dim) stack of
    validated two-mode states, read by detectors of efficiency etas[p];
    entry p is bit for bit that of slice p alone.

    The vacuum ancilla is built once per call, and each detector's two
    loss splitters are checked and embedded once, for both readout
    phases, as complex casts through _two_mode_table: the stacked
    _embedded_real_unitaries rounds like the float splitter, not like the
    complex cast.  The contractions are np.vecdot, as in
    _difference_statistics."""
    _require_two_mode_normalized(space, matrices)
    ancillas = vacuum_state(FockSpace(2)).to_density()
    big_space = _tensor_plan(space, ancillas.space)[0]
    losses = [_check_two_mode_unitary(splitter(math.acos(math.sqrt(eta)))) for eta in etas]
    # transmitted beams land on the ancilla slots 2 and 3
    fulls = [
        np.stack([_embedded_unitary(big_space, modes, loss) for loss in losses])
        for modes in ((0, 2), (1, 3))
    ]
    d_vals, n_vals = _count_vectors(big_space, (2, 3))
    variances, n_plus_meas = [], []
    for phi in (0.0, math.pi / 2):
        probe = _readout_raw(space, matrices, phi)
        _, big = _tensor_raw(space, probe, ancillas.space, ancillas.matrix)
        for full in fulls:
            big = full @ big @ full.conj().swapaxes(-1, -2)
        diags = np.real(np.diagonal(big, axis1=-2, axis2=-1))
        mean_d = np.vecdot(diags, d_vals).tolist()
        mean_d2 = np.vecdot(diags, d_vals**2).tolist()
        variances.append([(m2 - m**2) / 4.0 for m, m2 in zip(mean_d, mean_d2)])
        if phi == 0.0:
            n_plus_meas = np.vecdot(diags, n_vals).tolist()
    return list(zip(*variances, n_plus_meas))


def povm_moments(
    rho2: DensityOperator, det: DetectorModel, kind: str = "number"
) -> tuple[float, float, float]:
    """Same triple as lossy_moments via the joint POVM outcome distribution.

    kind selects the detector back-end, under any name TeleportParams
    accepts: "number" (or "number-resolving") counts photons (and must
    agree with lossy_moments to rounding), "onoff" (or "on-off") registers
    clicks valued 0/1 (and agrees whenever at most one photon can arrive
    per output).  This is the one-state call of _povm_moment_stack.
    """
    return _povm_moment_stack(rho2.space, rho2.matrix[None], [det.eta], kind)[0]


def _povm_moment_stack(
    space: FockSpace, matrices: np.ndarray, etas, kind: str
) -> list[tuple[float, float, float]]:
    """povm_moments of each matrix of a (P, dim, dim) stack of validated
    two-mode states, read by ``kind`` detectors of efficiency etas[p];
    entry p is bit for bit that of slice p alone.  Each outcome's
    probability is one np.vecdot of the readout's diagonal with the joint
    POVM weights, as in _difference_statistics; the moments add the
    outcomes in order, in Python floats."""
    _require_two_mode_normalized(space, matrices)
    back_end = _DETECTOR_KINDS.get(kind)
    if back_end not in ("number", "onoff"):
        raise ValueError(f"unknown detector back-end {kind!r}")
    # the value each outcome reads: its count, or 0/1 for off/on
    reads = (0.0, 1.0, 2.0) if back_end == "number" else (0.0, 1.0)
    values = [(val_c - val_d, val_c + val_d) for val_c in reads for val_d in reads]
    weights = []
    for eta in etas:
        det = DetectorModel(eta)
        if back_end == "number":
            elements = [povm_number(k, det) for k in range(3)]
        else:
            elements = [povm_onoff(False, det), povm_onoff(True, det)]
        weights.append([_povm_weights(space, {0: c, 1: d}) for c in elements for d in elements])
    weights = np.array(weights)
    moments = []
    for phi in (0.0, math.pi / 2):
        diags = np.real(np.diagonal(_readout_raw(space, matrices, phi), axis1=-2, axis2=-1))
        rows = []
        for probs in np.vecdot(diags[:, None, :], weights).tolist():
            mean_d = mean_d2 = mean_n = 0.0
            for p, (d, total) in zip(probs, values):
                mean_d += p * d
                mean_d2 += p * d * d
                mean_n += p * total
            rows.append(((mean_d2 - mean_d**2) / 4.0, mean_n))
        moments.append(rows)
    return [(var_x, var_y, n_plus) for (var_x, n_plus), (var_y, _) in zip(*moments)]
