"""Conditional teleportation of an unknown single-rail qubit over a W network.

One party (Alice) shares a symmetric N-mode single-photon W state with N-1
others; m of them cooperate by measuring their modes and finding vacuum,
which concentrates the photon into a Bell-plus-vacuum mixture between
Alice and Bob.  Alice mixes the unknown qubit a|1> + b|0> with her share
on a splitter of angle theta and counts photons at both outputs.  Only the
events with exactly one photon at exactly one output herald a teleported
state; for the one-photon-at-d event Bob applies a pi phase shift.

Everything downstream of that story is computed twice: closed forms in the
model parameters (N, m, eta, theta), and a full Fock-space simulation of
the pipeline.  Averages over the unknown qubit use the uniform Bloch
measure; because every integrand here is a low-order polynomial in the
qubit amplitudes, the simulated averages are evaluated exactly by running
the pipeline on the four operator-basis elements |j><k| of the qubit and
contracting with precomputed Bloch moments (quadrature and Monte Carlo
paths exist as independent cross-checks).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .circuits import (
    _chain_amplitudes,
    _check_angle,
    _mode_amplitudes,
    bell_splitter,
    symmetric_angles,
)
from .config import TOL
from .detection import (
    _DETECTOR_KINDS,
    DetectorModel,
    _condition_outcomes_raw,
    _povm_weights,
    povm_number,
    povm_onoff,
)
from .fock import (
    DensityOperator,
    FockSpace,
    PureState,
    _check_density_stack,
    _check_two_mode_unitary,
    _embedded_real_unitaries,
    _embedded_unitary,
    _frozen,
    _integer,
    _phase_raw,
    _positive_count,
    _ptrace_plan,
    _tensor_checked,
    _tensor_plan,
    _unitary_raw,
)
from .optimize import bisect_root, golden_section_max


class BellEvent(Enum):
    """Detection pattern (photons at output c, photons at output d)."""

    D00 = (0, 0)
    D10 = (1, 0)
    D01 = (0, 1)
    D20 = (2, 0)
    D11 = (1, 1)
    D02 = (0, 2)

    @property
    def counts(self) -> tuple[int, int]:
        return self.value

    @property
    def advantageous(self) -> bool:
        return self in ADVANTAGEOUS


ADVANTAGEOUS = frozenset({BellEvent.D10, BellEvent.D01})
REJECTED = tuple(e for e in BellEvent if e not in ADVANTAGEOUS)


def bell_events() -> tuple[BellEvent, ...]:
    """All six distinguishable detection patterns for at most two photons."""
    return tuple(BellEvent)


def _as_event(event) -> BellEvent:
    if isinstance(event, BellEvent):
        return event
    try:
        return BellEvent[str(event)]
    except KeyError:
        raise ValueError(f"unknown detection event {event!r}") from None


def _accepted_event(event) -> BellEvent:
    """The event, checked to be one that heralds a teleported state."""
    event = _as_event(event)
    if event not in ADVANTAGEOUS:
        raise ValueError(f"{event.name} does not herald a teleported state")
    return event


_EVENT_SETS = {
    "D10": (BellEvent.D10,),
    "D01": (BellEvent.D01,),
    "both": (BellEvent.D10, BellEvent.D01),
}


@dataclass(frozen=True)
class TeleportParams:
    """Network size, cooperation count, detector efficiency, splitter angle."""

    N: int
    m: int
    eta: float
    theta: float
    detector_kind: str = "number"
    event_set: str = "D10"

    def __post_init__(self) -> None:
        n, m = _integer("N", self.N), _integer("m", self.m)
        if n < 2:
            raise ValueError("the network needs at least two parties")
        if not 0 <= m <= n - 2:
            raise ValueError(f"cooperating count {m} outside [0, {n - 2}]")
        eta, theta = float(self.eta), float(self.theta)
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"efficiency {eta} outside (0, 1]")
        _check_angle(theta)
        kind = _DETECTOR_KINDS.get(self.detector_kind)
        if kind is None:
            raise ValueError(f"unknown detector kind {self.detector_kind!r}")
        if self.event_set not in _EVENT_SETS:
            raise ValueError(f"unknown event set {self.event_set!r}")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "detector_kind", kind)

    @property
    def events(self) -> tuple[BellEvent, ...]:
        return _EVENT_SETS[self.event_set]


@dataclass(frozen=True)
class UnknownQubit:
    """Single-rail qubit a|1> + b|0> with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        a, b = complex(self.a), complex(self.b)
        if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= TOL.norm:
            raise ValueError("qubit amplitudes are not normalized")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_bloch(cls, theta_i: float, phi_i: float) -> "UnknownQubit":
        return cls(
            math.cos(theta_i / 2.0) * np.exp(-1j * phi_i), math.sin(theta_i / 2.0)
        )

    def state(self) -> PureState:
        return PureState(FockSpace(1), {(1,): self.a, (0,): self.b})


@dataclass(frozen=True)
class TeleportReport:
    """Bloch-averaged fidelity and success probability at one parameter point."""

    params: TeleportParams
    avg_fidelity: float
    avg_probability: float
    R_theta: float
    Rprime_theta: float
    optimal: bool = False
    theta_star: float | None = None

    def __post_init__(self) -> None:
        if not -TOL.norm <= self.avg_fidelity <= 1.0 + TOL.norm:
            raise ValueError(f"average fidelity {self.avg_fidelity} outside [0, 1]")
        if not -TOL.norm <= self.avg_probability <= 1.0 + TOL.norm:
            raise ValueError(f"average probability {self.avg_probability} outside [0, 1]")
        if self.optimal and self.theta_star is None:
            raise ValueError("optimal report must carry the optimizing angle")


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def vacuum_weight(n: int, m: int, eta: float, theta: float) -> float:
    """R(theta): weight of the background vacuum reaching Bob on the
    one-photon-at-c event, relative to eta/N."""
    return _vacuum_weight(n, m, eta, math.cos(theta) ** 2)


def _vacuum_weight(n: int, m: int, eta: float, cos_sq):
    """vacuum_weight from cos^2 of the angle: a float, or a float64 array."""
    return (n - eta * m - 2.0) * cos_sq + 1.0 - eta


def onoff_excess(eta: float, theta: float) -> float:
    """R'(theta) = 2 eta sin^2 cos^2: extra vacuum admitted when the c
    detector cannot tell one photon from two."""
    return _onoff_excess(eta, (math.sin(theta) * math.cos(theta)) ** 2)


def _onoff_excess(eta: float, sin_cos_sq):
    """onoff_excess from (sin cos)^2 of the angle: a float, or a float64 array."""
    return 2.0 * eta * sin_cos_sq


def _angle_terms(thetas: list[float]) -> list[list[float]]:
    """Columns sin 2theta, cos^2 of the c- and d-event angles (theta and
    theta + pi/2) and (sin theta cos theta)^2 over a list of splitter
    angles.

    These are computed per angle with math and Python's **: numpy's sin,
    cos and squares can round the last bit differently, and every closed
    form at an angle must equal the per-angle report bit for bit.
    """
    sin, cos = math.sin, math.cos
    return [
        [sin(2.0 * t) for t in thetas],
        [cos(t) ** 2 for t in thetas],
        [cos(t + math.pi / 2) ** 2 for t in thetas],
        [(sin(t) * cos(t)) ** 2 for t in thetas],
    ]


def _terms_at(theta: float) -> list[float]:
    """The angle terms of _angle_terms at one angle, as floats."""
    return [column[0] for column in _angle_terms([theta])]


def _event_background(params: TeleportParams, event: BellEvent, terms=None):
    """R_e from the angle terms of _angle_terms: floats at one angle
    (default: params.theta), or float64 arrays with one entry per angle."""
    if terms is None:
        terms = _terms_at(params.theta)
    _, cos_sq_c, cos_sq_d, sin_cos_sq = terms
    # after Bob's correction the d-side event sees the complementary angle;
    # the on-off excess is symmetric under that swap
    cos_sq = cos_sq_c if event is BellEvent.D10 else cos_sq_d
    r = _vacuum_weight(params.N, params.m, params.eta, cos_sq)
    if params.detector_kind == "onoff":
        r = r + _onoff_excess(params.eta, sin_cos_sq)
    return r


def _closed_integrals(params: TeleportParams, terms):
    """(numerator, denominator) of the averaged fidelity from the angle
    terms of _angle_terms: sums over events of the Bloch-averaged
    unnormalized fidelity and event probability, both in units of
    eta/(2N).  Floats for one angle, float64 arrays (one entry per angle)
    for a grid; the elementwise arithmetic rounds alike in both.  The
    angles must already be checked."""
    s2 = terms[0]
    num = den = 0.0
    for event in params.events:
        r = _event_background(params, event, terms)
        num += (2.0 + s2 + r) / 3.0
        den += 1.0 + r
    return num, den


def averaged_fidelity_probability(params: TeleportParams) -> TeleportReport:
    """Closed-form Bloch-averaged fidelity and success probability.

    Per accepted event e the fidelity is (1/3)[1 + (1 + sin 2theta)/(1+R_e)]
    and the probability (eta/2N)(1+R_e), with R_e the event's background
    weight; event combinations average with probability weights.
    """
    num, den = _closed_integrals(params, _terms_at(params.theta))
    return TeleportReport(
        params=params,
        avg_fidelity=num / den,
        avg_probability=params.eta / (2.0 * params.N) * den,
        R_theta=vacuum_weight(params.N, params.m, params.eta, params.theta),
        Rprime_theta=(
            onoff_excess(params.eta, params.theta)
            if params.detector_kind == "onoff"
            else 0.0
        ),
    )


def _fbar(params: TeleportParams, theta: float | None = None) -> float:
    num, den = _closed_integrals(params, _terms_at(params.theta if theta is None else theta))
    return num / den


def averaged_fidelity_curve(params: TeleportParams, thetas) -> np.ndarray:
    """Closed-form Bloch-averaged fidelity at each splitter angle in
    ``thetas`` (a 1-D sequence); ``params.theta`` is ignored.

    Every value equals, bit for bit, the ``avg_fidelity`` of
    averaged_fidelity_probability at ``dataclasses.replace(params,
    theta=t)``, without building a parameter object or a report per
    angle.  Each angle is checked against the TeleportParams bound and
    the curve against the TeleportReport bound; ValueError otherwise.
    """
    return _curve_on_terms(params, _grid_terms(thetas))


# angles per block of _grid_terms: a block's Python floats stay small
_TERM_BLOCK = 1024


def _grid_terms(thetas) -> np.ndarray:
    """The grid step of averaged_fidelity_curve: ``thetas`` checked as a
    1-D sequence of angles in [0, pi/2], and its _angle_terms as a (4,
    len(thetas)) float64 array.  Parameter-free, so one grid serves every
    (N, m, eta) evaluated on it.

    The array is filled in blocks of _TERM_BLOCK angles, so the Python
    floats of the per-angle checks and terms never span the whole grid.
    The terms are elementwise, so the blocks change no value, and angles
    are checked in grid order, so the first bad one still raises."""
    grid = np.asarray(thetas, dtype=float)
    if grid.ndim != 1:
        raise ValueError("splitter angles must form a 1-D sequence")
    terms = np.empty((4, len(grid)))
    for start in range(0, len(grid), _TERM_BLOCK):
        block = grid[start : start + _TERM_BLOCK].tolist()
        for theta in block:
            _check_angle(theta)
        terms[:, start : start + len(block)] = _angle_terms(block)
    return terms


def _curve_on_terms(params: TeleportParams, terms: np.ndarray) -> np.ndarray:
    """The evaluation step of averaged_fidelity_curve: the fidelity curve
    on the terms of _grid_terms, checked against the TeleportReport
    bound."""
    num, den = _closed_integrals(params, terms)
    curve = num / den
    if not np.all((-TOL.norm <= curve) & (curve <= 1.0 + TOL.norm)):
        raise ValueError("average fidelity outside [0, 1]")
    return curve


def _phi_prime(event: BellEvent, qubit: UnknownQubit, theta: float) -> tuple[complex, complex]:
    """Amplitudes (on |1>, on |0>) of Bob's |phi'> after the event:
    a cos(theta), b sin(theta) for the c event and the complementary
    angles (after Bob's correction) for the d event."""
    c, s = math.cos(theta), math.sin(theta)
    if event is BellEvent.D10:
        return qubit.a * c, qubit.b * s
    return qubit.a * s, qubit.b * c


def event_probability_closed_form(
    event, qubit: UnknownQubit, params: TeleportParams
) -> float:
    """Probability of the given accepted event for a specific input qubit."""
    event = _accepted_event(event)
    amp1, amp0 = _phi_prime(event, qubit, params.theta)
    r = _event_background(params, event)
    return (
        params.eta
        / params.N
        * (abs(amp1) ** 2 + abs(amp0) ** 2 + abs(qubit.a) ** 2 * r)
    )


# ---------------------------------------------------------------------------
# Simulated pipeline.
# ---------------------------------------------------------------------------


_QUBIT_SPACE = FockSpace(1)
_RESOURCE_SPACE = FockSpace(2)
_JOINT_SPACE = FockSpace(3)


@lru_cache(maxsize=32)
def _w_amplitudes(n: int) -> np.ndarray:
    """Mode amplitudes of the symmetric N-mode W state, run through the
    splitter chain once per N, read-only and shared by the resources of
    every (m, eta)."""
    (a,) = _frozen(_mode_amplitudes(_chain_amplitudes(symmetric_angles(n))))
    return a


@lru_cache(maxsize=4096)
def _conditional_resource_cached(n: int, m: int, eta: float) -> DensityOperator:
    a = _w_amplitudes(n)
    # vacuum, photon in mode 1, photon in mode 0; FockSpace(2) lists them first
    kept = np.array([0.0, a[1], a[0]])
    pair = np.zeros((_RESOURCE_SPACE.dim, _RESOURCE_SPACE.dim), dtype=complex)
    pair[:3, :3] += np.outer(kept, kept.conj())
    # The vacuum entry in the partial traces' order: the conditioned modes
    # m+1..2 weighted by the vacuum POVM, then the other traced modes
    # N-1..m+2; any other order, or np.sum, rounds differently.
    d = (a * a.conj()).real.tolist()
    sq = math.sqrt(1.0 - eta)
    vacuum = 0.0
    for k in range(m + 1, 1, -1):
        vacuum += sq * d[k] * sq
    for k in range(n - 1, m + 1, -1):
        vacuum += d[k]
    pair[0, 0] = vacuum
    return DensityOperator(_RESOURCE_SPACE, pair, normalized=not m)


def conditional_resource(params: TeleportParams) -> DensityOperator:
    """Alice-Bob pair after the m cooperating parties all report vacuum.

    Built by running the preparation circuit and conditioning modes
    2..m+1 on the vacuum outcome (unnormalized; the trace is the heralding
    probability (N - eta m)/N).  The pair is reduced straight from the W
    state's mode amplitudes: the block of modes 0 and 1 is kept, and the
    vacuum entry sums the other modes' photon weights, each conditioned
    mode's scaled by its vacuum-POVM weight 1 - eta.  The pair, in the
    two-photon space ``FockSpace(2)``, is validated as a density.
    Results are cached per (N, m, eta).
    """
    return _conditional_resource_cached(params.N, params.m, params.eta)


def conditional_resource_closed_form(params: TeleportParams) -> DensityOperator:
    """The same pair as an explicit Bell-plus-vacuum mixture:
    (2/N)|Psi+><Psi+| + ((N - eta m - 2)/N)|00><00|."""
    space = FockSpace(2)
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index[(1, 0)]] = 1.0 / math.sqrt(2.0)
    psi[space.index[(0, 1)]] = 1.0 / math.sqrt(2.0)
    mat = (2.0 / params.N) * np.outer(psi, psi.conj())
    vac = space.index[(0, 0)]
    mat[vac, vac] += (params.N - params.eta * params.m - 2.0) / params.N
    return DensityOperator(space, mat)


def _event_assignments(event: BellEvent, eta: float, kind: str) -> dict:
    det = DetectorModel(eta)
    kc, kd = event.counts
    if kind == "number":
        return {0: povm_number(kc, det), 1: povm_number(kd, det)}
    return {0: povm_onoff(kc > 0, det), 1: povm_onoff(kd > 0, det)}


def bob_state(event, qubit: UnknownQubit, params: TeleportParams) -> DensityOperator:
    """Bob's unnormalized state after an accepted event, fully simulated.

    Pipeline: qubit tensor resource -> splitter on (qubit, Alice) ->
    detector conditioning on both outputs -> Bob's pi correction for the
    one-photon-at-d event.  The trace is the event probability.

    This is the one-qubit call of _bob_states, the pipeline that
    simulate_averaged's quadrature runs on all of its nodes at once.
    """
    event = _accepted_event(event)
    v = qubit.state().to_vector()
    space, mats = _bob_states(event, np.outer(v, v.conj())[None], params)
    return DensityOperator(space, mats[0])


def _bob_states(
    event: BellEvent, qubits: np.ndarray, params: TeleportParams
) -> tuple[FockSpace, np.ndarray]:
    """Bob's states for a (S, 3, 3) stack of normalized qubit densities on
    the qubit mode, as the matching (S, 3, 3) stack; slice s is bit for bit
    the matrix of bob_state for qubit s.

    Every slice gets the checks of the one-qubit pipeline: the qubit
    density, the tensor product with the resource and Bob's state are
    validated as DensityOperators would be (_check_density_stack), and the
    tensor product's photon-cutoff check runs per slice.  The splitter,
    the conditioning and the correction run through the raw engine.
    """
    _check_density_stack(qubits, normalized=True)
    resource = conditional_resource(params)
    space, probe = _tensor_checked(_QUBIT_SPACE, qubits, resource.space, resource.matrix)
    _check_density_stack(probe, normalized=resource.normalized)
    u = _check_two_mode_unitary(bell_splitter(params.theta))
    mat = _unitary_raw(space, probe, (0, 1), u)
    space, mat = _condition_outcomes_raw(
        space, mat, _event_assignments(event, params.eta, params.detector_kind)
    )
    if event is BellEvent.D01:
        mat = _phase_raw(space, mat, 0, math.pi)
    _check_density_stack(mat)
    return space, mat


def bob_state_closed_form(
    event, qubit: UnknownQubit, params: TeleportParams
) -> DensityOperator:
    """Bob's state as (eta/N)[|phi'><phi'| + |a|^2 R_e |0><0|] with
    |phi'> = a cos(theta)|1> + b sin(theta)|0> for the c event and the
    complementary angles (after Bob's correction) for the d event."""
    event = _accepted_event(event)
    amp1, amp0 = _phi_prime(event, qubit, params.theta)
    space = FockSpace(1)
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index[(1,)]] = amp1
    psi[space.index[(0,)]] = amp0
    mat = np.outer(psi, psi.conj())
    r = _event_background(params, event)
    vac = space.index[(0,)]
    mat[vac, vac] += abs(qubit.a) ** 2 * r
    return DensityOperator(space, params.eta / params.N * mat)


# ---------------------------------------------------------------------------
# Exact Bloch averaging of the simulated pipeline.
#
# The pipeline is linear in the input operator, so running it on the four
# qubit operator-basis elements |j><k| (j, k photons in the qubit mode)
# yields kernels from which any input's fidelity and probability follow,
# and their Bloch averages follow from fixed moments of the amplitudes.
# ---------------------------------------------------------------------------

# The operator basis |j><k| is stacked in the order (0,0), (0,1), (1,0),
# (1,1), i.e. slot 2j + k; every kernel stack below uses that order.


@lru_cache(maxsize=1)
def _operator_basis_maps() -> tuple[np.ndarray, ...]:
    """Flat indices of the moments route: (target, source) place the
    resource into a (4, 10, 10) stack (slot 2j + k, row, col) next to each
    qubit basis element |j><k|, taken from the tensor plan of the qubit
    mode with the resource; (traced, kept) are the flat indices i*10 + j
    and ki*3 + kj of each term out[ki, kj] += m[i, j] of the partial trace
    onto Bob's mode, in the order of its plan."""
    _, (rows, cols, ia, ja, ib, jb) = _tensor_plan(_QUBIT_SPACE, _RESOURCE_SPACE)
    sel = (ia < 2) & (ja < 2)
    dim = _JOINT_SPACE.dim
    target = ((2 * ia[sel] + ja[sel]) * dim + rows[sel]) * dim + cols[sel]
    bob, (i, j, ki, kj) = _ptrace_plan(_JOINT_SPACE, (2,))
    source = ib[sel] * _RESOURCE_SPACE.dim + jb[sel]
    return _frozen(target, source, i * dim + j, ki * bob.dim + kj)


@lru_cache(maxsize=4096)
def _bell_unitary(theta: float) -> np.ndarray:
    u = _embedded_unitary(_JOINT_SPACE, (0, 1), bell_splitter(theta))
    u.setflags(write=False)
    return u


@lru_cache(maxsize=4096)
def _event_weight_sqrt(event: BellEvent, eta: float, kind: str) -> np.ndarray:
    """The square roots of the event's POVM weights on the joint space, at
    the row i and at the column j of each term m[i, j] of the partial trace
    onto Bob's mode: a read-only (2, T) complex array.  Complex, as the
    products with the complex entries would cast them anyway."""
    _, (i, j, _, _) = _ptrace_plan(_JOINT_SPACE, (2,))
    w = np.sqrt(_povm_weights(_JOINT_SPACE, _event_assignments(event, eta, kind)))
    (pair,) = _frozen(np.array([w[i], w[j]], dtype=complex))
    return pair


# rows per block of the moments route: a block's (B, 4, 10, 10) complex
# stacks take 100 KiB, under glibc's 128 KiB mmap threshold, so they reuse
# heap memory
_BLOCK = 16


def _transported(resources: np.ndarray, splitters: np.ndarray) -> np.ndarray:
    """The four operator-basis inputs pushed through tensor + splitter, for
    a block of B rows, as the (B, 4, T) entries m[i, j] of each 10x10
    result m that the partial trace onto Bob's mode reads, one per term of
    its plan.

    ``resources`` is a (B, 6, 6) stack of conditional resources, or a (1,
    6, 6) one that every row shares (a grid of angles); ``splitters`` is
    the (B, 10, 10) stack of Bell splitters embedded in the joint space.
    Each m is u @ t @ u^H, bit for bit the per-row route's."""
    target, source, traced, _ = _operator_basis_maps()
    count, dim = len(splitters), _JOINT_SPACE.dim
    t = np.zeros((count, 4 * dim * dim), dtype=complex)
    t[:, target] = resources.reshape(len(resources), -1).take(source, axis=1)
    t = t.reshape(count, 4, dim, dim)
    u = splitters[:, None]
    # the product overwrites t, which is read no more
    mats = np.matmul(u @ t, u.conj().swapaxes(-1, -2), out=t)
    return mats.reshape(count, 4, -1).take(traced, axis=2)


@lru_cache(maxsize=64)
def _trace_index(count: int) -> np.ndarray:
    """The add.at index of _condition_kernels: for ``count`` 3x3 kernels
    stored one after another in a flat array, the entry ki*3 + kj of its
    kernel that each term of the partial trace onto Bob's mode adds to,
    kernel by kernel in the plan's order.  A one-dimensional index, so that
    numpy runs add.at on its fast path."""
    kept = _operator_basis_maps()[3]
    (index,) = _frozen((9 * np.arange(count)[:, None] + kept).ravel())
    return index


def _condition_kernels(entries: np.ndarray, sqw: np.ndarray, d01: int) -> np.ndarray:
    """Condition transported inputs on detection events and trace out
    Alice's modes: for the (..., 4, T) entries of _transported, the
    (..., 4, 3, 3) kernels on Bob's mode.  ``sqw`` holds each event's
    weights from _event_weight_sqrt, a (..., 2, T) array whose leading axes
    broadcast against those of ``entries``.  From index ``d01`` on along the
    first axis the kernels are the D01 event's, and get Bob's pi
    correction.

    Each term m[i, j] of the trace is weighted as sqw[i] * m[i, j] * sqw[j]
    and added in the plan's order, elementwise, so each kernel is bit for
    bit the per-row route's."""
    weighted = sqw[..., None, 0, :] * entries
    weighted *= sqw[..., None, 1, :]
    count = weighted.size // weighted.shape[-1]
    k = np.zeros(count * 9, dtype=complex)
    np.add.at(k, _trace_index(count), weighted.ravel())
    k = k.reshape(weighted.shape[:-1] + (3, 3))
    if d01 < len(k):
        k[d01:, ..., 1, :] *= -1.0
        k[d01:, ..., :, 1] *= -1.0
    return k


def _stacked(arrays: list) -> np.ndarray:
    """np.array(arrays), or a view of the one array when there is one: a
    one-row block copies nothing."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _block_kernels(rows) -> tuple[list[int], np.ndarray]:
    """The kernels of a block of at most _BLOCK rows, one for each row and
    event of its event set: the rows' indices, and the kernels as a (K, 4,
    3, 3) stack, all D10 kernels first and then all D01 kernels, so that
    each row meets its events in order.  Each row has its own resource
    (from conditional_resource), splitter angle (_bell_unitary's cache),
    efficiency, detector kind and event set."""
    entries = _transported(
        _stacked([conditional_resource(p).matrix for p in rows]),
        _stacked([_bell_unitary(p.theta) for p in rows]),
    )
    index, sqw = [], []
    for event in (BellEvent.D10, BellEvent.D01):
        d01 = len(index)
        for b, p in enumerate(rows):
            if event in p.events:
                index.append(b)
                sqw.append(_event_weight_sqrt(event, p.eta, p.detector_kind))
    # with one event per row, in row order, the entries need no copy
    if index != list(range(len(rows))):
        entries = entries[index]
    return index, _condition_kernels(entries, _stacked(sqw), d01)


# Bloch moments of the amplitude monomials appearing in the fidelity:
# <|a|^4> = <|b|^4> = 1/3 and <|a|^2 |b|^2> = 1/6 (|a|^2 is uniform on [0, 1]).
def _event_integrals(kernels: np.ndarray) -> tuple[list[float], list[float]]:
    """Bloch-averaged unnormalized fidelity and probability of each event's
    kernels in a (K, 4, 3, 3) stack, as two lists of K floats."""
    # kernels[:, 2j + k] is the kernel of |j><k|
    int_f = (kernels[:, 3, 1, 1] + kernels[:, 0, 0, 0]) / 3.0 + (
        kernels[:, 3, 0, 0] + kernels[:, 0, 1, 1] + kernels[:, 2, 1, 0] + kernels[:, 1, 0, 1]
    ) / 6.0
    traces = kernels.trace(axis1=2, axis2=3)
    int_p = (traces[:, 3] + traces[:, 0]) / 2.0
    return int_f.real.tolist(), int_p.real.tolist()


def _averaged_moments(rows) -> list[tuple[float, float]]:
    """simulate_averaged(p, "moments") of every TeleportParams p in
    ``rows``, computed in blocks of _BLOCK rows; each pair is bit for bit
    the one-row call's.  A row's event integrals add onto 0.0 in event
    order."""
    out = []
    for start in range(0, len(rows), _BLOCK):
        block = rows[start : start + _BLOCK]
        index, kernels = _block_kernels(block)
        sum_f, sum_p = [0.0] * len(block), [0.0] * len(block)
        for b, int_f, int_p in zip(index, *_event_integrals(kernels)):
            sum_f[b] += int_f
            sum_p[b] += int_p
        out += [(f / p, p) for f, p in zip(sum_f, sum_p)]
    return out


class _LeafWork:
    """The arrays that the Monte Carlo's per-sample arithmetic writes into
    with ``out=`` ufuncs: float rows root, bb, aa, f, p, square and complex
    rows a, term, cab, ab, inner, fc, pc, each ``size`` long.  mc_averaged
    allocates one per call and every leaf reuses it; each array is at most
    64 KiB, below glibc's mmap threshold."""

    def __init__(self, size: int) -> None:
        self.root, self.bb, self.aa, self.f, self.p, self.square = (
            np.empty(size) for _ in range(6)
        )
        self.a, self.term, self.cab, self.ab, self.inner, self.fc, self.pc = (
            np.empty(size, dtype=complex) for _ in range(7)
        )


def _monomials(x: np.ndarray, phi: np.ndarray, work: _LeafWork) -> tuple:
    """Coefficient of each operator-basis slot for the qubits a|1> + b|0>
    with |a|^2 = (1 + x)/2 and relative phase phi: b b, conj(a) b, a b,
    |a|^2.  Uniform x in [-1, 1] and phi in [0, 2 pi) are uniform on the
    Bloch sphere.  Elementwise, so a slice of (x, phi) gives the same
    slice of every monomial.

    The monomials are views into ``work``, computed with the ufuncs and
    operand order of
    a = sqrt((1 + x)/2) exp(-i phi), b = sqrt((1 - x)/2),
    b*b, conj(a)*b, a*b, abs(a)**2, so they round alike."""
    n = len(x)
    root, e, a = work.root[:n], work.term[:n], work.a[:n]
    bb, cab, ab, aa = work.bb[:n], work.cab[:n], work.ab[:n], work.aa[:n]
    np.sqrt(np.divide(np.add(1.0, x, out=root), 2.0, out=root), out=root)
    np.exp(np.multiply(-1j, phi, out=e), out=e)
    np.multiply(root, e, out=a)
    b = np.sqrt(np.divide(np.subtract(1.0, x, out=root), 2.0, out=root), out=root)
    np.multiply(b, b, out=bb)
    np.multiply(np.conjugate(a, out=cab), b, out=cab)
    np.multiply(a, b, out=ab)
    np.square(np.absolute(a, out=aa), out=aa)
    return bb, cab, ab, aa


# samples per leaf of mc_averaged's walk: a leaf's complex arrays (64 KiB
# each) stay below glibc's 128 KiB mmap threshold, so they reuse heap memory
_SAMPLE_BLOCK = 4096
# numpy's pairwise float sum adds at most this many items in one unrolled
# loop and splits longer runs (Higham, SIAM J. Sci. Comput. 14, 783, 1993)
_SUM_BLOCK = 128


def _sample_values(
    kernels: np.ndarray, monomials: tuple, work: _LeafWork
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized fidelity and probability of sampled qubits, given their
    amplitude monomials from _monomials, as views into ``work``.

    Photon-number conservation leaves 5 of an event's 36 kernel entries
    nonzero.  A term whose kernel entry is exactly zero would only add a
    signed zero, so it is skipped; the other terms add in the order of
    the dense sum aa k11 + cab k10 + ab k01 + bb k00."""
    bb, cab, ab, aa = monomials
    n = len(aa)
    f, p, inner, term = work.fc[:n], work.pc[:n], work.inner[:n], work.term[:n]
    f.fill(0.0)
    p.fill(0.0)
    for coeff, k in zip(monomials, kernels):
        started = False
        for monomial, entry in ((aa, k[1, 1]), (cab, k[1, 0]), (ab, k[0, 1]), (bb, k[0, 0])):
            if entry == 0:
                continue
            if started:
                np.add(inner, np.multiply(monomial, entry, out=term), out=inner)
            else:
                np.multiply(monomial, entry, out=inner)
                started = True
        if started:
            np.add(f, np.multiply(coeff, inner, out=term), out=f)
        trace = np.trace(k)
        if trace != 0:
            np.add(p, np.multiply(coeff, trace, out=term), out=p)
    return f.real, p.real


def _tree_sums(n: int, leaf_sums, leaf: int) -> np.ndarray:
    """Sums over n items as numpy's pairwise sum adds them, walked down to
    leaves of at most max(leaf, _SUM_BLOCK) items.

    ``leaf_sums(count)`` returns an array of sums over the next ``count``
    items, as np.sum gives them; parents add left + right.  Up to the sign
    of an exactly zero sum, each entry is bit for bit the np.sum over all
    n items, and the two agree once added to a float that starts at 0.0."""
    if n <= max(leaf, _SUM_BLOCK):
        return leaf_sums(n)
    # numpy's left part: half the run, rounded down to its 8-way unrolling
    left = n // 2 - n // 2 % 8
    return _tree_sums(left, leaf_sums, leaf) + _tree_sums(n - left, leaf_sums, leaf)


def _bloch_nodes(n_polar: int, n_azimuth: int) -> list[tuple[float, UnknownQubit]]:
    """(weight, qubit) of each node of the Bloch quadrature, polar-major:
    Gauss-Legendre in cos(theta_i) crossed with a uniform azimuthal grid.
    Both sizes must be integers of at least 1 (ValueError otherwise)."""
    n_polar = _positive_count("n_polar", n_polar)
    n_azimuth = _positive_count("n_azimuth", n_azimuth)
    xs, wx = np.polynomial.legendre.leggauss(n_polar)
    nodes = []
    for x, w in zip(xs, wx):
        theta_i = math.acos(float(np.clip(x, -1.0, 1.0)))
        for k in range(n_azimuth):
            qubit = UnknownQubit.from_bloch(theta_i, 2.0 * math.pi * k / n_azimuth)
            nodes.append((w / 2.0 / n_azimuth, qubit))
    return nodes


def bloch_average(f, n_polar: int = 8, n_azimuth: int = 16) -> float:
    """Average a function of UnknownQubit over the uniform Bloch measure.

    The nodes are those of simulate_averaged's quadrature; the rule is
    exact (well beyond 1e-8) for the polynomial-in-amplitude integrands
    arising in this protocol.
    """
    return sum((weight * f(qubit) for weight, qubit in _bloch_nodes(n_polar, n_azimuth)), 0.0)


def simulate_averaged(
    params: TeleportParams, method: str = "moments", n_polar: int = 8, n_azimuth: int = 16
) -> tuple[float, float]:
    """Bloch-averaged (fidelity, probability) of the simulated pipeline.

    method "moments" runs the pipeline on the qubit operator basis and
    contracts with exact Bloch moments; it is the one-row call of the
    block route (_averaged_moments), which the CLI and verify run on
    blocks of up to 16 parameter tuples, each with its own resource,
    angle, efficiency, detector kind and event set.  "quadrature" runs
    the full simulation of bob_state at every quadrature node, all nodes
    of an event as one stack through _bob_states, so that each node is
    checked as a bob_state call would check it.  The two routes share no
    averaging code and must agree to rounding.
    """
    if method == "moments":
        return _averaged_moments([params])[0]
    if method == "quadrature":
        nodes = _bloch_nodes(n_polar, n_azimuth)
        targets = [qubit.state().to_vector() for _, qubit in nodes]
        qubits = np.stack([np.outer(v, v.conj()) for v in targets])
        states = [_bob_states(event, qubits, params)[1] for event in params.events]
        sum_f = sum_p = 0.0
        for node, ((weight, _), v) in enumerate(zip(nodes, targets)):
            for rho_b in states:
                sum_f += weight * float(np.real(v.conj() @ rho_b[node] @ v))
                sum_p += weight * float(rho_b[node].trace().real)
        return float(sum_f / sum_p), float(sum_p)
    raise ValueError(f"unknown averaging method {method!r}")


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo Bloch average with ratio-estimator standard errors."""

    avg_fidelity: float
    avg_probability: float
    stderr_fidelity: float
    stderr_probability: float
    n_samples: int


def mc_averaged(
    params: TeleportParams, n_samples: int = 1_000_000, seed: int = 0, chunks: int = 8
) -> MCResult:
    """Monte Carlo Bloch average of the simulated pipeline.

    Samples are drawn in fixed-size chunks from independently spawned
    substreams and accumulated in chunk order, so the result depends only
    on (seed, n_samples, chunks), never on execution schedule.  A chunk's
    substream gives all of its x and then all of its phi.

    No array spans a chunk.  Each chunk walks numpy's pairwise-sum tree
    (_tree_sums) down to leaves of at most _SAMPLE_BLOCK = 4,096 samples,
    small enough that every array stays below glibc's mmap threshold.  A
    leaf draws its x from the chunk's generator and its phi from a second
    generator on the same seed, advanced past the chunk's x (one 64-bit
    word per double); it evaluates its per-sample values f and p and
    returns their five sums.  Because the leaves follow numpy's split,
    every sum, and so every field, equals the one over whole-chunk arrays
    bit for bit.

    Every leaf computes in one _LeafWork, allocated once per call, with
    ``out=`` ufuncs in the operation order of the plain expressions, so
    the values keep their bits.  The workspace is not an option: a leaf
    that allocated its own temporaries would free about 0.6 MiB at the
    top of the heap, and whenever glibc's trim threshold is at its
    128 KiB default, free returns that memory to the system and the next
    leaf faults it in again (tens of thousands of minor page faults and
    twice the CPU time per million samples).  n_samples and chunks must
    be integers (Python or numpy, not bool) of at least 1; ValueError
    otherwise.
    """
    n_samples = _positive_count("n_samples", n_samples)
    chunks = _positive_count("chunks", chunks)
    _, event_kernels = _block_kernels([params])
    sizes = [
        n_samples // chunks + (1 if i < n_samples % chunks else 0) for i in range(chunks)
    ]
    work = _LeafWork(min(max(_SAMPLE_BLOCK, _SUM_BLOCK), sizes[0]))
    sum_f = sum_p = sum_ff = sum_pp = sum_fp = 0.0
    for seq, size in zip(np.random.SeedSequence(seed).spawn(chunks), sizes):
        x_rng = np.random.Generator(np.random.PCG64(seq))
        phi_rng = np.random.Generator(np.random.PCG64(seq).advance(size))

        def leaf_sums(count: int) -> np.ndarray:
            x = x_rng.uniform(-1.0, 1.0, count)
            phi = phi_rng.uniform(0.0, 2.0 * math.pi, count)
            monomials = _monomials(x, phi, work)
            f, p, square = work.f[:count], work.p[:count], work.square[:count]
            f.fill(0.0)
            p.fill(0.0)
            for kernels in event_kernels:
                df, dp = _sample_values(kernels, monomials, work)
                np.add(f, df, out=f)
                np.add(p, dp, out=p)
            return np.array(
                [
                    f.sum(),
                    p.sum(),
                    np.multiply(f, f, out=square).sum(),
                    np.multiply(p, p, out=square).sum(),
                    np.multiply(f, p, out=square).sum(),
                ]
            )

        chunk_f, chunk_p, chunk_ff, chunk_pp, chunk_fp = _tree_sums(size, leaf_sums, _SAMPLE_BLOCK)
        sum_f += chunk_f
        sum_p += chunk_p
        sum_ff += chunk_ff
        sum_pp += chunk_pp
        sum_fp += chunk_fp
    mean_f, mean_p = sum_f / n_samples, sum_p / n_samples
    fbar = mean_f / mean_p
    var_p = max(sum_pp / n_samples - mean_p**2, 0.0)
    # ratio estimator: var(F - fbar P) drives the error of the quotient
    var_resid = max(
        sum_ff / n_samples
        - 2.0 * fbar * sum_fp / n_samples
        + fbar**2 * sum_pp / n_samples
        - (mean_f - fbar * mean_p) ** 2,
        0.0,
    )
    # the sums are numpy floats; float() keeps their bits
    return MCResult(
        avg_fidelity=float(fbar),
        avg_probability=float(mean_p),
        stderr_fidelity=float(math.sqrt(var_resid / n_samples) / mean_p),
        stderr_probability=math.sqrt(var_p / n_samples),
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# Optimization and critical efficiencies.
# ---------------------------------------------------------------------------


def optimal_theta(n: int, m: int, eta: float, event="D10") -> float:
    """Fidelity-maximizing splitter angle for one accepted event with
    number-resolving detectors: cos(theta) = (2-eta)/hypot(2-eta, N-eta m-eta),
    mirrored about pi/4 for the d-side event."""
    TeleportParams(n, m, eta, 0.0)
    event = _accepted_event(event)
    theta = math.acos((2.0 - eta) / math.hypot(2.0 - eta, n - eta * m - eta))
    return theta if event is BellEvent.D10 else math.pi / 2.0 - theta


def max_fidelity_closed_form(n: int, m: int, eta: float) -> tuple[float, float]:
    """Optimal single-event fidelity and its success probability for
    number-resolving detectors."""
    TeleportParams(n, m, eta, 0.0)
    d = (2.0 - eta) ** 2 + (n - eta * m - eta) ** 2
    fmax = (1.0 + (n - eta * (m + 2.0) + 2.0) / ((2.0 - eta) * (n - eta * m - eta))) / 3.0
    popt = (
        eta
        * (2.0 - eta)
        / (2.0 * n)
        * (1.0 + (2.0 - eta) * (n - eta * m - 2.0) / d)
    )
    return fmax, popt


def max_fidelity(
    n: int, m: int, eta: float, detector_kind: str = "number", event_set: str = "D10"
) -> TeleportReport:
    """Fidelity maximized over the splitter angle, with the probability at
    the optimum.

    Number-resolving detectors admit closed forms (single events via the
    analytic optimal angle; combined events peak exactly at pi/4); the
    on-off variant is maximized numerically by golden-section search.
    """
    base = TeleportParams(n, m, eta, 0.0, detector_kind, event_set)
    if base.detector_kind == "number":
        if event_set == "both":
            theta_star = math.pi / 4.0
        else:
            theta_star = optimal_theta(n, m, eta, event=event_set)
        report = averaged_fidelity_probability(dataclasses.replace(base, theta=theta_star))
        if event_set != "both":
            # report the established closed forms rather than the generic ones
            fmax, popt = max_fidelity_closed_form(n, m, eta)
            report = dataclasses.replace(report, avg_fidelity=fmax, avg_probability=popt)
        return dataclasses.replace(report, optimal=True, theta_star=theta_star)
    theta_star, _ = golden_section_max(
        lambda th: _fbar(base, th),
        0.0,
        math.pi / 2.0,
        tol=TOL.golden_section,
    )
    report = averaged_fidelity_probability(dataclasses.replace(base, theta=theta_star))
    return dataclasses.replace(report, optimal=True, theta_star=theta_star)


def critical_eta(n: int, m: int, detector_kind: str = "number") -> float:
    """Smallest detector efficiency whose optimized fidelity beats 2/3.

    Number-resolving detectors: closed form
    (N + m - sqrt((N-m-2)^2 + 4(m+1)))/(2(m+1)).  On-off detectors: root of
    the numerically maximized fidelity minus 2/3, by bisection.  Returns
    0.0 when the fidelity exceeds 2/3 at every positive efficiency.
    """
    kind = TeleportParams(n, m, 1.0, 0.0, detector_kind).detector_kind
    if kind == "number":
        return (n + m - math.sqrt((n - m - 2.0) ** 2 + 4.0 * (m + 1.0))) / (2.0 * (m + 1.0))

    def gap(eta: float) -> float:
        return max_fidelity(n, m, eta, "onoff", "D10").avg_fidelity - 2.0 / 3.0

    lo = 1e-9
    if gap(lo) >= 0.0:
        return 0.0
    if gap(1.0) <= 0.0:
        raise ValueError("fidelity never exceeds the classical bound")
    return bisect_root(gap, lo, 1.0, tol=TOL.bisection_onoff)


def critical_eta_bisection(n: int, m: int) -> float:
    """Independent root-finding check of the closed-form critical efficiency
    (number-resolving detectors)."""
    TeleportParams(n, m, 1.0, 0.0)

    def gap(eta: float) -> float:
        return max_fidelity_closed_form(n, m, eta)[0] - 2.0 / 3.0

    lo = 1e-12
    if gap(lo) >= 0.0:
        return 0.0
    return bisect_root(gap, lo, 1.0, tol=TOL.bisection)


def nonadvantageous_bound(
    n: int, m: int, eta: float, n_theta: int = 1000, n_phase: int = 64
) -> dict[BellEvent, float]:
    """Best Bloch-averaged fidelity each rejected event can reach.

    Sweeps the splitter angle on a grid and Bob's only available correction
    (a phase shift, sampled on {0, pi} plus a uniform grid) with
    number-resolving detectors.  Events with vanishing probability at a
    grid point contribute nothing there.  The angles run in blocks of 16
    (_BLOCK) through the moments route with one shared resource, all four
    rejected events at once.  Each block builds its splitters uncached,
    since a grid angle is used once per call, and as one stack
    (_embedded_real_unitaries, bit for bit the per-angle splitters):
    memory is bounded by one block's stacks, not by a cache of per-angle
    splitters.  n_theta and n_phase must be integers of at least 1 (an
    empty grid would bound nothing); ValueError otherwise.
    """
    n_theta = _positive_count("n_theta", n_theta)
    n_phase = _positive_count("n_phase", n_phase)
    base = TeleportParams(n, m, eta, 0.0)
    phases = np.array(
        sorted({0.0, math.pi} | {2.0 * math.pi * k / n_phase for k in range(n_phase)})
    )
    rot = np.exp(-1j * phases)
    thetas = np.linspace(0.0, math.pi / 2.0, n_theta)
    resource = conditional_resource(base).matrix[None]
    # the rejected events' weights, one row per event
    sqw = np.array([_event_weight_sqrt(event, base.eta, base.detector_kind) for event in REJECTED])
    best = np.zeros(len(REJECTED))
    for start in range(0, n_theta, _BLOCK):
        block = thetas[start : start + _BLOCK].tolist()
        splitters = _embedded_real_unitaries(
            _JOINT_SPACE, (0, 1), np.stack([bell_splitter(theta) for theta in block])
        )
        entries = _transported(resource, splitters)
        # kernels[angle, event, slot]; no rejected event gets the D01
        # correction, so it starts past the last angle
        kernels = _condition_kernels(entries[:, None], sqw, len(entries))
        k00, k01, k10, k11 = np.moveaxis(kernels, 2, 0)
        int_p = np.real(np.trace(k11, axis1=-2, axis2=-1) + np.trace(k00, axis1=-2, axis2=-1))
        int_p = int_p / 2.0
        # Bob's phase rotates only the two cross moments
        static = np.real(
            (k11[..., 1, 1] + k00[..., 0, 0]) / 3.0 + (k11[..., 0, 0] + k00[..., 1, 1]) / 6.0
        )
        swept = static[..., None] + np.real(
            rot * k10[..., 1, 0, None] + np.conj(rot) * k01[..., 0, 1, None]
        ) / 6.0
        reached = np.zeros(int_p.shape)
        np.divide(np.max(swept, axis=-1), int_p, out=reached, where=int_p >= 1e-14)
        best = np.maximum(best, np.max(reached, axis=0))
    return dict(zip(REJECTED, best.tolist()))
