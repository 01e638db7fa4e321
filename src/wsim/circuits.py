"""Beam-splitter arrays that distribute one photon into a W state.

A chain of N-1 splitters, the j-th (0-based) mixing modes (j, j+1) with
angle theta_j, maps the single photon injected in mode 0 to the amplitude
pattern

    alpha_j = sin(theta_j) * prod_{i<j} cos(theta_i),   j < N-1
    alpha_{N-1} = prod_i cos(theta_i),

optionally followed by per-mode phase shifters multiplying alpha_j by
exp(-i phi_j).  ``angles_from_coefficients`` inverts this map, so any
normalized coefficient vector is reachable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .fock import (
    FockSpace,
    PureState,
    _check_norm_sq,
    _check_two_mode_unitaries,
    _integer,
    _norm_sq,
)


@dataclass(frozen=True)
class WCoefficients:
    """Normalized amplitudes alpha_j of a single photon spread over N modes.

    Phases are carried in the coefficients themselves (alpha_j e^{-i phi_j}
    is just another complex alpha_j).
    """

    alphas: tuple[complex, ...]

    def __post_init__(self) -> None:
        alphas = tuple(complex(a) for a in self.alphas)
        if len(alphas) < 2:
            raise ValueError("need at least two modes")
        norm = _norm_sq(alphas)
        if not abs(norm - 1.0) <= TOL.norm * len(alphas):
            raise ValueError(f"coefficients are not normalized (norm^2 = {norm})")
        object.__setattr__(self, "alphas", alphas)

    def __len__(self) -> int:
        return len(self.alphas)


def splitter(theta: float) -> np.ndarray:
    """Chain splitter: reflects with sin(theta) to the earlier mode.

    Acting on (a_j, a_{j+1}) it leaves amplitude sin(theta) behind at mode j
    and forwards cos(theta) to mode j+1.
    """
    s, c = math.sin(theta), math.cos(theta)
    return np.array([[s, -c], [c, s]])


def bell_splitter(theta: float) -> np.ndarray:
    """Measurement splitter: transmits with cos(theta).

    The balanced case theta = pi/4 sends a photon pair |1,1> to
    (|0,2> - |2,0>)/sqrt(2), the two-photon interference dip.
    """
    s, c = math.sin(theta), math.cos(theta)
    return np.array([[c, s], [-s, c]])


def _check_angle(theta: float) -> None:
    """The rule for every splitter angle: theta in [0, pi/2], with 1e-12 of
    slack above so that a rounded pi/2 passes; ValueError otherwise."""
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError(f"splitter angle {theta} outside [0, pi/2]")


@dataclass(frozen=True)
class SplitterAngles:
    """Angles for an N-mode preparation chain: N-1 splitters, N phases.

    thetas[j] is the angle of the splitter on modes (j, j+1); phis[j] is the
    phase shifter on mode j (defaults to all zeros).
    """

    thetas: tuple[float, ...]
    phis: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        thetas = tuple(float(t) for t in self.thetas)
        if len(thetas) < 1:
            raise ValueError("need at least one splitter angle")
        for t in thetas:
            _check_angle(t)
        object.__setattr__(self, "thetas", thetas)
        if self.phis is None:
            object.__setattr__(self, "phis", (0.0,) * (len(thetas) + 1))
        else:
            phis = tuple(float(p) for p in self.phis)
            if len(phis) != len(thetas) + 1:
                raise ValueError("need one phase per mode")
            object.__setattr__(self, "phis", phis)

    @property
    def num_modes(self) -> int:
        return len(self.thetas) + 1


def symmetric_angles(num_modes: int) -> SplitterAngles:
    """Angles producing the symmetric W state, |alpha_j| = 1/sqrt(N).

    Splitter j must peel off 1/(N-j) of the photon flux still travelling,
    hence theta_j = arcsin(1/sqrt(N-j)).
    """
    if _integer("num_modes", num_modes) < 2:
        raise ValueError("a W state needs at least two modes")
    return SplitterAngles(
        tuple(math.asin(1.0 / math.sqrt(num_modes - j)) for j in range(num_modes - 1))
    )


def coefficients_from_angles(angles: SplitterAngles) -> WCoefficients:
    """Closed-form amplitudes alpha_j produced by the chain."""
    n = angles.num_modes
    out = [0j] * n
    running = 1.0
    for j, theta in enumerate(angles.thetas):
        out[j] = running * math.sin(theta)
        running *= math.cos(theta)
    out[n - 1] = running
    for j in range(n):
        out[j] *= cmath.exp(-1j * angles.phis[j])
    return WCoefficients(tuple(out))


def _as_coefficients(alphas) -> WCoefficients:
    if isinstance(alphas, WCoefficients):
        return alphas
    return WCoefficients(tuple(alphas))


def angles_from_coefficients(alphas) -> SplitterAngles:
    """Invert the chain: angles and phases realizing the given amplitudes.

    Once the leading amplitudes exhaust the norm, the remaining angles are
    exactly zero (the photon never reaches those splitters, so their
    setting is immaterial).
    """
    w = _as_coefficients(alphas)
    n = len(w)
    thetas = []
    remaining = 1.0
    for j in range(n - 1):
        mag = abs(w.alphas[j])
        if remaining <= TOL.support:
            thetas.append(0.0)
            continue
        ratio = min(1.0, mag / math.sqrt(remaining))
        thetas.append(math.asin(ratio))
        remaining = max(0.0, remaining - mag * mag)
    # the + 0.0 normalizes -0.0 so emitted settings round-trip byte-identically
    phis = tuple(-cmath.phase(a) + 0.0 if abs(a) > TOL.support else 0.0 for a in w.alphas)
    return SplitterAngles(tuple(thetas), phis)


def generate_w(angles: SplitterAngles) -> PureState:
    """Run the chain on |1, 0, ..., 0> and apply the phase shifters.

    The state is validated once, at return, in the one-photon space
    ``FockSpace(N, 1)``.
    """
    return w_state_from_coefficients(_chain_amplitudes(angles))


def _chain_amplitudes(angles: SplitterAngles) -> list:
    """generate_w's amplitudes in mode order, unvalidated, as Python complex
    numbers.

    The photon number is conserved, so the chain runs on the photon's N
    amplitudes, which transform by each splitter's matrix itself (fock's
    convention): splitter j mixes (v[j], v[j+1]), one Givens rotation of a
    Reck triangle, and the phase shifters act next.  The N-1 splitters are
    built as one (N-1, 2, 2) stack and checked for unitarity once; the
    rotations then run on Python complex numbers, with the products and
    sums of a numpy 2x2 per splitter in the same order, so every amplitude
    keeps its bits.
    """
    sines = np.array([math.sin(theta) for theta in angles.thetas])
    cosines = np.array([math.cos(theta) for theta in angles.thetas])
    # splitter(theta) for every angle, [[s, -c], [c, s]], as the complex
    # matrices a per-splitter check would read
    stack = np.stack([sines, -cosines, cosines, sines], axis=-1).reshape(-1, 2, 2).astype(complex)
    _check_two_mode_unitaries(stack)
    s, minus_c, c = (stack[:, row, col].tolist() for row, col in ((0, 0), (0, 1), (1, 0)))
    # splitter j meets the photon's amplitude a at mode j and the untouched
    # zero at mode j+1; it leaves s a - c 0 behind and forwards c a + s 0
    amplitudes = []
    a, zero = 1.0 + 0.0j, 0j
    for s_j, minus_c_j, c_j in zip(s, minus_c, c):
        amplitudes.append(s_j * a + minus_c_j * zero)
        a = c_j * a + s_j * zero
    amplitudes.append(a)
    phases = np.exp(-1j * np.array(angles.phis)).tolist()
    return [a * e for a, e in zip(amplitudes, phases)]


def _mode_amplitudes(alphas) -> np.ndarray:
    """The amplitudes of w_state_from_coefficients(alphas) in mode order,
    as a complex array, with no basis enumerated.

    The WCoefficients and PureState checks run with their messages, and
    each zero is stored as +0, as PureState stores it.
    """
    w = _as_coefficients(alphas)
    _check_norm_sq(_norm_sq(w.alphas), post_selected=False)
    return np.array(w.alphas, dtype=complex) + 0.0


def w_state_from_coefficients(alphas) -> PureState:
    """Single-photon state sum_j alpha_j |0...1_j...0> built directly, in
    the one-photon space ``FockSpace(N, 1)`` of dimension N + 1."""
    w = _as_coefficients(alphas)
    space = FockSpace(len(w), 1)
    # the basis lists the vacuum, then the photon in the last mode first
    return PureState(space, dict(zip(space.basis[:0:-1], w.alphas)))
