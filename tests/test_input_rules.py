"""Input rules checked at every entry point: integer sizes, counts and
mode indices, splitter angles, and detector kinds.

Each rule lives in one place (``fock._integer`` and ``_positive_count``,
``circuits._check_angle``, ``detection._DETECTOR_KINDS``); these tests
hold every public entry point that reads such an input to it, with the
same ValueError message wherever the rule applies.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsim import (
    DensityOperator,
    DetectorModel,
    FockSpace,
    SplitterAngles,
    TeleportParams,
    apply_phase_shift,
    apply_two_mode_unitary,
    averaged_fidelity_curve,
    bloch_average,
    canonical_basis,
    coefficients_from_angles,
    mc_averaged,
    nonadvantageous_bound,
    partial_trace,
    povm_moments,
    povm_number,
    povm_onoff,
    reduced_pair,
    simulate_averaged,
    splitter,
    symmetric_angles,
)
from wsim.cli import main

DET = DetectorModel(0.7)
PARAMS = TeleportParams(3, 1, 0.8, 0.5)
W3 = coefficients_from_angles(symmetric_angles(3))


def _quadrature(n_polar, n_azimuth):
    return simulate_averaged(PARAMS, "quadrature", n_polar, n_azimuth)


def _average(n_polar, n_azimuth):
    return bloch_average(lambda q: abs(q.a) ** 2, n_polar, n_azimuth)


# (argument name, call taking the value, a valid value); every call checks
# its integer before doing any work
INTEGER_INPUTS = {
    "FockSpace.num_modes": ("num_modes", lambda v: FockSpace(v), 3),
    "FockSpace.total_cutoff": ("total_cutoff", lambda v: FockSpace(3, v), 2),
    "FockSpace.mode_cutoff": ("mode_cutoff", lambda v: FockSpace(3, 2, v), 1),
    "canonical_basis.num_modes": ("num_modes", lambda v: canonical_basis(v), 3),
    "canonical_basis.total_cutoff": ("total_cutoff", lambda v: canonical_basis(3, v), 2),
    "canonical_basis.mode_cutoff": ("mode_cutoff", lambda v: canonical_basis(3, 2, v), 1),
    "symmetric_angles.num_modes": ("num_modes", lambda v: symmetric_angles(v), 5),
    "povm_number.k": ("k", lambda v: povm_number(v, DET), 1),
    "povm_number.cutoff": ("cutoff", lambda v: povm_number(1, DET, v), 3),
    "povm_onoff.cutoff": ("cutoff", lambda v: povm_onoff(True, DET, v), 3),
    "TeleportParams.N": ("N", lambda v: TeleportParams(v, 1, 0.8, 0.5), 4),
    "TeleportParams.m": ("m", lambda v: TeleportParams(4, v, 0.8, 0.5), 1),
    "simulate_averaged.n_polar": ("n_polar", lambda v: _quadrature(v, 2), 2),
    "simulate_averaged.n_azimuth": ("n_azimuth", lambda v: _quadrature(2, v), 3),
    "bloch_average.n_polar": ("n_polar", lambda v: _average(v, 2), 2),
    "bloch_average.n_azimuth": ("n_azimuth", lambda v: _average(2, v), 3),
    "mc_averaged.n_samples": ("n_samples", lambda v: mc_averaged(PARAMS, v), 500),
    "mc_averaged.chunks": ("chunks", lambda v: mc_averaged(PARAMS, 500, chunks=v), 3),
    "nonadvantageous_bound.n_theta": (
        "n_theta",
        lambda v: nonadvantageous_bound(3, 1, 0.7, n_theta=v, n_phase=2),
        5,
    ),
    "nonadvantageous_bound.n_phase": (
        "n_phase",
        lambda v: nonadvantageous_bound(3, 1, 0.7, n_theta=5, n_phase=v),
        3,
    ),
    # mode and pair indices: a fractional index must not pick a mode
    "reduced_pair.i": ("i", lambda v: reduced_pair(W3, v, 2).matrix.tobytes(), 1),
    "reduced_pair.j": ("j", lambda v: reduced_pair(W3, 0, v).matrix.tobytes(), 1),
    "partial_trace.keep": (
        "mode",
        lambda v: partial_trace(_pair_state(), (v,)).matrix.tobytes(),
        1,
    ),
    "apply_two_mode_unitary.modes": (
        "mode",
        lambda v: apply_two_mode_unitary(_pair_state(), (v, 1), splitter(0.3)).matrix.tobytes(),
        0,
    ),
    "apply_phase_shift.mode": (
        "mode",
        lambda v: apply_phase_shift(_pair_state(), v, 0.3).matrix.tobytes(),
        1,
    ),
}
NOT_INTEGERS = [True, False, np.True_, 2.5, 1.7, 3.0, -0.5, "3", None, 1 + 0j]


def _integer_message(name, value):
    return "^" + re.escape(f"{name} must be an integer, got {value!r}") + "$"


NON_INTEGER_CASES = {
    f"{entry}-{value!r}": (entry, value)
    for entry, (name, _, _) in INTEGER_INPUTS.items()
    for value in NOT_INTEGERS
    # None is mode_cutoff's default: the total cutoff
    if not (name == "mode_cutoff" and value is None)
}


@pytest.mark.parametrize(
    "entry, value", list(NON_INTEGER_CASES.values()), ids=list(NON_INTEGER_CASES)
)
def test_non_integers_rejected(entry, value):
    name, call, _ = INTEGER_INPUTS[entry]
    with pytest.raises(ValueError, match=_integer_message(name, value)):
        call(value)


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(sorted(INTEGER_INPUTS)), value=st.floats())
def test_every_float_rejected(entry, value):
    # integral floats too: a size is an integer, not a number that rounds to one
    name, call, _ = INTEGER_INPUTS[entry]
    with pytest.raises(ValueError, match=_integer_message(name, value)):
        call(value)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16], ids=lambda k: k.__name__)
@pytest.mark.parametrize("entry", INTEGER_INPUTS)
def test_numpy_integers_accepted(entry, kind):
    _, call, good = INTEGER_INPUTS[entry]
    assert call(kind(good)) == call(good)


def test_numpy_sizes_become_python_ints():
    space = FockSpace(np.int64(3), np.int32(2), np.uint8(1))
    assert space == FockSpace(3, 2, 1)
    sizes = (space.num_modes, space.total_cutoff, space.mode_cutoff)
    assert [type(v) for v in sizes] == [int, int, int]
    assert type(FockSpace(np.int64(2)).mode_cutoff) is int


@pytest.mark.parametrize(
    "entry, value, message",
    [
        ("FockSpace.num_modes", -1, "num_modes must be non-negative"),
        ("FockSpace.total_cutoff", -1, "total_cutoff must be non-negative"),
        ("FockSpace.mode_cutoff", -1, "mode_cutoff must be non-negative"),
        ("canonical_basis.num_modes", 0, "num_modes must be at least 1"),
        ("canonical_basis.num_modes", -1, "num_modes must be at least 1"),
        ("symmetric_angles.num_modes", 1, "a W state needs at least two modes"),
        ("povm_number.k", 3, "count 3 outside the detector cutoff 2"),
        ("povm_number.cutoff", 0, "count 1 outside the detector cutoff 0"),
        ("simulate_averaged.n_polar", 0, "n_polar 0 must be at least 1"),
        ("simulate_averaged.n_azimuth", 0, "n_azimuth 0 must be at least 1"),
        ("bloch_average.n_azimuth", -1, "n_azimuth -1 must be at least 1"),
        ("mc_averaged.chunks", 0, "chunks 0 must be at least 1"),
        ("nonadvantageous_bound.n_theta", 0, "n_theta 0 must be at least 1"),
    ],
)
def test_range_messages(entry, value, message):
    _, call, _ = INTEGER_INPUTS[entry]
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(value)


# -- splitter angles ---------------------------------------------------------

ANGLE_INPUTS = {
    "SplitterAngles": lambda t: SplitterAngles((t,)),
    "TeleportParams": lambda t: TeleportParams(3, 1, 0.8, t),
    "averaged_fidelity_curve": lambda t: averaged_fidelity_curve(PARAMS, [0.3, t]),
}
LIMIT = math.pi / 2 + 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, LIMIT])
@pytest.mark.parametrize("entry", ANGLE_INPUTS)
def test_angle_accepted(entry, theta):
    ANGLE_INPUTS[entry](theta)


@pytest.mark.parametrize(
    "theta",
    [math.nextafter(LIMIT, math.inf), math.nextafter(0.0, -math.inf), -0.1, 2.0, math.nan],
    ids=["above-limit", "below-zero", "negative", "two", "nan"],
)
@pytest.mark.parametrize("entry", ANGLE_INPUTS)
def test_angle_rejected_with_one_message(entry, theta):
    message = "^" + re.escape(f"splitter angle {theta} outside [0, pi/2]") + "$"
    with pytest.raises(ValueError, match=message):
        ANGLE_INPUTS[entry](theta)


def _outcome(call, theta):
    try:
        call(theta)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    theta=st.one_of(
        st.floats(),
        st.floats(LIMIT - 1e-9, LIMIT + 1e-9),
        st.floats(-1e-9, 1e-9),
    )
)
def test_one_angle_rule_everywhere(theta):
    (outcome,) = {_outcome(call, theta) for call in ANGLE_INPUTS.values()}
    assert (outcome is None) == (0.0 <= theta <= LIMIT)


# -- detector kinds ----------------------------------------------------------


def _pair_state():
    space = FockSpace(2)
    v = np.zeros(space.dim, dtype=complex)
    v[space.index[(1, 0)]], v[space.index[(0, 1)]] = 0.6, 0.8j
    return DensityOperator(space, np.outer(v, v.conj()), normalized=True)


@pytest.mark.parametrize("alias, kind", [("number-resolving", "number"), ("on-off", "onoff")])
def test_povm_moments_accepts_both_aliases(alias, kind):
    rho = _pair_state()
    assert povm_moments(rho, DET, alias) == povm_moments(rho, DET, kind)
    assert TeleportParams(3, 1, 0.8, 0.5, alias).detector_kind == kind


def test_povm_moments_keeps_its_message():
    with pytest.raises(ValueError, match=r"^unknown detector back-end 'clicks'$"):
        povm_moments(_pair_state(), DET, "clicks")


@pytest.mark.parametrize("kind", ["number", "number-resolving", "onoff", "on-off"])
def test_every_kind_reaches_the_cli(kind, capsys):
    assert main(["teleport", "--N", "3", "--theta", "0.4", "--detector", kind]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split(",")[6] == TeleportParams(3, 0, 1.0, 0.4, kind).detector_kind
