"""Reference routes, random inputs and Hypothesis strategies shared by
several test modules."""

import csv
import json
import math

import numpy as np
from hypothesis import strategies as st

from wsim import BellEvent, TeleportParams, UnknownQubit, cli, detection, fock, teleport
from wsim.circuits import bell_splitter, splitter
from wsim.detection import _condition_outcomes_raw

HALF_PI = math.pi / 2.0

efficiencies = st.one_of(st.just(1e-9), st.just(1.0), st.floats(1e-9, 1.0))
angles = st.one_of(st.just(0.0), st.just(HALF_PI), st.floats(0.0, HALF_PI))


@st.composite
def teleport_params(draw, theta=st.just(0.0)):
    """A TeleportParams of 2 to 10 modes, often at m = N - 2 and at the
    efficiency bounds, with its angle drawn from ``theta``."""
    n = draw(st.integers(2, 10))
    m = draw(st.one_of(st.just(n - 2), st.integers(0, n - 2)))
    return TeleportParams(
        n,
        m,
        draw(efficiencies),
        draw(theta),
        draw(st.sampled_from(["number", "onoff"])),
        draw(st.sampled_from(["D10", "D01", "both"])),
    )


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return UnknownQubit(complex(v[0]), complex(v[1]))


def pad(space, matrix, target):
    """Embed an operator into a space over the same modes with larger
    cutoffs; the entries of the added occupations are zero."""
    rows = [target.index[occ] for occ in space.basis]
    out = np.zeros((target.dim, target.dim), dtype=complex)
    out[np.ix_(rows, rows)] = matrix
    return out


# ---------------------------------------------------------------------------
# The per-row moments route of the teleport pipeline: the block route must
# equal it bit for bit.
# ---------------------------------------------------------------------------


def bell_unitary(theta):
    """The Bell splitter on the joint space, embedded at one angle."""
    return fock._embedded_unitary(teleport._JOINT_SPACE, (0, 1), bell_splitter(theta))


def transported(params):
    """The four operator-basis inputs pushed through tensor + splitter at
    params.theta, as a (4, 10, 10) stack."""
    resource = teleport.conditional_resource(params).matrix
    _, (rows, cols, ia, ja, ib, jb) = fock._tensor_plan(
        teleport._QUBIT_SPACE, teleport._RESOURCE_SPACE
    )
    sel = (ia < 2) & (ja < 2)
    dim = teleport._JOINT_SPACE.dim
    t = np.zeros((4, dim, dim), dtype=complex)
    t[2 * ia[sel] + ja[sel], rows[sel], cols[sel]] = resource[ib[sel], jb[sel]]
    u = bell_unitary(params.theta)
    return u @ t @ u.conj().swapaxes(-1, -2)


def condition_kernels(mats, params, event):
    """A (4, 10, 10) stack from transported conditioned on the event and
    traced down to Bob's mode, after Bob's pi correction for D01."""
    assignments = teleport._event_assignments(event, params.eta, params.detector_kind)
    sqw = np.sqrt(teleport._povm_weights(teleport._JOINT_SPACE, assignments))
    weighted = sqw[:, None] * mats * sqw[None, :]
    _, k = fock._ptrace_raw(teleport._JOINT_SPACE, weighted, (2,))
    if event is teleport.BellEvent.D01:
        k[..., 1, :] *= -1.0
        k[..., :, 1] *= -1.0
    return k


def event_integrals(kernels):
    """Bloch-averaged unnormalized fidelity and probability of one event's
    (4, 3, 3) kernels, as floats."""
    k00, k01, k10, k11 = kernels
    int_f = (k11[1, 1] + k00[0, 0]) / 3.0 + (
        k11[0, 0] + k00[1, 1] + k10[1, 0] + k01[0, 1]
    ) / 6.0
    int_p = (np.trace(k11) + np.trace(k00)) / 2.0
    return float(int_f.real), float(int_p.real)


def moments(params):
    """simulate_averaged(params, "moments") one row at a time."""
    mats = transported(params)
    sum_f = sum_p = 0.0
    for event in params.events:
        int_f, int_p = event_integrals(condition_kernels(mats, params, event))
        sum_f += int_f
        sum_p += int_p
    return float(sum_f / sum_p), float(sum_p)


# ---------------------------------------------------------------------------
# Bob's state by the route that embedded the complex splitter and applied
# the phase shift: a second route, equal to bob_state to rounding.
# ---------------------------------------------------------------------------


def phase_shifted_bob_state(event, qubit, params):
    """Bob's unvalidated (3, 3) state by its own route: the public tensor,
    the complex cast of the Bell splitter embedded in the joint space,
    detector conditioning, and Bob's correction as the phase shift
    exp(-i pi n), which is -1 - 1.2e-16j at n = 1.  bob_state must stay
    within a few ulps of it."""
    probe = fock.tensor(qubit.state().to_density(), teleport.conditional_resource(params))
    u = fock._check_two_mode_unitary(bell_splitter(params.theta))
    mat = fock._unitary_raw(probe.space, probe.matrix, (0, 1), u)
    space, mat = _condition_outcomes_raw(
        probe.space, mat, teleport._event_assignments(event, params.eta, params.detector_kind)
    )
    if event is BellEvent.D01:
        mat = fock._phase_raw(space, mat, 0, math.pi)
    return mat


# ---------------------------------------------------------------------------
# The per-state loss and POVM readouts of detection: their stacks must equal
# them bit for bit.
# ---------------------------------------------------------------------------


def ancilla_moments(rho2, det):
    """lossy_moments_ancilla one state at a time, its loss splitters
    embedded again on every readout phase."""
    loss = fock._check_two_mode_unitary(splitter(math.acos(math.sqrt(det.eta))))
    ancillas = fock.vacuum_state(fock.FockSpace(2)).to_density()
    out = []
    n_plus_meas = 0.0
    for phi in (0.0, math.pi / 2):
        probe = detection._readout_raw(rho2.space, rho2.matrix, phi)
        space, big = fock._tensor_raw(rho2.space, probe, ancillas.space, ancillas.matrix)
        big = fock._unitary_raw(space, big, (0, 2), loss)
        big = fock._unitary_raw(space, big, (1, 3), loss)
        diag = np.real(np.diag(big))
        d_vals, n_vals = detection._count_vectors(space, (2, 3))
        mean_d = float(diag @ d_vals)
        out.append((float(diag @ d_vals**2) - mean_d**2) / 4.0)
        if phi == 0.0:
            n_plus_meas = float(diag @ n_vals)
    return out[0], out[1], n_plus_meas


def povm_moments(rho2, det, kind):
    """povm_moments one state at a time, one 1-D dot per outcome."""
    if detection._DETECTOR_KINDS[kind] == "number":
        outcomes = [(detection.povm_number(k, det), float(k)) for k in range(3)]
    else:
        outcomes = [(detection.povm_onoff(False, det), 0.0), (detection.povm_onoff(True, det), 1.0)]
    joint = [
        (detection._povm_weights(rho2.space, {0: c, 1: d}), val_c - val_d, val_c + val_d)
        for c, val_c in outcomes
        for d, val_d in outcomes
    ]
    variances = []
    n_plus_meas = 0.0
    for phi in (0.0, math.pi / 2):
        diag = np.real(np.diag(detection._readout_raw(rho2.space, rho2.matrix, phi)))
        mean_d = mean_d2 = mean_n = 0.0
        for weights, d, total in joint:
            p = float(diag @ weights)
            mean_d += p * d
            mean_d2 += p * d * d
            mean_n += p * total
        variances.append((mean_d2 - mean_d**2) / 4.0)
        if phi == 0.0:
            n_plus_meas = mean_n
    return variances[0], variances[1], n_plus_meas


# ---------------------------------------------------------------------------
# The per-splitter W chain: the checked-once chain must equal it bit for bit.
# ---------------------------------------------------------------------------


def chain_amplitudes(angles):
    """The W chain's amplitudes in mode order, each splitter built and
    checked for unitarity as its own numpy 2x2."""
    v = [1.0 + 0.0j] + [0j] * (angles.num_modes - 1)
    for j, theta in enumerate(angles.thetas):
        u = fock._check_two_mode_unitary(splitter(theta))
        a, b = v[j], v[j + 1]
        v[j] = u[0, 0] * a + u[0, 1] * b
        v[j + 1] = u[1, 0] * a + u[1, 1] * b
    return [a * np.exp(-1j * phi) for a, phi in zip(v, angles.phis)]


# ---------------------------------------------------------------------------
# The CLI table writer as it was when each command built its list of row
# dicts: the writer that reads the rows once must give the same bytes.
# ---------------------------------------------------------------------------


def emit(args, out, header, rows):
    """cli._emit with the rows gathered into a list first, and the JSON
    rows normalized into a second list."""
    rows = list(rows)
    if args.format == "json":
        config = {"command": args.command, "format": args.format, "seed": args.seed}
        for key, value in sorted(vars(args).items()):
            if key in ("command", "format", "seed", "output", "json", "jobs", "func"):
                continue
            config[key] = value
        config["jobs"] = args.jobs
        payload = {
            "schema_version": cli.SCHEMA_VERSION,
            "config": config,
            "rows": [{key: row.get(key) for key in header} for row in rows],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(["schema_version"] + header)
        for row in rows:
            writer.writerow([cli.SCHEMA_VERSION] + [cli._cell(row.get(key)) for key in header])
