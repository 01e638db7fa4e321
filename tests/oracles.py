"""Reference routes shared by several test modules."""

import numpy as np

from wsim import fock, teleport
from wsim.circuits import bell_splitter, splitter


def pad(space, matrix, target):
    """Embed an operator into a space over the same modes with larger
    cutoffs; the entries of the added occupations are zero."""
    rows = [target.index[occ] for occ in space.basis]
    out = np.zeros((target.dim, target.dim), dtype=complex)
    out[np.ix_(rows, rows)] = matrix
    return out


# ---------------------------------------------------------------------------
# The per-row moments route of the teleport pipeline, and the per-splitter
# W chain: the block route and the checked-once chain must equal these bit
# for bit.
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
