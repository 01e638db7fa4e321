"""Truncated multimode Fock space: states, operators, and exact linear-optics actions.

Conventions fixed here and used everywhere else in the package:

* Basis enumeration is graded lexicographic: ascending total photon number,
  then ascending lexicographic order on occupation tuples.
* A 2x2 mode-mixing matrix ``u`` acts on annihilation operators as
  ``(a_i', a_j')^T = u (a_i, a_j)^T``.  Single-photon amplitude vectors then
  transform by ``u`` itself, and creation operators by
  ``a_k^dag -> sum_l u[l, k] a_l^dag``.
* A phase shift ``phi`` at one mode maps ``a -> exp(-i phi) a``, i.e. the
  number state ``|n>`` picks up ``exp(-i phi n)``.

Operators are plain complex numpy matrices indexed by the canonical basis;
``number_matrix``, ``jx_matrix`` etc. build the ones needed elsewhere.  A
PureState's amplitude vector and a density's matrix take the same plan
route through each splitter and phase shifter.  Truncation is by total
photon number; overflow raises instead of silently dropping amplitude.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .config import TOL

Occupation = tuple[int, ...]


def _integer(name: str, value) -> int:
    """``value`` as a Python int: Python and numpy integers pass, bools,
    floats, strings and everything else raise ValueError naming ``name``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _positive_count(name: str, value) -> int:
    """``value`` as a Python int of at least 1, checked by ``_integer``."""
    if (count := _integer(name, value)) < 1:
        raise ValueError(f"{name} {count} must be at least 1")
    return count


@lru_cache(maxsize=256)
def _basis_tables(
    num_modes: int, total_cutoff: int, mode_cutoff: int
) -> tuple[tuple[Occupation, ...], dict[Occupation, int]]:
    """Basis and index of a space, enumerated once per process and shared
    by every equal FockSpace.  The n-photon occupations count the labels
    of each multiset of n mode labels; itertools lists those multisets in
    the reverse of the lexicographic order of their occupations."""
    basis: list[Occupation] = []
    for n in range(total_cutoff + 1):
        for labels in reversed(list(combinations_with_replacement(range(num_modes), n))):
            occ = [0] * num_modes
            for mode in labels:
                occ[mode] += 1
            if n <= mode_cutoff or max(occ) <= mode_cutoff:
                basis.append(tuple(occ))
    return tuple(basis), {occ: i for i, occ in enumerate(basis)}


@dataclass(frozen=True)
class FockSpace:
    """Truncated Fock space over ``num_modes`` optical modes.

    Truncation is by total photon number (``total_cutoff``) and per-mode
    occupation (``mode_cutoff``, defaulting to the total cutoff).  The
    default cutoff of 2 holds every state where the sender's qubit meets
    the network: one photon from the W state plus at most one more.  A W
    state as a PureState lives in ``FockSpace(n, 1)`` of dimension n + 1;
    the pairs reduced from it live in ``FockSpace(2)``, where the qubit
    joins.

    ``num_modes = 0`` is the degenerate space left after measuring every
    mode; its only basis element is the empty tuple.  Equal spaces share
    one enumeration of their basis and index.  Each size must be a
    non-negative integer (numpy integers become Python ints); anything
    else raises ValueError naming it.
    """

    num_modes: int
    total_cutoff: int = 2
    mode_cutoff: int | None = None

    def __post_init__(self) -> None:
        if self.mode_cutoff is None:
            object.__setattr__(self, "mode_cutoff", self.total_cutoff)
        for name in ("num_modes", "total_cutoff", "mode_cutoff"):
            if (value := _integer(name, getattr(self, name))) < 0:
                raise ValueError(f"{name} must be non-negative")
            object.__setattr__(self, name, value)

    @cached_property
    def basis(self) -> tuple[Occupation, ...]:
        return _basis_tables(self.num_modes, self.total_cutoff, self.mode_cutoff)[0]

    @cached_property
    def index(self) -> dict[Occupation, int]:
        return _basis_tables(self.num_modes, self.total_cutoff, self.mode_cutoff)[1]

    @property
    def dim(self) -> int:
        return len(self.basis)


def canonical_basis(
    num_modes: int, total_cutoff: int = 2, mode_cutoff: int | None = None
) -> list[Occupation]:
    """Ordered occupation tuples for the truncated space.

    The ordering is graded lexicographic (ascending total photon number,
    then lexicographic on counts), deterministic, and stable across runs.
    """
    if _integer("num_modes", num_modes) < 1:
        raise ValueError("num_modes must be at least 1")
    return list(FockSpace(num_modes, total_cutoff, mode_cutoff).basis)


@dataclass(frozen=True)
class PureState:
    """Sparse pure state: occupation tuple -> complex amplitude.

    The squared norm must equal 1 within tolerance unless the state is
    explicitly flagged as a post-selected (sub-unit norm) branch.
    """

    space: FockSpace
    amplitudes: dict[Occupation, complex]
    post_selected: bool = False

    def __post_init__(self) -> None:
        basis, index = self.space.basis, self.space.index
        clean: dict[int, complex] = {}
        for occ, amp in self.amplitudes.items():
            # a basis tuple is found without converting its N entries
            i = index.get(occ)
            if i is None:
                counts = tuple(int(n) for n in occ)
                # int() truncates, so a fractional count must not reach the index
                if any(k != n for k, n in zip(counts, occ)):
                    raise ValueError(f"occupation {tuple(occ)} has a non-integer entry")
                i = index.get(counts)
                if i is None:
                    raise ValueError(f"occupation {counts} outside the truncated space")
            a = complex(amp)
            if a != 0:
                clean[i] = clean.get(i, 0.0) + a
        object.__setattr__(self, "amplitudes", {basis[i]: a for i, a in clean.items()})
        _check_norm_sq(self.norm_sq, self.post_selected)

    @property
    def num_modes(self) -> int:
        return self.space.num_modes

    @cached_property
    def norm_sq(self) -> float:
        return _norm_sq(self.amplitudes.values())

    def to_vector(self) -> np.ndarray:
        v = np.zeros(self.space.dim, dtype=complex)
        for occ, amp in self.amplitudes.items():
            v[self.space.index[occ]] = amp
        return v

    def to_density(self) -> "DensityOperator":
        v = self.to_vector()
        return DensityOperator(
            self.space, np.outer(v, v.conj()), normalized=abs(self.norm_sq - 1.0) <= TOL.norm
        )


def _norm_sq(amplitudes) -> float:
    """The squared norm of an iterable of amplitudes: the sum of |a|^2,
    correctly rounded (math.fsum), or inf once a square or the sum
    overflows.  For two amplitudes it equals |a|^2 + |b|^2 in float
    arithmetic, which also rounds the exact sum once."""
    try:
        return math.fsum(abs(a) ** 2 for a in amplitudes)
    except OverflowError:
        return math.inf


def _check_norm_sq(n2: float, post_selected: bool) -> None:
    """PureState's norm check on a squared norm n2."""
    if not 0.0 < n2 <= 1.0 + TOL.norm:
        raise ValueError(f"squared norm {n2} outside (0, 1]")
    if not post_selected and not abs(n2 - 1.0) <= TOL.norm:
        raise ValueError("sub-unit norm requires the post_selected flag")


def fock_state(space: FockSpace, occ) -> PureState:
    """The number state |occ> as a PureState."""
    return PureState(space, {tuple(occ): 1.0 + 0.0j})


def vacuum_state(space: FockSpace) -> PureState:
    return fock_state(space, (0,) * space.num_modes)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD operator on a truncated Fock space, possibly unnormalized.

    Post-selected branches carry their event probability as the trace;
    ``normalized=True`` additionally asserts unit trace.  The matrix is
    validated on construction and frozen (read-only) afterwards.
    """

    space: FockSpace
    matrix: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        dim = self.space.dim
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {dim}")
        _check_density_stack(m[None], self.normalized)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def num_modes(self) -> int:
        return self.space.num_modes

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def normalized_copy(self) -> "DensityOperator":
        tr = self.trace()
        if tr <= 0.0:
            raise ValueError("cannot normalize a zero-trace operator")
        return DensityOperator(self.space, self.matrix / tr, normalized=True)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _check_density_stack(matrices: np.ndarray, normalized=False) -> None:
    """The checks of DensityOperator on every matrix of a (..., dim, dim)
    stack: finite, Hermitian, PSD and trace in [0, 1] (exactly 1 when
    ``normalized``), each within its tolerance.  ``normalized`` is one
    flag for the whole stack or an array of flags over its leading axes,
    one per matrix.  The first failing check raises ValueError with the
    message DensityOperator gives for it."""
    if not np.isfinite(matrices).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(matrices - matrices.conj().swapaxes(-1, -2)).max() > TOL.hermiticity:
        raise ValueError("matrix is not Hermitian within tolerance")
    if matrices.shape[-1] > 0 and np.linalg.eigvalsh(matrices).min() < -TOL.positivity:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    traces = matrices.trace(axis1=-2, axis2=-1).real
    flags = np.broadcast_to(normalized, traces.shape)
    for tr, flag in zip(traces.ravel().tolist(), flags.ravel().tolist()):
        if not -TOL.trace <= tr <= 1.0 + TOL.trace:
            raise ValueError(f"trace {tr} outside [0, 1]")
        if flag and abs(tr - 1.0) > TOL.trace:
            raise ValueError("normalized flag set but trace != 1")


@lru_cache(maxsize=256)
def _photon_numbers(space: FockSpace) -> np.ndarray:
    """Total photon number of each basis state, as floats."""
    (numbers,) = _frozen(np.array([sum(occ) for occ in space.basis], dtype=float))
    return numbers


def _occupied_sectors(space: FockSpace, matrix: np.ndarray) -> np.ndarray:
    """Largest total photon number carried with non-negligible weight, for
    each matrix of a (..., dim, dim) stack.

    PSD operators have their support visible on the diagonal, so sectors
    whose diagonal entries all vanish contribute nothing.
    """
    support = np.diagonal(matrix, axis1=-2, axis2=-1).real > TOL.support
    return np.where(support, _photon_numbers(space), 0.0).max(axis=-1)


# ---------------------------------------------------------------------------
# Raw-matrix engine.  The public operations below wrap these with validated
# DensityOperator construction; internal hot paths (which may push non-PSD
# operator-basis elements through the same circuits) use them directly, and
# validate only the object they return.
#
# Each raw operation is split into a plan and an apply step.  The plan holds
# the index arrays of the operation, depends only on the spaces and modes
# involved, and is built once per process by the same loop over the basis
# that a direct implementation would run; plans live in bounded lru_caches
# and are read-only.  The apply step is one vectorized scatter (unitary: into
# the embedded matrix, or onto a pure state's amplitude vector), one flat
# np.add.at (partial trace, whose optional weights are detector
# conditioning) or one fancy-index += (tensor), with every entry added in
# the loop's order, so the results are bit-identical to the loops.
#
# Every apply step also takes a stack: leading axes of the matrix (of the
# first operand, for the tensor product) are carried through, and each slice
# comes out bit-identical to the same operation on that slice alone.  A hot
# path that runs many inputs through one circuit, such as teleport's
# quadrature nodes, pays the fixed costs once per stack; it validates what
# it returns with _check_density_stack, the validator DensityOperator itself
# runs, so every slice gets the checks, tolerances and messages of a
# DensityOperator.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _tensor_plan(space_a: FockSpace, space_b: FockSpace):
    """Combined space and (row, col, ia, ja, ib, jb) of every product entry
    a[ia, ja] * b[ib, jb] that lands inside it.  Each (row, col) occurs once."""
    space = FockSpace(
        space_a.num_modes + space_b.num_modes,
        max(space_a.total_cutoff, space_b.total_cutoff),
        max(space_a.mode_cutoff, space_b.mode_cutoff),
    )
    index = space.index
    entries = []
    for ia, ta in enumerate(space_a.basis):
        for ib, tb in enumerate(space_b.basis):
            row = index.get(ta + tb)
            if row is None:
                continue
            for ja, ua in enumerate(space_a.basis):
                for jb, ub in enumerate(space_b.basis):
                    col = index.get(ua + ub)
                    if col is not None:
                        entries.append((row, col, ia, ja, ib, jb))
    return space, _frozen(*np.array(entries, dtype=np.intp).reshape(-1, 6).T.copy())


def _tensor_raw(
    space_a: FockSpace, a: np.ndarray, space_b: FockSpace, b: np.ndarray
) -> tuple[FockSpace, np.ndarray]:
    """Tensor product; leading axes of ``a`` and ``b`` are stacks that
    broadcast against each other, each slice taken alone."""
    space, (rows, cols, ia, ja, ib, jb) = _tensor_plan(space_a, space_b)
    x, y = a[..., ia, ja], b[..., ib, jb]
    # the product in separately rounded real arithmetic, as numpy's complex
    # scalars compute it; the vectorized complex multiply may fuse and round
    # differently
    prod = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    prod.real = x.real * y.real - x.imag * y.imag
    prod.imag = x.real * y.imag + x.imag * y.real
    out = np.zeros(prod.shape[:-1] + (space.dim, space.dim), dtype=complex)
    out[..., rows, cols] += prod
    return space, out


def _tensor_checked(
    space_a: FockSpace, a: np.ndarray, space_b: FockSpace, b: np.ndarray
) -> tuple[FockSpace, np.ndarray]:
    """_tensor_raw after tensor's photon-cutoff check, which runs on every
    slice of the stacks ``a`` and ``b``."""
    cutoff = max(space_a.total_cutoff, space_b.total_cutoff)
    if np.any(_occupied_sectors(space_a, a) + _occupied_sectors(space_b, b) > cutoff):
        raise ValueError("tensor product exceeds the total-photon cutoff")
    return _tensor_raw(space_a, a, space_b, b)


@lru_cache(maxsize=256)
def _ptrace_plan(space: FockSpace, keep: tuple[int, ...]):
    """Reduced space and (i, j, i*dim + j, ki*out_dim + kj) of every term
    out[ki, kj] += m[i, j], grouped by the traced modes' occupation in order
    of first appearance."""
    traced = tuple(m for m in range(space.num_modes) if m not in keep)
    out_space = FockSpace(len(keep), space.total_cutoff, space.mode_cutoff)
    groups: dict[Occupation, list[tuple[int, int]]] = {}
    for i, occ in enumerate(space.basis):
        kept = tuple(occ[m] for m in keep)
        rest = tuple(occ[m] for m in traced)
        groups.setdefault(rest, []).append((i, out_space.index[kept]))
    terms = [
        (i, j, ki, kj) for members in groups.values() for i, ki in members for j, kj in members
    ]
    i, j, ki, kj = np.array(terms, dtype=np.intp).reshape(-1, 4).T.copy()
    return out_space, _frozen(i, j, i * space.dim + j, ki * out_space.dim + kj)


def _ptrace_raw(
    space: FockSpace, matrix: np.ndarray, keep: tuple[int, ...], sq: np.ndarray | None = None
) -> tuple[FockSpace, np.ndarray]:
    """Partial trace onto ``keep``; leading axes of ``matrix`` are a stack.

    With ``sq``, the square roots of a diagonal POVM element's weights over
    the basis of ``space``, this is detector conditioning: each term
    m[i, j] is weighted as sq[..., i] * m[i, j] * sq[..., j] before it is
    added, and the leading axes of ``sq`` broadcast against the stack's.
    Every term is added in the plan's order by one add.at on a flat index,
    which numpy runs on its fast path.  The result has the dtype of the
    weighted terms: real for a real matrix and real weights."""
    out_space, (i, j, flat, kept) = _ptrace_plan(space, keep)
    terms = matrix.reshape(matrix.shape[:-2] + (-1,)).take(flat, axis=-1)
    if sq is not None:
        terms = sq[..., i] * terms
        terms *= sq[..., j]
    size = out_space.dim * out_space.dim
    count = terms.size // len(flat)
    out = np.zeros(count * size, dtype=terms.dtype)
    np.add.at(out, (size * np.arange(count)[:, None] + kept).ravel(), terms.ravel())
    return out_space, out.reshape(terms.shape[:-1] + (out_space.dim, out_space.dim))


def _check_two_mode_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("mode-mixing matrix must be 2x2")
    _check_two_mode_unitaries(u)
    return u


def _check_two_mode_unitaries(us: np.ndarray) -> None:
    """The unitarity check of _check_two_mode_unitary on every matrix of a
    complex (..., 2, 2) stack, with its tolerance and message."""
    if not np.max(np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(2))) <= TOL.unitarity:
        raise ValueError("mode-mixing matrix is not unitary within tolerance")


@lru_cache(maxsize=16)
def _two_mode_table_plan(max_photons: int) -> tuple:
    """The u-independent factors of _two_mode_table: for each sector n and
    input k, the binomials comb(k, p) and comb(n - k, q) of the expansion
    with their exponents, the input norm sqrt(k! (n-k)!) and the output
    norms sqrt(p! (n-p)!)."""
    plan = []
    for n in range(max_photons + 1):
        norms = tuple(math.sqrt(math.factorial(p) * math.factorial(n - p)) for p in range(n + 1))
        for k in range(n + 1):
            first = tuple((p, math.comb(k, p)) for p in range(k + 1))
            second = tuple((q, math.comb(n - k, q)) for q in range(n - k + 1))
            plan.append((n, k, first, second, norms[k], norms))
    return tuple(plan)


def _two_mode_table(u: np.ndarray, max_photons: int) -> np.ndarray:
    """Number-conserving blocks of the two-mode Fock unitary induced by u,
    packed as table[n, p, k].

    Block n maps the (n+1)-dimensional sector spanned by |k, n-k>, indexed
    by k = photons in the first mode.  Built by expanding the transformed
    creation-operator polynomial (a_1^dag)^k (a_2^dag)^(n-k); each power of
    an entry of u is computed once per call.
    """
    table = np.zeros((max_photons + 1,) * 3, dtype=complex)
    u00, u01, u10, u11 = (
        [u[a, b] ** j for j in range(max_photons + 1)] for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    zero = np.complex128(0.0)
    for n, k, first, second, norm_in, norms_out in _two_mode_table_plan(max_photons):
        poly = [zero] * (n + 1)  # poly[p]: coeff of x^p y^(n-p), complex128 scalars
        c2s = [(q, c * u01[q] * u11[n - k - q]) for q, c in second]
        for p, c in first:
            c1 = c * u00[p] * u10[k - p]
            for q, c2 in c2s:
                poly[p + q] += c1 * c2
        table[n, : n + 1, k] = [coeff * norm / norm_in for coeff, norm in zip(poly, norms_out)]
    return table


def _real_two_mode_tables(us, max_photons: int) -> np.ndarray:
    """_two_mode_table of each matrix in a real (T, 2, 2) float64 stack, as
    a (T, M+1, M+1, M+1) stack whose slice t is bit for bit the table of
    us[t] alone.

    The plan, products and sums are those of _two_mode_table, in the same
    order, computed elementwise over the stack.  For a real u every term
    is real, and the table's complex scaling coeff * norm / norm_in rounds
    as (coeff * norm) * (1 / norm_in), numpy's complex division by a real.
    Powers are taken per entry with Python's ** (libm pow, as numpy's
    scalar power is); numpy's array square rounds differently.  Anything
    but a real stack raises ValueError: numpy's vectorized complex
    multiply does not round like its scalar product, so complex unitaries
    stay on _two_mode_table.
    """
    us = np.asarray(us)
    if us.dtype != np.float64 or us.ndim != 3 or us.shape[1:] != (2, 2):
        raise ValueError("expected a real float64 (T, 2, 2) stack of mode-mixing matrices")
    size = max_photons + 1
    u00, u01, u10, u11 = (
        [np.array([x**j for x in us[:, a, b].tolist()]) for j in range(size)]
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    tables = np.zeros((len(us), size, size, size), dtype=complex)
    for n, k, first, second, norm_in, norms_out in _two_mode_table_plan(max_photons):
        poly = [0.0] * (n + 1)  # poly[p]: coeff of x^p y^(n-p), one entry per matrix
        c2s = [(q, c * u01[q] * u11[n - k - q]) for q, c in second]
        for p, c in first:
            c1 = c * u00[p] * u10[k - p]
            for q, c2 in c2s:
                poly[p + q] = poly[p + q] + c1 * c2
        scale = 1.0 / norm_in
        for p, (coeff, norm) in enumerate(zip(poly, norms_out)):
            tables.real[:, n, p, k] = coeff * norm * scale
    return tables


@lru_cache(maxsize=256)
def _unitary_plan(space: FockSpace, modes: tuple[int, int]):
    """Where each table entry [n, p, k] of a unitary on ``modes`` lands:
    (rows, cols) and its (n, p, k) for targets inside the space, and the
    (cols, n, p, k) of targets that a per-mode cutoff tighter than the
    total cutoff leaves out."""
    i, j = modes
    index = space.index
    present, missing = [], []
    for col, occ in enumerate(space.basis):
        n, k = occ[i] + occ[j], occ[i]
        for p in range(n + 1):
            target = list(occ)
            target[i] = p
            target[j] = n - p
            row = index.get(tuple(target))
            if row is None:
                missing.append((col, n, p, k))
            else:
                present.append((row, col, n, p, k))
    present = _frozen(*np.array(present, dtype=np.intp).reshape(-1, 5).T.copy())
    missing = _frozen(*np.array(missing, dtype=np.intp).reshape(-1, 4).T.copy())
    return present, missing


def _unitary_entries(
    space: FockSpace, modes: tuple[int, int], u: np.ndarray, carried: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the table entries of a unitary on ``modes``
    that stay inside the space.  An entry leaving it, times ``carried`` at
    its column, raises if not negligible: ones for a matrix, the amplitudes
    for a vector, so a pure state overflows only by what it carries."""
    return _table_entries(space, modes, _two_mode_table(u, _table_photons(space)), carried)


def _table_photons(space: FockSpace) -> int:
    """The largest photon number two modes of the space can hold."""
    return min(space.total_cutoff, 2 * space.mode_cutoff)


def _table_entries(
    space: FockSpace, modes: tuple[int, int], table: np.ndarray, carried: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_unitary_entries from a built table; leading axes of ``table`` are a
    stack, and its values come out with the same leading axes."""
    (rows, cols, n, p, k), (m_cols, mn, mp, mk) = _unitary_plan(space, modes)
    if np.any(np.abs(table[..., mn, mp, mk] * carried[m_cols]) > TOL.support):
        raise ValueError("per-mode cutoff overflow in two-mode unitary")
    return rows, cols, table[..., n, p, k]


def _embedded_unitary(space: FockSpace, modes: tuple[int, int], u: np.ndarray) -> np.ndarray:
    """Full-space matrix of a two-mode unitary acting on the given mode pair."""
    rows, cols, values = _unitary_entries(space, tuple(modes), u, np.ones(space.dim))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[rows, cols] = values
    return out


def _embedded_real_unitaries(space: FockSpace, modes: tuple[int, int], us) -> np.ndarray:
    """_embedded_unitary of each matrix in a real (T, 2, 2) float64 stack,
    as a (T, dim, dim) float64 stack built from _real_two_mode_tables;
    slice t is bit for bit the real part of _embedded_unitary(space,
    modes, us[t]), whose imaginary parts are all zero."""
    tables = _real_two_mode_tables(us, _table_photons(space))
    rows, cols, values = _table_entries(space, tuple(modes), tables, np.ones(space.dim))
    out = np.zeros((len(tables), space.dim, space.dim))
    out[:, rows, cols] = values.real
    return out


def _unitary_raw(
    space: FockSpace, matrix: np.ndarray, modes: tuple[int, int], u: np.ndarray
) -> np.ndarray:
    full = _embedded_unitary(space, modes, u)
    return full @ matrix @ full.conj().T


def _unitary_vector_raw(
    space: FockSpace, vector: np.ndarray, modes: tuple[int, int], u: np.ndarray
) -> np.ndarray:
    """The unitary on an amplitude vector: one scatter, no dim x dim matrix."""
    rows, cols, values = _unitary_entries(space, modes, u, vector)
    out = np.zeros(space.dim, dtype=complex)
    np.add.at(out, rows, values * vector[cols])
    return out


@lru_cache(maxsize=256)
def _mode_counts(space: FockSpace, mode: int) -> np.ndarray:
    (counts,) = _frozen(np.array([occ[mode] for occ in space.basis]))
    return counts


def _phase_raw(space: FockSpace, matrix: np.ndarray, mode: int, phi: float) -> np.ndarray:
    d = np.exp(-1j * phi * _mode_counts(space, mode))
    return d[:, None] * matrix * d.conj()[None, :]


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Tensor product; modes of ``a`` come first.

    Raises if the combined photon support would exceed the total cutoff of
    the combined space — overflow is an error, never a silent truncation.
    """
    space, out = _tensor_checked(a.space, a.matrix, b.space, b.matrix)
    return DensityOperator(space, out, normalized=a.normalized and b.normalized)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out all modes not listed in ``keep``.

    ``keep`` is an ordered sequence of distinct mode indices; the result's
    modes appear in that order (sets are sorted first).  Each index must be
    an integer (Python or numpy); ValueError otherwise.
    """
    if isinstance(keep, (set, frozenset)):
        keep = sorted(keep)
    keep = tuple(_integer("mode", m) for m in keep)
    if not keep:
        raise ValueError("keep must name at least one mode")
    if len(set(keep)) != len(keep):
        raise ValueError("keep contains duplicate modes")
    if any(m < 0 or m >= rho.space.num_modes for m in keep):
        raise ValueError("keep indexes a mode outside the space")
    out_space, out = _ptrace_raw(rho.space, rho.matrix, keep)
    return DensityOperator(out_space, out, normalized=rho.normalized)


def _check_modes(space: FockSpace, modes: tuple[int, ...]) -> None:
    if not all(0 <= m < space.num_modes for m in modes):
        raise ValueError("mode index out of range")


def _check_state_modes(state, modes: tuple[int, ...]) -> None:
    if not isinstance(state, (PureState, DensityOperator)):
        raise TypeError("state must be a PureState or DensityOperator")
    _check_modes(state.space, modes)


def _pure_from_vector(state: PureState, vector: np.ndarray) -> PureState:
    return PureState(state.space, dict(zip(state.space.basis, vector.tolist())), state.post_selected)


def apply_two_mode_unitary(state, modes: tuple[int, int], u):
    """Act with a 2x2 mode-mixing unitary on the given pair of modes.

    Works on PureState and DensityOperator alike and preserves norm/trace.
    The convention is fixed in the module docstring: ``u`` maps the pair of
    annihilation operators, so a single photon in mode i acquires amplitude
    u[l, i] on mode l.  Both kinds of state run through the same index plan
    and table: a pure state's amplitude vector by one scatter, a density by
    the embedded matrix.  The modes must be integers (Python or numpy).
    """
    i, j = _integer("mode", modes[0]), _integer("mode", modes[1])
    if i == j:
        raise ValueError("modes must be distinct")
    u = _check_two_mode_unitary(u)
    _check_state_modes(state, (i, j))
    if isinstance(state, PureState):
        out = _unitary_vector_raw(state.space, state.to_vector(), (i, j), u)
        return _pure_from_vector(state, out)
    out = _unitary_raw(state.space, state.matrix, (i, j), u)
    return DensityOperator(state.space, out, normalized=state.normalized)


def apply_phase_shift(state, mode: int, phi: float):
    """Phase shifter at one mode: |n> -> exp(-i phi n)|n>.  The mode must
    be an integer (Python or numpy)."""
    mode = _integer("mode", mode)
    _check_state_modes(state, (mode,))
    if isinstance(state, PureState):
        out = np.exp(-1j * phi * _mode_counts(state.space, mode)) * state.to_vector()
        return _pure_from_vector(state, out)
    out = _phase_raw(state.space, state.matrix, mode, phi)
    return DensityOperator(state.space, out, normalized=state.normalized)


def expectation(rho: DensityOperator, op: np.ndarray) -> complex:
    """tr(rho op); real within tolerance whenever op is Hermitian."""
    op = np.asarray(op, dtype=complex)
    if op.shape != rho.matrix.shape:
        raise ValueError("operator dimension does not match the state")
    return complex(np.einsum("ij,ji->", rho.matrix, op))


def overlap_fidelity(rho: DensityOperator, psi: PureState) -> float:
    """<psi|rho|psi> for a normalized pure target; rho may be unnormalized."""
    if psi.space.dim != rho.space.dim or psi.space.num_modes != rho.space.num_modes:
        raise ValueError("state dimensions do not match")
    if abs(psi.norm_sq - 1.0) > TOL.norm:
        raise ValueError("target state must be normalized")
    v = psi.to_vector()
    val = float(np.real(v.conj() @ rho.matrix @ v))
    if val < -TOL.positivity:
        raise ValueError("negative overlap beyond tolerance")
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# Operator builders (plain matrices in the canonical basis).  The mode of a
# builder must be an integer (Python or numpy) in range; ValueError otherwise.
# ---------------------------------------------------------------------------


def annihilation_matrix(space: FockSpace, mode: int) -> np.ndarray:
    mode = _integer("mode", mode)
    _check_modes(space, (mode,))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for col, occ in enumerate(space.basis):
        n = occ[mode]
        if n == 0:
            continue
        target = list(occ)
        target[mode] = n - 1
        out[space.index[tuple(target)], col] = math.sqrt(n)
    return out


def creation_matrix(space: FockSpace, mode: int) -> np.ndarray:
    return annihilation_matrix(space, mode).conj().T


def number_matrix(space: FockSpace, mode: int) -> np.ndarray:
    mode = _integer("mode", mode)
    _check_modes(space, (mode,))
    return np.diag(np.array([occ[mode] for occ in space.basis], dtype=complex))


def total_number_matrix(space: FockSpace) -> np.ndarray:
    return np.diag(np.array([sum(occ) for occ in space.basis], dtype=complex))


def _require_two_modes(space: FockSpace) -> None:
    if space.num_modes != 2:
        raise ValueError("J operators are defined on a two-mode space")


def jx_matrix(space: FockSpace) -> np.ndarray:
    """J_x = (a^dag b + a b^dag)/2.  Products are ordered annihilator-first
    so the truncated matrices compose exactly inside the cutoff space."""
    _require_two_modes(space)
    ab = creation_matrix(space, 0) @ annihilation_matrix(space, 1)
    return (ab + ab.conj().T) / 2.0


def jy_matrix(space: FockSpace) -> np.ndarray:
    """J_y = (a^dag b - a b^dag)/(2i)."""
    _require_two_modes(space)
    ab = creation_matrix(space, 0) @ annihilation_matrix(space, 1)
    return (ab - ab.conj().T) / 2.0j


def jz_matrix(space: FockSpace) -> np.ndarray:
    """J_z = (a^dag a - b^dag b)/2."""
    _require_two_modes(space)
    return (number_matrix(space, 0) - number_matrix(space, 1)) / 2.0
