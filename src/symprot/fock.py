"""Fixed-photon-number Fock bases and second-quantized lifts.

The N-photon basis over M modes is the set of occupation vectors summing to
N, listed in lexicographically decreasing order; the order is part of the
serialization contract (see schemas/fock_state.schema.json). Lifting a
single-particle matrix S maps each basis state to a product of creation
operators,

    lift(S) |n> = prod_j (A_j^dag)^{n_j} |0> / sqrt(n_j!),   A_j^dag = sum_i S_ij a_i^dag,

built one photon at a time: the column of |n> is A_j^dag applied to the
column of |n - e_j>, divided by sqrt(n_j), where j is the first occupied
mode of n (the SLOS recursion of Heurtel et al., arXiv:2206.10549). Each of
the N levels costs M products of dim x dim arrays, O(N * M * dim^2) in all.
A (k, M, M) stack of matrices runs the same recursion over a leading batch
axis, so k small lifts cost a few NumPy calls per level rather than k times
as many. A stack is lifted in one recursion, so its working memory grows
with k; callers that apply many matrices to a state bound it by lifting
their stack a group at a time (``protect._scalar_action``). The permanent
formula

    <n'| lift(S) |n> = Per(S[n', n]) / sqrt(prod_i n_i! * prod_j n'_j!)

(S[n', n] repeats column j of S n_j times and row i n'_i times) is kept as
``permanent_ryser`` and ``permanent_naive``, the independent oracles the
tests check the lift against.

Bases are shared: ``enumerate_basis`` returns one ``FockBasis`` per
(space, N), kept in a cache of the ``_CACHED_BASES`` most recently used.
Every table that depends on the basis alone is built once, on first use,
and owned by it: the lift's ladder, the index of each occupation, the
m_tot of each state, the sector split and the mirror permutation. These
arrays are read-only, since every caller holding the basis sees them.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .modes import ModeSpace

__all__ = [
    "DEFAULT_N_MAX",
    "max_photons",
    "FockBasis",
    "FockState",
    "LiftedOperator",
    "enumerate_basis",
    "sector_split",
    "state_from_amplitudes",
    "permanent_ryser",
    "permanent_naive",
    "lift",
    "lift_generator",
    "lift_jz",
    "lift_mirror",
    "postselect_projector",
]

DEFAULT_N_MAX = 10
_N_MAX_ENV = "SYMPROT_NMAX"
# distinct (space, N) bases kept by enumerate_basis, with their tables
_CACHED_BASES = 32


def max_photons() -> int:
    """Photon-number cap for basis enumeration; SYMPROT_NMAX overrides."""
    raw = os.environ.get(_N_MAX_ENV)
    if raw is None:
        return DEFAULT_N_MAX
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_N_MAX_ENV} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{_N_MAX_ENV} must be non-negative, got {value}")
    return value


def _occupations(modes: int, total: int):
    """Occupation vectors of `total` photons in `modes` modes, lexicographically decreasing."""
    if modes == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _occupations(modes - 1, total - first):
            yield (first,) + rest


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Ordered N-photon occupation basis over a mode space."""

    space: ModeSpace
    n_photons: int
    states: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockBasis)
            and self.space == other.space
            and self.n_photons == other.n_photons
        )

    def __hash__(self) -> int:
        return hash((self.space, self.n_photons))

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {occ: i for i, occ in enumerate(self.states)}

    def index(self, occupation) -> int:
        """Position of an occupation vector in the basis order."""
        occ = tuple(int(k) for k in occupation)
        try:
            return self._index[occ]
        except KeyError:
            raise ValueError(f"{occ} is not a {self.n_photons}-photon occupation of this space") from None

    @cached_property
    def m_totals(self) -> np.ndarray:
        """Total angular momentum sum_i n_i m_i per basis state (integers)."""
        ms = np.array([lab.m for lab in self.space.labels])
        return _frozen(np.array([int(np.dot(occ, ms)) for occ in self.states]))

    @cached_property
    def _sectors(self) -> dict[int, np.ndarray]:
        """Basis indices grouped by m_tot, descending in m_tot."""
        values = np.unique(self.m_totals)[::-1]
        return {int(m): _frozen(np.flatnonzero(self.m_totals == m)) for m in values}

    @cached_property
    def _mirror(self) -> np.ndarray:
        """``_mirror[i]`` is the index of the mirror image of basis state i."""
        # the image occupation puts n_j on mode perm[j]
        inverse = np.argsort(self.space.mirror_permutation)
        images = np.array(self.states, dtype=np.intp)[:, inverse]
        return _frozen(np.array([self._index[tuple(occ)] for occ in images.tolist()], dtype=np.intp))

    @cached_property
    def _ladder(self) -> tuple[tuple, ...]:
        """Creation-operator tables for the lift, one level per photon number k = 1..N.

        A level is ``(parent, scale, first, modes)`` over the k-photon states
        n: ``first[n]`` is the first occupied mode j of n, ``parent[n]`` the
        index of n - e_j among the (k-1)-photon states and ``scale[n] =
        sqrt(n_j)``. ``modes[i]`` is ``(occupied, lower, root)``: the states
        with n_i > 0, the index of n - e_i for each, and sqrt(n_i) as a
        column.
        """
        m = len(self.space)
        below = {(0,) * m: 0}
        levels = []
        for k in range(1, self.n_photons + 1):
            states = self.states if k == self.n_photons else tuple(_occupations(m, k))
            occ = np.array(states, dtype=np.intp)
            lower = np.zeros_like(occ)
            for row, state in enumerate(states):
                for i, count in enumerate(state):
                    if count:
                        lower[row, i] = below[state[:i] + (count - 1,) + state[i + 1 :]]
            root = np.sqrt(occ)
            first = np.argmax(occ > 0, axis=1)
            rows = np.arange(len(states))
            modes = []
            for i in range(m):
                occupied = np.flatnonzero(occ[:, i])
                modes.append(tuple(map(_frozen, (occupied, lower[occupied, i], root[occupied, i, None]))))
            levels.append((_frozen(lower[rows, first]), _frozen(root[rows, first]), _frozen(first), tuple(modes)))
            below = {state: row for row, state in enumerate(states)}
        return tuple(levels)

    def ket(self, i: int) -> str:
        """Render basis state i in ket notation, e.g. ``|1,0,0,1>``."""
        return "|" + ",".join(str(k) for k in self.states[i]) + ">"


def enumerate_basis(space: ModeSpace, n_photons: int) -> FockBasis:
    """The N-photon basis of a mode space in the canonical order.

    Equal (space, N) give the same shared FockBasis while it stays among
    the ``_CACHED_BASES`` most recently used; the photon cap is checked on
    every call. N is stored as a Python int, whatever integer type the
    call that built the basis passed.
    """
    n_photons = operator.index(n_photons)
    cap = max_photons()
    if not 0 <= n_photons <= cap:
        raise ValueError(f"n_photons must lie in [0, {cap}], got {n_photons}")
    return _shared_basis(space, n_photons)


@lru_cache(maxsize=_CACHED_BASES)
def _shared_basis(space: ModeSpace, n_photons: int) -> FockBasis:
    states = tuple(_occupations(len(space), n_photons))
    return FockBasis(space=space, n_photons=n_photons, states=states)


def sector_split(basis: FockBasis) -> dict[int, list[int]]:
    """Basis indices grouped by total angular momentum, descending in m_tot.

    A fresh dict of fresh lists, so callers may change it freely.
    """
    return {m: idx.tolist() for m, idx in basis._sectors.items()}


@dataclass
class FockState:
    """Amplitude vector over a Fock basis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (len(self.basis),):
            raise ValueError(
                f"amplitudes must have shape ({len(self.basis)},), got {amp.shape}"
            )
        self.amplitudes = amp

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm - 1.0) <= tol

    def normalized(self) -> "FockState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return FockState(self.basis, self.amplitudes / n)

    def overlap(self, other: "FockState") -> complex:
        """Inner product <self|other> (conjugate-linear in self)."""
        if self.basis != other.basis:
            raise ValueError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def phase_fixed(self, threshold: float = 1e-10) -> "FockState":
        """Rotate the global phase so the first significant amplitude is real positive."""
        idx = np.flatnonzero(np.abs(self.amplitudes) > threshold)
        if idx.size == 0:
            return FockState(self.basis, self.amplitudes.copy())
        lead = self.amplitudes[idx[0]]
        return FockState(self.basis, self.amplitudes * (abs(lead) / lead))


def state_from_amplitudes(basis: FockBasis, mapping) -> FockState:
    """Build a state from an {occupation: amplitude} mapping (unlisted entries are 0)."""
    amp = np.zeros(len(basis), dtype=complex)
    for occ, value in mapping.items():
        amp[basis.index(occ)] = value
    return FockState(basis, amp)


def permanent_ryser(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix via Ryser's formula with Gray-code updates.

    O(2^n * n); subset terms are accumulated in Gray-code order, which is the
    reference summation order for reproducibility.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    popcount = 0
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        if gray & bit:
            row_sums -= a[:, j]
            popcount -= 1
        else:
            row_sums += a[:, j]
            popcount += 1
        gray ^= bit
        term = complex(np.prod(row_sums))
        total += term if (n - popcount) % 2 == 0 else -term
    return total


def permanent_naive(matrix: np.ndarray) -> complex:
    """Permanent by the Leibniz sum over permutations; oracle for small n."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    rows = range(n)
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i in rows:
            prod *= a[i, perm[i]]
        total += prod
    return total


@dataclass(frozen=True)
class LiftedOperator:
    """A single-particle matrix lifted to an N-photon basis: a (dim, dim)
    matrix, or a (k, dim, dim) stack when a stack was lifted."""

    basis: FockBasis
    matrix: np.ndarray

    def apply(self, state: FockState) -> FockState:
        if state.basis != self.basis:
            raise ValueError("state and operator bases differ")
        return FockState(self.basis, self.matrix @ state.amplitudes)


def lift(matrix: np.ndarray, basis: FockBasis) -> LiftedOperator:
    """Second-quantize a single-particle matrix on the given N-photon basis.

    Works for arbitrary complex M x M matrices (no symmetry or unitarity
    assumed); lift(A @ B) = lift(A) @ lift(B) and lift(I) = I. A (k, M, M)
    stack lifts to the (k, dim, dim) stack of its lifts, computed by the
    same recursion over a leading batch axis.
    """
    a = np.asarray(matrix, dtype=complex)
    m = len(basis.space)
    if a.ndim not in (2, 3) or a.shape[-2:] != (m, m):
        raise ValueError(f"matrix must be {m}x{m} (or a stack of them) for this space, got {a.shape}")
    out = _lift_group(a.reshape(-1, m, m), basis)
    return LiftedOperator(basis, out.reshape(a.shape[:-2] + out.shape[1:]))


def _lift_group(a: np.ndarray, basis: FockBasis) -> np.ndarray:
    """The SLOS recursion on a (g, M, M) stack."""
    cols = np.ones((len(a), 1, 1), dtype=complex)
    for parent, scale, first, modes in basis._ladder:
        # column of n - e_j divided by sqrt(n_j), j the first occupied mode of n
        parents = cols[:, :, parent] / scale
        cols = np.zeros((len(a), len(first), len(first)), dtype=complex)
        for i, (occupied, lower, root) in enumerate(modes):
            # <n'| S_ij a_i^dag |v> = S_ij sqrt(n'_i) v[n' - e_i], over the n' with n'_i > 0
            term = parents[:, lower]
            term *= root * a[:, None, i, first]
            cols[:, occupied] += term
    return cols


def lift_generator(matrix: np.ndarray, basis: FockBasis) -> LiftedOperator:
    """Lift of a single-particle generator: dGamma(E) = sum_ij E_ij a_i^dag a_j.

    The derivative of ``lift`` at the identity, so lift(expm(E)) =
    expm(lift_generator(E)). Each nonzero E_ij fills at most one entry per
    column, so past the dense output the cost is O(nnz(E) * dim).
    """
    a = np.asarray(matrix, dtype=complex)
    m = len(basis.space)
    if a.shape != (m, m):
        raise ValueError(f"matrix must be {m}x{m} for this space, got {a.shape}")
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    if basis.n_photons:
        modes = basis._ladder[-1][3]
        occ = np.array(basis.states)
        # upper[p, i] is the index of p + e_i, for p an (N-1)-photon state;
        # there are no more of those than N-photon states
        upper = np.zeros((len(basis), m), dtype=np.intp)
        for i, (occupied, lower, _) in enumerate(modes):
            upper[lower, i] = occupied
        for i, j in zip(*np.nonzero(a)):
            # a_i^dag a_j |n> = sqrt(n'_i n_j) |n'> with n' = n - e_j + e_i
            cols, lower, _ = modes[j]
            image = upper[lower, i]
            out[image, cols] += a[i, j] * np.sqrt(occ[image, i] * occ[cols, j])
    return LiftedOperator(basis, out)


def lift_jz(basis: FockBasis) -> LiftedOperator:
    """Lift of the rotation generator: diagonal of total angular momenta."""
    return LiftedOperator(basis, np.diag(basis.m_totals.astype(complex)))


def lift_mirror(basis: FockBasis) -> LiftedOperator:
    """Lift of the mirror: the exact 0/1 permutation of occupation vectors."""
    dim = len(basis)
    out = np.zeros((dim, dim), dtype=complex)
    out[basis._mirror, np.arange(dim)] = 1.0
    return LiftedOperator(basis, out)


def postselect_projector(basis: FockBasis, keep, n_photons: int | None = None) -> LiftedOperator:
    """Diagonal projector onto occupation vectors with ``n_photons`` in ``keep``.

    With the default n_photons = basis.n_photons this keeps exactly the states
    fully supported on the kept modes.
    """
    keep_set = {int(i) for i in keep}
    if not keep_set and basis.n_photons > 0:
        raise ValueError("empty mode set cannot hold photons")
    if not all(0 <= i < len(basis.space) for i in keep_set):
        raise ValueError(f"mode indices must lie in [0, {len(basis.space)})")
    if n_photons is None:
        n_photons = basis.n_photons
    diag = np.array(
        [1.0 if sum(occ[i] for i in keep_set) == n_photons else 0.0 for occ in basis.states],
        dtype=complex,
    )
    return LiftedOperator(basis, np.diag(diag))
