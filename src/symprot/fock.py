"""Fixed-photon-number Fock bases and second-quantized lifts.

The N-photon basis over M modes is the set of occupation vectors summing to
N, listed in lexicographically decreasing order; the order is part of the
serialization contract (see schemas/fock_state.schema.json). Lifting a
single-particle matrix S maps each basis state to a product of creation
operators,

    lift(S) |n> = prod_j (A_j^dag)^{n_j} |0> / sqrt(n_j!),   A_j^dag = sum_i S_ij a_i^dag,

built one photon at a time on M >= 4 modes: the column of |n> is A_j^dag
applied to the column of |n - e_j>, divided by sqrt(n_j), where j is the
first occupied mode of n (the SLOS recursion of Heurtel et al.,
arXiv:2206.10549). Each of the N levels costs M products of dim x dim
arrays, O(N * M * dim^2) in all. A (k, M, M) stack of matrices runs the
same recursion over a leading batch axis, so k small lifts cost a few NumPy
calls per level rather than k times as many. On two modes the lift is
Sym^N of the 2x2 matrix, taken in closed form, by one of two algorithms
chosen by the stack:

* a stack whose every block is mirror symmetric, S00 == S11 and S01 == S10
  exactly (every h0 family member [[a, b], [b, a]]), by ``_mirror_power``.
  Such a block is diag(a + b, a - b) on the mirror modes, so its Sym^N is
  sum_j (a + b)^j (a - b)^(N-j) w_j w_j^T over the unit mirror Fock columns
  w_j = |j, N - j>' (``_mirror_fock_column``, exact up to their scaling):
  one matmul of the (g, N + 1) eigenvalues with a projector table cached
  per N. Its rounding does not grow with N as the binomial sums' does.
* any other stack by ``_symmetric_power``: the column of |N - j, j> is
  (S00 x + S10 y)^(N-j) (S01 x + S11 y)^j / sqrt((N-j)! j!) on
  x = a_0^dag, y = a_1^dag, expanded by the binomial theorem over a term
  table cached per N.

The binomial form's C(N + 3, 3) terms would be C(N + M^2 - 1, M^2 - 1) on
M modes, so SLOS stays the M >= 4 algorithm and, run on two modes
(``_lift_group``), the oracle of both closed forms. ``lift`` is the dense
materialisation and the reference; applying family members to states never
forms it. A matrix that is block diagonal over the mode pairs (0, 1),
(2, 3), ... lifts to a direct sum, over the photon counts k_p on the pairs,
of Kronecker products of the symmetric powers Sym^{k_p} of its 2x2 blocks.
``protect._scalar_action`` applies it that way, split by split of
``FockBasis._splits``, one pair at a time.
The permanent formula

    <n'| lift(S) |n> = Per(S[n', n]) / sqrt(prod_i n_i! * prod_j n'_j!)

(S[n', n] repeats column j of S n_j times and row i n'_i times) is kept as
``permanent_ryser`` and ``permanent_naive``, the independent oracles the
tests check the lift against.

Bases are shared: ``enumerate_basis`` returns one ``FockBasis`` per
(space, N), kept in a cache of the ``_CACHED_BASES`` most recently used.
A basis stores its occupations once, as the enumeration's integer array,
and derives every other table from it on first use: the tuples
(``states``), the lift's ladder, the m_tot of each state, the sector
split, the mirror permutation, and the splits by the photon counts on the
mode pairs, which the search visits and the apply works on, reading the
array alone. ``_rank``, one closed form over arrays of occupations, gives
every position of an occupation: ``index``, the ladder, the mirror
permutation and ``lift_generator``'s images. The splits come from one
``np.lexsort``; ``_split_table`` maps each state to its split and its place
there. The arrays are read-only, as every caller holding the basis sees them.
``lift_generator`` is the dense generator lift, the search's test oracle.

A ``FockState`` built with ``FockState(basis, amplitudes)`` stores that
dense vector. The search's rays are built by ``FockState._on_split`` and
store only their values on one split; each derives its dense
``amplitudes`` on first read and keeps them. The norm, the certification
and the CLI's ket lines read the values alone.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, field
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


def _occupations(modes: int, total: int) -> np.ndarray:
    """Occupation vectors of `total` photons in `modes` modes, lexicographically
    decreasing, as the rows of a read-only integer array.

    Stars and bars: an occupation is the gaps between modes - 1 bars placed
    among total + modes - 1 slots. ``itertools.combinations`` lists the bar
    positions in increasing lexicographic order, which orders the gaps the
    same way, so the reversed list is the basis order.
    """
    slots, bars = total + modes - 1, modes - 1
    count = math.comb(slots, bars)
    flat = itertools.chain.from_iterable(itertools.combinations(range(slots), bars))
    edges = np.empty((count, modes + 1), dtype=np.intp)
    edges[:, 0], edges[:, -1] = -1, slots
    edges[:, 1:-1] = np.fromiter(flat, dtype=np.intp, count=count * bars).reshape(count, bars)
    return _frozen(np.diff(edges[::-1], axis=1) - 1)


_binomial_table = np.zeros((0, 0), dtype=np.intp)  # [a, j] = C(a + j, j + 1) below its size, grown by _rank


def _rank(occupancy: np.ndarray, total: int) -> np.ndarray:
    """The position in basis order of each row of an (r, M) integer array of
    occupations of ``total`` photons, unchecked, as intp. With a_i the photons on
    the modes after mode i and k_i = M - 1 - i, C(a_i + k_i - 1, k_i) occupations
    first exceed the row on mode i and come before it, so

        rank = sum_{i < M - 1} C(a_i + k_i - 1, k_i),   C(x, k) = 0 for x < k.

    One read-only table, grown to total + M, holds C(a + k - 1, k) at [a, k - 1], clipped
    at the intp maximum; no rank reads a clipped entry, as each term is at most the rank."""
    global _binomial_table
    m, table = occupancy.shape[1], _binomial_table  # read once: another thread may swap in a smaller one
    if len(table) < total + m:
        top = np.iinfo(np.intp).max
        rows = [[min(math.comb(a + j, j + 1), top) for j in range(total + m)] for a in range(total + m)]
        table = _binomial_table = _frozen(np.array(rows, dtype=np.intp))
    # a_i, summed from the last mode, against k_i - 1 = 0, ..., M - 2
    return table[occupancy[:, :0:-1].cumsum(axis=1), np.arange(m - 1)].sum(axis=1)


def _as_tuples(occupancy: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The rows of an occupation array as tuples of Python ints."""
    return tuple(zip(*occupancy.T.tolist()))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Ordered N-photon occupation basis over a mode space. Stored: the read-only
    (dim, M) array ``_occupancy``. Derived on first read: ``states`` and the tables."""

    space: ModeSpace
    n_photons: int
    _occupancy: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self._occupancy)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockBasis)
            and self.space == other.space
            and self.n_photons == other.n_photons
        )

    def __hash__(self) -> int:
        return hash((self.space, self.n_photons))

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """The occupation vectors as tuples of Python ints, in basis order."""
        return _as_tuples(self._occupancy)

    def index(self, occupation) -> int:
        """Position of an occupation vector, of Python or NumPy integers, in the basis order."""
        return int(self._positions([occupation])[0])

    def _positions(self, occupations) -> np.ndarray:
        """Positions of occupations, in one ``_rank``; ValueError unless each is M integers >= 0 summing to N."""
        rows = []
        for occ in map(tuple, occupations):
            try:
                rows.append([operator.index(k) for k in occ])
            except TypeError:
                rows.append([])
            if len(rows[-1]) != len(self.space) or min(rows[-1]) < 0 or sum(rows[-1]) != self.n_photons:
                raise ValueError(f"{occ} is not a {self.n_photons}-photon occupation of this space")
        return _rank(np.array(rows, dtype=np.intp).reshape(-1, len(self.space)), self.n_photons)

    @cached_property
    def m_totals(self) -> np.ndarray:
        """Total angular momentum sum_i n_i m_i per basis state (integers).
        A space whose N * max|m| exceeds the intp maximum raises ValueError."""
        ms = [lab.m for lab in self.space.labels]
        reach = self.n_photons * max(map(abs, ms))
        if reach > np.iinfo(np.intp).max:
            raise ValueError(f"|m_tot| reaches N * max|m| = {reach}, beyond the intp maximum")
        return _frozen(self._occupancy @ np.array(ms, dtype=np.intp))

    @cached_property
    def _sectors(self) -> dict[int, np.ndarray]:
        """Basis indices grouped by m_tot, descending in m_tot."""
        values = np.unique(self.m_totals)[::-1]
        return {int(m): _frozen(np.flatnonzero(self.m_totals == m)) for m in values}

    @cached_property
    def _mirror(self) -> np.ndarray:
        """``_mirror[i]`` is the index of basis state i's mirror image, which holds n_perm[i] on mode i."""
        return _frozen(_rank(self._occupancy[:, self.space.mirror_permutation], self.n_photons))

    @cached_property
    def _splits(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """``(counts, indices)`` per split of the basis by the photon counts on
        the mode pairs (0, 1), (2, 3), ..., ascending in the counts. The
        indices ascend, so they run in the Kronecker order of the pairs'
        bases ``enumerate_basis(h0(), k_p)``, the first pair slowest."""
        counts = self._occupancy.reshape(len(self), -1, 2).sum(axis=2)
        order = np.lexsort(counts.T[::-1])  # stable: the indices of a split ascend
        keys = counts[order]
        cuts = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1
        return tuple((tuple(keys[i].tolist()), _frozen(idx)) for i, idx in zip([0, *cuts], np.split(order, cuts)))

    @cached_property
    def _split_table(self) -> np.ndarray:
        """The read-only (2, dim) array whose column i holds the position of
        basis state i's split in ``_splits`` and i's position in that split's
        indices, built from ``_splits`` alone."""
        sizes = [len(idx) for _, idx in self._splits]
        order = np.concatenate([idx for _, idx in self._splits])
        table = np.empty((2, len(self)), dtype=np.intp)
        table[0, order] = np.repeat(np.arange(len(sizes)), sizes)
        table[1, order] = np.arange(len(self)) - np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
        return _frozen(table)

    @cached_property
    def _ladder(self) -> tuple[tuple, ...]:
        """Creation-operator tables for the lift, one level per photon number k = 1..N.

        A level is ``(parent, scale, first, modes)`` over the k-photon states
        n: ``first[n]`` is the first occupied mode j of n, ``parent[n]`` the
        index of n - e_j among the (k-1)-photon states and ``scale[n] =
        sqrt(n_j)``. ``modes[i]`` is ``(occupied, lower, root)``: the states
        with n_i > 0, the index of n - e_i for each, and sqrt(n_i) as a
        column. Every index is a ``_rank`` among the (k-1)-photon states.
        """
        unit = np.eye(len(self.space), dtype=np.intp)
        levels = []
        for k in range(1, self.n_photons + 1):
            occ = self._occupancy if k == self.n_photons else _occupations(len(unit), k)
            root, first = np.sqrt(occ), np.argmax(occ > 0, axis=1)
            modes = []
            for i, occupied in enumerate(map(np.flatnonzero, occ.T)):
                lower = _rank(occ[occupied] - unit[i], k - 1)
                modes.append(tuple(map(_frozen, (occupied, lower, root[occupied, i, None]))))
            parent, scale = _rank(occ - unit[first], k - 1), root[np.arange(len(occ)), first]
            levels.append((*map(_frozen, (parent, scale, first)), tuple(modes)))
        return tuple(levels)

    def ket(self, i: int) -> str:
        """Render basis state i in ket notation, e.g. ``|1,0,0,1>``."""
        return "|" + ",".join(map(str, self._occupancy[i].tolist())) + ">"


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
    return FockBasis(space=space, n_photons=n_photons, _occupancy=_occupations(len(space), n_photons))


def sector_split(basis: FockBasis) -> dict[int, list[int]]:
    """Basis indices grouped by total angular momentum, descending in m_tot.

    A fresh dict of fresh lists, so callers may change it freely.
    """
    return {m: idx.tolist() for m, idx in basis._sectors.items()}


@dataclass(eq=False)
class FockState:
    """Amplitude vector over a Fock basis.

    ``FockState(basis, amplitudes)`` stores the dense vector. A state built
    by ``_on_split`` stores only its values on one split of the basis (the
    indices ``basis._splits[_split][1]``) and derives the dense
    ``amplitudes`` on first read, keeping them; its norm and the
    certification read the values alone.
    """

    basis: FockBasis
    amplitudes: np.ndarray
    _split = None  # the position in basis._splits of a split-backed state's support

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (len(self.basis),):
            raise ValueError(
                f"amplitudes must have shape ({len(self.basis)},), got {amp.shape}"
            )
        self.amplitudes = amp

    @classmethod
    def _on_split(cls, basis: FockBasis, split: int, values: np.ndarray) -> "FockState":
        """The state that is the complex ``values`` on the indices of split
        ``split`` of ``basis._splits``, in their order, and zero elsewhere."""
        state = cls.__new__(cls)
        state.basis, state._split, state._values = basis, split, values
        return state

    def __getattr__(self, name):
        # reached only for attributes the instance lacks: a split-backed
        # state's amplitudes before their first read
        if name != "amplitudes" or "_values" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        support, values = self._sparse()
        amplitudes = np.zeros(len(self.basis), dtype=complex)
        amplitudes[support] = values
        self.amplitudes = amplitudes
        return amplitudes

    def _sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """``(support, values)``: basis indices, ascending, outside which the
        state is zero, and its amplitudes there. A split-backed state gives
        its split's indices and its values, building no dense vector."""
        if self._split is None:
            return np.arange(len(self.basis)), self.amplitudes
        return self.basis._splits[self._split][1], self._values

    @property
    def norm(self) -> float:
        return _norm(self.amplitudes if self._split is None else self._values)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm - 1.0) <= tol

    def normalized(self) -> "FockState":
        unit = _unit(self.amplitudes, self.norm)
        if unit is None:
            raise ValueError("cannot normalize the zero state")
        return FockState(self.basis, unit)

    def overlap(self, other: "FockState") -> complex:
        """Inner product <self|other> (conjugate-linear in self)."""
        if self.basis != other.basis:
            raise ValueError("states live on different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def phase_fixed(self, threshold: float = 1e-10) -> "FockState":
        """Rotate the global phase so the first significant amplitude is real positive."""
        return FockState(self.basis, _phase_fixed(self.amplitudes, threshold))


_SMALLEST_NORM = math.sqrt(sys.float_info.min)  # the norm whose square is the smallest normal float
# np.vdot without its __array_function__ dispatch, which takes longer than a
# short vector's dot product; the public function where NumPy has no such attribute
_vdot = getattr(np.vdot, "_implementation", np.vdot)


def _norm(vector: np.ndarray) -> float:
    """The 2-norm of a 1-D complex vector by the formula ``np.linalg.norm``
    uses for one, sqrt(re . re + im . im), so bit for bit its value. It is
    inf or 0 where the sum overflows or underflows (see ``_unit``): unlike
    ``ndarray.dot``, ``np.vdot`` warns of neither."""
    re, im = vector.real, vector.imag
    return math.sqrt(_vdot(re, re) + _vdot(im, im))


def _unit(vector: np.ndarray, norm: float) -> np.ndarray | None:
    """A complex ``vector`` divided by ``norm``, its ``_norm``, or None if it
    is zero. Where the squared norm overflowed to inf or underflowed below
    the normal floats (entries above about 1e154 or below about 1e-154), the
    parts of the vector are first divided by the largest of them, which
    leaves a norm between 1 and sqrt(2 len); other input keeps its bits."""
    if norm < _SMALLEST_NORM or norm == math.inf:
        parts = np.ascontiguousarray(vector).view(float)
        scale = np.abs(parts).max(initial=0.0)
        if scale == 0.0:
            return None
        vector = (parts / scale).view(complex)  # parts one by one: a complex divide would overflow
        norm = _norm(vector)
    return vector / norm


def _phase_fixed(amplitudes: np.ndarray, threshold: float = 1e-10) -> np.ndarray:
    """A copy of ``amplitudes`` rotated so the first one above ``threshold`` is real positive."""
    above = np.abs(amplitudes) > threshold
    first = above.argmax()
    if not above[first]:
        return amplitudes.copy()
    lead = amplitudes[first]
    return amplitudes * (abs(lead) / lead)


def _mirror_parity(state: FockState) -> int | None:
    """The mirror eigenvalue of a state, +1 or -1, or None if it has none.

    The lifted mirror permutes the basis states, so lift(mirror) psi =
    +-psi iff psi[_mirror] = +-psi, to 1e-10 in norm. The mirror maps
    m_tot to -m_tot, so a state of one m_tot other than 0 has none.
    """
    return _parity(state.amplitudes[state.basis._mirror], state.amplitudes)


def _parity(image: np.ndarray, amplitudes: np.ndarray) -> int | None:
    """tau in (+1, -1) with image = tau * amplitudes to 1e-10 in norm, or None."""
    for tau in (1, -1):
        diff = image - tau * amplitudes
        if np.vdot(diff, diff).real < 1e-20:
            return tau
    return None


def state_from_amplitudes(basis: FockBasis, mapping) -> FockState:
    """Build a state from an {occupation: amplitude} mapping (unlisted entries are 0)."""
    amp = np.zeros(len(basis), dtype=complex)
    amp[basis._positions(mapping)] = list(mapping.values())
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


@dataclass(frozen=True, eq=False)
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
    stack lifts to the (k, dim, dim) stack of its lifts, in one batched call:
    the SLOS recursion on M >= 4 modes, and Sym^N in closed form on two. There
    a stack whose every matrix has S00 == S11 and S01 == S10 exactly, as
    every h0 family member has, is lifted in its mirror Fock eigenbasis
    (``_mirror_power``, one matmul); any other stack by the binomial
    expansion (``_symmetric_power``).
    """
    a = np.asarray(matrix, dtype=complex)
    m = len(basis.space)
    if a.ndim not in (2, 3) or a.shape[-2:] != (m, m):
        raise ValueError(f"matrix must be {m}x{m} (or a stack of them) for this space, got {a.shape}")
    stack = a.reshape(-1, m, m)
    entries = stack.reshape(len(stack), m * m)
    if m != 2:
        out = _lift_group(stack, basis)
    elif (entries[:, :2] == entries[:, :1:-1]).all():  # S00 == S11 and S01 == S10 in every block
        out = _mirror_power(stack, basis.n_photons)
    else:
        out = _symmetric_power(stack, basis.n_photons)
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


@lru_cache(maxsize=_CACHED_BASES)  # one table per photon count, k <= the photon cap in every caller
def _symmetric_terms(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The binomial terms of Sym^k, as ``(index, coeff, starts)``.

    Entry (i, j) sums coeff * S00^a S01^b S10^(k-j-a) S11^(j-b) over a + b = k - i,
    with coeff = C(k-j, a) C(j, b) sqrt((k-i)! i! / ((k-j)! j!)). ``index`` holds a
    term's four exponents as positions in the flat (4, k + 1) table of the powers of
    S00, S01, S10 and S11; the terms of entry (i, j) start at starts[i * (k + 1) + j].
    """
    index, coeff, starts, f = [], [], [], math.factorial
    for i, j in itertools.product(range(k + 1), repeat=2):
        starts.append(len(coeff))
        for a in range(max(0, k - i - j), k - max(i, j) + 1):
            b = k - i - a
            index.append((a, k + 1 + b, 2 * (k + 1) + k - j - a, 3 * (k + 1) + j - b))
            coeff.append(math.comb(k - j, a) * math.comb(j, b) * math.sqrt(f(k - i) * f(i) / (f(k - j) * f(j))))
    return tuple(map(_frozen, (np.array(index, dtype=np.intp), np.array(coeff), np.array(starts, dtype=np.intp))))


def _symmetric_power(blocks: np.ndarray, k: int) -> np.ndarray:
    """Sym^k of a (g, 2, 2) stack in closed form, a (g, k + 1, k + 1) stack:
    the lift on ``enumerate_basis(h0(), k)``, or on any two-mode space."""
    index, coeff, starts = _symmetric_terms(k)
    powers = np.ones((len(blocks), 4, k + 1), dtype=complex)
    powers[:, :, 1:] = blocks.reshape(-1, 4, 1)
    np.cumprod(powers, axis=2, out=powers)
    terms = powers.reshape(len(blocks), 4 * (k + 1))[:, index].prod(axis=2)
    terms *= coeff
    return np.add.reduceat(terms, starts, axis=1).reshape(-1, k + 1, k + 1)


def _mirror_fock_column(n_sym: int, n_anti: int) -> np.ndarray:
    """The real amplitudes of |n_sym, n_anti>' on ``enumerate_basis(h0(), n)``
    up to normalization: g_p / sqrt(C(n, p)) on the state (p, n - p), where
    g_p is the exact integer coefficient of (a+)^p (a-)^(n-p) in
    (a+ + a-)^n_sym (a+ - a-)^n_anti. That is g_p sqrt(p! (n - p)!) / sqrt(n!),
    the same ray with no factorial to overflow a float."""
    n = n_sym + n_anti
    column = np.empty(n + 1)
    for p in range(n + 1):
        g = sum(
            math.comb(n_sym, p - j) * math.comb(n_anti, j) * (-1) ** (n_anti - j)
            for j in range(max(0, p - n_sym), min(n_anti, p) + 1)
        )
        column[n - p] = g / math.sqrt(math.comb(n, p))
    return column


@lru_cache(maxsize=_CACHED_BASES)  # one table per photon count, as _symmetric_terms
def _mirror_projectors(k: int) -> np.ndarray:
    """The projectors onto the k + 1 mirror Fock states on ``enumerate_basis(h0(), k)``,
    a read-only (k + 1, (k + 1)^2) table: row j is w_j w_j^T flattened, w_j the unit
    column of |j, k - j>' (``_mirror_fock_column``). The columns are real; the table is
    stored complex so that the matmul with complex eigenvalues casts nothing per call."""
    w = np.array([_mirror_fock_column(j, k - j) for j in range(k + 1)])
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return _frozen((w[:, :, None] * w[:, None, :]).reshape(k + 1, -1).astype(complex))


def _mirror_power(blocks: np.ndarray, k: int) -> np.ndarray:
    """Sym^k of a (g, 2, 2) stack of mirror-symmetric blocks [[a, b], [b, a]], a
    (g, k + 1, k + 1) stack. Such a block is diag(a + b, a - b) on the mirror modes,
    so its Sym^k is sum_j (a + b)^j (a - b)^(k - j) w_j w_j^T over the mirror Fock
    states |j, k - j>': one matmul of the eigenvalues with ``_mirror_projectors``."""
    powers = np.ones((k + 1, 2, len(blocks)), dtype=complex)
    powers[1:, 0] = blocks[:, 0, 0] + blocks[:, 0, 1]
    powers[1:, 1] = blocks[:, 0, 0] - blocks[:, 0, 1]
    np.multiply.accumulate(powers, axis=0, out=powers)
    # eigenvalue j: (a + b)^j (a - b)^(k - j), the second factor read backwards
    eigenvalues = (powers[:, 0] * powers[::-1, 1]).T
    return (eigenvalues @ _mirror_projectors(k)).reshape(-1, k + 1, k + 1)


def lift_generator(matrix: np.ndarray, basis: FockBasis) -> LiftedOperator:
    """Lift of a single-particle generator: dGamma(E) = sum_ij E_ij a_i^dag a_j.

    The derivative of ``lift`` at the identity, so lift(expm(E)) =
    expm(lift_generator(E)). Each nonzero E_ij fills at most one entry per
    column, found by ``_rank``, so past the dense output the cost is
    O(nnz(E) * dim * M); it builds no ladder.
    """
    a = np.asarray(matrix, dtype=complex)
    m = len(basis.space)
    if a.shape != (m, m):
        raise ValueError(f"matrix must be {m}x{m} for this space, got {a.shape}")
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    occ, unit = basis._occupancy, np.eye(m, dtype=np.intp)
    for i, j in zip(*np.nonzero(a)):
        # a_i^dag a_j |n> = sqrt(n'_i n_j) |n'> with n' = n - e_j + e_i, over the n with n_j > 0
        cols = np.flatnonzero(occ[:, j])
        image = _rank(occ[cols] - unit[j] + unit[i], basis.n_photons)
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
    fully supported on the kept modes. Mode indices are Python or NumPy
    integers; any other entry raises ValueError.
    """
    try:
        keep_set = set(map(operator.index, keep))
    except TypeError as exc:
        raise ValueError(f"mode indices must be integers: {exc}") from None
    if not keep_set and basis.n_photons > 0:
        raise ValueError("empty mode set cannot hold photons")
    if not all(0 <= i < len(basis.space) for i in keep_set):
        raise ValueError(f"mode indices must lie in [0, {len(basis.space)})")
    if n_photons is None:
        n_photons = basis.n_photons
    kept = basis._occupancy[:, sorted(keep_set)].sum(axis=1) == n_photons
    return LiftedOperator(basis, np.diag(kept.astype(complex)))
