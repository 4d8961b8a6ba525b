"""Certification and discovery of scattering-protected states.

A state is protected when every scattering matrix of the symmetric family
maps it to a scalar multiple of itself. ``certify`` tests a given state
against a stream of generic random samples. ``find_protected`` discovers
all protected rays of an N-photon space exactly, split by split over the
mode pairs. The family is Zariski-dense in GL(2) on each hm block and in
the torus spanned by I and X on h0, so a state is protected iff it spans a
one-dimensional representation of the family's Lie algebra
(``family_generators``): the lifted sl(2) generators annihilate it and it
is an eigenvector of the lifted commuting ones. The search finds these
spaces without random draws, then certifies each one. Every ray lies at
m_tot = 0, and its mirror parity is read off the basis's mirror
permutation, as ``fock._mirror_parity`` reads it.

One kernel, ``_scalar_action``, applies lifted family members to states.
A family member is block diagonal over the 2x2 blocks of its mode pairs,
so its lift keeps the photon count on each pair, and on each split of the
basis (``FockBasis._splits``) it is the Kronecker product of the pairs'
symmetric powers. The kernel lifts the stacked 2x2 blocks of all the
matrices on two-mode bases and applies them pair by pair on each split
the state occupies, with batched matmuls over the matrices; no dim x dim
lift or dim-sized image is formed. On h0 the one block is the matrix
itself: one lift on the state's basis and one matmul. The kernel serves
``certify`` (on the draws of ``_draws``), ``find_protected`` and
``dfs.transmit_bins`` (on the scatterers of its time bins), and keeps what
it lifts in a dict by pair count that its caller hands in. Handed a
state's values on one split, it applies them there directly; for a dense
vector it finds the occupied splits in ``FockBasis._split_table``. It
takes one candidate or a stack of them; a stack rides on a leading batch
axis of every matmul, so each candidate's eigenvalues and residuals are
the bits a call on it alone gives.

Every candidate of one search is certified against the same draws on the
same basis, so ``find_protected`` reads them once (``_draws``) and lifts
each pair count once, in a dict of its own that it drops when it returns;
a search with no candidate reads none. It applies each split's candidates
to the draws in one kernel call and finds every candidate's worst draw
with one argmax over that apply. It hands each candidate's row of the
apply and its worst draw to the candidate's own ``certify`` call as its
``_applied`` argument, and that call only builds the report. The norm of
each candidate is checked once, when ``_search_plan`` normalises it. Every
other ``certify`` call checks the norm, reads and lifts afresh, and
nothing lifted outlives the call that lifted it.

The search visits the splits of the shared basis by the photon counts on
the mode pairs (``FockBasis._splits``), where the family acts as a
Kronecker product over the components. An hm component's sl(2) has an
invariant on Sym^a x Sym^b only when a = b, so only splits with a = b on
every hm component hold candidates, all at m_tot = 0. A split's candidates
are Kronecker products of per-component ones, which the paper's
classification gives in closed form: on h0 with k photons the k + 1 mirror
Fock states (dSym^k of h0's swap has the distinct eigenvalues n_s - n_a),
and on an hm component at (K, K) the pair power, which spans the
one-dimensional sl(2) kernel. They come from the exact coefficients that
``states`` builds these states from, with no dense state and no LAPACK
call, so no ray value depends on the LAPACK build. Every candidate is one
column, so a search sets no tolerance; the test suite's oracle factorises
the generators and checks the closed forms. The products are formed
by one broadcast multiply each (``_kron``); no dim x dim or per-sector
table is built. A candidate is handled on its split's slice: normalised,
phase-fixed and compared with its mirror image there, and kept there as a
``FockState`` of its values on the split (``FockState._on_split``); the
candidates of one split are applied on it together. No search step builds
a dense vector; a ray's ``amplitudes`` are built when something first
reads them. The rays are ordered by their values over the union of their
supports (``_ray_order``).

So the candidates, their values, their parities and their order depend on
(space, N) alone, and only their certification on the draws.
``_search_plan`` computes that draw-free half once per (space, N) and keeps
it, like the basis tables, for the ``_CACHED_BASES`` most recently used.
Every search of a cached (space, N) reads it, whatever its seed, sampling
class or sample count, and only applies, certifies and wraps each
candidate; a search of a sector other than 0 never reads it. The plan
holds nothing of a config, the draws or a basis, and its arrays are
read-only; each search builds its own states and rays on them.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .fock import (
    _CACHED_BASES,
    FockBasis,
    FockState,
    _frozen,
    _norm,
    _parity,
    _phase_fixed,
    _symmetric_power,
    enumerate_basis,
    lift,
    lift_mirror,  # noqa: F401 -- a traced call site of perfbench/tracing.py
    sector_split,  # noqa: F401 -- a traced call site of perfbench/tracing.py
)
from .modes import ModeSpace, hm
from .scatter import ScatterSampler, _in_unit_interval
from .states import _mirror_fock_column, _pair_power_column, pair_expansion_coefficients, pair_power

__all__ = [
    "Verdict",
    "CertificationConfig",
    "ProtectionReport",
    "ProtectedRay",
    "ProtectedSubspace",
    "SearchResult",
    "UniquenessReport",
    "certify",
    "find_protected",
    "verify_pair_uniqueness",
]

class Verdict(enum.Enum):
    PROTECTED = "protected"
    NOT_PROTECTED = "not_protected"


@dataclass(frozen=True)
class CertificationConfig:
    """Certification draws and pass mark."""

    n_samples: int = 64
    residual_tol: float = 1e-10
    seed: int = 0
    unitary: bool = False  # sampling class used for certification draws
    genericity_floor: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.n_samples, numbers.Integral) or self.n_samples < 3:
            raise ValueError(f"n_samples must be an integer of at least 3, got {self.n_samples!r}")
        if not _in_unit_interval(self.residual_tol):
            raise ValueError(f"residual_tol must lie in (0, 1), got {self.residual_tol!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _in_unit_interval(self.genericity_floor):
            raise ValueError(f"genericity_floor must lie in (0, 1), got {self.genericity_floor!r}")
        if not isinstance(self.unitary, (bool, np.bool_)):
            raise ValueError(f"unitary must be a bool, got {self.unitary!r}")
        # NumPy scalars are stored as Python ones, so what derives from them serialises
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "unitary", bool(self.unitary))


@dataclass(frozen=True, eq=False)
class ProtectionReport:
    """Outcome of certifying one state against n_samples random lifts."""

    verdict: Verdict
    worst_residual: float
    eigenvalues: np.ndarray  # <psi| lift(S_i) |psi> per sample
    residuals: np.ndarray
    witness_sample_index: int | None  # sample with residual >= tol, if any

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=complex))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))


def _draws(space: ModeSpace, cfg: CertificationConfig) -> np.ndarray:
    """The (n_samples, M, M) stack of the sample stream ``certify`` documents."""
    sampler = ScatterSampler(seed=cfg.seed, unitary=cfg.unitary, genericity_floor=cfg.genericity_floor)
    return sampler.sample(space, cfg.n_samples)


def _check_normalized(state: FockState) -> None:
    if not state.is_normalized():
        raise ValueError(f"state must be normalized (norm {state.norm:.3e})")


def _kernel_input(state: FockState) -> tuple[np.ndarray, int | None]:
    """``(column, split)`` for ``_scalar_action``: a split-backed state's
    values on its split and that split, or a dense state's amplitudes and
    None, so that no state's dense vector is built to apply it."""
    if state._split is None:
        return state.amplitudes[:, None], None
    return state._values[:, None], state._split


def _scalar_action(basis: FockBasis, matrices: np.ndarray, vectors: np.ndarray, powers: dict, split: int | None = None):
    """Per-matrix eigenvalues and residuals of lift(S_i) on the span of ``vectors``.

    ``matrices`` is an (n, M, M) stack of matrices that are block diagonal
    over the 2x2 blocks of the mode pairs (0, 1), (2, 3), ..., as every
    family member is; any other nonzero entry raises ValueError.
    ``vectors`` holds d orthonormal columns V: dense, (dim, d), or, when
    ``split`` is given, their rows on the indices of ``basis._splits[split]``,
    zero elsewhere. The eigenvalue is lam_i = tr(V^dag lift(S_i) V) / d and
    the residual is the Frobenius norm of lift(S_i) V - lam_i V; both come
    back as (n,) arrays. A (c, rows, d) stack of c such candidates gives
    (c, n) arrays, one row per candidate. The candidates sit on a leading
    batch axis of every matmul, so each candidate's products are the BLAS
    calls a one-candidate call makes on it, and its row holds that call's
    bits.

    lift(S_i) is never formed. It keeps the photon count on every pair, so
    it maps each split of ``FockBasis._splits`` to itself, as the Kronecker
    product of the Sym^{k_p} of the pairs' blocks (their lifts on
    ``enumerate_basis(h0(), k_p)``). A split's indices run in that order,
    so each pair with photons is one batched matmul on the split's slice
    (a pair with none acts as 1), and only the splits the vectors occupy
    are visited, in O(c * n * support * d) memory.
    Given ``split``, that is the one split; for dense vectors the occupied
    rows are looked up in ``basis._split_table`` and gathered once.

    ``powers`` maps a pair count k to the lifted ``matrices``: on h0 the
    entry for N is their lift on ``basis``; on pair spaces the entry for 1
    is the (P, n, 2, 2) stack of validated pair blocks and each k >= 2 their
    Sym^k, built in closed form, as (P, n, k + 1, k + 1). The kernel reads
    the dict and fills the counts it needs and misses, so the dict must
    belong to these matrices on this basis. ``find_protected`` passes one
    dict for all its candidates, which lives as long as that call; every
    other caller passes a fresh one.
    """
    lead, d = vectors.shape[:-2], vectors.shape[-1]  # lead is (c,) for a stack of candidates, () for one
    n, pairs = len(matrices), len(basis.space) // 2
    if pairs == 1:
        # h0: the one block is the matrix, its Sym^N the lift on this basis,
        # whose one split holds every index in order
        if basis.n_photons not in powers:
            powers[basis.n_photons] = lift(matrices, basis).matrix
        images = powers[basis.n_photons] @ (vectors[:, None] if lead else vectors)
    else:
        if 1 not in powers:
            # the (P, n, 2, 2) pair blocks, a view of the stack's block diagonal
            blocks = np.diagonal(matrices.reshape(n, pairs, 2, pairs, 2), axis1=1, axis2=3).transpose(3, 0, 1, 2)
            if np.count_nonzero(blocks) != np.count_nonzero(matrices):
                raise ValueError("matrices must be block diagonal over the 2x2 blocks of the mode pairs")
            powers[1] = blocks
        if split is None:
            occupied = np.flatnonzero(np.bincount(basis._split_table[0][vectors.any(axis=(0, 2) if lead else 1)])).tolist()
            splits = [basis._splits[s] for s in occupied]
            rows = splits[0][1] if len(splits) == 1 else np.concatenate([idx for _, idx in splits])
            vectors = vectors[:, rows] if lead else vectors[rows]
        else:
            splits = [basis._splits[split]]
        for k in set(itertools.chain(*(key for key, _ in splits))) - {0} - powers.keys():
            powers[k] = _symmetric_power(powers[1].reshape(-1, 2, 2), k).reshape(pairs, n, k + 1, k + 1)
        images = np.empty(lead + (n,) + vectors.shape[-2:], dtype=complex)
        start = 0
        for key, idx in splits:
            # the slice as a grid of pair axes, then d, after the candidate and matrix axes:
            # each pair acts on the first grid axis and moves it last; a pair
            # with no photons has an axis of one, which moves nothing
            part = vectors[:, None, start : start + len(idx)] if lead else vectors[None, start : start + len(idx)]
            for p, k in enumerate(key):
                if k:
                    part = (powers[k][p] @ part.reshape(part.shape[:-2] + (k + 1, -1))).swapaxes(-1, -2)
            images[..., start : start + len(idx), :] = part.reshape(part.shape[:-2] + (d, -1)).swapaxes(-1, -2)
            start += len(idx)
    flat, column = images.reshape(lead + (n, -1)), vectors.reshape(lead + (-1,))
    # per candidate, the gemv of a one-candidate call
    eigenvalues = ((flat @ column.conj()[:, :, None])[:, :, 0] if lead else flat @ column.conj()) / d
    flat -= eigenvalues[..., None] * (column[:, None] if lead else column)
    # np.linalg.norm(flat, axis=-1) by its own formula, bit for bit, without its argument handling
    residuals = np.sqrt(np.add.reduce((flat.conj() * flat).real, axis=-1))
    return eigenvalues, residuals


def certify(state: FockState, cfg: CertificationConfig = CertificationConfig(), *, _applied=None) -> ProtectionReport:
    """Test a normalized state against cfg.n_samples generic scattering lifts.

    Sample i is the i-th draw of ScatterSampler(seed=cfg.seed,
    unitary=cfg.unitary, genericity_floor=cfg.genericity_floor) on the
    state's mode space; this correspondence is part of the contract so
    callers can regenerate the stream and inspect individual samples.

    A state whose norm is more than 1e-12 from 1 raises ValueError. The
    call reads the stream and lifts it afresh. A state that holds only its
    values on one split (the search's rays) is checked and applied on
    those values and that split, with no dim-sized pass; a dense state on
    the splits its amplitudes occupy.

    ``_applied`` is for ``find_protected`` alone: the ``(eigenvalues,
    residuals, worst)`` that the search's apply of its split gave this
    candidate, the bits a call on it alone computes. Given it, the call
    builds the report from it, with no norm check (the search's plan made
    it), no draw and no kernel call.
    """
    if _applied is None:
        _check_normalized(state)
        column, split = _kernel_input(state)
        eigenvalues, residuals = _scalar_action(state.basis, _draws(state.basis.space, cfg), column, {}, split)
        _applied = (eigenvalues, residuals, int(residuals.argmax()))
    eigenvalues, residuals, worst = _applied
    worst_residual = float(residuals[worst])
    protected = worst_residual < cfg.residual_tol
    return ProtectionReport(
        verdict=Verdict.PROTECTED if protected else Verdict.NOT_PROTECTED,
        worst_residual=worst_residual,
        eigenvalues=eigenvalues,
        residuals=residuals,
        witness_sample_index=None if protected else worst,
    )


@dataclass(frozen=True, eq=False)
class ProtectedRay:
    """A certified one-dimensional protected subspace."""

    state: FockState  # phase-fixed: first significant amplitude real positive
    m_tot: int
    mirror_tau: int  # mirror parity, +1 or -1: every ray lies at m_tot = 0
    report: ProtectionReport


# kept, with SearchResult.subspaces and _certify_subspace, while perfbench/tracing.py and workloads.py read them (ROADMAP item 7)
@dataclass(frozen=True, eq=False)
class ProtectedSubspace:
    """A certified protected subspace of dimension > 1 (scalar action)."""

    basis: FockBasis
    vectors: np.ndarray  # (dim, d) orthonormal columns
    m_tot: int
    worst_residual: float

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SearchResult:
    rays: tuple[ProtectedRay, ...]
    subspaces: tuple[ProtectedSubspace, ...]  # always (): every candidate is a ray
    verdict: Verdict  # always PROTECTED: the exact search is complete
    samples_used: int  # certification draws: n_samples per candidate
    sectors: tuple[int, ...]


@lru_cache(maxsize=None)
def _mirror_fock_factors(k: int) -> tuple[np.ndarray, ...]:
    """h0's candidates with k photons, as read-only (k + 1, 1) columns: the
    mirror Fock states |j, k - j>' from their exact coefficients
    (``states._mirror_fock_column``), j = 0, ..., k, in the ascending order
    of their dSym^k(X) eigenvalues n_s - n_a = 2j - k. Keyed by the photon
    count alone, so the cache holds at most cap + 1 entries."""
    return tuple(_frozen(_mirror_fock_column(j, k - j)[:, None]) for j in range(k + 1))


def _split_candidates(space: ModeSpace, counts: tuple[int, ...]) -> list[np.ndarray]:
    """Protected candidates of one split, one column each, from the paper's
    closed forms: the Kronecker products of the components' candidates, the
    mirror Fock states of h0 (``_mirror_fock_factors``) and the pair power
    of each hm (``states._pair_power_column``). A split with a != b on some
    hm component gets none, and no factor is built for it."""
    comps = space.components or (space,)
    starts = list(itertools.accumulate((len(comp) // 2 for comp in comps), initial=0))
    if any(comp.kind == "hm" and counts[p] != counts[p + 1] for comp, p in zip(comps, starts)):
        return []  # sl(2) has an invariant on Sym^a x Sym^b only when a = b
    # Clebsch-Gordan: the kernel on Sym^K x Sym^K is one-dimensional, the pair power's span
    options = [_mirror_fock_factors(counts[p]) if comp.kind == "h0" else (_pair_power_column(counts[p])[:, None],)
               for comp, p in zip(comps, starts)]
    return [_kron(factors) for factors in itertools.product(*options)]


def _kron(factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """``reduce(np.kron, factors)`` of k 2-D factors by broadcasting: factor p
    spans axes p and k + p of one 2k-axis grid, so each entry is the same
    left-to-right product of one entry per factor, bit for bit."""
    k = len(factors)
    if k == 1:
        return factors[0]
    views = [f.reshape((1,) * p + f.shape[:1] + (1,) * (k - 1) + f.shape[1:] + (1,) * (k - 1 - p))
             for p, f in enumerate(factors)]
    return reduce(np.multiply, views).reshape(math.prod(f.shape[0] for f in factors), -1)


def _ray_order(states: list[FockState]) -> np.ndarray:
    """The stable lexicographic order of states by the real and then the
    imaginary parts of the amplitudes rounded to 9 digits, over the basis
    states some state occupies. Each state's values are read on its support
    (``FockState._sparse``), and the other basis states compare equal."""
    sparse = [state._sparse() for state in states]
    supports = np.concatenate([support for support, _ in sparse])
    cols = np.unique(supports)
    amps = np.zeros((len(states), len(cols)), dtype=complex)
    rows = np.repeat(np.arange(len(states)), [len(support) for support, _ in sparse])
    amps[rows, np.searchsorted(cols, supports)] = np.concatenate([values for _, values in sparse])
    keys = np.column_stack([np.round(amps.real, 9), np.round(amps.imag, 9)])
    return np.lexsort(keys.T[::-1])


@lru_cache(maxsize=_CACHED_BASES)
def _search_plan(space: ModeSpace, n_photons: int) -> tuple[tuple[tuple[int, np.ndarray, tuple[int, ...]], ...], np.ndarray]:
    """The draw-free half of ``find_protected(space, n_photons)``: which
    candidates there are, their values, their parities and their order.

    Per split ``s`` of the basis that holds candidates, ``(s, stack,
    taus)``: the read-only (c, L) stack of its c closed-form candidates
    (``_split_candidates``) on its L indices, each normalised and
    phase-fixed there, and their mirror parities. Each row's norm is
    checked as ``certify`` checks it, with the same ValueError, so a
    search's ``certify`` calls need not check it again. Each parity
    compares the values with their own entries at the mirror images of the
    split's indices, which lie in the same split at m_tot = 0. Then ``order``, the
    read-only permutation ``_ray_order`` gives over all the candidates, in
    the order of the splits and their rows. The order of any subset of the
    candidates is ``order`` restricted to it: the lexsort is stable, and a
    column that none of the subset occupies compares equal within it.

    A search table like ``_mirror_fock_factors`` and the basis tables: it
    holds nothing of the config, the draws or a basis object, so every
    search of (space, N) reads it, whatever its seed, sampling class or
    sample count. It keeps the ``_CACHED_BASES`` most recently used."""
    basis = enumerate_basis(space, n_photons)
    position, plan, states = basis._split_table[1], [], []
    for s, (counts, idx) in enumerate(basis._splits):
        cands = _split_candidates(space, counts)
        if not cands:
            continue
        # complex before the phase fix: its product sets the signs of the zero imaginary parts
        cols = [cand[:, 0].astype(complex) for cand in cands]
        stack = _frozen(np.array([_phase_fixed(col / _norm(col)) for col in cols]))
        image = position[basis._mirror[idx]]  # the mirror keeps an m_tot = 0 split
        plan.append((s, stack, tuple(_parity(col[image], col) for col in stack)))
        for col in stack:
            states.append(FockState._on_split(basis, s, col))
            _check_normalized(states[-1])  # certify's check, once per plan
    order = _ray_order(states) if states else np.empty(0, dtype=np.intp)
    return tuple(plan), _frozen(order)


def find_protected(
    space: ModeSpace,
    n_photons: int,
    cfg: CertificationConfig = CertificationConfig(),
    sector: int | None = None,
) -> SearchResult:
    """All protected rays of the N-photon space; ``subspaces`` is always ().

    Search phase, exact and sample-free: per split of the basis over the
    mode pairs, the candidates are the joint eigenvectors of the commuting
    generators within the joint kernel of the sl(2) generators
    (``family_generators``). The classification gives them in closed form,
    each one column: ``_split_candidates`` builds them from the exact
    mirror Fock and pair-power coefficients. A split with a != b photons on
    some hm component's pairs yields none, so every ray lies at m_tot = 0,
    and a ``sector`` other than 0 returns at once with no ray and no draw.
    Certification phase: each candidate is certified with cfg.n_samples
    draws of cfg's sampling class; rays are phase-fixed, with their parity.

    The candidates, normalised and phase-fixed on their splits, their
    parities and their order come from ``_search_plan(space, n_photons)``,
    built by the first search of (space, N) and read by every later one
    while it stays among the ``_CACHED_BASES`` most recently used. If there
    are candidates, the draws are read once and lifted once per pair count,
    and each split's stack of candidates is applied to them in one
    ``_scalar_action`` call; a lone candidate is applied with no batch
    axis. One argmax over the apply's residuals gives every candidate's
    worst draw. Each candidate still gets its own ``certify`` call (ROADMAP
    item 2 keeps it while the benchmark's tracer counts it), handed its row
    of that apply and its worst draw as ``_applied``, and builds only its
    report; the plan has checked its norm. Each one that passes
    becomes a ``ProtectedRay`` on a fresh ``FockState`` of its values on its split
    (``FockState._on_split``), so the search builds no dense vector and
    two searches share no state; a ray's ``amplitudes`` are built when
    first read. The rays are the passing candidates in the plan's order.
    A ``sector`` that is not an integer raises ValueError.
    """
    basis = enumerate_basis(space, n_photons)
    if sector is None:
        sectors = tuple(basis._sectors)
    else:
        try:
            sector = operator.index(sector)
        except TypeError:
            raise ValueError(f"sector must be an integer, got {sector!r}") from None
        if sector not in basis._sectors:
            raise ValueError(f"no m_tot = {sector} sector at N = {n_photons}")
        sectors = (sector,)

    plan, order = _search_plan(space, n_photons) if 0 in sectors else ((), None)  # every ray lies at m_tot = 0
    if not plan:
        # every search of a sector other than 0 ends here, and reads no draw
        return SearchResult(rays=(), subspaces=(), verdict=Verdict.PROTECTED, samples_used=0, sectors=sectors)
    kept = []  # per candidate, in the plan's order, its ray or None
    draws, powers = _draws(space, cfg), {}
    for s, stack, taus in plan:
        lone = len(stack) == 1  # no batch axis for a lone candidate, which costs less than an axis of one
        eigenvalues, residuals = _scalar_action(basis, draws, stack[0][:, None] if lone else stack[:, :, None], powers, s)
        worst = residuals.argmax(axis=-1).tolist()  # each candidate's worst draw
        applied = [(eigenvalues, residuals, worst)] if lone else zip(eigenvalues, residuals, worst)
        for col, tau, row in zip(stack, taus, applied):
            state = FockState._on_split(basis, s, col)
            report = certify(state, cfg, _applied=row)
            passed = report.verdict is Verdict.PROTECTED
            kept.append(ProtectedRay(state=state, m_tot=0, mirror_tau=tau, report=report) if passed else None)
    return SearchResult(
        rays=tuple(kept[i] for i in order.tolist() if kept[i] is not None),
        subspaces=(),
        verdict=Verdict.PROTECTED,
        samples_used=len(kept) * cfg.n_samples,
        sectors=sectors,
    )


def _certify_subspace(basis, idx, cand, cfg) -> ProtectedSubspace | None:
    """Scalar-action test of a d > 1 candidate against the certification
    stream of ``cfg``, read and lifted afresh as ``certify`` reads it; no
    search calls it, since every candidate is a ray."""
    vectors = np.zeros((len(basis), cand.shape[1]), dtype=complex)
    vectors[idx, :] = cand
    _, residuals = _scalar_action(basis, _draws(basis.space, cfg), vectors, {})
    worst = float(np.max(residuals))
    if worst >= cfg.residual_tol:
        return None
    return ProtectedSubspace(basis=basis, vectors=vectors, m_tot=0, worst_residual=worst)


@dataclass(frozen=True)
class UniquenessReport:
    """Search-based uniqueness check of the pair-power ray at even N."""

    ok: bool
    ray_count: int
    overlap: float  # |<found ray | closed-form pair state>|
    coefficients_ok: bool
    samples_used: int


def _expand_pair_operator(pairs: int) -> dict[tuple[int, int, int, int], int]:
    """Integer expansion of (a b - c d)^K by repeated polynomial multiplication.

    Independent oracle for the closed-form coefficients: monomials are
    occupation tuples over the four modes, coefficients exact ints.
    """
    poly: dict[tuple[int, int, int, int], int] = {(0, 0, 0, 0): 1}
    base = {(1, 0, 1, 0): 1, (0, 1, 0, 1): -1}
    for _ in range(pairs):
        out: dict[tuple[int, int, int, int], int] = {}
        for occ1, c1 in poly.items():
            for occ2, c2 in base.items():
                occ = tuple(a + b for a, b in zip(occ1, occ2))
                out[occ] = out.get(occ, 0) + c1 * c2
        poly = out
    return poly


def verify_pair_uniqueness(
    m: int,
    pairs: int,
    cfg: CertificationConfig = CertificationConfig(),
    overlap_tol: float = 1e-9,
) -> UniquenessReport:
    """Check that the zero-angular-momentum sector of hm(m) at N = 2K has
    exactly one protected ray, that it coincides with the closed-form
    pair-power state, and that the closed-form integer coefficients agree
    with a direct polynomial expansion of the pair operator power."""
    if pairs < 1:
        raise ValueError("uniqueness check needs at least one pair")
    result = find_protected(hm(m), 2 * pairs, cfg, sector=0)
    expected = pair_power(m, pairs)
    ray_count = len(result.rays)
    overlap = 0.0
    if ray_count == 1:
        # on the ray's split: the search's ray holds no dense vector
        support, values = result.rays[0].state._sparse()
        overlap = abs(complex(np.vdot(values, expected.amplitudes[support])))

    coeffs = pair_expansion_coefficients(pairs)
    expanded = _expand_pair_operator(pairs)
    coefficients_ok = len(expanded) == pairs + 1 and all(
        expanded.get((pairs - l, l, pairs - l, l), 0) == coeffs[l]
        for l in range(pairs + 1)
    )
    ok = (
        result.verdict is Verdict.PROTECTED
        and ray_count == 1
        and overlap > 1.0 - overlap_tol
        and coefficients_ok
    )
    return UniquenessReport(
        ok=ok,
        ray_count=ray_count,
        overlap=overlap,
        coefficients_ok=coefficients_ok,
        samples_used=result.samples_used,
    )
