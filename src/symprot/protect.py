"""Certification and discovery of scattering-protected states.

A state is protected when every scattering matrix of the symmetric family
maps it to a scalar multiple of itself. ``certify`` tests a given state
against a stream of generic random samples. ``find_protected`` discovers all
protected rays (and any higher-dimensional protected subspaces) of an
N-photon space exactly, split by split over the mode pairs. The
family is Zariski-dense in GL(2) on each hm block and in the torus spanned
by I and X on h0, so a state is protected iff it spans a one-dimensional
representation of the family's Lie algebra (``family_generators``): the
lifted sl(2) generators annihilate it and it is an eigenvector of the lifted
commuting ones. The search finds these spaces without random draws, then
certifies each one. Every ray lies at m_tot = 0, and its mirror parity is
read off the basis's mirror permutation, as ``fock._mirror_parity`` reads it.

One kernel, ``_scalar_action``, applies lifted family members to states.
A family member is block diagonal over the 2x2 blocks of its mode pairs,
so its lift keeps the photon count on each pair, and on each split of the
basis (``FockBasis._splits``) it is the Kronecker product of the pairs'
symmetric powers. The kernel lifts the stacked 2x2 blocks of all the
matrices on two-mode bases and applies them pair by pair on each split
the state occupies, with batched matmuls over the matrices; no dim x dim
lift or dim-sized image is formed. On h0 the one block is the matrix
itself: one lift on the state's basis and one matmul. The kernel serves
``certify`` (on the draws of ``_draws``) and
``dfs.transmit_bins`` (on the scatterers of its time bins), and keeps what
it lifts in a dict by pair count that its caller hands in. Handed a
state's values on one split, it applies them there directly; for a dense
vector it finds the occupied splits in ``FockBasis._split_table``.

Every candidate of one search is certified against the same draws on the
same basis, so ``find_protected`` opens a scope (``_SCOPE``, a context
variable, so each thread and task has its own) for its certification
phase. In it, ``certify`` and ``_certify_subspace`` on the search's basis
with the search's config share one ``_Stream``: the first of them reads
the draws, and each pair count is lifted once, for all the candidates.
The scope closes when the search returns or raises; a search with no
candidate opens none. Outside it every call reads and lifts afresh, and
nothing lifted outlives the call that lifted it.

The search visits the splits of the shared basis by the photon counts on
the mode pairs (``FockBasis._splits``), where the family acts as a
Kronecker product over the components. An hm component's sl(2) has an
invariant on Sym^a x Sym^b only when a = b, so only splits with a = b on
every hm component hold candidates, all at m_tot = 0. A split's
candidates are Kronecker products of per-component ones, factorised from
closed-form (k + 1) x (k + 1) generators once per component kind and pair
counts (``_component_factors``), a cache that holds nothing of m, the
basis, the configuration or random draws. The generators are dSym^k of
the 2x2 pair blocks of ``family_generators``, the one statement of the
family's Lie algebra. A call only cuts the kernels at ``cluster_tol``,
forms the products (one broadcast multiply each, ``_kron``) and certifies
them; it builds no dim x dim or per-sector table. A ray is handled on its
split's slice: normalised, phase-fixed and compared with its mirror image
there, and kept there as a ``FockState`` of its values on the split
(``FockState._on_split``), which ``certify`` applies on that split alone.
No search step builds a dense vector; a ray's ``amplitudes`` are built
when something first reads them. The rays are ordered by their values
over the union of their splits (``_ray_order``).
"""

from __future__ import annotations

import contextvars
import enum
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .fock import (
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
from .modes import ModeSpace, h0, hm
from .scatter import ScatterSampler, family_generators
from .states import pair_expansion_coefficients, pair_power

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
    """Certification draws and pass mark; ``cluster_tol`` is the relative
    singular-value cut of find_protected's kernels on hm splits with a = b."""

    n_samples: int = 64
    residual_tol: float = 1e-10
    cluster_tol: float = 1e-8
    seed: int = 0
    unitary: bool = False  # sampling class used for certification draws
    genericity_floor: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.n_samples, numbers.Integral) or self.n_samples < 3:
            raise ValueError(f"n_samples must be an integer of at least 3, got {self.n_samples!r}")
        if not 0 < self.residual_tol < 1:
            raise ValueError("residual_tol must lie in (0, 1)")
        if not 0 < self.cluster_tol < 1:
            raise ValueError("cluster_tol must lie in (0, 1)")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0 < self.genericity_floor < 1:
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


class _Stream:
    """One search's certification stream: its draws on ``basis.space``,
    read at the first certification, and their lifts by pair count."""

    __slots__ = ("basis", "cfg", "draws", "powers")

    def __init__(self, basis: FockBasis, cfg: CertificationConfig):
        self.basis, self.cfg, self.draws, self.powers = basis, cfg, None, {}


# the stream of the find_protected call certifying in this context, if any
_SCOPE: contextvars.ContextVar[_Stream | None] = contextvars.ContextVar("symprot_certification_scope", default=None)


def _stream(basis: FockBasis, cfg: CertificationConfig) -> tuple[np.ndarray, dict]:
    """The draws of ``cfg`` on ``basis.space`` and the dict of their lifts
    by pair count: the open search scope's when it certifies on this basis
    with an equal config, else a fresh read and an empty dict."""
    scope = _SCOPE.get()
    if scope is None or scope.basis is not basis or scope.cfg != cfg:
        return _draws(basis.space, cfg), {}
    if scope.draws is None:
        scope.draws = _draws(basis.space, cfg)
    return scope.draws, scope.powers


def _scalar_action(basis: FockBasis, matrices: np.ndarray, vectors: np.ndarray, powers: dict, split: int | None = None):
    """Per-matrix eigenvalues and residuals of lift(S_i) on the span of ``vectors``.

    ``matrices`` is an (n, M, M) stack of matrices that are block diagonal
    over the 2x2 blocks of the mode pairs (0, 1), (2, 3), ..., as every
    family member is; any other nonzero entry raises ValueError.
    ``vectors`` holds d orthonormal columns V: dense, (dim, d), or, when
    ``split`` is given, their rows on the indices of ``basis._splits[split]``,
    zero elsewhere. The eigenvalue is lam_i = tr(V^dag lift(S_i) V) / d and
    the residual is the Frobenius norm of lift(S_i) V - lam_i V.

    lift(S_i) is never formed. It keeps the photon count on every pair, so
    it maps each split of ``FockBasis._splits`` to itself, as the Kronecker
    product of the Sym^{k_p} of the pairs' blocks (their lifts on
    ``enumerate_basis(h0(), k_p)``). A split's indices run in that order,
    so each pair is one batched matmul on the split's slice, and only the
    splits the vectors occupy are visited, in O(n * support * d) memory.
    Given ``split``, that is the one split; for dense vectors the occupied
    rows are looked up in ``basis._split_table`` and gathered once.

    ``powers`` maps a pair count k to the lifted ``matrices``: on h0 the
    entry for N is their lift on ``basis``; on pair spaces the entry for 1
    is the (P, n, 2, 2) stack of validated pair blocks and each k >= 2 their
    Sym^k, built in closed form, as (P, n, k + 1, k + 1). The kernel reads
    the dict and fills the counts it needs and misses, so the dict must
    belong to these matrices on this basis. ``certify`` passes the open
    search's dict, which lives as long as that ``find_protected`` call;
    every other caller passes a fresh one.
    """
    n, d, pairs = len(matrices), vectors.shape[1], len(basis.space) // 2
    if pairs == 1:
        # h0: the one block is the matrix, its Sym^N the lift on this basis,
        # whose one split holds every index in order
        if basis.n_photons not in powers:
            powers[basis.n_photons] = lift(matrices, basis).matrix
        images = powers[basis.n_photons] @ vectors
    else:
        if 1 not in powers:
            # the (P, n, 2, 2) pair blocks, a view of the stack's block diagonal
            blocks = np.diagonal(matrices.reshape(n, pairs, 2, pairs, 2), axis1=1, axis2=3).transpose(3, 0, 1, 2)
            if np.count_nonzero(blocks) != np.count_nonzero(matrices):
                raise ValueError("matrices must be block diagonal over the 2x2 blocks of the mode pairs")
            powers[1] = blocks
        if split is None:
            occupied = np.unique(basis._split_table[0][vectors.any(axis=1)]).tolist()
            splits = [basis._splits[s] for s in occupied]
            vectors = vectors[splits[0][1] if len(splits) == 1 else np.concatenate([idx for _, idx in splits])]
        else:
            splits = [basis._splits[split]]
        for k in set(itertools.chain(*(key for key, _ in splits))) - {0} - powers.keys():
            powers[k] = _symmetric_power(powers[1].reshape(-1, 2, 2), k).reshape(pairs, n, k + 1, k + 1)
        images = np.empty((n, len(vectors), d), dtype=complex)
        start = 0
        for key, idx in splits:
            # the slice as a grid of pair axes, then d: each pair acts on the leading axis and moves it last
            part = vectors[start : start + len(idx)][None]
            for p, k in enumerate(key):
                part = part.reshape(len(part), k + 1, -1)
                part = (powers[k][p] @ part if k else part).swapaxes(1, 2)
            images[:, start : start + len(idx)] = part.reshape(len(part), d, -1).swapaxes(1, 2)
            start += len(idx)
    flat = images.reshape(n, vectors.size)
    eigenvalues = flat @ vectors.conj().ravel() / d
    flat -= eigenvalues[:, None] * vectors.ravel()
    # np.linalg.norm(flat, axis=1) by its own formula, bit for bit, without its argument handling
    residuals = np.sqrt(np.add.reduce((flat.conj() * flat).real, axis=1))
    return eigenvalues, residuals


def certify(state: FockState, cfg: CertificationConfig = CertificationConfig()) -> ProtectionReport:
    """Test a normalized state against cfg.n_samples generic scattering lifts.

    Sample i is the i-th draw of ScatterSampler(seed=cfg.seed,
    unitary=cfg.unitary, genericity_floor=cfg.genericity_floor) on the
    state's mode space; this correspondence is part of the contract so
    callers can regenerate the stream and inspect individual samples.

    Called by ``find_protected`` on its basis with its config, it shares
    that call's stream: the draws read once and each pair count lifted
    once for all its candidates, until the search returns. Any other call
    reads the stream and lifts it afresh. A state that holds only its
    values on one split (the search's rays) is checked and applied on those
    values and that split, with no dim-sized pass; a dense state on the
    splits its amplitudes occupy.
    """
    if not state.is_normalized():
        raise ValueError(f"state must be normalized (norm {state.norm:.3e})")
    draws, powers = _stream(state.basis, cfg)
    split = state._split
    values = state.amplitudes if split is None else state._values
    eigenvalues, residuals = _scalar_action(state.basis, draws, values[:, None], powers, split)
    worst = int(np.argmax(residuals))
    protected = residuals[worst] < cfg.residual_tol
    return ProtectionReport(
        verdict=Verdict.PROTECTED if protected else Verdict.NOT_PROTECTED,
        worst_residual=float(residuals[worst]),
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
    subspaces: tuple[ProtectedSubspace, ...]
    verdict: Verdict  # always PROTECTED: the exact search is complete
    samples_used: int  # certification draws: n_samples per candidate eigenspace
    sectors: tuple[int, ...]


def _dsym(block: np.ndarray, k: int) -> np.ndarray:
    """dSym^k of a 2x2 matrix, its ``lift_generator`` on ``enumerate_basis(h0(), k)``:
    E12 maps |k - j - 1, j + 1> to sqrt((j + 1)(k - j)) |k - j, j>."""
    j = np.arange(k + 1)
    hop = np.sqrt((j[:-1] + 1) * (k - j[:-1]))
    return np.diag(block[0, 0] * (k - j) + block[1, 1] * j) + np.diag(block[0, 1] * hop, 1) + np.diag(block[1, 0] * hop, -1)


@lru_cache(maxsize=None)
def _component_factors(kind: str, counts: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only factorisations behind a component's candidates on a split:
    for h0 with k photons (no sl(2)), the eigenspaces of dSym^k(X), one
    column block per eigenvalue n_s - n_a, ascending; for hm with a and b
    photons on its pairs, ``(s, v)``, the singular values and right singular
    vectors (as columns) of its stacked sl(2), dSym^a(E) x 1 + 1 x dSym^b(X E X).
    The 2x2 pair blocks are those of ``family_generators``: X is h0's swap,
    and E and X E X the blocks of hm(1)'s sl(2) on its +m and -m pairs.
    Every hm(m) has these generators, so no key holds m, and a search asks
    for hm keys with a = b only: there are O(cap)."""
    if kind == "h0":
        values, vectors = np.linalg.eigh(_dsym(family_generators(h0())[1][1].real, counts[0]))
        labels = np.round(values)
        return tuple(_frozen(vectors[:, labels == v]) for v in np.unique(labels))
    a, b = counts
    pairs = [(gen[:2, :2].real, gen[2:, 2:].real) for gen in family_generators(hm(1))[0]]
    stack = np.vstack([np.kron(_dsym(e, a), np.eye(b + 1)) + np.kron(np.eye(a + 1), _dsym(xex, b)) for e, xex in pairs])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    return _frozen(s), _frozen(vh.conj().T)


def _split_candidates(space: ModeSpace, counts: tuple[int, ...], tol: float):
    """Protected candidates of one split: the Kronecker products of the
    components' candidates, h0's swap eigenspaces and each hm's sl(2) kernel:
    none at a != b, else cut at singular values ``tol`` relative to the largest."""
    options, p = [], 0
    for comp in space.components or (space,):
        if comp.kind == "h0":
            options.append(_component_factors("h0", counts[p : p + 1]))
        else:
            if counts[p] != counts[p + 1]:  # sl(2) has an invariant on Sym^a x Sym^b only when a = b
                return
            s, v = _component_factors("hm", counts[p : p + 2])
            rank = np.count_nonzero(s > tol * s[0])
            options.append((v[:, rank:],) if rank < len(s) else ())
        p += len(comp) // 2
    for factors in itertools.product(*options):
        yield _kron(factors)


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


def _ray_order(rays: list[ProtectedRay]) -> np.ndarray:
    """The stable lexicographic order of rays by the real and then the
    imaginary parts of the amplitudes rounded to 9 digits, over
    the basis states some ray occupies. Each ray's values are read on its
    support (``FockState._sparse``); the other states compare equal."""
    sparse = [ray.state._sparse() for ray in rays]
    supports = np.concatenate([support for support, _ in sparse])
    cols = np.unique(supports)
    amps = np.zeros((len(rays), len(cols)), dtype=complex)
    rows = np.repeat(np.arange(len(rays)), [len(support) for support, _ in sparse])
    amps[rows, np.searchsorted(cols, supports)] = np.concatenate([values for _, values in sparse])
    keys = np.column_stack([np.round(amps.real, 9), np.round(amps.imag, 9)])
    return np.lexsort(keys.T[::-1])


def find_protected(
    space: ModeSpace,
    n_photons: int,
    cfg: CertificationConfig = CertificationConfig(),
    sector: int | None = None,
) -> SearchResult:
    """All protected rays (and subspaces) of the N-photon space.

    Search phase, exact and sample-free: per split of the basis over the
    mode pairs, the candidates are the joint eigenspaces of the commuting
    generators within the joint kernel of the sl(2) generators
    (``family_generators``), from ``_split_candidates``; ``cfg.cluster_tol``
    is the relative rank cut of each kernel. A split with a != b photons on
    some hm component's pairs yields none, so every ray lies at m_tot = 0,
    and a ``sector`` other than 0 returns at once with no ray and no draw.
    Certification phase: each candidate is certified with cfg.n_samples
    draws of cfg's sampling class; rays are phase-fixed, with their parity.

    A ray lives on its split ``idx``: it is normalised and phase-fixed on
    that slice and held there (``FockState._on_split``), so the search
    builds no dense vector; its ``amplitudes`` are built when first read.
    Its parity compares the slice with its own entries at the mirror
    images of ``idx``, which lie in the same split at m_tot = 0. The rays
    are ordered over the union of their splits.

    The candidates are collected first. If there are any, they are
    certified in one scope that shares the stream: the draws are read once
    and lifted once per pair count, and each candidate still gets its own
    ``certify`` (or ``_certify_subspace``) call, which applies it on its
    split alone. A ``sector`` that is not an integer raises ValueError.
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

    splits = basis._splits if 0 in sectors else ()  # every ray lies at m_tot = 0
    found = [(idx, cand) for counts, idx in splits for cand in _split_candidates(space, counts, cfg.cluster_tol)]
    if not found:
        # every search of a sector other than 0 ends here, and opens no scope
        return SearchResult(rays=(), subspaces=(), verdict=Verdict.PROTECTED, samples_used=0, sectors=sectors)
    rays, subspaces, samples_used = [], [], 0
    token = _SCOPE.set(_Stream(basis, cfg))
    try:
        split_of, position = basis._split_table
        for idx, cand in found:
            samples_used += cfg.n_samples
            if cand.shape[1] == 1:
                # complex before the phase fix: its product sets the signs of the zero imaginary parts
                col = cand[:, 0].astype(complex)
                col = _phase_fixed(col / _norm(col))
                state = FockState._on_split(basis, int(split_of[idx[0]]), col)
                report = certify(state, cfg)
                if report.verdict is Verdict.PROTECTED:
                    # the mirror keeps an m_tot = 0 split
                    tau = _parity(col[position[basis._mirror[idx]]], col)
                    rays.append(ProtectedRay(state=state, m_tot=0, mirror_tau=tau, report=report))
            else:
                sub = _certify_subspace(basis, idx, cand, cfg)
                if sub is not None:
                    subspaces.append(sub)
    finally:
        _SCOPE.reset(token)
    if len(rays) > 1:
        rays = [rays[i] for i in _ray_order(rays)]
    subspaces.sort(key=lambda s: -s.dimension)
    return SearchResult(
        rays=tuple(rays),
        subspaces=tuple(subspaces),
        verdict=Verdict.PROTECTED,
        samples_used=samples_used,
        sectors=sectors,
    )


def _certify_subspace(basis, idx, cand, cfg) -> ProtectedSubspace | None:
    """Scalar-action test of a d > 1 candidate against the certification
    stream of ``cfg``: the search's shared one inside ``find_protected``."""
    vectors = np.zeros((len(basis), cand.shape[1]), dtype=complex)
    vectors[idx, :] = cand
    draws, powers = _stream(basis, cfg)
    _, residuals = _scalar_action(basis, draws, vectors, powers)
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
        overlap = abs(result.rays[0].state.overlap(expected))

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
        and not result.subspaces
        and coefficients_ok
    )
    return UniquenessReport(
        ok=ok,
        ray_count=ray_count,
        overlap=overlap,
        coefficients_ok=coefficients_ok,
        samples_used=result.samples_used,
    )
