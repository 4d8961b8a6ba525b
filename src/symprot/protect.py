"""Certification and discovery of scattering-protected states.

A state is protected when every scattering matrix of the symmetric family
maps it to a scalar multiple of itself. ``certify`` tests a given state
against a stream of generic random samples. ``find_protected`` discovers all
protected rays (and any higher-dimensional protected subspaces) of an
N-photon space exactly, sector by sector in total angular momentum. The
family is Zariski-dense in GL(2) on each hm block and in the torus spanned
by I and X on h0, so a state is protected iff it spans a one-dimensional
representation of the family's Lie algebra (``family_generators``): the
lifted sl(2) generators annihilate it and it is an eigenvector of the lifted
commuting ones. The search finds these spaces without random draws, then
certifies each one.

One kernel, ``_scalar_action``, applies lifted family members to states:
it lifts a stack of matrices a group at a time and applies each group with
one batched matmul. It serves ``certify`` (on the draws of ``_draws``) and
``dfs.transmit_bins`` (on the scatterers of its time bins).

The search reads tables built once per (space, N): the shared basis of
``enumerate_basis`` with its sector split and mirror permutation, and the
sector blocks of the lifted family generators (``_generator_blocks``, cached
with the same bound as the bases). Per call it only takes the per-sector
kernels and eigenspaces and certifies the candidates; nothing that depends
on the configuration or on random draws is cached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    _CACHED_BASES,
    FockBasis,
    FockState,
    _frozen,
    enumerate_basis,
    lift,
    lift_generator,
    lift_mirror,  # noqa: F401 -- a traced call site of perfbench/tracing.py
    sector_split,
)
from .modes import ModeSpace, hm
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

# lifted entries per group of the apply kernel: bounds its working memory
_GROUP_ENTRIES = 1 << 14


class Verdict(enum.Enum):
    PROTECTED = "protected"
    NOT_PROTECTED = "not_protected"


@dataclass(frozen=True)
class CertificationConfig:
    """Certification draws and pass mark; ``cluster_tol`` is the relative
    singular-value cut of find_protected's generator kernel."""

    n_samples: int = 64
    residual_tol: float = 1e-10
    cluster_tol: float = 1e-8
    seed: int = 0
    unitary: bool = False  # sampling class used for certification draws
    genericity_floor: float = 1e-3

    def __post_init__(self):
        if self.n_samples < 3:
            raise ValueError("n_samples must be at least 3")
        if not 0 < self.residual_tol < 1:
            raise ValueError("residual_tol must lie in (0, 1)")
        if not 0 < self.cluster_tol < 1:
            raise ValueError("cluster_tol must lie in (0, 1)")


@dataclass(frozen=True)
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
    return np.array([sampler.sample(space).matrix for _ in range(cfg.n_samples)])


def _groups(count: int, basis: FockBasis) -> list[slice]:
    """Consecutive slices of a stack of ``count`` lifts, each of at most
    ``_GROUP_ENTRIES`` lifted entries and at least one lift; an empty stack
    is one empty group."""
    step = max(1, _GROUP_ENTRIES // len(basis) ** 2)
    return [slice(start, start + step) for start in range(0, max(count, 1), step)]


def _scalar_action(basis: FockBasis, matrices: np.ndarray, vectors: np.ndarray):
    """Per-matrix eigenvalues and residuals of lift(S_i) on the span of ``vectors``.

    ``matrices`` is a (k, M, M) stack and ``vectors`` holds d orthonormal
    columns V. The eigenvalue is lam_i = tr(V^dag lift(S_i) V) / d and the
    residual is the Frobenius norm of lift(S_i) V - lam_i V. Memory stays at
    one group of lifts whatever k is.
    """
    images = np.empty((len(matrices),) + vectors.shape, dtype=complex)
    for group in _groups(len(matrices), basis):
        np.matmul(lift(matrices[group], basis).matrix, vectors, out=images[group])
    eigenvalues = np.einsum("nd,knd->k", vectors.conj(), images) / vectors.shape[1]
    residuals = np.linalg.norm(images - eigenvalues[:, None, None] * vectors, axis=(1, 2))
    return eigenvalues, residuals


def certify(state: FockState, cfg: CertificationConfig = CertificationConfig()) -> ProtectionReport:
    """Test a normalized state against cfg.n_samples generic scattering lifts.

    Sample i is the i-th draw of ScatterSampler(seed=cfg.seed,
    unitary=cfg.unitary, genericity_floor=cfg.genericity_floor) on the
    state's mode space; this correspondence is part of the contract so
    callers can regenerate the stream and inspect individual samples.
    """
    if not state.is_normalized():
        raise ValueError(f"state must be normalized (norm {state.norm:.3e})")
    eigenvalues, residuals = _scalar_action(
        state.basis, _draws(state.basis.space, cfg), state.amplitudes[:, None]
    )
    worst = int(np.argmax(residuals))
    protected = residuals[worst] < cfg.residual_tol
    return ProtectionReport(
        verdict=Verdict.PROTECTED if protected else Verdict.NOT_PROTECTED,
        worst_residual=float(residuals[worst]),
        eigenvalues=eigenvalues,
        residuals=residuals,
        witness_sample_index=None if protected else worst,
    )


@dataclass(frozen=True)
class ProtectedRay:
    """A certified one-dimensional protected subspace."""

    state: FockState  # phase-fixed: first significant amplitude real positive
    m_tot: int
    mirror_tau: int | None  # mirror parity; defined on the m_tot = 0 sector
    report: ProtectionReport


@dataclass(frozen=True)
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


@lru_cache(maxsize=_CACHED_BASES)
def _generator_blocks(basis: FockBasis) -> dict[int, tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Sector blocks of the lifted family generators, built once per basis.

    Maps each m_tot to (the sl(2) generators' blocks stacked vertically,
    the commuting generators' blocks). Family members conserve m_tot, so
    every lifted generator is block diagonal over the sectors; generators
    are lifted one at a time and only their blocks kept. The blocks are
    read-only, since every search on the basis shares them.
    """
    sectors = basis._sectors
    blocks = {m: ([], []) for m in sectors}
    for kind, gens in enumerate(family_generators(basis.space)):
        for gen in gens:
            full = lift_generator(gen, basis).matrix
            for m, idx in sectors.items():
                blocks[m][kind].append(full[np.ix_(idx, idx)])
    return {
        m: (
            _frozen(np.vstack(sl2) if sl2 else np.zeros((0, len(sectors[m])), dtype=complex)),
            tuple(_frozen(gen) for gen in commuting),
        )
        for m, (sl2, commuting) in blocks.items()
    }


def _joint_eigenspaces(sl2, commuting, dim: int, tol: float):
    """Protected candidates of one m_tot sector, as orthonormal column blocks.

    ``sl2`` stacks the sector blocks of the lifted sl(2) generators
    vertically and ``commuting`` holds those of the commuting ones
    (``_generator_blocks``). The joint kernel of ``sl2`` comes from one
    thin SVD, cutting singular values at ``tol`` relative to the largest.
    The kernel is then split into joint eigenspaces of the commuting
    Hermitian generators, whose lifted spectra are integers.
    """
    spaces = [np.eye(dim, dtype=complex)]
    if len(sl2):
        _, s, vh = np.linalg.svd(sl2, full_matrices=False)
        rank = int(np.sum(s > tol * s[0]))
        spaces = [vh[rank:].conj().T]
    for gen in commuting:
        split = []
        for q in spaces:
            values, vecs = np.linalg.eigh(q.conj().T @ gen @ q)
            labels = np.round(values)
            split += [q @ vecs[:, labels == v] for v in np.unique(labels)]
        spaces = split
    return spaces


def _ray_sort_key(state: FockState, m_tot: int):
    amps = state.amplitudes
    return (-m_tot,) + tuple(np.round(amps.real, 9)) + tuple(np.round(amps.imag, 9))


def find_protected(
    space: ModeSpace,
    n_photons: int,
    cfg: CertificationConfig = CertificationConfig(),
    sector: int | None = None,
) -> SearchResult:
    """All protected rays (and subspaces) of the N-photon space.

    Search phase, exact and sample-free: per total-angular-momentum sector,
    the candidates are the joint eigenspaces of the lifted commuting
    generators within the joint kernel of the lifted sl(2) generators
    (``family_generators``); ``cfg.cluster_tol`` is the relative rank cut
    of the kernel. Certification phase: each candidate is certified against
    cfg's sampling class with cfg.n_samples draws; rays are phase-fixed and
    carry their mirror parity on the m_tot = 0 sector.
    """
    basis = enumerate_basis(space, n_photons)
    sectors = sector_split(basis)
    if sector is not None:
        if sector not in sectors:
            raise ValueError(f"no m_tot = {sector} sector at N = {n_photons}")
        sectors = {sector: sectors[sector]}
    blocks = _generator_blocks(basis)

    rays: list[ProtectedRay] = []
    subspaces: list[ProtectedSubspace] = []
    dim = len(basis)
    samples_used = 0
    for m, idx in sectors.items():
        for cand in _joint_eigenspaces(*blocks[m], len(idx), cfg.cluster_tol):
            samples_used += cfg.n_samples
            if cand.shape[1] == 1:
                amps = np.zeros(dim, dtype=complex)
                amps[idx] = cand[:, 0]
                state = FockState(basis, amps).normalized().phase_fixed()
                report = certify(state, cfg)
                if report.verdict is not Verdict.PROTECTED:
                    continue
                tau = _mirror_parity_of(state) if m == 0 else None
                rays.append(ProtectedRay(state=state, m_tot=m, mirror_tau=tau, report=report))
            else:
                sub = _certify_subspace(basis, idx, cand, m, cfg)
                if sub is not None:
                    subspaces.append(sub)
    rays.sort(key=lambda r: _ray_sort_key(r.state, r.m_tot))
    subspaces.sort(key=lambda s: (-s.m_tot, -s.dimension))
    return SearchResult(
        rays=tuple(rays),
        subspaces=tuple(subspaces),
        verdict=Verdict.PROTECTED,
        samples_used=samples_used,
        sectors=tuple(sectors),
    )


def _mirror_parity_of(state: FockState, tol: float = 1e-10) -> int | None:
    # the mirror permutes basis states: lift(mirror) psi = +-psi iff psi[perm] = +-psi
    image = state.amplitudes[state.basis._mirror]
    if np.linalg.norm(image - state.amplitudes) < tol:
        return 1
    if np.linalg.norm(image + state.amplitudes) < tol:
        return -1
    return None


def _certify_subspace(basis, idx, cand, m_tot, cfg) -> ProtectedSubspace | None:
    """Scalar-action test of a d > 1 candidate against fresh generic samples."""
    vectors = np.zeros((len(basis), cand.shape[1]), dtype=complex)
    vectors[idx, :] = cand
    _, residuals = _scalar_action(basis, _draws(basis.space, cfg), vectors)
    worst = float(np.max(residuals))
    if worst >= cfg.residual_tol:
        return None
    return ProtectedSubspace(basis=basis, vectors=vectors, m_tot=m_tot, worst_residual=worst)


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
