"""Two-photon entanglement structure via the symmetric coefficient matrix.

A two-photon state is |psi> = sum_ij C_ij a_i^dag a_j^dag |0> with C
symmetric; its entanglement content is carried by the Takagi factorization
C = W diag(sigma) W^T with W unitary and sigma >= 0. The number of
nonvanishing Takagi values is the Slater rank; rank <= 2 means the state is
a single two-mode product a_u^dag a_v^dag |0>.

Takagi values equal the singular values, so they are basis invariants; the
unitary factor is built from the SVD with a blocked phase correction
(matrix square root per repeated singular value).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fock import FockBasis, FockState, enumerate_basis
from .modes import ModeSpace

__all__ = [
    "TwoPhotonMatrix",
    "SlaterReport",
    "two_photon_matrix",
    "two_photon_state",
    "takagi",
    "slater_report",
    "single_product_modes",
]

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TwoPhotonMatrix:
    """Symmetric coefficient matrix of a two-photon state over a mode space."""

    space: ModeSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        m = len(self.space)
        if mat.shape != (m, m):
            raise ValueError(f"matrix must be {m}x{m}, got {mat.shape}")
        if np.linalg.norm(mat - mat.T) > 1e-12 * max(1.0, np.linalg.norm(mat)):
            raise ValueError("two-photon coefficient matrix must be symmetric")
        object.__setattr__(self, "matrix", mat)


def _photon_modes(basis: FockBasis):
    """(i, j, weight) per state of a two-photon basis: the modes of its two
    photons and the ratio of its amplitude to C_ij, sqrt(2) if i = j, else 2."""
    for occ in basis.states:
        hot = [i for i, k in enumerate(occ) if k]
        yield (hot[0], hot[0], math.sqrt(2.0)) if len(hot) == 1 else (*hot, 2.0)


def two_photon_matrix(state: FockState) -> TwoPhotonMatrix:
    """Extract the symmetric coefficient matrix of a two-photon state."""
    basis = state.basis
    if basis.n_photons != 2:
        raise ValueError(f"state must carry exactly 2 photons, got {basis.n_photons}")
    m = len(basis.space)
    c = np.zeros((m, m), dtype=complex)
    for (i, j, weight), amp in zip(_photon_modes(basis), state.amplitudes):
        c[i, j] = c[j, i] = amp / weight
    return TwoPhotonMatrix(space=basis.space, matrix=c)


def two_photon_state(coeff: TwoPhotonMatrix) -> FockState:
    """Inverse of :func:`two_photon_matrix`: amplitudes from the coefficient matrix."""
    basis = enumerate_basis(coeff.space, 2)
    amp = np.zeros(len(basis), dtype=complex)
    for pos, (i, j, weight) in enumerate(_photon_modes(basis)):
        amp[pos] = coeff.matrix[i, j] * weight
    return FockState(basis, amp)


def _group_runs(values: np.ndarray, gap: float) -> list[slice]:
    """Contiguous index runs of (sorted, descending) values closer than gap."""
    bounds = [0]
    for i in range(1, values.size):
        if values[i - 1] - values[i] > gap:
            bounds.append(i)
    bounds.append(values.size)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def takagi(matrix: np.ndarray, group_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization of a complex symmetric matrix.

    Returns (values, W) with values the singular values in descending order,
    W unitary, and matrix = W @ diag(values) @ W.T. The unitary factor comes
    from the SVD; within each group of repeated singular values the left and
    right singular bases differ by a symmetric unitary whose principal square
    root supplies the phase correction.
    """
    c = np.asarray(matrix, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"takagi needs a square matrix, got shape {c.shape}")
    if np.linalg.norm(c - c.T) > 1e-12 * max(1.0, np.linalg.norm(c)):
        raise ValueError("takagi needs a symmetric matrix (C = C^T within 1e-12)")
    d = c.shape[0]
    u, s, vh = np.linalg.svd(c)
    # g is block-diagonal over equal singular values and symmetric on
    # blocks with sigma > 0
    g = u.conj().T @ vh.T
    w = np.zeros((d, d), dtype=complex)
    gap = group_tol * max(1.0, float(s[0]) if s.size else 1.0)
    for run in _group_runs(s, gap):
        block = g[run, run]
        if block.shape == (1, 1):
            root = np.array([[cmath.sqrt(block[0, 0])]])
        else:
            root = scipy.linalg.sqrtm(block.T).astype(complex)
        w[:, run] = u[:, run] @ root
    return s, w


@dataclass(frozen=True, eq=False)
class SlaterReport:
    """Slater-rank diagnostics of a two-photon state."""

    values: np.ndarray  # Takagi values, descending
    rank: int
    is_single_product: bool
    rank_tol: float


def _check_rank_tol(rank_tol: float) -> None:
    if not (math.isfinite(rank_tol) and rank_tol >= 0):
        raise ValueError(f"rank_tol must be finite and >= 0, got {rank_tol}")


def slater_report(state: FockState, rank_tol: float = DEFAULT_RANK_TOL) -> SlaterReport:
    """Takagi values, Slater rank and single-product flag of a two-photon state."""
    _check_rank_tol(rank_tol)
    coeff = two_photon_matrix(state)
    values, _ = takagi(coeff.matrix)
    rank = int(np.sum(values > rank_tol))
    return SlaterReport(
        values=values,
        rank=rank,
        is_single_product=rank <= 2,
        rank_tol=rank_tol,
    )


def single_product_modes(state: FockState, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Mode vectors (u, v) with |psi> proportional to a_u^dag a_v^dag |0>.

    Only rank <= 2 states factor this way; the construction folds the two
    leading Takagi directions x, y into u, v = sqrt(s1) x +- i sqrt(s2) y,
    so that the coefficient matrix equals (u v^T + v u^T) / 2.
    """
    _check_rank_tol(rank_tol)
    coeff = two_photon_matrix(state)
    values, w = takagi(coeff.matrix)
    if int(np.sum(values > rank_tol)) > 2:
        raise ValueError("state has Slater rank above 2; no single-product form exists")
    x = w[:, 0] * math.sqrt(float(values[0]))
    y = (w[:, 1] * math.sqrt(float(values[1]))) if values.size > 1 else np.zeros_like(x)
    u = x + 1j * y
    v = x - 1j * y
    return u, v
