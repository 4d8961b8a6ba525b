"""Scattering matrices compatible with the cylindrical symmetry.

A matrix commutes with the rotation generator and the mirror iff it has the
block shape

* on the m = 0 doublet:  [[a, b], [b, a]];
* on a four-mode family: block-diag(S_m, S_-m) with S_-m = X S_m X, where X
  swaps the two helicities within a block;
* on a direct sum: one such block per component.

``ScatterSampler`` draws random members of the family (Haar-unitary or
subunitary) with a genericity floor on the block determinant and on the
eigenvalue gap, so that certification sees well-separated spectra. Streams
are deterministic in the seed. Each 2x2 block is drawn and tested in closed
form, in plain complex scalars: the determinant, the eigenvalue gap
|sqrt(tr^2 - 4 det)|, sigma_max from the Frobenius norm and |det| (see
``_sigma_max``), and the Haar unitary as the Q of a positive-diagonal QR,
whose second column is fixed by the first and det(z). These match the
LAPACK formulas (SVD, LU, eigensolver, Householder QR) to rounding and
consume the generator in the same order. ``family_generators`` is a basis
of the family's Lie algebra, which the exact protected-state search lifts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .modes import ModeSpace, mirror_eigenbasis

__all__ = [
    "SymmetricScattering",
    "ScatterSampler",
    "ValidationReport",
    "GenericityError",
    "validate_scattering",
    "eigen_modes",
    "EigenMode",
    "family_generators",
]


_SQRT2 = math.sqrt(2.0)


class GenericityError(RuntimeError):
    """Raised when the sampler cannot reach the genericity floor."""


@dataclass(frozen=True)
class SymmetricScattering:
    """A scattering matrix together with its mode space and unitarity class."""

    space: ModeSpace
    matrix: np.ndarray
    unitary: bool

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        m = len(self.space)
        if mat.shape != (m, m):
            raise ValueError(f"matrix must be {m}x{m}, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    def block(self, component: int = 0) -> np.ndarray:
        """The 2x2 positive-m block of a component (the full matrix on h0)."""
        offset = 0
        comps = self.space.components if self.space.kind == "sum" else (self.space,)
        for i, sp in enumerate(comps):
            if i == component:
                # full matrix on h0; top-left (positive-m) 2x2 block on hm
                return self.matrix[offset : offset + 2, offset : offset + 2]
            offset += len(sp)
        raise ValueError(f"no component {component}")


def _commutant_projection(matrix: np.ndarray, space: ModeSpace) -> np.ndarray:
    """Orthogonal projection onto matrices commuting with Jz and the mirror."""
    jz = np.diag(space.jz)
    mask = jz[:, None] == jz[None, :]
    masked = np.where(mask, matrix, 0.0)
    mir = space.mirror
    return 0.5 * (masked + mir @ masked @ mir)


@dataclass(frozen=True)
class ValidationReport:
    """Frobenius-norm diagnostics of symmetry compliance."""

    jz_commutator: float
    mirror_commutator: float
    shape_residual: float
    sigma_excess: float
    tol: float

    @property
    def ok(self) -> bool:
        return (
            self.jz_commutator < self.tol
            and self.mirror_commutator < self.tol
            and self.shape_residual < self.tol
            and self.sigma_excess <= self.tol
        )


def validate_scattering(matrix: np.ndarray, space: ModeSpace, tol: float = 1e-12) -> ValidationReport:
    """Check a matrix against the symmetric family on a mode space."""
    a = np.asarray(matrix, dtype=complex)
    m = len(space)
    if a.shape != (m, m):
        raise ValueError(f"matrix must be {m}x{m}, got {a.shape}")
    jz, mir = space.jz, space.mirror
    jz_comm = float(np.linalg.norm(a @ jz - jz @ a))
    mir_comm = float(np.linalg.norm(a @ mir - mir @ a))
    shape_res = float(np.linalg.norm(a - _commutant_projection(a, space)))
    sigma_excess = float(np.linalg.norm(a, 2) - 1.0)
    return ValidationReport(jz_comm, mir_comm, shape_res, sigma_excess, tol)


@dataclass
class ScatterSampler:
    """Seeded random source of symmetric scattering matrices.

    Two samplers built from the same seed produce identical streams; repeated
    ``sample`` calls on one sampler walk the stream. Draws failing the
    genericity floor (block determinant or eigenvalue gap too small) are
    rejected and redrawn, up to ``max_attempts``.
    """

    seed: int = 0
    unitary: bool = True
    genericity_floor: float = 1e-3
    max_attempts: int = 100
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.genericity_floor < 1.0:
            raise ValueError("genericity_floor must lie in (0, 1)")
        self._rng = np.random.default_rng(self.seed)

    def clone(self, seed: int) -> "ScatterSampler":
        """Independent sampler with a different seed, same configuration."""
        return ScatterSampler(
            seed=seed,
            unitary=self.unitary,
            genericity_floor=self.genericity_floor,
            max_attempts=self.max_attempts,
        )

    def sample(self, space: ModeSpace) -> SymmetricScattering:
        """Draw one generic member of the symmetric family on ``space``."""
        comps = space.components if space.kind == "sum" else (space,)
        blocks = [self._sample_block(sp) for sp in comps]
        mat = _assemble(space, comps, blocks)
        return SymmetricScattering(space=space, matrix=mat, unitary=self.unitary)

    # -- internals ---------------------------------------------------------

    def _sample_block(self, space: ModeSpace) -> np.ndarray:
        floor = self.genericity_floor
        for _ in range(self.max_attempts):
            if space.kind == "h0":
                if self.unitary:
                    th1, th2 = self._rng.uniform(0.0, 2.0 * math.pi, size=2)
                    s_plus, s_minus = cmath.exp(1j * th1), cmath.exp(1j * th2)
                    alpha, beta = (s_plus + s_minus) / 2.0, (s_plus - s_minus) / 2.0
                else:
                    alpha, beta = self._gaussian(2)
                a, b, c, d = alpha, beta, beta, alpha
            elif self.unitary:
                a, b, c, d = self._haar_2x2()
            else:
                a, b, c, d = self._gaussian(4)
            if not self.unitary:
                scale = self._rng.uniform(floor, 1.0) / _sigma_max(a, b, c, d)
                a, b, c, d = a * scale, b * scale, c * scale, d * scale
            det = a * d - b * c
            # eigenvalue gap |nu_1 - nu_2| = |sqrt(tr^2 - 4 det)|
            if abs(det) > floor and abs(cmath.sqrt((a + d) ** 2 - 4.0 * det)) > floor:
                return np.array([[a, b], [c, d]])
        raise GenericityError(
            f"no generic sample within {self.max_attempts} attempts (floor {floor})"
        )

    def _gaussian(self, n: int) -> list[complex]:
        z = self._rng.standard_normal(2 * n).tolist()
        return [complex(re, im) / _SQRT2 for re, im in zip(z[:n], z[n:])]

    def _haar_2x2(self) -> tuple[complex, complex, complex, complex]:
        """Q of the QR decomposition of a complex Gaussian 2x2 matrix, with
        the phases fixed so that R has a positive diagonal (Q is then Haar
        distributed). Row-major entries."""
        z00, z01, z10, z11 = self._gaussian(4)
        norm = math.hypot(abs(z00), abs(z10))
        q00, q10 = z00 / norm, z10 / norm
        # the second column is orthogonal to the first; its phase u makes
        # r_11 = q_1^dag z_1 = conj(u) det(z) / |z_0| positive
        w = z00 * z11 - z01 * z10
        u = w / abs(w)
        return q00, -u * q10.conjugate(), q10, u * q00.conjugate()


def _sigma_max(a: complex, b: complex, c: complex, d: complex) -> float:
    """Largest singular value of [[a, b], [c, d]].

    sigma_max +- sigma_min = sqrt(|A|_F^2 +- 2 |det A|), and with
    u = det / |det| each radicand is a sum of squares,
    |A|_F^2 +- 2 |det| = |a +- u conj(d)|^2 + |b -+ u conj(c)|^2,
    so neither cancels.
    """
    det = a * d - b * c
    u = det / abs(det) if det else 1.0
    ud, uc = u * d.conjugate(), u * c.conjugate()
    return (math.hypot(abs(a + ud), abs(b - uc)) + math.hypot(abs(a - ud), abs(b + uc))) / 2.0


def _assemble(space: ModeSpace, comps, blocks) -> np.ndarray:
    m = len(space)
    mat = np.zeros((m, m), dtype=complex)
    offset = 0
    for sp, block in zip(comps, blocks):
        if sp.kind == "h0":
            mat[offset : offset + 2, offset : offset + 2] = block
            offset += 2
        else:
            mat[offset : offset + 2, offset : offset + 2] = block
            mat[offset + 2 : offset + 4, offset + 2 : offset + 4] = block[::-1, ::-1]  # X block X
            offset += 4
    return mat


def family_generators(space: ModeSpace) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A basis ``(sl2, commuting)`` of the family's Lie algebra.

    ``sl2`` holds E12, E21 and E11 - E22 of every hm block; ``commuting``
    holds every component's identity and, on h0, the swap X.
    """
    comps = space.components if space.kind == "sum" else (space,)
    sl2, commuting = [], []
    for k, sp in enumerate(comps):
        def embed(*block):
            blocks = [np.reshape(block, (2, 2)) * (c == k) for c in range(len(comps))]
            return _assemble(space, comps, blocks)

        commuting.append(embed(1, 0, 0, 1))
        if sp.kind == "h0":
            commuting.append(embed(0, 1, 1, 0))
        else:
            sl2 += [embed(0, 1, 0, 0), embed(0, 0, 1, 0), embed(1, 0, 0, -1)]
    return sl2, commuting


@dataclass(frozen=True)
class EigenMode:
    """One eigenvalue of the symmetric family with its single-particle eigenvectors."""

    value: complex
    vectors: np.ndarray  # (M, k) orthonormal columns in the full mode space
    mirror_tau: int | None = None  # mirror parity, m = 0 family only


def eigen_modes(scattering: SymmetricScattering, gap_floor: float = 1e-12) -> list[EigenMode]:
    """Eigenvalues and eigenvectors of a symmetric scattering matrix.

    On the m = 0 doublet the eigenvectors are the fixed mirror eigenvectors
    (1, 1)/sqrt(2) and (1, -1)/sqrt(2) with eigenvalues a + b and a - b. On a
    four-mode family each eigenvalue of the positive-m block appears twice,
    with the negative-m eigenvector obtained by swapping helicities. Entries
    are sorted by descending real part, then descending imaginary part.
    """
    space = scattering.space
    if space.kind == "sum":
        raise ValueError("eigen_modes acts on a single h0/hm family")
    a = scattering.matrix
    if space.kind == "h0":
        alpha, beta = a[0, 0], a[0, 1]
        if abs(2.0 * beta) <= gap_floor:
            raise ValueError("degenerate eigenvalues: |s+ - s-| below the gap floor")
        u = mirror_eigenbasis(space).astype(complex)
        modes = [
            EigenMode(alpha + beta, u[:, :1], mirror_tau=1),
            EigenMode(alpha - beta, u[:, 1:], mirror_tau=-1),
        ]
    else:
        block = a[:2, :2]
        evals, evecs = np.linalg.eig(block)
        if abs(evals[0] - evals[1]) <= gap_floor:
            raise ValueError("degenerate eigenvalues: |nu+ - nu-| below the gap floor")
        modes = []
        for k in range(2):
            v = evecs[:, k] / np.linalg.norm(evecs[:, k])
            up = np.zeros((4, 1), dtype=complex)
            up[:2, 0] = v
            down = np.zeros((4, 1), dtype=complex)
            down[2:, 0] = v[::-1]  # helicity-swapped partner in the -m block
            modes.append(EigenMode(evals[k], np.hstack([up, down])))
    modes.sort(key=lambda em: (-em.value.real, -em.value.imag))
    return modes
