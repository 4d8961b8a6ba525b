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
are deterministic in the seed, and ``sample(space, n)`` returns the next n
draws as one stack, bit for bit the matrices of n single draws. Every
attempt at a block draws a fixed set of numbers whatever its verdict, so a
batch first draws the numbers of many attempts, then forms and tests their
blocks together and keeps the accepted ones in order. On a direct sum of
h0 and hm components a rejection changes the kind of every later attempt,
and each draw takes its components in turn. The blocks come in closed
form: the determinant, the eigenvalue gap sqrt(|tr^2 - 4 det|), sigma_max
from the Frobenius norm and |det| (see ``_sigma_max``), and the Haar
unitary as the Q of a positive-diagonal QR, whose second column is fixed
by the first and det(z). These match the LAPACK formulas (SVD, LU,
eigensolver, Householder QR) to rounding and consume the generator in the
same order. ``family_generators`` is a basis of the family's Lie algebra,
which the exact protected-state search lifts.

A seeded batch is drawn once per process. A sampler with an integer seed
seeds its generator on first use, and ``sample(space, n)`` on one that
has not drawn yet reads the stack from ``_seeded_batch``, an
``lru_cache`` keyed by the seed, the sampler's ``unitary``,
``genericity_floor`` and ``max_attempts``, the space and n, which draws
it once on a fresh sampler and keeps it read-only with the generator's
state after the draw. The sampler gets a writable copy without seeding a
generator, and that end state becomes its generator's start when it is
first used, so the stack and every later draw are bit for bit those of
drawing again. Single draws, batches after a draw, batches of samplers
seeded otherwise (``None``, a ``SeedSequence``), stacks over
``_MEMO_STACK_BYTES`` and batches that raise GenericityError are never
kept. The cache holds the ``_MEMO_ENTRIES`` most recently used stacks,
at most 8 MiB of them.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

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


def _in_unit_interval(value) -> bool:
    """0 < value < 1, and False for a value that does not compare with floats
    (a check on ``numbers.Real`` would cost ten times the comparison)."""
    try:
        return 0.0 < value < 1.0
    except TypeError:
        return False


@dataclass(frozen=True, eq=False)
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
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
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
    ``sample`` calls on one sampler walk the stream, and ``sample(space, n)``
    takes the next n draws at once, exactly as n single calls would. Draws
    failing the genericity floor (block determinant or eigenvalue gap too
    small) are rejected and redrawn, up to ``max_attempts``, an integer of
    at least 1. ``seed`` is anything ``np.random.default_rng`` takes; an
    integer seed is checked here and seeds the generator on first use.
    """

    seed: int = 0
    unitary: bool = True
    genericity_floor: float = 1e-3
    max_attempts: int = 100
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False)
    _resume: dict | None = field(default=None, init=False, repr=False)  # a kept batch's end state

    def __post_init__(self):
        if not _in_unit_interval(self.genericity_floor):
            raise ValueError(f"genericity_floor must lie in (0, 1), got {self.genericity_floor!r}")
        try:
            self.max_attempts = int(operator.index(self.max_attempts))
        except TypeError:
            raise ValueError(f"max_attempts must be an integer, got {self.max_attempts!r}") from None
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not isinstance(self.unitary, (bool, np.bool_)):
            raise ValueError(f"unitary must be a bool, got {self.unitary!r}")
        self.unitary = bool(self.unitary)
        try:
            if operator.index(self.seed) < 0:
                raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        except TypeError:
            # None, a SeedSequence or a sequence of ints: seeded now, its batches never kept
            self._gen = np.random.default_rng(self.seed)

    @property
    def _rng(self) -> np.random.Generator:
        """The generator: seeded on first use, and set to the end state of
        the kept batch this sampler read, if it read one."""
        if self._gen is None:
            self._gen = np.random.default_rng(self.seed)
            if self._resume is not None:
                self._gen.bit_generator.state = self._resume
        return self._gen

    def clone(self, seed: int) -> "ScatterSampler":
        """Independent sampler with a different seed, same configuration."""
        return ScatterSampler(
            seed=seed,
            unitary=self.unitary,
            genericity_floor=self.genericity_floor,
            max_attempts=self.max_attempts,
        )

    def sample(self, space: ModeSpace, size: int | None = None) -> SymmetricScattering | np.ndarray:
        """Draw generic members of the symmetric family on ``space``.

        Without ``size``, one ``SymmetricScattering``; with it, the
        (size, M, M) complex stack of the next ``size`` draws, which
        consumes the generator as ``size`` single calls do and holds the
        same matrices bit for bit. A single draw is a batch of one.
        GenericityError comes at the draw where single calls raise it,
        with the generator left where they leave it.

        The generator is seeded on the sampler's first draw, not at its
        construction. A batch from the seed is drawn once per process: on
        a sampler with an integer seed that has not drawn yet, the call
        returns a writable copy of ``_seeded_batch``'s stack for the seed,
        ``unitary``, ``genericity_floor``, ``max_attempts``, ``space`` and
        ``size`` without seeding a generator; the kept end state becomes
        the generator's start when it is first used. Single draws, batches
        after a draw or a read, batches of samplers not seeded by an
        integer, stacks over ``_MEMO_STACK_BYTES`` and failed batches are
        drawn on this sampler's generator and not kept. The cache holds
        the ``_MEMO_ENTRIES`` most recently used stacks.
        """
        if size is None:
            return SymmetricScattering(space=space, matrix=self._draw(space, 1)[0], unitary=self.unitary)
        n = operator.index(size)
        if n < 0:
            raise ValueError(f"size must be non-negative, got {n}")
        if self._gen is None and self._resume is None and n * len(space) ** 2 * 16 <= _MEMO_STACK_BYTES:
            try:
                stack, self._resume = _seeded_batch(
                    operator.index(self.seed), self.unitary, self.genericity_floor, self.max_attempts, space, n
                )
                return stack.copy()
            except GenericityError:
                pass  # drawn again below, so this generator stops where single draws stop
        return self._draw(space, n)

    # -- internals ---------------------------------------------------------

    def _draw(self, space: ModeSpace, n: int) -> np.ndarray:
        """The (n, M, M) stack of the next n draws on this sampler's generator."""
        comps = space.components if space.kind == "sum" else (space,)
        blocks = self._stream([sp.kind for sp in comps], n)
        return _assemble(space, comps, blocks.reshape(n, len(comps), 2, 2))

    def _stream(self, kinds: list[str], n: int, run: int = 0) -> np.ndarray:
        """The blocks of the next n draws on components of these kinds, as an
        (n * len(kinds), 2, 2) stack in draw, then component order.

        ``run`` counts the rejections the first block has already had.
        Every attempt draws the same numbers whatever its verdict. So when
        all components share a kind, one round draws an attempt per block,
        forms and tests them all at once in ``_formulas`` and keeps the
        accepted ones in order; the rejected ones are drawn again as a
        stream of their own. At the attempt that makes ``max_attempts``
        rejections in a row, the generator is rewound to just after it,
        where single draws stop, and GenericityError raised. Mixed kinds,
        where a rejection changes the kind of every later attempt, and
        fewer than ``_BATCH`` blocks go attempt by attempt on Python scalars.
        """
        count = n * len(kinds)
        if count < _BATCH or len(set(kinds)) > 1:
            return self._one_by_one(kinds, n, run)
        kind, bg = kinds[0], self._rng.bit_generator
        start = bg.state
        raw = self._attempts(kind, count)
        *entries, ok = self._formulas(kind, list(raw.T))
        blocks = np.array(entries).T.reshape(-1, 2, 2)
        if ok.all():
            return blocks
        at = np.arange(count)
        # rejections in a row up to each attempt
        streak = at - np.maximum.accumulate(np.where(ok, at, -1 - run))
        out = np.flatnonzero(streak >= self.max_attempts)
        if len(out):
            bg.state = start
            self._attempts(kind, int(out[0]) + 1)
            raise self._exhausted()
        rest = self._stream([kind], count - np.count_nonzero(ok), int(streak[-1]))
        return np.concatenate([blocks[ok], rest])

    def _one_by_one(self, kinds: list[str], n: int, run: int = 0) -> np.ndarray:
        """``_stream`` for mixed kinds or few blocks: attempt by attempt on Python scalars."""
        entries = []
        for _ in range(n):
            for kind in kinds:
                while True:
                    *entry, ok = self._formulas(kind, self._attempts(kind, 1)[0].tolist())
                    if ok:
                        break
                    run += 1
                    if run >= self.max_attempts:
                        raise self._exhausted()
                entries.append(entry)
                run = 0
        return np.array(entries, dtype=complex).reshape(-1, 2, 2)

    def _exhausted(self) -> GenericityError:
        return GenericityError(f"no generic sample within {self.max_attempts} attempts (floor {self.genericity_floor})")

    def _attempts(self, kind: str, count: int) -> np.ndarray:
        """The generator's numbers for ``count`` attempts, a row each; only
        this method calls the generator."""
        rng = self._rng
        if kind == "h0" and self.unitary:
            return rng.random((count, 2))  # two phases over 2 pi
        # the real, then the imaginary parts of a complex Gaussian pair or 2x2
        normals = 4 if kind == "h0" else 8
        if self.unitary:
            return rng.standard_normal((count, normals))
        raw = np.empty((count, normals + 1))
        for j in range(count):
            rng.standard_normal(out=raw[j, :normals])
            raw[j, normals] = rng.random()  # then the uniform of the scale
        return raw

    def _formulas(self, kind: str, cols):
        """Entries a, b, c, d of attempts and their genericity verdicts,
        elementwise over the columns of their raw numbers."""
        floor = self.genericity_floor
        if kind == "h0" and self.unitary:
            # s+ and s-; rng.uniform(0, 2 pi) is 2 pi * rng.random()
            s_plus, s_minus = (_exp_i(_TWO_PI * theta) for theta in cols)
            z = (s_plus + s_minus) * 0.5, (s_plus - s_minus) * 0.5
        else:
            half = len(cols) // 2
            z = [re / _SQRT2 + 1j * (im / _SQRT2) for re, im in zip(cols[:half], cols[half : 2 * half])]
        if kind == "h0":
            alpha, beta = z
            a, b, c, d = alpha, beta, beta, alpha
        else:
            a, b, c, d = _haar(*z) if self.unitary else z
        det = _mul(a, d) - _mul(b, c)
        if not self.unitary:
            # rng.uniform(floor, 1.0) is floor + (1 - floor) * rng.random()
            scale = (floor + (1.0 - floor) * cols[-1]) / _sigma_max(a, b, c, d, det)
            a, b, c, d, det = a * scale, b * scale, c * scale, d * scale, det * (scale * scale)
        # eigenvalue gap |nu_1 - nu_2| = |sqrt(tr^2 - 4 det)| = sqrt(|tr^2 - 4 det|)
        tr = a + d
        gap = _sqrt(_sqrt(_abs2(_mul(tr, tr) - 4.0 * det)))
        return a, b, c, d, (_sqrt(_abs2(det)) > floor) & (gap > floor)


_MEMO_ENTRIES = 64  # seeded batch draws kept by ScatterSampler.sample
_MEMO_STACK_BYTES = 128 << 10  # the largest stack kept: 8 MiB in all at most


@lru_cache(maxsize=_MEMO_ENTRIES)
def _seeded_batch(seed: int, unitary: bool, floor: float, attempts: int, space: ModeSpace, n: int):
    """The read-only stack of the first n draws of a sampler with these
    settings, and its generator's state after them."""
    sampler = ScatterSampler(seed, unitary, floor, attempts)
    stack = sampler._draw(space, n)
    stack.setflags(write=False)
    return stack, sampler._rng.bit_generator.state


_TWO_PI = 2.0 * math.pi
_BATCH = 8  # fewer blocks cost more in NumPy's per-call overhead than on scalars

# The 2x2 formulas act elementwise on complex Python scalars or arrays.
# They add, subtract, conjugate and scale by reals natively, but multiply
# and take moduli through real and imaginary parts, with +, -, *, / and
# sqrt alone: IEEE rounds those alike in NumPy and in Python floats, where
# complex products may be fused or take other routes. exp(i theta) is
# cmath.exp on a scalar and np.exp on an array, both the C library's cos
# and sin of theta. So an attempt gives the same bits on scalars, free of
# NumPy's per-call cost, as in a batch.


def _sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _exp_i(theta):
    return cmath.exp(1j * theta) if isinstance(theta, float) else np.exp(1j * theta)


def _mul(x, y):
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return (xr * yr - xi * yi) + 1j * (xr * yi + xi * yr)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _phase(w):
    """w / |w| elementwise, and 1 where w = 0."""
    r = _sqrt(_abs2(w))
    zero = r == 0
    return (w + zero) * (1.0 / (r + zero))


def _haar(z00, z01, z10, z11):
    """Q of the QR decomposition of the complex Gaussian [[z00, z01], [z10, z11]],
    with the phases fixed so that R has a positive diagonal (Q is then Haar
    distributed; Mezzadri, Notices AMS 54 (2007) 592). Row-major entries."""
    inv = 1.0 / _sqrt(_abs2(z00) + _abs2(z10))
    q00, q10 = z00 * inv, z10 * inv
    # the second column is orthogonal to the first; its phase u makes
    # r_11 = q_1^dag z_1 = conj(u) det(z) / |z_0| positive
    u = _phase(_mul(z00, z11) - _mul(z01, z10))
    return q00, _mul(-u, q10.conjugate()), q10, _mul(u, q00.conjugate())


def _sigma_max(a, b, c, d, det=None):
    """Largest singular value of [[a, b], [c, d]] (whose determinant
    ``det`` is, if given), elementwise.

    sigma_max +- sigma_min = sqrt(|A|_F^2 +- 2 |det A|), and with
    u = det / |det| each radicand is a sum of squares,
    |A|_F^2 +- 2 |det| = |a +- u conj(d)|^2 + |b -+ u conj(c)|^2,
    so neither cancels.
    """
    u = _phase(_mul(a, d) - _mul(b, c) if det is None else det)
    ud, uc = _mul(u, d.conjugate()), _mul(u, c.conjugate())
    return (_sqrt(_abs2(a + ud) + _abs2(b - uc)) + _sqrt(_abs2(a - ud) + _abs2(b + uc))) / 2.0


def _assemble(space: ModeSpace, comps, blocks) -> np.ndarray:
    """The family member(s) with these component blocks: ``blocks`` holds
    a 2x2 block per component, over any leading axes, and the matrices
    share those axes."""
    m = len(space)
    mat = np.zeros(blocks.shape[:-3] + (m, m), dtype=complex)
    offset = 0
    for c, sp in enumerate(comps):
        block = blocks[..., c, :, :]
        mat[..., offset : offset + 2, offset : offset + 2] = block
        if sp.kind == "hm":
            mat[..., offset + 2 : offset + 4, offset + 2 : offset + 4] = block[..., ::-1, ::-1]  # X block X
        offset += len(sp)
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
            blocks = np.array([np.reshape(block, (2, 2)) * (c == k) for c in range(len(comps))])
            return _assemble(space, comps, blocks)

        commuting.append(embed(1, 0, 0, 1))
        if sp.kind == "h0":
            commuting.append(embed(0, 1, 1, 0))
        else:
            sl2 += [embed(0, 1, 0, 0), embed(0, 0, 1, 0), embed(1, 0, 0, -1)]
    return sl2, commuting


@dataclass(frozen=True, eq=False)
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
