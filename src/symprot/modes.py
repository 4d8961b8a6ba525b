"""Single-particle mode spaces of a cylindrically symmetric scatterer.

Modes are labeled by an angular-momentum index m and a helicity sign. The
symmetry group is generated by rotations about the cylinder axis, acting as
exp(i*theta*Jz), and the mirror reflection at the xz plane, which flips both
the angular momentum and the helicity. Two irreducible families occur:

* ``h0()``        -- the m = 0 doublet, ordered ((0,+), (0,-));
* ``hm(m)``       -- the four-mode family for m >= 1, ordered
                     ((m,+), (m,-), (-m,+), (-m,-));
* ``direct_sum``  -- composites of the above with pairwise distinct |m|,
                     their modes concatenated in argument order.

On these spaces the rotation generator Jz is diagonal in the mode labels and
the mirror acts as the permutation (m, h) -> (-m, -h).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

__all__ = [
    "ModeLabel",
    "ModeSpace",
    "h0",
    "hm",
    "direct_sum",
    "mirror_eigenbasis",
]

# distinct m whose hm(m) is kept as one shared instance
_CACHED_SPACES = 32


@dataclass(frozen=True)
class ModeLabel:
    """A single mode: angular momentum ``m`` and helicity sign ``helicity``."""

    m: int
    helicity: int

    def __post_init__(self):
        if self.helicity not in (-1, 1):
            raise ValueError(f"helicity must be +1 or -1, got {self.helicity}")

    def mirrored(self) -> "ModeLabel":
        """Image under the xz-plane mirror: (m, h) -> (-m, -h)."""
        return ModeLabel(-self.m, -self.helicity)


@dataclass(frozen=True, eq=False)
class ModeSpace:
    """An ordered tuple of modes closed under the mirror involution.

    Instances are built with :func:`h0`, :func:`hm` and :func:`direct_sum`.
    ``h0`` and ``hm`` list their modes in a fixed order, and ``direct_sum``
    concatenates its arguments' modes in the order given, so
    ``direct_sum(hm(1), h0())`` and ``direct_sum(h0(), hm(1))`` are
    different spaces with different basis orders. Two spaces are
    interchangeable iff their ``labels`` coincide, in order.
    """

    labels: tuple[ModeLabel, ...]
    kind: str  # "h0" | "hm" | "sum"
    components: tuple["ModeSpace", ...] = ()

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModeSpace) and self.labels == other.labels

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """``hash(self.labels)``, taken once: every basis and sampler-memo lookup hashes the space."""
        return hash(self.labels)

    @property
    def m(self) -> int:
        """The angular-momentum index of an ``hm`` space."""
        if self.kind != "hm":
            raise ValueError("m is defined for hm spaces only")
        return self.labels[0].m

    @cached_property
    def jz(self) -> np.ndarray:
        """Rotation generator: diagonal matrix of mode angular momenta."""
        out = np.diag([float(lab.m) for lab in self.labels])
        out.setflags(write=False)
        return out

    @cached_property
    def mirror(self) -> np.ndarray:
        """Mirror reflection as a symmetric 0/1 permutation matrix."""
        n = len(self.labels)
        out = np.zeros((n, n))
        out[self.mirror_permutation, np.arange(n)] = 1.0
        out.setflags(write=False)
        return out

    @cached_property
    def mirror_permutation(self) -> tuple[int, ...]:
        """``perm[j]`` is the index of the mirror image of mode ``j``."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        return tuple(index[lab.mirrored()] for lab in self.labels)


@cache
def h0() -> ModeSpace:
    """The zero-angular-momentum doublet, ordered ((0,+), (0,-)): one
    shared, immutable instance."""
    return ModeSpace(labels=(ModeLabel(0, 1), ModeLabel(0, -1)), kind="h0")


def hm(m: int) -> ModeSpace:
    """The four-mode family for angular momentum m >= 1.

    Mode order is ((m,+), (m,-), (-m,+), (-m,-)), so the mirror is the
    antidiagonal permutation and Jz = diag(m, m, -m, -m). The labels hold m
    as a Python int. The spaces of the ``_CACHED_SPACES`` most recently
    used m are shared, immutable instances; an m below 1 raises on every
    call.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"hm requires m >= 1 (use h0() for m == 0), got {m}")
    return _hm(m)


@lru_cache(maxsize=_CACHED_SPACES)
def _hm(m: int) -> ModeSpace:
    labels = (ModeLabel(m, 1), ModeLabel(m, -1), ModeLabel(-m, 1), ModeLabel(-m, -1))
    return ModeSpace(labels=labels, kind="hm")


def direct_sum(*spaces: ModeSpace) -> ModeSpace:
    """Concatenate mode spaces with pairwise distinct angular-momentum sectors.

    Composites let product states of independently scattered families live on
    one space. Repeating a |m| sector (h0 counts as |m| = 0) would break the
    block structure of the symmetric scattering family, so it is rejected.
    The components keep the order of the arguments (nested sums are
    flattened in place); nothing is sorted.
    """
    if not spaces:
        raise ValueError("direct_sum needs at least one space")
    flat: list[ModeSpace] = []
    for sp in spaces:
        flat.extend(sp.components if sp.kind == "sum" else (sp,))
    sectors = [0 if sp.kind == "h0" else sp.m for sp in flat]
    if len(set(sectors)) != len(sectors):
        raise ValueError(f"angular-momentum sectors must be disjoint, got {sectors}")
    if len(flat) == 1:
        return flat[0]
    labels = tuple(lab for sp in flat for lab in sp.labels)
    return ModeSpace(labels=labels, kind="sum", components=tuple(flat))


def mirror_eigenbasis(space: ModeSpace) -> np.ndarray:
    """Unitary U whose columns diagonalize the mirror on the m = 0 doublet.

    Columns are (1, 1)/sqrt(2) and (1, -1)/sqrt(2) with mirror eigenvalues
    +1 and -1; U^dagger M U = diag(+1, -1). Only the m = 0 space admits a
    joint eigenbasis (for m > 0 the mirror anticommutes with Jz).
    """
    if space.kind != "h0":
        raise ValueError("mirror eigenbasis exists only on the m = 0 space")
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
