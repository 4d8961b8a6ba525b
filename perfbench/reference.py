"""Closed-form references for the benchmark's checks.

Nothing here calls the code under test. Protected states and their
eigenvalues follow from the paper's theorems:

* on the m = 0 doublet the protected rays are the mirror Fock states
  (s^dag)^ns (t^dag)^na |0>, with s, t = (a_+ +- a_-)/sqrt(2); their
  eigenvalue under [[a, b], [b, a]] is (a + b)^ns (a - b)^na and their
  mirror parity is (-1)^na;
* on a four-mode family the only protected ray at N = 2K is the pair power
  (a_{m+} a_{-m+} - a_{m-} a_{-m-})^K |0>, with eigenvalue det(S_m)^K and
  parity (-1)^K; odd N has none;
* on a direct sum the protected rays are the products of component rays
  over every split of N, with the product eigenvalue.

Amplitudes are given on whatever occupation list the caller passes (a
full basis of the space), so the references never depend on the
program's basis order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def mirror_fock_coefficients(n_sym: int, n_anti: int) -> list[int]:
    """Integer coefficients c_p of x^p y^(N-p) in (x + y)^ns (x - y)^na."""
    poly = [1]
    for sign in [1] * n_sym + [-1] * n_anti:
        # multiply by (x + sign*y); index p counts powers of x
        out = [0] * (len(poly) + 1)
        for p, c in enumerate(poly):
            out[p + 1] += c
            out[p] += sign * c
        poly = out
    return poly


def _amplitude(part, occ) -> float:
    """Unnormalized amplitude of one component ray on one component occupation.

    A mirror Fock state has c_p sqrt(p! q!) on |p, q>. The pair power has
    (-1)^l C(K, l) (K-l)! l! = (-1)^l K! on |K-l, l, K-l, l>, so every
    amplitude is (-1)^l up to normalization.
    """
    if part[0] == "h0":
        p, q = occ
        if p + q != part[1] + part[2]:
            return 0.0
        return mirror_fock_coefficients(part[1], part[2])[p] * math.sqrt(math.factorial(p) * math.factorial(q))
    if part[0] == "hm":
        k, l, k2, l2 = occ
        return (-1.0) ** l if (k, l) == (k2, l2) and k + l == part[2] else 0.0
    return 1.0 if sum(occ) == 0 else 0.0


class Ray:
    """One expected protected ray: per-component photon numbers and labels."""

    def __init__(self, parts):
        # parts: one ("h0", ns, na), ("hm", m, K) or ("vac", modes) per component
        self.parts = tuple(parts)

    @property
    def tau(self) -> int:
        odd = sum(part[2] for part in self.parts if part[0] != "vac")
        return -1 if odd % 2 else 1

    def __repr__(self) -> str:
        return "x".join(
            f"mf({p[1]},{p[2]})" if p[0] == "h0" else f"pp(m={p[1]},K={p[2]})" if p[0] == "hm" else "vac"
            for p in self.parts
        )

    def vector(self, components, occupations) -> np.ndarray:
        """Normalized amplitudes over full occupation tuples of the (direct-sum) space."""
        sizes = [2 if kind == "h0" else 4 for kind, _ in components]
        offsets = np.cumsum([0] + sizes)
        amps = np.array(
            [
                math.prod(_amplitude(part, occ[a:b]) for part, a, b in zip(self.parts, offsets, offsets[1:]))
                for occ in occupations
            ],
            dtype=complex,
        )
        return amps / np.linalg.norm(amps)

    def eigenvalue(self, matrix: np.ndarray) -> complex:
        """Eigenvalue of the ray under one symmetric scattering matrix."""
        lam = 1.0 + 0.0j
        offset = 0
        for part in self.parts:
            if part[0] == "h0":
                a, b = matrix[offset, offset], matrix[offset, offset + 1]
                lam *= (a + b) ** part[1] * (a - b) ** part[2]
                offset += 2
            elif part[0] == "hm":
                lam *= np.linalg.det(matrix[offset : offset + 2, offset : offset + 2]) ** part[2]
                offset += 4
            else:
                offset += part[1]
        return complex(lam)


def component_rays(kind: str, m: int, n: int) -> list[tuple]:
    """Protected rays of one family holding n photons."""
    if n == 0:
        return [("vac", 2 if kind == "h0" else 4)]
    if kind == "h0":
        return [("h0", n - k, k) for k in range(n + 1)]
    return [("hm", m, n // 2)] if n % 2 == 0 else []


def expected_rays(components, n_photons: int) -> list[Ray]:
    """Every protected ray of a (direct sum of) families at N photons."""
    rays = []
    for split in itertools.product(range(n_photons + 1), repeat=len(components)):
        if sum(split) != n_photons:
            continue
        per = [component_rays(kind, m, k) for (kind, m), k in zip(components, split)]
        rays.extend(Ray(parts) for parts in itertools.product(*per))
    return rays


def sectors(components, n_photons: int) -> list[int]:
    """Total angular momenta reachable by N photons, descending."""
    ms = []
    for kind, m in components:
        ms.extend([0, 0] if kind == "h0" else [m, m, -m, -m])
    reach = {0}
    for _ in range(n_photons):
        reach = {r + mi for r in reach for mi in ms}
    return sorted(reach, reverse=True)


def fidelity(weights: np.ndarray, lams: np.ndarray) -> tuple[float, float]:
    """(fidelity, success probability) of a time-bin qudit with bin eigenvalues lams."""
    success = float(np.dot(weights, np.abs(lams) ** 2))
    overlap = complex(np.dot(weights, lams))
    return abs(overlap) ** 2 / success, success


def erasure_capacity(eps: float, two_way: bool) -> float:
    return 1.0 - eps if two_way else max(0.0, 1.0 - 2.0 * eps)
