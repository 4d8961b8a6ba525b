"""Named multiphoton states and the protected-state families.

Two closed-form families matter:

* mirror Fock states |n_s, n_a>' on the m = 0 doublet, built by applying the
  symmetric/antisymmetric mode operators (a+ +- a-)/sqrt(2) to the vacuum;
  mirror parity (-1)^n_a;
* pair-power states on a four-mode family, the K-th power of
  (a_{m,+} a_{-m,+} - a_{m,-} a_{-m,-}) applied to the vacuum (photon number
  N = 2K, total angular momentum 0, mirror parity (-1)^K).

Both constructions carry exact integer coefficients up to the final
scaling and normalization, from the helpers ``_mirror_fock_column`` and
``_pair_power_column``, which the search's candidates share. A small named
catalog covers the two-photon states used throughout (phi1..phi3, s1, s2
on the doublet; psi1..psi4 on a four-mode family). No parity is stored
with a family or a catalog entry: ``mirror_parity`` builds the recipe's
state and reads its parity off the basis's mirror permutation, as the
search does for its rays.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .fock import FockState, _mirror_parity, _rank, enumerate_basis, state_from_amplitudes
from .modes import ModeSpace, direct_sum, h0, hm

__all__ = [
    "StateRecipe",
    "mirror_fock",
    "pair_power",
    "pair_expansion_coefficients",
    "named_state",
    "product_state",
    "build_state",
    "parse_recipe",
    "mirror_parity",
    "count_mirror_fock",
    "count_pair_states",
    "CATALOG",
]

_SQRT2 = math.sqrt(2.0)

# name -> amplitude map; occupations use the canonical mode order of h0 / hm
_H0_CATALOG = {
    "phi1": {(1, 1): 1.0},
    "phi2": {(2, 0): 1 / _SQRT2, (0, 2): 1 / _SQRT2},
    "phi3": {(2, 0): 1 / _SQRT2, (0, 2): -1 / _SQRT2},
    "s1": {(2, 0): 0.5, (1, 1): 1 / _SQRT2, (0, 2): 0.5},
    "s2": {(2, 0): 0.5, (1, 1): -1 / _SQRT2, (0, 2): 0.5},
}
_HM_CATALOG = {
    "psi1": {(1, 0, 0, 1): 1.0},
    "psi2": {(0, 1, 1, 0): 1.0},
    "psi3": {(1, 0, 1, 0): 1 / _SQRT2, (0, 1, 0, 1): 1 / _SQRT2},
    "psi4": {(1, 0, 1, 0): 1 / _SQRT2, (0, 1, 0, 1): -1 / _SQRT2},
}
CATALOG = tuple(_H0_CATALOG) + tuple(_HM_CATALOG)


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


def _pair_power_column(pairs: int) -> np.ndarray:
    """The amplitudes of the K-th pair power on the (K, K) split of its basis
    (``FockBasis._splits``) up to normalization, the flattened (K + 1) x (K + 1)
    diag((-1)^l): on (K - l, l, K - l, l) the exact amplitude is
    x_l (K - l)! l! = (-1)^l K!, with x_l = pair_expansion_coefficients(K)[l]."""
    return np.diag((-1.0) ** np.arange(pairs + 1)).ravel()


def mirror_fock(n_sym: int, n_anti: int) -> FockState:
    """Mirror Fock state |n_s, n_a>' on the m = 0 doublet.

    Coefficients are expanded in exact integer arithmetic; floats enter only
    at the last scaling and the normalization. Mirror parity is (-1)^n_anti.
    """
    if n_sym < 0 or n_anti < 0:
        raise ValueError("occupation numbers must be non-negative")
    basis = enumerate_basis(h0(), n_sym + n_anti)
    return FockState(basis, _mirror_fock_column(n_sym, n_anti).astype(complex)).normalized()


def pair_expansion_coefficients(pairs: int) -> list[int]:
    """Integer coefficients x_l = (-1)^l C(K, l) of the pair-power expansion.

    x_l multiplies the operator monomial with l photons in each of the two
    negative-helicity modes, K - l in each positive-helicity mode.
    """
    if pairs < 0:
        raise ValueError("pairs must be non-negative")
    return [(-1) ** l * math.comb(pairs, l) for l in range(pairs + 1)]


def pair_power(m: int, pairs: int) -> FockState:
    """K-th power of the helicity-paired two-photon operator on hm(m).

    The state (a_{m,+} a_{-m,+} - a_{m,-} a_{-m,-})^K |0>, normalized; photon
    number 2K, total angular momentum 0, mirror parity (-1)^K. Fock
    amplitudes are uniform in magnitude with alternating sign.
    """
    if pairs < 0:
        raise ValueError("pairs must be non-negative")
    basis = enumerate_basis(hm(m), 2 * pairs)
    amp = np.zeros(len(basis), dtype=complex)
    amp[dict(basis._splits)[(pairs, pairs)]] = _pair_power_column(pairs)
    return FockState(basis, amp).normalized()


def named_state(name: str, m: int = 1) -> FockState:
    """A catalog state by name; psi states take the angular momentum ``m``."""
    if name in _H0_CATALOG:
        return state_from_amplitudes(enumerate_basis(h0(), 2), _H0_CATALOG[name])
    if name in _HM_CATALOG:
        return state_from_amplitudes(enumerate_basis(hm(m), 2), _HM_CATALOG[name])
    raise ValueError(f"unknown state name {name!r}; catalog: {', '.join(CATALOG)}")


def product_state(factors) -> FockState:
    """Product of states on disjoint families, on their direct-sum space.

    The amplitude of a concatenated occupation vector is the product of the
    factor amplitudes; occupations that split photons differently across the
    factors vanish.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("product_state needs at least one factor")
    if len(factors) == 1:
        return FockState(factors[0].basis, factors[0].amplitudes.copy())
    space = direct_sum(*(f.basis.space for f in factors))
    n = sum(f.basis.n_photons for f in factors)
    basis = enumerate_basis(space, n)
    amp = np.zeros(len(basis), dtype=complex)
    supports = [np.flatnonzero(np.abs(f.amplitudes) > 0.0) for f in factors]
    combos = list(itertools.product(*supports))  # a supported state per factor, their occupations concatenated
    picks = np.array(combos, dtype=np.intp).reshape(len(combos), len(factors)).T
    values = [math.prod((f.amplitudes[i] for f, i in zip(factors, combo)), start=1.0 + 0j) for combo in combos]
    amp[_rank(np.hstack([f.basis._occupancy[c] for f, c in zip(factors, picks)]), n)] = values
    return FockState(basis, amp)


@dataclass(frozen=True)
class StateRecipe:
    """A declarative description of a catalog or family state."""

    kind: str  # "mirrorfock" | "pair" | "named" | "product"
    n_sym: int = 0
    n_anti: int = 0
    m: int = 1
    pairs: int = 0
    name: str = ""
    factors: tuple["StateRecipe", ...] = ()

    @classmethod
    def mirror_fock(cls, n_sym: int, n_anti: int) -> "StateRecipe":
        return cls(kind="mirrorfock", n_sym=n_sym, n_anti=n_anti)

    @classmethod
    def pair_power(cls, m: int, pairs: int) -> "StateRecipe":
        return cls(kind="pair", m=m, pairs=pairs)

    @classmethod
    def named(cls, name: str, m: int = 1) -> "StateRecipe":
        return cls(kind="named", name=name, m=m)

    @classmethod
    def product(cls, *factors: "StateRecipe") -> "StateRecipe":
        return cls(kind="product", factors=tuple(factors))


def build_state(recipe: StateRecipe) -> FockState:
    """Materialize a recipe as a normalized Fock state."""
    if recipe.kind == "mirrorfock":
        return mirror_fock(recipe.n_sym, recipe.n_anti)
    if recipe.kind == "pair":
        return pair_power(recipe.m, recipe.pairs)
    if recipe.kind == "named":
        return named_state(recipe.name, recipe.m)
    if recipe.kind == "product":
        return product_state([build_state(f) for f in recipe.factors])
    raise ValueError(f"unknown recipe kind {recipe.kind!r}")


def mirror_parity(recipe: StateRecipe) -> int:
    """Mirror eigenvalue of the recipe's state: +1 or -1.

    The state is built, so a recipe past the photon cap raises ValueError.
    """
    return _mirror_parity(build_state(recipe))


def count_mirror_fock(n: int) -> tuple[int, int, int]:
    """(symmetric, antisymmetric, total) protected-ray counts on the doublet.

    For N photons there are N + 1 mirror Fock rays; n_anti even gives parity
    +1, so the split is (N//2 + 1, (N+1)//2, N+1).
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return (n // 2 + 1, (n + 1) // 2, n + 1)


def count_pair_states(n: int) -> int:
    """Protected-ray count on a four-mode family: 1 for even N, else 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return 1 if n % 2 == 0 else 0


def parse_recipe(text: str) -> StateRecipe:
    """Parse CLI state syntax: ``phi3``, ``pair:m=1,N=4``, ``mirrorfock:ns=2,na=1``."""
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    params: dict[str, int] = {}
    if tail:
        for part in tail.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"malformed recipe parameter {part!r} in {text!r}")
            if key.strip().lower() in params:
                raise ValueError(f"recipe parameter {key.strip()!r} is given twice in {text!r}")
            try:
                params[key.strip().lower()] = int(value)
            except ValueError:
                raise ValueError(f"recipe parameter {key!r} must be an integer") from None
    if head == "pair":
        if set(params) != {"m", "n"}:
            raise ValueError("pair recipe needs m and N, e.g. pair:m=1,N=4")
        if params["n"] % 2 or params["n"] < 0:
            raise ValueError(f"pair recipe needs even N >= 0, got N={params['n']}")
        return StateRecipe.pair_power(params["m"], params["n"] // 2)
    if head == "mirrorfock":
        if set(params) != {"ns", "na"}:
            raise ValueError("mirrorfock recipe needs ns and na, e.g. mirrorfock:ns=2,na=1")
        return StateRecipe.mirror_fock(params["ns"], params["na"])
    if head in _HM_CATALOG:
        if set(params) - {"m"}:
            raise ValueError(f"named state {head!r} accepts only an m parameter")
        return StateRecipe.named(head, params.get("m", 1))
    if head in _H0_CATALOG:
        if params:
            raise ValueError(f"named state {head!r} lives on h0 and takes no parameters")
        return StateRecipe.named(head)
    raise ValueError(f"unknown state {text!r}; names: {', '.join(CATALOG)}, pair:..., mirrorfock:...")
