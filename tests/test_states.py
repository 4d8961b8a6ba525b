"""Catalog states, mirror-Fock and pair-power families, recipes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import swap_eigen_oracle
from symprot import (
    CertificationConfig,
    FockState,
    ScatterSampler,
    StateRecipe,
    build_state,
    count_mirror_fock,
    count_pair_states,
    direct_sum,
    enumerate_basis,
    find_protected,
    h0,
    hm,
    lift,
    lift_mirror,
    mirror_fock,
    mirror_parity,
    named_state,
    pair_expansion_coefficients,
    pair_power,
    parse_recipe,
    product_state,
    state_from_amplitudes,
)

H0_NAMES = ("phi1", "phi2", "phi3", "s1", "s2")
HM_NAMES = ("psi1", "psi2", "psi3", "psi4")
# mirror parity of each catalog state, read off its amplitudes
CATALOG_TAU = {"phi1": +1, "phi2": +1, "phi3": -1, "s1": +1, "s2": +1,
               "psi1": +1, "psi2": +1, "psi3": +1, "psi4": -1}


def amp(state, occ):
    return state.amplitudes[state.basis.index(occ)]


# ---------------------------------------------------------------------------
# the two-photon catalog


def test_h0_catalog_amplitudes():
    r2 = 1 / np.sqrt(2)
    expected = {
        "phi1": {(1, 1): 1.0},
        "phi2": {(2, 0): r2, (0, 2): r2},
        "phi3": {(2, 0): r2, (0, 2): -r2},
        "s1": {(2, 0): 0.5, (1, 1): r2, (0, 2): 0.5},
        "s2": {(2, 0): 0.5, (1, 1): -r2, (0, 2): 0.5},
    }
    for name, amps in expected.items():
        state = named_state(name)
        assert state.basis.space == h0()
        assert state.basis.n_photons == 2
        for occ in state.basis.states:
            assert amp(state, occ) == pytest.approx(amps.get(occ, 0.0), abs=1e-15)


def test_hm_catalog_amplitudes():
    r2 = 1 / np.sqrt(2)
    expected = {
        "psi1": {(1, 0, 0, 1): 1.0},
        "psi2": {(0, 1, 1, 0): 1.0},
        "psi3": {(1, 0, 1, 0): r2, (0, 1, 0, 1): r2},
        "psi4": {(1, 0, 1, 0): r2, (0, 1, 0, 1): -r2},
    }
    for name, amps in expected.items():
        state = named_state(name)
        assert state.basis.space == hm(1)
        for occ in state.basis.states:
            assert amp(state, occ) == pytest.approx(amps.get(occ, 0.0), abs=1e-15)


def test_catalog_orthonormality():
    for names in (H0_NAMES[:3], HM_NAMES):
        states = [named_state(n) for n in names]
        G = np.array([[a.overlap(b) for b in states] for a in states])
        assert np.allclose(G, np.eye(len(names)), atol=1e-14, rtol=0)


@pytest.mark.parametrize("name,tau", CATALOG_TAU.items())
def test_catalog_mirror_parity(name, tau):
    state = named_state(name)
    M = lift_mirror(state.basis)
    assert np.allclose(M.apply(state).amplitudes, tau * state.amplitudes,
                       atol=1e-14, rtol=0)


def test_catalog_on_higher_sectors():
    state = named_state("psi4", m=3)
    assert state.basis.space == hm(3)
    assert amp(state, (1, 0, 1, 0)) == pytest.approx(1 / np.sqrt(2))


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named_state("phi9")


# ---------------------------------------------------------------------------
# mirror-Fock states


def test_mirror_fock_reproduces_the_catalog():
    assert abs(mirror_fock(1, 1).overlap(named_state("phi3"))) > 1 - 1e-14
    assert abs(mirror_fock(2, 0).overlap(named_state("s1"))) > 1 - 1e-14
    assert abs(mirror_fock(0, 2).overlap(named_state("s2"))) > 1 - 1e-14


def test_mirror_fock_three_photon_amplitudes():
    """Integer pattern sqrt(6), sqrt(2), -sqrt(2), -sqrt(6), then normalized."""
    state = mirror_fock(2, 1)
    v = np.array([math.sqrt(6), math.sqrt(2), -math.sqrt(2), -math.sqrt(6)])
    assert np.allclose(state.amplitudes, v / np.linalg.norm(v), atol=1e-15, rtol=0)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_mirror_fock_is_a_mirror_eigenstate(n_sym, n_anti):
    if n_sym + n_anti == 0:
        return
    state = mirror_fock(n_sym, n_anti)
    assert state.is_normalized()
    M = lift_mirror(state.basis)
    tau = (-1) ** n_anti
    assert np.allclose(M.apply(state).amplitudes, tau * state.amplitudes,
                       atol=1e-12, rtol=0)


def test_mirror_fock_scattering_eigenvalue():
    """A mirror-Fock state picks up s_plus^n_sym s_minus^n_anti."""
    sampler = ScatterSampler(seed=3, unitary=False)
    for n_sym, n_anti in ((1, 0), (2, 1), (0, 3), (2, 2)):
        s = sampler.sample(h0())
        alpha, beta = s.matrix[0, 0], s.matrix[0, 1]
        lam = (alpha + beta) ** n_sym * (alpha - beta) ** n_anti
        state = mirror_fock(n_sym, n_anti)
        out = lift(s.matrix, state.basis).apply(state)
        assert np.allclose(out.amplitudes, lam * state.amplitudes, atol=1e-12, rtol=0)


def test_mirror_fock_rejects_negative_counts():
    with pytest.raises(ValueError):
        mirror_fock(-1, 0)


@pytest.mark.parametrize("n_sym,n_anti", [(200, 0), (120, 80)])
def test_mirror_fock_past_the_float_factorials_is_the_swap_eigenvector(monkeypatch, n_sym, n_anti):
    """Past N = 170, where N! overflows a float, the state is unit-norm, has
    mirror parity (-1)^n_anti and equals, up to phase, the oracle's
    eigenvector of dSym^N of h0's swap with eigenvalue n_sym - n_anti."""
    monkeypatch.setenv("SYMPROT_NMAX", "200")
    n = n_sym + n_anti
    state = mirror_fock(n_sym, n_anti)
    assert abs(state.norm - 1.0) < 1e-12
    assert mirror_parity(StateRecipe.mirror_fock(n_sym, n_anti)) == (-1) ** n_anti
    values, vectors = swap_eigen_oracle(n)
    assert values[n_sym] == pytest.approx(n_sym - n_anti, abs=1e-9)
    overlap = np.vdot(vectors[:, n_sym], state.amplitudes)
    assert np.abs(state.amplitudes - overlap / abs(overlap) * vectors[:, n_sym]).max() < 1e-12


# ---------------------------------------------------------------------------
# pair-power states


def test_pair_power_one_pair_is_the_singlet():
    assert abs(pair_power(1, 1).overlap(named_state("psi4"))) > 1 - 1e-14


def test_pair_power_two_pairs_amplitudes():
    state = pair_power(1, 2)
    r3 = 1 / np.sqrt(3)
    assert amp(state, (2, 0, 2, 0)) == pytest.approx(r3)
    assert amp(state, (1, 1, 1, 1)) == pytest.approx(-r3)
    assert amp(state, (0, 2, 0, 2)) == pytest.approx(r3)
    nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-14)
    assert len(nonzero) == 3


def test_pair_power_amplitude_signs_alternate():
    state = pair_power(1, 3)
    basis = state.basis
    for l in range(4):
        occ = (3 - l, l, 3 - l, l)
        a = amp(state, occ)
        assert a.imag == pytest.approx(0.0, abs=1e-15)
        assert np.sign(a.real) == (-1) ** l


def test_pair_power_mirror_parity():
    for pairs in (1, 2, 3):
        state = pair_power(1, pairs)
        M = lift_mirror(state.basis)
        tau = (-1) ** pairs
        assert np.allclose(M.apply(state).amplitudes, tau * state.amplitudes,
                           atol=1e-12, rtol=0)


def test_pair_power_scattering_eigenvalue():
    """K pairs transform with det(S_m)^K under any symmetric matrix."""
    sampler = ScatterSampler(seed=17, unitary=False)
    for m, pairs in ((1, 1), (1, 2), (2, 2)):
        s = sampler.sample(hm(m))
        det_m = np.linalg.det(s.block(0))
        state = pair_power(m, pairs)
        out = lift(s.matrix, state.basis).apply(state)
        assert np.allclose(out.amplitudes, det_m**pairs * state.amplitudes,
                           atol=1e-12, rtol=0)


@pytest.mark.parametrize(
    "pairs,coeffs",
    [(0, [1]), (1, [1, -1]), (2, [1, -2, 1]), (3, [1, -3, 3, -1]),
     (5, [1, -5, 10, -10, 5, -1])],
)
def test_pair_expansion_coefficients(pairs, coeffs):
    got = pair_expansion_coefficients(pairs)
    assert got == coeffs
    assert all(isinstance(c, int) for c in got)


def test_pair_expansion_rejects_negative():
    with pytest.raises(ValueError):
        pair_expansion_coefficients(-1)


def test_pair_power_validates_arguments():
    with pytest.raises(ValueError):
        pair_power(0, 1)
    with pytest.raises(ValueError):
        pair_power(1, -1)


# ---------------------------------------------------------------------------
# counting


@pytest.mark.parametrize(
    "n,expected",
    [(0, (1, 0, 1)), (1, (1, 1, 2)), (2, (2, 1, 3)), (3, (2, 2, 4)),
     (4, (3, 2, 5)), (6, (4, 3, 7))],
)
def test_count_mirror_fock(n, expected):
    assert count_mirror_fock(n) == expected
    even, odd, total = count_mirror_fock(n)
    assert even + odd == total == n + 1


@pytest.mark.parametrize("n,count", [(0, 1), (1, 0), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)])
def test_count_pair_states(n, count):
    assert count_pair_states(n) == count


def test_counts_reject_negative():
    with pytest.raises(ValueError):
        count_mirror_fock(-1)
    with pytest.raises(ValueError):
        count_pair_states(-2)


@pytest.mark.parametrize("count", [count_mirror_fock, count_pair_states])
def test_counts_take_integer_photon_numbers_only(count):
    """N goes through operator.index, as in enumerate_basis: a NumPy integer
    counts as its int, and a float is refused, not counted."""
    assert count(np.int64(4)) == count(4)
    for n in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            count(n)


# ---------------------------------------------------------------------------
# products


def test_product_state_combines_disjoint_sectors():
    p = product_state([named_state("phi3"), named_state("psi4")])
    assert p.basis.n_photons == 4
    assert len(p.basis.space) == 6
    assert p.is_normalized()
    # amplitudes factorize: pick one occupation from each factor
    a = amp(p, (2, 0, 1, 0, 1, 0))
    b = amp(p, (2, 0, 0, 1, 0, 1))
    assert a == pytest.approx(0.5)
    assert b == pytest.approx(-0.5)


def test_product_state_single_factor_passthrough():
    s = named_state("phi3")
    p = product_state([s])
    assert p.basis == s.basis
    assert np.allclose(p.amplitudes, s.amplitudes, atol=1e-15, rtol=0)


def _dense_product(factors):
    """The product by its definition, read from the factors' dense amplitudes."""
    basis = enumerate_basis(direct_sum(*(f.basis.space for f in factors)), sum(f.basis.n_photons for f in factors))
    out = np.zeros(len(basis), dtype=complex)
    for combo in itertools.product(*(np.flatnonzero(np.abs(f.amplitudes) > 0.0) for f in factors)):
        occupation = sum((f.basis.states[i] for f, i in zip(factors, combo)), ())
        out[basis.index(occupation)] = math.prod((f.amplitudes[i] for f, i in zip(factors, combo)), start=1.0 + 0j)
    return basis, out


@pytest.mark.parametrize("case", ["ray-first", "ray-last"])
def test_a_product_reads_each_factor_on_its_splits(case):
    """A search ray as a factor builds no dense vector, and the product has
    the bytes of the dense-factor formula. A dense factor whose zeros are
    -0.0 puts no -0.0 into the product."""
    cfg = CertificationConfig(n_samples=4)
    if case == "ray-first":
        ray = find_protected(direct_sum(h0(), hm(1)), 3, cfg).rays[-1]
        dense = pair_power(2, 1).amplitudes.copy()
        dense[dense == 0] = complex(-0.0, -0.0)
        factors = [ray.state, FockState(enumerate_basis(hm(2), 2), dense)]
    else:
        ray = find_protected(direct_sum(hm(1), hm(2)), 4, cfg).rays[-1]
        factors = [mirror_fock(1, 2), ray.state]
    product = product_state(factors)
    assert "amplitudes" not in vars(ray.state)
    basis, expected = _dense_product(factors)
    assert product.basis is basis and len(product._values) > 1
    assert product.amplitudes.tobytes() == expected.tobytes()
    assert not np.signbit(product.amplitudes[product.amplitudes == 0].view(float)).any()


def test_product_state_rejects_overlapping_sectors():
    with pytest.raises(ValueError):
        product_state([named_state("psi4", m=1), named_state("psi3", m=1)])


def test_product_state_rejects_empty():
    with pytest.raises(ValueError):
        product_state([])


# ---------------------------------------------------------------------------
# recipes


def test_parse_named_recipe():
    r = parse_recipe("phi3")
    assert r == StateRecipe.named("phi3")
    assert abs(build_state(r).overlap(named_state("phi3"))) > 1 - 1e-14


def test_parse_named_recipe_with_sector():
    r = parse_recipe("psi4:m=2")
    state = build_state(r)
    assert state.basis.space == hm(2)


def test_parse_pair_recipe():
    r = parse_recipe("pair:m=1,N=4")
    assert r == StateRecipe.pair_power(1, 2)
    assert abs(build_state(r).overlap(pair_power(1, 2))) > 1 - 1e-14


def test_parse_pair_recipe_case_insensitive():
    assert parse_recipe("PAIR:M=1,N=4") == parse_recipe("pair:m=1,N=4")


def test_parse_mirror_fock_recipe():
    r = parse_recipe("mirrorfock:ns=2,na=1")
    assert r == StateRecipe.mirror_fock(2, 1)
    assert abs(build_state(r).overlap(mirror_fock(2, 1))) > 1 - 1e-14


@pytest.mark.parametrize(
    "text",
    ["pair:m=1,N=3",      # odd photon number has no pair form
     "pair:m=1",          # missing N
     "pair:m=1,N=4,x=2",  # stray key
     "mirrorfock:ns=2",   # missing na
     "phi3:x=2",          # unknown parameter on a named state
     "phi1:m=3",          # the h0 names have no m
     "nope",              # unknown name
     "pair:m=one,N=2",    # non-integer
     "pair:m1,N=2",       # malformed key=value
     "pair:m=1,N=4,N=2",  # a key given twice
     "psi4:m=1,M=2"],     # a key given twice, in either case
)
def test_parse_recipe_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_recipe(text)


def _parity_grid():
    """(recipe, tau) from the closed forms: the catalog table, (-1)^n_a for
    mirror Fock states, (-1)^K for pair powers, and the product of the
    factors' parities for products."""
    for m in (1, 2, 3):
        for name, tau in CATALOG_TAU.items():
            yield pytest.param(StateRecipe.named(name, m), tau, id=f"{name}-m{m}")
    for n in range(11):
        for n_anti in range(n + 1):
            yield pytest.param(StateRecipe.mirror_fock(n - n_anti, n_anti), (-1) ** n_anti,
                               id=f"mirrorfock-{n - n_anti}-{n_anti}")
    for m in (1, 2, 3):
        for pairs in range(6):
            yield pytest.param(StateRecipe.pair_power(m, pairs), (-1) ** pairs, id=f"pair-m{m}-K{pairs}")
    yield pytest.param(StateRecipe.product(StateRecipe.named("phi3"), StateRecipe.named("psi4")),
                       CATALOG_TAU["phi3"] * CATALOG_TAU["psi4"], id="product-phi3-psi4")
    yield pytest.param(
        StateRecipe.product(StateRecipe.mirror_fock(2, 1), StateRecipe.pair_power(1, 1),
                            StateRecipe.pair_power(2, 1)),
        (-1) ** 1 * (-1) ** 1 * (-1) ** 1, id="product-mirrorfock-2-1-pair-m1-K1-pair-m2-K1")


@pytest.mark.parametrize("recipe,tau", _parity_grid())
def test_mirror_parity_of_recipes(recipe, tau):
    assert mirror_parity(recipe) == tau


def test_recipe_product_roundtrip():
    recipe = StateRecipe.product(StateRecipe.named("phi3"), StateRecipe.pair_power(1, 1))
    direct = product_state([named_state("phi3"), pair_power(1, 1)])
    assert abs(build_state(recipe).overlap(direct)) > 1 - 1e-14
