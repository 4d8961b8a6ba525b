"""Fock bases, permanents, and lifting mode-space matrices to photon number N."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings, strategies as st

from symprot import (
    DEFAULT_N_MAX,
    FockState,
    ScatterSampler,
    direct_sum,
    enumerate_basis,
    h0,
    hm,
    lift,
    lift_generator,
    lift_jz,
    lift_mirror,
    max_photons,
    permanent_naive,
    permanent_ryser,
    postselect_projector,
    sector_split,
    state_from_amplitudes,
)
from symprot.fock import _CACHED_BASES, _shared_basis
from oracles import apply_oracle, lift_oracle, permanent_expansion


# ---------------------------------------------------------------------------
# basis enumeration


def test_h0_two_photon_states():
    basis = enumerate_basis(h0(), 2)
    assert basis.states == ((2, 0), (1, 1), (0, 2))
    assert basis.n_photons == 2
    assert basis.space == h0()


def test_hm_two_photon_states_in_lex_decreasing_order():
    basis = enumerate_basis(hm(1), 2)
    assert basis.states == (
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 2, 0, 0),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2),
    )


def test_vacuum_basis():
    basis = enumerate_basis(h0(), 0)
    assert basis.states == ((0, 0),)
    L = lift(np.array([[0.3, 0.1], [0.1, 0.3]]), basis)
    assert np.array_equal(L.matrix, np.eye(1, dtype=complex))


@given(st.integers(min_value=0, max_value=6))
def test_basis_size_is_the_stars_and_bars_count(n):
    for space in (h0(), hm(1)):
        m = len(space)
        basis = enumerate_basis(space, n)
        assert len(basis.states) == math.comb(n + m - 1, m - 1)
        assert all(sum(occ) == n for occ in basis.states)
        assert len(set(basis.states)) == len(basis.states)
        # lexicographically decreasing enumeration
        assert list(basis.states) == sorted(basis.states, reverse=True)


def test_basis_index_roundtrip():
    basis = enumerate_basis(hm(2), 3)
    for i, occ in enumerate(basis.states):
        assert basis.index(occ) == i
    with pytest.raises(ValueError):
        basis.index((4, 0, 0, 0))  # wrong photon number
    with pytest.raises(ValueError):
        basis.index((1, 1))  # wrong mode count


def test_ket_rendering():
    basis = enumerate_basis(hm(1), 2)
    assert basis.ket(2) == "|1,0,1,0>"


def test_enumeration_respects_the_photon_cap(monkeypatch):
    assert max_photons() == DEFAULT_N_MAX
    enumerate_basis(h0(), 4)  # warm: the cap holds on a cache hit too
    monkeypatch.setenv("SYMPROT_NMAX", "3")
    assert max_photons() == 3
    enumerate_basis(h0(), 3)
    with pytest.raises(ValueError):
        enumerate_basis(h0(), 4)
    monkeypatch.setenv("SYMPROT_NMAX", "abc")
    with pytest.raises(ValueError):
        max_photons()
    monkeypatch.setenv("SYMPROT_NMAX", "-2")
    with pytest.raises(ValueError):
        max_photons()


def test_bases_are_shared():
    assert enumerate_basis(hm(1), 3) is enumerate_basis(hm(1), 3)
    assert enumerate_basis(direct_sum(h0(), hm(1)), 2) is enumerate_basis(direct_sum(h0(), hm(1)), 2)
    assert enumerate_basis(hm(1), 3) is not enumerate_basis(hm(1), 2)
    _shared_basis.cache_clear()
    shared = enumerate_basis(hm(2), np.int64(2))  # the call that builds the basis
    assert type(shared.n_photons) is int and shared is enumerate_basis(hm(2), 2)


def test_basis_cache_is_bounded():
    for m in range(1, _CACHED_BASES + 9):
        assert enumerate_basis(hm(m), 1).space == hm(m)
    assert _shared_basis.cache_info().currsize == _CACHED_BASES


def test_shared_tables_are_read_only():
    basis = enumerate_basis(direct_sum(h0(), hm(1)), 3)
    with pytest.raises(ValueError):
        basis.m_totals[0] = 5
    tables = [basis.m_totals, basis._mirror, *basis._sectors.values()]
    for parent, scale, first, modes in basis._ladder:
        tables += [parent, scale, first, *(table for mode in modes for table in mode)]
    assert tables and not any(table.flags.writeable for table in tables)


def test_negative_photon_number_rejected():
    with pytest.raises(ValueError):
        enumerate_basis(h0(), -1)


# ---------------------------------------------------------------------------
# angular-momentum sectors


def test_h0_lives_in_the_zero_sector():
    basis = enumerate_basis(h0(), 4)
    assert np.array_equal(basis.m_totals, np.zeros(5, dtype=int))
    assert list(sector_split(basis)) == [0]


def test_hm_two_photon_sectors():
    basis = enumerate_basis(hm(1), 2)
    split = sector_split(basis)
    assert list(split) == [2, 0, -2]  # descending
    assert [len(split[k]) for k in split] == [3, 4, 3]
    zero = {basis.states[i] for i in split[0]}
    assert zero == {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}


def test_hm_three_photon_sector_sizes():
    basis = enumerate_basis(hm(1), 3)
    split = sector_split(basis)
    assert {k: len(v) for k, v in split.items()} == {3: 4, 1: 6, -1: 6, -3: 4}
    assert sum(len(v) for v in split.values()) == len(basis.states) == 20


def test_sector_scaling_with_m():
    b1 = sector_split(enumerate_basis(hm(1), 2))
    b3 = sector_split(enumerate_basis(hm(3), 2))
    assert {k: len(v) for k, v in b3.items()} == {6: 3, 0: 4, -6: 3}
    assert [len(v) for v in b3.values()] == [len(v) for v in b1.values()]


# ---------------------------------------------------------------------------
# permanents


def test_permanent_of_fixed_matrix():
    """Value frozen from an independent cofactor expansion."""
    M = np.array(
        [[1 + 2j, 0.5, -1j], [2, -1 + 1j, 0.25], [0.75j, 1.5, 1 - 1j]]
    )
    expected = -3.375 - 0.40625j
    assert permanent_ryser(M) == pytest.approx(expected, abs=1e-13)
    assert permanent_naive(M) == pytest.approx(expected, abs=1e-13)
    assert permanent_expansion(M) == pytest.approx(expected, abs=1e-13)


def test_permanent_base_cases():
    assert permanent_ryser(np.zeros((0, 0))) == 1.0
    assert permanent_naive(np.zeros((0, 0))) == 1.0
    assert permanent_ryser(np.array([[2.5 + 1j]])) == 2.5 + 1j
    with pytest.raises(ValueError):
        permanent_ryser(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent_naive(np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_ryser_matches_the_naive_sum(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r = permanent_ryser(M)
    v = permanent_naive(M)
    assert abs(r - v) <= 1e-10 * max(1.0, abs(v))


def test_permanent_row_multilinearity():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    scaled = M.copy()
    scaled[2] *= 3.0 - 1.0j
    assert permanent_ryser(scaled) == pytest.approx((3.0 - 1.0j) * permanent_ryser(M))


# ---------------------------------------------------------------------------
# lifting


def test_lift_of_the_identity():
    for space, n in ((h0(), 3), (hm(1), 2)):
        basis = enumerate_basis(space, n)
        L = lift(np.eye(len(space)), basis)
        d = len(basis.states)
        assert np.allclose(L.matrix, np.eye(d), atol=1e-14, rtol=0)


def test_two_photon_lift_closed_form():
    """On the axial pair the lift is built from alpha^2, beta^2, sqrt(2) alpha beta."""
    a, b = 0.3 + 0.4j, -0.2 + 0.1j
    basis = enumerate_basis(h0(), 2)
    L = lift(np.array([[a, b], [b, a]]), basis).matrix
    r2 = np.sqrt(2)
    expected = np.array(
        [
            [a * a, r2 * a * b, b * b],
            [r2 * a * b, a * a + b * b, r2 * a * b],
            [b * b, r2 * a * b, a * a],
        ]
    )
    assert np.allclose(L, expected, atol=1e-14, rtol=0)


def test_single_photon_lift_is_the_matrix_itself():
    S = ScatterSampler(seed=2).sample(hm(1)).matrix
    L = lift(S, enumerate_basis(hm(1), 1)).matrix
    assert np.allclose(L, S, atol=1e-14, rtol=0)


@pytest.mark.parametrize(
    "space,n", [(h0(), 2), (h0(), 4), (hm(1), 2), (hm(1), 3)],
    ids=["h0-2", "h0-4", "hm-2", "hm-3"],
)
def test_lift_matches_the_polynomial_oracle(space, n):
    """The recursive lift equals the term-by-term polynomial expansion."""
    rng = np.random.default_rng(31)
    m = len(space)
    basis = enumerate_basis(space, n)
    for _ in range(3):
        S = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(m)
        assert np.allclose(
            lift(S, basis).matrix, lift_oracle(S, basis), atol=1e-11, rtol=0
        )


def _permanent_entry(S, out_occ, in_occ, permanent):
    """<n'| lift(S) |n> = Per(S[n', n]) / sqrt(prod_i n_i! * prod_j n'_j!)."""
    rows = np.repeat(np.arange(len(out_occ)), out_occ)
    cols = np.repeat(np.arange(len(in_occ)), in_occ)
    norm = math.sqrt(math.prod(math.factorial(k) for k in out_occ + in_occ))
    return permanent(S[np.ix_(rows, cols)]) / norm


@pytest.mark.parametrize("permanent", [permanent_naive, permanent_ryser], ids=["naive", "ryser"])
@pytest.mark.parametrize(
    "space,n", [(h0(), 3), (hm(1), 3), (direct_sum(h0(), hm(1)), 2)],
    ids=["h0-3", "hm-3", "h0+hm-2"],
)
def test_lift_matches_the_permanent_formula(space, n, permanent):
    """Every lifted entry equals the permanent of the repeated submatrix."""
    rng = np.random.default_rng(37)
    m = len(space)
    S = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(m)
    assert not np.allclose(S, S.T)
    basis = enumerate_basis(space, n)
    expected = np.array(
        [[_permanent_entry(S, out, inp, permanent) for inp in basis.states] for out in basis.states]
    )
    assert np.allclose(lift(S, basis).matrix, expected, atol=1e-11, rtol=0)


def test_lift_peak_memory_is_a_few_output_matrices():
    """Temporaries of the lift stay O(dim^2): at most 8x the lifted matrix."""
    basis = enumerate_basis(hm(1), 8)
    S = ScatterSampler(seed=4).sample(hm(1)).matrix
    out = lift(S, basis).matrix  # warm call: builds the cached basis tables
    tracemalloc.start()
    try:
        lift(S, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 165
    assert peak <= 8 * out.nbytes


@pytest.mark.parametrize(
    "space,n,count",
    [(h0(), 3, 5), (hm(1), 0, 4), (hm(1), 2, 0), (hm(1), 4, 40), (direct_sum(h0(), hm(1)), 2, 3)],
    ids=["h0-3", "hm-0", "empty", "hm-4-40", "h0+hm-2"],
)
def test_stacked_lift_is_the_stack_of_lifts(space, n, count):
    """A (k, M, M) stack lifts to the lifts of its matrices."""
    rng = np.random.default_rng(47)
    basis = enumerate_basis(space, n)
    m = len(space)
    stack = np.array([_random_matrix(rng, m) for _ in range(count)]).reshape(count, m, m)
    lifted = lift(stack, basis)
    assert lifted.matrix.shape == (count, len(basis), len(basis))
    for S, L in zip(stack, lifted.matrix):
        assert np.allclose(L, lift(S, basis).matrix, atol=1e-12, rtol=0)


def _random_matrix(rng, m):
    return (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(m)


@pytest.mark.parametrize(
    "space,n",
    [(h0(), 3), (hm(1), 3), (direct_sum(h0(), hm(1)), 2), (hm(1), 0), (hm(1), 1)],
    ids=["h0-3", "hm-3", "h0+hm-2", "hm-0", "hm-1"],
)
def test_lifted_generator_exponentiates_to_the_lift(space, n):
    """lift(expm(E)) = expm(dGamma(E)) for a non-symmetric complex E."""
    rng = np.random.default_rng(41)
    E = _random_matrix(rng, len(space))
    assert not np.allclose(E, E.T)
    basis = enumerate_basis(space, n)
    assert np.allclose(
        lift(expm(E), basis).matrix, expm(lift_generator(E, basis).matrix), atol=1e-11, rtol=0
    )


def test_lifted_generators_keep_the_commutator():
    """[dGamma(A), dGamma(B)] = dGamma([A, B])."""
    rng = np.random.default_rng(43)
    space = direct_sum(h0(), hm(1))
    basis = enumerate_basis(space, 3)
    A, B = _random_matrix(rng, len(space)), _random_matrix(rng, len(space))
    dA, dB = lift_generator(A, basis).matrix, lift_generator(B, basis).matrix
    expected = lift_generator(A @ B - B @ A, basis).matrix
    assert np.allclose(dA @ dB - dB @ dA, expected, atol=1e-11, rtol=0)


def test_lifted_jz_generator_is_lift_jz():
    for space, n in ((h0(), 2), (hm(2), 3), (direct_sum(h0(), hm(1)), 2)):
        basis = enumerate_basis(space, n)
        assert np.array_equal(lift_generator(space.jz, basis).matrix, lift_jz(basis).matrix)


def test_lift_generator_shape_validation():
    with pytest.raises(ValueError):
        lift_generator(np.eye(3), enumerate_basis(h0(), 2))


def test_lift_apply_matches_matrix_action():
    basis = enumerate_basis(h0(), 3)
    rng = np.random.default_rng(5)
    S = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    amps = rng.normal(size=len(basis.states)) + 1j * rng.normal(size=len(basis.states))
    state = FockState(basis, amps)
    out = lift(S, basis).apply(state)
    assert np.allclose(out.amplitudes, lift(S, basis).matrix @ amps, atol=1e-12, rtol=0)
    assert np.allclose(out.amplitudes, apply_oracle(S, state), atol=1e-11, rtol=0)


def test_lift_apply_rejects_foreign_states():
    basis2 = enumerate_basis(h0(), 2)
    basis3 = enumerate_basis(h0(), 3)
    L = lift(np.eye(2), basis2)
    with pytest.raises(ValueError):
        L.apply(state_from_amplitudes(basis3, {(3, 0): 1.0}))


def test_lift_shape_validation():
    basis = enumerate_basis(h0(), 2)
    for bad in (np.eye(3), np.eye(3)[None], np.ones((2, 2, 2, 2)), np.ones(2)):
        with pytest.raises(ValueError):
            lift(bad, basis)


def test_lift_is_multiplicative():
    """lift(AB) = lift(A) lift(B) for arbitrary (non-symmetric) matrices."""
    rng = np.random.default_rng(77)
    for space, n in ((h0(), 3), (hm(1), 2)):
        m = len(space)
        basis = enumerate_basis(space, n)
        for _ in range(5):
            A = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(m)
            B = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(m)
            lhs = lift(A @ B, basis).matrix
            rhs = lift(A, basis).matrix @ lift(B, basis).matrix
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_unitary_lifts_are_unitary():
    sampler = ScatterSampler(seed=4, unitary=True)
    for space, n in ((h0(), 4), (hm(1), 3)):
        basis = enumerate_basis(space, n)
        U = lift(sampler.sample(space).matrix, basis).matrix
        d = len(basis.states)
        assert np.linalg.norm(U.conj().T @ U - np.eye(d)) < 1e-10


def test_subunitary_lifts_contract():
    sampler = ScatterSampler(seed=8, unitary=False)
    rng = np.random.default_rng(8)
    for space, n in ((h0(), 3), (hm(2), 2)):
        basis = enumerate_basis(space, n)
        L = lift(sampler.sample(space).matrix, basis).matrix
        for _ in range(20):
            psi = rng.normal(size=len(basis.states)) + 1j * rng.normal(size=len(basis.states))
            assert np.linalg.norm(L @ psi) <= np.linalg.norm(psi) + 1e-10


def test_symmetric_lifts_are_sector_block_diagonal():
    """No amplitude leaks between different total-J_z sectors."""
    sampler = ScatterSampler(seed=13, unitary=False)
    for m, n in ((1, 2), (1, 3), (2, 2)):
        basis = enumerate_basis(hm(m), n)
        L = lift(sampler.sample(hm(m)).matrix, basis).matrix
        mt = basis.m_totals
        off = L[mt[:, None] != mt[None, :]]
        assert np.max(np.abs(off)) < 1e-12


def test_symmetric_lifts_commute_with_the_lifted_generators():
    sampler = ScatterSampler(seed=21, unitary=False)
    for space, n in ((h0(), 3), (hm(1), 2), (direct_sum(h0(), hm(1)), 2)):
        basis = enumerate_basis(space, n)
        L = lift(sampler.sample(space).matrix, basis).matrix
        Jz = lift_jz(basis).matrix
        M = lift_mirror(basis).matrix
        assert np.linalg.norm(L @ Jz - Jz @ L) < 1e-10
        assert np.linalg.norm(L @ M - M @ L) < 1e-10


def test_lifted_jz_is_the_sector_diagonal():
    basis = enumerate_basis(hm(2), 2)
    Jz = lift_jz(basis).matrix
    assert np.array_equal(Jz, np.diag(basis.m_totals).astype(complex))


def test_lifted_mirror_matches_the_permutation_lift():
    for space, n in ((h0(), 2), (hm(1), 2), (hm(1), 3), (direct_sum(h0(), hm(1)), 2)):
        basis = enumerate_basis(space, n)
        M = lift_mirror(basis).matrix
        assert np.allclose(M, lift(space.mirror, basis).matrix, atol=1e-14, rtol=0)
        assert np.array_equal(M @ M, np.eye(len(basis.states), dtype=complex))
        assert np.array_equal(M, M.T)


def test_lifted_mirror_flips_the_lifted_jz():
    for space, n in ((hm(1), 1), (hm(1), 2), (hm(2), 3)):
        basis = enumerate_basis(space, n)
        M = lift_mirror(basis).matrix
        Jz = lift_jz(basis).matrix
        assert np.array_equal(M @ Jz @ M, -Jz)


def test_two_photon_mirror_in_conventional_order():
    """Reordered to (|1,1>, |2,0>, |0,2>) the mirror reads [[1,0,0],[0,0,1],[0,1,0]]."""
    basis = enumerate_basis(h0(), 2)
    M = lift_mirror(basis).matrix
    p = [basis.index((1, 1)), basis.index((2, 0)), basis.index((0, 2))]
    assert np.array_equal(
        M[np.ix_(p, p)].real, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    )


def test_zero_sector_mirror_in_conventional_order():
    """The four J_z = 0 two-photon states pair up under the mirror."""
    basis = enumerate_basis(hm(1), 2)
    M = lift_mirror(basis).matrix
    p = [
        basis.index((1, 0, 0, 1)),
        basis.index((0, 1, 1, 0)),
        basis.index((1, 0, 1, 0)),
        basis.index((0, 1, 0, 1)),
    ]
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert np.array_equal(M[np.ix_(p, p)].real, expected)


def test_pair_difference_maps_to_its_determinant_multiple():
    """S acting on |1,0,1,0> - |0,1,0,1> lands on the same two kets, with
    coefficients +det(S_m) and -det(S_m)."""
    basis = enumerate_basis(hm(1), 2)
    for seed in range(6):
        s = ScatterSampler(seed=seed, unitary=False).sample(hm(1))
        det_m = np.linalg.det(s.block(0))
        psi = state_from_amplitudes(basis, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): -1.0})
        out = lift(s.matrix, basis).apply(psi)
        i_plus = basis.index((1, 0, 1, 0))
        i_minus = basis.index((0, 1, 0, 1))
        assert abs(out.amplitudes[i_plus] - det_m) < 1e-12
        assert abs(out.amplitudes[i_minus] + det_m) < 1e-12
        rest = np.delete(out.amplitudes, [i_plus, i_minus])
        assert np.max(np.abs(rest)) < 1e-12


# ---------------------------------------------------------------------------
# post-selection


def test_postselect_everything_is_the_identity():
    basis = enumerate_basis(h0(), 2)
    P = postselect_projector(basis, keep=[0, 1]).matrix
    assert np.array_equal(P, np.eye(3, dtype=complex))


def test_postselect_single_mode_keeps_the_concentrated_state():
    basis = enumerate_basis(h0(), 2)
    P = postselect_projector(basis, keep=[0]).matrix
    assert np.linalg.matrix_rank(P) == 1
    e = np.zeros(3)
    e[basis.index((2, 0))] = 1.0
    assert np.array_equal(P, np.outer(e, e).astype(complex))


def test_postselect_mirror_pair_of_modes():
    basis = enumerate_basis(hm(1), 2)
    P = postselect_projector(basis, keep=[0, 3]).matrix
    kept = [i for i in range(len(basis.states)) if P[i, i] == 1.0]
    assert len(kept) == 3
    assert {basis.states[i] for i in kept} == {
        (2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)
    }
    assert np.array_equal(P @ P, P)


def test_postselect_partial_count():
    basis = enumerate_basis(hm(1), 2)
    P = postselect_projector(basis, keep=[0], n_photons=1).matrix
    kept = {basis.states[i] for i in range(len(basis.states)) if P[i, i] == 1.0}
    assert kept == {occ for occ in basis.states if occ[0] == 1}


def test_postselect_validates_arguments():
    basis = enumerate_basis(h0(), 2)
    with pytest.raises(ValueError):
        postselect_projector(basis, keep=[], n_photons=2)
    with pytest.raises(ValueError):
        postselect_projector(basis, keep=[5])


# ---------------------------------------------------------------------------
# states


def test_state_norm_and_normalization():
    basis = enumerate_basis(h0(), 2)
    st_ = state_from_amplitudes(basis, {(2, 0): 3.0, (0, 2): 4.0})
    assert st_.norm == pytest.approx(5.0)
    assert not st_.is_normalized()
    unit = st_.normalized()
    assert unit.is_normalized()
    assert unit.amplitudes[basis.index((2, 0))] == pytest.approx(0.6)


def test_zero_state_cannot_be_normalized():
    basis = enumerate_basis(h0(), 2)
    zero = FockState(basis, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        zero.normalized()


def test_state_shape_validation():
    basis = enumerate_basis(h0(), 2)
    with pytest.raises(ValueError):
        FockState(basis, np.zeros(4, dtype=complex))


def test_overlap_requires_matching_bases():
    b2 = enumerate_basis(h0(), 2)
    b3 = enumerate_basis(h0(), 3)
    s2 = state_from_amplitudes(b2, {(2, 0): 1.0})
    s3 = state_from_amplitudes(b3, {(3, 0): 1.0})
    assert s2.overlap(s2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        s2.overlap(s3)


def test_phase_fixing_makes_the_leading_amplitude_real():
    basis = enumerate_basis(h0(), 2)
    st_ = state_from_amplitudes(basis, {(1, 1): 0.6j, (0, 2): 0.8j})
    fixed = st_.phase_fixed()
    lead = fixed.amplitudes[basis.index((1, 1))]
    assert lead.imag == pytest.approx(0.0, abs=1e-15)
    assert lead.real > 0
    assert abs(abs(st_.overlap(fixed)) - 1.0) < 1e-12
