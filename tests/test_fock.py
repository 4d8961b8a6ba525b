"""Fock bases, permanents, and lifting mode-space matrices to photon number N."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings, strategies as st

from symprot import (
    DEFAULT_N_MAX,
    CertificationConfig,
    FockState,
    ScatterSampler,
    direct_sum,
    enumerate_basis,
    find_protected,
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
from symprot.fock import _CACHED_BASES, _as_tuples, _lift_group, _occupations, _rank, _shared_basis, _symmetric_power
from oracles import (
    apply_oracle,
    ladder_oracle,
    lift_generator_oracle,
    lift_oracle,
    mirror_oracle,
    occupations_oracle,
    permanent_expansion,
    splits_oracle,
)


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
        assert type(basis.index(occ)) is int
        assert basis.index(np.array(occ)) == i  # NumPy integer entries
    with pytest.raises(ValueError):
        basis.index((4, 0, 0, 0))  # wrong photon number
    with pytest.raises(ValueError):
        basis.index((1, 1))  # wrong mode count
    one = enumerate_basis(h0(), 1)
    # not integers, a negative entry, the wrong mode count, the wrong photon sum
    for bad in ((1.5, -0.5), (1.5, 0.5), (1.0, 0), (np.float64(1), 0), ("1", "0"), (2, -1), (1,), (1, 0, 0), (1, 1)):
        with pytest.raises(ValueError):
            one.index(bad)


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
    tables = [basis._occupancy, basis.m_totals, basis._mirror, *basis._sectors.values()]
    for parent, scale, first, modes in basis._ladder:
        tables += [parent, scale, first, *(table for mode in modes for table in mode)]
    tables += [idx for _, idx in basis._splits]
    assert tables and not any(table.flags.writeable for table in tables)


def _same_table(table, oracle):
    """Equal nested tuples of ints and integer arrays, dtypes included."""
    if isinstance(oracle, np.ndarray):
        return table.dtype == oracle.dtype and np.array_equal(table, oracle)
    if isinstance(oracle, tuple):
        return isinstance(table, tuple) and len(table) == len(oracle) and all(map(_same_table, table, oracle))
    return type(table) is type(oracle) and table == oracle


_GRID_SPACES = {
    "h0": h0(), "hm1": hm(1), "hm2": hm(2), "h0+hm1": direct_sum(h0(), hm(1)), "hm1+h0": direct_sum(hm(1), h0()),
    "hm1+hm2": direct_sum(hm(1), hm(2)), "h0+hm1+hm2": direct_sum(h0(), hm(1), hm(2)),
}
_TABLE_GRID = pytest.mark.parametrize("space", list(_GRID_SPACES.values()), ids=list(_GRID_SPACES))


@pytest.mark.parametrize("n", range(7))
@_TABLE_GRID
def test_sorted_tables_match_the_scanned_ones(space, n):
    """The split table and the mirror permutation, both built by sorting,
    equal the scans they replace."""
    basis = enumerate_basis(space, n)
    assert _same_table(basis._splits, splits_oracle(basis))
    assert _same_table(basis._mirror, mirror_oracle(basis))


@pytest.mark.parametrize("n", range(7))
@_TABLE_GRID
def test_the_ladder_matches_the_dict_built_one(space, n):
    basis = enumerate_basis(space, n)
    assert _same_table(basis._ladder, ladder_oracle(basis))


@pytest.mark.parametrize(
    "occupations,total",
    [pytest.param(name, n, id=f"{name}-{n}") for name in _GRID_SPACES for n in range(7)]
    + [pytest.param(modes, total, id=f"M{modes}-{total}") for modes in range(1, 11) for total in range(7)]
    + [pytest.param("h0+hm1+hm2", 10, id="h0+hm1+hm2-10"), pytest.param(70, 2, id="M70-2")],
)
def test_the_rank_of_each_occupation_is_its_position(occupations, total):
    """On a basis's occupations (a space named) or on an enumeration (a mode count);
    on 70 modes the binomial table holds entries past the intp range."""
    if isinstance(occupations, str):
        occupancy = enumerate_basis(_GRID_SPACES[occupations], total)._occupancy
    else:
        occupancy = _occupations(occupations, total)
    ranks = _rank(occupancy, total)
    assert ranks.dtype == np.intp and np.array_equal(ranks, np.arange(len(occupancy)))


@pytest.mark.parametrize("n", range(5))
def test_lift_generator_matches_the_dict_built_one(n):
    """Bitwise, on a complex generator with zero entries, diagonal included."""
    basis = enumerate_basis(direct_sum(hm(1), hm(2)), n)
    rng = np.random.default_rng(17 + n)
    E = _random_matrix(rng, 8)
    E[rng.random((8, 8)) < 0.3] = 0
    assert np.array_equal(lift_generator(E, basis).matrix, lift_generator_oracle(E, basis))


@pytest.mark.parametrize("modes", range(1, 11))
def test_occupations_match_the_recursive_enumeration(modes):
    for total in range(7):
        occupancy = _occupations(modes, total)
        assert occupancy.dtype == np.intp and not occupancy.flags.writeable
        assert _as_tuples(occupancy) == tuple(occupations_oracle(modes, total))


def test_the_photon_cap_basis_matches_the_recursive_enumeration():
    basis = enumerate_basis(direct_sum(h0(), hm(1), hm(2)), 10)
    assert len(basis) == 92378
    assert basis.states == tuple(occupations_oracle(10, 10))
    assert all(type(k) is int for k in basis.states[-1])
    assert "_occupancy" in vars(basis)  # kept from the enumeration, not converted again
    assert np.array_equal(basis._occupancy, np.array(basis.states, dtype=np.intp))


def test_a_basis_stores_its_occupations_once():
    """The search reads the enumerated array alone; the tuple view is built
    on first read, with Python int entries, and index and ket agree with it."""
    _shared_basis.cache_clear()
    space = direct_sum(h0(), hm(1), hm(2))
    result = find_protected(space, 8, CertificationConfig(n_samples=4))
    basis = enumerate_basis(space, 8)
    assert len(basis) == 24310 and result.rays
    assert "states" not in vars(basis)
    assert basis.states == tuple(occupations_oracle(10, 8))
    assert all(type(k) is int for occ in basis.states for k in occ)
    for i, occ in enumerate(basis.states):
        assert basis.index(occ) == i
        assert basis.ket(i) == "|" + ",".join(map(str, occ)) + ">"


def test_negative_photon_number_rejected():
    with pytest.raises(ValueError):
        enumerate_basis(h0(), -1)


# ---------------------------------------------------------------------------
# angular-momentum sectors


def test_h0_lives_in_the_zero_sector():
    basis = enumerate_basis(h0(), 4)
    assert np.array_equal(basis.m_totals, np.zeros(5, dtype=int))
    assert list(sector_split(basis)) == [0]


@pytest.mark.parametrize(
    "space", [h0(), hm(1), direct_sum(h0(), hm(1)), direct_sum(h0(), hm(1), hm(2))],
    ids=["h0", "hm1", "h0+hm1", "h0+hm1+hm2"],
)
def test_m_totals_sum_each_state_s_angular_momenta(space):
    ms = np.array([lab.m for lab in space.labels])
    for n in range(5):
        basis = enumerate_basis(space, n)
        expected = np.array([int(np.dot(occ, ms)) for occ in basis.states])
        assert basis.m_totals.dtype == expected.dtype
        assert np.array_equal(basis.m_totals, expected)


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
    "space,n", [(h0(), 3), (h0(), 6), (hm(1), 3), (direct_sum(h0(), hm(1)), 2)],
    ids=["h0-3", "h0-6", "hm-3", "h0+hm-2"],
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


def _haar_stack(rng, count):
    """Haar-random 2x2 unitaries: QR of complex Gaussians, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(np.array([_random_matrix(rng, 2) for _ in range(count)]).reshape(count, 2, 2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _two_mode_stack(kind, rng, count):
    if kind == "haar":
        return _haar_stack(rng, count)
    if kind == "subunitary":
        # U diag(s) V with singular values s in [0, 1]
        s = rng.uniform(size=(count, 1, 2))
        return _haar_stack(rng, count) * s @ _haar_stack(rng, count)
    return np.array([_random_matrix(rng, 2) for _ in range(count)]).reshape(count, 2, 2)


@pytest.mark.parametrize("kind", ["haar", "subunitary", "gaussian"])
@pytest.mark.parametrize("count", [0, 1, 16])
def test_closed_form_symmetric_power_matches_the_recursion(kind, count):
    """On two modes the lift is Sym^N in closed form; SLOS on the same basis is its oracle."""
    rng = np.random.default_rng(53)
    for n in range(11):
        stack = _two_mode_stack(kind, rng, count)
        basis = enumerate_basis(h0(), n)
        expected = _lift_group(stack, basis)
        closed = _symmetric_power(stack, n)
        assert closed.shape == expected.shape == (count, n + 1, n + 1)
        scale = max(1.0, np.abs(expected).max(initial=0.0))
        assert np.abs(closed - expected).max(initial=0.0) <= 1e-12 * scale
        assert np.array_equal(lift(stack, basis).matrix, closed)


def test_symmetric_powers_of_unitaries_are_unitary_past_the_photon_cap():
    """Sym^20 needs no basis, so it reaches beyond the enumeration cap."""
    powers = _symmetric_power(_haar_stack(np.random.default_rng(59), 8), 20)
    eye = np.eye(21)
    for U in powers:
        assert np.linalg.norm(U.conj().T @ U - eye) < 1e-11


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


@pytest.mark.parametrize("keep", [[0.7], ["1"], [0, 1.0]], ids=["fraction", "str", "float"])
def test_postselect_refuses_non_integer_modes(keep):
    """A mode index is an integer: 0.7 is not mode 0, nor "1" mode 1."""
    with pytest.raises(ValueError, match="^mode indices must be integers"):
        postselect_projector(enumerate_basis(h0(), 2), keep=keep)


def test_postselect_takes_numpy_integer_modes():
    basis = enumerate_basis(hm(1), 2)
    expected = postselect_projector(basis, keep=[0, 3]).matrix
    assert np.array_equal(postselect_projector(basis, keep=np.array([0, 3])).matrix, expected)
    assert np.array_equal(postselect_projector(basis, keep=[np.int8(0), np.uint16(3)]).matrix, expected)


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


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e-160, 1e-200])
def test_states_normalize_where_the_squared_norm_overflows_or_underflows(scale):
    """Σ|a|² is inf above about 1e154, loses digits as a subnormal below
    about 1e-154 and is 0 below about 1e-162; the state is still finite and
    nonzero, so it normalizes to its unit-scale form, with no warning (the
    test run turns warnings into errors)."""
    basis = enumerate_basis(h0(), 2)
    amps = np.array([3.0, 4.0j, 0.0])
    unit = FockState(basis, amps / 5).normalized()
    scaled = FockState(basis, scale * amps)
    assert scaled.norm != pytest.approx(5 * scale, rel=1e-12, abs=0)
    got = scaled.normalized()
    assert got.is_normalized()
    np.testing.assert_allclose(got.amplitudes, unit.amplitudes, rtol=0, atol=1e-15)


def test_normalization_keeps_its_bits_where_the_squared_norm_is_finite():
    """Only a norm of 0 or inf takes the rescaled path: any other vector is
    divided by its norm as it is."""
    basis = enumerate_basis(h0(), 4)
    for scale in (1e150, 1.0, 1e-150):
        amps = (np.random.default_rng(5).standard_normal(5) + 1j) * scale
        state = FockState(basis, amps)
        assert state.normalized().amplitudes.tobytes() == (amps / state.norm).tobytes()
    tiny = FockState(basis, np.full(5, 5e-324, dtype=complex))  # subnormal entries
    np.testing.assert_allclose(tiny.normalized().amplitudes, np.full(5, 5**-0.5), rtol=1e-15)


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
