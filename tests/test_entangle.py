"""Two-photon coefficient matrices, Takagi factorization, Slater ranks."""

import numpy as np
import pytest

from symprot import (
    ScatterSampler,
    TwoPhotonMatrix,
    enumerate_basis,
    h0,
    hm,
    named_state,
    single_product_modes,
    slater_report,
    state_from_amplitudes,
    takagi,
    two_photon_matrix,
    two_photon_state,
)


def random_symmetric(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.T) / 2


def haar_unitary(rng, n):
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# ---------------------------------------------------------------------------
# coefficient matrices


def test_phi3_coefficient_matrix():
    C = two_photon_matrix(named_state("phi3"))
    assert np.allclose(C.matrix, np.diag([0.5, -0.5]), atol=1e-15, rtol=0)


def test_concentrated_state_coefficient_matrix():
    basis = enumerate_basis(h0(), 2)
    state = state_from_amplitudes(basis, {(2, 0): 1.0})
    C = two_photon_matrix(state)
    assert np.allclose(C.matrix, np.diag([1 / np.sqrt(2), 0.0]), atol=1e-15, rtol=0)


def test_psi4_coefficient_matrix():
    C = two_photon_matrix(named_state("psi4")).matrix
    v = 1 / (2 * np.sqrt(2))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = v
    expected[1, 3] = expected[3, 1] = -v
    assert np.allclose(C, expected, atol=1e-15, rtol=0)


def test_normalized_states_have_frobenius_half_norm():
    """|psi| = 1 forces |C|_F^2 = 1/2."""
    rng = np.random.default_rng(3)
    basis = enumerate_basis(hm(1), 2)
    for _ in range(10):
        amps = rng.normal(size=10) + 1j * rng.normal(size=10)
        state = state_from_amplitudes(
            basis, dict(zip(basis.states, amps))
        ).normalized()
        C = two_photon_matrix(state)
        assert np.linalg.norm(C.matrix) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_coefficient_matrix_roundtrip():
    rng = np.random.default_rng(11)
    for space in (h0(), hm(1)):
        basis = enumerate_basis(space, 2)
        d = len(basis.states)
        for _ in range(5):
            amps = rng.normal(size=d) + 1j * rng.normal(size=d)
            state = state_from_amplitudes(basis, dict(zip(basis.states, amps))).normalized()
            back = two_photon_state(two_photon_matrix(state))
            assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-14, rtol=0)


def test_two_photon_matrix_requires_two_photons():
    basis = enumerate_basis(h0(), 3)
    state = state_from_amplitudes(basis, {(3, 0): 1.0})
    with pytest.raises(ValueError):
        two_photon_matrix(state)


def test_two_photon_matrix_must_be_symmetric():
    with pytest.raises(ValueError):
        TwoPhotonMatrix(space=h0(), matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Takagi factorization


def reconstruct(values, W):
    return W @ np.diag(values) @ W.T


@pytest.mark.parametrize("n", [2, 3, 4])
def test_takagi_reconstructs_random_symmetric_matrices(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        C = random_symmetric(rng, n)
        values, W = takagi(C)
        assert np.linalg.norm(W.conj().T @ W - np.eye(n)) < 1e-10
        assert np.all(values >= -1e-15)
        assert np.all(np.diff(values) <= 1e-12)  # descending
        assert np.linalg.norm(reconstruct(values, W) - C) < 1e-10
        assert np.allclose(values, np.linalg.svd(C, compute_uv=False), atol=1e-10, rtol=0)


def test_takagi_handles_degenerate_values():
    for C in (
        np.eye(3, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
        np.zeros((2, 2), dtype=complex),
    ):
        values, W = takagi(C)
        assert np.linalg.norm(W.conj().T @ W - np.eye(C.shape[0])) < 1e-10
        assert np.linalg.norm(reconstruct(values, W) - C) < 1e-10


def test_takagi_handles_rank_deficiency():
    rng = np.random.default_rng(8)
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    C = np.outer(u, u)
    values, W = takagi(C)
    assert np.linalg.norm(reconstruct(values, W) - C) < 1e-10
    assert np.sum(values > 1e-10) == 1


def test_takagi_values_are_basis_invariant():
    rng = np.random.default_rng(21)
    C = random_symmetric(rng, 4)
    base = takagi(C)[0]
    for _ in range(20):
        V = haar_unitary(rng, 4)
        rotated = takagi(V.T @ C @ V)[0]
        assert np.allclose(rotated, base, atol=1e-10, rtol=0)


def test_takagi_input_validation():
    with pytest.raises(ValueError):
        takagi(np.ones((2, 3)))
    with pytest.raises(ValueError):
        takagi(np.array([[0.0, 1.0], [0.5, 0.0]]))


# ---------------------------------------------------------------------------
# Slater decomposition


def test_phi3_is_a_single_product_of_rank_two():
    report = slater_report(named_state("phi3"))
    assert report.rank == 2
    assert report.is_single_product
    assert np.allclose(report.values, [0.5, 0.5], atol=1e-12, rtol=0)


def test_psi4_has_full_slater_rank():
    report = slater_report(named_state("psi4"))
    assert report.rank == 4
    assert not report.is_single_product
    assert np.allclose(report.values, 1 / (2 * np.sqrt(2)), atol=1e-12, rtol=0)


def test_concentrated_state_has_rank_one():
    basis = enumerate_basis(h0(), 2)
    state = state_from_amplitudes(basis, {(2, 0): 1.0})
    report = slater_report(state)
    assert report.rank == 1
    assert report.is_single_product


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3", "s1", "s2", "psi1", "psi2"])
def test_single_product_states_factor_constructively(name):
    """For rank <= 2 the state is a_u^dag a_v^dag |0> for the returned modes."""
    state = named_state(name)
    u, v = single_product_modes(state)
    C = (np.outer(u, v) + np.outer(v, u)) / 2
    rebuilt = two_photon_state(TwoPhotonMatrix(space=state.basis.space, matrix=C))
    assert abs(rebuilt.overlap(state)) > 1 - 1e-10
    assert np.linalg.norm(rebuilt.amplitudes - state.amplitudes) < 1e-10


@pytest.mark.parametrize("name", ["psi3", "psi4"])
def test_rank_four_states_do_not_factor(name):
    with pytest.raises(ValueError, match="Slater rank above 2"):
        single_product_modes(named_state(name))


@pytest.mark.parametrize("rank_tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("function", [slater_report, single_product_modes])
def test_rank_tolerance_must_be_finite_and_non_negative(function, rank_tol):
    """A NaN tolerance would pass every rank test: psi4 (Slater rank 4)
    would factor."""
    with pytest.raises(ValueError, match=f"rank_tol must be finite and >= 0, got {rank_tol}"):
        function(named_state("psi4"), rank_tol=rank_tol)


def test_random_two_photon_scattering_preserves_slater_values():
    """A lifted unitary on two photons permutes nothing: values are invariant."""
    rng = np.random.default_rng(5)
    state = named_state("psi4")
    base = slater_report(state).values
    from symprot import lift

    for seed in range(5):
        s = ScatterSampler(seed=seed, unitary=True).sample(hm(1))
        out = lift(s.matrix, state.basis).apply(state)
        values = slater_report(out.normalized()).values
        assert np.allclose(values, base, atol=1e-10, rtol=0)
