"""Certification of protected states and the exhaustive ray search."""

import tracemalloc

import numpy as np
import pytest

from symprot import (
    CertificationConfig,
    ScatterSampler,
    Verdict,
    certify,
    direct_sum,
    enumerate_basis,
    find_protected,
    h0,
    hm,
    lift,
    mirror_fock,
    named_state,
    pair_power,
    product_state,
    sector_split,
    state_from_amplitudes,
    verify_pair_uniqueness,
)
from symprot.fock import _CACHED_BASES, _shared_basis
from symprot.protect import _GROUP_ENTRIES, _certify_subspace, _generator_blocks

CFG = CertificationConfig(n_samples=24, seed=0)


def certification_stream(cfg):
    """The sampler certify() draws from, rebuilt from the config fields."""
    return ScatterSampler(
        seed=cfg.seed, unitary=cfg.unitary, genericity_floor=cfg.genericity_floor
    )


def vacuum(space):
    return state_from_amplitudes(enumerate_basis(space, 0), {(0,) * len(space): 1.0})


def test_singlet_certifies_protected():
    report = certify(named_state("psi4"), CFG)
    assert report.verdict is Verdict.PROTECTED
    assert report.worst_residual < 1e-10
    assert report.witness_sample_index is None
    assert len(report.residuals) == CFG.n_samples


def test_singlet_eigenvalues_track_the_block_determinant():
    report = certify(named_state("psi4"), CFG)
    sampler = certification_stream(CFG)
    for lam in report.eigenvalues:
        s = sampler.sample(hm(1))
        assert abs(lam - np.linalg.det(s.block(0))) < 1e-12


def test_mirror_odd_pair_certifies_protected():
    report = certify(named_state("phi3"), CFG)
    assert report.verdict is Verdict.PROTECTED
    sampler = certification_stream(CFG)
    for lam in report.eigenvalues:
        S = sampler.sample(h0()).matrix
        alpha, beta = S[0, 0], S[0, 1]
        assert abs(lam - (alpha**2 - beta**2)) < 1e-12


def test_twin_beam_residual_is_known_in_closed_form():
    """|1,1> fails with residual exactly 2 |alpha beta| every sample."""
    report = certify(named_state("phi1"), CFG)
    assert report.verdict is Verdict.NOT_PROTECTED
    sampler = certification_stream(CFG)
    for res in report.residuals:
        S = sampler.sample(h0()).matrix
        assert abs(res - 2 * abs(S[0, 0] * S[0, 1])) < 1e-12
    # the witness is the worst sample
    w = report.witness_sample_index
    assert report.residuals[w] == max(report.residuals)
    assert report.worst_residual == report.residuals[w]


def test_certify_requires_normalized_states():
    basis = enumerate_basis(h0(), 2)
    bad = state_from_amplitudes(basis, {(2, 0): 2.0})
    with pytest.raises(ValueError):
        certify(bad, CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        CertificationConfig(n_samples=2)
    with pytest.raises(ValueError):
        CertificationConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        CertificationConfig(cluster_tol=1.5)


def test_residuals_are_basis_covariant():
    """Conjugating both state and scattering by a symmetric unitary changes nothing."""
    psi = named_state("phi3")
    basis = psi.basis
    U2 = ScatterSampler(seed=99, unitary=True).sample(h0()).matrix
    sampler = ScatterSampler(seed=5, unitary=False)
    lifted_U = lift(U2, basis).matrix
    for _ in range(5):
        S = sampler.sample(h0()).matrix
        L = lift(S, basis).matrix
        Lc = lift(U2.conj().T @ S @ U2, basis).matrix
        phi = L @ psi.amplitudes
        lam = np.vdot(psi.amplitudes, phi)
        r1 = np.linalg.norm(phi - lam * psi.amplitudes)
        rot = lifted_U.conj().T @ psi.amplitudes
        phi2 = Lc @ rot
        lam2 = np.vdot(rot, phi2)
        r2 = np.linalg.norm(phi2 - lam2 * rot)
        assert abs(lam - lam2) < 1e-10
        assert abs(r1 - r2) < 1e-10


# ---------------------------------------------------------------------------
# search


def test_search_h0_three_photons():
    result = find_protected(h0(), 3, CFG)
    assert result.verdict is Verdict.PROTECTED
    assert len(result.rays) == 4
    assert not result.subspaces
    taus = sorted(ray.mirror_tau for ray in result.rays)
    assert taus == [-1, -1, 1, 1]
    expected = [mirror_fock(3 - k, k) for k in range(4)]
    for ray in result.rays:
        assert ray.m_tot == 0
        best = max(abs(ray.state.overlap(e)) for e in expected)
        assert best > 1 - 1e-9
        assert ray.report.verdict is Verdict.PROTECTED


def test_search_rotating_pair_sector():
    result = find_protected(hm(1), 2, CFG)
    assert len(result.rays) == 1
    ray = result.rays[0]
    assert ray.m_tot == 0
    assert ray.mirror_tau == -1
    assert abs(ray.state.overlap(named_state("psi4"))) > 1 - 1e-9


def test_search_rotating_odd_photon_number_is_empty():
    result = find_protected(hm(1), 3, CFG)
    assert result.verdict is Verdict.PROTECTED
    assert result.rays == ()
    assert not result.subspaces


def test_search_is_seed_robust():
    a = find_protected(h0(), 4, CertificationConfig(n_samples=12, seed=0))
    b = find_protected(h0(), 4, CertificationConfig(n_samples=12, seed=1))
    assert len(a.rays) == len(b.rays) == 5
    assert a.samples_used == b.samples_used == 5 * 12  # five candidates, all rays
    for ray, other in zip(a.rays, b.rays):
        assert np.array_equal(ray.state.amplitudes, other.state.amplitudes)


@pytest.mark.parametrize("m", [1, 2])
def test_search_finds_the_eight_photon_pair_power(m):
    result = find_protected(hm(m), 8, CFG)
    assert len(result.rays) == 1
    assert not result.subspaces
    assert abs(result.rays[0].state.overlap(pair_power(m, 4))) > 1 - 1e-9


@pytest.mark.parametrize("n,count", [(2, 5), (3, 8)])
def test_search_on_three_components_finds_the_product_rays(n, count):
    """Every ray is a product of component rays: mirror Fock states on h0
    times a pair power (or vacuum) on each hm block."""
    result = find_protected(direct_sum(h0(), hm(1), hm(2)), n, CFG)
    assert len(result.rays) == count
    assert not result.subspaces
    assert result.samples_used == count * CFG.n_samples


def test_search_separates_components_by_photon_number():
    """|1,1>' x vac and vac x psi4 share the h0 swap eigenvalue 0 but are two rays."""
    result = find_protected(direct_sum(h0(), hm(1)), 2, CFG)
    assert len(result.rays) == 4
    assert not result.subspaces
    expected = [
        product_state([mirror_fock(1, 1), vacuum(hm(1))]),
        product_state([vacuum(h0()), named_state("psi4")]),
    ]
    for target in expected:
        assert max(abs(ray.state.overlap(target)) for ray in result.rays) > 1 - 1e-9


@pytest.mark.parametrize(
    "space,n",
    [(h0(), 4), (hm(1), 4), (direct_sum(h0(), hm(1)), 2)],
    ids=["h0-4", "hm-4", "h0+hm-2"],
)
def test_every_ray_carries_its_standalone_certificate(space, n):
    """A found ray's report is the report a standalone certify of the ray
    gives: same draws, verdict, eigenvalues and residuals."""
    result = find_protected(space, n, CFG)
    assert result.rays
    for ray in result.rays:
        alone = certify(ray.state, CFG)
        assert ray.report.verdict is alone.verdict is Verdict.PROTECTED
        assert ray.report.witness_sample_index is alone.witness_sample_index is None
        assert np.allclose(ray.report.eigenvalues, alone.eigenvalues, atol=1e-12, rtol=0)
        assert np.allclose(ray.report.residuals, alone.residuals, atol=1e-12, rtol=0)
        assert abs(ray.report.worst_residual - alone.worst_residual) <= 1e-12


def test_certification_memory_is_a_few_groups_of_lifts():
    """The draws are lifted and applied a group at a time, so the peak stays
    a small multiple of one group, not n_samples lifted matrices."""
    psi = pair_power(1, 4)
    cfg = CertificationConfig(n_samples=64, seed=0)
    certify(psi, cfg)  # warm call: builds the cached basis tables
    tracemalloc.start()
    try:
        certify(psi, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = len(psi.basis)
    assert dim == 165
    group_bytes = 16 * max(_GROUP_ENTRIES, dim * dim)
    assert peak <= 8 * group_bytes
    # the bound is far below what one stack of every lifted draw would hold
    assert 8 * group_bytes < cfg.n_samples * 16 * dim * dim / 4


def test_search_rays_are_phase_fixed():
    result = find_protected(h0(), 2, CFG)
    for ray in result.rays:
        lead = ray.state.amplitudes[np.flatnonzero(np.abs(ray.state.amplitudes) > 1e-10)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0


def test_search_sector_restriction():
    full = find_protected(hm(1), 2, CFG)
    zero = find_protected(hm(1), 2, CFG, sector=0)
    assert len(zero.rays) == len(full.rays) == 1
    top = find_protected(hm(1), 2, CFG, sector=2)
    assert top.rays == ()
    with pytest.raises(ValueError):
        find_protected(hm(1), 2, CFG, sector=5)


def _assert_same_search(a, b):
    assert a.sectors == b.sectors
    assert a.samples_used == b.samples_used
    assert len(a.rays) == len(b.rays) and len(a.subspaces) == len(b.subspaces)
    for x, y in zip(a.rays, b.rays):
        assert (x.m_tot, x.mirror_tau, x.report.verdict) == (y.m_tot, y.mirror_tau, y.report.verdict)
        assert np.array_equal(x.state.amplitudes, y.state.amplitudes)
        assert np.array_equal(x.report.eigenvalues, y.report.eigenvalues)
        assert np.array_equal(x.report.residuals, y.report.residuals)
    for x, y in zip(a.subspaces, b.subspaces):
        assert np.array_equal(x.vectors, y.vectors)


def _clear_search_tables():
    _shared_basis.cache_clear()
    _generator_blocks.cache_clear()


@pytest.mark.parametrize(
    "space,n",
    [(h0(), 4), (hm(1), 4), (direct_sum(h0(), hm(1)), 2)],
    ids=["h0-4", "hm-4", "h0+hm-2"],
)
def test_warm_search_repeats_the_cold_search(space, n):
    """Searches on cached tables give exactly what a fresh build gives,
    whole and per sector, whichever call builds the tables."""
    _clear_search_tables()
    cold = find_protected(space, n, CFG)
    for m in cold.sectors:
        _clear_search_tables()
        part = find_protected(space, n, CFG, sector=m)  # tables built by a one-sector call
        _assert_same_search(find_protected(space, n, CFG), cold)
        _assert_same_search(find_protected(space, n, CFG, sector=m), part)
        assert part.sectors == (m,)
        rays = [ray for ray in cold.rays if ray.m_tot == m]
        assert part.samples_used == len(rays) * CFG.n_samples
        for x, y in zip(part.rays, rays, strict=True):
            assert np.array_equal(x.state.amplitudes, y.state.amplitudes)


def test_changing_a_sector_split_leaves_the_search_alone():
    before = find_protected(hm(1), 4, CFG)
    split = sector_split(before.rays[0].state.basis)
    split[0].reverse()
    split[0].append(0)
    del split[2]
    _assert_same_search(find_protected(hm(1), 4, CFG), before)
    assert sector_split(before.rays[0].state.basis) != split


def test_search_tables_are_read_only_and_bounded():
    blocks = _generator_blocks(enumerate_basis(direct_sum(h0(), hm(1)), 2))
    assert not any(a.flags.writeable for sl2, commuting in blocks.values() for a in (sl2, *commuting))
    for m in range(1, _CACHED_BASES + 9):
        assert find_protected(hm(m), 1, CFG).rays == ()
    assert _shared_basis.cache_info().currsize <= _CACHED_BASES
    assert _generator_blocks.cache_info().currsize <= _CACHED_BASES


def test_product_of_protected_rays_is_protected():
    """phi3 x psi4 carries the product eigenvalue (alpha^2 - beta^2) det(S_m)."""
    state = product_state([named_state("phi3"), named_state("psi4")])
    cfg = CertificationConfig(n_samples=12, seed=2)
    report = certify(state, cfg)
    assert report.verdict is Verdict.PROTECTED
    assert report.worst_residual < 1e-10
    space = direct_sum(h0(), hm(1))
    sampler = certification_stream(cfg)
    for lam in report.eigenvalues:
        S = sampler.sample(space).matrix
        alpha, beta = S[0, 0], S[0, 1]
        det_m = np.linalg.det(S[2:4, 2:4])
        assert abs(lam - (alpha**2 - beta**2) * det_m) < 1e-12


def test_subspace_certification_accepts_a_protected_ray():
    psi = pair_power(1, 1)
    idx = sector_split(psi.basis)[0]
    sub = _certify_subspace(psi.basis, idx, psi.amplitudes[idx, None], 0, CFG)
    assert sub is not None
    assert sub.dimension == 1
    assert sub.worst_residual < CFG.residual_tol
    assert np.allclose(sub.vectors[:, 0], psi.amplitudes, atol=1e-15, rtol=0)


def test_subspace_certification_rejects_distinct_eigenvalues():
    """|2,0>' and |0,2>' are both protected, with eigenvalues (a+b)^2 and (a-b)^2."""
    cand = np.column_stack([mirror_fock(2, 0).amplitudes, mirror_fock(0, 2).amplitudes])
    basis = enumerate_basis(h0(), 2)
    idx = list(range(len(basis)))
    assert np.allclose(cand.conj().T @ cand, np.eye(2), atol=1e-15, rtol=0)
    for k in range(2):
        assert _certify_subspace(basis, idx, cand[:, [k]], 0, CFG) is not None
    assert _certify_subspace(basis, idx, cand, 0, CFG) is None


def test_subspace_certification_rejects_an_unprotected_direction():
    psi = pair_power(1, 1)
    idx = sector_split(psi.basis)[0]
    rng = np.random.default_rng(3)
    noise = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    cand, _ = np.linalg.qr(np.column_stack([psi.amplitudes[idx], noise]))
    assert _certify_subspace(psi.basis, idx, cand, 0, CFG) is None


# ---------------------------------------------------------------------------
# pair uniqueness


@pytest.mark.parametrize("m,pairs", [(1, 1), (1, 2), (2, 1)])
def test_pair_uniqueness_holds(m, pairs):
    report = verify_pair_uniqueness(m, pairs, CFG)
    assert report.ok
    assert report.ray_count == 1
    assert report.overlap > 1 - 1e-9
    assert report.coefficients_ok
    assert report.samples_used >= 3


def test_pair_uniqueness_rejects_zero_pairs():
    with pytest.raises(ValueError):
        verify_pair_uniqueness(1, 0, CFG)
