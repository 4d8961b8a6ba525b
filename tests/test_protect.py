"""Certification of protected states and the exhaustive ray search."""

import copy
import itertools
import json
import math
import sys
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from symprot import (
    CertificationConfig,
    ScatterSampler,
    TimeBinQudit,
    Verdict,
    certify,
    direct_sum,
    eigen_modes,
    enumerate_basis,
    family_generators,
    find_protected,
    h0,
    hm,
    lift,
    lift_generator,
    mirror_fock,
    named_state,
    pair_power,
    product_state,
    sector_split,
    slater_report,
    state_from_amplitudes,
    time_bin_qudit,
    transmit,
    transmit_bins,
    two_photon_matrix,
    verify_pair_uniqueness,
)
from oracles import dense_bookkeeping_oracle, dsym, hm_kernel_oracle, lift_generator_oracle
from symprot import fock, protect, scatter, serialize
from symprot.fock import _CACHED_BASES, FockState, _shared_basis, max_photons
from symprot.protect import (
    _certify_subspace,
    _draws,
    _kron,
    _mirror_fock_factors,
    _ray_order,
    _scalar_action,
    _search_plan,
    _split_candidates,
)

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


def test_a_repeated_certification_seeds_no_generator(monkeypatch):
    """A certify or search repeated with the same config and space reads
    its kept draws back without seeding a generator, and reports the same
    numbers bit for bit."""
    cfg = CertificationConfig(n_samples=16, seed=13)
    state, space = named_state("psi4"), direct_sum(h0(), hm(1))
    first, rays = certify(state, cfg), find_protected(space, 4, cfg).rays

    def refuse(*args):
        raise AssertionError("a repeated certification seeded a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    again = certify(state, cfg)
    assert again.verdict == first.verdict and again.witness_sample_index == first.witness_sample_index
    assert np.array_equal(again.eigenvalues, first.eigenvalues) and np.array_equal(again.residuals, first.residuals)
    for ray, fresh in zip(rays, find_protected(space, 4, cfg).rays, strict=True):
        assert np.array_equal(ray.state.amplitudes, fresh.state.amplitudes)
        assert (ray.m_tot, ray.mirror_tau) == (fresh.m_tot, fresh.mirror_tau)


def test_certify_requires_normalized_states():
    """Only a call handed the search's apply skips the check, which the
    search's plan has made; a dense state and a split-backed one are both
    checked."""
    basis = enumerate_basis(h0(), 2)
    bad = state_from_amplitudes(basis, {(2, 0): 2.0})
    with pytest.raises(ValueError):
        certify(bad, CFG)
    ray = find_protected(h0(), 2, CFG).rays[0]
    scaled = FockState._on_split(ray.state.basis, ray.state._split, ray.state._values * 1.01)
    with pytest.raises(ValueError, match="must be normalized"):
        certify(scaled, CFG)


def test_certify_handed_the_search_apply_reads_no_draw(monkeypatch):
    """Handed ``_applied``, certify reads no draw, calls no kernel, and
    returns the bytes of the report a call on the state alone gives."""
    for space, n in [(h0(), 4), (direct_sum(h0(), hm(1)), 3)]:
        for ray in find_protected(space, n, CFG).rays:
            alone = certify(ray.state, CFG)
            applied = (alone.eigenvalues, alone.residuals, int(alone.residuals.argmax()))
            calls = []
            monkeypatch.setattr(protect, "_draws", lambda *args: calls.append("draws"))
            monkeypatch.setattr(protect, "_scalar_action", lambda *args: calls.append("apply"))
            report = certify(ray.state, CFG, _applied=applied)
            monkeypatch.undo()
            assert calls == []
            assert report.verdict is alone.verdict and report.witness_sample_index == alone.witness_sample_index
            assert report.worst_residual == alone.worst_residual
            assert report.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert report.residuals.tobytes() == alone.residuals.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        CertificationConfig(n_samples=2)
    with pytest.raises(ValueError):
        CertificationConfig(residual_tol=0.0)
    with pytest.raises(TypeError):  # the search sets no tolerance: every candidate is one ray
        CertificationConfig(cluster_tol=1.5)


@pytest.mark.parametrize(
    "field,value",
    [("n_samples", 3.5), ("n_samples", "8"), ("seed", -1), ("seed", 1.5), ("seed", np.int64(-2)),
     ("genericity_floor", float("nan")), ("genericity_floor", 0.0), ("genericity_floor", 1.0),
     ("genericity_floor", "0.1"), ("residual_tol", "1e-10"), ("residual_tol", float("nan"))],
    ids=["samples-float", "samples-str", "seed-negative", "seed-float", "seed-numpy-negative",
         "floor-nan", "floor-zero", "floor-one", "floor-str", "tol-str", "tol-nan"],
)
def test_config_names_the_field_it_refuses(field, value):
    """A bad field is refused when the config is built, not at the first draw."""
    with pytest.raises(ValueError, match=f"^{field} must"):
        CertificationConfig(**{field: value})
    if field == "genericity_floor":
        with pytest.raises(ValueError, match=f"^{field} must"):
            ScatterSampler(**{field: value})


@pytest.mark.parametrize("value", ["no", "", 1, 0, None, 1.0], ids=repr)
@pytest.mark.parametrize("build", [CertificationConfig, ScatterSampler], ids=["config", "sampler"])
def test_unitary_must_be_a_bool(build, value):
    """A truthy string such as "no" would draw unitary matrices; it is refused."""
    with pytest.raises(ValueError, match="^unitary must"):
        build(unitary=value)


@pytest.mark.parametrize("build", [CertificationConfig, ScatterSampler], ids=["config", "sampler"])
def test_unitary_is_stored_as_a_python_bool(build):
    for value in (True, False, np.True_, np.False_):
        made = build(unitary=value)
        assert type(made.unitary) is bool and made.unitary == value
    sigma = np.linalg.norm(ScatterSampler(seed=4, unitary=np.False_).sample(hm(1), 8), ord=2, axis=(1, 2))
    assert np.all(sigma < 1)


def test_config_takes_numpy_integers():
    cfg = CertificationConfig(n_samples=np.int64(8), seed=np.uint32(3))
    assert certify(named_state("psi4"), cfg).verdict is Verdict.PROTECTED


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
    """The draws are applied one mode pair at a time and never lifted to
    dim x dim, so the peak stays below eight dense lifts, far below one
    stack of every lifted draw."""
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
    assert peak <= 8 * 16 * dim * dim
    # the bound is far below what one stack of every lifted draw would hold
    assert 8 * 16 * dim * dim < cfg.n_samples * 16 * dim * dim / 4


def test_certification_memory_stays_below_one_dense_lift():
    """The factorised apply holds O(n_samples * dim) entries: certifying a
    dim-286 state against 8 draws peaks below one dense lifted matrix."""
    psi = pair_power(1, 5)
    cfg = CertificationConfig(n_samples=8, seed=0)
    certify(psi, cfg)  # warm call: builds the cached basis tables
    tracemalloc.start()
    try:
        certify(psi, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = len(psi.basis)
    assert dim == 286
    assert peak < 16 * dim * dim


def test_a_ray_on_one_split_is_applied_on_its_support():
    """A ray on one split is applied on that split alone: 16 draws on a
    108-state split of the dim-24310 basis peak below 2 MB, less than one
    dim-sized image of the draws (6.2 MB)."""
    psi = product_state([mirror_fock(1, 1), pair_power(1, 2), pair_power(2, 1)])
    basis = psi.basis
    assert basis.space == direct_sum(h0(), hm(1), hm(2)) and len(basis) == 24310
    occupied = [(counts, len(idx)) for counts, idx in basis._splits if psi.amplitudes[idx].any()]
    assert occupied == [((2, 2, 2, 1, 1), 108)]
    matrices = _draws(basis.space, CertificationConfig(n_samples=16, seed=0))
    vectors, splits = _on_occupied_splits(basis, psi.amplitudes[:, None])
    _scalar_action(basis, matrices, vectors, {}, splits)  # warm call: builds the cached basis tables
    tracemalloc.start()
    try:
        eigenvalues, residuals = _scalar_action(basis, matrices, vectors, {}, splits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20 < 16 * 16 * len(basis)
    assert residuals.max() < 1e-10 and len(eigenvalues) == 16


def _on_occupied_splits(basis, dense):
    """Dense (dim, d) columns, or a (c, dim, d) stack of them, as
    ``_scalar_action`` takes them: their rows on the splits they occupy,
    found by the basis lookup ``FockState`` uses, and those splits."""
    splits = basis._occupied((dense != 0).any(axis=-1).reshape(-1, len(basis)).any(axis=0))
    return dense[..., basis._rows(splits), :], splits


def _pair_block_stack(space, count, rng):
    """Random matrices that are block diagonal over the 2x2 mode-pair blocks,
    with every block of spectral norm 1; no family member in general."""
    m = len(space)
    out = np.zeros((count, m, m), dtype=complex)
    for p in range(0, m, 2):
        block = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
        out[:, p : p + 2, p : p + 2] = block / np.linalg.norm(block, ord=2, axis=(1, 2))[:, None, None]
    return out


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize(
    "space",
    [h0(), hm(1), hm(2), direct_sum(h0(), hm(1)), direct_sum(hm(1), hm(2)), direct_sum(h0(), hm(1), hm(2))],
    ids=["h0", "hm1", "hm2", "h0+hm1", "hm1+hm2", "h0+hm1+hm2"],
)
def test_factorised_apply_matches_the_dense_lift(space, n):
    """Eigenvalues tr(V^dag L V) / d and residuals |L V - lam V| of the
    factorised apply equal those taken from the dense lift L = lift(S)."""
    rng = np.random.default_rng(17 + n)
    basis = enumerate_basis(space, n)
    matrices = _pair_block_stack(space, 5, rng)
    dense = lift(matrices, basis).matrix
    for d in (1, 2):
        vectors = rng.normal(size=(len(basis), d)) + 1j * rng.normal(size=(len(basis), d))
        vectors /= np.linalg.norm(vectors)
        images = dense @ vectors
        lam = np.einsum("nd,knd->k", vectors.conj(), images) / d
        res = np.linalg.norm(images - lam[:, None, None] * vectors, axis=(1, 2))
        rows, splits = _on_occupied_splits(basis, vectors)
        eigenvalues, residuals = _scalar_action(basis, matrices, rows, {}, splits)
        assert np.allclose(eigenvalues, lam, atol=1e-12, rtol=0)
        assert np.allclose(residuals, res, atol=1e-12, rtol=0)
    # a state on few pair photon counts, so most blocks are skipped
    sparse = np.zeros((len(basis), 1), dtype=complex)
    sparse[[0, -1]] = 1 / np.sqrt(2) if len(basis) > 1 else 1
    images = dense @ sparse
    lam = (sparse.conj().T @ images)[:, 0, 0]
    rows, splits = _on_occupied_splits(basis, sparse)
    eigenvalues, residuals = _scalar_action(basis, matrices, rows, {}, splits)
    assert np.allclose(eigenvalues, lam, atol=1e-12, rtol=0)
    assert np.allclose(residuals, np.linalg.norm(images - lam[:, None, None] * sparse, axis=(1, 2)), atol=1e-12, rtol=0)


_SPLIT_GRID = pytest.mark.parametrize(
    "space",
    [h0(), hm(1), direct_sum(h0(), hm(1)), direct_sum(hm(1), hm(2)), direct_sum(h0(), hm(1), hm(2))],
    ids=["h0", "hm1", "h0+hm1", "hm1+hm2", "h0+hm1+hm2"],
)


@pytest.mark.parametrize("n", range(4))
@_SPLIT_GRID
def test_split_table_runs_in_the_kronecker_order_of_the_pairs(space, n):
    basis = enumerate_basis(space, n)
    seen = []
    for counts, idx in basis._splits:
        pair_bases = [enumerate_basis(h0(), k).states for k in counts]
        expected = [sum(states, ()) for states in itertools.product(*pair_bases)]
        assert [basis.states[i] for i in idx] == expected
        assert not idx.flags.writeable
        seen += idx.tolist()
    assert sorted(seen) == list(range(len(basis)))
    assert [counts for counts, _ in basis._splits] == sorted(counts for counts, _ in basis._splits)


@pytest.mark.parametrize("n", range(4))
@_SPLIT_GRID
def test_the_split_position_table_agrees_with_the_splits(space, n):
    """Column i of ``_split_table`` holds the position of state i's split in
    ``_splits`` and i's position in that split's indices; it is read-only."""
    basis = enumerate_basis(space, n)
    table = basis._split_table
    assert table.shape == (2, len(basis)) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    for split, (_, idx) in enumerate(basis._splits):
        assert table[0, idx].tolist() == [split] * len(idx)
        assert table[1, idx].tolist() == list(range(len(idx)))
    assert basis._split_table is table


def _split_generator(blocks, counts):
    """sum_p 1 x dSym^{k_p}(B_p) x 1 over the pairs, first pair slowest."""
    sizes = [k + 1 for k in counts]
    return sum(
        np.kron(np.kron(np.eye(math.prod(sizes[:p])), dsym(block, k)), np.eye(math.prod(sizes[p + 1 :])))
        for p, (block, k) in enumerate(zip(blocks, counts))
    )


@pytest.mark.parametrize("n", range(4))
@_SPLIT_GRID
def test_generator_blocks_are_slices_of_the_dense_generators(space, n):
    """Every family generator is block diagonal over the splits, and its
    block on a split is the Kronecker sum of the closed-form dSym^k of its
    2x2 pair blocks."""
    basis = enumerate_basis(space, n)
    pairs = np.arange(len(space) // 2)
    sl2, commuting = family_generators(space)
    for gen in sl2 + commuting:
        dense = lift_generator(gen, basis).matrix
        blocks = gen.reshape(len(pairs), 2, len(pairs), 2)[pairs, :, pairs]
        covered = np.zeros_like(dense)
        for counts, idx in basis._splits:
            cut = np.ix_(idx, idx)
            assert np.array_equal(_split_generator(blocks, counts), dense[cut])
            covered[cut] = dense[cut]
        assert np.array_equal(covered, dense)


def test_search_peak_memory_is_below_a_dense_generator():
    """The search keeps no dim x dim or per-sector table: from cold
    mirror Fock factors it peaks under an eighth of one dense generator."""
    space = direct_sum(h0(), hm(1), hm(2))
    dim = len(enumerate_basis(space, 5))
    find_protected(space, 5, CFG)  # warm call: builds the shared basis tables
    _mirror_fock_factors.cache_clear()
    _search_plan.cache_clear()
    tracemalloc.start()
    try:
        find_protected(space, 5, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim == 2002
    assert peak < dim * dim * 16 / 8


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


@pytest.mark.parametrize("sector", [0.0, "0", 1.5], ids=["float", "str", "fraction"])
def test_search_sector_must_be_an_integer(sector):
    with pytest.raises(ValueError, match="^sector must"):
        find_protected(hm(1), 2, CFG, sector=sector)


def test_search_sectors_are_python_ints():
    for sector in (0, np.int64(0), np.int8(2)):
        result = find_protected(hm(1), 2, CFG, sector=sector)
        assert result.sectors == (int(sector),) and type(result.sectors[0]) is int
    assert all(type(m) is int for m in find_protected(hm(1), 2, CFG).sectors)


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
    _mirror_fock_factors.cache_clear()
    _search_plan.cache_clear()


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
    """The mirror Fock factors are keyed by the photon count only, so their
    cache is bounded by the photon cap, whatever m and the bases; the
    search plans keep the ``_CACHED_BASES`` most recently used."""
    find_protected(direct_sum(h0(), hm(1)), 2, CFG)
    assert not any(a.flags.writeable for a in _mirror_fock_factors(2))
    _clear_search_tables()
    for m in range(1, _CACHED_BASES + 9):
        assert find_protected(hm(m), 1, CFG).rays == ()
    assert _shared_basis.cache_info().currsize <= _CACHED_BASES
    assert _mirror_fock_factors.cache_info().currsize == 0  # (1, 0) and (0, 1) on hm have a != b
    for m in range(1, _CACHED_BASES + 9):
        assert len(find_protected(hm(m), 2, CFG).rays) == 1
    assert _search_plan.cache_info().currsize == _CACHED_BASES
    assert _shared_basis.cache_info().currsize <= _CACHED_BASES
    assert _mirror_fock_factors.cache_info().currsize == 0  # an hm space has no h0 factor
    for m in range(1, _CACHED_BASES + 9):
        assert len(find_protected(direct_sum(h0(), hm(m)), 2, CFG).rays) == 4
    assert _mirror_fock_factors.cache_info().currsize == 2  # k = 2 and 0 on h0, whatever m; k = 1 leaves a != b
    assert _mirror_fock_factors.cache_info().currsize <= max_photons() + 1


def _plan_leaves(plan):
    """Every object in a search plan that is not a tuple."""
    if isinstance(plan, tuple):
        return [leaf for item in plan for leaf in _plan_leaves(item)]
    return [plan]


@pytest.mark.parametrize(
    "space,n,splits,candidates",
    [(h0(), 6, 1, 7), (direct_sum(h0(), hm(1)), 2, 2, 4), (direct_sum(h0(), hm(1), hm(2)), 4, 6, 14)],
    ids=["h0-6", "h0+hm1-2", "h0+hm1+hm2-4"],
)
def test_a_search_plan_holds_read_only_arrays_and_no_basis(space, n, splits, candidates):
    """A plan is its splits' positions, read-only candidate stacks, parities
    and a read-only order over the candidates: no basis, state, config or draw."""
    find_protected(space, n, CFG)
    plan, order = _search_plan(space, n)
    assert len(plan) == splits and sum(len(stack) for _, stack, _ in plan) == len(order) == candidates
    assert sorted(order.tolist()) == list(range(candidates))
    for s, stack, taus in plan:
        assert type(s) is int and stack.dtype == complex and len(taus) == len(stack)
        assert all(tau in (1, -1) and type(tau) is int for tau in taus)
    leaves = _plan_leaves((plan, order))
    assert all(type(leaf) in (int, np.ndarray) for leaf in leaves)
    assert not any(leaf.flags.writeable for leaf in leaves if type(leaf) is np.ndarray)
    assert _search_plan(space, n) is _search_plan(space, n)


def _search_bytes(result):
    """Everything a search returns, as bytes: a warm search equals a cold
    one bit for bit exactly when these are equal."""
    out = [repr((result.sectors, result.samples_used, result.verdict, len(result.subspaces))).encode()]
    for ray in result.rays:
        report = ray.report
        out.append(repr((ray.state._split, ray.m_tot, ray.mirror_tau, report.verdict,
                         report.worst_residual.hex(), report.witness_sample_index)).encode())
        out += [ray.state._values.tobytes(), report.eigenvalues.tobytes(), report.residuals.tobytes()]
    return b"|".join(out)


_CONFIGS = [CertificationConfig(n_samples=k, seed=seed, unitary=unitary)
            for seed in (0, 1, 7919) for k in (3, 16) for unitary in (False, True)]


@pytest.mark.parametrize(
    "space,n",
    [(h0(), 5), (hm(1), 4), (direct_sum(h0(), hm(1)), 3), (direct_sum(h0(), hm(1), hm(2)), 4)],
    ids=["h0-5", "hm1-4", "h0+hm1-3", "h0+hm1+hm2-4"],
)
def test_a_search_plan_holds_nothing_of_the_config(space, n):
    """After a search under one config, a search under another gives the
    bits a cold search under that other config gives, for every pair of
    seeds, sample counts and sampling classes."""
    cold = {}
    for cfg in _CONFIGS:
        _clear_search_tables()
        cold[cfg] = _search_bytes(find_protected(space, n, cfg))
    for first, then in itertools.permutations(_CONFIGS, 2):
        _search_plan.cache_clear()
        find_protected(space, n, first)
        assert _search_bytes(find_protected(space, n, then)) == cold[then], (first, then)
    assert len(set(cold.values())) == len(_CONFIGS)


@pytest.mark.parametrize(
    "space,n",
    [(h0(), 6), (direct_sum(h0(), hm(1)), 3), (direct_sum(h0(), hm(1), hm(2)), 4)],
    ids=["h0-6", "h0+hm1-3", "h0+hm1+hm2-4"],
)
def test_a_search_returns_its_survivors_in_their_own_order(monkeypatch, space, n):
    """Candidates made to fail certification are dropped: the rays are the
    survivors in ``_ray_order`` of the survivors, and ``samples_used``
    still counts every candidate."""
    full = find_protected(space, n, CFG)
    candidates = len(full.rays)
    assert full.samples_used == candidates * CFG.n_samples
    apply_, failing, seen = protect._scalar_action, set(), []

    def apply(basis, matrices, vectors, powers, splits):
        eigenvalues, residuals = apply_(basis, matrices, vectors, powers, splits)
        rows = vectors[..., 0] if vectors.ndim == 3 else vectors[None, :, 0]
        inflate = [len(seen) + j in failing for j in range(len(rows))]
        seen.extend((splits, row.tobytes()) for row in rows)
        return eigenvalues, residuals + (np.array(inflate)[:, None] if vectors.ndim == 3 else float(inflate[0]))

    monkeypatch.setattr(protect, "_scalar_action", apply)
    rng = np.random.default_rng(candidates)
    subsets = [set(), set(range(candidates)), set(range(0, candidates, 2)), set(range(1, candidates, 3))]
    subsets += [set(rng.choice(candidates, size=k, replace=False).tolist()) for k in (1, candidates // 2, candidates - 1)]
    for subset in subsets:
        failing, seen[:] = subset, []
        result = find_protected(space, n, CFG)
        assert len(seen) == candidates and result.samples_used == full.samples_used
        dropped = {seen[i] for i in subset}
        survivors = [ray for ray in full.rays if (ray.state._splits, ray.state._values.tobytes()) not in dropped]
        assert len(survivors) == candidates - len(subset)
        expected = [survivors[i] for i in _ray_order([ray.state for ray in survivors])] if survivors else []
        assert [(ray.state._splits, ray.state._values.tobytes()) for ray in result.rays] == [
            (ray.state._splits, ray.state._values.tobytes()) for ray in expected]
        for got, want in zip(result.rays, expected):
            assert got.mirror_tau == want.mirror_tau and got.report.verdict is Verdict.PROTECTED
            assert got.report.residuals.tobytes() == want.report.residuals.tobytes()


def test_searches_share_no_state():
    """Each search builds its own rays and states, so reading one search's
    dense amplitudes builds none for another's rays."""
    space, cfg = direct_sum(h0(), hm(1), hm(2)), CertificationConfig(n_samples=4)
    first, second = find_protected(space, 4, cfg), find_protected(space, 4, cfg)
    assert len(first.rays) == len(second.rays) == 14
    assert not {id(ray.state) for ray in first.rays} & {id(ray.state) for ray in second.rays}
    for ray in first.rays:
        ray.state.amplitudes
    third = find_protected(space, 4, cfg)
    assert all("amplitudes" in vars(ray.state) for ray in first.rays)
    assert not any("amplitudes" in vars(ray.state) for ray in (*second.rays, *third.rays))
    for ray in third.rays:
        assert not ray.state._values.flags.writeable


def _tuple_key(ray):
    amps = ray.state.amplitudes
    return (-ray.m_tot,) + tuple(np.round(amps.real, 9)) + tuple(np.round(amps.imag, 9))


def test_ray_order_is_the_tuple_key_order():
    """The compact lexsort keys, over the rays' splits, order rays as the
    tuples of -m_tot and all rounded real, then imaginary parts do, ties
    kept in place."""
    rays = find_protected(direct_sum(h0(), hm(1), hm(2)), 4, CFG).rays
    assert len(rays) == 14
    assert list(rays) == sorted(rays, key=_tuple_key)
    rng = np.random.default_rng(5)
    mixed = [rays[i] for i in rng.permutation(len(rays))] + [rays[3], rays[0], rays[3]]
    assert _ray_order([ray.state for ray in mixed]).tolist() == sorted(range(len(mixed)), key=lambda i: _tuple_key(mixed[i]))


_BOOKKEEPING_SPACES = [
    ("h0", h0(), 8),
    ("hm1", hm(1), 8),
    ("hm2", hm(2), 8),
    ("h0+hm1", direct_sum(h0(), hm(1)), 6),
    ("h0+hm1+hm2", direct_sum(h0(), hm(1), hm(2)), 6),
]


@pytest.mark.parametrize(
    "space,n",
    [pytest.param(space, n, id=f"{name}-{n}") for name, space, top in _BOOKKEEPING_SPACES for n in range(top + 1)],
)
def test_search_bookkeeping_matches_the_dense_oracle(space, n):
    """Rays normalised, phase-fixed and mirrored on their split's slice, and
    ordered over the splits, are the dense bookkeeping's rays: amplitudes
    to 1e-15 (the slice's norm may differ from the dense one in the last
    bit), m_tot, parity and order exactly."""
    cfg = CertificationConfig(n_samples=4)
    basis = enumerate_basis(space, n)
    candidates = [
        (int(basis.m_totals[idx[0]]), idx, cand)
        for counts, idx in basis._splits
        for cand in _split_candidates(space, counts)
    ]
    assert all(cand.shape == (len(idx), 1) for _, idx, cand in candidates)
    expected = dense_bookkeeping_oracle(basis, [(m, idx, cand[:, 0]) for m, idx, cand in candidates])
    rays = find_protected(space, n, cfg).rays
    assert len(rays) == len(expected)
    for ray, (m_tot, tau, amps) in zip(rays, expected):
        assert (ray.m_tot, ray.mirror_tau) == (m_tot, tau)
        assert np.allclose(ray.state.amplitudes, amps, atol=1e-15, rtol=0)


def test_hm_kernels_exist_only_at_equal_counts():
    """Clebsch-Gordan: sl(2) has an invariant on Sym^a x Sym^b only when
    a = b. In the oracle, every a != b stack has full rank far above the
    default ``cluster_tol`` (the smallest ratio up to a + b = 16 is 0.091),
    and each (K, K) stack has a one-dimensional kernel with a wide gap."""
    for a, b in itertools.product(range(17), repeat=2):
        if a != b and a + b <= 16:
            s, _ = hm_kernel_oracle(a, b)
            assert s[-1] / s[0] > 0.05, (a, b)
    for pairs in range(1, 9):
        s, _ = hm_kernel_oracle(pairs, pairs)
        assert np.count_nonzero(s < 1e-12 * s[0]) == 1
        assert s[-2] / s[0] > 0.1


_COUNT_SPACES = [(name, space) for name, space, _ in _BOOKKEEPING_SPACES] + [("hm1+hm2", direct_sum(hm(1), hm(2)))]


def _closed_form_ray_count(space, n):
    """Sum of n_0 + 1 over the splits n_0 + sum_c 2 K_c = N with K_c photons
    on each of hm component c's two pairs; without h0, n_0 is 0."""
    comps = space.components or (space,)
    with_h0 = any(c.kind == "h0" for c in comps)
    count = 0
    for ks in itertools.product(range(n // 2 + 1), repeat=sum(c.kind == "hm" for c in comps)):
        n0 = n - 2 * sum(ks)
        if n0 >= 0 and (with_h0 or n0 == 0):
            count += n0 + 1
    return count


@pytest.mark.parametrize(
    "space", [pytest.param(space, id=name) for name, space in _COUNT_SPACES],
)
def test_every_split_candidate_is_one_column(space):
    """The classification fixes every candidate's dimension at one, so the
    search's candidates on every split up to the cap are single columns."""
    for n in range(max_photons() + 1):
        for counts, idx in enumerate_basis(space, n)._splits:
            for cand in _split_candidates(space, counts):
                assert cand.shape == (len(idx), 1), (n, counts)


@pytest.mark.parametrize(
    "space", [pytest.param(space, id=name) for name, space in _COUNT_SPACES],
)
def test_search_counts_match_the_closed_form_up_to_the_cap(space):
    """No ray is lost: at every N the cap allows, the search finds the
    classification's count of rays."""
    cfg = CertificationConfig(n_samples=3)
    for n in range(max_photons() + 1):
        result = find_protected(space, n, cfg)
        assert (len(result.rays), result.subspaces) == (_closed_form_ray_count(space, n), ()), n


def test_search_past_the_cap_finds_the_closed_form_count(monkeypatch):
    """With the cap raised, h0+hm(1)+hm(2) at N = 12 holds 140 rays."""
    monkeypatch.setenv("SYMPROT_NMAX", "12")
    space = direct_sum(h0(), hm(1), hm(2))
    try:
        result = find_protected(space, 12, CertificationConfig(n_samples=3))
    finally:
        _shared_basis.cache_clear()  # the N = 12 basis holds ~300k states
    assert _closed_form_ray_count(space, 12) == 140
    assert len(result.rays) == 140 and result.subspaces == ()


def test_swap_eigenvalues_on_sym_k_are_distinct_integers():
    """dSym^k of h0's swap has the eigenvalues -k, -k + 2, ..., k, each once,
    so each h0 eigenvector is a candidate of its own."""
    x = family_generators(h0())[1][1].real
    for k in range(41):
        assert np.allclose(np.linalg.eigvalsh(dsym(x, k)), np.arange(-k, k + 1, 2), atol=1e-9, rtol=0), k


def _hm_counts(space, counts):
    """The photon counts (a, b) on each hm component's two pairs of a split."""
    out, p = [], 0
    for comp in space.components or (space,):
        if comp.kind == "hm":
            out.append(counts[p : p + 2])
        p += len(comp) // 2
    return out


def test_search_visits_only_the_splits_a_ray_can_live_on(monkeypatch):
    """No search builds a factor on a split with a != b photons on some hm
    component's pairs, and a search of a sector other than 0 returns
    before it visits a split, with no ray and no draw."""
    _clear_search_tables()  # a cached plan would ask for no factors
    asked, visiting = [], []
    candidates, h0_factors, pair_column = protect._split_candidates, protect._mirror_fock_factors, protect._pair_power_column

    def visit(space, counts):
        visiting[:] = [space, counts]
        return candidates(space, counts)

    def recording(kind, build):
        def factor(k):
            asked.append((kind, k, *visiting))
            return build(k)
        return factor

    monkeypatch.setattr(protect, "_split_candidates", visit)
    monkeypatch.setattr(protect, "_mirror_fock_factors", recording("h0", h0_factors))
    monkeypatch.setattr(protect, "_pair_power_column", recording("hm", pair_column))
    cfg = CertificationConfig(n_samples=4)
    for _, space, top in _BOOKKEEPING_SPACES:
        for n in range(top + 1):
            find_protected(space, n, cfg)
    assert {kind for kind, *_ in asked} == {"h0", "hm"}
    for kind, k, space, counts in asked:
        assert all(a == b for a, b in _hm_counts(space, counts)), (space, counts)
        assert k == counts[0] if kind == "h0" else (k, k) in _hm_counts(space, counts), (kind, k, counts)

    def refuse(*args, **kwargs):
        raise AssertionError("a split visited off m_tot = 0")

    monkeypatch.setattr(protect, "_split_candidates", refuse)
    for _, space, top in _BOOKKEEPING_SPACES:
        for n in range(top + 1):
            for m in enumerate_basis(space, n)._sectors:
                if m != 0:
                    result = find_protected(space, n, cfg, sector=m)
                    assert (result.rays, result.subspaces, result.samples_used, result.sectors) == ((), (), 0, (m,))


def test_a_search_makes_no_lapack_call(monkeypatch):
    """Every candidate comes from its closed form: from cold tables, the
    searches of every bookkeeping space find the classification's rays with
    no eigensolver and no SVD."""
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK factorisation in the search")

    for name in ("eigh", "eigvalsh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    _clear_search_tables()
    cfg = CertificationConfig(n_samples=4)
    for _, space, top in _BOOKKEEPING_SPACES:
        for n in range(top + 1):
            assert len(find_protected(space, n, cfg).rays) == _closed_form_ray_count(space, n), (space, n)


def _relative(vector, generator, column):
    """|vector| over |generator|_1 |column|: a residual relative to the scale
    of its terms; a generator that vanishes on the split counts as scale 1."""
    return np.linalg.norm(vector) / (max(np.abs(generator).sum(axis=0).max(), 1.0) * np.linalg.norm(column))


@pytest.mark.parametrize(
    "space", [pytest.param(space, id=name) for name, space in _COUNT_SPACES],
)
def test_closed_form_candidates_agree_with_the_factorisation_oracle(space):
    """The oracle's factorisations vouch for the closed forms on every split
    up to the cap: each hm component's stacked sl(2) has nullity 1 at a = b
    and 0 otherwise, and every candidate lies in the split's joint sl(2)
    kernel and is an eigenvector of each commuting generator (dSym^k of h0's
    swap among them), to 1e-13 relative."""
    pairs = np.arange(len(space) // 2)
    sl2, commuting = ([gen.reshape(len(pairs), 2, len(pairs), 2)[pairs, :, pairs] for gen in gens]
                      for gens in family_generators(space))
    nullity = {}
    for n in range(max_photons() + 1):
        for counts, _ in enumerate_basis(space, n)._splits:
            for a, b in _hm_counts(space, counts):
                if (a, b) not in nullity:
                    s, _ = hm_kernel_oracle(a, b)
                    nullity[a, b] = np.count_nonzero(s <= 1e-12 * s[0])
            for cand in _split_candidates(space, counts):
                column = cand[:, 0]
                for blocks in sl2:
                    gen = _split_generator(blocks, counts)
                    assert _relative(gen @ column, gen, column) < 1e-13, (n, counts)
                for blocks in commuting:
                    gen = _split_generator(blocks, counts)
                    image = gen @ column
                    eigenvalue = np.vdot(column, image) / np.vdot(column, column)
                    assert _relative(image - eigenvalue * column, gen, column) < 1e-13, (n, counts)
    assert bool(nullity) == any(comp.kind == "hm" for comp in space.components or (space,))
    assert all(count == (a == b) for (a, b), count in nullity.items()), nullity


def test_certification_passes_every_exact_h0_ray_at_n_40(monkeypatch):
    """At N = 40 every mirror Fock ray passes 16 draws. The h0 draws are lifted
    in their mirror Fock eigenbasis, so this holds far past N = 40 (next test)."""
    monkeypatch.setenv("SYMPROT_NMAX", "40")
    assert len(find_protected(h0(), 40, CertificationConfig(n_samples=16)).rays) == 41


def _h0_character(ray, draws: np.ndarray) -> np.ndarray:
    """(a + b)^n_s (a - b)^n_a on each draw [[a, b], [b, a]], for the mirror Fock
    state |n_s, n_a>' that the h0 ray spans."""
    n = ray.state.basis.n_photons
    overlaps = [abs(np.vdot(col[:, 0], ray.state.amplitudes)) / np.linalg.norm(col) for col in _mirror_fock_factors(n)]
    n_s = int(np.argmax(overlaps))
    assert overlaps[n_s] > 1 - 1e-12
    a, b = draws[:, 0, 0], draws[:, 0, 1]
    return (a + b) ** n_s * (a - b) ** (n - n_s)


def test_exact_h0_rays_are_certified_far_past_the_photon_cap(monkeypatch):
    """Every mirror Fock ray passes certification at N = 80, 100 and 150, and
    |90, 10>' passes 4 draws: the rounding of the binomial Sym^N, which grows
    with N, would reject some of them. At N = 80 every eigenvalue is the ray's
    character: for subunitary draws to 1e-12 of the draw's largest character,
    the norm of its lift, and for unitary draws, whose characters all have
    modulus 1, to 1e-12 of itself."""
    monkeypatch.setenv("SYMPROT_NMAX", "150")
    cfg = CertificationConfig(n_samples=16)
    for n in (80, 100, 150):
        assert len(find_protected(h0(), n, cfg).rays) == n + 1, n
    assert certify(mirror_fock(90, 10), CertificationConfig(n_samples=4)).verdict is Verdict.PROTECTED
    for unitary in (False, True):
        cfg = CertificationConfig(n_samples=16, unitary=unitary)
        draws = _draws(h0(), cfg)
        a, b = draws[:, 0, 0], draws[:, 0, 1]
        lift_norm = np.maximum(np.abs(a + b), np.abs(a - b)) ** 80
        rays = find_protected(h0(), 80, cfg).rays
        assert len(rays) == 81
        for ray in rays:
            character = _h0_character(ray, draws)
            scale = np.abs(character) if unitary else lift_norm
            assert np.all(np.abs(ray.report.eigenvalues - character) <= 1e-12 * scale)


@pytest.mark.parametrize(
    "space,n",
    [pytest.param(space, n, id=f"{name}-{n}")
     for name, space, top in [
         ("h0+hm1", direct_sum(h0(), hm(1)), 6),
         ("hm1+hm2", direct_sum(hm(1), hm(2)), 4),
         ("h0+hm1+hm2", direct_sum(h0(), hm(1), hm(2)), 4),
     ]
     for n in range(top + 1)],
)
def test_search_rays_span_the_dense_joint_kernel(space, n):
    """Completeness without the splits: the joint kernel of the dense
    lifted sl(2) generators (element by element, ``lift_generator_oracle``)
    has as many dimensions as the search has rays, and the rays span it."""
    basis = enumerate_basis(space, n)
    # the generators are real, and so are their lifts
    stack = np.vstack([lift_generator_oracle(g, basis) for g in family_generators(space)[0]]).real
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = np.count_nonzero(s > 1e-9 * s[0]) if s.size else 0
    kernel = vh[rank:].T
    result = find_protected(space, n, CertificationConfig(n_samples=4))
    assert len(result.rays) == kernel.shape[1] and not result.subspaces
    rays = np.array([ray.state.amplitudes for ray in result.rays]).reshape(-1, len(basis))
    assert np.abs(rays.T @ rays.conj() - kernel @ kernel.T).max() < 1e-9


def test_search_rays_need_no_dense_bookkeeping(monkeypatch):
    """No ray is normalised, phase-fixed or mirrored as a dense state, and
    no candidate or factor is formed by np.kron."""
    space = direct_sum(h0(), hm(1), hm(2))
    expected = find_protected(space, 4, CFG)
    _search_plan.cache_clear()  # the bookkeeping runs when the plan is built
    _mirror_fock_factors.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("dense per-ray bookkeeping in the search")

    monkeypatch.setattr(FockState, "normalized", refuse)
    monkeypatch.setattr(FockState, "phase_fixed", refuse)
    monkeypatch.setattr(fock, "_mirror_parity", refuse)
    monkeypatch.setattr(protect, "_mirror_parity", refuse, raising=False)
    monkeypatch.setattr(np, "kron", refuse)
    _assert_same_search(find_protected(space, 4, CFG), expected)


def test_a_search_builds_no_dense_ray_until_one_is_read():
    """A warm search holds each ray as its values on its split; the dense
    amplitudes are built on first read and equal the dense bookkeeping's."""
    space, cfg = direct_sum(h0(), hm(1), hm(2)), CertificationConfig(n_samples=4)
    find_protected(space, 6, cfg)
    rays = find_protected(space, 6, cfg).rays
    assert len(rays) == 30
    assert not any("amplitudes" in vars(ray.state) for ray in rays)
    basis = rays[0].state.basis
    candidates = [
        (int(basis.m_totals[idx[0]]), idx, cand)
        for counts, idx in basis._splits
        for cand in _split_candidates(space, counts)
    ]
    assert all(cand.shape == (len(idx), 1) for _, idx, cand in candidates)
    expected = dense_bookkeeping_oracle(basis, [(m, idx, cand[:, 0]) for m, idx, cand in candidates])
    assert len(rays) == len(expected)
    for ray, (m_tot, tau, amps) in zip(rays, expected):
        assert (ray.m_tot, ray.mirror_tau) == (m_tot, tau)
        support, values = ray.state._sparse()
        assert np.array_equal(support, basis._splits[ray.state._split][1])
        assert np.allclose(ray.state.amplitudes, amps, atol=1e-15, rtol=0)
        assert "amplitudes" in vars(ray.state) and ray.state.amplitudes is ray.state.amplitudes
        assert np.array_equal(ray.state.amplitudes[support], values)
        assert not np.delete(ray.state.amplitudes, support).any()


_TWIN_SPLITS = [
    pytest.param(h0(), 4, 0, id="h0-4"),
    pytest.param(hm(1), 4, 2, id="hm1-4-(2,2)"),
    pytest.param(hm(1), 3, 1, id="hm1-3-(1,2)"),
    pytest.param(direct_sum(h0(), hm(1), hm(2)), 4, 16, id="h0+hm1+hm2-4-(0,1,0,1,2)"),
    pytest.param(direct_sum(h0(), hm(1), hm(2)), 5, 62, id="h0+hm1+hm2-5-(1,0,1,1,2)"),
]


def _twins(space, n, split, seed=0):
    """A state held as random normalised values on one split, and the dense
    state with the same amplitudes."""
    basis = enumerate_basis(space, n)
    idx = basis._splits[split][1]
    rng = np.random.default_rng(seed + split)
    values = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    values /= np.linalg.norm(values)
    dense = np.zeros(len(basis), dtype=complex)
    dense[idx] = values
    return FockState._on_split(basis, split, values), FockState(basis, dense)


@pytest.mark.parametrize("space,n,split", _TWIN_SPLITS)
def test_a_split_backed_state_matches_its_dense_twin(space, n, split):
    state, twin = _twins(space, n, split)
    other = _twins(space, n, split, seed=1)[0]
    cfg = CertificationConfig(n_samples=8, seed=3)
    report, twin_report = certify(state, cfg), certify(twin, cfg)
    for a, b in ((report.eigenvalues, twin_report.eigenvalues), (report.residuals, twin_report.residuals)):
        assert a.tobytes() == b.tobytes()
    assert (report.verdict, report.worst_residual) == (twin_report.verdict, twin_report.worst_residual)
    # the norm is read from the values alone, np.linalg.norm's formula on them
    assert "amplitudes" not in vars(state)
    assert state.norm == np.linalg.norm(state._values) and state.is_normalized()
    assert twin.norm == np.linalg.norm(twin.amplitudes)
    assert state.norm == pytest.approx(twin.norm, rel=4e-16, abs=0)
    assert state.amplitudes.tobytes() == twin.amplitudes.tobytes()
    assert state.overlap(other) == twin.overlap(other) and other.overlap(state) == other.overlap(twin)
    assert state.phase_fixed().amplitudes.tobytes() == twin.phase_fixed().amplitudes.tobytes()
    assert np.array_equal(state.normalized().amplitudes, twin.amplitudes / state.norm)
    assert np.allclose(state.normalized().amplitudes, twin.normalized().amplitudes, atol=1e-16, rtol=0)
    assert serialize.state_to_json(state) == serialize.state_to_json(twin)


@pytest.mark.parametrize("occupied", ["one", "several", "all"])
@pytest.mark.parametrize(
    "space,n",
    [(hm(1), 4), (direct_sum(h0(), hm(1)), 3), (direct_sum(hm(1), hm(2)), 3), (direct_sum(h0(), hm(1), hm(2)), 3)],
    ids=["hm1-4", "h0+hm1-3", "hm1+hm2-3", "h0+hm1+hm2-3"],
)
def test_a_dense_state_keeps_the_bits_of_its_own_vector(space, n, occupied):
    """A state built from a dense vector keeps that vector, and its norm is
    the vector's own, bit for bit: its sums run in basis order, not in the
    split order of the state's values. Its normalized and phase-fixed states
    are those of the vector, and on one split its certify and transmit_bins
    reports are those of its split-backed twin. A state that leaves a split
    out has -0.0 on every entry of one, which occupies nothing."""
    basis = enumerate_basis(space, n)
    count = len(basis._splits)
    chosen = {"one": [count // 2], "several": list(range(0, count, 3)), "all": list(range(count))}[occupied]
    assert (len(chosen) == 1) is (occupied == "one") and (len(chosen) == count) is (occupied == "all")
    rng = np.random.default_rng(count)
    cfg, sampler = CertificationConfig(n_samples=8, seed=11), ScatterSampler(seed=2)
    bins = [sampler.sample(space) for _ in range(3)]
    coefficients = np.array([1.0, 1.0j, -2.0]) / np.sqrt(6.0)

    def reports(state):
        report = certify(state, cfg)
        outcome = transmit_bins(TimeBinQudit(coefficients, state), bins, residual_tol=None)
        return (report.verdict, report.worst_residual.hex(), report.witness_sample_index, report.eigenvalues.tobytes(),
                report.residuals.tobytes(), outcome.fidelity.hex(), outcome.success_probability.hex(),
                outcome.eigenvalues.tobytes(), outcome.worst_residual.hex())

    for _ in range(20):
        amps = np.zeros(len(basis), dtype=complex)
        for s in chosen:
            idx = basis._splits[s][1]
            amps[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        if occupied != "all":
            amps[basis._splits[min(set(range(count)) - set(chosen))][1]] = complex(-0.0, -0.0)
        state = FockState(basis, amps)
        assert state.amplitudes is amps and state._splits == tuple(chosen)
        assert state.norm.hex() == np.linalg.norm(amps).hex()
        assert state.normalized().amplitudes.tobytes() == fock._unit(amps, fock._norm(amps)).tobytes()
        assert state.phase_fixed().amplitudes.tobytes() == fock._phase_fixed(amps).tobytes()
        if len(chosen) == 1:
            unit = FockState(basis, amps / np.linalg.norm(amps))
            twin = FockState._on_split(basis, chosen[0], unit.amplitudes[basis._splits[chosen[0]][1]])
            assert reports(unit) == reports(twin)


@pytest.mark.parametrize("n", range(5))
@_SPLIT_GRID
def test_the_apply_on_a_split_equals_the_dense_apply(space, n):
    """``_scalar_action`` on the values of one split gives the bits it gives
    on the dense vectors, for one and two columns."""
    basis = enumerate_basis(space, n)
    matrices = _pair_block_stack(space, 5, np.random.default_rng(n))
    rng = np.random.default_rng(100 + n)
    for split, (_, idx) in enumerate(basis._splits):
        for d in (1, 2):
            values = rng.normal(size=(len(idx), d)) + 1j * rng.normal(size=(len(idx), d))
            values /= np.linalg.norm(values)
            dense = np.zeros((len(basis), d), dtype=complex)
            dense[idx] = values
            on_split = _scalar_action(basis, matrices, values, {}, (split,))
            assert not np.shares_memory(on_split[1], values)
            rows, splits = _on_occupied_splits(basis, dense)
            assert splits == (split,)
            for a, b in zip(on_split, _scalar_action(basis, matrices, rows, {}, splits)):
                assert a.tobytes() == b.tobytes()


def test_numpy_integer_config_fields_are_stored_as_python_ints():
    """A config built from NumPy integers stores Python ints, so a search's
    samples_used is a Python int and its result serialises."""
    cfg = CertificationConfig(n_samples=np.int64(8), seed=np.int64(3))
    assert type(cfg.n_samples) is int and type(cfg.seed) is int
    assert (cfg.n_samples, cfg.seed) == (8, 3)
    result = find_protected(h0(), 2, cfg)
    assert type(result.samples_used) is int and result.samples_used == 3 * 8
    assert result.rays[0].report.eigenvalues.shape == (8,)
    doc = json.loads(json.dumps({"samples_used": result.samples_used, "sectors": list(result.sectors),
                                 "n_samples": cfg.n_samples, "seed": cfg.seed}))
    assert doc == {"samples_used": 24, "sectors": [0], "n_samples": 8, "seed": 3}
    assert find_protected(h0(), 2, CertificationConfig(n_samples=8, seed=3)).samples_used == 24


@pytest.mark.parametrize(
    "shapes",
    [[(3, 2)], [(1, 1), (4, 1)], [(2, 3), (3, 1), (1, 2)], [(3, 1), (2, 2), (1, 1), (4, 1)]],
    ids=["one", "two", "three", "four"],
)
def test_kron_is_np_kron_bit_for_bit(shapes):
    rng = np.random.default_rng(len(shapes))
    real = [rng.normal(size=shape) for shape in shapes]
    complex_ = [f + 1j * rng.normal(size=f.shape) for f in real]
    for factors in (real, complex_):
        out = _kron(factors)
        assert out.shape == reduce(np.kron, factors).shape
        assert out.tobytes() == reduce(np.kron, factors).tobytes()


@pytest.mark.parametrize("n,count", [(5, 20), (6, 30), (7, 40), (8, 55)])
def test_search_past_the_dense_reach_matches_the_closed_form(n, count):
    """On h0+hm(1)+hm(2) each ray is |n_s, n_a>' x pair powers, one per
    split n_0 + 2 K_1 + 2 K_2 = N and mirror Fock state on h0."""
    space = direct_sum(h0(), hm(1), hm(2))
    splits = [(n - 2 * k1 - 2 * k2, k1, k2) for k1 in range(n // 2 + 1) for k2 in range((n - 2 * k1) // 2 + 1)]
    assert sum(n0 + 1 for n0, _, _ in splits) == count
    result = find_protected(space, n, CertificationConfig(n_samples=4))
    assert len(result.rays) == count and not result.subspaces
    assert all(ray.m_tot == 0 for ray in result.rays)
    if n <= 6:
        closed = [
            product_state([mirror_fock(n_s, n0 - n_s), pair_power(1, k1), pair_power(2, k2)])
            for n0, k1, k2 in splits
            for n_s in range(n0 + 1)
        ]
        overlaps = np.abs([[ray.state.overlap(state) for state in closed] for ray in result.rays])
        assert np.allclose(np.sort(overlaps, axis=1)[:, -1], 1, atol=1e-12, rtol=0)
        assert sorted(np.argmax(overlaps, axis=1).tolist()) == list(range(count))


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
    sub = _certify_subspace(psi.basis, idx, psi.amplitudes[idx, None], CFG)
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
        assert _certify_subspace(basis, idx, cand[:, [k]], CFG) is not None
    assert _certify_subspace(basis, idx, cand, CFG) is None


def test_subspace_certification_rejects_an_unprotected_direction():
    psi = pair_power(1, 1)
    idx = sector_split(psi.basis)[0]
    rng = np.random.default_rng(3)
    noise = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    cand, _ = np.linalg.qr(np.column_stack([psi.amplitudes[idx], noise]))
    assert _certify_subspace(psi.basis, idx, cand, CFG) is None


# ---------------------------------------------------------------------------
# one certification stream per search


def _count_stream_work(monkeypatch):
    """Counters of the lifts, Sym^k builds (by k), draws and certify calls."""
    calls = {"lift": 0, "sample": 0, "certify": 0, "sym": []}
    lift_, sym_, sample_, certify_ = protect.lift, protect._symmetric_power, ScatterSampler.sample, protect.certify

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    def sym(blocks, k):
        calls["sym"].append(k)
        return sym_(blocks, k)

    monkeypatch.setattr(protect, "lift", counted("lift", lift_))
    monkeypatch.setattr(protect, "_symmetric_power", sym)
    monkeypatch.setattr(ScatterSampler, "sample", counted("sample", sample_))
    monkeypatch.setattr(protect, "certify", counted("certify", certify_))
    return calls


def test_an_h0_search_draws_and_lifts_once(monkeypatch):
    cfg = CertificationConfig(n_samples=16)
    calls = _count_stream_work(monkeypatch)
    result = find_protected(h0(), 6, cfg)
    assert len(result.rays) == 7
    assert calls == {"lift": 1, "sample": 1, "certify": 7, "sym": []}


def test_a_pair_space_search_builds_each_pair_count_once(monkeypatch):
    calls = _count_stream_work(monkeypatch)
    result = find_protected(direct_sum(h0(), hm(1), hm(2)), 4, CFG)
    assert len(result.rays) == 14 and calls["certify"] == 14 and calls["sample"] == 1
    basis = result.rays[0].state.basis
    occupied = np.vstack([basis._occupancy[ray.state.amplitudes != 0] for ray in result.rays])
    counts = set(occupied.reshape(len(occupied), -1, 2).sum(axis=2).ravel().tolist())
    assert sorted(calls["sym"]) == sorted(counts - {0, 1}) == [2, 4]


def test_a_search_that_certifies_nothing_draws_nothing(monkeypatch):
    calls = _count_stream_work(monkeypatch)
    result = find_protected(hm(1), 2, CFG, sector=2)
    assert result.rays == () and result.samples_used == 0
    assert calls == {"lift": 0, "sample": 0, "certify": 0, "sym": []}


@pytest.mark.parametrize(
    "space,n",
    [(h0(), 6), (hm(1), 4), (direct_sum(h0(), hm(1)), 4), (direct_sum(h0(), hm(1), hm(2)), 4)],
    ids=["h0-6", "hm1-4", "h0+hm1-4", "h0+hm1+hm2-4"],
)
def test_search_reports_equal_standalone_certification(space, n):
    """The shared stream changes no bit of a report: each ray's report is the
    one certify gives the ray outside any search."""
    result = find_protected(space, n, CFG)
    assert result.rays
    for ray in result.rays:
        alone = certify(ray.state, CFG)
        assert ray.report.verdict is alone.verdict
        assert ray.report.worst_residual == alone.worst_residual
        assert ray.report.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert ray.report.residuals.tobytes() == alone.residuals.tobytes()


@pytest.mark.parametrize(
    "space,n",
    [(h0(), 6), (direct_sum(h0(), hm(1)), 3), (direct_sum(h0(), hm(1), hm(2)), 4)],
    ids=["h0-6", "h0+hm1-3", "h0+hm1+hm2-4"],
)
def test_a_search_checks_each_norm_once_per_plan(monkeypatch, space, n):
    """The plan build checks each candidate's norm, once, and a search
    that reads a cached plan checks none; a plan row off by more than
    the 1e-12 of ``is_normalized`` fails the search as it fails certify."""
    checks = []
    is_normalized = FockState.is_normalized

    def counted(state, tol=1e-12):
        checks.append(state)
        return is_normalized(state, tol)

    monkeypatch.setattr(FockState, "is_normalized", counted)
    _clear_search_tables()
    cold = find_protected(space, n, CFG)
    assert len(checks) == cold.samples_used // CFG.n_samples > 0
    checks.clear()
    _assert_same_search(find_protected(space, n, CFG), cold)
    assert checks == []
    monkeypatch.undo()

    def scaled(by):
        return lambda amplitudes, threshold=1e-10: fock._phase_fixed(amplitudes, threshold) * by

    try:
        _clear_search_tables()
        monkeypatch.setattr(protect, "_phase_fixed", scaled(1 + 1e-11))
        with pytest.raises(ValueError, match="must be normalized"):
            find_protected(space, n, CFG)
        _clear_search_tables()
        monkeypatch.setattr(protect, "_phase_fixed", scaled(1 + 1e-13))
        assert len(find_protected(space, n, CFG).rays) == len(cold.rays)
    finally:
        monkeypatch.undo()
        _clear_search_tables()


@pytest.mark.parametrize(
    "space,n,splits,lone",
    [(h0(), 6, 1, 0), (direct_sum(h0(), hm(1), hm(2)), 10, 21, 6), (direct_sum(hm(1), hm(2)), 4, 3, 3)],
    ids=["h0-6", "h0+hm1+hm2-10", "hm1+hm2-4"],
)
def test_a_search_applies_each_split_once(monkeypatch, space, n, splits, lone):
    """One kernel call per split that holds candidates, however many it
    holds, a lone candidate with no batch axis, and still one certify call
    per candidate, each on its own ray. The draws are read once per
    search, and not at all by a search of a sector that holds no ray."""
    calls = {"apply": [], "certify": [], "draws": 0}
    apply_, certify_, draws_ = protect._scalar_action, protect.certify, protect._draws

    def apply(basis, matrices, vectors, powers, split=None):
        calls["apply"].append(vectors.ndim == 2)
        return apply_(basis, matrices, vectors, powers, split)

    def certify_one(state, cfg, **kwargs):
        calls["certify"].append(state)
        return certify_(state, cfg, **kwargs)

    def draws(space, cfg):
        calls["draws"] += 1
        return draws_(space, cfg)

    monkeypatch.setattr(protect, "_scalar_action", apply)
    monkeypatch.setattr(protect, "certify", certify_one)
    monkeypatch.setattr(protect, "_draws", draws)
    cfg = CertificationConfig(n_samples=4)
    result = find_protected(space, n, cfg)
    basis = enumerate_basis(space, n)
    bearing = [len(cands) for counts, _ in basis._splits if (cands := _split_candidates(space, counts))]
    assert len(calls["apply"]) == len(bearing) == splits
    assert calls["apply"] == [c == 1 for c in bearing] and sum(calls["apply"]) == lone
    assert len(calls["certify"]) == result.samples_used // cfg.n_samples == len(result.rays)
    assert {id(state) for state in calls["certify"]} == {id(ray.state) for ray in result.rays}
    assert calls["draws"] == 1
    if 1 in basis._sectors:
        calls["draws"] = 0
        assert find_protected(space, n, cfg, sector=1).rays == ()
        assert calls["draws"] == 0


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize(
    "space",
    [h0(), hm(1), direct_sum(h0(), hm(1)), direct_sum(h0(), hm(1), hm(2))],
    ids=["h0", "hm1", "h0+hm1", "h0+hm1+hm2"],
)
def test_a_block_of_candidates_gives_each_its_one_candidate_bits(space, n):
    """A (c, rows, d) block gives each candidate the bytes a one-candidate
    call gives it, on a split and dense, for random unprotected candidates."""
    basis = enumerate_basis(space, n)
    matrices = _draws(space, CertificationConfig(n_samples=16, seed=n))
    rng = np.random.default_rng(40 + n)

    def random_block(c, rows, d):
        block = rng.normal(size=(c, rows, d)) + 1j * rng.normal(size=(c, rows, d))
        return block / np.linalg.norm(block, axis=(1, 2))[:, None, None]

    cases = [_on_occupied_splits(basis, random_block(c, len(basis), d)) for c, d in ((3, 1), (2, 2))]
    for split, (_, idx) in enumerate(basis._splits):
        if len(idx) > 1:  # one basis state is an eigenvector of every lift
            for c, d in ((1, 1), (4, 1), (3, 2)):
                values = random_block(c, len(idx), d)
                dense = np.zeros((c, len(basis), d), dtype=complex)
                dense[:, idx] = values
                cases += [(values, (split,)), _on_occupied_splits(basis, dense)]
    for block, splits in cases:
        eigenvalues, residuals = _scalar_action(basis, matrices, block, {}, splits)
        assert eigenvalues.shape == residuals.shape == (len(block), len(matrices))
        assert residuals.max(axis=1).min() > 1e-6
        for j, vectors in enumerate(block):
            alone = _scalar_action(basis, matrices, vectors, {}, splits)
            assert eigenvalues[j].tobytes() == alone[0].tobytes()
            assert residuals[j].tobytes() == alone[1].tobytes()


def test_a_failed_draw_leaves_no_search_scope(monkeypatch):
    def exhausted(self, space, size=None):
        raise scatter.GenericityError("no generic draw")

    monkeypatch.setattr(ScatterSampler, "sample", exhausted)
    with pytest.raises(scatter.GenericityError):
        find_protected(h0(), 4, CFG)
    monkeypatch.undo()
    assert certify(mirror_fock(2, 2), CFG).verdict is Verdict.PROTECTED


def test_a_certification_off_the_search_basis_reads_its_own_stream(monkeypatch):
    """Inside a search, certify on another basis or config lifts its own draws."""
    psi, other = mirror_fock(1, 1), CertificationConfig(n_samples=8, seed=3)
    certify_ = protect.certify
    seen = []

    def certify_and_compare(state, cfg, **kwargs):
        seen.append((certify_(psi, CFG), certify_(state, other)))
        return certify_(state, cfg, **kwargs)

    monkeypatch.setattr(protect, "certify", certify_and_compare)
    find_protected(h0(), 4, CFG)
    monkeypatch.undo()
    assert len(seen) == 5
    for report, ray_report in seen:
        assert report.eigenvalues.tobytes() == certify(psi, CFG).eigenvalues.tobytes()
        assert len(ray_report.eigenvalues) == 8


def test_concurrent_searches_keep_their_own_streams(monkeypatch):
    """Threads searching different spaces at once, more threads than cores,
    each certifying only once every search is under way, get what they get one
    after the other."""
    jobs = [(h0(), 6), (direct_sum(h0(), hm(1)), 4), (hm(1), 4), (direct_sum(hm(1), hm(2)), 4)]
    expected = [find_protected(space, n, CFG) for space, n in jobs]
    barrier, certify_ = threading.Barrier(len(jobs), timeout=60), protect.certify
    first = threading.local()

    def certify_in_step(state, cfg, **kwargs):
        if not getattr(first, "done", False):
            first.done = True
            barrier.wait()
        return certify_(state, cfg, **kwargs)

    monkeypatch.setattr(protect, "certify", certify_in_step)
    results = [None] * len(jobs)

    def run(i):
        results[i] = find_protected(*jobs[i], CFG)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected, strict=True):
        _assert_same_search(got, want)


def _instances():
    """One instance of every class that holds an ndarray (or a state)."""
    psi = named_state("psi4")
    scattering = ScatterSampler(seed=0).sample(hm(1))
    qudit = time_bin_qudit(np.ones(2), psi, cfg=None)
    idx = sector_split(psi.basis)[0]
    return {
        "FockState": psi,
        "LiftedOperator": lift(scattering.matrix, psi.basis),
        "ProtectionReport": certify(psi, CFG),
        "ProtectedRay": find_protected(hm(1), 2, CFG).rays[0],
        "ProtectedSubspace": _certify_subspace(psi.basis, idx, psi.amplitudes[idx, None], CFG),
        "SymmetricScattering": scattering,
        "EigenMode": eigen_modes(scattering)[0],
        "TwoPhotonMatrix": two_photon_matrix(psi),
        "SlaterReport": slater_report(psi),
        "TimeBinQudit": qudit,
        "ChannelOutcome": transmit(qudit, scattering),
    }


@pytest.mark.parametrize("name", [
    "FockState", "LiftedOperator", "ProtectionReport", "ProtectedRay", "ProtectedSubspace", "SymmetricScattering",
    "EigenMode", "TwoPhotonMatrix", "SlaterReport", "TimeBinQudit", "ChannelOutcome",
])
def test_states_and_reports_compare_by_identity(name):
    """``==`` on these is identity, never an elementwise array comparison
    (which raises), and they hash by identity."""
    x = _instances()[name]
    assert type(x).__name__ == name
    other = copy.deepcopy(x)
    assert x == x
    assert (x == other) is False and (x != other) is True
    assert hash(x) == hash(x) and {x: 1}[x] == 1


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


@pytest.mark.parametrize("m,pairs", [(1, 1), (1, 2), (2, 2)])
def test_pair_uniqueness_reads_the_ray_on_its_split(monkeypatch, m, pairs):
    """The overlap is taken on the found ray's split, which leaves the ray
    with no dense vector, and equals the overlap of the dense vectors."""
    found = []
    find_ = protect.find_protected

    def recording(*args, **kwargs):
        found.append(find_(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(protect, "find_protected", recording)
    report = verify_pair_uniqueness(m, pairs, CFG)
    (result,) = found
    (ray,) = result.rays
    assert "amplitudes" not in vars(ray.state)
    assert report.overlap == pytest.approx(abs(ray.state.overlap(pair_power(m, pairs))), abs=1e-15)
    assert report.ok


def test_pair_uniqueness_rejects_zero_pairs():
    with pytest.raises(ValueError):
        verify_pair_uniqueness(1, 0, CFG)
