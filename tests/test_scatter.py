"""Symmetric scattering matrices: sampling, validation, eigenmodes."""

import numpy as np
import pytest
from scipy.linalg import expm

from symprot import (
    GenericityError,
    ScatterSampler,
    SymmetricScattering,
    direct_sum,
    eigen_modes,
    family_generators,
    h0,
    hm,
    validate_scattering,
)
from symprot import scatter
from oracles import sample_block_oracle


def haar_phase():
    return np.exp(2j * np.pi * np.random.default_rng(0).uniform())


def test_h0_sample_has_symmetric_form():
    """An axial sample is [[alpha, beta], [beta, alpha]]."""
    s = ScatterSampler(seed=3).sample(h0())
    S = s.matrix
    assert S.shape == (2, 2)
    assert S[0, 0] == S[1, 1]
    assert S[0, 1] == S[1, 0]


def test_unitary_h0_sample_is_unitary():
    s = ScatterSampler(seed=3, unitary=True).sample(h0())
    S = s.matrix
    assert np.linalg.norm(S.conj().T @ S - np.eye(2)) < 1e-12
    assert s.unitary


def test_hm_sample_blocks_are_flip_related():
    """The -m block equals X S_m X entry for entry."""
    s = ScatterSampler(seed=11).sample(hm(2))
    S = s.matrix
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Sm = S[:2, :2]
    Smin = S[2:, 2:]
    assert np.array_equal(Smin, X @ Sm @ X)
    assert np.count_nonzero(S[:2, 2:]) == 0
    assert np.count_nonzero(S[2:, :2]) == 0


def test_flip_related_blocks_share_their_spectrum():
    for seed in range(8):
        s = ScatterSampler(seed=seed, unitary=bool(seed % 2)).sample(hm(1))
        ev_m = np.sort_complex(np.linalg.eigvals(s.matrix[:2, :2]))
        ev_minus = np.sort_complex(np.linalg.eigvals(s.matrix[2:, 2:]))
        assert np.allclose(ev_m, ev_minus, atol=1e-12, rtol=0)


def test_subunitary_sample_is_a_contraction():
    for seed in range(20):
        s = ScatterSampler(seed=seed, unitary=False).sample(hm(1))
        smax = np.linalg.svd(s.matrix, compute_uv=False)[0]
        assert smax <= 1.0 + 1e-12
        assert not s.unitary


def test_same_seed_reproduces_the_stream():
    a = ScatterSampler(seed=42, unitary=False)
    b = ScatterSampler(seed=42, unitary=False)
    for space in (h0(), hm(1), direct_sum(h0(), hm(2)), h0()):
        assert np.array_equal(a.sample(space).matrix, b.sample(space).matrix)


def test_clone_restarts_with_a_fresh_seed():
    a = ScatterSampler(seed=1, unitary=False, genericity_floor=5e-3)
    c = a.clone(seed=2)
    assert c.genericity_floor == a.genericity_floor
    assert c.unitary == a.unitary
    # the clone is an independent stream equal to a fresh sampler on its seed
    fresh = ScatterSampler(seed=2, unitary=False, genericity_floor=5e-3)
    assert np.array_equal(c.sample(h0()).matrix, fresh.sample(h0()).matrix)
    assert not np.array_equal(a.sample(h0()).matrix, fresh.sample(hm(1)).matrix[:2, :2])


def test_sampler_rejects_bad_floor():
    with pytest.raises(ValueError):
        ScatterSampler(genericity_floor=0.0)
    with pytest.raises(ValueError):
        ScatterSampler(genericity_floor=1.0)
    with pytest.raises(ValueError):
        ScatterSampler(genericity_floor=-0.5)


def test_sampler_needs_an_attempt():
    with pytest.raises(ValueError):
        ScatterSampler(max_attempts=0)


@pytest.mark.parametrize("attempts", [2.5, 3.0, "3", None], ids=["fraction", "float", "str", "none"])
def test_sampler_attempts_must_be_an_integer(attempts):
    with pytest.raises(ValueError, match="^max_attempts must be an integer"):
        ScatterSampler(max_attempts=attempts)


def test_sampler_stores_attempts_as_a_python_int():
    sampler = ScatterSampler(seed=1, max_attempts=np.int64(3))
    clone = sampler.clone(seed=2)
    for s in (sampler, clone):
        assert s.max_attempts == 3 and type(s.max_attempts) is int


def test_genericity_floor_can_exhaust_attempts():
    sampler = ScatterSampler(seed=0, unitary=False, genericity_floor=0.999, max_attempts=3)
    with pytest.raises(GenericityError):
        for _ in range(50):
            sampler.sample(hm(1))


def _oracle_stream(space, unitary, floor, seed, draws):
    """(closed-form block, LAPACK block, rejections before it) per draw."""
    sampler = ScatterSampler(seed=seed, unitary=unitary, genericity_floor=floor)
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        expected, rejected = sample_block_oracle(rng, space.kind, unitary, floor)
        yield sampler.sample(space).block(), expected, rejected


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "subunitary"])
@pytest.mark.parametrize("space", [h0(), hm(1), hm(2)], ids=["h0", "hm1", "hm2"])
def test_closed_form_draws_match_the_lapack_oracle(space, unitary, seed):
    for block, expected, _ in _oracle_stream(space, unitary, 1e-3, seed, 200):
        assert np.allclose(block, expected, atol=1e-13, rtol=0)


@pytest.mark.parametrize(
    "space,unitary", [(h0(), True), (h0(), False), (hm(1), False)],
    ids=["h0-unitary", "h0-subunitary", "hm-subunitary"],
)
def test_rejections_consume_the_oracle_stream(space, unitary):
    """A high floor forces rejections; every draw after one still matches,
    so the closed forms consume the generator exactly as the oracle does."""
    after_rejection = 0
    for block, expected, rejected in _oracle_stream(space, unitary, 0.3, 7, 200):
        assert np.allclose(block, expected, atol=1e-13, rtol=0)
        after_rejection += rejected > 0
    assert after_rejection >= 10


SUM_SPACES = [direct_sum(h0(), hm(1)), direct_sum(hm(1), hm(2)), direct_sum(h0(), hm(1), hm(2))]


@pytest.mark.parametrize("space", SUM_SPACES, ids=["h0+hm1", "hm1+hm2", "h0+hm1+hm2"])
def test_direct_sum_draws_consume_the_oracle_stream_in_component_order(space):
    """At floor 0.3 every subunitary component rejects; each block still
    matches the oracle drawn component by component from the same generator."""
    sampler = ScatterSampler(seed=5, unitary=False, genericity_floor=0.3)
    rng = np.random.default_rng(5)
    rejected = np.zeros(len(space.components), dtype=int)
    for _ in range(150):
        drawn = sampler.sample(space)
        for c, comp in enumerate(space.components):
            expected, rejections = sample_block_oracle(rng, comp.kind, False, 0.3)
            assert np.allclose(drawn.block(c), expected, atol=1e-13, rtol=0)
            rejected[c] += rejections
    assert np.all(rejected > 0)


STREAM_SPACES = [h0(), hm(1), hm(2), direct_sum(h0(), hm(1)), direct_sum(hm(1), hm(2))]
STREAM_IDS = ["h0", "hm1", "hm2", "h0+hm1", "hm1+hm2"]


@pytest.mark.parametrize("floor", [1e-3, 0.3])
@pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "subunitary"])
@pytest.mark.parametrize("space", STREAM_SPACES, ids=STREAM_IDS)
def test_a_batch_is_the_next_single_draws_bit_for_bit(space, unitary, floor):
    """sample(space, n) stacks the matrices of n sample(space) calls and
    leaves the generator where they leave it."""
    for seed, n in [(0, 1), (1, 2), (2, 9), (3, 64)]:
        single = ScatterSampler(seed=seed, unitary=unitary, genericity_floor=floor)
        batch = ScatterSampler(seed=seed, unitary=unitary, genericity_floor=floor)
        expected = np.array([single.sample(space).matrix for _ in range(n)])
        drawn = batch.sample(space, n)
        assert drawn.shape == (n, len(space), len(space)) and drawn.dtype == complex
        assert np.array_equal(drawn, expected)
        assert np.array_equal(batch.sample(space).matrix, single.sample(space).matrix)


def test_an_empty_batch_draws_nothing():
    sampler = ScatterSampler(seed=4)
    assert sampler.sample(hm(1), 0).shape == (0, 4, 4)
    assert sampler.sample(direct_sum(h0(), hm(1)), 0).shape == (0, 6, 6)
    assert np.array_equal(sampler.sample(hm(1)).matrix, ScatterSampler(seed=4).sample(hm(1)).matrix)
    with pytest.raises(ValueError):
        sampler.sample(hm(1), -1)


@pytest.mark.parametrize("space", [h0(), hm(1), direct_sum(h0(), hm(1)), direct_sum(hm(1), hm(2))],
                         ids=["h0", "hm1", "h0+hm1", "hm1+hm2"])
def test_a_batch_raises_genericity_error_at_the_single_draws_failure(space):
    """A batch raises iff it reaches the draw where single draws run out of
    attempts, and then leaves the generator where they leave it. At this
    floor single draws run out after 0 to 42 draws, so most batches are
    long enough to be drawn and tested as a whole."""
    def sampler(seed):
        return ScatterSampler(seed=seed, unitary=False, genericity_floor=0.1, max_attempts=4)

    for seed in range(6):
        single = sampler(seed)
        drawn = []
        with pytest.raises(GenericityError):
            while True:
                drawn.append(single.sample(space).matrix)
        assert np.array_equal(sampler(seed).sample(space, len(drawn)), np.reshape(drawn, (-1, len(space), len(space))))
        batch = sampler(seed)
        with pytest.raises(GenericityError):
            batch.sample(space, len(drawn) + 3)
        assert batch._rng.bit_generator.state == single._rng.bit_generator.state


# ---------------------------------------------------------------------------
# the memo of batch draws

MEMO_SPACES = [h0(), hm(1), direct_sum(h0(), hm(1)), direct_sum(hm(1), hm(2))]
MEMO_IDS = ["h0", "hm1", "h0+hm1", "hm1+hm2"]


def _no_draw(*args):
    raise AssertionError("a kept batch drew from the generator")


def _kept() -> int:
    return scatter._seeded_batch.cache_info().currsize


@pytest.mark.parametrize("n", [3, 16, 64])
@pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "subunitary"])
@pytest.mark.parametrize("space", MEMO_SPACES, ids=MEMO_IDS)
def test_a_kept_batch_is_the_draw_bit_for_bit(space, unitary, n, monkeypatch):
    """The second sample(space, n) from one generator state reads the
    first back without drawing: the same stack, the generator left in the
    same state, the same next draw, whatever the callers wrote into the
    stacks they got."""
    def sampler():
        return ScatterSampler(seed=n, unitary=unitary)

    scatter._seeded_batch.cache_clear()
    cold = sampler()
    drawn = cold.sample(space, n)
    end = cold._rng.bit_generator.state
    after = cold.sample(space).matrix
    assert _kept() == 1  # the single draw is not kept
    expected = drawn.copy()
    drawn[:] = 0

    with monkeypatch.context() as patch:
        patch.setattr(ScatterSampler, "_stream", _no_draw)
        warm = sampler()
        kept = warm.sample(space, n)
        assert np.array_equal(kept, expected) and kept.flags.writeable
        assert warm._rng.bit_generator.state == end
        kept[:] = 0
        assert np.array_equal(sampler().sample(space, n), expected)
    assert np.array_equal(warm.sample(space).matrix, after)
    longer = sampler().sample(space, n + 1)  # another size is another stream
    assert np.array_equal(longer[:n], expected) and np.array_equal(longer[n], after)


def test_the_memo_keys_every_setting_of_a_draw():
    """Draws that differ in the space or a sampler setting, from one seed,
    each get the stack a cold draw gives them, or its GenericityError."""
    def draw(space, unitary, floor, attempts):
        try:
            return ScatterSampler(seed=0, unitary=unitary, genericity_floor=floor, max_attempts=attempts).sample(space, 16)
        except GenericityError:
            return None

    settings = [(hm(1), False, 1e-3, 100), (hm(1), True, 1e-3, 100), (hm(1), False, 0.3, 100),
                (hm(1), False, 0.3, 1), (h0(), False, 1e-3, 100), (direct_sum(h0(), hm(1)), False, 1e-3, 100)]
    warm = [draw(*setting) for setting in settings]
    for setting, drawn in zip(settings, warm):
        scatter._seeded_batch.cache_clear()
        cold = draw(*setting)
        assert (drawn is None and cold is None) or np.array_equal(drawn, cold)
    assert warm[3] is None and all(drawn is not None for drawn in warm[:3] + warm[4:])


@pytest.mark.parametrize("space", MEMO_SPACES, ids=MEMO_IDS)
def test_a_batch_after_single_draws_is_kept_under_its_own_state(space):
    singles = ScatterSampler(seed=8, unitary=False)
    expected = np.array([singles.sample(space).matrix for _ in range(2 + 16)])[2:]
    ScatterSampler(seed=8, unitary=False).sample(space, 16)  # kept from the seed's state
    for _ in range(2):  # drawn, then read back
        sampler = ScatterSampler(seed=8, unitary=False)
        sampler.sample(space), sampler.sample(space)
        assert np.array_equal(sampler.sample(space, 16), expected)


@pytest.mark.parametrize("space", MEMO_SPACES, ids=MEMO_IDS)
def test_a_failed_batch_fails_again_and_is_not_kept(space):
    """A batch that runs out of attempts raises on every call, and each
    time leaves the generator where single draws leave it."""
    def sampler():
        return ScatterSampler(seed=2, unitary=False, genericity_floor=0.1, max_attempts=4)

    single = sampler()
    drawn = 0
    with pytest.raises(GenericityError):
        while True:
            single.sample(space)
            drawn += 1
    scatter._seeded_batch.cache_clear()  # an empty memo evicts nothing, so any kept batch shows
    for _ in range(2):
        batch = sampler()
        with pytest.raises(GenericityError):
            batch.sample(space, drawn + 3)
        assert batch._rng.bit_generator.state == single._rng.bit_generator.state
        assert _kept() == 0


def _no_seeding(*args):
    raise AssertionError("a kept batch seeded a generator")


@pytest.mark.parametrize("space", MEMO_SPACES, ids=MEMO_IDS)
def test_a_sampler_that_read_a_kept_batch_goes_on_as_the_cold_one(space, monkeypatch):
    """The read seeds no generator; the batch after it is the stream's
    next, not the kept one again, and the single draw and the batch after
    that are bit for bit the cold sampler's."""
    scatter._seeded_batch.cache_clear()
    cold = ScatterSampler(seed=6, unitary=False)
    first = cold.sample(space, 16)
    warm = ScatterSampler(seed=6, unitary=False)
    with monkeypatch.context() as patch:
        patch.setattr(ScatterSampler, "_stream", _no_draw)
        patch.setattr(np.random, "default_rng", _no_seeding)
        assert np.array_equal(warm.sample(space, 16), first)
    assert np.array_equal(warm.sample(space, 16), cold.sample(space, 16))
    assert np.array_equal(warm.sample(space).matrix, cold.sample(space).matrix)
    assert np.array_equal(warm.sample(space, 9), cold.sample(space, 9))
    assert warm._rng.bit_generator.state == cold._rng.bit_generator.state
    assert _kept() == 1  # only the batch from the seed is kept


def test_a_numpy_integer_seed_reads_the_batch_its_int_kept(monkeypatch):
    scatter._seeded_batch.cache_clear()
    kept = ScatterSampler(seed=5).sample(hm(1), 16)
    monkeypatch.setattr(ScatterSampler, "_stream", _no_draw)
    assert np.array_equal(ScatterSampler(seed=np.int64(5)).sample(hm(1), 16), kept)
    assert _kept() == 1


def test_samplers_not_seeded_by_an_integer_keep_nothing():
    """Unseeded samplers draw fresh entropy, so two of them draw different
    batches; a SeedSequence seed draws its own stream. No batch of theirs
    is kept."""
    scatter._seeded_batch.cache_clear()
    assert not np.array_equal(ScatterSampler(seed=None).sample(hm(1), 8), ScatterSampler(seed=None).sample(hm(1), 8))
    by_sequence = ScatterSampler(seed=np.random.SeedSequence(5)).sample(hm(1), 8)
    singles = ScatterSampler(seed=np.random.SeedSequence(5))
    assert np.array_equal(by_sequence, [singles.sample(hm(1)).matrix for _ in range(8)])
    assert _kept() == 0


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (np.int64(-1), ValueError), (1.5, TypeError), ("3", TypeError)])
def test_a_bad_seed_fails_at_construction(seed, error):
    with pytest.raises(error):
        ScatterSampler(seed=seed)


def test_the_memo_keeps_to_its_bounds():
    """The memo holds the _MEMO_ENTRIES most recently used stacks, each
    read-only, and draws a stack over _MEMO_STACK_BYTES without keeping
    it: the largest kept stream on a 10-mode space has 81 draws."""
    assert scatter._MEMO_ENTRIES == 64 and scatter._MEMO_STACK_BYTES == 128 << 10
    scatter._seeded_batch.cache_clear()
    for seed in range(scatter._MEMO_ENTRIES + 20):
        ScatterSampler(seed=seed).sample(hm(1), 3)
    assert _kept() == scatter._MEMO_ENTRIES
    hits = scatter._seeded_batch.cache_info().hits
    ScatterSampler(seed=scatter._MEMO_ENTRIES + 19).sample(hm(1), 3)
    assert scatter._seeded_batch.cache_info().hits == hits + 1  # the most recent is kept
    ScatterSampler(seed=0).sample(hm(1), 3)
    assert scatter._seeded_batch.cache_info().hits == hits + 1  # the least recent is not

    space = direct_sum(h0(), hm(1), hm(2))
    scatter._seeded_batch.cache_clear()
    largest = ScatterSampler(seed=1).sample(space, 81)
    assert largest.nbytes <= scatter._MEMO_STACK_BYTES and _kept() == 1
    stack, _ = scatter._seeded_batch(1, True, 1e-3, 100, space, 81)
    assert not stack.flags.writeable and np.array_equal(stack, largest)
    over = ScatterSampler(seed=1)
    drawn = over.sample(space, 82)
    assert drawn.nbytes > scatter._MEMO_STACK_BYTES and _kept() == 1
    singles = ScatterSampler(seed=1)
    assert np.array_equal(drawn, [singles.sample(space).matrix for _ in range(82)])
    assert over._rng.bit_generator.state == singles._rng.bit_generator.state


def test_threads_share_the_memo_without_losing_an_update(monkeypatch):
    """Samplers in more threads than cores, switching often, fill and evict
    a memo of five entries: every stack is still its cold draw."""
    import functools
    import sys
    import threading

    space, seeds = direct_sum(h0(), hm(1)), range(12)
    cold = {seed: ScatterSampler(seed=seed).sample(space, 8) for seed in seeds}
    small = functools.lru_cache(maxsize=5)(scatter._seeded_batch.__wrapped__)
    monkeypatch.setattr(scatter, "_seeded_batch", small)
    wrong = []

    def work(offset):
        for k in range(200):
            seed = seeds[(offset + k) % len(seeds)]
            if not np.array_equal(ScatterSampler(seed=seed).sample(space, 8), cold[seed]):
                wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    info = small.cache_info()
    assert info.currsize == 5 and info.hits > 0 and info.misses > len(seeds)


def test_sigma_max_does_not_cancel_at_equal_singular_values():
    """0.7 U has sigma_max = sigma_min = 0.7, where |A|_F^2 - 2|det| vanishes."""
    from symprot.scatter import _sigma_max

    for seed in range(20):
        u = ScatterSampler(seed=seed).sample(hm(1)).block()
        assert abs(_sigma_max(*(0.7 * u).ravel()) - 0.7) < 1e-15
        assert abs(_sigma_max(*(0.7 * np.eye(2) * u[0, 0]).ravel()) - 0.7 * abs(u[0, 0])) < 1e-15


def test_sigma_max_of_singular_blocks():
    """det = 0 leaves the phase u free: any unit u gives the same sum of
    squares, so a rank-one block still has sigma_max = |A|_F, on scalars
    and on arrays alike, without a division by zero."""
    from symprot.scatter import _sigma_max

    assert _sigma_max(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j) == 2.0
    rank_one = [np.array([1.0 + 0j, 3.0 + 4.0j]), np.array([0j, 0j]), np.array([2.0 + 0j, 0j]), np.array([0j, 0j])]
    assert np.allclose(_sigma_max(*rank_one), [np.sqrt(5.0), 5.0], atol=1e-15, rtol=0)


def test_genericity_error_comes_at_the_oracle_draw():
    sampler = ScatterSampler(seed=0, unitary=False, genericity_floor=0.999, max_attempts=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        expected, _ = sample_block_oracle(rng, "hm", False, 0.999, max_attempts=3)
        if expected is None:
            with pytest.raises(GenericityError):
                sampler.sample(hm(1))
            return
        assert np.allclose(sampler.sample(hm(1)).block(), expected, atol=1e-13, rtol=0)
    pytest.fail("the oracle never ran out of attempts")


def test_scattering_shape_must_match_space():
    with pytest.raises(ValueError):
        SymmetricScattering(space=h0(), matrix=np.eye(4), unitary=True)


def test_block_accessor_on_direct_sums():
    space = direct_sum(h0(), hm(1))
    s = ScatterSampler(seed=9).sample(space)
    assert s.block(0).shape == (2, 2)
    assert s.block(1).shape == (2, 2)  # the m block of the hm component
    with pytest.raises(ValueError):
        s.block(7)


def test_validate_accepts_the_identity():
    report = validate_scattering(np.eye(2), h0())
    assert report.ok
    assert report.jz_commutator < 1e-12
    assert report.mirror_commutator < 1e-12
    assert report.shape_residual < 1e-12


def test_validate_flags_a_mirror_violation():
    """[[alpha, beta], [-beta, alpha]] breaks the mirror by exactly 2 sqrt(2) |beta|."""
    alpha, beta = 0.6 + 0.1j, 0.3 - 0.2j
    S = np.array([[alpha, beta], [-beta, alpha]])
    report = validate_scattering(S, h0())
    assert not report.ok
    assert abs(report.mirror_commutator - 2 * np.sqrt(2) * abs(beta)) < 1e-12


def test_validate_accepts_a_diagonal_hm_unitary():
    report = validate_scattering(np.diag([1.0, -1.0, -1.0, 1.0]), hm(1))
    assert report.ok
    assert report.sigma_excess <= report.tol


def test_validate_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        validate_scattering(np.eye(3), hm(1))


@pytest.mark.parametrize(
    "space,unitary",
    [(h0(), True), (h0(), False), (hm(1), False), (hm(2), True),
     (direct_sum(h0(), hm(1)), False)],
    ids=["h0-u", "h0-sub", "hm1-sub", "hm2-u", "sum-sub"],
)
def test_every_sample_validates(space, unitary):
    """Sampled matrices satisfy all symmetry residuals below 1e-12 in bulk."""
    sampler = ScatterSampler(seed=123, unitary=unitary)
    for _ in range(2000):
        s = sampler.sample(space)
        report = validate_scattering(s.matrix, space)
        assert report.ok
        assert max(report.jz_commutator, report.mirror_commutator,
                   report.shape_residual) < 1e-12


def test_eigen_modes_on_h0():
    """Axial eigenvectors are the fixed mirror-even/odd combinations."""
    s = ScatterSampler(seed=7, unitary=False).sample(h0())
    alpha, beta = s.matrix[0, 0], s.matrix[0, 1]
    modes = eigen_modes(s)
    assert len(modes) == 2
    values = {m.mirror_tau: m.value for m in modes}
    assert abs(values[+1] - (alpha + beta)) < 1e-12
    assert abs(values[-1] - (alpha - beta)) < 1e-12
    for mode in modes:
        vec = mode.vectors[:, 0]
        expected = np.array([1.0, mode.mirror_tau]) / np.sqrt(2)
        assert np.allclose(vec, expected, atol=1e-12, rtol=0)
        assert np.allclose(s.matrix @ vec, mode.value * vec, atol=1e-12, rtol=0)
    # sorted by descending real part, then imaginary part
    keys = [(-m.value.real, -m.value.imag) for m in modes]
    assert keys == sorted(keys)


def test_eigen_modes_on_hm_pair_doubly():
    """Each rotating eigenvalue carries a two-column flip-degenerate space."""
    s = ScatterSampler(seed=15, unitary=False).sample(hm(1))
    modes = eigen_modes(s)
    assert len(modes) == 2
    det_block = np.linalg.det(s.block(0))
    prod = modes[0].value * modes[1].value
    assert abs(prod - det_block) < 1e-12
    for mode in modes:
        assert mode.vectors.shape == (4, 2)
        assert mode.mirror_tau is None
        for k in range(2):
            vec = mode.vectors[:, k]
            assert np.linalg.norm(s.matrix @ vec - mode.value * vec) < 1e-10
        # second column is the mirror image of the first
        flipped = s.space.mirror @ mode.vectors[:, 0]
        overlap = abs(np.vdot(mode.vectors[:, 1], flipped))
        assert overlap > 1 - 1e-10


def test_eigen_modes_rejects_degenerate_input():
    s = SymmetricScattering(space=hm(1), matrix=np.eye(4), unitary=True)
    with pytest.raises(ValueError):
        eigen_modes(s)


def test_eigen_modes_rejects_direct_sums():
    space = direct_sum(h0(), hm(1))
    s = ScatterSampler(seed=0).sample(space)
    with pytest.raises(ValueError):
        eigen_modes(s)


# ---------------------------------------------------------------------------
# Lie algebra of the family


@pytest.mark.parametrize(
    "space,n_sl2,n_commuting",
    [(h0(), 0, 2), (hm(2), 3, 1), (direct_sum(h0(), hm(1), hm(2)), 6, 4)],
    ids=["h0", "hm2", "h0+hm1+hm2"],
)
def test_family_generators_exponentiate_into_the_family(space, n_sl2, n_commuting):
    sl2, commuting = family_generators(space)
    assert (len(sl2), len(commuting)) == (n_sl2, n_commuting)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=n_sl2 + n_commuting) + 1j * rng.normal(size=n_sl2 + n_commuting)
    S = expm(sum(c * g for c, g in zip(coeffs, sl2 + commuting)))
    assert validate_scattering(S / np.linalg.norm(S, 2), space).ok
    member = ScatterSampler(seed=12, unitary=False).sample(space).matrix
    for gen in commuting:
        assert np.allclose(gen @ member, member @ gen, atol=1e-14, rtol=0)
