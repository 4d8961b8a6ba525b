"""Time-bin qudits riding protected carriers through symmetric channels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symprot import (
    CarrierNotProtectedError,
    CertificationConfig,
    FockState,
    ScatterSampler,
    SymmetricScattering,
    TimeBinQudit,
    direct_sum,
    drift_experiment,
    erasure_capacity,
    h0,
    hm,
    lift,
    mirror_fock,
    named_state,
    pair_power,
    product_state,
    time_bin_qudit,
    transmit,
    transmit_bins,
)

FAST_CFG = CertificationConfig(n_samples=8, seed=0)


def singlet_qudit(d=2):
    return time_bin_qudit(np.ones(d), named_state("psi4"), cfg=None)


def test_qudit_normalizes_coefficients():
    q = time_bin_qudit([3.0, 4.0], named_state("psi4"), cfg=FAST_CFG)
    assert np.allclose(q.coefficients, [0.6, 0.8], atol=1e-15, rtol=0)
    assert q.d == 2


def test_qudit_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        time_bin_qudit([0.0, 0.0], named_state("psi4"), cfg=None)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e-160, 1e-200])
def test_qudit_normalizes_coefficients_whose_squared_norm_overflows_or_underflows(scale):
    q = time_bin_qudit([3.0 * scale, 4.0j * scale], named_state("psi4"), cfg=None)
    np.testing.assert_allclose(q.coefficients, [0.6, 0.8j], atol=1e-15, rtol=0)


def test_qudit_refuses_unprotected_carriers():
    with pytest.raises(CarrierNotProtectedError):
        time_bin_qudit([1.0, 1.0], named_state("phi1"), cfg=FAST_CFG)


def test_qudit_construction_validation():
    with pytest.raises(ValueError):
        TimeBinQudit(coefficients=np.array([1.0, 1.0]), carrier=named_state("psi4"))
    with pytest.raises(ValueError):
        TimeBinQudit(coefficients=np.array([]), carrier=named_state("psi4"))
    psi4 = named_state("psi4")
    tripled = FockState(psi4.basis, 3 * psi4.amplitudes)
    with pytest.raises(ValueError, match="must be normalized"):
        time_bin_qudit([1.0, 1.0], tripled, cfg=None)
    with pytest.raises(ValueError, match="must be normalized"):
        TimeBinQudit(coefficients=np.array([1.0, 0.0]), carrier=tripled)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            TimeBinQudit(coefficients=np.array([bad, 1.0]), carrier=psi4)
        with pytest.raises(ValueError, match="must be finite"):
            time_bin_qudit([bad, 1.0], psi4, cfg=None)


def test_unitary_transmission_is_perfect():
    q = singlet_qudit()
    s = ScatterSampler(seed=4, unitary=True).sample(hm(1))
    out = transmit(q, s)
    assert out.fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.success_probability == pytest.approx(1.0, abs=1e-12)
    assert out.worst_residual < 1e-10


def test_subunitary_success_is_the_determinant_square():
    q = singlet_qudit()
    for seed in range(10):
        s = ScatterSampler(seed=seed, unitary=False).sample(hm(1))
        out = transmit(q, s)
        det_m = np.linalg.det(s.block(0))
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.success_probability == pytest.approx(abs(det_m) ** 2, abs=1e-12)
        assert np.allclose(out.eigenvalues, det_m, atol=1e-12, rtol=0)


def test_success_is_coefficient_independent():
    rng = np.random.default_rng(0)
    s = ScatterSampler(seed=7, unitary=False).sample(hm(1))
    probs = []
    for _ in range(10):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = time_bin_qudit(c, named_state("psi4"), cfg=None)
        probs.append(transmit(q, s).success_probability)
    assert np.ptp(probs) < 1e-12


def test_pair_carrier_success_scales_with_photon_number():
    """N photons lose |det S_m|^N of amplitude-squared... success = |det|^N."""
    s = ScatterSampler(seed=3, unitary=False).sample(hm(1))
    det_m = abs(np.linalg.det(s.block(0)))
    for pairs in (1, 2, 3):
        q = time_bin_qudit([1.0, 1.0], pair_power(1, pairs), cfg=None)
        out = transmit(q, s)
        assert out.success_probability == pytest.approx(det_m ** (2 * pairs), rel=1e-9)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)


def test_mirror_fock_carriers_survive_static_channels():
    from symprot import h0

    for carrier in (mirror_fock(1, 0), mirror_fock(0, 1)):
        q = time_bin_qudit([1.0, 1.0j, -1.0], carrier, cfg=FAST_CFG)
        for seed in range(5):
            s = ScatterSampler(seed=seed, unitary=False).sample(h0())
            out = transmit(q, s)
            assert out.fidelity == pytest.approx(1.0, abs=1e-12)


def test_transmission_memory_is_a_few_groups_of_lifts():
    """Distinct bins are applied one mode pair at a time, as the draws of
    certification are, so the peak stays below eight dense lifts, not one
    lifted matrix per bin."""
    carrier = pair_power(1, 4)
    sampler = ScatterSampler(seed=0, unitary=False)
    bins = [sampler.sample(hm(1)) for _ in range(64)]
    q = time_bin_qudit(np.ones(64), carrier, cfg=None)
    transmit_bins(q, bins)  # warm call: builds the cached basis tables
    tracemalloc.start()
    try:
        transmit_bins(q, bins)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = len(carrier.basis)
    assert dim == 165
    assert peak <= 8 * 16 * dim * dim


def test_transmission_rejects_a_scatterer_outside_the_family_shape():
    """A user-built SymmetricScattering only has its shape checked; one with
    entries outside the 2x2 mode-pair blocks is refused, not misread."""
    rng = np.random.default_rng(3)
    dense = SymmetricScattering(hm(1), rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), unitary=False)
    q = time_bin_qudit([1.0, 1.0], pair_power(1, 1), cfg=None)
    with pytest.raises(ValueError, match="block diagonal"):
        transmit(q, dense)
    with pytest.raises(ValueError, match="block diagonal"):
        transmit_bins(q, [ScatterSampler(seed=0).sample(hm(1)), dense])
    # any nonzero entry off the blocks counts, however small
    member = ScatterSampler(seed=1).sample(hm(1)).matrix.copy()
    transmit(q, SymmetricScattering(hm(1), member, unitary=True))
    member[0, 3] = 1e-300
    with pytest.raises(ValueError, match="block diagonal"):
        transmit(q, SymmetricScattering(hm(1), member, unitary=True))


def test_transmission_rejects_a_scatterer_on_another_space():
    """Scatterers of the same matrix shape but another mode space are a
    usage error (ValueError) in every entry point, not a refused carrier or
    a fidelity."""
    carrier = product_state([mirror_fock(1, 0), named_state("psi4")])
    q = time_bin_qudit([1.0, 1.0], carrier, cfg=None)
    sampler = ScatterSampler(seed=0)
    swapped = direct_sum(hm(1), h0())
    own = sampler.sample(carrier.basis.space)
    with pytest.raises(ValueError, match="cannot act on a carrier"):
        drift_experiment(q, sampler.sample(swapped), sampler.sample(swapped))
    with pytest.raises(ValueError, match="cannot act on a carrier"):
        transmit(q, sampler.sample(swapped))
    with pytest.raises(ValueError, match="cannot act on a carrier"):
        transmit_bins(q, [own, sampler.sample(swapped)])
    with pytest.raises(ValueError, match="'m': 2.*'m': 1"):
        transmit_bins(singlet_qudit(1), [sampler.sample(hm(2))])
    assert transmit(q, own).fidelity == pytest.approx(1.0, abs=1e-12)


def test_transmit_bins_requires_matching_count():
    q = singlet_qudit(3)
    s = ScatterSampler(seed=0).sample(hm(1))
    with pytest.raises(ValueError):
        transmit_bins(q, [s, s])


def test_transmit_flags_unprotected_carriers_at_the_channel():
    q = time_bin_qudit([1.0, 1.0], named_state("phi1"), cfg=None)
    from symprot import h0

    s = ScatterSampler(seed=1, unitary=False).sample(h0())
    with pytest.raises(CarrierNotProtectedError):
        transmit(q, s)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("carrier", ["phi1", "psi4"])
def test_transmission_refuses_a_tolerance_that_is_not_finite_and_positive(carrier, tol):
    """A NaN tolerance would pass the unprotected phi1, and a negative one
    would refuse the protected psi4: both are refused as arguments."""
    q = time_bin_qudit([1.0, 1.0], named_state(carrier), cfg=None)
    s = ScatterSampler(seed=3, unitary=True).sample(q.carrier.basis.space)
    with pytest.raises(ValueError, match="residual_tol"):
        transmit(q, s, residual_tol=tol)
    with pytest.raises(ValueError, match="residual_tol"):
        transmit_bins(q, [s, s], residual_tol=tol)
    assert transmit_bins(q, [s, s], residual_tol=None).fidelity <= 1.0 + 1e-12


def test_success_counts_the_part_that_leaves_the_ray():
    """Without a residual check an unprotected carrier goes through, and its
    success probability is sum_i |a_i|^2 ||lift(S_i) c||^2, taken here from
    the lifts themselves."""
    carrier = named_state("phi1")
    q = time_bin_qudit([1.0, 2.0j, -1.0], carrier, cfg=None)
    sampler = ScatterSampler(seed=9, unitary=False)
    bins = [sampler.sample(h0()) for _ in range(3)]
    out = transmit_bins(q, bins, residual_tol=None)
    weights = np.abs(q.coefficients) ** 2
    images = [lift(s.matrix, carrier.basis).matrix @ carrier.amplitudes for s in bins]
    success = sum(w * np.vdot(phi, phi).real for w, phi in zip(weights, images))
    overlap = sum(w * np.vdot(carrier.amplitudes, phi) for w, phi in zip(weights, images))
    assert out.worst_residual > 1e-3
    assert out.success_probability == pytest.approx(success, rel=1e-12)
    assert out.fidelity == pytest.approx(abs(overlap) ** 2 / success, rel=1e-12)


def test_identical_bins_reduce_to_the_static_channel():
    q = singlet_qudit()
    s = ScatterSampler(seed=6, unitary=True).sample(hm(1))
    assert drift_experiment(q, s, s) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1, np.pi / 3])
def test_pure_phase_drift_has_closed_form_fidelity(theta):
    """A phase slip theta between bins gives cos^2(N theta / 2) for d = 2."""
    q = singlet_qudit()
    s1 = ScatterSampler(seed=5, unitary=True).sample(hm(1))
    s2 = SymmetricScattering(
        space=s1.space, matrix=np.exp(1j * theta) * s1.matrix, unitary=True
    )
    n = q.carrier.basis.n_photons
    expected = np.cos(n * theta / 2) ** 2
    assert drift_experiment(q, s1, s2) == pytest.approx(expected, abs=1e-12)


def test_quarter_turn_drift_erases_the_two_photon_qubit():
    q = singlet_qudit()
    s1 = ScatterSampler(seed=5, unitary=True).sample(hm(1))
    s2 = SymmetricScattering(
        space=s1.space, matrix=1j * s1.matrix, unitary=True
    )
    assert drift_experiment(q, s1, s2) == pytest.approx(0.0, abs=1e-12)


def test_independent_drift_degrades_fidelity():
    # documented seed set: the phase slip between independent draws is
    # uniform, so ~2% of seeds land within 1e-3 of perfect fidelity by
    # chance; this window was measured to contain exactly one such seed.
    q = singlet_qudit()
    degraded = 0
    for seed in range(87, 187):
        sampler = ScatterSampler(seed=seed, unitary=True)
        s1 = sampler.sample(hm(1))
        s2 = sampler.sample(hm(1))
        if drift_experiment(q, s1, s2) < 1 - 1e-3:
            degraded += 1
    assert degraded >= 99


# ---------------------------------------------------------------------------
# erasure capacities


@pytest.mark.parametrize(
    "eps,two_way,expected",
    [(0.0, False, 1.0), (0.25, False, 0.5), (0.5, False, 0.0), (0.75, False, 0.0),
     (0.0, True, 1.0), (0.3, True, 0.7), (1.0, True, 0.0)],
)
def test_erasure_capacity_values(eps, two_way, expected):
    assert erasure_capacity(eps, two_way=two_way) == expected


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_capacity_bounds_and_ordering(eps):
    one = erasure_capacity(eps)
    two = erasure_capacity(eps, two_way=True)
    assert 0.0 <= one <= two <= 1.0


@given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
def test_capacity_is_monotone(e1, e2):
    lo, hi = sorted((e1, e2))
    assert erasure_capacity(hi) <= erasure_capacity(lo)
    assert erasure_capacity(hi, two_way=True) <= erasure_capacity(lo, two_way=True)


def test_capacity_domain_validation():
    with pytest.raises(ValueError):
        erasure_capacity(-0.1)
    with pytest.raises(ValueError):
        erasure_capacity(1.5)
