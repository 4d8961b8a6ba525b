"""Mode spaces, labels, and the mirror/J_z operator pair."""

import dataclasses
import pickle

import numpy as np
import pytest

from symprot import (
    ModeLabel,
    direct_sum,
    enumerate_basis,
    h0,
    hm,
    mirror_eigenbasis,
)


def test_h0_labels_and_generators():
    """The axial space carries (0,+), (0,-) with J_z = 0 and an off-diagonal mirror."""
    space = h0()
    assert len(space) == 2
    assert space.labels == (ModeLabel(0, +1), ModeLabel(0, -1))
    assert np.array_equal(space.jz, np.diag([0.0, 0.0]))
    assert np.array_equal(space.mirror, np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hm_labels_and_generators(m):
    space = hm(m)
    assert space.labels == (
        ModeLabel(m, +1),
        ModeLabel(m, -1),
        ModeLabel(-m, +1),
        ModeLabel(-m, -1),
    )
    assert np.array_equal(space.jz, np.diag([m, m, -m, -m]).astype(float))
    # mirror swaps (m, h) <-> (-m, -h): antidiagonal in this ordering
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(space.mirror, expected)
    assert space.m == m


@pytest.mark.parametrize("m", [0, -1, -5])
def test_hm_requires_positive_m(m):
    with pytest.raises(ValueError):
        hm(m)


def test_mode_spaces_are_shared():
    """h0() and hm(m) return one instance per m, so a state builder pays
    for no new space and no rehash; a NumPy integer m gets the same space,
    whose labels hold Python ints, and a bad m still raises on every call."""
    assert h0() is h0()
    assert hm(3) is hm(3) and hm(3) is not hm(2)
    assert hm(np.int64(3)) is hm(3) and type(hm(np.int64(4)).labels[0].m) is int
    assert enumerate_basis(hm(3), 2) is enumerate_basis(hm(3), 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            hm(0)
        with pytest.raises(TypeError):
            hm(1.5)


def test_mode_label_helicity_validation():
    with pytest.raises(ValueError):
        ModeLabel(1, 0)
    with pytest.raises(ValueError):
        ModeLabel(1, 2)


def test_mirrored_label_is_an_involution():
    for m in (-3, -1, 0, 2):
        for h in (+1, -1):
            label = ModeLabel(m, h)
            assert label.mirrored() == ModeLabel(-m, -h)
            assert label.mirrored().mirrored() == label


@pytest.mark.parametrize(
    "space",
    [h0(), hm(1), hm(2), direct_sum(h0(), hm(1)), direct_sum(hm(1), hm(3))],
    ids=["h0", "hm1", "hm2", "h0+hm1", "hm1+hm3"],
)
def test_mirror_is_a_symmetric_involution(space):
    """M is a real symmetric permutation squaring to the identity."""
    M = space.mirror
    assert np.array_equal(M, M.T)
    assert np.array_equal(M @ M, np.eye(len(space)))
    # permutation: exactly one unit entry per row
    assert np.array_equal(np.sort(M, axis=1)[:, -1], np.ones(len(space)))
    assert np.count_nonzero(M) == len(space)


@pytest.mark.parametrize("space", [h0(), hm(2), direct_sum(h0(), hm(1))])
def test_mirror_permutation_matches_matrix(space):
    perm = space.mirror_permutation
    M = space.mirror
    for i, j in enumerate(perm):
        assert M[j, i] == 1.0
        assert space.labels[j] == space.labels[i].mirrored()


def test_mirror_anticommutes_with_jz():
    for space in (hm(1), hm(2), direct_sum(h0(), hm(1))):
        M, Jz = space.mirror, space.jz
        assert np.array_equal(M @ Jz @ M, -Jz)


def test_generator_arrays_are_write_protected():
    space = hm(1)
    with pytest.raises(ValueError):
        space.mirror[0, 0] = 5.0
    with pytest.raises(ValueError):
        space.jz[0, 0] = 5.0


def test_direct_sum_concatenates_labels():
    space = direct_sum(h0(), hm(1), hm(2))
    assert len(space) == 10
    assert space.labels == h0().labels + hm(1).labels + hm(2).labels
    # generators are block-diagonal
    assert np.array_equal(space.jz[:2, :2], h0().jz)
    assert np.array_equal(space.jz[2:6, 2:6], hm(1).jz)
    assert np.array_equal(space.mirror[6:, 6:], hm(2).mirror)
    assert np.count_nonzero(space.mirror[:2, 2:]) == 0


def test_direct_sum_flattens_nested_sums():
    nested = direct_sum(direct_sum(h0(), hm(1)), hm(2))
    flat = direct_sum(h0(), hm(1), hm(2))
    assert nested == flat


def test_direct_sum_single_space_passthrough():
    assert direct_sum(h0()) == h0()
    assert direct_sum(hm(2)) == hm(2)


def test_direct_sum_rejects_repeated_sectors():
    with pytest.raises(ValueError):
        direct_sum(h0(), h0())
    with pytest.raises(ValueError):
        direct_sum(hm(1), hm(1))
    with pytest.raises(ValueError):
        direct_sum(direct_sum(h0(), hm(2)), hm(2))


def test_direct_sum_requires_an_argument():
    with pytest.raises(ValueError):
        direct_sum()


def test_space_equality_and_hash():
    assert h0() == h0()
    assert hm(1) == hm(1)
    assert hm(1) != hm(2)
    assert h0() != hm(1)
    d = {h0(): "axial", hm(1): "m=1"}
    assert d[h0()] == "axial"


@pytest.mark.parametrize(
    "build",
    [h0, lambda: hm(1), lambda: direct_sum(h0(), hm(1), hm(2)), lambda: direct_sum(hm(2), h0())],
    ids=["h0", "hm1", "h0+hm1+hm2", "hm2+h0"],
)
def test_separately_built_spaces_hash_and_compare_equal(build):
    """The hash is taken once per instance and is still the labels' hash, so
    spaces built apart, or read back from a pickle, are interchangeable keys."""
    # h0() and hm(m) hand out one shared instance, so b is built apart from a's fields
    a = build()
    b = dataclasses.replace(a)
    unhashed = pickle.loads(pickle.dumps(build()))
    assert a is not b
    assert hash(a) == hash(b) == hash(a.labels) == hash(a)
    assert a == b
    restored = pickle.loads(pickle.dumps(a))
    for copy in (restored, unhashed):
        assert copy == a and hash(copy) == hash(a) == hash(copy.labels)
        assert {a: "kept"}[copy] == "kept"
    assert direct_sum(hm(2), h0()) != direct_sum(h0(), hm(2))


def test_m_accessor_only_on_single_sectors():
    assert hm(3).m == 3
    with pytest.raises(ValueError):
        h0().m
    with pytest.raises(ValueError):
        direct_sum(h0(), hm(1)).m


def test_mirror_eigenbasis_diagonalizes_the_mirror():
    """Columns of U are the symmetric/antisymmetric axial combinations."""
    U = mirror_eigenbasis(h0())
    assert np.linalg.norm(U.conj().T @ U - np.eye(2)) < 1e-14
    D = U.conj().T @ h0().mirror @ U
    assert np.linalg.norm(D - np.diag([1.0, -1.0])) < 1e-14
    s = 1 / np.sqrt(2)
    assert np.allclose(np.abs(U), s, atol=1e-15, rtol=0)


def test_mirror_eigenbasis_rejects_rotating_sectors():
    with pytest.raises(ValueError):
        mirror_eigenbasis(hm(1))
    with pytest.raises(ValueError):
        mirror_eigenbasis(direct_sum(h0(), hm(1)))
