"""Neighbor search on the periodic k-d tree and local orientation targets."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from sohb.alignment import (
    KernelConfig,
    average_rotation_matrix,
    build_grid,
    minimum_image,
    neighbor_pairs,
    target_quaternion,
    target_quaternions_all,
    target_rotation,
    target_rotations_all,
    wrap_positions,
)
from sohb.errors import BoxTooSmall, DegenerateAverage
from sohb.rng import make_rng
from sohb.rotations import mat_dot, quat_to_rot, rot_to_quat
from sohb.sampling import sample_uniform_quat, sample_uniform_rot, sample_vonmises_rot

R = 1.0
KERNEL = KernelConfig(radius=R)


def brute_force_pairs(x, box, radius):
    sep = minimum_image(x[:, None, :] - x[None, :, :], box)
    dist = np.linalg.norm(sep, axis=-1)
    i, j = np.nonzero(dist <= radius)
    return i, j, dist[i, j]


def sorted_pairs(i, j, d):
    order = np.lexsort((j, i))
    return i[order], j[order], d[order]


def test_two_particles_just_inside():
    x = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + R - 1e-9]])
    box = np.array([5.0, 5.0, 5.0])
    i, j, _ = neighbor_pairs(build_grid(x, box, R), R)
    pairs = set(zip(i.tolist(), j.tolist()))
    assert (0, 1) in pairs and (1, 0) in pairs


def test_two_particles_just_outside():
    x = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + R + 1e-9]])
    box = np.array([5.0, 5.0, 5.0])
    i, j, _ = neighbor_pairs(build_grid(x, box, R), R)
    pairs = set(zip(i.tolist(), j.tolist()))
    assert (0, 1) not in pairs and (1, 0) not in pairs


def test_grid_equals_brute_force():
    """The tree query returns exactly the O(N^2) pair set."""
    rng = make_rng(31, 0)
    for box in (np.array([5.0, 5.0, 5.0]), np.array([2.3, 4.1, 7.7])):
        x = rng.uniform(0.0, 1.0, (200, 3)) * box
        gi, gj, gd = sorted_pairs(*neighbor_pairs(build_grid(x, box, R), R))
        bi, bj, bd = sorted_pairs(*brute_force_pairs(x, box, R))
        assert np.array_equal(gi, bi)
        assert np.array_equal(gj, bj)
        np.testing.assert_allclose(gd, bd, atol=1e-12)


def test_pairs_cross_periodic_wrap():
    box = np.array([4.0, 4.0, 4.0])
    x = np.array([[0.1, 2.0, 2.0], [3.9, 2.0, 2.0]])  # 0.2 apart through the wall
    i, j, d = neighbor_pairs(build_grid(x, box, R), R)
    assert (0, 1) in set(zip(i.tolist(), j.tolist()))
    np.testing.assert_allclose(d[(i == 0) & (j == 1)], 0.2, atol=1e-12)


def test_box_smaller_than_two_radii_rejected():
    x = np.zeros((2, 3))
    with pytest.raises(BoxTooSmall):
        build_grid(x, np.array([1.5, 5.0, 5.0]), R)


def edge_coordinates(box):
    """Raw coordinates at the edges of the wrap, one row per case."""
    return np.stack(
        [np.full(3, -1e-17), np.full(3, -1e-300), np.nextafter(box, 0.0), box, 3.0 * box]
    )


def test_wrap_positions_range():
    box = np.array([2.0, 3.0, 4.0])
    x = np.array([[-0.5, 3.5, 8.1], [2.0, -6.0, 3.9]])
    x = np.concatenate([x, edge_coordinates(box)])
    w = wrap_positions(x, box)
    assert np.all(w >= 0.0) and np.all(w < box)
    np.testing.assert_array_equal(w[-3], np.nextafter(box, 0.0))
    np.testing.assert_array_equal(w[-2:], 0.0)


def test_build_grid_accepts_edge_coordinates():
    """Raw coordinates that round onto the box edge still build a valid tree."""
    box = np.full(3, 10.0)
    x = edge_coordinates(box)
    grid = build_grid(x, box, R)
    assert np.all(grid.positions >= 0.0) and np.all(grid.positions < box)
    gi, gj, gd = sorted_pairs(*neighbor_pairs(grid, R))
    bi, bj, bd = sorted_pairs(*brute_force_pairs(x, box, R))
    assert np.array_equal(gi, bi) and np.array_equal(gj, bj)
    np.testing.assert_allclose(gd, bd, atol=1e-12)


@pytest.mark.parametrize("shape", ["indicator", "smooth-bump"])
def test_kernel_unit_mass(shape):
    """4 pi int_0^R r^2 K(r) dr = 1 for both kernel shapes."""
    kernel = KernelConfig(radius=1.7, shape=shape)
    mass, _ = quad(lambda r: 4.0 * np.pi * r * r * kernel.weight(r), 0.0, 1.7)
    assert mass == pytest.approx(1.0, abs=1e-6)


@given(st.integers(min_value=0, max_value=10_000))
def test_minimum_image_bounds(seed):
    rng = make_rng(seed, 9)
    box = rng.uniform(2.0, 9.0, 3)
    d = rng.uniform(-30.0, 30.0, (16, 3))
    m = minimum_image(d, box)
    assert np.all(np.abs(m) <= box / 2 + 1e-12)
    # shifting by whole boxes never changes the image
    shift = rng.integers(-3, 4, (16, 3)) * box
    np.testing.assert_allclose(minimum_image(d + shift, box), m, atol=1e-9)


# --- targets ----------------------------------------------------------------


def cluster(rng, n=12, box_edge=6.0):
    box = np.full(3, box_edge)
    x = rng.uniform(0, box_edge, (n, 3))
    x[1:] = x[0] + rng.uniform(-0.3, 0.3, (n - 1, 3))  # one tight clump
    return wrap_positions(x, box), box


def test_target_rotation_of_identical_neighbors():
    rng = make_rng(32, 0)
    x, box = cluster(rng)
    a = sample_uniform_rot(rng)
    rots = np.broadcast_to(a, (x.shape[0], 3, 3)).copy()
    got = target_rotation(0, x, box, rots, KERNEL)
    np.testing.assert_allclose(got, a, atol=1e-10)


def test_target_rotation_maximality():
    """The polar target beats 1000 random probes at the weighted pairing."""
    rng = make_rng(32, 1)
    x, box = cluster(rng)
    rots = sample_vonmises_rot(sample_uniform_rot(rng), 0.3, rng, size=x.shape[0])
    target = target_rotation(0, x, box, rots, KERNEL)
    sep = minimum_image(x - x[0], box)
    w = (np.linalg.norm(sep, axis=-1) <= R).astype(float)
    jbar = np.einsum("m,mab->ab", w, rots)
    probes = sample_uniform_rot(rng, size=1000)
    assert np.all(mat_dot(target, jbar) >= mat_dot(probes, jbar) - 1e-12)


def test_target_rotation_degenerate():
    x = np.zeros((2, 3))
    x[1, 0] = 0.3
    box = np.full(3, 6.0)
    rots = np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0])])
    # Jbar = diag(2, 0, 0): rank deficient
    with pytest.raises(DegenerateAverage):
        target_rotation(0, x, box, rots, KERNEL)


def test_target_quaternion_sign_mix():
    rng = make_rng(32, 2)
    x, box = cluster(rng)
    q = sample_uniform_quat(rng)
    quats = np.broadcast_to(q, (x.shape[0], 4)).copy()
    flip = quats.copy()
    flip[::2] *= -1.0
    a = target_quaternion(0, x, box, quats, KERNEL)
    b = target_quaternion(0, x, box, flip, KERNEL)
    np.testing.assert_allclose(quat_to_rot(a), quat_to_rot(b), atol=1e-12)
    sign = np.sign(np.dot(a, q))
    np.testing.assert_allclose(sign * a, q, atol=1e-10)


def test_route_equivalence_when_matrix_succeeds():
    """Where det Jbar > 0 the eigenvector route lifts to the polar route."""
    rng = make_rng(32, 3)
    x, box = cluster(rng, n=20)
    rots = sample_vonmises_rot(sample_uniform_rot(rng), 0.4, rng, size=20)
    mat = target_rotation(0, x, box, rots, KERNEL)
    quat = target_quaternion(0, x, box, rot_to_quat(rots), KERNEL)
    np.testing.assert_allclose(quat_to_rot(quat), mat, atol=1e-8)


def test_batched_targets_match_single():
    rng = make_rng(32, 4)
    n = 64
    box = np.full(3, 5.0)
    x = rng.uniform(0, 5.0, (n, 3))
    rots = sample_vonmises_rot(sample_uniform_rot(rng), 0.5, rng, size=n)
    grid = build_grid(x, box, R)
    batched, ok = target_rotations_all(grid, KERNEL, rots)
    for i in range(n):
        try:
            single = target_rotation(i, x, box, rots, KERNEL)
        except DegenerateAverage:
            assert not ok[i]
            continue
        assert ok[i]
        np.testing.assert_allclose(batched[i], single, atol=1e-10)


def test_batched_quaternion_targets_match_single():
    rng = make_rng(32, 5)
    n = 48
    box = np.full(3, 5.0)
    x = rng.uniform(0, 5.0, (n, 3))
    quats = rot_to_quat(sample_vonmises_rot(sample_uniform_rot(rng), 0.5, rng, size=n))
    grid = build_grid(x, box, R)
    batched, ok = target_quaternions_all(grid, KERNEL, quats)
    for i in range(n):
        try:
            single = target_quaternion(i, x, box, quats, KERNEL)
        except DegenerateAverage:
            assert not ok[i]
            continue
        assert ok[i]
        sign = np.sign(np.dot(batched[i], single))
        np.testing.assert_allclose(sign * batched[i], single, atol=1e-10)


def test_average_rotation_matrix_direct():
    """Kernel-weighted sums agree with a dense hand evaluation."""
    rng = make_rng(32, 6)
    n = 40
    box = np.full(3, 5.0)
    x = rng.uniform(0, 5.0, (n, 3))
    rots = sample_uniform_rot(rng, size=n)
    grid = build_grid(x, box, R)
    got = average_rotation_matrix(grid, KERNEL, rots)
    sep = minimum_image(x[:, None, :] - x[None, :, :], box)
    w = KERNEL.weight(np.linalg.norm(sep, axis=-1)) / n
    expected = np.einsum("nm,mab->nab", w, rots)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("shape", ["indicator", "smooth-bump"])
def test_neighbor_list_sums_match_fresh_matrix(shape):
    """A list searched with a skin, moved to new positions, sums bit for bit
    as a weight matrix built from a fresh search at the new positions."""
    from scipy.sparse import csr_matrix

    from sohb.alignment import neighbor_list, wrap_positions

    kernel = KernelConfig(radius=R, shape=shape)
    rng = make_rng(32, 7)
    n, box = 300, np.full(3, 5.0)
    x0 = rng.uniform(0, 5.0, (n, 3))
    x1 = wrap_positions(x0 + 0.05 * rng.standard_normal((n, 3)) / np.sqrt(3.0), box)
    rots = sample_uniform_rot(rng, size=n)
    moved = neighbor_list(build_grid(x0, box, R), 1.5 * R).moved(x1)
    i, j, dist = neighbor_pairs(build_grid(x1, box, R), R)
    fresh = csr_matrix((kernel.weight(dist) / n, (i, j)), shape=(n, n))
    want = (fresh @ rots.reshape(n, -1)).reshape(rots.shape)
    np.testing.assert_array_equal(average_rotation_matrix(moved, kernel, rots), want)
    np.testing.assert_array_equal(average_rotation_matrix(build_grid(x1, box, R), kernel, rots), want)
