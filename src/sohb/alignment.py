"""Neighbor interaction: observation kernel, periodic neighbor tree, target orientations.

A particle's target orientation is computed from the kernel-weighted average
of its neighbors' orientations (itself included):

* matrix route:  Jbar_n = (1/N) sum_m K(X_m - X_n) A_m, target = polar rotation;
* quaternion route: Qbar_n = (1/N) sum_m K(X_m - X_n) (q_m (x) q_m - I4/4),
  target = leading unit eigenvector.

Both routes agree through the double cover whenever neither is degenerate.
Neighbors come from a periodic ``scipy.spatial.cKDTree``, so a search costs
O(N log N) at fixed density; distances are always minimum-image in the
periodic box. A :class:`NeighborList` keeps the pairs within a search radius
and the sparse pattern of their weight matrix: searched with a skin beyond
the kernel radius, it serves several steps of moving bodies (a Verlet list),
each of which only recomputes the candidates' distances and weights.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import BoxTooSmall, DomainError
from .rotations import (
    max_eigvec,
    max_eigvec_or_mask,
    polar_rotation,
    polar_rotation_or_mask,
    qtensor,
)


@dataclass(frozen=True)
class KernelConfig:
    """Radially symmetric observation kernel, normalized to unit mass in R^3.

    Attributes:
        radius: interaction radius R > 0; influence is exactly zero beyond it.
        shape: "indicator" (constant inside the ball) or "smooth-bump"
            (C-infinity bump exp(-1 / (1 - (r/R)^2)) inside the ball).

    Raises:
        DomainError: if the normalisation 1 / (kernel mass) is not a
            positive float, for a radius near the ends of the float range.
    """

    radius: float
    shape: str = "indicator"
    _norm: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError(f"kernel radius must be positive, got {self.radius}")
        if self.shape not in ("indicator", "smooth-bump"):
            raise ValueError(f"unknown kernel shape: {self.shape!r}")
        with np.errstate(over="ignore", divide="ignore"):
            r3 = np.float64(self.radius) ** 3
            if self.shape == "indicator":
                norm = 3.0 / (4.0 * np.pi * r3)
            else:
                # Normalize numerically: trapezoid rule for the integral of
                # the bump over the ball (the integrand vanishes at s = 1).
                s, h = np.linspace(0.0, 1.0, 4097)[:-1], 1.0 / 4096
                integrand = np.exp(-1.0 / (1.0 - s * s)) * s * s
                integral = h * (integrand.sum() - 0.5 * integrand[0])
                norm = 1.0 / (4.0 * np.pi * r3 * integral)
        if not 0.0 < norm < np.inf:
            raise DomainError(
                f"radius {self.radius!r}: the kernel normalisation {norm!r} is not a positive float"
            )
        object.__setattr__(self, "_norm", float(norm))

    def weight(self, r):
        """Kernel value at distance(s) ``r`` (zero at and beyond the radius)."""
        r = np.asarray(r, dtype=np.float64)
        inside = r < self.radius
        if self.shape == "indicator":
            return np.where(inside, self._norm, 0.0)
        s2 = np.square(np.where(inside, r / self.radius, 0.0))
        with np.errstate(divide="ignore"):
            prof = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - s2, 1.0)), 0.0)
        return self._norm * prof


@dataclass(frozen=True)
class NeighborTree:
    """Periodic k-d tree over wrapped particle positions.

    Attributes:
        box: periodic box edge lengths, shape (3,).
        positions: wrapped particle positions the tree was built from.
        tree: ``cKDTree`` on ``positions`` with ``boxsize=box``.
    """

    box: np.ndarray
    positions: np.ndarray
    tree: cKDTree


def wrap_positions(x, box):
    """Map positions into [0, box) per axis, for every finite input.

    ``np.mod`` rounds e.g. ``-1e-17 mod 10`` up to 10; the clip keeps the
    result strictly below ``box``.
    """
    x = np.asarray(x, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    w = x - box * np.floor(x / box)
    return np.clip(w, 0.0, np.nextafter(box, 0.0))


def minimum_image(d, box):
    """Shift separation vectors to their nearest periodic image."""
    return d - box * np.rint(d / box)


def build_grid(positions, box, radius):
    """Build the periodic neighbor tree for queries of the given radius.

    Args:
        positions: particle positions, shape (N, 3) (wrapped internally).
        box: periodic box edge lengths (scalar or length-3).
        radius: interaction radius R.

    Raises:
        BoxTooSmall: if any box edge is shorter than 2R (a particle could
            then see a neighbor through two periodic images).
        DomainError: if the squared length of the half-box diagonal, the
            largest squared minimum-image distance, overflows.
    """
    box = np.broadcast_to(np.asarray(box, dtype=np.float64), (3,)).copy()
    if np.any(box < 2.0 * radius):
        raise BoxTooSmall(
            f"box {box.tolist()} has an edge below 2R = {2.0 * radius}"
        )
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(np.square(0.5 * box))):
            raise DomainError(f"box {box.tolist()}: squared distances in it overflow")
    x = wrap_positions(positions, box)
    return NeighborTree(box=box, positions=x, tree=cKDTree(x, boxsize=box))


def _pair_distances(x, a, b, box):
    """Minimum-image distances |x[a] - x[b]| of the pairs (a, b)."""
    sep = minimum_image(np.take(x, a, axis=0) - np.take(x, b, axis=0), box)
    return np.sqrt(np.einsum("ij,ij->i", sep, sep))


def neighbor_pairs(grid, radius):
    """All ordered pairs (i, j) within ``radius``, including the self pair (i, i).

    Returns:
        (i, j, dist): index arrays and minimum-image distances, one entry
        per ordered pair with dist <= radius: first the P unordered pairs
        (i < j), then the same P pairs reversed, then the N self pairs.
    """
    x = grid.positions
    a, b = grid.tree.query_pairs(radius, output_type="ndarray").T
    dist = _pair_distances(x, a, b, grid.box)
    diag = np.arange(x.shape[0])
    return (
        np.concatenate([a, b, diag]),
        np.concatenate([b, a, diag]),
        np.concatenate([dist, dist, np.zeros(diag.shape)]),
    )


@dataclass(frozen=True)
class NeighborList:
    """Candidate pairs of a neighbor search and the sparse pattern of their weights.

    The weight matrix has one entry per ordered candidate pair and per self
    pair, in CSR order (by row, then by column), so a product with it sums
    each row's terms in the order of a freshly built matrix. Entry k holds
    the weight at distance ``dist[slot[k]]``, where slot P (one past the
    last pair) stands for the self pairs at distance 0.

    Attributes:
        box: periodic box edge lengths, shape (3,).
        a, b: the P unordered candidate pairs, shape (P,) each.
        dist: minimum-image distance of each candidate pair.
        indptr, indices: CSR pattern of the (N, N) weight matrix.
        slot: distance slot of each CSR entry.
    """

    box: np.ndarray
    a: np.ndarray
    b: np.ndarray
    dist: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray

    def moved(self, positions):
        """The same candidates, with their distances at new wrapped positions."""
        return replace(self, dist=_pair_distances(positions, self.a, self.b, self.box))


def neighbor_list(grid, radius):
    """Every pair within ``radius`` of the tree's positions, as a :class:`NeighborList`.

    Given the kernel radius this is a full neighbor search. Given the kernel
    radius plus a skin s, the list still holds every pair within the kernel
    radius after each body has moved by up to s/2.
    """
    i, j, dist = neighbor_pairs(grid, radius)
    n = grid.positions.shape[0]
    p = (i.shape[0] - n) // 2
    slots = np.concatenate([np.arange(p), np.arange(p), np.full(n, p)])
    # No entry repeats, so the CSR conversion only sorts: its data is the slot map.
    pattern = csr_matrix((slots, (i, j)), shape=(n, n))
    return NeighborList(box=grid.box, a=i[:p], b=j[:p], dist=dist[:p],
                        indptr=pattern.indptr, indices=pattern.indices, slot=pattern.data)


def _weighted_sums(neighbors, kernel, values):
    """Kernel-weighted neighbor sums (1/N) sum_j K(d_ij) values[j] for all i.

    ``neighbors`` is a :class:`NeighborList` holding every pair within the
    kernel radius, or a :class:`NeighborTree` to search at that radius.
    """
    if isinstance(neighbors, NeighborTree):
        neighbors = neighbor_list(neighbors, kernel.radius)
    n = values.shape[0]
    w = kernel.weight(np.append(neighbors.dist, 0.0)) / n
    weights = csr_matrix((w[neighbors.slot], neighbors.indices, neighbors.indptr), shape=(n, n))
    return (weights @ values.reshape(n, -1)).reshape(values.shape)


def average_rotation_matrix(neighbors, kernel, rotations):
    """Jbar for every particle: kernel-weighted mean orientation matrices.

    ``neighbors`` is a :class:`NeighborTree` or :class:`NeighborList`, as
    for all the batched averages and targets below.
    """
    return _weighted_sums(neighbors, kernel, np.asarray(rotations, dtype=np.float64))


def average_qtensor(neighbors, kernel, quats):
    """Qbar for every particle: kernel-weighted mean Q-tensors."""
    return _weighted_sums(neighbors, kernel, qtensor(np.asarray(quats, dtype=np.float64)))


def _kernel_average(n, positions, box, values, kernel, n_total):
    """(1/n_total) sum_m K(|X_m - X_n|) values[m] over the given rows."""
    x = np.asarray(positions, dtype=np.float64)
    sep = minimum_image(x - x[n], box)
    dist = np.linalg.norm(sep, axis=-1)
    w = kernel.weight(dist) / (x.shape[0] if n_total is None else n_total)
    return np.einsum("m,mab->ab", w, np.asarray(values, dtype=np.float64))


def target_rotation(n, positions, box, rotations, kernel, n_total=None):
    """Target orientation of particle ``n`` via the polar-rotation route.

    Averages over the given rows, with no neighbor tree involved. Given every
    particle, this is the direct O(N) reference for the batched variant.
    ``run_jump`` gives it only candidate rows, a superset of row ``n``'s
    neighbors (positions need not be wrapped), and the whole particle count
    as ``n_total``, the N of the 1/N in Jbar.

    Raises:
        DegenerateAverage: when det(Jbar_n) <= DELTA_DET * (|Jbar_n|_F^2 / 3)^(3/2);
            the caller decides the fallback policy.
    """
    return polar_rotation(_kernel_average(n, positions, box, rotations, kernel, n_total))


def target_quaternion(n, positions, box, quats, kernel, n_total=None):
    """Target orientation of particle ``n`` via the leading-eigenvector route.

    Same rows and ``n_total`` contract as :func:`target_rotation`.

    Raises:
        DegenerateAverage: when the top eigenvalue gap of Qbar_n is
            <= DELTA_GAP.
    """
    qbar = _kernel_average(n, positions, box, qtensor(quats), kernel, n_total)
    return max_eigvec(qbar)


def target_rotations_all(neighbors, kernel, rotations):
    """Targets for every particle at once (matrix route).

    Returns:
        (targets, ok): rotation array (N, 3, 3) and a mask; where ``ok`` is
        False the average was degenerate and ``targets`` holds a placeholder
        the caller must replace per its fallback policy.
    """
    jbar = average_rotation_matrix(neighbors, kernel, rotations)
    return polar_rotation_or_mask(jbar)


def target_quaternions_all(neighbors, kernel, quats):
    """Targets for every particle at once (quaternion route); see above."""
    qbar = average_qtensor(neighbors, kernel, quats)
    return max_eigvec_or_mask(qbar)
