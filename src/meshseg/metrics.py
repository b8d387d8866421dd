"""Denoising quality metrics.

- msae: mean squared angular error (radians^2) between corresponding
  face normals; demands identical connectivity.
- ev: mean squared distance from result vertices to the truth surface,
  normalized by the squared truth bounding-box diagonal. Distances are
  exact point-to-triangle distances found through an AABB tree; a
  brute-force twin of the same arithmetic is the reference it is tested
  against.
"""

from __future__ import annotations

import heapq

import numpy as np

from .core import TriMesh, face_geometry
from .errors import ConnectivityMismatchError, EmptyMeshError


def _check_same_connectivity(result: TriMesh, truth: TriMesh) -> None:
    if result.n_vertices != truth.n_vertices or not np.array_equal(
        result.faces, truth.faces
    ):
        raise ConnectivityMismatchError(
            f"meshes do not share connectivity: result has "
            f"{result.n_vertices} vertices / {result.n_faces} faces, truth "
            f"{truth.n_vertices} / {truth.n_faces} (faces must be identical)"
        )


def msae(result: TriMesh, truth: TriMesh) -> float:
    """Mean squared angle (radians^2) between corresponding face normals."""
    _check_same_connectivity(result, truth)
    if truth.n_faces == 0:
        raise EmptyMeshError("msae needs at least one face")
    n_r = face_geometry(result).normals
    n_t = face_geometry(truth).normals
    dots = np.clip(np.einsum("ij,ij->i", n_r, n_t), -1.0, 1.0)
    angles = np.arccos(dots)
    return float(np.mean(angles * angles))


def point_triangles_sq_distance(point: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Exact squared distance from one point to each triangle, (K,).

    Vectorized closest-point-on-triangle (Ericson, "Real-Time Collision
    Detection", section 5.1.5). Triangles are (K, 3, 3); degenerate
    triangles are the caller's problem.
    """
    a = triangles[:, 0]
    b = triangles[:, 1]
    c = triangles[:, 2]
    p = np.asarray(point, dtype=np.float64)

    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ki,ki->k", ab, ap)
    d2 = np.einsum("ki,ki->k", ac, ap)

    bp = p - b
    d3 = np.einsum("ki,ki->k", ab, bp)
    d4 = np.einsum("ki,ki->k", ac, bp)

    cp = p - c
    d5 = np.einsum("ki,ki->k", ab, cp)
    d6 = np.einsum("ki,ki->k", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    closest = np.empty_like(a)
    done = np.zeros(len(a), dtype=bool)

    def settle(mask, points):
        fresh = mask & ~done
        closest[fresh] = points[fresh]
        done[fresh] = True

    settle((d1 <= 0) & (d2 <= 0), a)  # vertex region A
    settle((d3 >= 0) & (d4 <= d3), b)  # vertex region B
    settle((d6 >= 0) & (d5 <= d6), c)  # vertex region C

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / (d1 - d3)
        settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v_ab[:, None] * ab)
        v_ac = d2 / (d2 - d6)
        settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + v_ac[:, None] * ac)
        v_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        settle(
            (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
            b + v_bc[:, None] * (c - b),
        )
        denom = va + vb + vc
        inner = a + (vb / denom)[:, None] * ab + (vc / denom)[:, None] * ac
    settle(np.ones(len(a), dtype=bool), inner)  # face interior

    delta = closest - p
    return np.einsum("ki,ki->k", delta, delta)


def brute_force_sq_distances(points: np.ndarray, truth: TriMesh) -> np.ndarray:
    """Exact squared surface distance per point by scanning every triangle."""
    triangles = truth.vertices[truth.faces]
    out = np.empty(len(points), dtype=np.float64)
    for i, p in enumerate(points):
        out[i] = point_triangles_sq_distance(p, triangles).min()
    return out


class TriangleBVH:
    """Static AABB tree over a mesh's triangles (median split on the
    longest centroid axis, stable ordering) answering exact squared
    point-to-surface distances via best-first traversal."""

    __slots__ = ("_triangles", "_lo", "_hi", "_left", "_right", "_leaf_tris")

    def __init__(self, mesh: TriMesh, leaf_size: int = 4):
        if mesh.n_faces == 0:
            raise EmptyMeshError("cannot build a BVH over zero faces")
        self._triangles = mesh.vertices[mesh.faces]
        tri_lo = self._triangles.min(axis=1)
        tri_hi = self._triangles.max(axis=1)
        centroids = self._triangles.mean(axis=1)

        lo, hi, left, right, leaf_tris = [], [], [], [], []

        def build(ids: np.ndarray) -> int:
            node = len(lo)
            lo.append(tri_lo[ids].min(axis=0))
            hi.append(tri_hi[ids].max(axis=0))
            left.append(-1)
            right.append(-1)
            leaf_tris.append(None)
            if len(ids) <= leaf_size:
                leaf_tris[node] = ids
                return node
            cent = centroids[ids]
            axis = int(np.argmax(cent.max(axis=0) - cent.min(axis=0)))
            order = np.argsort(cent[:, axis], kind="stable")
            half = len(ids) // 2
            left[node] = build(ids[order[:half]])
            right[node] = build(ids[order[half:]])
            return node

        # Median split keeps the depth logarithmic, so plain recursion
        # is safe even for meshes far larger than this package targets.
        build(np.arange(mesh.n_faces))
        self._lo = np.asarray(lo)
        self._hi = np.asarray(hi)
        self._left = left
        self._right = right
        self._leaf_tris = leaf_tris

    def _box_sq_distance(self, node: int, point: np.ndarray) -> float:
        gap = np.maximum(self._lo[node] - point, 0.0)
        gap = np.maximum(gap, point - self._hi[node])
        return float(gap @ gap)

    def sq_distance(self, point) -> float:
        """Exact squared distance from *point* to the surface."""
        point = np.asarray(point, dtype=np.float64)
        best = np.inf
        heap = [(self._box_sq_distance(0, point), 0)]
        while heap:
            bound, node = heapq.heappop(heap)
            if bound >= best:
                break  # every remaining node is at least this far
            tris = self._leaf_tris[node]
            if tris is not None:
                d = point_triangles_sq_distance(point, self._triangles[tris]).min()
                if d < best:
                    best = float(d)
                continue
            for child in (self._left[node], self._right[node]):
                child_bound = self._box_sq_distance(child, point)
                if child_bound < best:
                    heapq.heappush(heap, (child_bound, child))
        return best

    def sq_distances(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return np.array([self.sq_distance(p) for p in points], dtype=np.float64)


def ev(result: TriMesh, truth: TriMesh) -> float:
    """Mean squared vertex-to-truth-surface distance over the squared
    truth bounding-box diagonal, with exact distances from a
    :class:`TriangleBVH` over *truth*."""
    if truth.n_faces == 0 or truth.n_vertices == 0:
        raise EmptyMeshError("ev needs a truth mesh with faces")
    if result.n_vertices == 0:
        raise EmptyMeshError("ev needs result vertices")
    face_geometry(truth)  # rejects zero-area truth triangles early
    extent = truth.vertices.max(axis=0) - truth.vertices.min(axis=0)
    diag2 = float(extent @ extent)
    if diag2 == 0.0:
        raise ValueError("truth bounding box is a point; ev is undefined")
    d2 = TriangleBVH(truth).sq_distances(result.vertices)
    return float(d2.mean() / diag2)

