"""Denoising quality metrics.

- msae: mean squared angular error (radians^2) between corresponding
  face normals; demands identical connectivity.
- ev: mean squared distance from result vertices to the truth surface,
  normalized by the squared truth bounding-box diagonal. Distances are
  exact point-to-triangle distances over the triangles that cell grids,
  one per triangle size tier, gather near each point; a brute-force scan
  with the same arithmetic is the reference it is tested against. The
  gathering is a branch and bound: cells nearest the point come first,
  and a triangle whose bounding box lies, less a rounding allowance, no
  nearer than the point's best distance so far is not measured. Such a
  triangle cannot hold a smaller distance, so the minimum keeps its bits.
"""

from __future__ import annotations

import numpy as np

from .core import TriMesh, cell_block, dot_terms, face_geometry, stencil_pairs, sum_terms
from .errors import ConnectivityMismatchError, EmptyMeshError, NonFiniteVertexError

# (point, triangle) pairs per distance evaluation in sq_distances: caps
# the working memory of its per-pair temporaries.
_PAIR_BATCH = 1 << 12


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
    dots = np.clip(dot_terms(n_r.T, n_t.T), -1.0, 1.0)
    angles = np.arccos(dots)
    return float(np.mean(angles * angles))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def point_triangles_sq_distance(point: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Exact squared distance from *point* to each triangle, (K,).

    Vectorized closest-point-on-triangle (Ericson, "Real-Time Collision
    Detection", section 5.1.5). Triangles are (K, 3, 3); *point* is one
    point (3,) or one point per triangle (K, 3). Degenerate triangles are
    the caller's problem. Float overflow is silent: a point whose squared
    distance passes float range gets inf. A pair whose dot products left
    float range (|p − a|·|b − a| above about 1e308) comes out NaN and is
    measured again on its four points scaled by the power of two of their
    largest coordinate, its d² scaled back.
    """
    p = np.asarray(point, dtype=np.float64)
    d2 = _sq_distance(p, triangles)
    lost = np.flatnonzero(np.isnan(d2))
    if len(lost):
        p = np.broadcast_to(p, (len(triangles), 3))[lost]
        tri = triangles[lost]
        power = np.frexp(np.maximum(np.abs(p).max(axis=1), np.abs(tri).max(axis=(1, 2))))[1]
        d2[lost] = np.ldexp(
            _sq_distance(np.ldexp(p, -power[:, None]), np.ldexp(tri, -power[:, None, None])),
            2 * power,
        )
    return d2


def _sq_distance(p: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """The arithmetic of :func:`point_triangles_sq_distance`, on a float64
    point (3,) or points (K, 3), with no overflow fallback."""
    # Axis-major, (3 axes, K) per corner, so every operation, the dots
    # included, runs over whole contiguous rows.
    a, b, c = np.ascontiguousarray(triangles.transpose(1, 2, 0))
    p = np.ascontiguousarray(p.T) if p.ndim == 2 else p[:, None]

    ab = b - a
    ac = c - a
    ap = p - a
    d1 = dot_terms(ab, ap)
    d2 = dot_terms(ac, ap)

    bp = p - b
    d3 = dot_terms(ab, bp)
    d4 = dot_terms(ac, bp)

    cp = p - c
    d5 = dot_terms(ab, cp)
    d6 = dot_terms(ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    closest = np.empty_like(a)
    done = np.zeros(len(vc), dtype=bool)

    def settle(mask, points):
        fresh = mask & ~done
        np.copyto(closest, points, where=fresh)
        done[fresh] = True

    settle((d1 <= 0) & (d2 <= 0), a)  # vertex region A
    settle((d3 >= 0) & (d4 <= d3), b)  # vertex region B
    settle((d6 >= 0) & (d5 <= d6), c)  # vertex region C

    v_ab = d1 / (d1 - d3)
    settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v_ab * ab)
    v_ac = d2 / (d2 - d6)
    settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + v_ac * ac)
    v_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
    settle(
        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
        b + v_bc * (c - b),
    )
    denom = va + vb + vc
    inner = a + (vb / denom) * ab + (vc / denom) * ac
    settle(np.ones(len(vc), dtype=bool), inner)  # face interior

    delta = closest - p
    return dot_terms(delta, delta)


def brute_force_sq_distances(points: np.ndarray, truth: TriMesh) -> np.ndarray:
    """Exact squared surface distance per point by scanning every triangle."""
    triangles = truth.vertices[truth.faces]
    out = np.empty(len(points), dtype=np.float64)
    for i, p in enumerate(points):
        out[i] = point_triangles_sq_distance(p, triangles).min()
    return out


def sq_distances(points, truth: TriMesh) -> np.ndarray:
    """Exact squared surface distance per point, gathered on cell grids.

    Triangles are split into tiers by the power of two of their largest
    bounding-box extent; a tier's cell h is its largest extent, so one big
    triangle never coarsens the grid of the small ones. A triangle sits in
    the cell of its box's low corner. Every point first gathers, in every
    tier, each triangle whose box lies within h of it on each axis. Per
    tier, a point whose best d² is below h² is settled (the tier's other
    triangles are farther than h); the rest gather within 2h (exact below
    (2h)²), then scan the tier's triangles.

    A gathering is a branch and bound. It visits the cells nearest the
    point's own first, column by column, so that best d² falls early and
    prunes more of the later cells' pairs. It evaluates a gathered pair
    only if the squared distance b from the point to the triangle's box,
    less an allowance for rounding, is below the point's best d² so far.
    A skipped pair's computed d² is at or above that best, so the minimum
    is the float that evaluating every pair gives.

    The allowance is 2⁻²⁰·b + 2⁻⁶⁹·M², M the largest coordinate magnitude
    of the points and the truth. Exactly, b is at most the triangle's d²,
    d. Computed, b is within 2⁻⁵⁰·b of exact (five roundings of
    u = 2⁻⁵³), and d² is, within 2⁻⁴⁸ relative, the squared distance to a
    closest point that lies within E = 2⁻⁴⁵·M of the triangle (a few
    roundings of coordinates below M), so it is at least
    (√d − E)²·(1 − 2⁻⁴⁸). As 2√d·E ≤ 2⁻²¹·d + 2²¹·E², that is at least
    b − allowance, with room for the rounding of the test itself.

    Raises NonFiniteVertexError if a point has a NaN or infinite
    coordinate, and ZeroAreaFaceError if a truth triangle has zero area
    (a tier of zero-extent triangles would have no cell size). A point
    may lie any finite distance from the truth; one so far that its d²
    passes float range gets inf. The grid widens a tier's cell to at
    least 2⁻²⁰ of the tier's box-corner span and 2⁻⁵⁰ of their largest
    magnitude (see :func:`~meshseg.core.stencil_pairs`), as for a tiny
    triangle far from the origin or from its tier's others. A wider cell
    only adds candidates, so the settle tests at h still hold.
    """
    points = np.asarray(points, dtype=np.float64)
    if not np.isfinite(points).all():
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))[:8].tolist()
        raise NonFiniteVertexError(f"points with non-finite coordinates: {bad}")
    face_geometry(truth)  # raises ZeroAreaFaceError
    triangles = truth.vertices[truth.faces]
    lo = triangles.min(axis=1)
    hi = triangles.max(axis=1)
    extent = (hi - lo).max(axis=1)
    power = np.frexp(extent)[1]
    tiers = [np.flatnonzero(power == p) for p in np.unique(power)]
    best = np.full(len(points), np.inf)
    scale = float(max(np.abs(points).max(initial=0.0), np.abs(truth.vertices).max(initial=0.0)))
    slack = 2.0**-69 * scale * scale
    # Axis-major, (3 axes, N), for the box bound's whole-row arithmetic.
    points_t, lo_t, hi_t = (np.ascontiguousarray(a.T) for a in (points, lo, hi))

    def near(ids, tri):
        # Whether each pair's box bound, less the allowance, is below best.
        p = np.take(points_t, ids, axis=1)
        gap = np.take(lo_t, tri, axis=1) - p
        np.maximum(gap, p - np.take(hi_t, tri, axis=1), out=gap)
        np.maximum(gap, 0.0, out=gap)
        with np.errstate(over="ignore", invalid="ignore"):  # a far point's bound is inf
            bound = dot_terms(gap, gap, prod=gap)
            return bound * (1.0 - 2.0**-20) - slack < best[ids]

    def gather(todo, faces, reach):
        # A box spans at most h per axis, so the low corner of one within
        # reach * h of a point lies reach + 1 cells below to reach above.
        h = extent[faces].max()
        # Nearest first, a whole column of cells at a time, as stencil_pairs
        # shares one lookup among a column's cells: steps from the point's
        # own cell outward, then the columns stably by their (dx, dy).
        block = cell_block(sorted(range(-reach - 1, reach + 1), key=lambda s: abs(s + 0.5)))
        block = block[np.argsort(sum_terms(np.abs(block.T[:2] + 0.5)), kind="stable")]
        for q, t in stencil_pairs(points[todo], lo[faces], h, block):
            for start in range(0, len(q), _PAIR_BATCH):
                chunk = slice(start, start + _PAIR_BATCH)
                ids, tri = todo[q[chunk]], faces[t[chunk]]
                keep = near(ids, tri)
                ids, tri = ids[keep], tri[keep]
                if len(ids):
                    d2 = point_triangles_sq_distance(points[ids], triangles[tri])
                    np.minimum.at(best, ids, d2)
        return todo[best[todo] >= (reach * h) ** 2]

    everyone = np.arange(len(points))
    unsettled = [gather(everyone, faces, 1) for faces in tiers]
    for faces, todo in zip(tiers, unsettled):
        todo = gather(todo[best[todo] >= extent[faces].max() ** 2], faces, 2)
        part = TriMesh(truth.vertices, truth.faces[faces])
        best[todo] = np.minimum(best[todo], brute_force_sq_distances(points[todo], part))
    return best


def ev(result: TriMesh, truth: TriMesh) -> float:
    """Mean squared vertex-to-truth-surface distance over the squared
    truth bounding-box diagonal, with exact distances from
    :func:`sq_distances`."""
    if truth.n_faces == 0 or truth.n_vertices == 0:
        raise EmptyMeshError("ev needs a truth mesh with faces")
    if result.n_vertices == 0:
        raise EmptyMeshError("ev needs result vertices")
    distances = sq_distances(result.vertices, truth)
    extent = truth.vertices.max(axis=0) - truth.vertices.min(axis=0)
    diag2 = float(extent @ extent)
    if diag2 == 0.0:
        raise ValueError("truth bounding box is a point; ev is undefined")
    return float(distances.mean() / diag2)

