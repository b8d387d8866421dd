"""Two-step denoising: iterative face-normal filtering, then vertex fitting.

Four normal-filter backends share one harness:

- ``unf``: edge-ring normals whose dot with the center normal exceeds a
  threshold T, each weighted by area·(dot − T)²; the face itself always
  takes part with weight area·(1 − T)².
- ``bnf``: bilateral weighting of edge-ring normals, spatial kernel on
  centroid distance (scale auto-set to the mean adjacent-centroid
  distance), range kernel on normal difference.
- ``gnf``: joint bilateral over a geometric neighborhood, steered by
  guidance normals chosen per face as the most consistent small patch.
  The neighborhood is symmetric, so each unordered face pair is tested,
  weighed and compared once and mirrored into both faces' rows.
- ``l1``: weighted geometric median (Weiszfeld) of edge-ring normals
  within an angular gate. The Weiszfeld loop runs component-major over
  the faces with gated weight only, each sum spelled out in the order
  of numpy's row-major ``einsum`` reductions.

Passing cluster labels restricts every neighborhood (and the gnf
guidance patches) to faces of the same cluster, which is what keeps
filtering from bleeding across feature lines; a face whose constrained
neighborhood is empty keeps its own normal. Neighbor sums always run in
ascending face id, so results are reproducible bit-for-bit.

Loops that run once per sweep gather rows with ``np.take(a, idx,
axis=0)`` rather than ``a[idx]``. Both give the same array, but ``take``
copies whole rows, while fancy indexing of (N, 3) float rows goes through
numpy's general indexing path and takes 3–4 times as long for the same
bytes.

The vertex step moves each vertex toward the planes of its incident
faces (Jacobi style, positions double-buffered, centroids refreshed each
iteration). Denoising always restarts from the original noisy positions;
any prefiltering applies to the segmentation stage only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Union

import numpy as np
import scipy.sparse as sp

from .core import (
    FaceGeometry, TopologyCache, TriMesh, build_topology, face_geometry, stencil_pairs,
)
from .errors import LabelLengthMismatchError
from .prefilter import PrefilterParams
from .segment import ClusterLabels, SegmentParams, segment

WEISZFELD_MAX_ITER = 20
WEISZFELD_MOVE_TOL = 1e-8
WEISZFELD_DIST_FLOOR = 1e-12


def _positive(name, value):
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _non_negative_int(name, value):
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class UnfParams:
    """(t, n_iter, v_iter): dot-threshold normal filter, weight area·(dot − t)²."""

    t: float
    n_iter: int
    v_iter: int
    method = "unf"

    def __post_init__(self):
        if not -1.0 <= self.t <= 1.0:
            raise ValueError(f"t must be a dot product in [-1, 1], got {self.t}")
        _non_negative_int("n_iter", self.n_iter)
        _non_negative_int("v_iter", self.v_iter)


@dataclass(frozen=True)
class BnfParams:
    """(sigma_r, n_iter, v_iter): bilateral normal filter."""

    sigma_r: float
    n_iter: int
    v_iter: int
    method = "bnf"

    def __post_init__(self):
        _positive("sigma_r", self.sigma_r)
        _non_negative_int("n_iter", self.n_iter)
        _non_negative_int("v_iter", self.v_iter)


@dataclass(frozen=True)
class GnfParams:
    """(r, sigma_s_mult, sigma_r, n_iter, v_iter): guided normal filter.

    r scales the geometric-neighborhood radius in mean edge lengths;
    sigma_s_mult scales the spatial kernel relative to the mean
    adjacent-centroid distance.
    """

    r: float
    sigma_s_mult: float
    sigma_r: float
    n_iter: int
    v_iter: int
    method = "gnf"

    def __post_init__(self):
        _positive("r", self.r)
        _positive("sigma_s_mult", self.sigma_s_mult)
        _positive("sigma_r", self.sigma_r)
        _non_negative_int("n_iter", self.n_iter)
        _non_negative_int("v_iter", self.v_iter)


@dataclass(frozen=True)
class L1Params:
    """(angle_max_deg, n_iter, v_iter): geometric-median normal filter."""

    angle_max_deg: float
    n_iter: int
    v_iter: int
    method = "l1"

    def __post_init__(self):
        if not 0 < self.angle_max_deg <= 180:
            raise ValueError(
                f"angle_max_deg must be in (0, 180], got {self.angle_max_deg}"
            )
        _non_negative_int("n_iter", self.n_iter)
        _non_negative_int("v_iter", self.v_iter)


DenoiseParams = Union[UnfParams, BnfParams, GnfParams, L1Params]

PARAM_TYPES = {"unf": UnfParams, "bnf": BnfParams, "gnf": GnfParams, "l1": L1Params}


def params_from_tuple(method: str, values) -> DenoiseParams:
    """Build a params object from the flat numeric tuple used by the CLI
    and bench configs (iteration counts must be whole numbers)."""
    if method not in PARAM_TYPES:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(PARAM_TYPES)}")
    values = list(values)
    arity = len(fields(PARAM_TYPES[method]))
    if len(values) != arity:
        raise ValueError(f"method {method!r} takes {arity} parameters, got {len(values)}")
    head = [float(v) for v in values[:-2]]
    tail = []
    for v in values[-2:]:
        f = float(v)
        if f != int(f):
            raise ValueError(f"iteration counts must be integers, got {v!r}")
        tail.append(int(f))
    return PARAM_TYPES[method](*head, *tail)


def _as_label_array(labels, n_faces: int):
    """None, ClusterLabels, or raw array -> validated int64 array or None."""
    if labels is None:
        return None
    if isinstance(labels, ClusterLabels):
        arr = labels.labels
    else:
        arr = np.asarray(labels, dtype=np.int64)
    if arr.shape != (n_faces,):
        raise LabelLengthMismatchError(
            f"expected {n_faces} labels, got shape {arr.shape}"
        )
    return arr


def _ring_tables(topo: TopologyCache, label_array):
    """(safe, valid): each face's edge ring in ascending face id with
    boundary slots last. Boundary slots read face 0 in *safe* and False
    in *valid*, which with labels is also False for other clusters."""
    ring = topo.face_adjacent.copy()
    sentinel = np.iinfo(np.int64).max
    ring[ring < 0] = sentinel
    ring.sort(axis=1)
    valid = ring != sentinel
    safe = np.where(valid, ring, 0)
    if label_array is not None:
        valid &= label_array[safe] == label_array[:, None]
    return safe, valid


def mean_adjacent_centroid_distance(
    topo: TopologyCache, geometry: FaceGeometry
) -> float:
    """Mean distance between centroids of edge-adjacent faces (the auto
    spatial scale); falls back to the mean edge length when the mesh has
    no interior edges."""
    interior = topo.interior_edge_ids
    if interior.size == 0:
        return topo.mean_edge_length if topo.mean_edge_length > 0 else 1.0
    c_a = geometry.centroids[topo.edge_faces[interior, 0]]
    c_b = geometry.centroids[topo.edge_faces[interior, 1]]
    return float(np.linalg.norm(c_a - c_b, axis=1).mean())


def _normalize_rows(vectors: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize, keeping *fallback* rows where the norm vanishes."""
    norms = np.linalg.norm(vectors, axis=1)
    ok = norms > 0.0
    return np.where(ok[:, None], vectors / np.where(ok, norms, 1.0)[:, None], fallback)


def filter_unf(
    mesh: TriMesh,
    topo: TopologyCache,
    geometry: FaceGeometry,
    params: UnfParams,
    labels=None,
) -> np.ndarray:
    """n_iter sweeps of the thresholded normal filter.

    Each edge-ring neighbor whose normal has dot > t with the center
    normal is weighted by its area·(dot − t)²; the face itself is
    weighted by its area·(1 − t)².
    """
    label_array = _as_label_array(labels, topo.n_faces)
    safe, valid = _ring_tables(topo, label_array)
    areas = geometry.areas
    nbr_areas = areas[safe]
    threshold = params.t
    # The face itself always participates (its self-dot is 1).
    self_w = areas * (1.0 - threshold) ** 2 if threshold < 1.0 else np.zeros_like(areas)
    normals = geometry.normals
    for _ in range(params.n_iter):
        nbr_normals = np.take(normals, safe, axis=0)  # (F, 3nbr, 3)
        dots = np.einsum("fi,fki->fk", normals, nbr_normals)
        weights = np.where(valid & (dots > threshold), nbr_areas * (dots - threshold) ** 2, 0.0)
        summed = np.einsum("fk,fki->fi", weights, nbr_normals) + self_w[:, None] * normals
        normals = _normalize_rows(summed, normals)
    return normals


def filter_bnf(
    mesh: TriMesh,
    topo: TopologyCache,
    geometry: FaceGeometry,
    params: BnfParams,
    labels=None,
) -> np.ndarray:
    """n_iter sweeps of the bilateral normal filter."""
    label_array = _as_label_array(labels, topo.n_faces)
    safe, valid = _ring_tables(topo, label_array)
    areas = geometry.areas
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    cdiff = geometry.centroids[:, None, :] - geometry.centroids[safe]
    spatial = np.exp(
        -np.einsum("fki,fki->fk", cdiff, cdiff) / (2.0 * sigma_c * sigma_c)
    )
    base_w = np.where(valid, areas[safe] * spatial, 0.0)
    two_sr2 = 2.0 * params.sigma_r * params.sigma_r
    normals = geometry.normals
    for _ in range(params.n_iter):
        nbr_normals = np.take(normals, safe, axis=0)
        ndiff = normals[:, None, :] - nbr_normals
        range_w = np.exp(-np.einsum("fki,fki->fk", ndiff, ndiff) / two_sr2)
        weights = base_w * range_w
        # Self term: both kernels evaluate to 1 at zero distance.
        summed = np.einsum("fk,fki->fi", weights, nbr_normals) + areas[:, None] * normals
        normals = _normalize_rows(summed, normals)
    return normals


def _slot_sum(weights, points, prod, out):
    """out[i] = (w0·p0[i] + w1·p1[i]) + w2·p2[i], einsum("fk,fki->fi")'s order."""
    np.multiply(weights, points, out=prod)
    np.add(prod[:, 0], prod[:, 1], out=out)
    return np.add(out, prod[:, 2], out=out)


def _weiszfeld(points: np.ndarray, weights: np.ndarray, wsum: np.ndarray) -> np.ndarray:
    """Weighted geometric median of each column's three ring normals.

    Component-major: *points* is (3 components, 3 ring slots, A), *weights*
    (3 slots, A) and *wsum* (A,) their positive sums. Starts from the
    weighted mean and takes Weiszfeld steps until no column moves by
    WEISZFELD_MOVE_TOL; the steps write into buffers allocated once here.
    Every sum keeps the order numpy's einsum/sum give the row-major form
    (squared distance (x² + z²) + y², slot sums (s0 + s1) + s2, squared
    move (x² + y²) + z²), so the median is bit-identical to it. Returns
    the (3, A) median.
    """
    prod = np.empty_like(points)
    inv = np.empty_like(weights)
    inv_sum = np.empty_like(wsum)
    move = np.empty_like(wsum)
    stuck = np.empty(wsum.shape, dtype=bool)
    median = _slot_sum(weights, points, prod, np.empty_like(points[:, 0]))
    np.divide(median, wsum, out=median)
    candidate = np.empty_like(median)
    for _step in range(WEISZFELD_MAX_ITER):
        np.subtract(median[:, None, :], points, out=prod)
        np.multiply(prod, prod, out=prod)
        np.add(prod[0], prod[2], out=inv)
        np.add(inv, prod[1], out=inv)
        np.sqrt(inv, out=inv)
        np.maximum(inv, WEISZFELD_DIST_FLOOR, out=inv)
        np.divide(weights, inv, out=inv)
        np.add(inv[0], inv[1], out=inv_sum)
        np.add(inv_sum, inv[2], out=inv_sum)
        _slot_sum(inv, points, prod, candidate)
        np.logical_not(np.greater(inv_sum, 0.0, out=stuck), out=stuck)
        np.copyto(inv_sum, 1.0, where=stuck)
        np.divide(candidate, inv_sum, out=candidate)
        np.copyto(candidate, median, where=stuck)
        np.subtract(candidate, median, out=median)  # the old median is spent
        np.multiply(median, median, out=median)
        np.add(median[0], median[1], out=move)
        np.add(move, median[2], out=move)
        median, candidate = candidate, median
        # sqrt is monotone, so the root of the largest square is the largest move.
        if np.sqrt(move.max(initial=0.0)) < WEISZFELD_MOVE_TOL:
            break
    return median


def filter_l1median(
    mesh: TriMesh,
    topo: TopologyCache,
    geometry: FaceGeometry,
    params: L1Params,
    labels=None,
) -> np.ndarray:
    """n_iter sweeps of the geometric-median normal filter.

    Candidates are edge-ring (cluster-constrained) neighbors whose
    normals lie within angle_max_deg of the center normal; the weighted
    geometric median uses spatial Gaussian weights and Weiszfeld
    iteration (cap 20, movement tolerance 1e-8, distances floored at
    1e-12 to step over candidate points). Only faces with gated weight
    take Weiszfeld steps (see :func:`_weiszfeld`); the others keep their
    normal.
    """
    label_array = _as_label_array(labels, topo.n_faces)
    safe, valid = _ring_tables(topo, label_array)
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    cdiff = geometry.centroids[:, None, :] - geometry.centroids[safe]
    spatial = np.exp(
        -np.einsum("fki,fki->fk", cdiff, cdiff) / (2.0 * sigma_c * sigma_c)
    )
    cos_gate = float(np.cos(np.radians(params.angle_max_deg)))
    normals = geometry.normals
    for _ in range(params.n_iter):
        nbr_normals = np.take(normals, safe, axis=0)
        dots = np.einsum("fi,fki->fk", normals, nbr_normals)
        weights = np.where(valid & (dots >= cos_gate), spatial, 0.0)
        wsum = weights.sum(axis=1)
        has = wsum > 0.0
        median = np.zeros_like(normals)
        median[has] = _weiszfeld(
            np.take(normals.T, safe[has].T, axis=1),
            np.ascontiguousarray(weights[has].T),
            wsum[has],
        ).T
        normals = np.where(has[:, None], _normalize_rows(median, normals), normals)
    return normals


def _radius_csr(centroids: np.ndarray, radius: float, label_array=None):
    """All faces within *radius* of each face's centroid (self excluded,
    same cluster only when labels given) as CSR (neighbor_ids, offsets);
    neighbor ids ascend within each face. Candidates come from the cell
    grid of :func:`stencil_pairs` with cell = *radius*, which yields each
    pair both ways: only ``q < s`` is tested, and each pair that passes
    is mirrored into both rows."""
    owners, ids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    r2 = radius * radius
    for q, s in stencil_pairs(centroids, centroids, centroids, radius, 1):
        below = q < s
        q, s = q[below], s[below]
        diff = centroids[q] - centroids[s]
        keep = np.einsum("pi,pi->p", diff, diff) <= r2
        if label_array is not None:
            keep &= label_array[q] == label_array[s]
        owners += [q[keep], s[keep]]
        ids += [s[keep], q[keep]]
    owner = np.concatenate(owners)
    nbr = np.concatenate(ids)
    order = np.argsort(owner * len(centroids) + nbr)
    counts = np.bincount(owner, minlength=len(centroids))
    return nbr[order], np.concatenate(([0], np.cumsum(counts)))


def _transpose_slots(owner: np.ndarray, nbr_ids: np.ndarray, n_faces: int):
    """(upper, mirror) of a symmetric CSR in (owner, nbr) order: the slots
    with owner < nbr, and the slot of each one's transpose (nbr, owner)."""
    upper = np.flatnonzero(owner < nbr_ids)
    return upper, np.argsort(nbr_ids * n_faces + owner)[upper]


def _guidance_candidates(owner: np.ndarray, nbr_ids: np.ndarray, offsets: np.ndarray):
    """(cand_ids, cand_owner): each face itself and every pair of a radius
    CSR, in (owner, id) order, each face inserted after its neighbors
    below it. Owner i's run starts at offsets[i] + i and is never empty."""
    n_faces = len(offsets) - 1
    below = np.bincount(owner[nbr_ids < owner], minlength=n_faces)
    cand_ids = np.insert(nbr_ids, offsets[:-1] + below, np.arange(n_faces))
    return cand_ids, np.repeat(np.arange(n_faces), np.diff(offsets) + 1)


def _rank_candidates(owner: np.ndarray, gap: np.ndarray, n_faces: int) -> np.ndarray:
    """The order of candidates laid out in (owner, id) order by (owner,
    gap, id), as ``np.lexsort((ids, gap, owner))`` gives it: a stable sort
    by gap keeps ties in (owner, id) order, and a stable sort by owner
    keeps each owner's run in (gap, id) order. The owner key is cast to
    the smallest unsigned type that holds *n_faces*, so below 65,536
    faces numpy sorts it by radix."""
    by_gap = np.argsort(gap, kind="stable")
    key = owner.astype(np.min_scalar_type(n_faces))[by_gap]
    return by_gap[np.argsort(key, kind="stable")]


def filter_gnf(
    mesh: TriMesh,
    topo: TopologyCache,
    geometry: FaceGeometry,
    params: GnfParams,
    labels=None,
) -> np.ndarray:
    """n_iter sweeps of the guided normal filter.

    Per sweep, every face j gets a candidate patch {j} + edge ring
    (cluster-constrained) whose consistency is the maximum pairwise
    normal difference; face i picks, among itself and its geometric
    neighbors, the patch with the smallest consistency (ties: smaller
    patch-centroid distance, then smaller face id) and adopts its
    area-weighted normal as guidance g_i. Only the consistencies change
    between sweeps, so the tie-break order is ranked once and a sweep
    takes the first minimum in it. The candidates are laid out in
    (owner, id) order, each face's own slot among its neighbors, so two
    stable sorts rank them (see :func:`_rank_candidates`). The new normal
    is then the joint bilateral blend of neighbor normals with spatial
    weights on centroid distance and range weights on guidance
    difference, summed in ascending neighbor id.

    The neighborhood is symmetric, so each unordered face pair is
    evaluated once and mirrored: the radius test in :func:`_radius_csr`,
    the range weight (computed for owner < neighbor and copied to the
    transposed slot), and the patch consistency (over the 6 unordered
    member pairs).
    """
    label_array = _as_label_array(labels, topo.n_faces)
    n_faces = topo.n_faces
    areas = geometry.areas
    centroids = geometry.centroids
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    sigma_s = params.sigma_s_mult * sigma_c
    radius = params.r * topo.mean_edge_length

    nbr_ids, offsets = _radius_csr(centroids, radius, label_array)
    owner = np.repeat(np.arange(n_faces, dtype=np.int64), np.diff(offsets))
    pair_cdiff = np.take(centroids, owner, axis=0) - np.take(centroids, nbr_ids, axis=0)
    pair_spatial = areas[nbr_ids] * np.exp(
        -np.einsum("pi,pi->p", pair_cdiff, pair_cdiff) / (2.0 * sigma_s * sigma_s)
    )
    del pair_cdiff
    upper, mirror = _transpose_slots(owner, nbr_ids, n_faces)
    upper_owner, upper_nbr = owner[upper], nbr_ids[upper]
    range_w = np.empty(len(nbr_ids))

    cand_ids, cand_owner = _guidance_candidates(owner, nbr_ids, offsets)
    cand_starts = offsets[:-1] + np.arange(n_faces)
    run_lengths = np.diff(offsets) + 1

    # Patch membership: self + (constrained) edge ring, padded to 4.
    safe, ring_valid = _ring_tables(topo, label_array)
    members = np.concatenate([np.arange(n_faces)[:, None], safe], axis=1)
    member_valid = np.concatenate(
        [np.ones((n_faces, 1), dtype=bool), ring_valid], axis=1
    )
    member_area = areas[members] * member_valid
    patch_centroid = (member_area[:, :, None] * centroids[members]).sum(axis=1)
    patch_centroid /= member_area.sum(axis=1, keepdims=True)  # >= own area > 0
    cand_centroid_dist = np.linalg.norm(
        np.take(patch_centroid, cand_ids, axis=0) - np.take(centroids, cand_owner, axis=0),
        axis=1,
    )
    ranked_ids = cand_ids[_rank_candidates(cand_owner, cand_centroid_dist, n_faces)]
    del cand_ids, cand_owner, cand_centroid_dist
    # Sparse rows in ascending neighbor id; each sweep sets their weights.
    blend = sp.csr_array((pair_spatial, nbr_ids, offsets), shape=(n_faces, n_faces))

    pair_a, pair_b = np.triu_indices(4, 1)
    pair_mask = member_valid[:, pair_a] & member_valid[:, pair_b]
    two_sr2 = 2.0 * params.sigma_r * params.sigma_r
    normals = geometry.normals
    for _ in range(params.n_iter):
        member_normals = np.take(normals, members, axis=0)  # (F, 4, 3)
        # The (F, 6, 1, 3) view keeps the einsum layout of the (F, 4, 4)
        # pair cube that the oracle test compares all 16 pairs in.
        diffs = (member_normals[:, pair_a] - member_normals[:, pair_b])[:, :, None, :]
        d2 = np.einsum("fabi,fabi->fab", diffs, diffs)[:, :, 0]
        consistency = np.sqrt(np.where(pair_mask, d2, 0.0).max(axis=1))
        patch_normal = _normalize_rows(
            (member_area[:, :, None] * member_normals).sum(axis=1), normals
        )
        # Lexicographic argmin per face: consistency, then the static rank.
        ranked = np.take(consistency, ranked_ids, axis=0)
        run_min = np.minimum.reduceat(ranked, cand_starts)
        hits = np.flatnonzero(ranked == np.repeat(run_min, run_lengths))
        picked = ranked_ids[hits[np.searchsorted(hits, cand_starts)]]
        guidance = np.take(patch_normal, picked, axis=0)

        gdiff = np.take(guidance, upper_owner, axis=0) - np.take(guidance, upper_nbr, axis=0)
        weight = np.exp(-np.einsum("pi,pi->p", gdiff, gdiff) / two_sr2)
        range_w[upper] = weight
        range_w[mirror] = weight
        blend.data = pair_spatial * range_w
        normals = _normalize_rows(blend @ normals, normals)
    return normals


def vertex_update(
    mesh: TriMesh, topo: TopologyCache, normals: np.ndarray, v_iter: int
) -> TriMesh:
    """Move vertices toward the planes defined by filtered face normals.

    Each iteration updates every vertex from the same snapshot (Jacobi):
    x += mean over incident faces of n (n . (centroid - x)), with face
    centroids recomputed from the snapshot. Isolated vertices stay put
    (a warning is emitted once per call if any exist).
    """
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (mesh.n_faces, 3):
        raise ValueError(
            f"normals must have shape ({mesh.n_faces}, 3), got {normals.shape}"
        )
    if v_iter < 0:
        raise ValueError(f"v_iter must be >= 0, got {v_iter}")
    counts = np.diff(topo.vertex_face_offsets)
    isolated = counts == 0
    if isolated.any():
        warnings.warn(
            f"{int(isolated.sum())} isolated vertices are not moved by the "
            "vertex update",
            stacklevel=2,
        )
    if mesh.n_faces == 0 or v_iter == 0:
        return mesh.with_vertices(mesh.vertices)

    # Incidences run face-major, so each vertex sums its faces' pulls in
    # ascending face id; one bincount over (vertex, axis) bins takes all
    # three axes.
    faces = mesh.faces
    bins = (faces.reshape(-1, 1) * 3 + np.arange(3)).ravel()
    divisor = np.where(isolated, 1, counts).astype(np.float64)
    fn = np.repeat(normals, 3, axis=0)

    positions = mesh.vertices.copy()
    for _ in range(v_iter):
        tri = np.take(positions, faces, axis=0)
        cent = tri.mean(axis=1)
        gap = np.einsum("pi,pi->p", fn, (cent[:, None, :] - tri).reshape(-1, 3))
        contrib = fn * gap[:, None]
        shift = np.bincount(bins, weights=contrib.ravel(), minlength=3 * mesh.n_vertices)
        positions = positions + shift.reshape(-1, 3) / divisor[:, None]
    return mesh.with_vertices(positions)


_FILTERS = {
    UnfParams: filter_unf,
    BnfParams: filter_bnf,
    GnfParams: filter_gnf,
    L1Params: filter_l1median,
}


def filter_normals(
    mesh: TriMesh,
    topo: TopologyCache,
    geometry: FaceGeometry,
    params: DenoiseParams,
    labels=None,
) -> np.ndarray:
    """Dispatch to the backend named by the params type."""
    try:
        backend = _FILTERS[type(params)]
    except KeyError:
        raise TypeError(f"not a denoise params object: {params!r}") from None
    return backend(mesh, topo, geometry, params, labels)


def denoise(
    mesh: TriMesh,
    params: DenoiseParams,
    labels=None,
    segment_params: SegmentParams | None = None,
    prefilter_params: PrefilterParams | None = None,
) -> TriMesh:
    """Full denoise: (optionally) segment, filter normals, fit vertices.

    Labels may be passed precomputed; otherwise, when *segment_params*
    is given they are computed here — with the prefilter applied to the
    segmentation stage only, never to the positions being denoised.
    """
    topo = build_topology(mesh)
    geometry = face_geometry(mesh)
    if labels is None and segment_params is not None:
        labels = segment(mesh, segment_params, prefilter_params=prefilter_params)
    label_array = _as_label_array(labels, mesh.n_faces)
    normals = filter_normals(mesh, topo, geometry, params, label_array)
    return vertex_update(mesh, topo, normals, params.v_iter)
