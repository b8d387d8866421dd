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
- ``l1``: weighted geometric median (Weiszfeld) of edge-ring normals
  within an angular gate.

Passing cluster labels restricts every neighborhood (and the gnf
guidance patches) to faces of the same cluster, which is what keeps
filtering from bleeding across feature lines; a face whose constrained
neighborhood is empty keeps its own normal. Neighbor sums always run in
ascending face id, so results are reproducible bit-for-bit.

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
        nbr_normals = normals[safe]  # (F, 3nbr, 3)
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
        nbr_normals = normals[safe]
        ndiff = normals[:, None, :] - nbr_normals
        range_w = np.exp(-np.einsum("fki,fki->fk", ndiff, ndiff) / two_sr2)
        weights = base_w * range_w
        # Self term: both kernels evaluate to 1 at zero distance.
        summed = np.einsum("fk,fki->fi", weights, nbr_normals) + areas[:, None] * normals
        normals = _normalize_rows(summed, normals)
    return normals


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
    1e-12 to step over candidate points).
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
        nbr_normals = normals[safe]
        dots = np.einsum("fi,fki->fk", normals, nbr_normals)
        weights = np.where(valid & (dots >= cos_gate), spatial, 0.0)
        wsum = weights.sum(axis=1)
        has = wsum > 0.0
        denom = np.where(has, wsum, 1.0)
        median = np.einsum("fk,fki->fi", weights, nbr_normals) / denom[:, None]
        for _step in range(WEISZFELD_MAX_ITER):
            delta = median[:, None, :] - nbr_normals
            dist = np.sqrt(np.einsum("fki,fki->fk", delta, delta))
            inv = weights / np.maximum(dist, WEISZFELD_DIST_FLOOR)
            inv_sum = inv.sum(axis=1)
            ok = inv_sum > 0.0
            candidate = np.einsum("fk,fki->fi", inv, nbr_normals) / np.where(
                ok, inv_sum, 1.0
            )[:, None]
            candidate = np.where(ok[:, None], candidate, median)
            moves = np.linalg.norm(candidate - median, axis=1)
            median = candidate
            if float(moves.max(initial=0.0)) < WEISZFELD_MOVE_TOL:
                break
        normals = np.where(has[:, None], _normalize_rows(median, normals), normals)
    return normals


def _radius_csr(centroids: np.ndarray, radius: float, label_array=None):
    """All faces within *radius* of each face's centroid (self excluded,
    same cluster only when labels given) as CSR (neighbor_ids, offsets);
    neighbor ids ascend within each face. Candidates come from the cell
    grid of :func:`stencil_pairs` with cell = *radius*."""
    owners, ids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    r2 = radius * radius
    for q, s in stencil_pairs(centroids, centroids, centroids, radius, 1):
        diff = centroids[q] - centroids[s]
        keep = (np.einsum("pi,pi->p", diff, diff) <= r2) & (q != s)
        if label_array is not None:
            keep &= label_array[q] == label_array[s]
        owners.append(q[keep])
        ids.append(s[keep])
    owner = np.concatenate(owners)
    nbr = np.concatenate(ids)
    order = np.lexsort((nbr, owner))
    counts = np.bincount(owner, minlength=len(centroids))
    return nbr[order], np.concatenate(([0], np.cumsum(counts)))


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
    takes the first minimum in it. The new normal is then the joint
    bilateral blend of neighbor normals with spatial weights on centroid
    distance and range weights on guidance difference, summed in
    ascending neighbor id.
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
    pair_cdiff = centroids[owner] - centroids[nbr_ids]
    pair_spatial = areas[nbr_ids] * np.exp(
        -np.einsum("pi,pi->p", pair_cdiff, pair_cdiff) / (2.0 * sigma_s * sigma_s)
    )

    # Guidance candidates: each face itself, then every radius pair. Ranked
    # by owner, owner i's run starts at offsets[i] + i and is never empty.
    cand_ids = np.concatenate((np.arange(n_faces), nbr_ids))
    cand_owner = np.concatenate((np.arange(n_faces), owner))
    cand_starts = offsets[:-1] + np.arange(n_faces)

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
        patch_centroid[cand_ids] - centroids[cand_owner], axis=1
    )
    ranked_ids = cand_ids[np.lexsort((cand_ids, cand_centroid_dist, cand_owner))]
    run_lengths = np.diff(offsets) + 1
    # Sparse rows in ascending neighbor id; each sweep sets their weights.
    blend = sp.csr_array((pair_spatial, nbr_ids, offsets), shape=(n_faces, n_faces))

    pair_mask = member_valid[:, :, None] & member_valid[:, None, :]
    two_sr2 = 2.0 * params.sigma_r * params.sigma_r
    normals = geometry.normals
    for _ in range(params.n_iter):
        member_normals = normals[members]  # (F, 4, 3)
        diffs = member_normals[:, :, None, :] - member_normals[:, None, :, :]
        d2 = np.einsum("fabi,fabi->fab", diffs, diffs)
        consistency = np.sqrt(np.where(pair_mask, d2, 0.0).max(axis=(1, 2)))
        patch_normal = _normalize_rows(
            (member_area[:, :, None] * member_normals).sum(axis=1), normals
        )
        # Lexicographic argmin per face: consistency, then the static rank.
        ranked = consistency[ranked_ids]
        run_min = np.minimum.reduceat(ranked, cand_starts)
        hits = np.flatnonzero(ranked == np.repeat(run_min, run_lengths))
        guidance = patch_normal[ranked_ids[hits[np.searchsorted(hits, cand_starts)]]]

        gdiff = guidance[owner] - guidance[nbr_ids]
        blend.data = pair_spatial * np.exp(-np.einsum("pi,pi->p", gdiff, gdiff) / two_sr2)
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

    faces = mesh.faces
    incident_face = topo.vertex_face_ids
    incident_vertex = np.repeat(np.arange(mesh.n_vertices, dtype=np.int64), counts)
    divisor = np.where(isolated, 1, counts).astype(np.float64)
    fn = normals[incident_face]

    positions = mesh.vertices.copy()
    for _ in range(v_iter):
        cent = positions[faces].mean(axis=1)
        gap = np.einsum(
            "pi,pi->p", fn, cent[incident_face] - positions[incident_vertex]
        )
        contrib = fn * gap[:, None]
        shift = np.zeros((mesh.n_vertices, 3), dtype=np.float64)
        for k in range(3):
            shift[:, k] = np.bincount(
                incident_vertex, weights=contrib[:, k], minlength=mesh.n_vertices
            )
        positions = positions + shift / divisor[:, None]
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
