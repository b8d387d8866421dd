"""Two-step denoising: iterative face-normal filtering, then vertex fitting.

Four normal-filter backends share one dispatch (:func:`filter_normals`).
The three edge-ring filters (unf, bnf, l1) also share one sweep loop,
:func:`_ring_sweeps`, which gathers each face's ring normals and hands
them to the filter's per-sweep step, and bnf and l1 share one spatial
kernel, :func:`_ring_spatial`. Every Gaussian weight, spatial or range,
is :func:`~meshseg.core.gaussian`, the prefilter's too:

- ``unf``: edge-ring normals whose dot with the center normal exceeds a
  threshold T, each weighted by area·(dot − T)²; the face itself always
  takes part with weight area·(1 − T)².
- ``bnf``: bilateral weighting of edge-ring normals, spatial kernel on
  centroid distance (scale auto-set to the mean adjacent-centroid
  distance), range kernel on normal difference.
- ``gnf``: joint bilateral over a geometric neighborhood, steered by
  guidance normals chosen per face as the most consistent small patch.
  The neighborhood is symmetric: a half stencil of the cell grid draws
  each unordered face pair once, and it is tested and weighed once, its
  weight read into both faces' rows.
- ``l1``: weighted geometric median (Weiszfeld) of edge-ring normals
  within an angular gate. The Weiszfeld loop steps only the ring entries
  with positive (gated) weight, packed by column.

Passing cluster labels (a ClusterLabels or a 1-D integer array, checked
by :func:`~meshseg.core.label_array`) restricts every neighborhood (and
the gnf guidance patches) to faces of the same cluster, which is what keeps
filtering from bleeding across feature lines; a face whose constrained
neighborhood is empty keeps its own normal. Neighbor sums always run in
ascending face id, so results are reproducible bit-for-bit.

The ring sweeps run axis-major: the normals are held as (3, F), and each
sweep gathers the ring as (3 components, 3 slots, F) with one ``np.take``
along the face axis, so every dot, weight and slot sum is arithmetic on
whole contiguous rows of F. Two buffer sets are allocated once per call
and reused by every sweep, each because it was measured to pay. The ring
and one scratch array of its size: at 9F doubles they usually lie above
the C allocator's mmap threshold, so fresh ones fault in new pages on
every sweep, and the README round trip took 5 % longer with them
allocated per sweep. The gnf sweep's patch members, their pairwise
differences and the guidance differences of its face pairs, (3, ·)
arrays, plus the data array of its sparse blend matrix, into which each
sweep writes the weights: allocated per sweep, they raised the peak
resident memory of a gnf run on cube(16) by about 2.7 MB. The l1
filter's Weiszfeld buffers are allocated per :func:`_weiszfeld` call,
at their packed size; a working set shared by a call's sweeps saved no
time and held more memory. No buffer outlives its call, so filters may
run in threads. numpy's ``einsum``
and its short-axis reductions (``.sum(axis=1)``, ``.mean(axis=1)``,
``np.linalg.norm(axis=1)``, ``np.cross``) run a 3- or 4-long axis one
row at a time, several times slower. So every such sum here is written
out, through :func:`~meshseg.core.dot_terms`,
:func:`~meshseg.core.sum_terms` (slot sums included),
:func:`~meshseg.core.mean_terms`, :func:`~meshseg.core.row_norms` and
:func:`~meshseg.core.row_cross`, in the order
numpy's row-major form sums it, so the results keep its bits, signed
zeros included. Other per-sweep gathers use ``np.take(a, idx, axis=0)``
rather than ``a[idx]``: the same array, but ``take`` copies whole rows,
while fancy indexing of (N, 3) float rows takes 3–4 times as long.

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
    FaceGeometry,
    TopologyCache,
    TriMesh,
    cell_block,
    check_count,
    check_sigma,
    dot_terms,
    face_geometry,
    gaussian,
    label_array,
    mean_terms,
    row_norms,
    stencil_pairs,
    sum_terms,
)

WEISZFELD_MAX_ITER = 20
WEISZFELD_MOVE_TOL = 1e-8
WEISZFELD_DIST_FLOOR = 1e-12


def _positive(name, value):
    if not value > 0:  # also rejects NaN
        raise ValueError(f"{name} must be > 0, got {value}")


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
        check_count("n_iter", self.n_iter, 0)
        check_count("v_iter", self.v_iter, 0)


@dataclass(frozen=True)
class BnfParams:
    """(sigma_r, n_iter, v_iter): bilateral normal filter."""

    sigma_r: float
    n_iter: int
    v_iter: int
    method = "bnf"

    def __post_init__(self):
        check_sigma("sigma_r", self.sigma_r)
        check_count("n_iter", self.n_iter, 0)
        check_count("v_iter", self.v_iter, 0)


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
        check_sigma("sigma_r", self.sigma_r)
        check_count("n_iter", self.n_iter, 0)
        check_count("v_iter", self.v_iter, 0)


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
        check_count("n_iter", self.n_iter, 0)
        check_count("v_iter", self.v_iter, 0)


DenoiseParams = Union[UnfParams, BnfParams, GnfParams, L1Params]


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
        if not f.is_integer():  # also rejects inf and NaN
            raise ValueError(f"iteration counts must be integers, got {v!r}")
        tail.append(int(f))
    return PARAM_TYPES[method](*head, *tail)


def _ring_tables(topo: TopologyCache, labels):
    """(safe, valid): each face's edge ring in ascending face id with
    boundary slots last. Boundary slots read face 0 in *safe* and False
    in *valid*, which with *labels* (checked by
    :func:`~meshseg.core.label_array`) is also False for other clusters."""
    ring = topo.face_adjacent.copy()
    sentinel = np.iinfo(np.int64).max
    ring[ring < 0] = sentinel
    ring.sort(axis=1)
    valid = ring != sentinel
    safe = np.where(valid, ring, 0)
    if labels is not None:
        labels = label_array(labels, topo.n_faces)
        valid &= labels[safe] == labels[:, None]
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
    return float(row_norms(c_a - c_b).mean())


def _normalize_rows(vectors: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize (N, 3) *vectors*, keeping *fallback* rows where the
    norm vanishes. The result keeps the memory layout of *vectors*, so
    axis-major (3, N) arrays go in and come out as their ``.T`` views."""
    norms = row_norms(vectors)
    ok = norms > 0.0
    out = vectors / np.where(ok, norms, 1.0)[:, None]
    np.copyto(out, fallback, where=~ok[:, None])
    return out


def _ring_sweeps(geometry: FaceGeometry, safe: np.ndarray, n_iter: int, step) -> np.ndarray:
    """n_iter sweeps of an edge-ring filter, axis-major: each gathers every
    face's ring normals as (3 components, 3 slots, F) and lets
    ``step(normals, ring, scratch)`` return the next (3, F) normals. The
    step may overwrite the gathered ring and the (3, 3, F) *scratch*; both
    buffers are allocated once here and reused by every sweep."""
    normals = np.ascontiguousarray(geometry.normals.T)
    slots = np.ascontiguousarray(safe.T)
    ring = np.empty((3,) + slots.shape)
    scratch = np.empty_like(ring)
    for _ in range(n_iter):
        # "clip" leaves the (valid) ids as they are and, unlike "raise",
        # writes straight into *ring* without a buffered copy.
        normals = step(normals, np.take(normals, slots, axis=1, out=ring, mode="clip"), scratch)
    return normals.T


def _ring_spatial(topo: TopologyCache, geometry: FaceGeometry, safe: np.ndarray) -> np.ndarray:
    """(3 slots, F) Gaussian of each ring slot's centroid distance, its
    scale the mean adjacent-centroid distance."""
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    centroids = np.ascontiguousarray(geometry.centroids.T)
    cdiff = centroids[:, None, :] - np.take(centroids, safe.T, axis=1)
    return gaussian(dot_terms(cdiff, cdiff), sigma_c)


def filter_unf(
    topo: TopologyCache, geometry: FaceGeometry, params: UnfParams, labels=None
) -> np.ndarray:
    """n_iter sweeps of the thresholded normal filter.

    Each edge-ring neighbor whose normal has dot > t with the center
    normal is weighted by its area·(dot − t)²; the face itself is
    weighted by its area·(1 − t)².
    """
    safe, valid = _ring_tables(topo, labels)
    valid = valid.T
    areas = geometry.areas
    nbr_areas = areas[safe.T]
    threshold = params.t
    # The face itself always participates (its self-dot is 1).
    self_w = areas * (1.0 - threshold) ** 2

    def step(normals, ring, scratch):
        dots = dot_terms(normals[:, None, :], ring, scratch)
        weights = np.where(valid & (dots > threshold), nbr_areas * (dots - threshold) ** 2, 0.0)
        summed = sum_terms(np.multiply(weights, ring, out=ring).swapaxes(0, 1))
        summed += self_w * normals
        return _normalize_rows(summed.T, normals.T).T

    return _ring_sweeps(geometry, safe, params.n_iter, step)


def filter_bnf(
    topo: TopologyCache, geometry: FaceGeometry, params: BnfParams, labels=None
) -> np.ndarray:
    """n_iter sweeps of the bilateral normal filter."""
    safe, valid = _ring_tables(topo, labels)
    areas = geometry.areas
    base_w = np.where(valid.T, areas[safe.T] * _ring_spatial(topo, geometry, safe), 0.0)

    def step(normals, ring, scratch):
        ndiff = np.subtract(normals[:, None, :], ring, out=scratch)
        weights = gaussian(dot_terms(ndiff, ndiff, ndiff), params.sigma_r)
        weights *= base_w
        summed = sum_terms(np.multiply(weights, ring, out=ring).swapaxes(0, 1))
        # Self term: both kernels evaluate to 1 at zero distance.
        summed += areas * normals
        return _normalize_rows(summed.T, normals.T).T

    return _ring_sweeps(geometry, safe, params.n_iter, step)


# For each gate pattern g (bit s set where slot s has positive weight): the
# slots in the order a column's entries are packed, gated slots first,
# ascending, then the others; and the column's sort key, its count of
# slots without weight.
_GATED_FIRST = np.array(
    [[0, 1, 2], [0, 1, 2], [1, 0, 2], [0, 1, 2], [2, 0, 1], [0, 2, 1], [1, 2, 0], [0, 1, 2]]
)
_UNGATED_COUNT = np.array([3, 2, 2, 1, 2, 1, 1, 0], dtype=np.uint8)


def _pack(points: np.ndarray, weights: np.ndarray):
    """(points, weights, columns, ends): the (3, E) points and (E,) weights
    of the E (slot, column) entries with positive weight, and the A
    columns that have any, *columns* in packed order. Columns run by their
    count of gated slots (3, then 2, then 1; stable), and block k of the
    entries holds the k-th gated slot, in ascending slot order, of the
    column prefix ``columns[:ends[k]]``."""
    n = weights.shape[-1]
    gated = (weights > 0.0).view(np.uint8)
    pattern = gated[0] | gated[1] << 1 | gated[2] << 2
    rank = np.take(_UNGATED_COUNT, pattern)
    order = np.argsort(rank, kind="stable")
    ends = np.cumsum(np.bincount(rank, minlength=4)[:3])[::-1].tolist()
    columns = order[: ends[0]]
    pattern = np.take(pattern, columns)
    entries = np.concatenate(
        [np.take(_GATED_FIRST[:, k] * n, pattern[:end]) + columns[:end] for k, end in enumerate(ends)]
    )
    return (
        np.take(points.reshape(3, -1), entries, axis=1),
        np.take(weights.reshape(-1), entries),
        columns,
        ends,
    )


def _slot_sums(entries: np.ndarray, ends, out: np.ndarray) -> np.ndarray:
    """Each packed column's entries summed into *out* in slot order from
    +0.0, as :func:`~meshseg.core.sum_terms` sums the slots: block k is
    added onto the column prefix ``[:ends[k]]``."""
    start = 0
    for k, end in enumerate(ends):
        block = entries[..., start : start + end]
        if k == 0:
            np.add(block, 0.0, out=out)
        else:
            np.add(out[..., :end], block, out=out[..., :end])
        start += end
    return out


def _weiszfeld(points: np.ndarray, weights: np.ndarray, wsum: np.ndarray) -> np.ndarray:
    """Weighted geometric median of each column's three ring normals.

    Component-major: *points* is (3 components, 3 ring slots, F), *weights*
    (3 slots, F), each zero or positive, and *wsum* (F,) their sums.
    Returns the (3, F) medians; a column with no positive weight gives 0.
    Starts from the weighted mean and takes Weiszfeld steps until no
    column moves by WEISZFELD_MOVE_TOL, or for WEISZFELD_MAX_ITER = 20
    steps. The cap is part of the filter's definition: on noisy cube(32)
    (0.5 mean edge lengths, seeds 23 and 7919) with L1Params(40, 20, 10),
    plain and clustered, every call runs all 20 steps, so the move test
    never fires. Every sum keeps the order numpy's
    einsum/sum give the row-major form (squared distance (x² + z²) + y²,
    slot sums ((0.0 + s0) + s1) + s2, squared move (x² + y²) + z²), so
    the median is bit-identical to it, signed zeros included.

    Only the E entries with positive weight take part (:func:`_pack`): a
    step's differences, squares, distances, floors, divisions and products
    are each one call over the entries, and its slot sums add each block
    onto a prefix of the columns (:func:`_slot_sums`). A zero-weight slot
    adds a zero of either sign to each dense slot sum, and +0.0 to the
    inverse-distance sum. The slot sums start from +0.0 and no
    inverse-distance term is negative, so no partial sum is −0.0, and
    adding a zero to one changes no bit: the dense form's bits are kept
    while its 3F slots shrink to E entries.

    The steps write into buffers allocated once per call at their packed
    size: (3, E) and (E,) for the entries, (A,) and (3, A) for the A
    working columns.

    Settled columns drop out. A column settles when its step returns a
    median equal (``==``) to the one it started from: the step reads the
    median only through its squared differences to the points, so every
    later step returns the same bits again (a stuck column, without
    positive inverse-distance weight, keeps its median anyway), and its
    later moves are exactly 0, which leaves the stopping test as it was.
    Once settled columns make up a quarter of the working ones, they are
    written out and the working entries and columns compacted to the
    rest; in the ring filters about a third of the columns, most with one
    gated slot, settle within two steps. Settling is tested with ``==``; a
    zero squared move only picks the steps worth comparing, since a move
    below 1.5e-162 squares to 0 although the median changed.
    """
    result = np.zeros((3, weights.shape[-1]))
    points, weights, columns, ends = _pack(points, weights)
    n, n_entries = ends[0], sum(ends)
    prod, inv = np.empty((3, n_entries)), np.empty(n_entries)
    inv_sum, move, flags = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    median, candidate = np.empty((3, n)), np.empty((3, n))
    _slot_sums(np.multiply(weights, points, out=prod), ends, median)
    np.divide(median, np.take(wsum, columns), out=median)
    for _step in range(WEISZFELD_MAX_ITER):
        start = 0
        for end in ends:
            stop = start + end
            np.subtract(median[:, :end], points[:, start:stop], out=prod[:, start:stop])
            start = stop
        np.multiply(prod, prod, out=prod)
        np.add(prod[0], prod[2], out=inv)
        np.add(inv, prod[1], out=inv)
        np.sqrt(inv, out=inv)
        np.maximum(inv, WEISZFELD_DIST_FLOOR, out=inv)
        np.divide(weights, inv, out=inv)
        _slot_sums(inv, ends, inv_sum)
        _slot_sums(np.multiply(inv, points, out=prod), ends, candidate)
        stuck = not inv_sum.all()  # a column without inverse-distance weight is rare
        if stuck:
            np.logical_not(np.greater(inv_sum, 0.0, out=flags), out=flags)
            np.copyto(inv_sum, 1.0, where=flags)
        np.divide(candidate, inv_sum, out=candidate)
        if stuck:
            np.copyto(candidate, median, where=flags)
        delta = prod[:, :n]
        np.subtract(candidate, median, out=delta)
        np.multiply(delta, delta, out=delta)
        np.add(delta[0], delta[1], out=move)
        np.add(move, delta[2], out=move)
        median, candidate = candidate, median  # candidate: the step's start
        # sqrt is monotone, so the root of the largest square is the largest move.
        if np.sqrt(move.max(initial=0.0)) < WEISZFELD_MOVE_TOL:
            break
        # Cheap first: every settled column has a zero squared move.
        if 4 * np.count_nonzero(np.equal(move, 0.0, out=flags)) < n:
            continue
        same = median == candidate
        settled = same[0] & same[1] & same[2]
        if 4 * np.count_nonzero(settled) < n:
            continue
        result[:, columns[settled]] = median[:, settled]
        keep = ~settled
        columns = columns[keep]
        kept = np.concatenate([keep[:end] for end in ends])
        ends = [np.count_nonzero(keep[:end]) for end in ends]
        # compress, unlike a mask index, keeps the arrays C-contiguous.
        points, weights = (np.compress(kept, a, axis=-1) for a in (points, weights))
        median = np.compress(keep, median, axis=-1)
        n, n_entries = ends[0], sum(ends)
        prod, inv, candidate = prod[:, :n_entries], inv[:n_entries], candidate[:, :n]
        inv_sum, move, flags = inv_sum[:n], move[:n], flags[:n]
    result[:, columns] = median
    return result


def filter_l1median(
    topo: TopologyCache, geometry: FaceGeometry, params: L1Params, labels=None
) -> np.ndarray:
    """n_iter sweeps of the geometric-median normal filter.

    Candidates are edge-ring (cluster-constrained) neighbors whose
    normals lie within angle_max_deg of the center normal; the weighted
    geometric median uses spatial Gaussian weights and Weiszfeld
    iteration (cap 20, movement tolerance 1e-8, distances floored at
    1e-12 to step over candidate points). Only faces with gated weight
    take Weiszfeld steps (see :func:`_weiszfeld`); the others keep their
    normal. The step cap, not the tolerance, ends the iteration on typical
    input (every call on the ring-sweep benchmark's noisy cube(32) runs
    all 20 steps), so the filter returns the 20-step Weiszfeld iterate,
    not a converged median.
    """
    safe, valid = _ring_tables(topo, labels)
    valid = valid.T
    spatial = _ring_spatial(topo, geometry, safe)
    cos_gate = float(np.cos(np.radians(params.angle_max_deg)))

    def step(normals, ring, scratch):
        dots = dot_terms(normals[:, None, :], ring, scratch)
        weights = np.where(valid & (dots >= cos_gate), spatial, 0.0)
        wsum = sum_terms(weights)
        median = _weiszfeld(ring, weights, wsum)
        return np.where(wsum > 0.0, _normalize_rows(median.T, normals.T).T, normals)

    return _ring_sweeps(geometry, safe, params.n_iter, step)


def _radius_pairs(centroids: np.ndarray, radius: float, labels=None):
    """(first, second, d2): each unordered pair of faces whose centroids lie
    within *radius* (same cluster only when labels given) once, with its
    squared centroid distance. Candidates come from one :func:`stencil_pairs`
    call with cell = *radius* over a half stencil, which holds every pair of
    touching cells once: offset (0, 0, 0), then the 13 after it in
    :func:`~meshseg.core.cell_block` order. The first batch, each cell's
    own, holds its pairs both ways and each face with itself; only the
    pairs with the lower id first are kept."""
    firsts, seconds = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    dists = [np.zeros(0)]
    r2 = radius * radius
    axis_centroids = np.ascontiguousarray(centroids.T)
    half_stencil = cell_block(range(-1, 2))[13:]
    for k, (q, s) in enumerate(stencil_pairs(centroids, centroids, radius, half_stencil)):
        if k == 0:
            below = q < s
            q, s = q[below], s[below]
        diff = np.take(axis_centroids, q, axis=1) - np.take(axis_centroids, s, axis=1)
        d2 = dot_terms(diff, diff, diff)
        keep = d2 <= r2
        if labels is not None:
            keep &= labels[q] == labels[s]
        firsts.append(q[keep])
        seconds.append(s[keep])
        dists.append(d2[keep])
    return np.concatenate(firsts), np.concatenate(seconds), np.concatenate(dists)


def _pair_csr(first: np.ndarray, second: np.ndarray, n_faces: int):
    """(nbr_ids, offsets, slot_pair): the symmetric CSR that holds each
    unordered pair in both faces' rows, neighbor ids ascending within a
    row, and the index of each slot's pair."""
    owner = np.concatenate((first, second))
    nbr = np.concatenate((second, first))
    order = np.argsort(owner * n_faces + nbr)  # the keys are unique
    offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n_faces))))
    nbr = nbr[order]
    order[order >= len(first)] -= len(first)
    return nbr, offsets, order


def _rank_candidates(owner: np.ndarray, ids: np.ndarray, gap: np.ndarray, n_faces: int) -> np.ndarray:
    """The order ``np.lexsort((ids, gap, owner))`` gives candidates in any
    order: by owner, then gap, then id, each id at most once per owner.

    A by-gap order that keeps an owner's ties in id order comes first.
    Where no two gaps are equal (−0.0 equals +0.0), numpy's unstable
    argsort gives it; otherwise a second unstable argsort on the int64
    keys dense gap rank × *n_faces* + id, unique within an owner. A stable
    sort by owner, cast to the smallest unsigned type that holds
    *n_faces* so that numpy sorts it by radix, then keeps each owner's run
    in (gap, id) order.
    """
    by_gap = np.argsort(gap)
    sorted_gap = np.take(gap, by_gap)
    steps = sorted_gap[1:] != sorted_gap[:-1]
    if not steps.all():
        rank = np.empty_like(by_gap)
        rank[by_gap] = np.concatenate(([0], np.cumsum(steps)))
        by_gap = np.argsort(rank * n_faces + ids)
    key = owner.astype(np.min_scalar_type(n_faces))[by_gap]
    return by_gap[np.argsort(key, kind="stable")]


def filter_gnf(
    topo: TopologyCache, geometry: FaceGeometry, params: GnfParams, labels=None
) -> np.ndarray:
    """n_iter sweeps of the guided normal filter.

    Per sweep, every face j gets a candidate patch {j} + edge ring
    (cluster-constrained) whose consistency is the maximum pairwise
    normal difference; face i picks, among itself and its geometric
    neighbors, the patch with the smallest consistency (ties: smaller
    patch-centroid distance, then smaller face id) and adopts its
    area-weighted normal as guidance g_i. Only the consistencies change
    between sweeps, so the tie-break order is ranked once and a sweep
    takes the first minimum in it. The candidates, each radius pair both
    ways and each face itself, go to :func:`_rank_candidates` in no
    particular order, and its keys break gap ties on the id; face i's run
    of the ranking starts at offsets[i] + i of the CSR. The new normal is
    then the joint bilateral blend of neighbor normals with spatial
    weights on centroid distance and range weights on guidance
    difference, summed in ascending neighbor id.

    The neighborhood is symmetric, so each unordered face pair is
    evaluated once: the radius test and centroid distance in
    :func:`_radius_pairs`, the range weight (read into both of the pair's
    CSR slots through the slot → pair map of :func:`_pair_csr`), and the
    patch consistency (over the 6 unordered member pairs). The sweep runs
    axis-major, in buffers allocated once per call.
    """
    if labels is not None:
        labels = label_array(labels, topo.n_faces)
    n_faces = topo.n_faces
    areas = geometry.areas
    centroids = geometry.centroids
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    sigma_s = params.sigma_s_mult * sigma_c
    radius = params.r * topo.mean_edge_length

    first, second, pair_d2 = _radius_pairs(centroids, radius, labels)
    nbr_ids, offsets, slot_pair = _pair_csr(first, second, n_faces)
    # fl(a - b) = -fl(b - a), so a pair's squared distance serves both slots.
    slot_spatial = np.take(gaussian(pair_d2, sigma_s, out=pair_d2), slot_pair)
    slot_spatial *= areas[nbr_ids]
    del pair_d2

    faces = np.arange(n_faces)
    cand_owner = np.concatenate((first, second, faces))
    cand_ids = np.concatenate((second, first, faces))
    cand_starts = offsets[:-1] + faces
    run_lengths = np.diff(offsets) + 1

    # Patch membership: self + (constrained) edge ring, padded to 4, as
    # (4 members, F) rows.
    safe, ring_valid = _ring_tables(topo, labels)
    members = np.concatenate([faces[None, :], safe.T])
    member_valid = np.concatenate([np.ones((1, n_faces), dtype=bool), ring_valid.T])
    member_area = areas[members] * member_valid
    axis_centroids = np.ascontiguousarray(centroids.T)
    patch_centroid = sum_terms((member_area * np.take(axis_centroids, members, axis=1)).swapaxes(0, 1))
    patch_centroid /= sum_terms(member_area)  # >= own area > 0
    cand_centroid_dist = row_norms(
        (np.take(patch_centroid, cand_ids, axis=1) - np.take(axis_centroids, cand_owner, axis=1)).T
    )
    ranked_ids = cand_ids[_rank_candidates(cand_owner, cand_ids, cand_centroid_dist, n_faces)]
    del faces, cand_ids, cand_owner, cand_centroid_dist, patch_centroid
    # Sparse rows in ascending neighbor id; each sweep writes their
    # weights into the data array the CSR owns (slot_spatial stays as is).
    blend = sp.csr_array((np.empty(len(nbr_ids)), nbr_ids, offsets), shape=(n_faces, n_faces))
    del nbr_ids

    pair_a, pair_b = np.triu_indices(4, 1)
    pair_mask = member_valid[pair_a] & member_valid[pair_b]
    normals = np.ascontiguousarray(geometry.normals.T)
    member_normals = np.empty((3,) + members.shape)
    member_diffs = np.empty((3, len(pair_a), n_faces))
    gdiff = np.empty((3, len(first)))
    second_guidance = np.empty_like(gdiff)
    for _ in range(params.n_iter):
        np.take(normals, members, axis=1, out=member_normals, mode="clip")
        np.subtract(member_normals[:, pair_a], member_normals[:, pair_b], out=member_diffs)
        d2 = dot_terms(member_diffs, member_diffs, member_diffs)
        consistency = np.sqrt(np.where(pair_mask, d2, 0.0).max(axis=0))
        patch_sum = sum_terms(np.multiply(member_area, member_normals, out=member_normals).swapaxes(0, 1))
        patch_normal = _normalize_rows(patch_sum.T, normals.T).T
        # Lexicographic argmin per face: consistency, then the static rank.
        ranked = np.take(consistency, ranked_ids)
        run_min = np.minimum.reduceat(ranked, cand_starts)
        hits = np.flatnonzero(ranked == np.repeat(run_min, run_lengths))
        picked = ranked_ids[hits[np.searchsorted(hits, cand_starts)]]
        guidance = np.take(patch_normal, picked, axis=1)

        np.take(guidance, first, axis=1, out=gdiff, mode="clip")
        np.take(guidance, second, axis=1, out=second_guidance, mode="clip")
        np.subtract(gdiff, second_guidance, out=gdiff)
        weight = gaussian(dot_terms(gdiff, gdiff, gdiff), params.sigma_r)
        np.take(weight, slot_pair, out=blend.data, mode="clip")
        blend.data *= slot_spatial
        summed = np.ascontiguousarray((blend @ normals.T).T)
        normals = _normalize_rows(summed.T, normals.T).T
    return normals.T


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
    check_count("v_iter", v_iter, 0)
    counts = np.diff(topo.vertex_face_offsets)
    isolated = counts == 0
    if isolated.any():
        warnings.warn(
            f"{int(isolated.sum())} isolated vertices are not moved by the "
            "vertex update",
            stacklevel=2,
        )
    # Axis-major arrays, (3 axes, 3 corners, F) per iteration, so every
    # operation runs over whole columns. Each vertex sums its faces' pulls
    # in ascending face id, from +0.0: row v of the incidence matrix holds
    # a 1.0 at column corner·F + face for each face corner on v, and
    # scipy's matvec adds 1.0·pull, which is exact, in column order.
    faces = mesh.faces
    n_faces = mesh.n_faces
    by_vertex = np.argsort(faces.ravel(), kind="stable")  # face·3 + corner
    incidence = sp.csr_array(
        (np.ones(len(by_vertex)), by_vertex % 3 * n_faces + by_vertex // 3, topo.vertex_face_offsets),
        shape=(mesh.n_vertices, 3 * n_faces),
    )
    divisor = np.where(isolated, 1, counts).astype(np.float64)
    axis_normals = np.ascontiguousarray(normals.T)[:, None, :]  # (3 axes, 1, F)

    positions = np.ascontiguousarray(mesh.vertices.T)  # (3 axes, V)
    for _ in range(v_iter):
        tri = np.take(positions, faces.T, axis=1)
        cent = mean_terms(tri.swapaxes(0, 1))
        np.subtract(cent[:, None, :], tri, out=tri)
        gap = dot_terms(tri, axis_normals, tri)  # n · (centroid − corner)
        pull = np.multiply(axis_normals, gap, out=tri)
        shift = np.stack([incidence @ pull[a].reshape(-1) for a in range(3)])
        positions = positions + shift / divisor
    return mesh.with_vertices(positions.T)


_FILTERS = {
    UnfParams: filter_unf,
    BnfParams: filter_bnf,
    GnfParams: filter_gnf,
    L1Params: filter_l1median,
}

PARAM_TYPES = {p.method: p for p in _FILTERS}


def filter_normals(
    topo: TopologyCache, geometry: FaceGeometry, params: DenoiseParams, labels=None
) -> np.ndarray:
    """Dispatch to the backend named by the params type."""
    try:
        backend = _FILTERS[type(params)]
    except KeyError:
        raise TypeError(f"not a denoise params object: {params!r}") from None
    # By keyword: perfbench/spans.py hooks read these arguments by name.
    return backend(topo=topo, geometry=geometry, params=params, labels=labels)


def denoise(mesh: TriMesh, params: DenoiseParams, labels=None) -> TriMesh:
    """Full denoise: filter normals, within the clusters of *labels* if
    given (from :func:`meshseg.segment.segment`), then fit vertices."""
    topo = mesh.topology
    geometry = face_geometry(mesh)
    normals = filter_normals(topo, geometry, params, labels)
    return vertex_update(mesh, topo, normals, params.v_iter)
