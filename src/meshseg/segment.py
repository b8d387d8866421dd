"""Face clustering: region growing bounded by a per-edge measure, then
absorption of small clusters into their best large neighbor.

Both steps work on the face adjacency across interior edges. The
measure is an (E,) array, +inf on boundary edges: ||D(e)|| from
:func:`~meshseg.edgeop.edge_operator_field`, or for the "normal-angle"
baseline the angle between the two faces' normals. Growing
(:func:`region_grow`) keeps only the edges whose measure lies strictly
below ``d_thr`` and takes their connected components with the package's
own :func:`~meshseg.core.components`, numbered by their minimum face id,
so labels are deterministic. Refinement reassigns every face of each
undersized cluster to the large cluster in its surrounding ring whose
normals agree best (sum of cosines). One breadth-first walk
(:func:`_rings`) over the topology's ``face_adjacent`` table, the one
face graph, grows every small face's ring until it is ``ring_depth``
hops deep and holds a large-cluster face. Decisions read a snapshot of
the pre-refinement labels, so they cannot cascade. The module uses numpy
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClusterLabels,
    FaceGeometry,
    TopologyCache,
    TriMesh,
    check_count,
    components,
    dot_terms,
    face_geometry,
)
from .edgeop import edge_operator_field
from .errors import LabelLengthMismatchError
from .prefilter import PrefilterParams, prefilter

BASELINE_MODES = ("edgeop", "normal-angle")


@dataclass(frozen=True)
class SegmentParams:
    """Knobs for :func:`segment`.

    d_thr is the strict region-growing bound on ||D(e)|| ("edgeop" mode)
    or on the dihedral angle in radians ("normal-angle" mode). Clusters
    below min_cluster_size faces are absorbed; since no cluster is
    smaller than one face, min_cluster_size=1 keeps the raw labels.
    """

    d_thr: float
    min_cluster_size: int = 50
    ring_depth: int = 2
    baseline_mode: str = "edgeop"

    def __post_init__(self):
        if not (self.d_thr >= 0):  # also rejects NaN
            raise ValueError(f"d_thr must be >= 0, got {self.d_thr}")
        check_count("min_cluster_size", self.min_cluster_size, 1)
        check_count("ring_depth", self.ring_depth, 1)
        if self.baseline_mode not in BASELINE_MODES:
            raise ValueError(
                f"baseline_mode must be one of {BASELINE_MODES}, "
                f"got {self.baseline_mode!r}"
            )


def _rings(topo: TopologyCache, sources: np.ndarray, depth: int, target: np.ndarray):
    """Pairs (i, g), as two arrays, of every face g within max(*depth*,
    hops to the nearest *target* face) edge-adjacency hops of face
    sources[i], the source itself excluded; a source whose component
    holds no target other than itself covers that whole component.

    All sources advance one BFS level per step over ``face_adjacent``,
    and past *depth* only those whose ring holds no (F,) *target* face
    yet. A level is kept as ascending keys owner * F + face; each
    expansion is sorted and its repeats dropped (:func:`_distinct`). On
    an undirected graph the neighbours of level k lie in levels k - 1, k
    and k + 1, so the two latest levels are all that must be removed from
    each expansion.
    """
    n = topo.n_faces
    level = np.arange(len(sources), dtype=np.int64) * n + sources
    previous = level[:0]
    reached = [previous]
    found = np.zeros(len(sources), dtype=bool)
    hop = 1
    while level.size:
        if hop > depth:
            level = level[~found[level // n]]
        face = level % n
        step = topo.face_adjacent[face]
        following = _distinct((step + (level - face)[:, None])[step >= 0])
        seen = np.concatenate((previous, level))
        following = following[~np.isin(following, seen, assume_unique=True)]
        found[following[target[following % n]] // n] = True
        reached.append(following)
        previous, level = level, following
        hop += 1
    keys = np.concatenate(reached)
    return keys // n, keys % n


def region_grow(topo: TopologyCache, measure: np.ndarray, d_thr: float) -> ClusterLabels:
    """Connected components of faces joined across edges whose (E,)
    *measure* (||D(e)||, or a normal angle) lies strictly below *d_thr*,
    numbered by their minimum face id.

    Boundary edges carry an infinite measure, so they never merge faces; a
    d_thr of +inf merges each connected component into one cluster, and
    d_thr = 0 isolates every face.
    """
    if len(measure) != topo.n_edges:
        raise LabelLengthMismatchError(
            f"got {len(measure)} edge values, topology has {topo.n_edges} edges"
        )
    a, b = topo.edge_faces[(measure < d_thr) & ~topo.boundary_edge_mask].T
    # Each root is its component's minimum face id: ranks number them in face order.
    labels = _dense_ranks(components(topo.n_faces, a, b), topo.n_faces)
    return ClusterLabels.from_array(labels, topo.n_faces)


def _dense_ranks(values: np.ndarray, n: int) -> np.ndarray:
    """Each of the *values*, all in 0..n-1, replaced by its rank among the
    distinct values: ``np.unique(values, return_inverse=True)[1]`` without a sort."""
    return (np.cumsum(np.bincount(values, minlength=n) > 0) - 1)[values]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct non-negative *values* ascending, as ``np.unique`` gives
    them, from a sort and an adjacent-difference mask."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) != 0]


def refine(
    topo: TopologyCache, geometry: FaceGeometry, clusters: ClusterLabels, params: SegmentParams
) -> ClusterLabels:
    """Absorb clusters smaller than ``min_cluster_size`` into large ones.

    Every face of an undersized cluster is reassigned to the large
    cluster with the highest sum of normal cosines over the face's ring:
    the faces within max(``ring_depth``, hops to the nearest large-cluster
    face) edge-adjacency hops, found by one breadth-first walk from all
    small faces at once (:func:`_rings`). Ties pick the lowest label.
    Faces whose connectivity component contains no large cluster fall
    back to the globally largest cluster, so if *no* cluster is large,
    everything merges into the largest one. Decisions read a snapshot of
    the input labels, so nothing cascades. Labels are recompacted
    afterward; with no cluster below the floor the input is returned.
    """
    sizes = clusters.cluster_sizes
    small_label = sizes < params.min_cluster_size
    if not small_label.any():
        return clusters

    snapshot = clusters.labels
    new_labels = snapshot.copy()
    is_small = small_label[snapshot]
    small_faces = np.flatnonzero(is_small)
    # A small face is stranded when its connectivity component holds no
    # large face; with no large face at all, every small face is. Ties on
    # size go to the lowest label id (np.argmax).
    root = components(topo.n_faces, *topo.edge_faces[topo.interior_edge_ids].T)
    has_large = np.zeros(topo.n_faces, dtype=bool)
    has_large[root[~is_small]] = True
    stranded = ~has_large[root[small_faces]]
    new_labels[small_faces[stranded]] = np.argmax(sizes)
    sources = small_faces[~stranded]

    owner, face = _rings(topo, sources, params.ring_depth, ~is_small)
    large = ~is_small[face]
    owner, face = owner[large], face[large]
    normals = geometry.normals
    cosines = dot_terms(normals[face].T, normals[sources[owner]].T)
    n_labels = clusters.cluster_count
    keys, group = np.unique(owner * n_labels + snapshot[face], return_inverse=True)
    score = np.bincount(group, weights=cosines)
    owner, label = keys // n_labels, keys % n_labels
    # Per owner: highest score first. The keys ascend and the sort is
    # stable, so tied scores keep the lowest label first.
    order = np.lexsort((-score, owner))
    first = order[np.diff(owner[order], prepend=-1) != 0]
    new_labels[sources[owner[first]]] = label[first]

    return ClusterLabels.from_array(_dense_ranks(new_labels, n_labels), topo.n_faces)


def _dihedral_angles(topo: TopologyCache, geometry: FaceGeometry) -> np.ndarray:
    """Baseline measure: the (E,) angle in radians between the normals of
    each interior edge's two faces, +inf on boundary edges."""
    angles = np.full(topo.n_edges, np.inf)
    interior = topo.interior_edge_ids
    n_a = geometry.normals[topo.edge_faces[interior, 0]]
    n_b = geometry.normals[topo.edge_faces[interior, 1]]
    angles[interior] = np.arccos(np.clip(dot_terms(n_a.T, n_b.T), -1.0, 1.0))
    return angles


def segment(
    mesh: TriMesh,
    params: SegmentParams,
    prefilter_params: PrefilterParams | None = None,
) -> ClusterLabels:
    """Full segmentation pipeline: optional prefilter, growing, refinement.

    When *prefilter_params* is given, the per-edge measure and the
    refinement normals are computed on the prefiltered
    positions; the labels still apply to *mesh* face-for-face because the
    prefilter never touches connectivity.
    """
    work = mesh if prefilter_params is None else prefilter(mesh, prefilter_params)
    topo = work.topology
    geometry = face_geometry(work)
    if params.baseline_mode == "normal-angle":
        measure = _dihedral_angles(topo, geometry)
    else:
        measure = edge_operator_field(work, topo)
    clusters = region_grow(topo, measure, params.d_thr)
    # By keyword: perfbench/spans.py hooks read these arguments by name.
    return refine(topo, geometry, clusters=clusters, params=params)
