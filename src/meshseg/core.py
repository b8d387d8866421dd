"""Indexed triangle mesh, derived adjacency, and per-face geometry.

The mesh is deliberately dumb storage (positions + index triples); all
derived quantities live in :class:`TopologyCache` and :class:`FaceGeometry`
so they can be built once and shared read-only between pipeline stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise, product

import numpy as np

from .errors import (
    BoundaryEdgeError,
    DegenerateFaceError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    ZeroAreaFaceError,
)


class TriMesh:
    """Triangle mesh: float64 positions (V, 3) and int64 face triples (F, 3).

    Faces use counter-clockwise winding. Both arrays are copied on
    construction and frozen, so instances can be shared across threads
    without defensive copies.
    """

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces):
        v = np.array(vertices, dtype=np.float64)
        f = np.array(faces, dtype=np.int64)
        if v.size == 0:
            v = v.reshape(0, 3)
        if f.size == 0:
            f = f.reshape(0, 3)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must have shape (V, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"faces must have shape (F, 3), got {f.shape}")
        if not np.isfinite(v).all():
            bad = np.flatnonzero(~np.isfinite(v).all(axis=1))[:8].tolist()
            raise NonFiniteVertexError(f"vertices with non-finite coordinates: {bad}")
        if f.size:
            if f.min() < 0 or f.max() >= len(v):
                raise IndexError("face vertex index out of range")
            repeated = (
                (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
            )
            if repeated.any():
                bad = np.flatnonzero(repeated)[:8].tolist()
                raise DegenerateFaceError(
                    f"faces reference a vertex more than once: {bad}"
                )
        v.setflags(write=False)
        f.setflags(write=False)
        self.vertices = v
        self.faces = f

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def with_vertices(self, vertices) -> "TriMesh":
        """New mesh with replaced positions and identical connectivity."""
        return TriMesh(vertices, self.faces)

    def __repr__(self) -> str:
        return f"TriMesh(V={self.n_vertices}, F={self.n_faces})"


class TopologyCache:
    """Edge list and adjacency tables derived from one mesh's faces.

    Attributes
    ----------
    edges : (E, 2) int64
        Unique undirected edges, each row sorted (v0 < v1), rows in
        lexicographic order.
    edge_faces : (E, 2) int64
        Incident faces per edge, ascending face id; column 1 is -1 on
        boundary edges.
    face_edges : (F, 3) int64
        Edge id across each face corner: column k is the edge between
        face vertex k and vertex (k + 1) % 3.
    face_adjacent : (F, 3) int64
        Neighbor face across the corresponding ``face_edges`` column,
        -1 where that edge is a boundary edge.
    vertex_face_offsets, vertex_face_ids : CSR arrays
        ``vertex_face_ids[vertex_face_offsets[v]:vertex_face_offsets[v+1]]``
        are the faces incident to vertex v, ascending.
    edge_lengths : (E,) float64
    mean_edge_length : float
        Mean over all edges; 0.0 for an edgeless mesh.
    """

    __slots__ = (
        "edges",
        "edge_faces",
        "face_edges",
        "face_adjacent",
        "vertex_face_offsets",
        "vertex_face_ids",
        "edge_lengths",
        "mean_edge_length",
        "n_vertices",
        "n_faces",
    )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edge_mask(self) -> np.ndarray:
        """(E,) bool, True where the edge has exactly one incident face."""
        return self.edge_faces[:, 1] < 0

    @property
    def interior_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_edge_mask)


def build_topology(mesh: TriMesh) -> TopologyCache:
    """Build the unique-edge list and adjacency tables for *mesh*.

    Raises
    ------
    NonManifoldEdgeError
        If any edge has more than two incident faces.
    """
    topo = TopologyCache.__new__(TopologyCache)
    topo.n_vertices = mesh.n_vertices
    topo.n_faces = mesh.n_faces

    faces = mesh.faces
    # Halfedges in corner order: (v0,v1), (v1,v2), (v2,v0) per face, each
    # sorted and keyed as v0 * V + v1, which orders edges like their rows.
    halfedges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    n_v = mesh.n_vertices
    keys, inverse, counts = np.unique(
        halfedges[:, 0] * n_v + halfedges[:, 1], return_inverse=True, return_counts=True
    )
    edges = np.stack((keys // n_v, keys % n_v), axis=1)
    if counts.max(initial=0) > 2:
        bad = np.flatnonzero(counts > 2)[:8]
        raise NonManifoldEdgeError(
            f"edges with more than two incident faces: {edges[bad].tolist()}"
        )

    # Group halfedges by edge id; stable sort keeps face ids ascending
    # within each edge, so edge_faces[:, 0] < edge_faces[:, 1].
    order = np.argsort(inverse, kind="stable")
    grouped_faces = order // 3
    starts = np.concatenate(([0], np.cumsum(counts)))
    edge_faces = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_faces[:, 0] = grouped_faces[starts[:-1]]
    second = counts == 2
    edge_faces[second, 1] = grouped_faces[starts[1:][second] - 1]

    face_edges = inverse.reshape(-1, 3).astype(np.int64)

    incident = edge_faces[face_edges]  # (F, 3, 2)
    own = np.arange(mesh.n_faces, dtype=np.int64)[:, None]
    face_adjacent = np.where(incident[:, :, 0] == own, incident[:, :, 1], incident[:, :, 0])

    vflat = faces.ravel()
    vorder = np.argsort(vflat, kind="stable")
    topo.vertex_face_ids = (vorder // 3).astype(np.int64)
    vcounts = np.bincount(vflat, minlength=mesh.n_vertices)
    topo.vertex_face_offsets = np.concatenate(([0], np.cumsum(vcounts))).astype(np.int64)

    deltas = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    topo.edge_lengths = np.linalg.norm(deltas, axis=1)
    topo.mean_edge_length = float(topo.edge_lengths.mean()) if len(edges) else 0.0

    for arr in (edges, edge_faces, face_edges, face_adjacent):
        arr.setflags(write=False)
    topo.edges = edges
    topo.edge_faces = edge_faces
    topo.face_edges = face_edges
    topo.face_adjacent = face_adjacent
    topo.edge_lengths.setflags(write=False)
    topo.vertex_face_ids.setflags(write=False)
    topo.vertex_face_offsets.setflags(write=False)
    return topo


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face unit normals (F, 3), areas (F,), centroids (F, 3)."""

    normals: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray


def face_geometry(mesh: TriMesh) -> FaceGeometry:
    """Unit normals, areas, and centroids for every face.

    Raises
    ------
    ZeroAreaFaceError
        If any face has exactly zero area (undefined normal).
    """
    tri = mesh.vertices[mesh.faces]  # (F, 3, 3)
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    twice_area = np.linalg.norm(cross, axis=1)
    if np.any(twice_area == 0.0):
        bad = np.flatnonzero(twice_area == 0.0)[:8].tolist()
        raise ZeroAreaFaceError(f"faces with zero area: {bad}")
    normals = cross / twice_area[:, None]
    areas = 0.5 * twice_area
    centroids = tri.mean(axis=1)
    for arr in (normals, areas, centroids):
        arr.setflags(write=False)
    return FaceGeometry(normals=normals, areas=areas, centroids=centroids)


# Pairs per batch from stencil_pairs: caps its callers' working memory.
_PAIR_BATCH = 1 << 12


def _rank(table, values):
    """Index of each value in the sorted, non-empty *table*; -1 if absent."""
    at = np.searchsorted(table, values).clip(max=len(table) - 1)
    return np.where(table[at] == values, at, -1)


def _cell_index(site_lo, site_hi, cell: float):
    """Each site registered in every cell its box touches, as (sorted cell
    keys, their sites, the occupied x/y/z coordinates, the occupied
    columns); the per-registration set-up arrays end with the call.

    A cell is keyed by the ranks of its occupied coordinates: the x and
    y ranks give a column, whose rank pairs with the z rank. Keys stay
    below the number of registrations squared however far apart the
    sites are.
    """
    lo = np.floor(site_lo / cell).astype(np.int64)
    span = np.floor(site_hi / cell).astype(np.int64) - lo + 1
    sites, cells = [], []
    for step in product(*(range(n) for n in span.max(axis=0))):
        inside = np.flatnonzero((np.asarray(step) < span).all(axis=1))
        sites.append(inside)
        cells.append(lo[inside] + step)
    sites, cells = np.concatenate(sites), np.concatenate(cells)
    (xs, ix), (ys, iy), (zs, iz) = (np.unique(c, return_inverse=True) for c in cells.T)
    columns, site_columns = np.unique(ix * len(ys) + iy, return_inverse=True)
    site_keys = site_columns * len(zs) + iz
    order = np.argsort(site_keys, kind="stable")
    return site_keys[order], sites[order], (xs, ys, zs), columns


def stencil_pairs(query_points, site_lo, site_hi, cell: float, reach: int):
    """Yield ``(query ids, site ids)`` candidate pairs on a grid of *cell*
    cubes, one stencil offset at a time, in batches of at most
    ``_PAIR_BATCH`` pairs plus those of one query.

    A site sits in every cell its box ``site_lo..site_hi`` touches; a
    query gathers the cells up to *reach* cells from its own on each
    axis. So every site whose box lies within ``reach * cell`` of a query
    on each axis is yielded for it at least once.
    """
    if len(query_points) == 0 or len(site_lo) == 0:
        return
    sorted_keys, sorted_sites, (xs, ys, zs), columns = _cell_index(site_lo, site_hi, cell)
    # Ranks of the coordinates near each query, per axis; a coordinate or
    # cell that holds no site ranks and keys to -1. A generator keeps its
    # locals across yields, so the set-up arrays are freed first.
    query_cells = np.floor(query_points / cell).astype(np.int64)
    near = query_cells[:, :, None] + np.arange(-reach, reach + 1)
    rx, ry, rz = (_rank(axis, near[:, i]).T for i, axis in enumerate((xs, ys, zs)))
    del query_cells, near
    for x, y in product(rx, ry):
        column = np.where((x >= 0) & (y >= 0), _rank(columns, x * len(ys) + y), -1)
        for z in rz:
            keys = np.where((column >= 0) & (z >= 0), column * len(zs) + z, -1)
            first = np.searchsorted(sorted_keys, keys, side="left")
            counts = np.searchsorted(sorted_keys, keys, side="right") - first
            ends = np.cumsum(counts)
            marks = np.arange(0, ends[-1] + _PAIR_BATCH, _PAIR_BATCH)
            for a, b in pairwise(np.unique(np.searchsorted(ends, marks, side="right"))):
                n = counts[a:b]
                slots = np.arange(n.sum()) + np.repeat(first[a:b] - np.cumsum(n) + n, n)
                yield np.repeat(np.arange(a, b), n), sorted_sites[slots]


@dataclass(frozen=True)
class Flap:
    """The two faces around an interior edge.

    ``p1`` and ``p3`` are the shared edge endpoints (p1 has the smaller
    vertex id); ``p2`` and ``p4`` are the opposite vertices of the lower-
    and higher-id incident face respectively.
    """

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    faces: tuple[int, int]
    vertex_ids: tuple[int, int, int, int]


def _opposite_vertex(faces: np.ndarray, face_id: int, v0: int, v1: int) -> int:
    # Face indices are distinct, so the sum identifies the third vertex.
    return int(faces[face_id].sum() - v0 - v1)


def flap_of_edge(mesh: TriMesh, topo: TopologyCache, edge_id: int) -> Flap:
    """Flap (p1..p4 and incident face pair) of the interior edge *edge_id*.

    Raises
    ------
    BoundaryEdgeError
        If the edge has only one incident face.
    """
    f_a, f_b = (int(x) for x in topo.edge_faces[edge_id])
    if f_b < 0:
        raise BoundaryEdgeError(f"edge {edge_id} is a boundary edge")
    v1, v3 = (int(x) for x in topo.edges[edge_id])
    v2 = _opposite_vertex(mesh.faces, f_a, v1, v3)
    v4 = _opposite_vertex(mesh.faces, f_b, v1, v3)
    pts = mesh.vertices
    return Flap(
        p1=pts[v1],
        p2=pts[v2],
        p3=pts[v3],
        p4=pts[v4],
        faces=(f_a, f_b),
        vertex_ids=(v1, v2, v3, v4),
    )


def vertex_normals(mesh: TriMesh, geometry: FaceGeometry | None = None) -> np.ndarray:
    """Area-weighted vertex normals, (V, 3); zero rows for isolated vertices."""
    if geometry is None:
        geometry = face_geometry(mesh)
    weighted = geometry.normals * geometry.areas[:, None]
    out = np.zeros((mesh.n_vertices, 3), dtype=np.float64)
    for k in range(3):
        np.add.at(out, mesh.faces[:, k], weighted)
    norms = np.linalg.norm(out, axis=1)
    nz = norms > 0.0
    out[nz] /= norms[nz, None]
    return out
