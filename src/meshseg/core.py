"""Indexed triangle mesh, derived adjacency, and per-face geometry.

The mesh is storage (positions + index triples) plus its connectivity, a
:class:`TopologyCache` built on first use of :attr:`TriMesh.topology`,
kept, and carried to the meshes :meth:`TriMesh.with_vertices` makes from
it. :class:`FaceGeometry` depends on positions and is built where needed.
Every stage checks face labels with :func:`label_array` and weighs
with one Gaussian, :func:`gaussian`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import (
    DegenerateFaceError,
    InconsistentWindingError,
    LabelLengthMismatchError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    ZeroAreaFaceError,
)


class TriMesh:
    """Triangle mesh: float64 positions (V, 3) and int64 face triples (F, 3).

    Faces use counter-clockwise winding. Both arrays are copied on
    construction and frozen, so instances can be shared across threads
    without defensive copies. Threads that reach an unbuilt
    :attr:`topology` together may each build it; any complete one serves.
    """

    __slots__ = ("vertices", "faces", "_topology")

    def __init__(self, vertices, faces):
        v = _vertex_array(vertices)
        f = np.array(faces, dtype=np.int64)
        if f.size == 0:
            f = f.reshape(0, 3)
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"faces must have shape (F, 3), got {f.shape}")
        if f.min(initial=0) < 0 or f.max(initial=-1) >= len(v):
            raise IndexError("face vertex index out of range")
        repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if repeated.any():
            bad = np.flatnonzero(repeated)[:8].tolist()
            raise DegenerateFaceError(f"faces reference a vertex more than once: {bad}")
        f.setflags(write=False)
        self.vertices = v
        self.faces = f
        self._topology = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def topology(self) -> "TopologyCache":
        """Edge and adjacency tables of the faces, built on first use."""
        if self._topology is None:
            # Assigned only once complete, so no reader sees a partial table.
            self._topology = build_topology(self)
        return self._topology

    def with_vertices(self, vertices) -> "TriMesh":
        """New mesh with replaced positions and identical connectivity: it
        shares this mesh's frozen face array, and a topology built here is
        carried over, its arrays shared and only ``mean_edge_length``
        recomputed. Only the new positions are checked; ValueError if V
        changes."""
        if len(vertices) != self.n_vertices:
            raise ValueError(f"expected {self.n_vertices} vertices, got {len(vertices)}")
        moved = TriMesh.__new__(TriMesh)
        moved.vertices = _vertex_array(vertices)
        moved.faces = self.faces
        moved._topology = None
        if self._topology is not None:
            length = _mean_edge_length(moved.vertices, self._topology.edges)
            moved._topology = replace(self._topology, mean_edge_length=length)
        return moved

    def __repr__(self) -> str:
        return f"TriMesh(V={self.n_vertices}, F={self.n_faces})"


def _vertex_array(vertices) -> np.ndarray:
    """*vertices* as a new frozen float64 (V, 3) array of finite values."""
    v = np.array(vertices, dtype=np.float64)
    if v.size == 0:
        v = v.reshape(0, 3)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"vertices must have shape (V, 3), got {v.shape}")
    if not np.isfinite(v).all():
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))[:8].tolist()
        raise NonFiniteVertexError(f"vertices with non-finite coordinates: {bad}")
    v.setflags(write=False)
    return v


def check_count(name: str, value, minimum: int) -> None:
    """ValueError unless *value* is an integer (Python or numpy, not bool)
    at or above *minimum*: NaN, inf and 2.5 all fail here, not in ``range``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True, slots=True, eq=False)
class TopologyCache:
    """Edge list and adjacency tables derived from one mesh's faces.

    Read it as ``mesh.topology``; :func:`build_topology` builds a fresh one.

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
    vertex_face_offsets : (V + 1,) int64
        CSR offsets of the vertex-face incidence: vertex v lies on
        ``vertex_face_offsets[v + 1] - vertex_face_offsets[v]`` faces.
    interior_edge_ids : (n_interior,) int64
        Ascending ids of the edges with two incident faces.
    flap_vertices : (n_interior, 4) int64
        Flap vertex ids per interior edge: the edge's ends (lower id
        first) at p1, p3 and the third corners of its lower- and
        higher-id faces at p2, p4.
    mean_edge_length : float
        Mean over all edges at the mesh's positions; 0.0 without edges.
    n_faces : int
        Number of faces of the mesh.
    """

    edges: np.ndarray
    edge_faces: np.ndarray
    face_edges: np.ndarray
    face_adjacent: np.ndarray
    vertex_face_offsets: np.ndarray
    interior_edge_ids: np.ndarray
    flap_vertices: np.ndarray
    mean_edge_length: float
    n_faces: int

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edge_mask(self) -> np.ndarray:
        """(E,) bool, True where the edge has exactly one incident face."""
        return self.edge_faces[:, 1] < 0


def build_topology(mesh: TriMesh) -> TopologyCache:
    """Build the unique-edge list and adjacency tables for *mesh*.

    Raises
    ------
    NonManifoldEdgeError
        If any edge has more than two incident faces.
    InconsistentWindingError
        If two faces traverse their shared edge in the same direction.
    NonManifoldVertexError
        If the faces around a vertex form more than one fan.
    """
    faces = mesh.faces
    # Halfedges in corner order: (v0,v1), (v1,v2), (v2,v0) per face, each
    # sorted and keyed as v0 * V + v1, which orders edges like their rows.
    halfedges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    forward = halfedges[:, 0] < halfedges[:, 1]
    halfedges.sort(axis=1)
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
    # Consistent winding runs each interior edge once from its lower vertex.
    flipped = (counts == 2) & (np.bincount(inverse[forward], minlength=len(keys)) != 1)
    if flipped.any():
        bad = np.flatnonzero(flipped)[:8]
        raise InconsistentWindingError(
            f"edges traversed twice in the same direction: {edges[bad].tolist()}"
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

    # The twin halfedges of each interior edge, the lower-id face's first.
    # Halfedge 3 * f + k runs from corner k of face f: corner k + 2 faces it.
    twins = order[np.stack((starts[:-1][second], starts[1:][second] - 1), axis=1)]
    _reject_bowties(faces, *twins.T)
    interior_edge_ids = np.flatnonzero(second)
    opposite = faces.ravel()[twins + 2 - 3 * (twins % 3 != 0)]
    flap_vertices = np.stack((edges[interior_edge_ids], opposite), axis=2).reshape(-1, 4)

    face_edges = inverse.reshape(-1, 3).astype(np.int64)

    incident = edge_faces[face_edges]  # (F, 3, 2)
    own = np.arange(mesh.n_faces, dtype=np.int64)[:, None]
    face_adjacent = np.where(incident[:, :, 0] == own, incident[:, :, 1], incident[:, :, 0])

    vcounts = np.bincount(faces.ravel(), minlength=n_v)
    vertex_face_offsets = np.concatenate(([0], np.cumsum(vcounts))).astype(np.int64)

    tables = (edges, edge_faces, face_edges, face_adjacent, vertex_face_offsets)
    for arr in (*tables, interior_edge_ids, flap_vertices):
        arr.setflags(write=False)
    return TopologyCache(
        *tables,
        interior_edge_ids,
        flap_vertices,
        _mean_edge_length(mesh.vertices, edges),
        mesh.n_faces,
    )


def _reject_bowties(faces: np.ndarray, one: np.ndarray, two: np.ndarray) -> None:
    """NonManifoldVertexError where the faces around a vertex form more than
    one fan. Halfedge ``3 * f + k`` runs from corner k of face f; *one* and
    *two* hold the twin halfedges of each interior edge. The corner after a
    halfedge links to the corner its twin runs from, the same vertex's next
    corner around it, so a vertex's linked corners are its fans."""
    after_one = one + 1 - 3 * (one % 3 == 2)
    after_two = two + 1 - 3 * (two % 3 == 2)
    fans = components(faces.size, np.r_[after_one, after_two], np.r_[two, one])
    roots = np.flatnonzero(fans == np.arange(faces.size))
    if len(roots) > np.count_nonzero(np.bincount(faces.ravel())):
        bad = np.flatnonzero(np.bincount(faces.ravel()[roots]) > 1)[:8].tolist()
        raise NonManifoldVertexError(f"vertices whose faces form more than one fan: {bad}")


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes 0..n-1 with
    edges (a[i], b[i]), as each node's root: the minimum node id of its
    component.

    Each round hooks, across every edge whose ends still have different
    roots, the larger root to the smaller (the smallest one offered wins),
    then follows root pointers until every node points at a root. A root
    only ever points at a smaller id of its own component, so the
    component's minimum id stays a root and becomes everyone's.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = np.flatnonzero(ra != rb)
        if not apart.size:
            return root
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


def _mean_edge_length(vertices: np.ndarray, edges: np.ndarray) -> float:
    """Mean length of the (E, 2) *edges* at *vertices*; 0.0 without edges."""
    if not len(edges):
        return 0.0
    return float(row_norms(vertices[edges[:, 0]] - vertices[edges[:, 1]]).mean())


# numpy reduces a short axis (3 or 4 long) one row at a time, several
# times slower than the same sums written as whole-column arithmetic.
# These helpers write them out in numpy's own order, so they give the
# same bits as the calls they replace.


def row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=-1)`` for 3-vectors on the last axis:
    sqrt((x² + y²) + z²)."""
    out = np.empty(rows.shape[:-1])
    tmp = np.empty_like(out)
    np.multiply(rows[..., 0], rows[..., 0], out=out)
    np.multiply(rows[..., 1], rows[..., 1], out=tmp)
    out += tmp
    np.multiply(rows[..., 2], rows[..., 2], out=tmp)
    out += tmp
    return np.sqrt(out, out=out)


def row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` for 3-vectors on the last axis: component k is
    a[k+1]·b[k+2] − a[k+2]·b[k+1], indices mod 3."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    tmp = np.empty(out.shape[:-1])
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(a[..., i], b[..., j], out=out[..., k])
        np.multiply(a[..., j], b[..., i], out=tmp)
        np.subtract(out[..., k], tmp, out=out[..., k])
    return out


def sum_terms(terms, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of a few equal-shape arrays (a sequence, or an array's
    leading axis) as numpy sums the axis that stacks them: its add-reduce
    starts from +0.0, so ((0.0 + t0) + t1) + t2. Plain (t0 + t1) + t2
    differs where every term is −0.0. Written into *out* if given. A ring's
    slot sum, einsum("fk,fki->fi"), is ``sum_terms((w * ring).swapaxes(0, 1))``."""
    first, *rest = terms
    out = np.add(first, 0.0, out=out)
    for term in rest:
        out += term
    return out


def dot_terms(a: np.ndarray, b: np.ndarray, prod: np.ndarray | None = None) -> np.ndarray:
    """The dot product of 3-vectors on the leading axis (x, y, z), as
    ``einsum`` sums a length-3 axis: ((0.0 + x·x′) + z·z′) + y·y′. Rows
    of (N, 3) arrays go in as their ``.T`` views. *prod*, if given,
    receives the products; it may be *a* or *b* itself."""
    prod = np.multiply(a, b, out=prod)
    return sum_terms((prod[0], prod[2], prod[1]))


def mean_terms(terms) -> np.ndarray:
    """The mean of a few equal-shape arrays: :func:`sum_terms` divided by
    their count, as ``mean`` over the stacking axis."""
    out = sum_terms(terms)
    out /= len(terms)
    return out


def check_sigma(name: str, sigma) -> None:
    """ValueError unless *sigma* is a scale :func:`gaussian` can use: > 0
    (NaN fails) with 2σ² not rounding to 0, where the weight at distance 0
    would be exp(0 / −0.0), NaN."""
    if not (sigma > 0 and 2.0 * sigma * sigma > 0):
        raise ValueError(f"{name} must be > 0 with 2*{name}**2 > 0, got {sigma!r}")


def gaussian(d2, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(−d2 / 2σ²) into *out* if given (it may be *d2*), with the bits of
    ``np.exp(-d2 / (2.0 * sigma * sigma))``: IEEE negation is exact, so
    dividing by the negated denominator gives the negated quotient. Check
    σ with :func:`check_sigma`."""
    out = np.divide(d2, -2.0 * sigma * sigma, out=out)
    return np.exp(out, out=out)


@dataclass(frozen=True)
class ClusterLabels:
    """Face labels 0..cluster_count-1; cluster_sizes[k] counts label k."""

    labels: np.ndarray
    cluster_count: int
    cluster_sizes: np.ndarray

    @classmethod
    def from_array(cls, labels, n_faces: int | None = None) -> "ClusterLabels":
        """Frozen labels from anything :func:`label_array` accepts; they
        must be non-negative and use every id 0..max (ValueError)."""
        labels = label_array(labels, n_faces)
        count = int(labels.max(initial=-1)) + 1
        if labels.min(initial=0) < 0:
            raise ValueError("labels must be non-negative")
        sizes = np.bincount(labels, minlength=count)
        if (sizes == 0).any():
            raise ValueError("labels must be contiguous: every id 0..max used")
        labels = labels.copy()
        labels.setflags(write=False)
        sizes.setflags(write=False)
        return cls(labels=labels, cluster_count=count, cluster_sizes=sizes)


def label_array(labels, n_faces: int | None = None) -> np.ndarray:
    """The face labels of *labels*, a :class:`ClusterLabels` or an array, as
    1-D int64. ValueError unless 1-D integers (not bool or float; empty
    passes, as ``np.asarray([])`` is float) within int64's range;
    LabelLengthMismatchError if *n_faces* is given and differs."""
    if isinstance(labels, ClusterLabels):
        labels = labels.labels
    arr = np.asarray(labels)
    if arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(
            f"labels must be a 1-D integer array, got {arr.dtype} of shape {arr.shape}"
        )
    int64_max = np.iinfo(np.int64).max
    if arr.dtype == np.uint64 and arr.max(initial=0) > int64_max:
        raise ValueError(f"labels must be at most {int64_max}, got {arr.max()}")
    if n_faces is not None and len(arr) != n_faces:
        raise LabelLengthMismatchError(f"expected {n_faces} labels, got {len(arr)}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FaceGeometry:
    """Per-face unit normals (F, 3), areas (F,), centroids (F, 3)."""

    normals: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray


# A cross product's norm below this, or an overflowed one, is measured
# again at a power-of-two scale: its squared components left float range.
_TINY_NORM = 2.0**-500


def face_geometry(mesh: TriMesh) -> FaceGeometry:
    """Unit normals, areas, and centroids for every face.

    A face whose cross product's norm overflows or falls below 2⁻⁵⁰⁰
    (its squared components left float range) is measured again from its
    edge vectors scaled by the power of two of their largest component,
    so a mesh scaled by any power of two keeps its normals bit for bit.
    Every other face keeps the bits of the plain formula. An area past
    float range reads 0.0 or inf; only an undefined normal is an error.

    Raises
    ------
    ZeroAreaFaceError
        If any face has exactly zero area (undefined normal).
    """
    corners = np.take(mesh.vertices, mesh.faces.T, axis=0)  # (3 corners, F, 3)
    edges = corners[1:] - corners[0]
    with np.errstate(over="ignore", invalid="ignore"):
        cross = row_cross(edges[0], edges[1])
        twice_area = row_norms(cross)
    redo = np.flatnonzero(~(twice_area >= _TINY_NORM) | (twice_area == np.inf))
    if len(redo):
        power = np.frexp(np.abs(edges[:, redo]).max(axis=(0, 2)))[1]
        scaled = np.ldexp(edges[:, redo], -power[:, None])
        cross[redo] = row_cross(scaled[0], scaled[1])
        twice_area[redo] = row_norms(cross[redo])
    if np.any(twice_area == 0.0):
        bad = np.flatnonzero(twice_area == 0.0)[:8].tolist()
        raise ZeroAreaFaceError(f"faces with zero area: {bad}")
    normals = cross / twice_area[:, None]
    if len(redo):
        with np.errstate(over="ignore"):
            twice_area[redo] = np.ldexp(twice_area[redo], 2 * power)
    areas = 0.5 * twice_area
    centroids = mean_terms(corners)
    for arr in (normals, areas, centroids):
        arr.setflags(write=False)
    return FaceGeometry(normals=normals, areas=areas, centroids=centroids)


def _rank(table, values):
    """Index of each value in the sorted, non-empty *table*; -1 if absent."""
    at = np.searchsorted(table, values).clip(max=len(table) - 1)
    return np.where(table[at] == values, at, -1)


def cell_block(steps) -> np.ndarray:
    """Every (dx, dy, dz) cell offset whose components are all in *steps*,
    in x-, then y-, then z-major order, as a (K, 3) int array."""
    return np.array(list(product(steps, repeat=3)), dtype=np.int64).reshape(-1, 3)


def stencil_pairs(query_points, sites, cell: float, offsets):
    """Yield ``(query ids, site ids)`` candidate pairs on a grid of *cell*
    cubes, all pairs of one stencil offset at a time, queries ascending.
    A caller with large per-pair temporaries slices them itself.

    A site sits in the one cell that holds it; for each (dx, dy, dz) row
    of *offsets* a query gathers the cell at that offset from its own
    (see :func:`cell_block`). So with distinct offsets each (query, site)
    pair is yielded at most once per call. A query may lie any finite
    distance from the sites.

    The cell is first widened to at least 2⁻²⁰ of the sites' bounding-box
    span and 2⁻⁵⁰ of their largest coordinate magnitude, so the sites'
    cell coordinates are exact integers below 2⁵⁰, at most 2²⁰ + 2 apart
    on each axis. An occupied cell is keyed by the mixed-radix offset of
    its coordinates from the sites' lowest cell, which stays below 2⁶¹.
    A wider cell only adds candidates, as each offset reaches as far.
    """
    if len(query_points) == 0 or len(sites) == 0:
        return
    cell = max(cell, np.ptp(sites, axis=0).max() * 2.0**-20, np.abs(sites).max() * 2.0**-50)
    site_cells = np.floor(sites / cell)
    corner = site_cells.min(axis=0)
    sizes = (site_cells.max(axis=0) - corner).astype(np.int64) + 1
    site_cells = (site_cells - corner).astype(np.int64)
    site_keys = (site_cells[:, 0] * sizes[1] + site_cells[:, 1]) * sizes[2] + site_cells[:, 2]
    sorted_sites = np.argsort(site_keys, kind="stable")
    site_keys = site_keys[sorted_sites]
    starts = np.flatnonzero(np.diff(site_keys, prepend=-1))
    cell_keys, cell_starts = site_keys[starts], np.append(starts, len(sites))
    # Per axis, the distinct offset steps, and each query's cell moved by
    # each step as an offset from the lowest site cell, -1 outside the
    # occupied box; the test runs on floats, so no far query is cast. A
    # generator keeps its locals across yields, so the set-up arrays are
    # freed first.
    steps = [np.unique(axis_steps, return_inverse=True) for axis_steps in np.asarray(offsets).T]
    with np.errstate(over="ignore"):  # a far query's quotient may pass float range
        query_cells = np.floor(query_points / cell) - corner
    moved = (query_cells[:, i] + step[:, None] for i, (step, _) in enumerate(steps))
    rx, ry, rz = (
        np.where((at >= 0) & (at < size), at, -1).astype(np.int64)
        for at, size in zip(moved, sizes)
    )
    del site_cells, site_keys, starts, query_cells
    columns_at = None
    for ix, iy, iz in zip(*(which for _, which in steps)):
        if columns_at != (ix, iy):  # consecutive offsets of one column share it
            x, y, columns_at = rx[ix], ry[iy], (ix, iy)
            column = np.where((x >= 0) & (y >= 0), x * sizes[1] + y, -1)
        z = rz[iz]
        at = _rank(cell_keys, np.where((column >= 0) & (z >= 0), column * sizes[2] + z, -1))
        first = cell_starts[at]
        counts = np.where(at >= 0, cell_starts[at + 1] - first, 0)
        ends = np.cumsum(counts)
        slots = np.arange(ends[-1]) + np.repeat(first + counts - ends, counts)
        yield np.repeat(np.arange(len(counts)), counts), sorted_sites[slots]


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Area-weighted vertex normals, (V, 3); zero rows for isolated vertices."""
    geometry = face_geometry(mesh)
    weighted = geometry.normals * geometry.areas[:, None]
    # One bincount over (vertex, axis) bins, corners in corner-major
    # order: each vertex sums its faces' weights corner by corner, then in
    # ascending face id, the order of one np.add.at per corner.
    bins = (mesh.faces.T[:, :, None] * 3 + np.arange(3)).ravel()
    weights = np.broadcast_to(weighted, (3, *weighted.shape)).ravel()
    out = np.bincount(bins, weights=weights, minlength=3 * mesh.n_vertices).reshape(-1, 3)
    norms = row_norms(out)
    nz = norms > 0.0
    out[nz] /= norms[nz, None]
    return out
