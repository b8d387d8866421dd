"""Procedural test meshes: cube, icosahedron, plane.

All three shapes share the ``subdiv`` convention, a checked integer >= 0
(2.5, -3, NaN and True are ValueErrors). Each original edge is split
into ``max(subdiv, 1)`` segments, giving 12*m^2 faces for the cube,
20*m^2 for the icosahedron and 2*m^2 for the plane. Subdivision happens
inside the original flat facets (no re-projection), so the cube keeps 6
planar sides and the icosahedron keeps 20 planar patches at any
resolution. Shared points are generated once and referenced by index,
which makes the meshes watertight by construction, not by tolerance.

All three are array code. The cube and the plane cut quad sides from
integer lattices. The icosahedron lists its 12 base vertices, then the
m - 1 points of each of the 30 base edges (from low vertex id to high),
then the interior points of each of the 20 faces. One (20, m+1, m+1)
table holds the vertex id of lattice point (i, j) of each face (a, b, c),
the point a + i/m (b - a) + j/m (c - a): edge points come from the base
mesh's ``face_edges``, read backwards where the face walks an edge from
its high end, and the triangles are cut from the table per (i, j).
"""

from __future__ import annotations

import numpy as np

from .core import TriMesh, check_count


def _segments(subdiv) -> int:
    """Segments per original edge: max(subdiv, 1) of a checked count."""
    check_count("subdiv", subdiv, 0)
    return max(subdiv, 1)


def _grid_side(origin, u_axis, v_axis, m, base):
    """Integer lattice points and triangles of one m-by-m quad side."""
    ii, jj = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    pts = (
        np.asarray(origin)[None, None, :]
        + ii[:, :, None] * np.asarray(u_axis)[None, None, :]
        + jj[:, :, None] * np.asarray(v_axis)[None, None, :]
    )
    idx = base + ii * (m + 1) + jj
    a = idx[:-1, :-1]
    b = idx[1:, :-1]
    c = idx[1:, 1:]
    d = idx[:-1, 1:]
    upper = np.stack([a, b, c], axis=-1).reshape(-1, 3)
    lower = np.stack([a, c, d], axis=-1).reshape(-1, 3)
    return pts.reshape(-1, 3), np.concatenate([upper, lower])


def cube(subdiv: int = 1) -> TriMesh:
    """Unit cube [0, 1]^3 with 12*m^2 outward-facing triangles."""
    m = _segments(subdiv)
    # (origin, u, v) per side, in lattice units, with u x v pointing out.
    sides = [
        ((0, 0, m), (1, 0, 0), (0, 1, 0)),  # top    +z
        ((0, 0, 0), (0, 1, 0), (1, 0, 0)),  # bottom -z
        ((m, 0, 0), (0, 1, 0), (0, 0, 1)),  # +x
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)),  # -x
        ((0, m, 0), (0, 0, 1), (1, 0, 0)),  # +y
        ((0, 0, 0), (1, 0, 0), (0, 0, 1)),  # -y
    ]
    keys = []
    tris = []
    base = 0
    for origin, u_axis, v_axis in sides:
        pts, faces = _grid_side(origin, u_axis, v_axis, m, base)
        keys.append(pts)
        tris.append(faces)
        base += (m + 1) ** 2
    keys = np.concatenate(keys)
    # Corner/edge lattice points repeat across sides; integer keys make
    # the dedup exact.
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    faces = inverse.reshape(-1)[np.concatenate(tris)]
    return TriMesh(uniq.astype(np.float64) / m, faces)


def plane(subdiv: int = 1) -> TriMesh:
    """Unit square grid in the z = 0 plane, normals +z, open boundary."""
    m = _segments(subdiv)
    pts, faces = _grid_side((0, 0, 0), (1, 0, 0), (0, 1, 0), m, 0)
    return TriMesh(pts.astype(np.float64) / m, faces)


_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def _ico_base() -> TriMesh:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    raw = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=np.float64,
    )
    return TriMesh(raw / np.linalg.norm(raw[0]), np.array(_ICO_FACES))


def icosahedron(subdiv: int = 0) -> TriMesh:
    """Unit-circumradius icosahedron, each of the 20 flat faces split
    into m^2 coplanar triangles (m = max(subdiv, 1)).

    Edge points are generated once per undirected base edge and shared
    by both incident faces, so patch borders contain no duplicated or
    nearly-equal vertices.
    """
    m = _segments(subdiv)
    base = _ico_base()
    topo = base.topology
    bverts = base.vertices
    n_edges, n_faces = topo.n_edges, base.n_faces
    n_interior = (m - 1) * (m - 2) // 2
    edge_block = len(bverts)
    interior_block = edge_block + n_edges * (m - 1)

    # Points of each base edge, walking low id -> high id.
    lo, hi = bverts[topo.edges[:, 0]], bverts[topo.edges[:, 1]]
    t = np.arange(1, m, dtype=np.float64)[:, None] / m
    edge_pts = lo[:, None, :] + t * (hi - lo)[:, None, :]
    # Interior points (i, j) of each face (a, b, c), i, j >= 1, i + j < m.
    ii, jj = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    inner = (ii >= 1) & (jj >= 1) & (ii + jj <= m - 1)
    i_m, j_m = np.argwhere(inner).T[:, :, None] / m
    pa, pb, pc = bverts[base.faces][:, :, None, :].swapaxes(0, 1)
    interior_pts = pa + i_m * (pb - pa) + j_m * (pc - pa)

    # Vertex ids along each edge from its low end, both ends included.
    inside = edge_block + np.arange(n_edges * (m - 1)).reshape(n_edges, m - 1)
    edge_ids = np.column_stack([topo.edges[:, 0], inside, topo.edges[:, 1]])
    # Each face's edges a-b (stepped by i from a), b-c and a-c (by j from
    # b and from a); face_edges column k joins face vertex k to k + 1.
    start, end = base.faces[:, [0, 1, 0]], base.faces[:, [1, 2, 2]]
    step = np.stack([ii, jj, jj])
    step = np.where((start < end)[:, :, None, None], step, m - step)
    on_edge = edge_ids[topo.face_edges[:, :, None, None], step]
    # (20, m+1, m+1) lattice ids, read where i + j <= m: edge a-b at j = 0,
    # a-c at i = 0, b-c at i + j = m (the corners are edge ends), and the
    # face's own interior points in (i, j) order.
    table = np.where(jj == 0, on_edge[:, 0], np.where(ii == 0, on_edge[:, 2], on_edge[:, 1]))
    table[:, inner] = interior_block + np.arange(n_faces * n_interior).reshape(n_faces, -1)

    # Per face and (i, j): the upper triangle, then the lower one where it fits.
    p00, p10, p11, p01 = table[:, :-1, :-1], table[:, 1:, :-1], table[:, 1:, 1:], table[:, :-1, 1:]
    tris = np.stack([p00, p10, p01, p10, p11, p01], axis=-1).reshape(n_faces, m, m, 2, 3)
    corner = ii[:-1, :-1] + jj[:-1, :-1]
    keep = np.stack([corner <= m - 1, corner <= m - 2], axis=-1)
    vertices = np.concatenate([bverts, edge_pts.reshape(-1, 3), interior_pts.reshape(-1, 3)])
    return TriMesh(vertices, tris[:, keep].reshape(-1, 3))


_FIXTURES = {"cube": cube, "icosahedron": icosahedron, "plane": plane}
FIXTURE_SHAPES = tuple(_FIXTURES)


def make_fixture(shape: str, subdiv: int) -> TriMesh:
    """Build one of the named fixture shapes (see FIXTURE_SHAPES)."""
    if shape not in _FIXTURES:
        raise ValueError(f"unknown fixture shape {shape!r}; expected one of {FIXTURE_SHAPES}")
    return _FIXTURES[shape](subdiv)
