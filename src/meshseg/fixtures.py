"""Procedural test meshes: cube, icosahedron, plane.

All three shapes share the ``subdiv`` convention: each original edge is
split into ``max(subdiv, 1)`` segments, giving 12*m^2 faces for the cube,
20*m^2 for the icosahedron and 2*m^2 for the plane. Subdivision happens
inside the original flat facets (no re-projection), so the cube keeps 6
planar sides and the icosahedron keeps 20 planar patches at any
resolution. Shared points are generated once and referenced by index,
which makes the meshes watertight by construction, not by tolerance.
"""

from __future__ import annotations

import numpy as np

from .core import TriMesh

FIXTURE_SHAPES = ("cube", "icosahedron", "plane")


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
    m = max(int(subdiv), 1)
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
    m = max(int(subdiv), 1)
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
    m = max(int(subdiv), 1)
    base = _ico_base()
    if m == 1:
        return base
    topo = base.topology
    bverts = base.vertices

    n_edge_pts = m - 1
    n_interior = (m - 1) * (m - 2) // 2
    edge_block = len(bverts)
    interior_block = edge_block + topo.n_edges * n_edge_pts

    vertices = [bverts]
    # Interior points of each base edge, walking low id -> high id.
    t = np.arange(1, m, dtype=np.float64)[:, None] / m
    for lo, hi in topo.edges:
        vertices.append(bverts[lo] + t * (bverts[hi] - bverts[lo]))

    def edge_point(eid: int, step_from_lo: int) -> int:
        return edge_block + eid * n_edge_pts + (step_from_lo - 1)

    edge_of = {}
    for eid, (lo, hi) in enumerate(topo.edges):
        edge_of[(int(lo), int(hi))] = eid
        edge_of[(int(hi), int(lo))] = eid

    faces = []
    for fid, (a, b, c) in enumerate(base.faces):
        a, b, c = int(a), int(b), int(c)
        pa, pb, pc = bverts[a], bverts[b], bverts[c]
        # Interior lattice points are owned by this face alone.
        interior_ids = {}
        pts = []
        local = 0
        for i in range(1, m):
            for j in range(1, m - i):
                pts.append(pa + (i / m) * (pb - pa) + (j / m) * (pc - pa))
                interior_ids[(i, j)] = interior_block + fid * n_interior + local
                local += 1
        if pts:
            vertices.append(np.asarray(pts))

        def lattice(i: int, j: int) -> int:
            if i == 0 and j == 0:
                return a
            if i == m and j == 0:
                return b
            if i == 0 and j == m:
                return c
            if j == 0:  # edge a-b
                return edge_point(edge_of[(a, b)], i if a < b else m - i)
            if i == 0:  # edge a-c
                return edge_point(edge_of[(a, c)], j if a < c else m - j)
            if i + j == m:  # edge b-c, parameterized by j from b
                return edge_point(edge_of[(b, c)], j if b < c else m - j)
            return interior_ids[(i, j)]

        for i in range(m):
            for j in range(m - i):
                faces.append((lattice(i, j), lattice(i + 1, j), lattice(i, j + 1)))
                if i + j <= m - 2:
                    faces.append(
                        (lattice(i + 1, j), lattice(i + 1, j + 1), lattice(i, j + 1))
                    )

    return TriMesh(np.concatenate(vertices), np.asarray(faces))


def make_fixture(shape: str, subdiv: int) -> TriMesh:
    """Build one of the named fixture shapes (see FIXTURE_SHAPES)."""
    if shape == "cube":
        return cube(subdiv)
    if shape == "icosahedron":
        return icosahedron(subdiv)
    if shape == "plane":
        return plane(subdiv)
    raise ValueError(f"unknown fixture shape {shape!r}; expected one of {FIXTURE_SHAPES}")
