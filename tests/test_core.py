"""Tests for the mesh container, topology cache, and local queries."""

import tracemalloc

import numpy as np
import pytest

import meshseg.core
from meshseg import cube, icosahedron, plane
from meshseg.core import (
    TriMesh,
    build_topology,
    face_geometry,
    flap_of_edge,
    stencil_pairs,
    vertex_normals,
)
from meshseg.errors import (
    BoundaryEdgeError,
    DegenerateFaceError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    ZeroAreaFaceError,
)


def single_triangle():
    return TriMesh(
        vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        faces=np.array([[0, 1, 2]]),
    )


def two_triangle_flap():
    """Two faces sharing the edge (0, 2), bent 90 degrees at it."""
    vertices = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.5, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 0.0, 1.0],
        ]
    )
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(vertices=vertices, faces=faces)


# ---------------------------------------------------------------------------
# TriMesh construction and validation
# ---------------------------------------------------------------------------


def test_trimesh_copies_and_freezes_input():
    verts = np.zeros((3, 3))
    faces = np.array([[0, 1, 2]])
    mesh = TriMesh(vertices=verts, faces=faces)
    verts[0, 0] = 99.0
    assert mesh.vertices[0, 0] == 0.0
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.faces[0, 0] = 2


def test_trimesh_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TriMesh(vertices=np.zeros((3, 2)), faces=np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        TriMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1]]))


def test_trimesh_rejects_out_of_range_indices():
    with pytest.raises(IndexError):
        TriMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 3]]))
    with pytest.raises(IndexError):
        TriMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, -1]]))


def test_trimesh_rejects_repeated_vertex_in_face():
    with pytest.raises(DegenerateFaceError):
        TriMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 1]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trimesh_rejects_non_finite_coordinates(bad):
    verts = cube(2).vertices.copy()
    verts[5, 1] = bad
    with pytest.raises(NonFiniteVertexError, match=r"\[5\]"):
        TriMesh(verts, cube(2).faces)
    with pytest.raises(NonFiniteVertexError):
        cube(2).with_vertices(verts)


def test_with_vertices_keeps_faces_shared():
    mesh = single_triangle()
    moved = mesh.with_vertices(mesh.vertices + 1.0)
    assert moved.n_faces == mesh.n_faces
    np.testing.assert_array_equal(moved.faces, mesh.faces)
    np.testing.assert_allclose(moved.vertices, mesh.vertices + 1.0)


# ---------------------------------------------------------------------------
# Topology cache
# ---------------------------------------------------------------------------


def test_cube_topology_counts():
    """Unit cube at subdiv 1: 8 vertices, 12 faces, 18 edges, closed."""
    mesh = cube(1)
    topo = build_topology(mesh)
    assert mesh.n_vertices == 8
    assert mesh.n_faces == 12
    assert topo.n_edges == 18
    assert not topo.boundary_edge_mask.any()
    # Euler characteristic of a sphere-topology mesh: V - E + F = 2.
    assert mesh.n_vertices - topo.n_edges + mesh.n_faces == 2


@pytest.mark.parametrize("mesh", [cube(5), icosahedron(3), plane(4)], ids=repr)
def test_edges_are_the_sorted_unique_halfedge_rows(mesh):
    halfedges = np.sort(mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    rows, inverse, counts = np.unique(
        halfedges, axis=0, return_inverse=True, return_counts=True
    )
    topo = build_topology(mesh)
    np.testing.assert_array_equal(topo.edges, rows)
    np.testing.assert_array_equal(topo.face_edges.ravel(), inverse.ravel())
    np.testing.assert_array_equal(
        (topo.edge_faces >= 0).sum(axis=1), counts
    )


def test_cube_mean_edge_length_exact():
    """12 unit edges plus 6 sqrt(2) diagonals on the unit cube."""
    topo = build_topology(cube(1))
    expected = (12.0 + 6.0 * np.sqrt(2.0)) / 18.0
    assert topo.mean_edge_length == pytest.approx(expected, abs=1e-15)


def test_plane_topology_has_boundary():
    mesh = plane(2)
    topo = build_topology(mesh)
    assert mesh.n_vertices == 9
    assert mesh.n_faces == 8
    assert topo.n_edges == 16
    assert int(topo.boundary_edge_mask.sum()) == 8
    # Euler characteristic of a disk: V - E + F = 1.
    assert mesh.n_vertices - topo.n_edges + mesh.n_faces == 1


def test_icosahedron_topology_counts():
    mesh = icosahedron(1)
    topo = build_topology(mesh)
    assert (mesh.n_vertices, mesh.n_faces, topo.n_edges) == (12, 20, 30)
    assert not topo.boundary_edge_mask.any()


@pytest.mark.parametrize("subdiv", [1, 2, 3])
def test_subdivided_counts_scale_quadratically(subdiv):
    m = subdiv
    assert cube(m).n_faces == 12 * m * m
    assert icosahedron(m).n_faces == 20 * m * m
    assert plane(m).n_faces == 2 * m * m


def test_edges_are_sorted_and_unique():
    topo = build_topology(cube(2))
    edges = topo.edges
    assert (edges[:, 0] < edges[:, 1]).all()
    # Lexicographic order, no duplicates.
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    np.testing.assert_array_equal(order, np.arange(len(edges)))
    assert len(np.unique(edges, axis=0)) == len(edges)


def test_edge_faces_pair_ordering():
    """Interior edges store both incident faces in ascending face id."""
    topo = build_topology(cube(2))
    interior = topo.edge_faces[~topo.boundary_edge_mask]
    assert (interior[:, 0] < interior[:, 1]).all()
    boundary = build_topology(plane(2))
    rows = boundary.edge_faces[boundary.boundary_edge_mask]
    assert (rows[:, 1] == -1).all()
    assert (rows[:, 0] >= 0).all()


def test_face_edges_matches_edge_faces():
    mesh = cube(2)
    topo = build_topology(mesh)
    for face in range(mesh.n_faces):
        for eid in topo.face_edges[face]:
            assert face in topo.edge_faces[eid]


def test_face_adjacent_symmetry():
    topo = build_topology(cube(2))
    adj = topo.face_adjacent
    for face, row in enumerate(adj):
        for other in row:
            if other >= 0:
                assert face in adj[other]


def test_vertex_face_incidence_sorted():
    mesh = cube(1)
    topo = build_topology(mesh)
    for vid in range(mesh.n_vertices):
        start, stop = topo.vertex_face_offsets[vid : vid + 2]
        incident = topo.vertex_face_ids[start:stop]
        assert (np.diff(incident) > 0).all()
        for fid in incident:
            assert vid in mesh.faces[fid]
    # Every face appears exactly three times across the table.
    assert len(topo.vertex_face_ids) == 3 * mesh.n_faces


def test_nonmanifold_edge_rejected():
    """Three faces sharing one edge is not a manifold surface."""
    vertices = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0],
        ]
    )
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(NonManifoldEdgeError):
        build_topology(TriMesh(vertices=vertices, faces=faces))


# ---------------------------------------------------------------------------
# Face geometry
# ---------------------------------------------------------------------------


def test_face_geometry_single_triangle():
    geo = face_geometry(single_triangle())
    assert geo.areas[0] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(geo.normals[0], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(geo.centroids[0], [1.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-15)


def test_face_geometry_total_cube_area():
    geo = face_geometry(cube(3))
    assert geo.areas.sum() == pytest.approx(6.0, abs=1e-12)
    norms = np.linalg.norm(geo.normals, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_face_geometry_rigid_motion_invariance():
    """Areas are preserved and normals co-rotate under a rigid motion."""
    mesh = cube(2)
    geo = face_geometry(mesh)
    # Rotation about an arbitrary axis, plus a translation.
    rng = np.random.default_rng(7)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = 0.83
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    moved = mesh.with_vertices(mesh.vertices @ rot.T + np.array([3.0, -1.0, 2.0]))
    geo2 = face_geometry(moved)
    np.testing.assert_allclose(geo2.areas, geo.areas, atol=1e-12)
    np.testing.assert_allclose(geo2.normals, geo.normals @ rot.T, atol=1e-12)


def test_face_geometry_zero_area_rejected():
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ZeroAreaFaceError):
        face_geometry(TriMesh(vertices=vertices, faces=np.array([[0, 1, 2]])))


def test_face_order_permutation_consistency():
    """Reordering faces permutes per-face quantities identically."""
    mesh = cube(2)
    perm = np.random.default_rng(3).permutation(mesh.n_faces)
    shuffled = TriMesh(vertices=mesh.vertices, faces=mesh.faces[perm])
    geo = face_geometry(mesh)
    geo2 = face_geometry(shuffled)
    np.testing.assert_allclose(geo2.areas, geo.areas[perm], atol=1e-15)
    np.testing.assert_allclose(geo2.normals, geo.normals[perm], atol=1e-15)


# ---------------------------------------------------------------------------
# Flaps
# ---------------------------------------------------------------------------


def test_flap_of_edge_vertex_roles():
    mesh = two_triangle_flap()
    topo = build_topology(mesh)
    # Find the shared edge (0, 2).
    eid = int(np.flatnonzero((topo.edges == [0, 2]).all(axis=1))[0])
    flap = flap_of_edge(mesh, topo, eid)
    # p1 is the lower-id endpoint of the shared edge, p3 the higher.
    np.testing.assert_array_equal(flap.vertex_ids, [0, 1, 2, 3])
    np.testing.assert_allclose(flap.p1, mesh.vertices[0])
    np.testing.assert_allclose(flap.p3, mesh.vertices[2])
    # p2 belongs to the lower face id, p4 to the higher.
    np.testing.assert_allclose(flap.p2, mesh.vertices[1])
    np.testing.assert_allclose(flap.p4, mesh.vertices[3])
    assert tuple(flap.faces) == (0, 1)


def test_flap_of_boundary_edge_rejected():
    mesh = plane(1)
    topo = build_topology(mesh)
    eid = int(np.flatnonzero(topo.boundary_edge_mask)[0])
    with pytest.raises(BoundaryEdgeError):
        flap_of_edge(mesh, topo, eid)


def test_every_interior_cube_edge_has_flap():
    mesh = cube(2)
    topo = build_topology(mesh)
    for eid in topo.interior_edge_ids:
        flap = flap_of_edge(mesh, topo, int(eid))
        assert len(set(flap.vertex_ids)) == 4


# ---------------------------------------------------------------------------
# Vertex normals
# ---------------------------------------------------------------------------


def test_vertex_normals_flat_plane():
    mesh = plane(3)
    normals = vertex_normals(mesh)
    np.testing.assert_allclose(normals, np.tile([0.0, 0.0, 1.0], (mesh.n_vertices, 1)), atol=1e-15)


def test_vertex_normals_cube_corners():
    """Corner normals of the cube point along the diagonal directions."""
    mesh = cube(1)
    normals = vertex_normals(mesh)
    assert normals.shape == (8, 3)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    for vid, pos in enumerate(mesh.vertices):
        outward = pos - 0.5
        assert np.dot(normals[vid], outward) > 0.0


# ---------------------------------------------------------------------------
# Cell-grid stencil
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("reach", [1, 2])
def test_stencil_pairs_yield_every_near_pair(reach):
    """Every (query, box) pair whose per-axis gap is at most reach * cell
    comes out; queries outside the sites' grid are no problem."""
    rng = np.random.default_rng(4)
    queries = rng.uniform(-1.0, 2.0, size=(80, 3))
    lo = rng.uniform(0.0, 1.0, size=(50, 3))
    hi = lo + rng.uniform(0.0, 0.25, size=(50, 3))
    cell = 0.25
    found = set()
    for q, s in stencil_pairs(queries, lo, hi, cell, reach):
        found |= set(zip(q.tolist(), s.tolist()))
    gap = np.maximum(lo[None] - queries[:, None], queries[:, None] - hi[None]).max(axis=2)
    near = set(zip(*(a.tolist() for a in np.nonzero(gap <= reach * cell))))
    assert near and near <= found


def test_stencil_pairs_edge_cases():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    none = np.zeros((0, 3))
    assert list(stencil_pairs(none, points, points, 1.0, 1)) == []
    assert list(stencil_pairs(points, none, none, 1.0, 1)) == []

    # 1e13 cells apart on each axis: far more than an int64 key over the
    # full cell box could count, but only two cells are occupied.
    far = np.array([[0.0, 0.0, 0.0], [1e-7, 0.0, 0.0], [1e7, 1e7, 1e7]])
    found = set()
    for q, s in stencil_pairs(far, far, far, 1e-6, 1):
        found |= set(zip(q.tolist(), s.tolist()))
    assert found == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}


def test_stencil_pairs_batches_cap_memory():
    """Each offset's pairs come in batches of about _PAIR_BATCH, and the
    batches of all offsets add up to every pair exactly once."""
    rng = np.random.default_rng(8)
    sites = rng.uniform(0.0, 1.0, size=(300, 3))
    queries = rng.uniform(0.0, 1.0, size=(200, 3))
    batches = list(stencil_pairs(queries, sites, sites, 1.0, 1))
    assert max(len(q) for q, _ in batches) <= meshseg.core._PAIR_BATCH + 300
    pairs = np.concatenate([q * 300 + s for q, s in batches])
    assert np.array_equal(np.sort(pairs), np.arange(200 * 300))


def test_stencil_pairs_frees_set_up_before_first_yield():
    """At its first yield the generator holds the sorted keys and sites
    (16 bytes a registration) and the per-axis rank tables (72 bytes a
    query at reach 1), not the per-registration set-up arrays; the bound
    leaves room for one offset's working arrays."""
    mesh = plane(64)
    tri = mesh.vertices[mesh.faces]
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    cell = float((hi - lo).max())
    span = np.floor(hi / cell) - np.floor(lo / cell) + 1
    registrations = int(span.prod(axis=1).sum())
    needed = 16 * registrations + 72 * mesh.n_vertices
    tracemalloc.start()
    try:
        pairs = stencil_pairs(mesh.vertices, lo, hi, cell, 1)
        next(pairs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * needed
