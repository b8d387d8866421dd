"""Tests for the mesh container, topology cache, and local queries."""

import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshseg.core
from meshseg import cube, icosahedron, plane
from meshseg.cli import EXIT_OK, main
from meshseg.core import (
    TopologyCache,
    TriMesh,
    build_topology,
    cell_block,
    face_geometry,
    gaussian,
    stencil_pairs,
    vertex_normals,
)
from meshseg.denoise import BnfParams, UnfParams, denoise
from meshseg.errors import (
    DegenerateFaceError,
    InconsistentWindingError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    ZeroAreaFaceError,
)
from meshseg.fileio import write_obj
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import PrefilterParams, prefilter
from meshseg.segment import SegmentParams, segment

from flap_oracle import flap_of_edge


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
    """The moved mesh shares the frozen face array; its positions are a
    frozen copy of the input."""
    mesh = single_triangle()
    shifted = mesh.vertices + 1.0
    moved = mesh.with_vertices(shifted)
    assert np.shares_memory(moved.faces, mesh.faces)
    assert not moved.faces.flags.writeable
    assert not np.shares_memory(moved.vertices, shifted)
    assert not moved.vertices.flags.writeable
    np.testing.assert_allclose(moved.vertices, mesh.vertices + 1.0)


@pytest.mark.parametrize("shape", [(8, 2), (8, 4), (8,), (8, 3, 1)])
def test_with_vertices_rejects_a_wrong_shape(shape):
    with pytest.raises(ValueError, match="shape"):
        cube(1).with_vertices(np.zeros(shape))


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
    """The CSR offsets ascend from 0 and step by each vertex's face count."""
    mesh = cube(1)
    topo = build_topology(mesh)
    counts = np.diff(topo.vertex_face_offsets)
    for vid in range(mesh.n_vertices):
        assert counts[vid] == np.count_nonzero((mesh.faces == vid).any(axis=1))
    assert topo.vertex_face_offsets[0] == 0
    # Every face appears exactly three times across the table.
    assert topo.vertex_face_offsets[-1] == 3 * mesh.n_faces


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


@pytest.mark.parametrize("mesh", [cube(3), icosahedron(2), plane(4)], ids=repr)
def test_flipped_face_rejected(mesh):
    """Reversing one face makes each of its interior edges run twice in
    the same direction; the error names those edges."""
    topo = build_topology(mesh)  # the fixtures themselves pass
    face = int(np.flatnonzero((topo.face_adjacent >= 0).all(axis=1))[0])
    faces = mesh.faces.copy()
    faces[face] = faces[face, ::-1]
    with pytest.raises(InconsistentWindingError) as info:
        build_topology(TriMesh(mesh.vertices, faces))
    for edge in topo.edges[topo.face_edges[face]].tolist():
        assert str(edge) in str(info.value)


def test_winding_error_names_at_most_eight_edges():
    mesh = cube(4)
    faces = mesh.faces.copy()
    faces[::2] = faces[::2, ::-1]
    with pytest.raises(InconsistentWindingError) as info:
        build_topology(TriMesh(mesh.vertices, faces))
    assert str(info.value).count("[") == 9


# Vertex 0 with unit steps along each axis on either side of it.
STAR = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
     [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
)


def tetrahedron(a, b, c, d):
    return [[a, c, b], [a, b, d], [a, d, c], [b, c, d]]


@pytest.mark.parametrize(
    "faces",
    [
        tetrahedron(0, 1, 2, 3) + tetrahedron(0, 4, 5, 6),
        tetrahedron(0, 1, 2, 3) + [[0, 4, 5]],
        [[0, 1, 2], [0, 4, 5]],
    ],
    ids=["two-closed-fans", "closed-and-open-fan", "two-open-fans"],
)
def test_bowtie_vertex_rejected(faces):
    """Every edge has at most two faces and the winding agrees, but the
    faces around vertex 0 form two fans."""
    build_topology(TriMesh(STAR[:4], tetrahedron(0, 1, 2, 3)))  # one fan passes
    with pytest.raises(NonManifoldVertexError, match=r"\[0\]"):
        build_topology(TriMesh(STAR, faces))


# ---------------------------------------------------------------------------
# The topology a mesh builds once and carries to its moved copies
# ---------------------------------------------------------------------------


def _assert_same_topology(carried, fresh):
    for slot in TopologyCache.__slots__:
        if slot == "mean_edge_length":
            assert isinstance(carried.mean_edge_length, float)
            assert carried.mean_edge_length == fresh.mean_edge_length
        else:
            np.testing.assert_array_equal(getattr(carried, slot), getattr(fresh, slot))


def _noisy_cube():
    return add_noise(cube(4), NoiseSpec(0.4, "normal", seed=5))


@pytest.mark.parametrize(
    "make",
    [
        lambda mesh: prefilter(mesh, PrefilterParams(alpha=5.0, beta=5.0, sigma_w=2.0)),
        lambda mesh: add_noise(mesh, NoiseSpec(0.3, "isotropic", seed=9)),
        lambda mesh: denoise(mesh, BnfParams(sigma_r=0.4, n_iter=3, v_iter=3)),
    ],
    ids=["prefilter", "add_noise", "denoise"],
)
def test_carried_topology_equals_a_fresh_build(make):
    mesh = _noisy_cube()
    out = make(mesh)
    assert not np.array_equal(out.vertices, mesh.vertices)
    # Carried, not rebuilt: the connectivity arrays are the input's own.
    assert out.topology.face_adjacent is mesh.topology.face_adjacent
    assert out.topology.flap_vertices is mesh.topology.flap_vertices
    _assert_same_topology(out.topology, build_topology(out))


def test_segment_with_prefilter_reads_one_flap_table(monkeypatch):
    """The prefilter's system and the relaxed mesh's edge field both
    evaluate the input's own flap table: neither builds another."""
    mesh, tables = _noisy_cube(), []
    flap_coefficients = sys.modules["meshseg.edgeop"]._flap_coefficients

    def spy(moved, topo):
        tables.append(topo.flap_vertices)
        return flap_coefficients(moved, topo)

    for module in ("meshseg.edgeop", "meshseg.prefilter"):
        monkeypatch.setattr(sys.modules[module], "_flap_coefficients", spy)
    segment(mesh, SegmentParams(0.05), prefilter_params=PrefilterParams(5.0, 5.0, 2.0))
    assert len(tables) == 2
    assert all(table is mesh.topology.flap_vertices for table in tables)


def test_topology_is_built_once_per_mesh():
    mesh = cube(2)
    assert mesh.topology is mesh.topology


def test_threads_racing_for_the_topology_each_get_a_complete_one():
    """Readers that race on an unbuilt topology may each build it, but
    none may see a partial table."""
    fresh = build_topology(cube(6))
    n_threads = 8

    def read(mesh, start):
        start.wait(timeout=60)
        topo = mesh.topology
        # Snapshot now: a table filled in later would pass a check made after.
        return SimpleNamespace(**{s: getattr(topo, s, None) for s in TopologyCache.__slots__})

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            mesh, start = cube(6), threading.Barrier(n_threads)
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                futures = [pool.submit(read, mesh, start) for _ in range(n_threads)]
                seen = [f.result(timeout=60) for f in futures]
            for snapshot in seen:
                _assert_same_topology(snapshot, fresh)
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("n_vertices", [7, 9])
def test_with_vertices_rejects_a_new_vertex_count(n_vertices):
    with pytest.raises(ValueError, match="expected 8 vertices"):
        cube(1).with_vertices(np.zeros((n_vertices, 3)))


@pytest.fixture
def build_count(monkeypatch):
    """Number of build_topology calls made since the fixture was set up."""
    calls = []
    original = meshseg.core.build_topology

    def counted(mesh):
        calls.append(mesh)
        return original(mesh)

    monkeypatch.setattr(meshseg.core, "build_topology", counted)
    return calls


@pytest.mark.parametrize(
    "command, flags",
    [
        ("segment", ["--dthr", "0.05", "--prefilter", "--dump-norms"]),
        ("denoise", ["--method", "bnf", "--params", "0.4,3,3",
                     "--use-clusters", "--dthr", "0.05", "--prefilter"]),
    ],
    ids=["segment", "denoise"],
)
def test_cli_builds_the_topology_once(tmp_path, capsys, build_count, command, flags):
    path = tmp_path / "noisy.obj"
    write_obj(_noisy_cube(), path)
    build_count.clear()
    assert main([command, str(path), *flags]) == EXIT_OK
    assert len(build_count) == 1


def test_segment_then_two_denoises_build_the_topology_once(build_count):
    noisy = _noisy_cube()
    mesh = TriMesh(noisy.vertices, noisy.faces)
    build_count.clear()
    labels = segment(mesh, SegmentParams(d_thr=0.05), PrefilterParams())
    for params in (BnfParams(0.4, 3, 3), UnfParams(0.6, 3, 3)):
        denoise(mesh, params, labels=labels)
    assert len(build_count) == 1


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


@pytest.mark.parametrize("k", [-300, -260, 330])
def test_face_geometry_of_a_mesh_scaled_past_float_range_squares(k):
    """cube(3) scaled by 2**k, whose cross products square to below or
    above float range: the normals keep cube(3)'s bits, the areas scale
    by exactly 2**(2k), and no warning escapes."""
    mesh = cube(3)
    scaled = TriMesh(np.ldexp(mesh.vertices, k), mesh.faces)
    geo = face_geometry(mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geo2 = face_geometry(scaled)
    assert geo2.normals.tobytes() == geo.normals.tobytes()
    assert geo2.areas.tobytes() == np.ldexp(geo.areas, 2 * k).tobytes()


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
    with pytest.raises(ValueError, match="boundary edge"):
        flap_of_edge(mesh, topo, eid)


def _shuffled_cube():
    rng = np.random.default_rng(4)
    mesh = add_noise(cube(3), NoiseSpec(0.3, "normal", seed=4))
    vertex_order, face_order = rng.permutation(mesh.n_vertices), rng.permutation(mesh.n_faces)
    return TriMesh(mesh.vertices[vertex_order], np.argsort(vertex_order)[mesh.faces[face_order]])


@pytest.mark.parametrize(
    "make",
    [lambda: cube(3), lambda: icosahedron(2), lambda: plane(3), _shuffled_cube],
    ids=["cube3", "icosahedron2", "plane3", "shuffled-cube3"],
)
def test_flap_table_matches_the_one_edge_flaps(make):
    """Row i of the topology's flap table is the scalar oracle's flap of
    interior edge i; plane(3) has boundary edges, which get no row."""
    mesh = make()
    topo = build_topology(mesh)
    interior = np.flatnonzero(~topo.boundary_edge_mask)
    assert topo.interior_edge_ids.tobytes() == interior.tobytes()
    assert topo.flap_vertices.shape == (len(interior), 4)
    assert topo.flap_vertices.dtype == np.int64 and not topo.flap_vertices.flags.writeable
    want = [flap_of_edge(mesh, topo, int(eid)).vertex_ids for eid in interior]
    assert topo.flap_vertices.tolist() == [list(ids) for ids in want]


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


def _meshes_for_geometry_oracles():
    """Closed, open and noisy meshes, and one with an unused vertex."""
    noisy = add_noise(icosahedron(3), NoiseSpec(0.4, "normal", seed=3))
    lone = TriMesh(np.vstack([noisy.vertices, [[5.0, 5.0, 5.0]]]), noisy.faces)
    return [icosahedron(3), cube(4), plane(5), noisy, lone]


def reference_vertex_normals(mesh):
    """Area-weighted vertex normals with one ``np.add.at`` per corner."""
    geometry = face_geometry(mesh)
    weighted = geometry.normals * geometry.areas[:, None]
    out = np.zeros((mesh.n_vertices, 3))
    for k in range(3):
        np.add.at(out, mesh.faces[:, k], weighted)
    norms = np.linalg.norm(out, axis=1)
    nz = norms > 0.0
    out[nz] /= norms[nz, None]
    return out


@pytest.mark.parametrize("index", range(5))
def test_vertex_normals_match_add_at(index):
    """One bincount over the corners, corner-major, adds in the order of
    three ``np.add.at`` passes: the same bits."""
    mesh = _meshes_for_geometry_oracles()[index]
    assert vertex_normals(mesh).tobytes() == reference_vertex_normals(mesh).tobytes()


@pytest.mark.parametrize("index", range(5))
def test_face_geometry_matches_numpy_reductions(index):
    """``face_geometry`` gives the bits of np.cross, np.linalg.norm and
    mean over the (F, 3 corners, 3) triangle array."""
    mesh = _meshes_for_geometry_oracles()[index]
    tri = mesh.vertices[mesh.faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    twice_area = np.linalg.norm(cross, axis=1)
    geometry = face_geometry(mesh)
    assert geometry.normals.tobytes() == (cross / twice_area[:, None]).tobytes()
    assert geometry.areas.tobytes() == (0.5 * twice_area).tobytes()
    assert geometry.centroids.tobytes() == tri.mean(axis=1).tobytes()


# ---------------------------------------------------------------------------
# Cell-grid stencil
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("reach", [1, 2])
def test_stencil_pairs_yield_every_near_pair(reach):
    """Every (query, box) pair whose per-axis gap is at most reach * cell
    comes out when boxes no wider than a cell sit at their low corners and
    the block is widened by one cell below; queries outside the sites'
    grid are no problem."""
    rng = np.random.default_rng(4)
    queries = rng.uniform(-1.0, 2.0, size=(80, 3))
    lo = rng.uniform(0.0, 1.0, size=(50, 3))
    hi = lo + rng.uniform(0.0, 0.25, size=(50, 3))
    cell = 0.25
    found = set()
    for q, s in stencil_pairs(queries, lo, cell, cell_block(range(-reach - 1, reach + 1))):
        found |= set(zip(q.tolist(), s.tolist()))
    gap = np.maximum(lo[None] - queries[:, None], queries[:, None] - hi[None]).max(axis=2)
    near = set(zip(*(a.tolist() for a in np.nonzero(gap <= reach * cell))))
    assert near and near <= found


def test_stencil_pairs_yield_each_pair_at_most_once():
    """A site sits in one cell, so no call yields a (query, site) pair
    twice, whatever the distinct offsets."""
    rng = np.random.default_rng(11)
    queries = rng.uniform(-1.0, 2.0, size=(120, 3))
    sites = rng.uniform(0.0, 1.0, size=(90, 3))
    for offsets in (cell_block(range(-1, 2)), cell_block(range(-3, 3)), [(1, 0, -1), (0, 0, 0)]):
        batches = stencil_pairs(queries, sites, 0.2, offsets)
        pairs = np.concatenate([q * len(sites) + s for q, s in batches])
        assert len(pairs) and len(np.unique(pairs)) == len(pairs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stencil_pairs_yield_exactly_the_offset_cells(seed):
    """A (query, site) pair comes out exactly when the site's cell minus
    the query's cell is one of the offsets, for any set of distinct
    (dx, dy, dz) rows in any order."""
    rng = np.random.default_rng(seed)
    queries = rng.uniform(-0.5, 1.5, size=(70, 3))
    sites = rng.uniform(0.0, 1.0, size=(60, 3))
    cell = 0.25
    block = cell_block(range(-2, 3))
    offsets = block[rng.choice(len(block), size=9, replace=False)]
    found = [pair for q, s in stencil_pairs(queries, sites, cell, offsets) for pair in zip(q, s)]
    step = np.floor(sites / cell)[None] - np.floor(queries / cell)[:, None]  # (Q, S, 3)
    hit = (step[:, :, None] == offsets[None, None]).all(axis=3).any(axis=2)
    assert len(found) == len(set(found))
    assert set(found) == set(zip(*np.nonzero(hit)))


def test_cell_block_is_x_major():
    block = cell_block(range(-1, 2))
    assert block.shape == (27, 3)
    assert block[:3].tolist() == [[-1, -1, -1], [-1, -1, 0], [-1, -1, 1]]
    assert block[13].tolist() == [0, 0, 0]
    assert (np.diff(block @ [9, 3, 1]) == 1).all()


def test_stencil_pairs_edge_cases():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    none = np.zeros((0, 3))
    assert list(stencil_pairs(none, points, 1.0, cell_block(range(-1, 2)))) == []
    assert list(stencil_pairs(points, none, 1.0, cell_block(range(-1, 2)))) == []

    # 1e13 cells apart on each axis: far more than an int64 key over the
    # full cell box could count, but only two cells are occupied.
    far = np.array([[0.0, 0.0, 0.0], [1e-7, 0.0, 0.0], [1e7, 1e7, 1e7]])
    found = set()
    for q, s in stencil_pairs(far, far, 1e-6, cell_block(range(-1, 2))):
        found |= set(zip(q.tolist(), s.tolist()))
    assert found == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}


def test_stencil_pairs_far_queries_gather_nothing():
    """Queries whose cell coordinates lie beyond int64 (1e30 cells out)
    gather no site, and their cast raises no warning."""
    sites = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    queries = np.array([[1e30, 0.0, 0.0], [0.1, 0.2, 0.3], [-1e25, 1e25, 1e300]])
    found = set()
    for q, s in stencil_pairs(queries, sites, 0.5, cell_block(range(-1, 2))):
        found |= set(zip(q.tolist(), s.tolist()))
    assert found == {(1, 0)}


@pytest.mark.parametrize("cell", [1e-300, 5e-324])
def test_stencil_pairs_widen_a_cell_too_small_for_the_sites(cell):
    """Sites 1e300 (or, past float range, infinitely many) cells apart:
    the grid widens the cell to 2⁻²⁰ of their span, still 2²⁰ cells
    apart, so each site meets only itself."""
    sites = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    found = set()
    for q, s in stencil_pairs(sites, sites, cell, cell_block(range(-1, 2))):
        found |= set(zip(q.tolist(), s.tolist()))
    assert found == {(0, 0), (1, 1)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sites=st.integers(1, 40),
    shift=st.sampled_from([0.0, 1.0, -3e5, 1e12, -1e12]),
    spread=st.sampled_from([1e-6, 1.0, 1e3]),
    cell_power=st.integers(-300, 0),
    reach=st.integers(1, 2),
)
def test_stencil_pairs_find_near_pairs_at_any_cell(seed, n_sites, shift, spread, cell_power, reach):
    """Clouds translated by up to 1e12, with cells down to 1e-300 of the
    sites' span: every (query, site) pair within reach · cell on each axis
    comes out, and none twice. Some queries repeat sites, some sit within
    reach · cell of one, so near pairs exist at every cell size."""
    rng = np.random.default_rng(seed)
    sites = shift + rng.normal(size=(n_sites, 3)) * spread
    span = float(np.ptp(sites, axis=0).max()) or spread
    cell = span * 10.0**cell_power
    picks = rng.integers(0, n_sites, size=10)
    queries = np.vstack(
        [
            sites[picks[:5]],
            sites[picks[5:]] + rng.uniform(-1.0, 1.0, size=(5, 3)) * (reach * cell),
            shift + rng.normal(size=(20, 3)) * spread,
        ]
    )
    batches = list(stencil_pairs(queries, sites, cell, cell_block(range(-reach - 1, reach + 2))))
    pairs = np.concatenate([q * n_sites + s for q, s in batches])
    assert len(np.unique(pairs)) == len(pairs)
    gap = np.abs(sites[None] - queries[:, None]).max(axis=2)
    near = np.flatnonzero((gap <= reach * cell).ravel())
    assert len(near) >= 5 and np.isin(near, pairs).all()


def test_stencil_pairs_yield_one_batch_per_offset():
    """Each offset's pairs come whole, in one batch with the queries
    ascending, and the batches of all offsets add up to every pair
    exactly once."""
    rng = np.random.default_rng(8)
    sites = rng.uniform(0.0, 1.0, size=(300, 3))
    queries = rng.uniform(0.0, 1.0, size=(200, 3))
    batches = list(stencil_pairs(queries, sites, 1.0, cell_block(range(-1, 2))))
    assert len(batches) == 27
    assert all((np.diff(q) >= 0).all() for q, _ in batches)
    pairs = np.concatenate([q * 300 + s for q, s in batches])
    assert np.array_equal(np.sort(pairs), np.arange(200 * 300))


def test_stencil_pairs_frees_set_up_before_first_yield():
    """At its first yield the generator holds the site order and the
    occupied cells' keys and run starts (16 bytes a site here, two sites
    a cell, each site in one cell) and the per-axis rank tables (96 bytes
    a query for the four steps per axis of the triangle-box block), not
    the per-site set-up arrays; the bound leaves room for one offset's
    working arrays."""
    mesh = plane(64)
    tri = mesh.vertices[mesh.faces]
    lo = tri.min(axis=1)
    cell = float((tri.max(axis=1) - lo).max())
    needed = 16 * len(lo) + 96 * mesh.n_vertices
    tracemalloc.start()
    try:
        pairs = stencil_pairs(mesh.vertices, lo, cell, cell_block(range(-2, 2)))
        next(pairs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * needed


@pytest.mark.parametrize("sigma", [0.35, 1e-3, 2.0, 1e150])
def test_gaussian_has_the_bits_of_the_written_out_kernel(sigma):
    """``gaussian`` divides by −2σ² where the filters negated d2 first;
    IEEE negation is exact, so it gives ``np.exp(-d2 / (2.0 * s * s))``'s
    bytes, returned fresh, into a given ``out`` and in place, on 0,
    subnormals, 1e300, inf and random magnitudes."""
    rng = np.random.default_rng(5)
    special = [0.0, 5e-324, 2.2e-310, 2.2250738585072014e-308, 1e300, np.inf]
    d2 = np.concatenate([special, rng.random(1001) * 10.0 ** rng.uniform(-30, 30, 1001)])
    with np.errstate(all="ignore"):
        want = np.exp(-d2 / (2.0 * sigma * sigma)).tobytes()
        assert gaussian(d2, sigma).tobytes() == want
        out = np.full_like(d2, np.nan)
        assert gaussian(d2, sigma, out=out) is out
        assert out.tobytes() == want
        in_place = d2.copy()
        gaussian(in_place, sigma, out=in_place)
        assert in_place.tobytes() == want
