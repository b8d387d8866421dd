"""A reference for the vertex step, and the tests that hold
``meshseg.denoise.vertex_update`` to it.

The reference walks the incidences vertex by vertex (each vertex's faces
in ascending id, from a stable argsort of the face table) with
``einsum`` and ``mean``; the library walks them face by face in
axis-major arrays with each sum spelled out. Every vertex adds its
faces' pulls in the same order, so positions must agree bit for bit.
"""

import warnings

import numpy as np
import pytest

from meshseg import cube
from meshseg.core import TriMesh, build_topology, face_geometry
from meshseg.denoise import vertex_update
from meshseg.noise import NoiseSpec, add_noise


def reference_vertex_update(mesh, topo, normals, v_iter):
    """The Jacobi vertex update in vertex-major order; isolated vertices
    stay put."""
    counts = np.diff(topo.vertex_face_offsets)
    faces = mesh.faces
    incident_face = np.argsort(mesh.faces.ravel(), kind="stable") // 3
    incident_vertex = np.repeat(np.arange(mesh.n_vertices, dtype=np.int64), counts)
    divisor = np.where(counts == 0, 1, counts).astype(np.float64)
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
    return positions


def _noisy_cube():
    return add_noise(cube(8), NoiseSpec(0.5, "normal", seed=23))


def _normals_of_clean_cube():
    # Normals that disagree with the noisy faces, so every vertex moves.
    return face_geometry(cube(8)).normals


@pytest.mark.parametrize("v_iter", [1, 10, 50])
def test_vertex_update_matches_reference(v_iter):
    mesh = _noisy_cube()
    topo = build_topology(mesh)
    normals = _normals_of_clean_cube()
    got = vertex_update(mesh, topo, normals, v_iter).vertices
    want = reference_vertex_update(mesh, topo, normals, v_iter)
    assert got.tobytes() == want.tobytes()


def test_vertex_update_with_isolated_vertex_matches_reference():
    """An unused vertex in the middle of the table: it stays put, the
    others match the reference, and the warning fires once per call."""
    noisy = _noisy_cube()
    lone = noisy.n_vertices // 2
    vertices = np.insert(noisy.vertices, lone, [9.0, 9.0, 9.0], axis=0)
    faces = np.where(noisy.faces >= lone, noisy.faces + 1, noisy.faces)
    mesh = TriMesh(vertices, faces)
    topo = build_topology(mesh)
    normals = _normals_of_clean_cube()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = vertex_update(mesh, topo, normals, 50).vertices
    assert [str(w.message) for w in caught] == [
        "1 isolated vertices are not moved by the vertex update"
    ]
    want = reference_vertex_update(mesh, topo, normals, 50)
    assert got.tobytes() == want.tobytes()
    assert got[lone].tolist() == [9.0, 9.0, 9.0]
