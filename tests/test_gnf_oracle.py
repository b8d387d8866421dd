"""Scalar reference for the guided filter's radius search, and the test
that holds ``meshseg.denoise._radius_csr`` to it row for row.

The reference scans every face centroid for one seed face at a time;
the library builds all rows at once from the candidate pairs of a cell
grid (``meshseg.core.stencil_pairs``). Rows must hold the same face ids,
ascending.
"""

import numpy as np
import pytest

from meshseg import cube, plane
from meshseg.core import TopologyCache, TriMesh, build_topology, face_geometry
from meshseg.denoise import _radius_csr
from meshseg.noise import NoiseSpec, add_noise


def geometric_neighborhood(
    mesh: TriMesh, topo: TopologyCache, face_id: int, r: float
) -> set[int]:
    """Faces whose centroid lies within ``r * mean_edge_length`` of
    *face_id*'s centroid, the seed itself excluded.

    The radius scales with the mesh's mean edge length so the same *r*
    means the same thing across resolutions.
    """
    if not 0 <= face_id < topo.n_faces:
        raise IndexError(f"face id {face_id} out of range")
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    radius = float(r) * topo.mean_edge_length
    d2 = np.einsum(
        "ij,ij->i", centroids - centroids[face_id], centroids - centroids[face_id]
    )
    hits = np.flatnonzero(d2 <= radius * radius)
    return {int(h) for h in hits if h != face_id}


def test_geometric_neighborhood_radius():
    mesh = cube(2)
    topo = build_topology(mesh)
    geo = face_geometry(mesh)
    hood = geometric_neighborhood(mesh, topo, 0, 2.0)
    assert 0 not in hood
    limit = 2.0 * topo.mean_edge_length
    dists = np.linalg.norm(geo.centroids[sorted(hood)] - geo.centroids[0], axis=1)
    assert (dists <= limit).all()
    # Faces just past the radius are excluded.
    outside = set(range(mesh.n_faces)) - hood - {0}
    far = np.linalg.norm(geo.centroids[sorted(outside)] - geo.centroids[0], axis=1)
    assert (far > limit).all()


def _noisy_cube():
    return add_noise(cube(4), NoiseSpec(0.3, "normal", seed=11))


def _noisy_plane():
    return add_noise(plane(6), NoiseSpec(0.3, "normal", seed=11))


@pytest.mark.parametrize("make_mesh", [_noisy_cube, _noisy_plane])
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("labelled", [False, True])
def test_radius_csr_matches_reference(make_mesh, r, labelled):
    """Each CSR row is the reference neighborhood (same cluster only when
    labelled), in ascending face id."""
    mesh = make_mesh()
    topo = build_topology(mesh)
    n_faces = mesh.n_faces
    # cube(m) emits its six sides one after another, 2*m*m faces each;
    # the plane gets six bands of faces in the same way.
    labels = np.arange(n_faces) // (n_faces // 6) if labelled else None
    nbr_ids, offsets = _radius_csr(
        face_geometry(mesh).centroids, r * topo.mean_edge_length, labels
    )
    assert len(offsets) == n_faces + 1
    for face in range(n_faces):
        expected = geometric_neighborhood(mesh, topo, face, r)
        if labels is not None:
            expected = {nb for nb in expected if labels[nb] == labels[face]}
        assert nbr_ids[offsets[face]:offsets[face + 1]].tolist() == sorted(expected)


def test_radius_csr_tiny_radius_far_apart():
    """A radius of 1e-6 over centroids 1e7 apart: the grid spans 1e13
    cells per axis, and the rows still match the reference."""
    centroids = np.array([[0.0, 0.0, 0.0], [1e-7, 0.0, 0.0], [1e7, 1e7, 1e7]])
    nbr_ids, offsets = _radius_csr(centroids, 1e-6)
    assert nbr_ids.tolist() == [1, 0]
    assert offsets.tolist() == [0, 1, 2, 2]
    mesh = _noisy_plane()
    topo = build_topology(mesh)
    nbr_ids, offsets = _radius_csr(
        face_geometry(mesh).centroids, 1e-6 * topo.mean_edge_length
    )
    assert len(nbr_ids) == 0 and len(offsets) == mesh.n_faces + 1
