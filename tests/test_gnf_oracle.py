"""References for the guided filter, and the tests that hold
``meshseg.denoise`` to them.

- Radius search: the reference scans every face centroid for one seed
  face at a time; the library builds all rows at once from the candidate
  pairs of a cell grid (``meshseg.core.stencil_pairs``). Rows must hold
  the same face ids, ascending.
  The library tests each unordered pair once and mirrors it, so its rows
  must also be exactly symmetric.
- Guidance choice: the reference sorts every face's candidates by
  (consistency, centroid gap, id) on every sweep, takes each patch's
  consistency over all 16 ordered member pairs, computes the range
  weight of every pair slot, and blends with one ``bincount`` per axis;
  the library ranks by (centroid gap, id) once, takes the first minimum
  per face, compares the 6 unordered member pairs, weighs each unordered
  face pair once and blends with a sparse product. Normals must agree
  bit for bit, so every tie goes the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg import cube, icosahedron, plane
from meshseg.core import TopologyCache, TriMesh, build_topology, face_geometry
from meshseg.denoise import (
    GnfParams,
    _as_label_array,
    _normalize_rows,
    _guidance_candidates,
    _radius_csr,
    _rank_candidates,
    _ring_tables,
    _transpose_slots,
    filter_normals,
    mean_adjacent_centroid_distance,
)
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


def _six_sides(n_faces):
    # cube(m) emits its six sides one after another, 2*m*m faces each;
    # a plane gets six bands of faces in the same way.
    return np.arange(n_faces) // (n_faces // 6)


@pytest.mark.parametrize("make_mesh", [_noisy_cube, _noisy_plane])
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("labelled", [False, True])
def test_radius_csr_matches_reference(make_mesh, r, labelled):
    """Each CSR row is the reference neighborhood (same cluster only when
    labelled), in ascending face id."""
    mesh = make_mesh()
    topo = build_topology(mesh)
    n_faces = mesh.n_faces
    labels = _six_sides(n_faces) if labelled else None
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


# Coordinates on a quarter grid put many centroid pairs at exactly the
# radius; the others fall anywhere.
_COORD = st.one_of(st.integers(-8, 8).map(lambda i: i * 0.25), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    points=st.lists(st.tuples(_COORD, _COORD, _COORD), max_size=40),
    radius=st.sampled_from([0.25, 0.5, 1.0, 0.3, 2.0]),
    n_labels=st.integers(0, 3),
    data=st.data(),
)
def test_radius_csr_rows_are_symmetric(points, radius, n_labels, data):
    """j is in row i exactly when i is in row j, with or without labels,
    and every row ascends strictly without its own face."""
    centroids = np.array(points, dtype=np.float64).reshape(-1, 3)
    n = len(centroids)
    labels = None
    if n_labels:
        labels = np.array(
            data.draw(st.lists(st.integers(0, n_labels - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    nbr_ids, offsets = _radius_csr(centroids, radius, labels)
    owner = np.repeat(np.arange(n), np.diff(offsets))
    assert len(offsets) == n + 1 and offsets[-1] == len(nbr_ids)
    assert (nbr_ids != owner).all()
    keys = owner * n + nbr_ids
    assert (np.diff(keys) > 0).all()
    np.testing.assert_array_equal(keys, np.sort(nbr_ids * n + owner))


@pytest.mark.parametrize("labelled", [False, True])
def test_transpose_slots_is_an_involution_onto_the_lower_half(labelled):
    mesh = _noisy_cube()
    topo = build_topology(mesh)
    labels = _six_sides(mesh.n_faces) if labelled else None
    nbr_ids, offsets = _radius_csr(
        face_geometry(mesh).centroids, 2.0 * topo.mean_edge_length, labels
    )
    owner = np.repeat(np.arange(mesh.n_faces), np.diff(offsets))
    upper, mirror = _transpose_slots(owner, nbr_ids, mesh.n_faces)
    np.testing.assert_array_equal(upper, np.flatnonzero(owner < nbr_ids))
    np.testing.assert_array_equal(np.sort(mirror), np.flatnonzero(owner > nbr_ids))
    transpose = np.full(len(nbr_ids), -1)
    transpose[upper] = mirror
    transpose[mirror] = upper
    np.testing.assert_array_equal(transpose[transpose], np.arange(len(nbr_ids)))
    np.testing.assert_array_equal(owner[transpose], nbr_ids)
    np.testing.assert_array_equal(nbr_ids[transpose], owner)


@pytest.mark.parametrize("labelled", [False, True])
def test_guidance_candidates_run_in_owner_then_id_order(labelled):
    """Each face's run holds the face itself and its radius neighbors in
    ascending id, and starts at offsets[i] + i."""
    mesh = _noisy_cube()
    topo = build_topology(mesh)
    n_faces = mesh.n_faces
    labels = _six_sides(n_faces) if labelled else None
    nbr_ids, offsets = _radius_csr(
        face_geometry(mesh).centroids, 2.0 * topo.mean_edge_length, labels
    )
    owner = np.repeat(np.arange(n_faces), np.diff(offsets))
    cand_ids, cand_owner = _guidance_candidates(owner, nbr_ids, offsets)
    all_ids = np.concatenate((np.arange(n_faces), nbr_ids))
    all_owner = np.concatenate((np.arange(n_faces), owner))
    order = np.lexsort((all_ids, all_owner))
    np.testing.assert_array_equal(cand_ids, all_ids[order])
    np.testing.assert_array_equal(cand_owner, all_owner[order])
    starts = offsets[:-1] + np.arange(n_faces)
    np.testing.assert_array_equal(np.searchsorted(cand_owner, np.arange(n_faces)), starts)


@pytest.mark.parametrize("n_faces", [50, 3_000, 70_000])
def test_rank_candidates_matches_lexsort(n_faces):
    """Candidates in (owner, id) order with gaps drawn from four values,
    so most ranks fall to the id tie-break. 50 and 3,000 faces sort the
    owner key as uint8 and uint16; 70,000 faces as uint32, with owners
    above 65,535."""
    rng = np.random.default_rng(17)
    n_keys = min(5_000, n_faces * n_faces // 2)
    keys = np.sort(rng.choice(n_faces * n_faces, size=n_keys, replace=False))
    owner, ids = keys // n_faces, keys % n_faces
    gap = rng.integers(0, 4, size=len(keys)) * 0.25
    if n_faces > 65_535:
        assert (owner > 65_535).any()
    np.testing.assert_array_equal(
        _rank_candidates(owner, gap, n_faces), np.lexsort((ids, gap, owner))
    )


def reference_filter_gnf(mesh, topo, geometry, params, labels=None):
    """The guided filter with a full lexsort of the guidance candidates
    on every sweep and a per-axis ``bincount`` blend."""
    label_array = _as_label_array(labels, topo.n_faces)
    n_faces = topo.n_faces
    areas = geometry.areas
    centroids = geometry.centroids
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    sigma_s = params.sigma_s_mult * sigma_c
    radius = params.r * topo.mean_edge_length

    nbr_ids, offsets = _radius_csr(centroids, radius, label_array)
    owner = np.repeat(np.arange(n_faces, dtype=np.int64), np.diff(offsets))
    pair_cdiff = centroids[owner] - centroids[nbr_ids]
    pair_spatial = areas[nbr_ids] * np.exp(
        -np.einsum("pi,pi->p", pair_cdiff, pair_cdiff) / (2.0 * sigma_s * sigma_s)
    )

    # The lexsort keys on owner first and id last, a total order, so after
    # it owner i's candidates start at offsets[i] + i.
    cand_ids = np.concatenate((np.arange(n_faces), nbr_ids))
    cand_owner = np.concatenate((np.arange(n_faces), owner))
    cand_starts = offsets[:-1] + np.arange(n_faces)

    safe, ring_valid = _ring_tables(topo, label_array)
    members = np.concatenate([np.arange(n_faces)[:, None], safe], axis=1)
    member_valid = np.concatenate(
        [np.ones((n_faces, 1), dtype=bool), ring_valid], axis=1
    )
    member_area = areas[members] * member_valid
    patch_centroid = (member_area[:, :, None] * centroids[members]).sum(axis=1)
    patch_centroid /= member_area.sum(axis=1, keepdims=True)
    cand_centroid_dist = np.linalg.norm(
        patch_centroid[cand_ids] - centroids[cand_owner], axis=1
    )

    pair_mask = member_valid[:, :, None] & member_valid[:, None, :]
    two_sr2 = 2.0 * params.sigma_r * params.sigma_r
    normals = geometry.normals
    for _ in range(params.n_iter):
        member_normals = normals[members]
        diffs = member_normals[:, :, None, :] - member_normals[:, None, :, :]
        d2 = np.einsum("fabi,fabi->fab", diffs, diffs)
        consistency = np.sqrt(np.where(pair_mask, d2, 0.0).max(axis=(1, 2)))
        patch_normal = _normalize_rows(
            (member_area[:, :, None] * member_normals).sum(axis=1), normals
        )
        order = np.lexsort(
            (cand_ids, cand_centroid_dist, consistency[cand_ids], cand_owner)
        )
        guidance = patch_normal[cand_ids[order[cand_starts]]]

        gdiff = guidance[owner] - guidance[nbr_ids]
        range_w = np.exp(-np.einsum("pi,pi->p", gdiff, gdiff) / two_sr2)
        pair_w = pair_spatial * range_w
        summed = np.zeros((n_faces, 3), dtype=np.float64)
        weighted = pair_w[:, None] * normals[nbr_ids]
        for k in range(3):
            summed[:, k] = np.bincount(owner, weights=weighted[:, k], minlength=n_faces)
        normals = _normalize_rows(summed, normals)
    return normals


def _benchmark_cube():
    # The gnf sweep of the benchmark, at its hold-out noise seed.
    return add_noise(cube(16), NoiseSpec(0.5, "normal", seed=7919))


@pytest.mark.parametrize(
    "mesh, labelled, n_iter",
    [
        (cube(4), False, 3),
        (cube(4), True, 3),
        (icosahedron(2), False, 3),
        (_noisy_cube(), True, 3),
        (_benchmark_cube(), False, 20),
        (_benchmark_cube(), True, 20),
    ],
    ids=["cube", "cube-sides", "icosahedron", "noisy-cube-sides", "bench-cube16",
         "bench-cube16-sides"],
)
def test_gnf_guidance_ties_match_reference(mesh, labelled, n_iter):
    """On a clean mesh every patch inside a flat side, and every patch of a
    regular icosahedron, ties on consistency with its neighbours', so
    the centroid-gap and id tie-breaks pick most guidance patches. The
    benchmark's noisy cube(16) runs its 20 sweeps."""
    topo = build_topology(mesh)
    geometry = face_geometry(mesh)
    labels = _six_sides(mesh.n_faces) if labelled else None
    params = GnfParams(2.0, 2.0, 0.35, n_iter, 0)
    got = filter_normals(mesh, topo, geometry, params, labels)
    want = reference_filter_gnf(mesh, topo, geometry, params, labels)
    assert got.tobytes() == want.tobytes()
