"""Tests for the two-step normal-filtering denoisers and their
cluster-constrained variants."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, fields

import numpy as np
import pytest

from meshseg import cube, icosahedron, plane
from meshseg.core import TriMesh, build_topology, face_geometry
from meshseg.denoise import (
    BnfParams,
    GnfParams,
    L1Params,
    UnfParams,
    _pair_csr,
    _radius_pairs,
    _ring_tables,
    denoise,
    filter_bnf,
    filter_gnf,
    filter_l1median,
    filter_normals,
    filter_unf,
    mean_adjacent_centroid_distance,
    params_from_tuple,
    vertex_update,
)
from meshseg.errors import LabelLengthMismatchError
from meshseg.metrics import msae
from meshseg.noise import NoiseSpec, add_noise
from meshseg.segment import ClusterLabels

ALL_PARAMS = [
    UnfParams(t=0.5, n_iter=10, v_iter=10),
    BnfParams(sigma_r=0.35, n_iter=10, v_iter=10),
    GnfParams(r=2.0, sigma_s_mult=2.0, sigma_r=0.35, n_iter=10, v_iter=10),
    L1Params(angle_max_deg=40.0, n_iter=10, v_iter=10),
]


def noisy_cube(subdiv=6, seed=3, sigma=0.3):
    return add_noise(cube(subdiv), NoiseSpec(sigma, "normal", seed=seed))


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


def test_param_validation():
    with pytest.raises(ValueError):
        UnfParams(t=1.5, n_iter=1, v_iter=1)
    with pytest.raises(ValueError):
        BnfParams(sigma_r=0.0, n_iter=1, v_iter=1)
    with pytest.raises(ValueError):
        GnfParams(r=0.0, sigma_s_mult=2.0, sigma_r=0.3, n_iter=1, v_iter=1)
    with pytest.raises(ValueError):
        L1Params(angle_max_deg=-5.0, n_iter=1, v_iter=1)
    with pytest.raises(ValueError):
        UnfParams(t=0.5, n_iter=-1, v_iter=1)


def test_params_tuple_round_trip():
    for params in ALL_PARAMS:
        values = astuple(params)
        assert len(values) == len(fields(params))
        back = params_from_tuple(params.method, values)
        assert back == params


def test_params_from_tuple_validates():
    with pytest.raises(ValueError):
        params_from_tuple("unf", (0.5, 10))  # wrong arity
    with pytest.raises(ValueError):
        params_from_tuple("unf", (0.5, 10.5, 10))  # fractional iteration count
    for count in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="integers"):
            params_from_tuple("bnf", (0.45, count, 1))
        with pytest.raises(ValueError, match="integers"):
            params_from_tuple("gnf", (2, 2, 0.35, 3, count))
    with pytest.raises(ValueError):
        params_from_tuple("warp", (1.0, 2.0, 3.0))  # unknown method


# ---------------------------------------------------------------------------
# Neighborhoods
# ---------------------------------------------------------------------------


def test_edge_ring_neighbors_respect_labels():
    """The ring tables every edge-ring filter reads: face 0's valid
    entries are its edge neighbors, cut to its own cluster by labels."""
    mesh = cube(2)
    topo = build_topology(mesh)
    labels = np.arange(mesh.n_faces) // 8  # the six sides by construction
    free = {int(nb) for nb in topo.face_adjacent[0] if nb >= 0}
    safe, valid = _ring_tables(topo, None)
    assert set(safe[0][valid[0]].tolist()) == free
    safe, valid = _ring_tables(topo, labels)
    constrained = set(safe[0][valid[0]].tolist())
    assert constrained < free
    assert constrained == {nb for nb in free if labels[nb] == labels[0]}


def test_mean_adjacent_centroid_distance_plane():
    """The auto spatial scale is the mean centroid gap over interior
    edges (the grid has two gap sizes: across diagonals and across
    axis-aligned edges)."""
    mesh = plane(3)
    topo = build_topology(mesh)
    geo = face_geometry(mesh)
    pairs = topo.edge_faces[topo.interior_edge_ids]
    gaps = np.linalg.norm(
        geo.centroids[pairs[:, 0]] - geo.centroids[pairs[:, 1]], axis=1
    )
    assert len(np.unique(np.round(gaps, 12))) == 2
    d = mean_adjacent_centroid_distance(topo, geo)
    assert d == pytest.approx(gaps.mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# Fixed points and identity behaviors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_flat_plane_is_fixed_point(params):
    """No filter invents curvature on an exactly flat mesh."""
    mesh = plane(4)
    out = denoise(mesh, params)
    np.testing.assert_allclose(out.vertices, mesh.vertices, atol=1e-10)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_filtered_normals_are_unit(params):
    mesh = noisy_cube()
    topo = build_topology(mesh)
    geo = face_geometry(mesh)
    normals = filter_normals(topo, geo, params)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)


def test_vertex_update_zero_iterations_is_identity():
    mesh = noisy_cube()
    topo = build_topology(mesh)
    geo = face_geometry(mesh)
    out = vertex_update(mesh, topo, geo.normals, v_iter=0)
    np.testing.assert_array_equal(out.vertices, mesh.vertices)


def test_vertex_update_rejects_bad_shapes():
    mesh = cube(1)
    topo = build_topology(mesh)
    with pytest.raises(ValueError):
        vertex_update(mesh, topo, np.zeros((5, 3)), v_iter=1)
    with pytest.raises(ValueError):
        vertex_update(mesh, topo, np.zeros((mesh.n_faces, 3)), v_iter=-1)


def test_vertex_update_converges_to_prescribed_planes():
    """With the truth normals prescribed, the update flattens the noise."""
    truth = cube(6)
    noisy = add_noise(truth, NoiseSpec(0.2, "normal", seed=5))
    topo = build_topology(noisy)
    out = vertex_update(noisy, topo, face_geometry(truth).normals, v_iter=50)
    assert msae(out, truth) < 0.05 * msae(noisy, truth)


# ---------------------------------------------------------------------------
# Single-cluster equivalence and cluster behavior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_single_cluster_matches_unconstrained(params):
    """All-faces-in-one-cluster labels must not change any output."""
    mesh = noisy_cube(subdiv=4, seed=9, sigma=0.4)
    free = denoise(mesh, params)
    constrained = denoise(mesh, params, labels=np.zeros(mesh.n_faces, dtype=int))
    deviation = np.abs(constrained.vertices - free.vertices).max()
    assert deviation <= 1e-12


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_empty_constrained_neighborhood_keeps_normal(params):
    """A face whose cluster contains only itself keeps its own normal."""
    mesh = noisy_cube(subdiv=2, seed=1)
    topo = build_topology(mesh)
    geo = face_geometry(mesh)
    labels = np.zeros(mesh.n_faces, dtype=int)
    labels[0] = 1  # isolate face 0
    normals = filter_normals(topo, geo, params, labels)
    np.testing.assert_allclose(normals[0], geo.normals[0], atol=1e-12)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_denoise_rejects_wrong_label_count(params):
    """The filter checks the labels, whether raw or ClusterLabels."""
    mesh = cube(2)
    short = np.zeros(mesh.n_faces - 1, dtype=np.int64)
    for labels in (short, ClusterLabels.from_array(short)):
        with pytest.raises(LabelLengthMismatchError):
            denoise(mesh, params, labels=labels)


NOT_INTEGER_LABELS = {
    # At 0.7 on 10 faces, int64 truncation made one cluster of these.
    "float": np.where(np.arange(48) < 10, 0.7, 0.0),
    "bool": np.arange(48) % 2 == 0,
    "2d": np.zeros((48, 1), dtype=np.int64),
}


@pytest.mark.parametrize("labels", NOT_INTEGER_LABELS.values(), ids=list(NOT_INTEGER_LABELS))
@pytest.mark.parametrize(
    "params, backend",
    list(zip(ALL_PARAMS, (filter_unf, filter_bnf, filter_gnf, filter_l1median))),
    ids=lambda value: getattr(value, "__name__", None) or type(value).__name__,
)
def test_labels_that_are_not_1d_integers_are_rejected(params, backend, labels):
    """Float, bool and 2-D labels raise ValueError in ``denoise`` and in
    each filter; they are not cast to int64."""
    mesh = cube(2)
    with pytest.raises(ValueError, match="1-D integer"):
        denoise(mesh, params, labels=labels)
    with pytest.raises(ValueError, match="1-D integer"):
        backend(mesh.topology, face_geometry(mesh), params, labels)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_empty_mesh_denoises_to_empty(params):
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    result = denoise(empty, params)
    assert (result.n_vertices, result.n_faces) == (0, 0)


def test_gnf_radius_below_float_range_keeps_the_normals():
    """r = 1e-300 mean edge lengths puts the centroids 1e300 cells from the
    origin; the grid widens its cell, no pair of faces lies within r, so
    every face keeps its normal and only the vertex update moves them."""
    noisy = add_noise(cube(2), NoiseSpec(0.3, "normal", seed=1))
    result = denoise(noisy, GnfParams(1e-300, 2, 0.35, 2, 1))
    unfiltered = face_geometry(noisy).normals
    want = vertex_update(noisy, noisy.topology, unfiltered, 1)
    assert result.vertices.tobytes() == want.vertices.tobytes()


def test_radius_csr_of_no_centroids():
    for labels in (None, np.zeros(0, dtype=np.int64)):
        first, second, d2 = _radius_pairs(np.zeros((0, 3)), 1.0, labels)
        assert first.tolist() == second.tolist() == d2.tolist() == []
        nbr_ids, offsets, slot_pair = _pair_csr(first, second, 0)
        assert nbr_ids.tolist() == slot_pair.tolist() == [] and offsets.tolist() == [0]


def test_cluster_constraint_preserves_cube_creases():
    """With the true side labels, BNF recovers the clean cube's normals
    far better than the unconstrained filter."""
    truth = cube(6)
    noisy = add_noise(truth, NoiseSpec(0.5, "normal", seed=3))
    side = np.arange(truth.n_faces) // (2 * 36)
    params = BnfParams(sigma_r=0.45, n_iter=60, v_iter=30)
    free = denoise(noisy, params)
    ours = denoise(noisy, params, labels=side)
    assert msae(ours, truth) < 0.5 * msae(free, truth)


# ---------------------------------------------------------------------------
# Behavior on noise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_every_backend_reduces_msae(params):
    """Each filter genuinely denoises a feature-free surface (crease
    behavior is exercised separately by the cluster-constraint tests)."""
    truth = plane(10)
    noisy = add_noise(truth, NoiseSpec(0.3, "normal", seed=12))
    out = denoise(noisy, params)
    assert msae(out, truth) < msae(noisy, truth)


def test_cluster_constraint_rescues_gnf_on_creases():
    """Unconstrained guidance patches may sit entirely on the far side
    of a crease (nothing ties the consistency winner to the query face
    once noise breaks exact ties), so plain GNF rounds a noisy cube;
    side labels keep every patch pure and recover the creases."""
    truth = cube(6)
    noisy = add_noise(truth, NoiseSpec(0.3, "normal", seed=12))
    side = np.arange(truth.n_faces) // (2 * 36)
    params = GnfParams(r=2.0, sigma_s_mult=2.0, sigma_r=0.35, n_iter=10, v_iter=10)
    free = denoise(noisy, params)
    ours = denoise(noisy, params, labels=side)
    assert msae(ours, truth) < 0.2 * msae(free, truth)


def test_denoise_is_deterministic():
    mesh = noisy_cube()
    params = GnfParams(r=2.0, sigma_s_mult=2.0, sigma_r=0.35, n_iter=5, v_iter=5)
    a = denoise(mesh, params)
    b = denoise(mesh, params)
    assert a.vertices.tobytes() == b.vertices.tobytes()


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: type(p).__name__)
def test_calls_in_threads_give_the_serial_bytes(params):
    """``meshseg bench`` runs filters in a thread pool. Calls on two
    meshes of other sizes run at once, more threads than cores, with a
    short switch interval: each result equals its serial bytes, so no
    call reads another's buffers."""
    jobs = []
    for mesh in (cube(8), icosahedron(8)):
        mesh = add_noise(mesh, NoiseSpec(0.5, "normal", seed=23))
        jobs.append((mesh.topology, face_geometry(mesh)))
    serial = [filter_normals(topo, geometry, params).tobytes() for topo, geometry in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(filter_normals, *job, params) for job in jobs * 3]
            got = [future.result(timeout=120).tobytes() for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == serial * 3


def test_gnf_guidance_differs_from_bnf_on_crease():
    """On a noisy crease the patch-consistency guidance changes the
    result relative to plain bilateral filtering with the same kernels."""
    truth = cube(4)
    noisy = add_noise(truth, NoiseSpec(0.3, "normal", seed=8))
    bnf = denoise(noisy, BnfParams(sigma_r=0.35, n_iter=10, v_iter=10))
    gnf = denoise(noisy, GnfParams(r=2.0, sigma_s_mult=2.0, sigma_r=0.35, n_iter=10, v_iter=10))
    assert not np.allclose(bnf.vertices, gnf.vertices)


def test_l1_median_handles_outlier_normal():
    """The weighted geometric median resists a single flipped normal."""
    truth = plane(4)
    noisy_vertices = truth.vertices.copy()
    # Push one interior vertex far out of plane to flip nearby normals.
    interior = np.flatnonzero(
        (np.abs(truth.vertices[:, 0] - 0.5) < 0.3)
        & (np.abs(truth.vertices[:, 1] - 0.5) < 0.3)
    )
    noisy_vertices[interior[0], 2] += 0.8
    noisy = truth.with_vertices(noisy_vertices)
    out = denoise(noisy, L1Params(angle_max_deg=90.0, n_iter=20, v_iter=20))
    assert msae(out, truth) < msae(noisy, truth)


def test_vertex_update_without_faces_keeps_vertices():
    """Every vertex is isolated and stays put. Like an isolated vertex of
    any mesh it takes a +0.0 shift, so a -0.0 coordinate comes back +0.0."""
    mesh = TriMesh(np.arange(9.0).reshape(3, 3) - 2.5, np.zeros((0, 3), dtype=np.int64))
    with pytest.warns(UserWarning, match="3 isolated vertices"):
        out = vertex_update(mesh, mesh.topology, np.zeros((0, 3)), 4)
    assert out.vertices.tobytes() == mesh.vertices.tobytes()
    mesh = mesh.with_vertices(-np.zeros((3, 3)))
    with pytest.warns(UserWarning, match="3 isolated vertices"):
        out = vertex_update(mesh, mesh.topology, np.zeros((0, 3)), 1)
    assert out.vertices.tolist() == mesh.vertices.tolist()


def test_vertex_update_of_no_iterations_keeps_vertices():
    mesh = noisy_cube(subdiv=2)
    normals = np.ones((mesh.n_faces, 3))
    out = vertex_update(mesh, mesh.topology, normals, 0)
    assert out.vertices.tobytes() == mesh.vertices.tobytes()
