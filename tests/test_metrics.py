"""Tests for the denoising quality metrics (normal-angle error and
normalized vertex-to-surface distance) and the cell-grid distance
search behind them."""

import numpy as np
import pytest

from meshseg import cube, plane
from meshseg.core import TriMesh
from meshseg.errors import ConnectivityMismatchError, EmptyMeshError
import meshseg.metrics
from meshseg.metrics import (
    brute_force_sq_distances,
    ev,
    msae,
    point_triangles_sq_distance,
    sq_distances,
)
from meshseg.noise import NoiseSpec, add_noise


def rotated(mesh, axis, angle):
    """Mesh with vertices rotated by *angle* about *axis* (Rodrigues)."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    return mesh.with_vertices(mesh.vertices @ rot.T)


# ---------------------------------------------------------------------------
# Mean squared angular error
# ---------------------------------------------------------------------------


def test_msae_zero_on_identical():
    mesh = cube(3)
    assert msae(mesh, mesh) == 0.0


def test_msae_uniform_tilt_squares_the_angle():
    """Rotating a flat mesh about an in-plane axis tilts every normal by
    exactly the rotation angle, so the metric is the squared angle."""
    truth = plane(4)
    for angle in (0.1, 0.25):
        for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)):
            result = rotated(truth, axis, angle)
            assert msae(result, truth) == pytest.approx(angle * angle, abs=1e-9)


def test_msae_orthogonal_normals():
    truth = plane(3)
    result = rotated(truth, (1.0, 0.0, 0.0), np.pi / 2)
    assert msae(result, truth) == pytest.approx((np.pi / 2) ** 2, abs=1e-9)


def test_msae_requires_identical_connectivity():
    with pytest.raises(ConnectivityMismatchError):
        msae(cube(2), cube(3))
    mesh = cube(2)
    permuted = TriMesh(mesh.vertices.copy(), mesh.faces[::-1].copy())
    with pytest.raises(ConnectivityMismatchError):
        msae(permuted, mesh)


def test_msae_empty_mesh():
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(EmptyMeshError):
        msae(empty, empty)


# ---------------------------------------------------------------------------
# Point-to-triangle distance (the arithmetic both ev backends share)
# ---------------------------------------------------------------------------


def test_point_triangle_all_regions():
    tri = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    cases = [
        ((0.2, 0.2, 1.0), 1.0),  # above the interior
        ((0.2, 0.2, 0.0), 0.0),  # on the face
        ((-1.0, -1.0, 0.0), 2.0),  # vertex A region
        ((2.0, 0.0, 0.0), 1.0),  # vertex B region
        ((0.0, 3.0, 0.0), 4.0),  # vertex C region
        ((0.5, -2.0, 0.0), 4.0),  # edge AB region
        ((-3.0, 0.5, 0.0), 9.0),  # edge AC region
        ((1.0, 1.0, 0.0), 0.5),  # edge BC region (closest (0.5, 0.5, 0))
    ]
    for point, expected in cases:
        d2 = point_triangles_sq_distance(np.array(point), tri)
        assert d2[0] == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# Vertex-to-surface error
# ---------------------------------------------------------------------------


def test_ev_zero_on_identical():
    mesh = cube(2)
    assert ev(mesh, mesh) == 0.0
    assert (brute_force_sq_distances(mesh.vertices, mesh) == 0.0).all()


def test_ev_lifted_plane_oracle():
    """Lifting the unit-square plane by h puts every vertex exactly h
    from the surface; the truth diagonal squared is 2, so the metric is
    h^2 / 2."""
    truth = plane(3)
    h = 0.05
    lifted = truth.with_vertices(truth.vertices + np.array([0.0, 0.0, h]))
    expected = h * h / 2.0
    assert ev(lifted, truth) == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(
        brute_force_sq_distances(lifted.vertices, truth), h * h, rtol=1e-12
    )


def test_ev_is_scale_invariant():
    truth = cube(2)
    result = add_noise(truth, NoiseSpec(0.4, "normal", seed=5))
    base = ev(result, truth)
    scaled = ev(
        result.with_vertices(result.vertices * 37.0),
        truth.with_vertices(truth.vertices * 37.0),
    )
    assert scaled == pytest.approx(base, rel=1e-12)


def test_ev_does_not_require_shared_connectivity():
    truth = cube(2)
    probe = plane(2)
    value = ev(probe, truth)
    assert np.isfinite(value) and value >= 0.0


def test_ev_empty_meshes():
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    mesh = cube(1)
    with pytest.raises(EmptyMeshError):
        ev(mesh, empty)
    with pytest.raises(EmptyMeshError):
        ev(empty, mesh)


# ---------------------------------------------------------------------------
# Cell-grid search vs. exhaustive scan
# ---------------------------------------------------------------------------


def test_bvh_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(5):
        truth = add_noise(cube(3), NoiseSpec(0.3, "normal", seed=trial))
        points = np.concatenate(
            [
                rng.uniform(-0.5, 1.5, size=(20, 3)),  # near / inside
                rng.uniform(-20.0, 20.0, size=(5, 3)),  # far away
                truth.vertices[:4],  # exactly on the surface
            ]
        )
        np.testing.assert_allclose(
            sq_distances(points, truth),
            brute_force_sq_distances(points, truth),
            rtol=0.0,
            atol=1e-12,
        )


def test_sq_distances_single_triangle_and_every_exit(monkeypatch):
    """A point settles in the first grid pass below height h (the cell),
    in the widened pass below 2h, and in the exhaustive scan beyond."""
    tri = TriMesh(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0, 1, 2]], dtype=np.int64),
    )
    assert sq_distances(np.array([[0.2, 0.2, 1.0]]), tri)[0] == pytest.approx(
        1.0, abs=1e-14
    )

    truth = plane(8)
    h = 1.0 / 8.0  # largest triangle bounding-box extent
    xy = np.random.default_rng(5).uniform(0.0, 1.0, size=(12, 2))
    heights = np.repeat([0.5 * h, 1.5 * h, 3.0 * h], 4)
    points = np.column_stack([xy, heights])

    passes, scanned = [], []
    stencil = meshseg.metrics.stencil_pairs
    brute = meshseg.metrics.brute_force_sq_distances

    def counting_stencil(query_points, sites, cell, offsets):
        passes.append((int(offsets[-1][0]), len(query_points)))  # (reach, reach, reach) comes last
        return stencil(query_points, sites, cell, offsets)

    def counting_brute(pts, mesh):
        scanned.append(len(pts))
        return brute(pts, mesh)

    monkeypatch.setattr(meshseg.metrics, "stencil_pairs", counting_stencil)
    monkeypatch.setattr(meshseg.metrics, "brute_force_sq_distances", counting_brute)
    got = sq_distances(points, truth)
    monkeypatch.undo()

    assert passes == [(1, 12), (2, 8)]
    assert scanned == [4]
    np.testing.assert_allclose(
        got, brute_force_sq_distances(points, truth), rtol=0.0, atol=0.0
    )


def test_sq_distances_gathers_each_pair_at_most_once(monkeypatch):
    """No grid call of sq_distances yields a (point, triangle) pair twice,
    in the first pass or the widened one."""
    truth = cube(6)
    points = add_noise(truth, NoiseSpec(0.5, "normal", seed=23)).vertices
    calls = []
    stencil = meshseg.metrics.stencil_pairs

    def recording_stencil(*args):
        calls.append([])
        for q, t in stencil(*args):
            calls[-1].append(q * truth.n_faces + t)
            yield q, t

    monkeypatch.setattr(meshseg.metrics, "stencil_pairs", recording_stencil)
    sq_distances(points, truth)
    monkeypatch.undo()

    assert len(calls) >= 2
    for batches in calls:
        pairs = np.concatenate(batches)
        assert len(np.unique(pairs)) == len(pairs)


def test_sq_distances_one_big_triangle_keeps_the_grid_fine(monkeypatch):
    """A triangle spanning the whole box gets a grid tier of its own:
    the plane's small triangles are still gathered from small cells, so
    far fewer than all (point, triangle) pairs are evaluated."""
    base = plane(16)
    n = base.n_vertices
    truth = TriMesh(
        np.vstack([base.vertices, [[0.0, 0.0, -0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]]),
        np.vstack([base.faces, [[n, n + 1, n + 2]]]),
    )
    rng = np.random.default_rng(6)
    points = np.concatenate(
        [
            add_noise(base, NoiseSpec(0.3, "normal", seed=6)).vertices,
            rng.uniform(-0.5, 1.5, size=(40, 3)),
        ]
    )

    batches = _record_pair_batches(monkeypatch)
    got = sq_distances(points, truth)
    monkeypatch.undo()

    np.testing.assert_allclose(
        got, brute_force_sq_distances(points, truth), rtol=0.0, atol=0.0
    )
    assert sum(batches) < len(points) * truth.n_faces // 4


def _record_pair_batches(monkeypatch):
    """The number of (point, triangle) pairs of each distance evaluation
    that sq_distances makes on the cell-grid candidates (one point per
    triangle), appended to the returned list as they happen."""
    batches = []
    evaluate = meshseg.metrics.point_triangles_sq_distance

    def counting(point, triangles):
        if np.ndim(point) == 2:
            batches.append(len(triangles))
        return evaluate(point, triangles)

    monkeypatch.setattr(meshseg.metrics, "point_triangles_sq_distance", counting)
    return batches


def test_sq_distances_batches_cap_memory(monkeypatch):
    """The candidate pairs of one stencil offset are evaluated in slices
    of at most _PAIR_BATCH, which together cover every yielded pair, and
    the distances keep their bits at any slice size."""
    truth = cube(4)
    points = add_noise(truth, NoiseSpec(0.4, "normal", seed=9)).vertices
    want = sq_distances(points, truth)
    yielded = []
    stencil = meshseg.metrics.stencil_pairs

    def counting_stencil(*args):
        for q, t in stencil(*args):
            yielded.append(len(q))
            yield q, t

    monkeypatch.setattr(meshseg.metrics, "stencil_pairs", counting_stencil)
    monkeypatch.setattr(meshseg.metrics, "_PAIR_BATCH", 7)
    batches = _record_pair_batches(monkeypatch)
    got = sq_distances(points, truth)
    assert got.tobytes() == want.tobytes()
    assert max(yielded) > 7 and max(batches) == 7
    assert sum(batches) == sum(yielded)


def test_sq_distances_tiny_triangles_far_apart():
    """Two triangles 1e-3 across and 1e4 apart: the grid spans 1e7 cells
    per axis and still answers exactly."""
    small = np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [0.0, 1e-3, 0.0]])
    truth = TriMesh(
        np.vstack([small, small + 1e4]), np.array([[0, 1, 2], [3, 4, 5]])
    )
    points = np.vstack([small + 1e-4, small + 1e4 - 1e-4, [[5e3, 5e3, 5e3]]])
    np.testing.assert_allclose(
        sq_distances(points, truth),
        brute_force_sq_distances(points, truth),
        rtol=0.0,
        atol=0.0,
    )
    assert np.isfinite(ev(truth.with_vertices(truth.vertices + 1e-5), truth))
