"""Tests for the denoising quality metrics (normal-angle error and
normalized vertex-to-surface distance) and the cell-grid distance
search behind them."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg import cube, icosahedron, make_fixture, plane
from meshseg.core import TriMesh
from meshseg.errors import (
    ConnectivityMismatchError,
    EmptyMeshError,
    NonFiniteVertexError,
    ZeroAreaFaceError,
)
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
            atol=0.0,
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
    evaluate = meshseg.metrics.point_triangles_sq_distance

    def counting_stencil(query_points, sites, cell, offsets):
        passes.append((int(offsets[-1][0]), len(query_points)))  # (reach, reach, reach) comes last
        return stencil(query_points, sites, cell, offsets)

    def counting_scan(point, triangles):
        if np.ndim(point) == 1:  # the last-resort scan measures one point at a time
            scanned.append(len(triangles))
        return evaluate(point, triangles)

    monkeypatch.setattr(meshseg.metrics, "stencil_pairs", counting_stencil)
    monkeypatch.setattr(meshseg.metrics, "point_triangles_sq_distance", counting_scan)
    got = sq_distances(points, truth)
    monkeypatch.undo()

    assert passes == [(1, 12), (2, 8)]
    assert scanned == [truth.n_faces] * 4
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
    """The candidate pairs of one stencil offset are bounded and evaluated
    in slices of at most _PAIR_BATCH. The evaluated pairs are among the
    yielded ones, each yielded pair left out is no nearer than its point's
    result, and the distances keep their bits at any slice size.

    The truth is cube(4)'s triangles as a jittered soup, so that each
    triangle has a box low corner of its own: the test names a yielded
    pair's triangle by the low corner the grid gathered it by."""
    base = cube(4)
    corners = base.vertices[base.faces].reshape(-1, 3)
    corners = corners + np.random.default_rng(9).normal(0.0, 1e-3, corners.shape)
    truth = TriMesh(corners, np.arange(len(corners)).reshape(-1, 3))
    triangles = truth.vertices[truth.faces]
    lo = triangles.min(axis=1)
    face_of_lo = {row.tobytes(): f for f, row in enumerate(lo)}
    assert len(face_of_lo) == truth.n_faces
    points = add_noise(base, NoiseSpec(0.4, "normal", seed=9)).vertices
    point_of = {row.tobytes(): i for i, row in enumerate(points)}
    want = sq_distances(points, truth)

    yielded, evaluated, offset_sizes, slice_sizes = set(), set(), [], []
    stencil = meshseg.metrics.stencil_pairs
    evaluate = meshseg.metrics.point_triangles_sq_distance

    def recording_stencil(query_points, sites, cell, offsets):
        for q, t in stencil(query_points, sites, cell, offsets):
            offset_sizes.append(len(q))
            yielded.update(
                (point_of[query_points[i].tobytes()], face_of_lo[sites[j].tobytes()])
                for i, j in zip(q, t)
            )
            yield q, t

    def recording_evaluate(point, tri):
        if np.ndim(point) == 2:
            slice_sizes.append(len(tri))
            evaluated.update(
                (point_of[p.tobytes()], face_of_lo[corner.tobytes()])
                for p, corner in zip(point, tri.min(axis=1))
            )
        return evaluate(point, tri)

    monkeypatch.setattr(meshseg.metrics, "stencil_pairs", recording_stencil)
    monkeypatch.setattr(meshseg.metrics, "point_triangles_sq_distance", recording_evaluate)
    monkeypatch.setattr(meshseg.metrics, "_PAIR_BATCH", 7)
    got = sq_distances(points, truth)
    monkeypatch.undo()

    assert got.tobytes() == want.tobytes()
    assert max(offset_sizes) > 7 and max(slice_sizes) == 7
    assert evaluated <= yielded
    left_out = sorted(yielded - evaluated)
    assert len(left_out) > len(evaluated)
    ids, faces = np.array(left_out).T
    assert (point_triangles_sq_distance(points[ids], triangles[faces]) >= got[ids]).all()


def test_sq_distances_holds_one_slice_of_pair_temporaries(monkeypatch):
    """Working one stencil offset's pairs, on plane(32) plus a triangle
    spanning it, takes memory for one slice of _PAIR_BATCH pairs, about
    650 bytes a pair, not for the whole offset: here one offset holds
    about 4,000 pairs and a slice 64."""
    base = plane(32)
    n = base.n_vertices
    truth = TriMesh(
        np.vstack([base.vertices, [[0.0, 0.0, -0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]]),
        np.vstack([base.faces, [[n, n + 1, n + 2]]]),
    )
    rng = np.random.default_rng(3)
    points = np.column_stack([rng.uniform(0.0, 1.0, (4096, 2)), rng.normal(0.0, 0.01, 4096)])
    sizes, extra = [], []
    stencil = meshseg.metrics.stencil_pairs

    def watching_stencil(*args):
        for q, t in stencil(*args):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            yield q, t
            extra.append(tracemalloc.get_traced_memory()[1] - held)
            sizes.append(len(q))

    monkeypatch.setattr(meshseg.metrics, "stencil_pairs", watching_stencil)
    monkeypatch.setattr(meshseg.metrics, "_PAIR_BATCH", 64)
    tracemalloc.start()
    try:
        sq_distances(points, truth)
    finally:
        tracemalloc.stop()
    assert max(sizes) > 50 * 64
    assert max(extra) < 1024 * 64


@pytest.mark.parametrize("seed", [23, 7919])
@pytest.mark.parametrize("shape, subdiv", [("cube", 8), ("cube", 20), ("icosahedron", 16)])
def test_sq_distances_evaluates_a_few_pairs_a_point(monkeypatch, shape, subdiv, seed):
    """A clock-free work guard: the box bound leaves at most 12 exact
    distance evaluations a point of the 40-odd gathered triangles, for
    the vertices of a noisy mesh against its clean truth."""
    truth = make_fixture(shape, subdiv)
    points = add_noise(truth, NoiseSpec(0.5, "normal", seed=seed)).vertices
    batches = _record_pair_batches(monkeypatch)
    sq_distances(points, truth)
    monkeypatch.undo()
    assert sum(batches) <= 12 * len(points)


def test_sq_distances_keeps_a_near_tie_from_a_later_cell():
    """Two triangles 1 wide on either side of a point, their nearest
    vertices 0.75 and 0.75 + 2^-48 from it. The farther one's cell comes
    first in the stencil order and sets best; the nearer one's box bound
    then lies 2^-46 below best, so the pair must be evaluated."""
    e = 2.0**-48
    truth = TriMesh(
        np.array(
            [
                [-1.25 - e, 0.5, 0.5], [-0.25 - e, 0.5, 0.5], [-0.25 - e, 1.5, 0.5],
                [1.25, 0.5, 0.5], [2.25, 0.5, 0.5], [1.25, 1.5, 0.5],
            ]
        ),
        np.array([[0, 1, 2], [3, 4, 5]]),
    )
    got = sq_distances(np.array([[0.5, 0.5, 0.5]]), truth)
    assert got[0] == 0.75**2 < (0.75 + e) ** 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sq_distances_rejects_non_finite_points(bad):
    points = np.array([[0.5, 0.5, 0.5], [0.0, bad, 0.0]])
    with pytest.raises(NonFiniteVertexError, match=r"\[1\]"):
        sq_distances(points, cube(4))


def test_sq_distances_far_points_have_the_bits_of_brute_force():
    """Points 1e19 to 1e120 from the truth, whose cell coordinates lie
    beyond int64, gather nothing and fall through to the scan: brute
    force's bits, and no warning from the cast."""
    truth = cube(2)
    points = np.array([[1e19, 0.5, 0.5], [-1e100, 1e100, 0.5], [0.2, 0.3, 1e120], [0.5, 0.5, 0.5]])
    got = sq_distances(points, truth)
    assert got.tobytes() == brute_force_sq_distances(points, truth).tobytes()


def test_zero_area_truth_raises_in_sq_distances_and_ev():
    """Three vertex ids at one point make a triangle of zero extent, whose
    size tier has no cell size: both functions raise ZeroAreaFaceError
    (sq_distances divided by the zero extent before)."""
    vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [5, 5, 5], [5, 5, 5]]
    truth = TriMesh(vertices, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ZeroAreaFaceError, match=r"\[1\]"):
        sq_distances([[0.5, 0.5, 0.5]], truth)
    with pytest.raises(ZeroAreaFaceError, match=r"\[1\]"):
        ev(truth, truth)


def _tight_points(truth, where, far):
    """Points where a triangle's box bound equals its distance: truth
    vertices, edge midpoints or face centroids, each moved *far* truth
    diagonals along an axis (the box side facing it)."""
    corners = truth.vertices[truth.faces]
    on = {
        "vertices": truth.vertices,
        "midpoints": 0.5 * (corners + np.roll(corners, 1, axis=1)).reshape(-1, 3),
        "centroids": corners.mean(axis=1),
    }[where]
    diagonal = np.linalg.norm(truth.vertices.max(axis=0) - truth.vertices.min(axis=0))
    step = np.zeros((len(on), 3))
    step[np.arange(len(on)), np.arange(len(on)) % 3] = far * diagonal
    return on + step * np.where(np.arange(len(on)) % 2, 1.0, -1.0)[:, None]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(["noisy cube", "icosahedron", "plane"]),
    seed=st.integers(0, 7),
    where=st.sampled_from(["vertices", "midpoints", "centroids"]),
    far=st.sampled_from([0.0, 1e-9, 1e-3, 3.0]),
)
def test_sq_distances_has_the_bits_of_brute_force_where_bounds_are_tight(shape, seed, where, far):
    """On truth vertices, edge midpoints and face centroids, and far
    outside the box along an axis, the box bound equals a triangle's
    distance, and skipping on it must still give brute force's bits; the
    icosahedron's triangles fall into two size tiers."""
    truth = {
        "noisy cube": lambda: add_noise(cube(3), NoiseSpec(0.3, "normal", seed=seed)),
        "icosahedron": lambda: icosahedron(4),
        "plane": lambda: plane(6),
    }[shape]()
    points = _tight_points(truth, where, far)
    got = sq_distances(points, truth)
    assert got.tobytes() == brute_force_sq_distances(points, truth).tobytes()


def test_sq_distances_tiny_triangles_far_apart():
    """Two triangles 1e-3 across and 1e4 apart, 1e7 cells per axis: the
    grid widens its cell to 2⁻²⁰ of the span and still answers exactly."""
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


def _found_mesh():
    """A unit triangle beside one 1e-30 across lying flat along z = 1,
    whose size tier puts its box corner 1e30 cells from the origin."""
    vertices = [[0, 0, 1], [1e-30, 0, 1], [0, 1e-30, 1], [2, 0, 0], [3, 0, 0], [2, 1, 0]]
    return TriMesh(vertices, [[0, 1, 2], [3, 4, 5]])


def _points_around(truth, scale):
    """The truth vertices, and points *scale* to 100 *scale* from them."""
    rng = np.random.default_rng(3)
    moved = [truth.vertices + rng.normal(size=truth.vertices.shape) * s for s in (scale, 100 * scale)]
    return np.vstack([truth.vertices, *moved])


def test_sq_distances_tiny_triangle_far_from_the_origin():
    """The grid widens the tiny triangle's tier cell to 2⁻⁵⁰ of its
    coordinate magnitude: brute force's distances, and ev(t, t) == 0."""
    truth = _found_mesh()
    for scale in (1e-31, 1e-3):
        points = _points_around(truth, scale)
        got = sq_distances(points, truth)
        np.testing.assert_allclose(got, brute_force_sq_distances(points, truth), rtol=0.0, atol=0.0)
    assert ev(truth, truth) == 0.0


def test_sq_distances_tiny_triangles_one_apart_in_one_tier():
    """Two 1e-30 triangles 1 apart in z share a size tier whose box
    corners span 1e30 cells: the grid widens the cell to 2⁻²⁰ of that span."""
    small = np.array([[0.0, 0.0, 0.0], [1e-30, 0.0, 0.0], [0.0, 1e-30, 0.0]])
    truth = TriMesh(np.vstack([small, small + [0.0, 0.0, 1.0]]), [[0, 1, 2], [3, 4, 5]])
    for scale in (1e-31, 1e-3):
        points = _points_around(truth, scale)
        got = sq_distances(points, truth)
        np.testing.assert_allclose(got, brute_force_sq_distances(points, truth), rtol=0.0, atol=0.0)
    assert ev(truth, truth) == 0.0


def test_far_points_are_inf_without_a_warning():
    """Points 1e155 and more from the truth, in several directions: their
    squared distance passes float range, so sq_distances, brute force and
    ev give inf, not NaN, and numpy's overflow warnings stay inside."""
    truth = cube(2)
    directions = np.vstack([np.eye(3), -np.eye(3), [[1, 1, 1], [-1, 1, 0], [1, -1, -1]]])
    points = [[1e160, 0.5, 0.5], [0.5, 0.5, 1e300], [1e170] * 3, [-1e300, 1e300, 0.5]]
    points += [d * m for d in directions for m in (1e155, 1e200, 1e300)]
    points = np.array(points, dtype=np.float64)
    assert np.isposinf(sq_distances(points, truth)).all()
    assert np.isposinf(brute_force_sq_distances(points, truth)).all()
    for p in points:
        assert ev(TriMesh(np.vstack([truth.vertices[:-1], p]), truth.faces), truth) == np.inf


def test_ev_of_a_mesh_whose_cross_products_overflow_when_squared():
    """cube(3) scaled by 1e100: its face geometry is measured at a
    power-of-two scale, so ev of the mesh against itself is 0."""
    truth = cube(3)
    truth = TriMesh(truth.vertices * 1e100, truth.faces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev(truth, truth) == 0.0


@pytest.mark.parametrize("distance", [1e305, 1.7e308])
def test_far_point_over_a_triangle_is_not_nan(distance):
    """9,000 points this far from random triangles up to 1e3 across: where
    a point's dot products with the edges leave float range the pair is
    measured again at a power-of-two scale, so d² is inf, not NaN."""
    rng = np.random.default_rng(5)
    triangles = rng.uniform(-500.0, 500.0, size=(9000, 3, 3))
    direction = rng.normal(size=(9000, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    points = triangles.mean(axis=1) + distance * direction
    assert np.isposinf(point_triangles_sq_distance(points, triangles)).all()


def test_point_over_a_huge_triangle_has_a_finite_distance():
    """A triangle 2**665 (about 1.3e200) across and a point 2**498 (about
    8e149) above its interior: the dot products overflow, the rescaled
    pair does not, and d² is exactly 2**996."""
    triangle = np.array([[[0.0, 0.0, 0.0], [2.0**665, 0.0, 0.0], [0.0, 2.0**665, 0.0]]])
    point = np.array([2.0**663, 2.0**663, 2.0**498])
    assert point_triangles_sq_distance(point, triangle).tolist() == [2.0**996]
    assert brute_force_sq_distances(point[None], TriMesh(triangle[0], [[0, 1, 2]])).tolist() == [2.0**996]


@pytest.mark.parametrize("k", [-600, -520, -300, 300, 520, 1000])
@pytest.mark.parametrize("shape, subdiv", [("cube", 3), ("icosahedron", 4)])
def test_ev_is_exact_at_any_power_of_two_scale(shape, subdiv, k):
    """ev measures where the truth's largest magnitude lies in [1, 2), so
    both meshes scaled by 2**k give the unscaled value bit for bit, with
    no warning, far past where d² or the diagonal leaves float range."""
    truth = make_fixture(shape, subdiv)
    result = add_noise(truth, NoiseSpec(0.3, "normal", seed=5))
    base = ev(result, truth)
    result_k, truth_k = (TriMesh(np.ldexp(m.vertices, k), m.faces) for m in (result, truth))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev(result_k, truth_k) == base
        assert ev(truth_k, truth_k) == 0.0


@pytest.mark.parametrize("k", [-300, 300])
def test_sq_distances_scale_by_the_square_of_a_power_of_two(k):
    truth = cube(3)
    points = add_noise(truth, NoiseSpec(0.3, "normal", seed=5)).vertices
    scaled = sq_distances(np.ldexp(points, k), TriMesh(np.ldexp(truth.vertices, k), truth.faces))
    assert np.array_equal(scaled, np.ldexp(sq_distances(points, truth), 2 * k))


@pytest.mark.parametrize("factor", [1e160, 1e200, 1e300])
def test_sq_distances_of_a_huge_truth_have_the_bits_of_brute_force(factor):
    """Noisy cube(3) and its truth scaled by 1e160 and more: the squared
    distances pass float range, and sq_distances gives brute force's inf
    with no warning."""
    truth = cube(3)
    points = add_noise(truth, NoiseSpec(0.3, "normal", seed=5)).vertices * factor
    truth = TriMesh(truth.vertices * factor, truth.faces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sq_distances(points, truth)
    np.testing.assert_array_equal(got, brute_force_sq_distances(points, truth))


def test_ev_of_a_vertex_too_far_for_the_truths_frame_is_inf():
    """icosahedron(1) lies within 1 of the origin, so ev doubles both
    meshes; a result vertex at 1.7e308 then passes float range, and ev,
    over 2**1023 truth sizes, is inf, with no warning."""
    truth = icosahedron(1)
    result = TriMesh(np.vstack([truth.vertices[:-1], [[1.7e308, 0.0, 0.0]]]), truth.faces)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev(result, truth) == np.inf


def test_point_too_far_for_a_tiny_truths_frame_is_measured_as_given():
    """cube(2) scaled by 2**-520 and points 2**505 and 1e308 away: scaled
    into the truth's frame they pass float range, so they are measured as
    given, where d² of the first is finite."""
    truth = cube(2)
    truth = TriMesh(np.ldexp(truth.vertices, -520), truth.faces)
    points = np.vstack([truth.vertices[:3], [[2.0**505, 0.0, 0.0], [-1e308, 1e308, 5.0]]])
    got = sq_distances(points, truth)
    assert np.isfinite(got[3])
    np.testing.assert_array_equal(got, brute_force_sq_distances(points, truth))
