"""Tests for the flap coefficient operator and its per-edge field.

Expected vectors were computed with an independent straight-line
transcription of the coefficient formulas (see tests for the exact
inputs); they are frozen here as literals.
"""

import csv
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg import cube, fileio, icosahedron, plane
from meshseg.core import TriMesh, build_topology
from meshseg.edgeop import edge_operator_field, operator_coefficients
from meshseg.errors import DegenerateFlapError
from meshseg.fileio import write_norms_csv
from meshseg.noise import NoiseSpec, add_noise

from flap_oracle import Flap, edge_operator, flap_of_edge


def flap_from_points(p1, p2, p3, p4):
    """Build a Flap directly from four corner positions."""
    return Flap(
        p1=np.asarray(p1, dtype=float),
        p2=np.asarray(p2, dtype=float),
        p3=np.asarray(p3, dtype=float),
        p4=np.asarray(p4, dtype=float),
        faces=(0, 1),
        vertex_ids=(0, 1, 2, 3),
    )


def random_flap(rng, min_dihedral_deg=0.0):
    """Random non-degenerate flap; optionally enforce a dihedral bend."""
    while True:
        pts = rng.normal(size=(4, 3))
        flap = flap_from_points(*pts)
        n1 = np.cross(flap.p3 - flap.p1, flap.p2 - flap.p1)
        n2 = np.cross(flap.p4 - flap.p1, flap.p3 - flap.p1)
        a1, a2 = np.linalg.norm(n1), np.linalg.norm(n2)
        if a1 < 1e-6 or a2 < 1e-6:
            continue
        angle = np.degrees(np.arccos(np.clip(np.dot(n1, n2) / (a1 * a2), -1.0, 1.0)))
        if angle >= min_dihedral_deg:
            return flap


def coplanar_flap(rng):
    """Random flat flap: both wings in one plane, on opposite sides of the
    shared edge, as on a manifold surface."""
    origin = rng.normal(size=3)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    w = rng.normal(size=3)
    w -= np.dot(w, u) * u
    w /= np.linalg.norm(w)
    edge_len = rng.uniform(0.5, 3.0)
    p1 = origin
    p3 = origin + edge_len * u
    p2 = origin + rng.uniform(-1.0, 2.0) * u + rng.uniform(0.3, 2.0) * w
    p4 = origin + rng.uniform(-1.0, 2.0) * u - rng.uniform(0.3, 2.0) * w
    return flap_from_points(p1, p2, p3, p4)


# ---------------------------------------------------------------------------
# Frozen-value oracles
# ---------------------------------------------------------------------------


def test_right_angle_flap_exact_value():
    """90-degree bend with symmetric wings: operator is (0, 1/2, 1/2)."""
    flap = flap_from_points(
        [0.0, 0.0, 0.0], [0.5, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 1.0]
    )
    np.testing.assert_allclose(edge_operator(flap), [0.0, 0.5, 0.5], atol=1e-15)


def test_generic_flap_frozen_value():
    """Generic random flap, value frozen from an independent transcription."""
    pts = np.random.default_rng(42).normal(size=(4, 3))
    flap = flap_from_points(*pts)
    expected = [-0.18843613056009217, -0.0919635617175193, -0.04330764280487154]
    np.testing.assert_allclose(edge_operator(flap), expected, rtol=1e-13)


# ---------------------------------------------------------------------------
# Analytic properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_coplanar_gives_zero(seed):
    flap = coplanar_flap(np.random.default_rng(seed))
    scale = np.linalg.norm(flap.p3 - flap.p1)
    assert np.linalg.norm(edge_operator(flap)) <= 1e-10 * scale


@pytest.mark.parametrize("seed", range(8))
def test_noncoplanar_gives_nonzero(seed):
    flap = random_flap(np.random.default_rng(seed), min_dihedral_deg=5.0)
    scale = np.linalg.norm(flap.p3 - flap.p1)
    assert np.linalg.norm(edge_operator(flap)) >= 1e-6 * scale


def test_coefficients_sum_to_zero():
    """The operator is a difference of affine combinations: translation-free."""
    rng = np.random.default_rng(11)
    flap = random_flap(rng)
    shift = rng.normal(size=3) * 10.0
    shifted = flap_from_points(
        flap.p1 + shift, flap.p2 + shift, flap.p3 + shift, flap.p4 + shift
    )
    np.testing.assert_allclose(
        edge_operator(shifted), edge_operator(flap), atol=1e-12
    )


def test_rotation_equivariance():
    rng = np.random.default_rng(5)
    flap = random_flap(rng)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = 1.3
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    rotated = flap_from_points(
        flap.p1 @ rot.T, flap.p2 @ rot.T, flap.p3 @ rot.T, flap.p4 @ rot.T
    )
    np.testing.assert_allclose(
        edge_operator(rotated), edge_operator(flap) @ rot.T, atol=1e-12
    )


def test_scale_covariance_of_norm():
    """Doubling the flap doubles the operator norm (degree-1 homogeneous)."""
    flap = random_flap(np.random.default_rng(17))
    doubled = flap_from_points(2 * flap.p1, 2 * flap.p2, 2 * flap.p3, 2 * flap.p4)
    assert np.linalg.norm(edge_operator(doubled)) == pytest.approx(
        2.0 * np.linalg.norm(edge_operator(flap)), rel=1e-12
    )


def test_wing_swap_invariance():
    """Swapping the two wings (p2 <-> p4) leaves the value unchanged."""
    flap = random_flap(np.random.default_rng(23))
    swapped = flap_from_points(flap.p1, flap.p4, flap.p3, flap.p2)
    np.testing.assert_allclose(edge_operator(swapped), edge_operator(flap), atol=1e-12)


def test_degenerate_flap_rejected():
    flap = flap_from_points(
        [0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 1.0]
    )
    with pytest.raises(DegenerateFlapError):
        edge_operator(flap)


# ---------------------------------------------------------------------------
# Field over a whole mesh
# ---------------------------------------------------------------------------


def test_field_matches_per_edge_operator():
    mesh = cube(2)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    assert norms.shape == (topo.n_edges,) and not norms.flags.writeable
    for eid in topo.interior_edge_ids:
        one = edge_operator(flap_of_edge(mesh, topo, int(eid)))
        assert norms[eid] == pytest.approx(np.linalg.norm(one), abs=1e-14)


def test_stacked_coefficients_match_one_flap_calls():
    """On axis-major (3, N) flaps, every output of operator_coefficients
    holds, column by column, the bytes of the one-flap (3,) call."""
    mesh = add_noise(icosahedron(4), NoiseSpec(0.5, "normal", 23))
    flap_vertices = mesh.topology.flap_vertices
    stacked = operator_coefficients(*(mesh.vertices[flap_vertices[:, k]].T for k in range(4)))
    assert all(out.shape == (len(flap_vertices),) for out in stacked)
    for col, ids in enumerate(flap_vertices):
        one = operator_coefficients(*mesh.vertices[ids])
        for got, want in zip(stacked, one, strict=True):
            assert got[col].tobytes() == np.float64(want).tobytes()


def test_field_boundary_edges_are_infinite():
    mesh = plane(2)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    np.testing.assert_array_equal(np.isinf(norms), topo.boundary_edge_mask)


def test_field_flat_interior_is_zero():
    """All interior edges of a flat plane are coplanar flaps."""
    mesh = plane(4)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    assert (norms[topo.interior_edge_ids] <= 1e-12).all()


@functools.cache
def _noisy_cube(seed):
    return add_noise(cube(3), NoiseSpec(0.3, "normal", seed=seed))


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def _rotation(q):
    """The rotation matrix of the quaternion *q* (normalized here)."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 3),
    quaternion=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).filter(
        lambda q: np.linalg.norm(q) > 0.1
    ),
    shift=st.tuples(*[st.floats(-10.0, 10.0, allow_nan=False)] * 3),
)
def test_field_norms_invariant_under_rigid_motion(seed, quaternion, shift):
    """‖D(e)‖ does not change when the mesh is rotated and translated,
    up to rounding in the moved coordinates."""
    mesh = _noisy_cube(seed)
    moved = TriMesh(mesh.vertices @ _rotation(quaternion).T + np.asarray(shift), mesh.faces)
    want = edge_operator_field(mesh, mesh.topology)
    got = edge_operator_field(moved, moved.topology)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 3), k=st.integers(-40, 40))
def test_field_norms_scale_exactly_by_powers_of_two(seed, k):
    """The coefficients are homogeneous of degree 0 and D(e) of degree 1,
    so scaling the mesh by 2**k scales every norm by exactly 2**k: each
    product and quotient only shifts exponents."""
    mesh = _noisy_cube(seed)
    scaled = TriMesh(mesh.vertices * 2.0**k, mesh.faces)
    want = edge_operator_field(mesh, mesh.topology) * 2.0**k
    got = edge_operator_field(scaled, scaled.topology)
    assert got.tobytes() == want.tobytes()


def test_field_degenerate_flap_lists_edges():
    vertices = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 0.0, 1.0],
        ]
    )
    mesh = TriMesh(vertices=vertices, faces=np.array([[0, 1, 2], [0, 2, 3]]))
    topo = build_topology(mesh)
    with pytest.raises(DegenerateFlapError):
        edge_operator_field(mesh, topo)


def test_field_rejects_a_mesh_collapsed_to_one_point():
    """Every vertex at the origin: the mean edge length is 0, so the floor
    is 0 and every flap area equals it. Such flaps are degenerate too;
    the field must raise, not return NaN norms."""
    faces = cube(1).faces
    mesh = TriMesh(vertices=np.zeros((faces.max() + 1, 3)), faces=faces)
    with pytest.raises(DegenerateFlapError):
        edge_operator_field(mesh, mesh.topology)


def test_oracle_rejects_a_flap_collapsed_to_one_point():
    with pytest.raises(DegenerateFlapError):
        edge_operator(flap_from_points(*np.zeros((4, 3))))


def test_norms_csv_round_trip(tmp_path):
    mesh = plane(2)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    out = tmp_path / "norms.csv"
    write_norms_csv(topo, norms, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["edge_id", "v0", "v1", "norm"]
    assert len(rows) == topo.n_edges + 1
    for row in rows[1:]:
        eid = int(row[0])
        assert [int(row[1]), int(row[2])] == topo.edges[eid].tolist()
        assert float(row[3]) == norms[eid] or (row[3] == "inf" and np.isinf(norms[eid]))


def reference_write_norms_csv(topo, norms, path):
    """The norms CSV written one edge at a time from NumPy scalars."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("edge_id,v0,v1,norm\n")
        for eid in range(topo.n_edges):
            v0, v1 = topo.edges[eid]
            fh.write(f"{eid},{v0},{v1},{float(norms[eid])!r}\n")


@pytest.mark.parametrize("rows_per_write", [fileio.ROWS_PER_WRITE, 7])
def test_norms_csv_matches_edge_by_edge_writer(tmp_path, monkeypatch, rows_per_write):
    """A noisy plane has boundary edges (inf) and interior norms that use
    all 17 digits; the bytes match the edge-by-edge writer, also when the
    rows span several writes."""
    monkeypatch.setattr(fileio, "ROWS_PER_WRITE", rows_per_write)
    mesh = add_noise(plane(8), NoiseSpec(0.3, "normal", seed=3))
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    assert np.isinf(norms).any() and np.isfinite(norms).any()
    write_norms_csv(topo, norms, tmp_path / "got.csv")
    reference_write_norms_csv(topo, norms, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_field_of_single_triangle_is_all_infinite():
    """A mesh without interior edges has only boundary norms."""
    triangle = TriMesh(np.eye(3), [[0, 1, 2]])
    norms = edge_operator_field(triangle, triangle.topology)
    assert norms.tolist() == [np.inf] * 3
