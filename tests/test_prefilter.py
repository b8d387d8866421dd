"""Tests for the quadratic relaxation stage used before segmentation."""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from meshseg import cube, icosahedron, plane
from meshseg.core import TriMesh, build_topology, face_geometry
from meshseg.edgeop import edge_operator_field
from meshseg.errors import DegenerateFlapError, SolverDivergedError
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import (
    PrefilterParams,
    _cg,
    _solve_columns,
    assemble_system,
    edge_weights,
    prefilter,
)
from meshseg.segment import SegmentParams, segment

from flap_oracle import Flap, quadratic_energy, regularizer


def test_params_validation():
    with pytest.raises(ValueError):
        PrefilterParams(alpha=-1.0)
    with pytest.raises(ValueError):
        PrefilterParams(sigma_w=0.0)
    assert PrefilterParams().max_iter_for(100) == math.ceil(10 * math.sqrt(100))
    # The solver settings are constants, not fields: (5, 5, 2) is the whole tuple.
    assert PrefilterParams(5, 5, 2) == PrefilterParams(alpha=5, beta=5, sigma_w=2)
    assert PrefilterParams(5, 5, 2).solver_tol == 1e-8
    with pytest.raises(TypeError):
        PrefilterParams(5, 5, 2, 1e-8)


def test_regularizer_hand_expansion():
    """Edge midpoint minus opposite-pair midpoint, expanded by hand."""
    flap = Flap(
        p1=np.array([1.0, 2.0, 3.0]),
        p2=np.array([4.0, 5.0, 6.0]),
        p3=np.array([7.0, 8.0, 10.0]),
        p4=np.array([0.0, -1.0, 2.0]),
        faces=(0, 1),
        vertex_ids=(0, 1, 2, 3),
    )
    # (p1+p3)/2 = (4, 5, 6.5); (p2+p4)/2 = (2, 2, 4).
    np.testing.assert_allclose(regularizer(flap), [2.0, 3.0, 2.5], atol=1e-15)


def test_edge_weights_flat_is_one():
    mesh = plane(3)
    topo = build_topology(mesh)
    w = edge_weights(topo, face_geometry(mesh), PrefilterParams().sigma_w)
    np.testing.assert_allclose(w[topo.interior_edge_ids], 1.0, atol=1e-12)
    assert (w[topo.boundary_edge_mask] == 0.0).all()


def test_edge_weights_right_angle_value():
    """Across a 90-degree crease ||n_a - n_b||^2 = 2, so the default
    sigma_w = 0.35 gives exp(-2 / 0.245) ~ 2.85e-4."""
    mesh = cube(1)
    topo = build_topology(mesh)
    w = edge_weights(topo, face_geometry(mesh), PrefilterParams().sigma_w)
    expected = math.exp(-2.0 / (2.0 * 0.35**2))
    crease = w[w < 0.5]
    assert len(crease)  # the cube has crease edges
    np.testing.assert_allclose(crease, expected, rtol=1e-12)


def test_edge_weights_in_unit_interval():
    mesh = add_noise(cube(3), NoiseSpec(0.4, "normal", seed=2))
    topo = build_topology(mesh)
    w = edge_weights(topo, face_geometry(mesh), PrefilterParams().sigma_w)
    interior = w[topo.interior_edge_ids]
    assert (interior > 0.0).all()
    assert (interior <= 1.0).all()


def test_zero_alpha_beta_is_identity():
    mesh = add_noise(cube(2), NoiseSpec(0.5, "normal", seed=4))
    out = prefilter(mesh, PrefilterParams(alpha=0.0, beta=0.0))
    np.testing.assert_array_equal(out.vertices, mesh.vertices)


def test_prefilter_descends_frozen_energy():
    params = PrefilterParams()
    for seed in range(4):
        mesh = add_noise(cube(3), NoiseSpec(0.5, "normal", seed=seed))
        out = prefilter(mesh, params)
        e_in = quadratic_energy(mesh, mesh.vertices, params)
        e_out = quadratic_energy(mesh, out.vertices, params)
        assert e_out <= e_in


def test_prefilter_residual_within_tolerance():
    params = PrefilterParams()
    mesh = add_noise(cube(3), NoiseSpec(0.5, "normal", seed=8))
    out = prefilter(mesh, params)
    system = assemble_system(mesh, params)
    for k in range(3):
        rhs = mesh.vertices[:, k]
        residual = np.linalg.norm(rhs - system @ out.vertices[:, k])
        assert residual <= params.solver_tol * np.linalg.norm(rhs)


def test_prefilter_smooths_noise():
    """Relaxation moves a noisy flat sheet toward the plane it came from."""
    truth = plane(8)
    noisy = add_noise(truth, NoiseSpec(0.3, "normal", seed=6))
    out = prefilter(noisy, PrefilterParams(alpha=3.0, beta=3.0, sigma_w=2.0))
    z_before = np.abs(noisy.vertices[:, 2]).mean()
    z_after = np.abs(out.vertices[:, 2]).mean()
    assert z_after < 0.5 * z_before


def test_system_is_symmetric_positive_definite():
    mesh = add_noise(cube(2), NoiseSpec(0.4, "normal", seed=10))
    system = assemble_system(mesh, PrefilterParams())
    dense = system.toarray()
    np.testing.assert_allclose(dense, dense.T, atol=1e-12)
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.min() >= 1.0 - 1e-9  # I plus a PSD smoothing term


def test_solver_iteration_cap_raises(monkeypatch):
    """Every coordinate stops at the cap; the error names the first, also
    when cube(32)'s coordinates are solved on threads."""
    monkeypatch.setattr(PrefilterParams, "max_iter_for", lambda self, n_vertices: 1)
    for mesh in (cube(3), cube(32)):
        noisy = add_noise(mesh, NoiseSpec(0.5, "normal", seed=1))
        with pytest.raises(SolverDivergedError, match="coordinate 0 .* within 1 iterations"):
            prefilter(noisy, PrefilterParams(alpha=50.0, beta=50.0))


@pytest.mark.parametrize("mesh", [cube(16), icosahedron(32)], ids=repr)
def test_worker_count_does_not_move_bits(mesh):
    """The three coordinate solves give the same bits one after the other
    and on three threads, below 10,000 vertices and above, where CG's
    dots are blocked. No thread outlives the call."""
    noisy = add_noise(mesh, NoiseSpec(0.5, "normal", seed=23))
    params = PrefilterParams(5, 5, 2)
    system = assemble_system(noisy, params)
    columns = noisy.vertices.T.copy()
    max_iter = params.max_iter_for(noisy.n_vertices)
    threads = threading.active_count()
    serial, threaded = (
        _solve_columns(system, columns, params.solver_tol, max_iter, workers) for workers in (1, 3)
    )
    assert threading.active_count() == threads
    assert [info for _, info in serial] == [info for _, info in threaded] == [0, 0, 0]
    for (x, _), (y, _) in zip(serial, threaded):
        assert x.tobytes() == y.tobytes()


def test_solver_threads_see_the_callers_error_state(monkeypatch):
    """numpy's error state is a context variable, which a thread does
    not inherit: each solve runs in a copy of the caller's context."""
    module = sys.modules["meshseg.prefilter"]
    seen = []

    def recording_cg(*args):
        seen.append(np.geterr())
        return real_cg(*args)

    real_cg = module._cg
    monkeypatch.setattr(module, "_cg", recording_cg)
    noisy = add_noise(cube(4), NoiseSpec(0.5, "normal", seed=23))
    params = PrefilterParams(5, 5, 2)
    system = assemble_system(noisy, params)
    with np.errstate(over="ignore", divide="raise", invalid="print", under="warn"):
        caller = np.geterr()
        _solve_columns(system, noisy.vertices.T.copy(), params.solver_tol, 50, 3)
    assert caller != np.geterr()
    assert seen == [caller] * 3


@pytest.mark.parametrize("seed", [23, 7919])
@pytest.mark.parametrize(
    "mesh", [cube(8), cube(16), cube(32), icosahedron(16), icosahedron(32)], ids=repr
)
def test_cg_work_is_bounded(mesh, seed):
    """A work guard without a clock: at the benchmark's noise (0.5 mean
    edge lengths) and prefilter settings, CG reaches solver_tol on every
    coordinate within 90 iterations, where the cap ceil(10·√V) allows
    197 to 1,013. These inputs take 66 to 82 steps."""
    noisy = add_noise(mesh, NoiseSpec(0.5, "normal", seed=seed))
    params = PrefilterParams(5, 5, 2)
    system = assemble_system(noisy, params)
    # One contiguous row per coordinate, as prefilter passes them.
    for rhs in noisy.vertices.T.copy():
        assert _cg(system, rhs, params.solver_tol, 90)[1] == 0


def test_prefilter_preserves_connectivity_and_empty_mesh():
    mesh = cube(1)
    out = prefilter(mesh, PrefilterParams())
    np.testing.assert_array_equal(out.faces, mesh.faces)
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    out_empty = prefilter(empty, PrefilterParams())
    assert out_empty.vertices.shape == out_empty.faces.shape == (0, 3)
    assert out_empty.vertices.dtype == np.float64 and out_empty.faces.dtype == np.int64


def test_single_triangle_has_no_regularization():
    """No interior edge: every weight is 0, the system is the identity in
    CSR, and prefiltering returns the input bits."""
    triangle = TriMesh(np.eye(3) + 0.25, [[0, 1, 2]])
    params = PrefilterParams(alpha=5.0, beta=5.0)
    topo = build_topology(triangle)
    assert edge_weights(topo, face_geometry(triangle), params.sigma_w).tolist() == [0.0] * 3
    system = assemble_system(triangle, params)
    identity = sp.identity(3, format="csr")
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(system, attr), getattr(identity, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert system.shape == (3, 3)
    out = prefilter(triangle, params)
    assert out.vertices.tobytes() == triangle.vertices.tobytes()
    assert out.faces.tobytes() == triangle.faces.tobytes()


def sliver_cube():
    """cube(4) with vertex 31 pulled to 1e-13 of the corner vertex 4: the
    faces between them are slivers far below the degenerate-flap floor,
    though none has zero area."""
    vertices = cube(4).vertices.copy()
    step = vertices[31] - vertices[4]
    vertices[31] = vertices[4] + 1e-13 * step / np.linalg.norm(step)
    return TriMesh(vertices, cube(4).faces)


def test_sliver_flaps_fail_the_prefilter_as_the_field():
    """The prefilter evaluates the field's flaps, so it rejects a sliver
    with the field's error and edge list, not with a CG that diverges."""
    mesh = sliver_cube()
    with pytest.raises(DegenerateFlapError) as field:
        edge_operator_field(mesh, mesh.topology)
    assert "on edges [21, 22, 23, 39, 102]" in str(field.value)
    params = PrefilterParams(5, 5, 2)
    for run in (lambda: prefilter(mesh, params), lambda: segment(mesh, SegmentParams(0.05), params)):
        with pytest.raises(DegenerateFlapError) as got:
            run()
        assert str(got.value) == str(field.value)
