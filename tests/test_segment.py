"""Tests for region growing over edge-operator norms and refinement."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshseg
from meshseg import cube, icosahedron, plane
from meshseg.core import TriMesh, build_topology, face_geometry
from meshseg.edgeop import edge_operator_field
from meshseg.errors import LabelLengthMismatchError
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import PrefilterParams
from meshseg.segment import (
    BASELINE_MODES,
    ClusterLabels,
    SegmentParams,
    _dihedral_angles,
    refine,
    region_grow,
    segment,
)


def noisy_cube(subdiv=8, seed=23):
    return add_noise(cube(subdiv), NoiseSpec(0.5, "normal", seed=seed))


def is_refinement(fine, coarse):
    """True if every *fine* cluster is contained in one *coarse* cluster."""
    pair = fine.labels.astype(np.int64) * (coarse.labels.max() + 1) + coarse.labels
    # Each fine label must map to exactly one pair value.
    for lab in range(fine.cluster_count):
        if len(np.unique(pair[fine.labels == lab])) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Parameter and label containers
# ---------------------------------------------------------------------------


def test_segment_params_validation():
    with pytest.raises(ValueError):
        SegmentParams(d_thr=-1.0)
    with pytest.raises(ValueError):
        SegmentParams(d_thr=float("nan"))
    with pytest.raises(ValueError):
        SegmentParams(d_thr=0.1, min_cluster_size=0)
    with pytest.raises(ValueError):
        SegmentParams(d_thr=0.1, baseline_mode="voronoi")
    with pytest.raises(ValueError):
        SegmentParams(d_thr=0.1, baseline_mode="none")
    assert BASELINE_MODES == ("edgeop", "normal-angle")


def test_cluster_labels_from_array_checks_contiguity():
    labels = ClusterLabels.from_array(np.array([0, 1, 1, 2]))
    assert labels.cluster_count == 3
    np.testing.assert_array_equal(labels.cluster_sizes, [1, 2, 1])
    with pytest.raises(ValueError):
        ClusterLabels.from_array(np.array([0, 2, 2]))  # label 1 missing
    with pytest.raises(ValueError):
        ClusterLabels.from_array(np.array([-1, 0, 1]))
    with pytest.raises(LabelLengthMismatchError):
        ClusterLabels.from_array(np.array([0, 1]), n_faces=3)


@pytest.mark.parametrize(
    "labels",
    [np.linspace(0, 1.9, 48), [True, False, True], np.zeros((48, 1), dtype=np.int64)],
    ids=["float", "bool", "2d"],
)
def test_cluster_labels_from_array_rejects_labels_that_are_not_1d_integers(labels):
    """Truncated to int64, the floats made 2 clusters and the bools [1 0 1]."""
    with pytest.raises(ValueError, match="1-D integer"):
        ClusterLabels.from_array(labels)


# ---------------------------------------------------------------------------
# Region growing
# ---------------------------------------------------------------------------


def test_clean_cube_grows_six_sides():
    mesh = cube(4)
    labels = segment(mesh, SegmentParams(d_thr=1e-4, min_cluster_size=1))
    assert labels.cluster_count == 6
    np.testing.assert_array_equal(labels.cluster_sizes, [32] * 6)
    # Construction order: faces of one side are contiguous in id space.
    np.testing.assert_array_equal(labels.labels, np.arange(12 * 16) // 32)


def test_clean_icosahedron_grows_twenty_sides():
    mesh = icosahedron(3)
    labels = segment(mesh, SegmentParams(d_thr=1e-4, min_cluster_size=1))
    assert labels.cluster_count == 20
    np.testing.assert_array_equal(labels.cluster_sizes, [9] * 20)


def test_infinite_threshold_single_cluster():
    labels = segment(noisy_cube(4), SegmentParams(d_thr=float("inf"), min_cluster_size=1))
    assert labels.cluster_count == 1


def test_zero_threshold_all_singletons():
    mesh = noisy_cube(4)
    labels = segment(mesh, SegmentParams(d_thr=0.0, min_cluster_size=1))
    assert labels.cluster_count == mesh.n_faces
    # Seeds are consumed in ascending face id, so labels are the identity.
    np.testing.assert_array_equal(labels.labels, np.arange(mesh.n_faces))


def test_strict_inequality_at_threshold():
    """An edge whose norm equals d_thr exactly does not merge its faces."""
    mesh = cube(1)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    interior = norms[topo.interior_edge_ids]
    crease = float(interior[interior > 0.0].min())
    at = region_grow(topo, norms, d_thr=crease)
    above = region_grow(topo, norms, d_thr=crease * (1.0 + 1e-9))
    assert at.cluster_count == 6
    assert above.cluster_count == 1


def test_region_grow_rejects_wrong_field_size():
    mesh = cube(1)
    topo = build_topology(mesh)
    with pytest.raises(LabelLengthMismatchError):
        region_grow(topo, np.zeros(topo.n_edges + 1), d_thr=0.1)


def test_partition_nesting_along_threshold_grid():
    """Raising d_thr only merges clusters, never splits them."""
    mesh = noisy_cube(6)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    grid = [1e-6, 1e-3, 1e-1, 1.0, float("inf")]
    parts = [region_grow(topo, norms, d_thr=t) for t in grid]
    for fine, coarse in zip(parts, parts[1:]):
        assert fine.cluster_count >= coarse.cluster_count
        assert is_refinement(fine, coarse)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def test_refine_removes_small_clusters():
    mesh = noisy_cube(8)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    raw = region_grow(topo, norms, d_thr=0.005)
    sizes_before = raw.cluster_sizes
    refined = refine(topo, face_geometry(mesh), raw, SegmentParams(d_thr=0.005))
    assert refined.cluster_count <= raw.cluster_count
    # Every surviving label is a (possibly grown) originally-large cluster.
    assert (refined.cluster_sizes >= 50).all() or refined.cluster_count == 1
    assert sizes_before.min() < 50  # the fixture actually exercises the path


def test_refine_faces_move_to_adjacent_large_cluster():
    """A small cluster merges into a large one it actually touches."""
    mesh = cube(4)
    labels = np.asarray(segment(mesh, SegmentParams(d_thr=1e-4, min_cluster_size=1)).labels)
    # Carve two faces of side 0 into a fake 7th cluster.
    labels = labels.copy()
    labels[labels == 0] = 0
    carved = np.flatnonzero(labels == 0)[:2]
    labels[carved] = 6
    raw = ClusterLabels.from_array(labels)
    topo = build_topology(mesh)
    refined = refine(
        topo, face_geometry(mesh), raw, SegmentParams(d_thr=1e-4, min_cluster_size=10)
    )
    assert refined.cluster_count == 6
    np.testing.assert_array_equal(
        np.asarray(refined.labels), np.asarray(segment(mesh, SegmentParams(d_thr=1e-4, min_cluster_size=1)).labels)
    )


def test_refine_all_small_collapses_to_single_cluster():
    """If no cluster reaches the size floor everything merges into one."""
    mesh = cube(1)  # 12 faces, all clusters below min_cluster_size=50
    labels = segment(mesh, SegmentParams(d_thr=1e-4, min_cluster_size=50))
    assert labels.cluster_count == 1
    assert labels.cluster_sizes[0] == 12


# segment(noisy_cube(6), d_thr 0.02) before refinement: 303 clusters.
RAW_LABELS_SHA256 = "0dc4423854482b7d18816f9cee1eefdeb444b54ebd59a108bbb062fc63966877"


def test_min_cluster_size_one_keeps_the_raw_labels():
    """No cluster is smaller than one face, so min_cluster_size=1 leaves
    region_grow's labels as they are (the default floor of 50 merges all
    303 clusters of this mesh into one)."""
    mesh = noisy_cube(6)
    labels = segment(mesh, SegmentParams(d_thr=0.02, min_cluster_size=1))
    topo = mesh.topology
    raw = region_grow(topo, edge_operator_field(mesh, topo), 0.02)
    np.testing.assert_array_equal(labels.labels, raw.labels)
    assert labels.cluster_count == 303
    assert hashlib.sha256(labels.labels.tobytes()).hexdigest() == RAW_LABELS_SHA256
    assert segment(mesh, SegmentParams(d_thr=0.02)).cluster_count == 1


def _cube1_beside_cube2():
    """cube(1) (faces 0-11, 2-face sides) and cube(2) shifted by 3 (faces
    12-59, 8-face sides): two components that share no edge."""
    small, big = cube(1), cube(2)
    return TriMesh(
        np.concatenate([small.vertices, big.vertices + 3.0]),
        np.concatenate([small.faces, big.faces + small.n_vertices]),
    )


def test_refine_with_no_large_cluster_merges_both_components():
    labels = segment(_cube1_beside_cube2(), SegmentParams(d_thr=1e-4, min_cluster_size=50))
    assert labels.cluster_count == 1
    np.testing.assert_array_equal(labels.labels, np.zeros(60))


def test_stranded_component_joins_the_globally_largest_cluster():
    """cube(1)'s component holds no cluster of 8 faces, so its sides join
    the largest cluster (the lowest label among equal sizes); cube(2)'s
    sides keep their own labels."""
    labels = segment(_cube1_beside_cube2(), SegmentParams(d_thr=1e-4, min_cluster_size=8))
    np.testing.assert_array_equal(labels.labels, np.r_[np.zeros(12), np.arange(48) // 8])


def test_refine_snapshot_semantics():
    """Reassignment targets are decided against the pre-refinement labels:
    a face of a small cluster never votes for another small cluster, even
    after that cluster has absorbed faces during the same pass."""
    mesh = noisy_cube(8, seed=7)
    topo = build_topology(mesh)
    norms = edge_operator_field(mesh, topo)
    raw = region_grow(topo, norms, d_thr=0.005)
    refined = refine(topo, face_geometry(mesh), raw, SegmentParams(d_thr=0.005))
    big_before = set(np.flatnonzero(np.asarray(raw.cluster_sizes) >= 50).tolist())
    if big_before:
        # Labels are recompacted; map refined labels back via face overlap.
        for lab in range(refined.cluster_count):
            members = np.flatnonzero(refined.labels == lab)
            origins = set(np.asarray(raw.labels)[members].tolist())
            # Every refined cluster contains exactly one originally-large core.
            assert len(origins & big_before) == 1


def test_segment_full_pipeline_on_noisy_cube():
    """Prefilter + growing + refinement recovers the six sides."""
    labels = segment(
        noisy_cube(8, seed=23),
        SegmentParams(d_thr=0.013, ring_depth=2),
        prefilter_params=PrefilterParams(alpha=5.0, beta=5.0, sigma_w=2.0),
    )
    assert labels.cluster_count == 6
    assert labels.cluster_sizes.min() >= 100


def test_baseline_normal_angle_on_clean_cube():
    """Dihedral-angle growing also separates the clean cube's sides."""
    labels = segment(
        cube(4), SegmentParams(d_thr=np.radians(20.0), baseline_mode="normal-angle", min_cluster_size=1)
    )
    assert labels.cluster_count == 6


def test_labels_are_deterministic():
    mesh = noisy_cube(6)
    params = SegmentParams(d_thr=0.01)
    a = segment(mesh, params, prefilter_params=PrefilterParams())
    b = segment(mesh, params, prefilter_params=PrefilterParams())
    np.testing.assert_array_equal(a.labels, b.labels)


def test_cluster_labels_from_no_labels():
    labels = ClusterLabels.from_array([])
    assert labels.cluster_count == 0
    assert labels.labels.dtype == labels.cluster_sizes.dtype == np.int64
    assert labels.labels.shape == labels.cluster_sizes.shape == (0,)


def test_refine_of_no_clusters_returns_them():
    mesh = TriMesh(np.eye(3), np.zeros((0, 3), dtype=np.int64))
    clusters = ClusterLabels.from_array([], n_faces=0)
    out = refine(mesh.topology, face_geometry(mesh), clusters, SegmentParams(0.1))
    assert out is clusters


def _side_labels(mesh):
    """Labels of the clean cube's six sides, numbered by their lowest face."""
    _, first, side = np.unique(
        np.round(face_geometry(mesh).normals), axis=0, return_index=True, return_inverse=True
    )
    return np.argsort(np.argsort(first))[side.ravel()]


@pytest.mark.parametrize("shape", ["plane", "cube"])
@pytest.mark.parametrize("d_thr", [np.radians(20.0), np.inf])
def test_normal_angle_labels(shape, d_thr):
    """The baseline grows through region_grow on the normal angles, +inf
    on boundary edges. It splits the clean cube along its creases at 20
    degrees and nowhere at +inf, and keeps the flat plane whole."""
    mesh = cube(4) if shape == "cube" else plane(4)
    labels = segment(mesh, SegmentParams(d_thr, baseline_mode="normal-angle", min_cluster_size=1))
    topo = mesh.topology
    angles = _dihedral_angles(topo, face_geometry(mesh))
    assert np.isinf(angles[topo.boundary_edge_mask]).all()
    assert np.isfinite(angles[~topo.boundary_edge_mask]).all()
    assert topo.boundary_edge_mask.any() == (shape == "plane")
    grown = region_grow(topo, angles, d_thr)
    assert labels.labels.tobytes() == grown.labels.tobytes()
    if shape == "cube" and np.isfinite(d_thr):
        want = _side_labels(mesh)
        assert want.max() == 5
    else:
        want = np.zeros(mesh.n_faces, dtype=np.int64)
    assert labels.labels.tolist() == want.tolist()


def test_segment_ladder_labels_do_not_depend_on_blas_threads():
    """Above 10,000 entries numpy's BLAS splits a dot product among its
    threads, so the prefiltered positions of icosahedron(32) (V = 10,242)
    differ in their last bits between one and two BLAS threads. The
    labels of the segment-ladder input (seed 23, k = 0.03) do not."""
    script = (
        "import hashlib\n"
        "from meshseg import NoiseSpec, PrefilterParams, SegmentParams, add_noise\n"
        "from meshseg import icosahedron, segment\n"
        "noisy = add_noise(icosahedron(32), NoiseSpec(0.5, 'normal', seed=23))\n"
        "params = SegmentParams(0.03 * noisy.topology.mean_edge_length)\n"
        "labels = segment(noisy, params, PrefilterParams(5, 5, 2)).labels\n"
        "print(hashlib.sha256(labels.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(meshseg.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
