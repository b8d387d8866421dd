"""Scalar reference for region growing and refinement, and the property
tests that hold ``meshseg.segment``, whose one breadth-first walk steps
through the topology's ``face_adjacent`` table level by level for all
sources at once, to it label for label and ring pair for ring pair.

The reference walks faces one at a time: a breadth-first flood fill for
growing and, for refinement, a ring around each small-cluster face that
grows one hop at a time until it sees a large cluster. Labels must match
exactly; the library adds the cosines in another order, which could only
matter where two labels' sums agree to rounding.
"""

import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshseg import TriMesh, cube, icosahedron, plane
from meshseg.core import TopologyCache, build_topology, components, face_geometry
from meshseg.edgeop import edge_operator_field
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import PrefilterParams, prefilter
from meshseg.segment import ClusterLabels, SegmentParams, _rings, refine, region_grow

PREFILTER = PrefilterParams(5, 5, 2)


def face_ring(topo: TopologyCache, face_id: int, k: int) -> set[int]:
    """Faces within *k* edge-adjacency hops of *face_id*, seed excluded.

    Plain breadth-first search over ``face_adjacent``; k = 0 gives the
    empty set.
    """
    if not 0 <= face_id < topo.n_faces:
        raise IndexError(f"face id {face_id} out of range")
    seen = {face_id}
    ring: set[int] = set()
    frontier = deque([face_id])
    adjacent = topo.face_adjacent
    for _ in range(k):
        if not frontier:
            break
        next_frontier: deque[int] = deque()
        while frontier:
            f = frontier.popleft()
            for nb in adjacent[f]:
                nb = int(nb)
                if nb >= 0 and nb not in seen:
                    seen.add(nb)
                    ring.add(nb)
                    next_frontier.append(nb)
        frontier = next_frontier
    return ring


def grow_reference(topo: TopologyCache, edge_passes: np.ndarray) -> np.ndarray:
    """Flood fill over passing edges, seeds in ascending face id, labels
    numbered by first discovery."""
    labels = np.full(topo.n_faces, -1, dtype=np.int64)
    current = 0
    for seed in range(topo.n_faces):
        if labels[seed] >= 0:
            continue
        labels[seed] = current
        queue = deque([seed])
        while queue:
            face = queue.popleft()
            for slot in range(3):
                neighbor = topo.face_adjacent[face, slot]
                if neighbor < 0 or labels[neighbor] >= 0:
                    continue
                if edge_passes[topo.face_edges[face, slot]]:
                    labels[neighbor] = current
                    queue.append(neighbor)
        current += 1
    return labels


def refine_reference(topo, geometry, clusters: ClusterLabels, params: SegmentParams):
    """Per-face refinement: grow each small face's ring from ring_depth
    until it holds a large-cluster face or stops growing, then pick the
    large label with the highest cosine sum (ties to the lowest)."""
    sizes = clusters.cluster_sizes
    small_label = sizes < params.min_cluster_size
    if clusters.cluster_count == 0 or not small_label.any():
        return clusters.labels
    snapshot = clusters.labels
    new_labels = snapshot.copy()
    globally_largest = int(np.argmax(sizes))
    if small_label.all():
        new_labels[:] = globally_largest
    else:
        normals = geometry.normals
        for face in np.flatnonzero(small_label[snapshot]):
            face = int(face)
            depth = params.ring_depth
            ring = face_ring(topo, face, depth)
            while True:
                ring_ids = np.fromiter(ring, dtype=np.int64, count=len(ring))
                ring_labels = snapshot[ring_ids] if len(ring_ids) else ring_ids
                candidate = len(ring_ids) > 0 and (~small_label[ring_labels]).any()
                if candidate:
                    break
                depth += 1
                bigger = face_ring(topo, face, depth)
                if len(bigger) == len(ring):
                    break
                ring = bigger
            if not candidate:
                new_labels[face] = globally_largest
                continue
            keep = ~small_label[ring_labels]
            cosines = normals[ring_ids[keep]] @ normals[face]
            score = np.bincount(
                ring_labels[keep], weights=cosines, minlength=clusters.cluster_count
            )
            eligible = np.zeros(clusters.cluster_count, dtype=bool)
            eligible[ring_labels[keep]] = True
            score[~eligible] = -np.inf
            new_labels[face] = int(np.argmax(score))
    return np.unique(new_labels, return_inverse=True)[1].astype(np.int64)


def assert_matches_reference(mesh, d_thr, params):
    topo = build_topology(mesh)
    geometry = face_geometry(mesh)
    norms = edge_operator_field(mesh, topo)
    raw = region_grow(topo, norms, d_thr)
    np.testing.assert_array_equal(raw.labels, grow_reference(topo, norms < d_thr))
    refined = refine(topo, geometry, raw, params)
    np.testing.assert_array_equal(
        refined.labels, refine_reference(topo, geometry, raw, params)
    )
    return raw, refined


# ---------------------------------------------------------------------------
# The reference ring itself
# ---------------------------------------------------------------------------


def test_face_ring_depth_zero_is_empty():
    topo = build_topology(cube(1))
    assert face_ring(topo, 0, 0) == set()


def test_face_ring_depth_one_is_edge_adjacency():
    topo = build_topology(cube(1))
    ring = face_ring(topo, 0, 1)
    expected = {int(f) for f in topo.face_adjacent[0] if f >= 0}
    assert ring == expected
    assert 0 not in ring


def test_face_ring_grows_monotonically():
    topo = build_topology(cube(3))
    prev = set()
    for k in range(1, 5):
        ring = face_ring(topo, 0, k)
        assert prev <= ring
        prev = ring
    # Depth large enough reaches every other face of the closed cube.
    full = face_ring(topo, 0, 100)
    assert len(full) == 12 * 9 - 1


# ---------------------------------------------------------------------------
# Library rings equal the reference's, pair for pair
# ---------------------------------------------------------------------------


def ring_depth_reference(topo: TopologyCache, source: int, depth: int, target) -> int:
    """max(*depth*, the first hop whose face_ring holds a *target* face);
    the hop where the ring stops growing, if that comes first."""
    hop, ring = 1, face_ring(topo, source, 1)
    while hop < depth or not any(target[g] for g in ring):
        bigger = face_ring(topo, source, hop + 1)
        if len(bigger) == len(ring):
            break
        hop, ring = hop + 1, bigger
    return hop


def rings_reference(topo: TopologyCache, sources, depth: int, target):
    """(2, n) pairs (i, g) in the library's order: by hop, then source
    index, then face id; face g lies exactly that many hops from
    sources[i], at most its ring_depth_reference. Also those depths."""
    depths = [ring_depth_reference(topo, int(s), depth, target) for s in sources]
    pairs = sorted(
        (hop, i, g)
        for i, (source, reach) in enumerate(zip(sources, depths))
        for hop in range(1, reach + 1)
        for g in face_ring(topo, int(source), hop) - face_ring(topo, int(source), hop - 1)
    )
    want = np.array([(i, g) for _, i, g in pairs], dtype=np.int64).reshape(-1, 2).T
    return want, depths


@pytest.mark.parametrize("mesh", [cube(8), icosahedron(8), plane(8)], ids=repr)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rings_match_the_reference(mesh, seed):
    """Random sources (repeats allowed) at depth 1-3, toward a sparse
    random target mask and toward the last source's own face alone; the
    plane has boundary slots (-1)."""
    topo = mesh.topology
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, topo.n_faces, size=12)
    depth = int(rng.integers(1, 4))
    alone = np.zeros(topo.n_faces, dtype=bool)
    alone[sources[-1]] = True
    beyond = 0
    for target in (rng.random(topo.n_faces) < 0.02, alone):
        owner, face = _rings(topo, sources, depth, target)
        want, depths = rings_reference(topo, sources, depth, target)
        assert owner.dtype == face.dtype == np.int64
        np.testing.assert_array_equal(np.stack((owner, face)), want)
        beyond += sum(reach > depth for reach in depths)
    # Some source's nearest target lies beyond depth, and the last source,
    # its own only target, reaches every other face of its (connected)
    # mesh: it walks deeper than the mesh's diameter.
    assert beyond >= 1
    assert (owner == 11).sum() == topo.n_faces - 1


def test_rings_of_no_sources_are_empty():
    topo = cube(2).topology
    empty = np.empty(0, dtype=np.int64)
    owner, face = _rings(topo, empty, 2, np.zeros(topo.n_faces, dtype=bool))
    assert owner.shape == face.shape == (0,)
    assert owner.dtype == face.dtype == np.int64


def shuffled_noisy(mesh):
    """*mesh* with shuffled vertex and face ids and noise, its topology and
    edge-operator norms, and the thresholds to grow it at: from every face
    alone to one cluster per connected component."""
    rng = np.random.default_rng(3)
    vertex_order = rng.permutation(mesh.n_vertices)
    face_order = rng.permutation(mesh.n_faces)
    shuffled = TriMesh(mesh.vertices[vertex_order], np.argsort(vertex_order)[mesh.faces[face_order]])
    noisy = add_noise(shuffled, NoiseSpec(0.5, "normal", seed=23))
    topo = build_topology(noisy)
    mel = topo.mean_edge_length
    return noisy, topo, edge_operator_field(noisy, topo), (0.0, 0.02 * mel, 0.06 * mel, np.inf)


@pytest.mark.parametrize("mesh", [cube(8), icosahedron(8), plane(8)], ids=repr)
def test_region_grow_numbers_components_as_unique_does(mesh):
    """region_grow ranks each component's root (its minimum face id) in
    face order; that is np.unique's inverse of the roots."""
    _, topo, norms, thresholds = shuffled_noisy(mesh)
    for d_thr in thresholds:
        a, b = topo.edge_faces[(norms < d_thr) & ~topo.boundary_edge_mask].T
        roots = components(topo.n_faces, a, b)
        labels = region_grow(topo, norms, d_thr).labels
        np.testing.assert_array_equal(labels, np.unique(roots, return_inverse=True)[1])


@pytest.mark.parametrize("mesh", [cube(8), icosahedron(8), plane(8)], ids=repr)
def test_refine_numbers_labels_as_unique_does(mesh, monkeypatch):
    """refine compacts its reassigned labels with the renumbering that
    region_grow uses; its output is np.unique's inverse of that input,
    whose absorbed labels leave gaps."""
    noisy, topo, norms, thresholds = shuffled_noisy(mesh)
    module = sys.modules["meshseg.segment"]
    dense_ranks, inputs = module._dense_ranks, []

    def spy(values, n):
        inputs.append(values.copy())
        return dense_ranks(values, n)

    monkeypatch.setattr(module, "_dense_ranks", spy)
    gaps = 0
    for d_thr in thresholds:
        raw = region_grow(topo, norms, d_thr)
        refined = refine(topo, face_geometry(noisy), raw, SegmentParams(d_thr, min_cluster_size=10))
        if refined is not raw:
            values = inputs[-1]
            gaps += len(np.unique(values)) < raw.cluster_count
            np.testing.assert_array_equal(refined.labels, np.unique(values, return_inverse=True)[1])
    assert gaps >= 1


# ---------------------------------------------------------------------------
# Library labels equal the reference's
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    subdiv=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**16),
    k=st.floats(0.02, 0.08),
    ring_depth=st.integers(1, 3),
    min_cluster_size=st.sampled_from([10, 50, 200]),
)
def test_segmentation_matches_reference(subdiv, seed, k, ring_depth, min_cluster_size):
    # Prefiltered noisy cubes at these k mix small and large clusters;
    # below k = 0.02 nearly every cluster is small.
    noisy = add_noise(cube(subdiv), NoiseSpec(0.5, "normal", seed=seed))
    d_thr = k * build_topology(noisy).mean_edge_length
    params = SegmentParams(d_thr, min_cluster_size=min_cluster_size, ring_depth=ring_depth)
    assert_matches_reference(prefilter(noisy, PREFILTER), d_thr, params)


def test_component_without_large_cluster_goes_to_globally_largest():
    """A lone cube(1) beside a cube(4): its six 2-face sides have no large
    cluster anywhere in their component, so they all join the globally
    largest cluster (lowest label among equal sizes)."""
    big, small = cube(4), cube(1)
    mesh = TriMesh(
        np.concatenate([big.vertices, small.vertices + 10.0]),
        np.concatenate([big.faces, small.faces + big.n_vertices]),
    )
    raw, refined = assert_matches_reference(
        mesh, 1e-4, SegmentParams(1e-4, min_cluster_size=10)
    )
    assert raw.cluster_count == 12
    assert refined.cluster_count == 6
    lone = refined.labels[big.n_faces :]
    assert (lone == refined.labels[0]).all()


def test_equal_scores_go_to_the_lowest_label():
    """On a flat grid every cosine is 1: a lone small face that sees one
    face of label 0 and one of label 1 scores them equally and takes 0."""
    mesh = plane(4)
    topo = build_topology(mesh)
    geometry = face_geometry(mesh)
    face = 9
    first, second, third = (int(f) for f in topo.face_adjacent[face])
    labels = (geometry.centroids[:, 0] > 0.5).astype(np.int64)
    labels[[face, third]] = 2
    labels[first], labels[second] = 0, 1
    raw = ClusterLabels.from_array(labels)
    params = SegmentParams(0.1, min_cluster_size=3, ring_depth=1)
    refined = refine(topo, geometry, raw, params)
    np.testing.assert_array_equal(
        refined.labels, refine_reference(topo, geometry, raw, params)
    )
    assert refined.labels[face] == refined.labels[first] == 0
