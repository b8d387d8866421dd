"""Renumbering a mesh's vertices and faces changes nothing that matters.

Noisy cube(16) and icosahedron(16) go through the perfbench pipeline
twice: as built, and with their vertex and face ids shuffled. ``segment``
(prefilter (5, 5, 2), d_thr = k × the mesh's mean edge length) must give
the same partition once faces are mapped back, and the clustered bnf and
gnf results must score the same msae to 1e-12. k = 0.06 is the one
perfbench uses on the cube; it leaves icosahedron(16) one cluster, so
k = 0.025 runs too, which cuts both shapes into 7 to 15 clusters.
"""

import functools

import numpy as np
import pytest

from meshseg import (
    BnfParams,
    GnfParams,
    PrefilterParams,
    SegmentParams,
    TriMesh,
    denoise,
    make_fixture,
    msae,
    segment,
)
from meshseg.noise import NoiseSpec, add_noise

CASES = [
    (shape, seed, k)
    for shape in ("cube", "icosahedron")
    for seed in (23, 7919)
    for k in (0.025, 0.06)
]
IDS = [f"{shape}16-seed{seed}-k{k}" for shape, seed, k in CASES]
FILTERS = [BnfParams(0.45, 20, 10), GnfParams(2, 2, 0.35, 20, 10)]


def renumbered(mesh: TriMesh, vertex_order: np.ndarray, face_order: np.ndarray) -> TriMesh:
    """*mesh* with new vertex i the old vertex ``vertex_order[i]`` and new
    face j the old face ``face_order[j]``. Each face keeps its corner
    cycle, so its winding too."""
    new_vertex_id = np.argsort(vertex_order)
    return TriMesh(mesh.vertices[vertex_order], new_vertex_id[mesh.faces[face_order]])


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether face labellings *a* and *b* group the faces alike: each
    label of one meets exactly one label of the other."""
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def pipeline(truth: TriMesh, noisy: TriMesh, k: float):
    """(face labels, msae of each clustered filter) as perfbench runs them."""
    d_thr = k * noisy.topology.mean_edge_length
    labels = segment(noisy, SegmentParams(d_thr), PrefilterParams(5, 5, 2))
    scores = [msae(denoise(noisy, params, labels=labels), truth) for params in FILTERS]
    return labels.labels, scores


@functools.cache
def runs(shape: str, seed: int, k: float):
    """The pipeline on the mesh as built and renumbered, the renumbered
    labels mapped back to the original face ids."""
    truth = make_fixture(shape, 16)
    noisy = add_noise(truth, NoiseSpec(0.5, "normal", seed))
    rng = np.random.default_rng(seed)
    vertex_order = rng.permutation(truth.n_vertices)
    face_order = rng.permutation(truth.n_faces)
    labels, scores = pipeline(truth, noisy, k)
    moved = (renumbered(mesh, vertex_order, face_order) for mesh in (truth, noisy))
    moved_labels, moved_scores = pipeline(*moved, k)
    back = np.empty_like(moved_labels)
    back[face_order] = moved_labels
    return labels, back, scores, moved_scores


@pytest.mark.parametrize("shape, seed, k", CASES, ids=IDS)
def test_partition_survives_renumbering(shape, seed, k):
    labels, back, _, _ = runs(shape, seed, k)
    assert same_partition(labels, back)


@pytest.mark.parametrize("shape, seed, k", CASES, ids=IDS)
def test_clustered_msae_survives_renumbering(shape, seed, k):
    _, _, scores, moved_scores = runs(shape, seed, k)
    for score, moved in zip(scores, moved_scores, strict=True):
        assert abs(score - moved) <= 1e-12


def test_same_partition_tells_groupings_apart():
    assert same_partition(np.array([0, 0, 1, 2]), np.array([5, 5, 3, 4]))
    assert not same_partition(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]))
    assert not same_partition(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0]))
