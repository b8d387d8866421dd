"""Scaling the input mesh by a power of two scales the output exactly.

Noisy cube(4) (noise 0.4, seed 3) scaled by 2**k: ``segment`` (prefilter
(5, 5, 2), d_thr = 0.06 × the mesh's mean edge length, clusters of 5
faces kept, which cuts it into 10) gives the same labels, and
``denoise`` with each filter, plain and with those labels, returns
2**k × the unscaled vertices bit for bit. Power-of-two scaling
is exact, and every filter's scales are relative to the mesh's own, so
each step rounds the same way. This holds at |k| = 200, not everywhere:
from about |k| = 260 squared lengths leave float range (see ROADMAP
item 2).
"""

import numpy as np
import pytest

from meshseg import (
    BnfParams,
    GnfParams,
    L1Params,
    PrefilterParams,
    SegmentParams,
    TriMesh,
    UnfParams,
    build_topology,
    cube,
    denoise,
    segment,
)
from meshseg.noise import NoiseSpec, add_noise

FILTERS = [
    UnfParams(0.5, 20, 10),
    BnfParams(0.45, 20, 10),
    L1Params(40, 20, 10),
    GnfParams(2, 2, 0.35, 20, 10),
]
NOISY = add_noise(cube(4), NoiseSpec(0.4, "normal", seed=3))


def scaled(mesh: TriMesh, k: int) -> TriMesh:
    return TriMesh(np.ldexp(mesh.vertices, k), mesh.faces)


def labels_of(mesh: TriMesh):
    d_thr = 0.06 * build_topology(mesh).mean_edge_length
    return segment(mesh, SegmentParams(d_thr, min_cluster_size=5), PrefilterParams(5, 5, 2))


@pytest.mark.parametrize("k", [-200, 200])
def test_segment_labels_do_not_depend_on_scale(k):
    base = labels_of(NOISY)
    assert base.cluster_count == 10
    np.testing.assert_array_equal(labels_of(scaled(NOISY, k)).labels, base.labels)


@pytest.mark.parametrize("clustered", [False, True], ids=["plain", "clustered"])
@pytest.mark.parametrize("params", FILTERS, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("k", [-200, 200])
def test_denoise_scales_with_its_input(k, params, clustered):
    labels = labels_of(NOISY) if clustered else None
    base = denoise(NOISY, params, labels=labels).vertices
    got = denoise(scaled(NOISY, k), params, labels=labels).vertices
    assert np.array_equal(got, np.ldexp(base, k))
