"""The l1 filter's Weiszfeld loop steps only the (slot, column) entries
with positive weight, and must give the bytes of the dense loop
``test_l1_oracle.full_weiszfeld``, which steps every slot of every column.

A zero-weight slot adds a zero to each dense sum; these tests place such
zeros where a sum that did not start from +0.0 would keep a −0.0, check
that columns without weight come back as 0 without touching the others,
that a slot whose spatial weight underflows is left out like an ungated
one, and that the loop's work is the count of positive weights and its
memory a bounded number of bytes per face.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from meshseg import cube, plane
from meshseg.core import build_topology, face_geometry
from meshseg.denoise import (
    L1Params,
    _ring_spatial,
    _ring_tables,
    _weiszfeld,
    filter_l1median,
    filter_normals,
)
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import PrefilterParams
from meshseg.segment import SegmentParams, segment
from test_l1_oracle import full_weiszfeld, reference_filter_l1median, ring_columns

DENOISE = sys.modules["meshseg.denoise"]  # meshseg.denoise is the function


def test_zero_weight_slots_before_gated_slots():
    """Slot 0 has no weight and sits at (−0.0, −1, −1); the gated slots
    after it hold −0.0 components. The dense sums start from +0.0 and add
    slot 0's zero products first, so every zero component of a median is
    +0.0; a packed sum must start from +0.0 too."""
    points, weights, wsum = ring_columns(300, 12, slots=(1, 2))
    points[:, 0, :] = np.array([-0.0, -1.0, -1.0])[:, None]
    weights[1] = np.where(weights[1] > 0, weights[1], weights[0] + weights[2])
    weights[0] = 0.0
    points[0, 1, ::2] = -0.0  # every other column: a gated slot 1 with x = −0.0 ...
    weights[2, ::4] = 0.0  # ... and, in half of those, no other gated slot
    points[1:, 2, ::4] = -1.0
    wsum = weights.sum(axis=0)
    got = _weiszfeld(points, weights, wsum)
    want = full_weiszfeld(points, weights, wsum)
    assert got.tobytes() == want.tobytes()
    assert (got[0, ::4] == 0.0).all()
    assert not np.signbit(got[0, ::4]).any()


def test_columns_without_weight_are_zero_and_leave_the_others_alone():
    points, weights, wsum = ring_columns(600, 13)
    empty = np.array([0, 77, 599])
    weights[:, empty] = 0.0
    wsum[empty] = 0.0
    got = _weiszfeld(points, weights, wsum)
    assert got[:, empty].tobytes() == np.zeros((3, len(empty))).tobytes()
    rest = np.setdiff1d(np.arange(len(wsum)), empty)
    want = full_weiszfeld(*(np.ascontiguousarray(a[..., rest]) for a in (points, weights, wsum)))
    assert np.ascontiguousarray(got[:, rest]).tobytes() == want.tobytes()


def test_a_gated_slot_whose_spatial_weight_underflows_counts_as_ungated():
    """A noisy plane whose corner vertex is pulled 10⁴ away: the faces on
    it lie within the gate of their neighbours, but their centroids are so
    far off that the spatial Gaussian rounds to 0.0. The filter gives the
    dense reference's bytes."""
    mesh = add_noise(plane(16), NoiseSpec(0.2, "normal", seed=3))
    vertices = mesh.vertices.copy()
    vertices[np.argmax(vertices[:, 0] + vertices[:, 1]), :2] = 1e4
    mesh = mesh.with_vertices(vertices)
    topo, geometry = build_topology(mesh), face_geometry(mesh)
    params = L1Params(40.0, 3, 0)
    safe, valid = _ring_tables(topo, None)
    normals = geometry.normals.T
    dots = (normals[:, None, :] * normals[:, safe.T]).sum(axis=0)
    gated = valid.T & (dots >= np.cos(np.radians(params.angle_max_deg)))
    assert (gated & (_ring_spatial(topo, geometry, safe) == 0.0)).any()
    got = filter_normals(topo, geometry, params)
    assert got.tobytes() == reference_filter_l1median(topo, geometry, params).tobytes()


def test_the_loop_steps_only_the_entries_with_positive_weight(monkeypatch):
    """A work guard without a clock: on noisy cube(8), the first step of
    each call takes the square root of one distance per positive weight,
    and later steps of no more, although columns with weight also have
    slots without."""
    mesh = add_noise(cube(8), NoiseSpec(0.5, "normal", seed=23))
    topo, geometry = mesh.topology, face_geometry(mesh)
    weiszfeld, sqrt = DENOISE._weiszfeld, np.sqrt
    calls = []  # per call: (positive weights, dense slots, distances per step)
    active = []  # the step list of the call running now

    def spy_weiszfeld(points, weights, wsum):
        calls.append((np.count_nonzero(weights > 0), 3 * np.count_nonzero(wsum > 0), []))
        active.append(calls[-1][2])
        try:
            return weiszfeld(points, weights, wsum)
        finally:
            active.pop()

    def spy_sqrt(x, *args, **kwargs):
        if active and isinstance(x, np.ndarray):
            active[-1].append(x.size)
        return sqrt(x, *args, **kwargs)

    monkeypatch.setattr(DENOISE, "_weiszfeld", spy_weiszfeld)
    monkeypatch.setattr(np, "sqrt", spy_sqrt)
    params = L1Params(40.0, 4, 0)
    got = filter_l1median(topo, geometry, params)
    monkeypatch.undo()
    assert got.tobytes() == filter_l1median(topo, geometry, params).tobytes()
    assert len(calls) == params.n_iter
    for positive, dense, steps in calls:
        assert positive < dense
        assert steps[0] == positive
        assert max(steps) == positive


# tracemalloc peak of one filter_l1median call, in bytes per face, on the
# four cases below: 583.6-596.9 measured, 621.5-630.3 with a working set
# of all F columns shared by a call's sweeps. The bound leaves 2.2 %
# headroom above the largest.
L1_PEAK_BYTES_PER_FACE = 610


@pytest.mark.parametrize("subdiv", [16, 32])
def test_an_l1_call_allocates_a_bounded_number_of_bytes_per_face(subdiv):
    """A memory guard without a clock: plain and with the labels of a
    segmentation at k = 0.06, as perfbench's ring-sweep runs it."""
    mesh = add_noise(cube(subdiv), NoiseSpec(0.5, "normal", seed=23))
    topo, geometry = mesh.topology, face_geometry(mesh)
    segment_params = SegmentParams(0.06 * topo.mean_edge_length)
    labels = segment(mesh, segment_params, prefilter_params=PrefilterParams(5, 5, 2))
    assert labels.cluster_count > 1
    params = L1Params(40.0, 20, 10)
    for case in (None, labels):
        tracemalloc.start()
        try:
            filter_l1median(topo, geometry, params, case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / topo.n_faces <= L1_PEAK_BYTES_PER_FACE
