"""A reference for the L1-median (Weiszfeld) normal filter, and the tests
that hold ``meshseg.denoise`` to it.

The reference runs every Weiszfeld step on all faces in the row-major
(F, 3 ring slots, 3 components) layout with ``einsum`` reductions; the
library steps only the faces with gated weight, component-major, with
each sum spelled out in the order those reductions use. Normals must
agree bit for bit.
"""

import numpy as np
import pytest

from meshseg import cube, icosahedron, plane
from meshseg.core import TriMesh, build_topology, face_geometry
from meshseg.denoise import (
    WEISZFELD_DIST_FLOOR,
    WEISZFELD_MAX_ITER,
    WEISZFELD_MOVE_TOL,
    L1Params,
    _as_label_array,
    _normalize_rows,
    _ring_tables,
    filter_normals,
    mean_adjacent_centroid_distance,
)
from meshseg.noise import NoiseSpec, add_noise


def reference_filter_l1median(topo, geometry, params, labels=None):
    """The geometric-median filter with a row-major Weiszfeld loop over
    every face."""
    label_array = _as_label_array(labels, topo.n_faces)
    safe, valid = _ring_tables(topo, label_array)
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    cdiff = geometry.centroids[:, None, :] - geometry.centroids[safe]
    spatial = np.exp(
        -np.einsum("fki,fki->fk", cdiff, cdiff) / (2.0 * sigma_c * sigma_c)
    )
    cos_gate = float(np.cos(np.radians(params.angle_max_deg)))
    normals = geometry.normals
    for _ in range(params.n_iter):
        nbr_normals = normals[safe]
        dots = np.einsum("fi,fki->fk", normals, nbr_normals)
        weights = np.where(valid & (dots >= cos_gate), spatial, 0.0)
        wsum = weights.sum(axis=1)
        has = wsum > 0.0
        denom = np.where(has, wsum, 1.0)
        median = np.einsum("fk,fki->fi", weights, nbr_normals) / denom[:, None]
        for _step in range(WEISZFELD_MAX_ITER):
            delta = median[:, None, :] - nbr_normals
            dist = np.sqrt(np.einsum("fki,fki->fk", delta, delta))
            inv = weights / np.maximum(dist, WEISZFELD_DIST_FLOOR)
            inv_sum = inv.sum(axis=1)
            ok = inv_sum > 0.0
            candidate = np.einsum("fk,fki->fi", inv, nbr_normals) / np.where(
                ok, inv_sum, 1.0
            )[:, None]
            candidate = np.where(ok[:, None], candidate, median)
            moves = np.linalg.norm(candidate - median, axis=1)
            median = candidate
            if float(moves.max(initial=0.0)) < WEISZFELD_MOVE_TOL:
                break
        normals = np.where(has[:, None], _normalize_rows(median, normals), normals)
    return normals


def _noisy_cube():
    return add_noise(cube(4), NoiseSpec(0.3, "normal", seed=11))


def _noisy_plane():
    return add_noise(plane(6), NoiseSpec(0.3, "normal", seed=11))


def _six_sides(n_faces):
    # cube(m) emits its six sides one after another, 2*m*m faces each.
    return np.arange(n_faces) // (n_faces // 6)


def _both(mesh, params, labels=None):
    topo = build_topology(mesh)
    geometry = face_geometry(mesh)
    got = filter_normals(topo, geometry, params, labels)
    want = reference_filter_l1median(topo, geometry, params, labels)
    return got, want, geometry


@pytest.mark.parametrize("angle", [10.0, 40.0, 180.0])
@pytest.mark.parametrize(
    "make_mesh, labelled",
    [
        (_noisy_cube, False),
        (_noisy_cube, True),
        (lambda: icosahedron(2), False),
        (_noisy_plane, False),
    ],
    ids=["noisy-cube", "noisy-cube-sides", "icosahedron", "noisy-plane"],
)
def test_l1median_matches_reference(make_mesh, labelled, angle):
    """On the clean icosahedron coincident neighbour normals sit on the
    distance floor; the plane has boundary ring slots."""
    mesh = make_mesh()
    labels = _six_sides(mesh.n_faces) if labelled else None
    got, want, _ = _both(mesh, L1Params(angle, 4, 0), labels)
    assert got.tobytes() == want.tobytes()


def test_l1median_every_face_gated_out():
    """A gate narrower than any angle between noisy neighbours leaves no
    face with weight: every normal stays as it was."""
    got, want, geometry = _both(_noisy_cube(), L1Params(1e-9, 3, 0))
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == geometry.normals.tobytes()


def test_l1median_no_faces():
    mesh = TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
    got, want, _ = _both(mesh, L1Params(40.0, 2, 0))
    assert got.shape == (0, 3)
    assert got.tobytes() == want.tobytes()


def test_einsum_squared_distance_order():
    """The component-major Weiszfeld step in ``denoise._weiszfeld`` spells
    out einsum("fki,fki->fk") as (x² + z²) + y²."""
    rng = np.random.default_rng(5)
    d = rng.standard_normal((1000, 3, 3)) * np.exp(rng.uniform(-8, 8, (1000, 3, 3)))
    s = d * d
    explicit = (s[..., 0] + s[..., 2]) + s[..., 1]
    assert np.einsum("fki,fki->fk", d, d).tobytes() == explicit.tobytes(), (
        "numpy's einsum no longer sums a length-3 axis as (x² + z²) + y²; "
        "update the sum order in meshseg.denoise._weiszfeld to match it"
    )
