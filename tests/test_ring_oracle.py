"""References for the thresholded (unf) and bilateral (bnf) normal
filters, and the tests that hold ``meshseg.denoise`` to them.

The references work row-major: each sweep gathers the (F, 3 slots, 3)
neighbour normals with fancy indexing, ``normals[safe]``, and contracts
them with ``einsum``. The library works axis-major: it holds the normals
as (3, F), gathers the ring as (3 components, 3 slots, F) with one
``np.take``, and writes every ``einsum`` sum out in einsum's order
(``tests/test_short_axis_oracle.py`` pins those orders). Normals must
agree bit for bit.
"""

import numpy as np
import pytest

from meshseg import cube
from meshseg.core import build_topology, face_geometry
from meshseg.denoise import (
    BnfParams,
    UnfParams,
    _normalize_rows,
    _ring_tables,
    filter_normals,
    mean_adjacent_centroid_distance,
)
from meshseg.noise import NoiseSpec, add_noise


def reference_filter_unf(topo, geometry, params, labels=None):
    """The thresholded normal filter with fancy-index gathers."""
    safe, valid = _ring_tables(topo, labels)
    areas = geometry.areas
    nbr_areas = areas[safe]
    threshold = params.t
    self_w = areas * (1.0 - threshold) ** 2 if threshold < 1.0 else np.zeros_like(areas)
    normals = geometry.normals
    for _ in range(params.n_iter):
        nbr_normals = normals[safe]
        dots = np.einsum("fi,fki->fk", normals, nbr_normals)
        weights = np.where(valid & (dots > threshold), nbr_areas * (dots - threshold) ** 2, 0.0)
        summed = np.einsum("fk,fki->fi", weights, nbr_normals) + self_w[:, None] * normals
        normals = _normalize_rows(summed, normals)
    return normals


def reference_filter_bnf(topo, geometry, params, labels=None):
    """The bilateral normal filter with fancy-index gathers."""
    safe, valid = _ring_tables(topo, labels)
    areas = geometry.areas
    sigma_c = mean_adjacent_centroid_distance(topo, geometry)
    cdiff = geometry.centroids[:, None, :] - geometry.centroids[safe]
    spatial = np.exp(
        -np.einsum("fki,fki->fk", cdiff, cdiff) / (2.0 * sigma_c * sigma_c)
    )
    base_w = np.where(valid, areas[safe] * spatial, 0.0)
    two_sr2 = 2.0 * params.sigma_r * params.sigma_r
    normals = geometry.normals
    for _ in range(params.n_iter):
        nbr_normals = normals[safe]
        ndiff = normals[:, None, :] - nbr_normals
        range_w = np.exp(-np.einsum("fki,fki->fk", ndiff, ndiff) / two_sr2)
        weights = base_w * range_w
        summed = np.einsum("fk,fki->fi", weights, nbr_normals) + areas[:, None] * normals
        normals = _normalize_rows(summed, normals)
    return normals


def _six_sides(n_faces):
    # cube(m) emits its six sides one after another, 2*m*m faces each.
    return np.arange(n_faces) // (n_faces // 6)


@pytest.mark.parametrize(
    "params, reference",
    [(UnfParams(0.5, 20, 0), reference_filter_unf), (BnfParams(0.45, 20, 0), reference_filter_bnf)],
    ids=["unf", "bnf"],
)
@pytest.mark.parametrize("labelled", [False, True], ids=["plain", "sides"])
def test_ring_filter_matches_reference(params, reference, labelled):
    mesh = add_noise(cube(8), NoiseSpec(0.5, "normal", seed=23))
    topo = build_topology(mesh)
    geometry = face_geometry(mesh)
    labels = _six_sides(mesh.n_faces) if labelled else None
    got = filter_normals(topo, geometry, params, labels)
    want = reference(topo, geometry, params, labels)
    assert not np.array_equal(got, geometry.normals)
    assert got.tobytes() == want.tobytes()
