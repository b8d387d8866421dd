"""Differential edge operator: a second-order difference across edge flaps.

For an interior edge with flap points p1, p3 (edge endpoints) and p2, p4
(opposite vertices of the two incident faces), the operator returns the
area-weighted combination

    D(e) = c1*p1 + c2*p2 + c3*p3 + c4*p4

whose coefficients sum to zero and which vanishes exactly when the flap
is coplanar. Geometrically it measures how far the weighted midpoint of
p2 and p4 sticks out of the edge line, so ||D(e)|| acts as a curvature/
crease detector that is insensitive to rigid motion.

:func:`edge_operator_field` evaluates D(e) on every interior edge and
keeps what segmentation reads: ||D(e)|| as an (E,) array, +inf on
boundary edges. It and the prefilter's system assembly evaluate the
flaps of the topology's ``flap_vertices`` table in one function.
"""

from __future__ import annotations

import numpy as np

from .core import TopologyCache, TriMesh, dot_terms, row_cross, row_norms
from .errors import DegenerateFlapError

#: Flap faces with area not above AREA_EPS_FACTOR * l_e^2 are degenerate.
AREA_EPS_FACTOR = 1e-12


def operator_coefficients(p1, p2, p3, p4):
    """D(e) coefficients for axis-major flap points, (3, N) each with
    rows x, y, z, or for one flap's (3,) points.

    Returns (c1, c2, c3, c4, area123, area134), (N,) each, or scalars for
    one flap, with the bytes of that flap's column of a stacked call. No
    degeneracy handling here. The cross products and norms run on the
    ``.T`` views, (N, 3) rows.
    """
    e = p3 - p1
    ee = dot_terms(e, e)
    area123 = 0.5 * row_norms(row_cross((p2 - p1).T, e.T))
    area134 = 0.5 * row_norms(row_cross(e.T, (p4 - p1).T))
    total = area123 + area134
    denom = ee * total
    c1 = (area123 * dot_terms(p4 - p3, e) + area134 * dot_terms(p1 - p3, p3 - p2)) / denom
    c2 = area134 / total
    c3 = (area123 * dot_terms(e, p1 - p4) + area134 * dot_terms(p2 - p1, p1 - p3)) / denom
    c4 = area123 / total
    return c1, c2, c3, c4, area123, area134


def _flap_coefficients(mesh: TriMesh, topo: TopologyCache):
    """(points, coefficients) of the flaps of ``topo.flap_vertices`` at
    *mesh*'s positions: slot p(k+1) as ``points[k]``, (3, n_interior),
    and c1..c4 of :func:`operator_coefficients`, (n_interior,) each.
    Raises DegenerateFlapError as :func:`edge_operator_field` says.
    """
    points = np.take(mesh.vertices.T, topo.flap_vertices.T, axis=1).swapaxes(0, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        *coefficients, a123, a134 = operator_coefficients(*points)
    floor = AREA_EPS_FACTOR * topo.mean_edge_length**2
    # Not above, rather than below: a zero floor (every vertex in one
    # point) must still reject zero areas, and NaN areas fail too.
    bad = ~((a123 > floor) & (a134 > floor))
    if bad.any():
        bad_edges = topo.interior_edge_ids[np.flatnonzero(bad)[:8]].tolist()
        raise DegenerateFlapError(f"degenerate flaps (face area <= {floor:g}) on edges {bad_edges}")
    return points, coefficients


def edge_operator_field(mesh: TriMesh, topo: TopologyCache) -> np.ndarray:
    """||D(e)|| on every edge as a frozen (E,) float64 array, +inf on
    boundary edges so that any finite threshold treats the mesh border as
    an infinitely strong crease.

    Raises
    ------
    DegenerateFlapError
        If any flap face has area not above AREA_EPS_FACTOR * l_e^2 where
        l_e is the mesh's mean edge length.
    """
    (p1, p2, p3, p4), (c1, c2, c3, c4) = _flap_coefficients(mesh, topo)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = c1 * p1 + c2 * p2 + c3 * p3 + c4 * p4
    norms = np.full(topo.n_edges, np.inf, dtype=np.float64)
    norms[topo.interior_edge_ids] = row_norms(vals.T)
    norms.setflags(write=False)
    return norms

