"""Differential edge operator: a second-order difference across edge flaps.

For an interior edge with flap points p1, p3 (edge endpoints) and p2, p4
(opposite vertices of the two incident faces), the operator returns the
area-weighted combination

    D(e) = c1*p1 + c2*p2 + c3*p3 + c4*p4

whose coefficients sum to zero and which vanishes exactly when the flap
is coplanar. Geometrically it measures how far the weighted midpoint of
p2 and p4 sticks out of the edge line, so ||D(e)|| acts as a curvature/
crease detector that is insensitive to rigid motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Flap, TopologyCache, TriMesh
from .errors import DegenerateFlapError
from .fileio import _write_rows

#: Flap faces with area below AREA_EPS_FACTOR * l_e^2 are degenerate.
AREA_EPS_FACTOR = 1e-12


def operator_coefficients(p1, p2, p3, p4):
    """D(e) coefficients for stacked flap points; shapes (..., 3).

    Returns (c1, c2, c3, c4, area123, area134); no degeneracy handling
    here.
    """
    e = p3 - p1
    ee = np.einsum("...i,...i->...", e, e)
    area123 = 0.5 * np.linalg.norm(np.cross(p2 - p1, e), axis=-1)
    area134 = 0.5 * np.linalg.norm(np.cross(e, p4 - p1), axis=-1)
    total = area123 + area134
    denom = ee * total
    c1 = (
        area123 * np.einsum("...i,...i->...", p4 - p3, e)
        + area134 * np.einsum("...i,...i->...", p1 - p3, p3 - p2)
    ) / denom
    c2 = area134 / total
    c3 = (
        area123 * np.einsum("...i,...i->...", e, p1 - p4)
        + area134 * np.einsum("...i,...i->...", p2 - p1, p1 - p3)
    ) / denom
    c4 = area123 / total
    return c1, c2, c3, c4, area123, area134


def flap_vertex_table(mesh: TriMesh, topo: TopologyCache):
    """(interior edge ids, (n_interior, 4) vertex ids per flap), the
    columns p1, p2, p3, p4 as in :func:`meshseg.core.flap_of_edge`."""
    interior = topo.interior_edge_ids
    edges = topo.edges[interior]
    face_sum = mesh.faces.sum(axis=1)
    v1 = edges[:, 0]
    v3 = edges[:, 1]
    v2 = face_sum[topo.edge_faces[interior, 0]] - v1 - v3
    v4 = face_sum[topo.edge_faces[interior, 1]] - v1 - v3
    return interior, np.stack([v1, v2, v3, v4], axis=1)


def _operator_on_points(p1, p2, p3, p4):
    """Operator values for stacked flap points; shapes (..., 3).

    Returns (values, area123, area134); no degeneracy handling here.
    """
    c1, c2, c3, c4, area123, area134 = operator_coefficients(p1, p2, p3, p4)
    values = (
        c1[..., None] * p1
        + c2[..., None] * p2
        + c3[..., None] * p3
        + c4[..., None] * p4
    )
    return values, area123, area134


def edge_operator(flap: Flap, area_floor: float | None = None) -> np.ndarray:
    """D(e) for one flap as a length-3 vector.

    *area_floor* is the degenerate-face threshold; when omitted it
    defaults to AREA_EPS_FACTOR times the squared edge length of the
    flap itself (the field variant uses the mesh-wide mean edge length
    instead).

    Raises
    ------
    DegenerateFlapError
        If either flap face has area below the floor.
    """
    p1, p2, p3, p4 = flap.p1, flap.p2, flap.p3, flap.p4
    if area_floor is None:
        area_floor = AREA_EPS_FACTOR * float(np.dot(p3 - p1, p3 - p1))
    with np.errstate(invalid="ignore", divide="ignore"):
        values, a123, a134 = _operator_on_points(p1, p2, p3, p4)
    if a123 < area_floor or a134 < area_floor:
        raise DegenerateFlapError(
            f"flap over faces {flap.faces} has areas ({a123:g}, {a134:g}) "
            f"below the floor {area_floor:g}"
        )
    return values


@dataclass(frozen=True)
class EdgeOperatorField:
    """Operator evaluated on every edge of a mesh.

    values : (E, 3) float64, zero rows on boundary edges.
    norms : (E,) float64, +inf on boundary edges so that any finite
        threshold treats the mesh border as an infinitely strong crease.
    """

    values: np.ndarray
    norms: np.ndarray

    @property
    def interior_mask(self) -> np.ndarray:
        return np.isfinite(self.norms)


def edge_operator_field(mesh: TriMesh, topo: TopologyCache) -> EdgeOperatorField:
    """Vectorized :func:`edge_operator` over all interior edges.

    Raises
    ------
    DegenerateFlapError
        If any flap face has area below AREA_EPS_FACTOR * l_e^2 where
        l_e is the mesh's mean edge length.
    """
    n_edges = topo.n_edges
    values = np.zeros((n_edges, 3), dtype=np.float64)
    norms = np.full(n_edges, np.inf, dtype=np.float64)
    interior, flap_vertices = flap_vertex_table(mesh, topo)
    if interior.size:
        flap_points = mesh.vertices[flap_vertices.T]  # (4, n_interior, 3)
        with np.errstate(invalid="ignore", divide="ignore"):
            vals, a123, a134 = _operator_on_points(*flap_points)
        floor = AREA_EPS_FACTOR * topo.mean_edge_length**2
        bad = (a123 < floor) | (a134 < floor)
        if bad.any():
            bad_edges = interior[np.flatnonzero(bad)[:8]].tolist()
            raise DegenerateFlapError(
                f"degenerate flaps (face area < {floor:g}) on edges {bad_edges}"
            )
        values[interior] = vals
        norms[interior] = np.linalg.norm(vals, axis=1)
    values.setflags(write=False)
    norms.setflags(write=False)
    return EdgeOperatorField(values=values, norms=norms)


def write_norms_csv(topo: TopologyCache, field: EdgeOperatorField, path) -> None:
    """CSV dump ``edge_id,v0,v1,norm`` for every edge (boundary: inf)."""
    # An object table, so that tolist() gives ints for the ids and floats
    # (repr, inf included) for the norms.
    table = np.empty((topo.n_edges, 4), dtype=object)
    table[:, 0] = np.arange(topo.n_edges)
    table[:, 1:3] = topo.edges
    table[:, 3] = field.norms
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("edge_id,v0,v1,norm\n")
        _write_rows(fh, "{},{},{},{!r}\n", table)
