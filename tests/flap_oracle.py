"""Scalar reference paths for the flap operator and the prefilter energy.

The package evaluates D(e) and R(e) on all interior edges at once
(:func:`meshseg.edgeop.edge_operator_field`, :func:`meshseg.prefilter.
assemble_system`). The tests check those against the one-flap forms
below, which spell each quantity out for a single edge.

:func:`quadratic_energy` evaluates the prefilter objective through the
sparse operators A and B and the edge weights w that
:func:`flap_operators` builds, the terms the system matrix M = I +
alpha A'WA + beta B'WB is assembled from; the package keeps only M.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from meshseg.core import TopologyCache, TriMesh, face_geometry
from meshseg.edgeop import AREA_EPS_FACTOR, operator_coefficients
from meshseg.errors import DegenerateFlapError
from meshseg.prefilter import PrefilterParams, edge_weights


@dataclass(frozen=True)
class Flap:
    """The two faces around an interior edge.

    ``p1`` and ``p3`` are the shared edge endpoints (p1 has the smaller
    vertex id); ``p2`` and ``p4`` are the opposite vertices of the lower-
    and higher-id incident face respectively.
    """

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    faces: tuple[int, int]
    vertex_ids: tuple[int, int, int, int]


def _opposite_vertex(faces: np.ndarray, face_id: int, v0: int, v1: int) -> int:
    # Face indices are distinct, so the sum identifies the third vertex.
    return int(faces[face_id].sum() - v0 - v1)


def flap_of_edge(mesh: TriMesh, topo: TopologyCache, edge_id: int) -> Flap:
    """Flap (p1..p4 and incident face pair) of the interior edge *edge_id*.

    Raises
    ------
    ValueError
        If the edge has only one incident face.
    """
    f_a, f_b = (int(x) for x in topo.edge_faces[edge_id])
    if f_b < 0:
        raise ValueError(f"edge {edge_id} is a boundary edge")
    v1, v3 = (int(x) for x in topo.edges[edge_id])
    v2 = _opposite_vertex(mesh.faces, f_a, v1, v3)
    v4 = _opposite_vertex(mesh.faces, f_b, v1, v3)
    pts = mesh.vertices
    return Flap(
        p1=pts[v1],
        p2=pts[v2],
        p3=pts[v3],
        p4=pts[v4],
        faces=(f_a, f_b),
        vertex_ids=(v1, v2, v3, v4),
    )


def edge_operator(flap: Flap) -> np.ndarray:
    """D(e) for one flap as a length-3 vector.

    The degenerate-face floor is AREA_EPS_FACTOR times the squared edge
    length of the flap itself (the field uses the mesh-wide mean edge
    length instead).

    Raises
    ------
    DegenerateFlapError
        If either flap face has area not above the floor.
    """
    p1, p2, p3, p4 = flap.p1, flap.p2, flap.p3, flap.p4
    area_floor = AREA_EPS_FACTOR * float(np.dot(p3 - p1, p3 - p1))
    with np.errstate(invalid="ignore", divide="ignore"):
        c1, c2, c3, c4, a123, a134 = operator_coefficients(p1, p2, p3, p4)
        values = c1 * p1 + c2 * p2 + c3 * p3 + c4 * p4
    if not (a123 > area_floor and a134 > area_floor):
        raise DegenerateFlapError(
            f"flap over faces {flap.faces} has areas ({a123:g}, {a134:g}) "
            f"not above the floor {area_floor:g}"
        )
    return values


def regularizer(flap: Flap) -> np.ndarray:
    """R(e) = midpoint of the edge minus midpoint of the opposite pair."""
    return 0.5 * (flap.p1 + flap.p3) - 0.5 * (flap.p2 + flap.p4)


def flap_operators(mesh: TriMesh, params: PrefilterParams):
    """(A, B, w): the sparse maps from one vertex coordinate column to the
    interior edges' D(e) and R(e) values, with coefficients frozen at
    *mesh*'s geometry, and the interior edge weights."""
    topo = mesh.topology
    n = mesh.n_vertices
    interior, flap_vertices = topo.interior_edge_ids, topo.flap_vertices
    m = len(interior)
    rows = np.repeat(np.arange(m), 4)
    cols = flap_vertices.reshape(-1)
    flap_points = (mesh.vertices[flap_vertices[:, k]].T for k in range(4))  # axis-major
    d_coeff = np.stack(operator_coefficients(*flap_points)[:4], axis=1)
    a_op = sp.csr_matrix((d_coeff.reshape(-1), (rows, cols)), shape=(m, n))
    r_coeff = np.tile(np.array([0.5, -0.5, 0.5, -0.5]), m)
    b_op = sp.csr_matrix((r_coeff, (rows, cols)), shape=(m, n))
    w_int = edge_weights(topo, face_geometry(mesh), params.sigma_w)[interior]
    return a_op, b_op, w_int


def quadratic_energy(
    mesh: TriMesh, candidate_vertices: np.ndarray, params: PrefilterParams
) -> float:
    """Objective value at *candidate_vertices* with coefficients frozen
    at *mesh*'s geometry (the quantity :func:`meshseg.prefilter.prefilter`
    minimizes). It rebuilds the operators from *mesh* on every call.
    """
    a_op, b_op, w_int = flap_operators(mesh, params)
    q = np.asarray(candidate_vertices, dtype=np.float64)
    data = float(((q - mesh.vertices) ** 2).sum())
    smooth = 0.0
    if a_op.shape[0]:
        d_vals = np.stack([a_op @ q[:, k] for k in range(3)], axis=1)
        r_vals = np.stack([b_op @ q[:, k] for k in range(3)], axis=1)
        smooth = params.alpha * float(
            (w_int * np.einsum("ij,ij->i", d_vals, d_vals)).sum()
        ) + params.beta * float((w_int * np.einsum("ij,ij->i", r_vals, r_vals)).sum())
    return data + smooth
