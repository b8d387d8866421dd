"""Quadratic vertex prefilter used to stabilize segmentation of noisy input.

Minimizes, over new positions ``q``,

    sum_v ||q_v - p_v||^2
      + alpha * sum_e w(e) ||D_e q||^2
      + beta  * sum_e w(e) ||R_e q||^2

where ``D_e`` applies the differential edge operator with coefficients
frozen at the input geometry, ``R_e q = (q1 + q3)/2 - (q2 + q4)/2`` is a
flap smoothness term, and ``w(e)`` is a normal-difference Gaussian that
turns the regularization down across sharp creases. Freezing the
coefficients makes the problem a symmetric positive-definite linear
system (identity plus PSD terms), solved per coordinate by conjugate
gradients started at the input positions — so the objective can only
move downhill from the input even if CG stops early. The CG loop is the
package's own (:func:`_cg`); it repeats scipy 1.17's ``cg`` operation
for operation, so only ``scipy.sparse`` is loaded.

:func:`assemble_system` forms each energy term with one sparse product,
the edge weights folded into its left factor, and keeps the bits of the
chain A'WA. It evaluates the topology's flaps as the edge field does.

Only the segmentation stage consumes the prefiltered positions;
denoising proper always restarts from the original noisy mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .core import FaceGeometry, TopologyCache, TriMesh, check_sigma, dot_terms, face_geometry, gaussian
from .edgeop import _flap_coefficients
from .errors import SolverDivergedError


@dataclass(frozen=True)
class PrefilterParams:
    """Energy weights alpha and beta, and the edge weights' scale sigma_w.
    CG must reach relative residual ``solver_tol`` within ceil(10·√V)
    iterations (:meth:`max_iter_for`)."""

    alpha: float = 0.1
    beta: float = 0.1
    sigma_w: float = 0.35
    solver_tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):  # also rejects NaN
            raise ValueError("alpha and beta must be >= 0")
        check_sigma("sigma_w", self.sigma_w)

    def max_iter_for(self, n_vertices: int) -> int:
        return max(1, math.ceil(10.0 * math.sqrt(max(n_vertices, 1))))


def edge_weights(topo: TopologyCache, geometry: FaceGeometry, sigma_w: float) -> np.ndarray:
    """Per-edge weights exp(-||n_a - n_b||^2 / (2 sigma_w^2)), shape (E,).

    Interior entries lie in (0, 1]; boundary edges get 0.0, which simply
    drops them from both energy sums.
    """
    weights = np.zeros(topo.n_edges, dtype=np.float64)
    interior = topo.interior_edge_ids
    pairs = np.take(geometry.normals.T, topo.edge_faces[interior].T, axis=1)  # (3, 2, n)
    diff = pairs[:, 0] - pairs[:, 1]
    weights[interior] = gaussian(dot_terms(diff, diff, prod=diff), sigma_w)
    return weights


def assemble_system(mesh: TriMesh, params: PrefilterParams) -> sp.csr_matrix:
    """Sparse SPD system matrix M = I + alpha A'WA + beta B'WB, in CSR.

    Reads *mesh*'s topology, builds its face geometry, and freezes the
    operator coefficients and edge weights at its positions. A and B map
    one vertex coordinate column to the interior edges' operator and
    regularizer values, and W holds the interior edge weights. The flaps
    come from ``topo.flap_vertices`` through the edge field's own code,
    so a degenerate flap raises its DegenerateFlapError.

    Each term is one sparse product with W folded into its left factor,
    alpha * (op(a·w)' @ op(a)); row e of the (m, n) CSR matrix op(c)
    holds c[e] at the flap's vertex ids. scipy forms it as the transpose
    of op(a)' @ op(a·w), so entry (i, j) sums fl(fl(a_ei·w_e)·a_ej) over
    the edges in ascending order, as the chain A' @ W @ A did: M keeps
    its bits. (W on the right would round the D terms as
    fl(a_ei·fl(w_e·a_ej)).) The terms are added in CSC, the products'
    format, and converted to CSR once; entrywise that is the same sum.
    """
    topo = mesh.topology
    n, m = mesh.n_vertices, len(topo.interior_edge_ids)
    # D(e) coefficients frozen at the input geometry, one row per flap.
    d_coeff = np.stack(_flap_coefficients(mesh, topo)[1], axis=1)
    r_coeff = np.broadcast_to(np.array([0.5, -0.5, 0.5, -0.5]), (m, 4))
    w = edge_weights(topo, face_geometry(mesh), params.sigma_w)[topo.interior_edge_ids, None]
    # Row e holds the flap's four coefficients at its vertex ids; the
    # other operators share the index arrays scipy made for this one.
    a_op = sp.csr_matrix(
        (d_coeff.reshape(-1), topo.flap_vertices.reshape(-1), np.arange(0, 4 * m + 1, 4)),
        shape=(m, n),
    )

    def op(coeff):
        return sp.csr_matrix((coeff.reshape(-1), a_op.indices, a_op.indptr), shape=(m, n))

    system = (
        sp.identity(n, format="csc")
        + params.alpha * (op(d_coeff * w).T @ a_op)
        + params.beta * (op(r_coeff * w).T @ op(r_coeff))
    )
    return system.tocsr()


def _cg(system: sp.csr_matrix, rhs: np.ndarray, rtol: float, max_iter: int):
    """(x, info) of conjugate gradients on the SPD *system* from x = *rhs*:
    info is 0 once ||r|| < rtol * ||rhs||, else *max_iter*. It repeats
    ``scipy.sparse.linalg.cg(system, rhs, x0=rhs.copy(), rtol=rtol,
    atol=0.0, maxiter=max_iter)`` of scipy 1.17 operation for operation,
    except that its norm test reads ||r|| off rho = r·r, as numpy computes
    it, so it gives the same bits for a contiguous *rhs*. A zero *rhs* is
    returned as it is."""
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0:
        return rhs, 0
    atol = rtol * rhs_norm
    x = rhs.copy()
    r = rhs - system @ x
    p = rho_prev = None
    for iteration in range(max_iter):
        rho = np.dot(r, r)  # np.linalg.norm(r) is sqrt(r.dot(r))
        if math.sqrt(rho) < atol:
            return x, 0
        if iteration:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = system @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, max_iter


def prefilter(mesh: TriMesh, params: PrefilterParams | None = None) -> TriMesh:
    """Solve the frozen-coefficient quadratic problem, returning the
    relaxed mesh, which carries *mesh*'s topology.

    With alpha == beta == 0 the system is the identity and the input
    positions are returned bit-for-bit. CG starts from the input
    positions, so each coordinate solve only descends the objective.

    The dot products of CG go through numpy's BLAS, which splits a dot
    over more than 10,000 entries among its threads. So above that many
    vertices the last bits of the positions depend on the BLAS thread
    count (``OPENBLAS_NUM_THREADS``) of the machine; the labels of the
    benchmark inputs do not.

    Raises
    ------
    DegenerateFlapError
        If a flap face of *mesh* is degenerate, as in the edge field.
    SolverDivergedError
        If CG fails to reach ``solver_tol`` within the iteration cap.
    """
    if params is None:
        params = PrefilterParams()
    system = assemble_system(mesh, params)
    max_iter = params.max_iter_for(mesh.n_vertices)
    out = np.empty_like(mesh.vertices)
    # One contiguous row per coordinate, as scipy's cg ravels its rhs.
    for k, rhs in enumerate(mesh.vertices.T.copy()):
        out[:, k], info = _cg(system, rhs, params.solver_tol, max_iter)
        if info != 0:
            raise SolverDivergedError(
                f"CG on coordinate {k} did not reach rtol={params.solver_tol:g} "
                f"within {max_iter} iterations (info={info})"
            )
    return mesh.with_vertices(out)
