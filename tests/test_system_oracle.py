"""The prefilter's system matrix against the two-product chain.

:func:`meshseg.prefilter.assemble_system` forms each energy term as one
sparse product with the edge weights folded into its left factor. The
reference is the chain ``I + alpha·(A' @ diags(w) @ A) + beta·(B' @
diags(w) @ B)`` on the COO-built operators of
:func:`flap_oracle.flap_operators`. M's CSR arrays must match it byte for
byte, dtypes included. That pins the rounding of each term,
fl(fl(a_ei·w_e)·a_ej), and the ascending edge order of its sum.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from meshseg import make_fixture, plane
from meshseg.core import TriMesh
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import PrefilterParams, assemble_system

from flap_oracle import flap_operators
from test_scipy_oracle import PREFILTER_SYSTEMS


def two_product_system(mesh: TriMesh, params: PrefilterParams):
    a_op, b_op, w = flap_operators(mesh, params)
    w_diag = sp.diags(w)
    return (
        sp.identity(mesh.n_vertices, format="csr")
        + params.alpha * (a_op.T @ w_diag @ a_op)
        + params.beta * (b_op.T @ w_diag @ b_op)
    )


def assert_same_csr(got, want):
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype, attr
        assert g.tobytes() == w.tobytes(), attr


# The gates' and perfbench's prefilter inputs, then noisy plane(8), whose
# border edges carry no term.
SYSTEMS = [*PREFILTER_SYSTEMS, ("plane", 8, 0.3, 23, PrefilterParams(5, 5, 2))]


@pytest.mark.parametrize("term", [None, "alpha", "beta"], ids=["both", "alpha0", "beta0"])
@pytest.mark.parametrize(
    "shape, subdiv, sigma, seed, params",
    SYSTEMS,
    ids=[f"{shape}{subdiv}-seed{seed}" for shape, subdiv, _, seed, _ in SYSTEMS],
)
def test_system_matches_two_product_chain(shape, subdiv, sigma, seed, params, term):
    mesh = add_noise(make_fixture(shape, subdiv), NoiseSpec(sigma, "normal", seed))
    if term is not None:
        params = dataclasses.replace(params, **{term: 0.0})
    assert_same_csr(assemble_system(mesh, params), two_product_system(mesh, params))


@pytest.mark.parametrize(
    "mesh",
    [TriMesh(np.eye(3) + 0.25, [[0, 1, 2]]), plane(8)],
    ids=["single-triangle", "clean-plane8"],
)
def test_clean_meshes_match_two_product_chain(mesh):
    """No interior edge (both sides are the identity), and a flat grid
    whose edge weights are all 1."""
    params = PrefilterParams(5, 5, 2)
    assert_same_csr(assemble_system(mesh, params), two_product_system(mesh, params))
