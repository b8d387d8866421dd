"""The package's own conjugate gradients, connected components and
breadth-first rings against the scipy calls they stand in for.

The package loads only ``scipy.sparse``; these tests import
``scipy.sparse.linalg.cg``, ``csgraph.connected_components`` and
``csgraph.dijkstra`` as oracles. ``_cg`` must give scipy 1.17's bits and
``info``; the components must be the same partition, and the rings must
reach as far as dijkstra's hop counts say.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph
from scipy.sparse.linalg import cg

from meshseg import cube, icosahedron, make_fixture, plane
from meshseg.core import components
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import PrefilterParams, _cg, assemble_system
from meshseg.segment import _rings

PERFBENCH_PREFILTER = PrefilterParams(5, 5, 2)

# (shape, subdiv, sigma, seed, params): the gates' prefilter inputs
# (the frozen cube(8) scenario and gate 07's residual check), then each
# perfbench workload's input at its two seeds.
PREFILTER_SYSTEMS = [
    ("cube", 8, 0.5, 23, PERFBENCH_PREFILTER),
    ("cube", 6, 0.5, 9, PrefilterParams(1.0, 1.0, 0.5)),
    *(
        (shape, subdiv, 0.5, seed, PERFBENCH_PREFILTER)
        for shape, subdiv in (("icosahedron", 32), ("cube", 32), ("cube", 16), ("cube", 20))
        for seed in (23, 7919)
    ),
]


def _scipy_cg(system, rhs, rtol, max_iter):
    """The call the prefilter made before it ran its own loop."""
    return cg(system, rhs, x0=rhs.copy(), rtol=rtol, atol=0.0, maxiter=max_iter)


@pytest.mark.parametrize(
    "shape, subdiv, sigma, seed, params",
    PREFILTER_SYSTEMS,
    ids=[f"{shape}{subdiv}-seed{seed}" for shape, subdiv, _, seed, _ in PREFILTER_SYSTEMS],
)
def test_cg_gives_scipys_bits(shape, subdiv, sigma, seed, params):
    mesh = add_noise(make_fixture(shape, subdiv), NoiseSpec(sigma, "normal", seed))
    system = assemble_system(mesh, params)
    max_iter = params.max_iter_for(mesh.n_vertices)
    for column in mesh.vertices.T:
        rhs = column.copy()
        for cap in (max_iter, 3):  # converged, then stopped at the cap
            x, info = _cg(system, rhs, params.solver_tol, cap)
            want, want_info = _scipy_cg(system, column, params.solver_tol, cap)
            assert info == want_info
            assert x.tobytes() == want.tobytes()
        assert info == 3


def test_cg_returns_a_zero_column_as_it_is():
    """The flat plane's z column is all zeros: ||b|| = 0 returns b."""
    mesh = plane(8)
    system = assemble_system(mesh, PERFBENCH_PREFILTER)
    rhs = mesh.vertices[:, 2].copy()
    assert not rhs.any()
    x, info = _cg(system, rhs, PrefilterParams.solver_tol, 10)
    want, want_info = _scipy_cg(system, mesh.vertices[:, 2], PrefilterParams.solver_tol, 10)
    assert (info, want_info) == (0, 0)
    assert x.tobytes() == want.tobytes()


def _same_partition(roots, n, a, b):
    """*roots* names each node's component by its minimum id, and groups
    the nodes as scipy does."""
    graph = sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    count, labels = csgraph.connected_components(graph, directed=False)
    assert len(np.unique(roots)) == count
    grouped = np.unique(roots, return_inverse=True)[1].ravel()
    assert np.array_equal(grouped, np.unique(labels, return_inverse=True)[1].ravel())
    minimum = np.full(count, n)
    np.minimum.at(minimum, labels, np.arange(n))
    assert np.array_equal(roots, minimum[labels])


@st.composite
def graphs(draw):
    """A node count and an edge list, self-loops and repeats included;
    some nodes end up isolated."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    a, b = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return n, a, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_components_match_scipy(graph):
    n, a, b = graph
    _same_partition(components(n, a, b), n, a, b)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3000), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_components_of_shuffled_paths(length, n_paths, seed):
    """Paths whose node ids are shuffled take several hooking rounds; the
    ends of each path are written in a random direction."""
    rng = np.random.default_rng(seed)
    n = length * n_paths
    ids = rng.permutation(n).reshape(n_paths, length)
    a, b = ids[:, :-1].ravel(), ids[:, 1:].ravel()
    flip = rng.random(len(a)) < 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    _same_partition(components(n, a, b), n, a, b)


@pytest.mark.parametrize("mesh", [cube(8), icosahedron(8), plane(8)], ids=repr)
@pytest.mark.parametrize("share", [0.0, 0.002, 0.05, 0.5, 1.0])
def test_rings_match_dijkstra(mesh, share):
    """Each ring holds the faces within max(2, hops to the nearest target)
    of its source, by unweighted dijkstra hop counts, in the order (hop,
    source, face). Targets are a random mask, the empty and the full one
    included; sources are up to 40 faces outside it. With no target a
    ring is the source's whole component; the plane's boundary edges
    join nothing."""
    topo = mesh.topology
    rng = np.random.default_rng(int(share * 1000))
    target = rng.random(topo.n_faces) < share
    sources = rng.permutation(np.flatnonzero(~target))[:40]
    a, b = topo.edge_faces[topo.interior_edge_ids].T
    graph = sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(topo.n_faces, topo.n_faces))
    hops = csgraph.dijkstra(graph, directed=False, indices=sources, unweighted=True)
    reach = np.maximum(2, np.where(target, hops, np.inf).min(axis=1))
    owner, face = np.nonzero((hops > 0) & (hops <= reach[:, None]) & np.isfinite(hops))
    order = np.lexsort((face, owner, hops[owner, face]))
    got = _rings(topo, sources, 2, target)
    np.testing.assert_array_equal(np.stack(got), np.stack((owner[order], face[order])))
