"""A reference for the L1-median (Weiszfeld) normal filter, and the tests
that hold ``meshseg.denoise`` to it.

The reference runs every Weiszfeld step on all faces in the row-major
(F, 3 ring slots, 3 components) layout with ``einsum`` reductions; the
library steps only the faces with gated weight, component-major, with
each sum spelled out in the order those reductions use. Normals must
agree bit for bit.

``full_weiszfeld`` keeps the component-major loop that steps every
column to the end; ``denoise._weiszfeld`` drops settled columns, and must
return the same bytes.
"""

import numpy as np
import pytest

from meshseg import cube, icosahedron, plane
from meshseg.core import TriMesh, build_topology, face_geometry, sum_terms
from meshseg.denoise import (
    WEISZFELD_DIST_FLOOR,
    WEISZFELD_MAX_ITER,
    WEISZFELD_MOVE_TOL,
    L1Params,
    _normalize_rows,
    _ring_tables,
    _weiszfeld,
    filter_normals,
    mean_adjacent_centroid_distance,
)
from meshseg.noise import NoiseSpec, add_noise


def reference_filter_l1median(topo, geometry, params, labels=None):
    """The geometric-median filter with a row-major Weiszfeld loop over
    every face."""
    safe, valid = _ring_tables(topo, labels)
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


def test_slot_sum_matches_einsum_signed_zeros():
    """``sum_terms`` over the slot axis gives einsum("fk,fki->fi")'s bytes
    where every product is a zero: einsum's sum starts from +0.0, so three
    −0.0 products sum to +0.0, not −0.0."""
    rng = np.random.default_rng(8)
    weights = rng.choice([0.0, -0.0, 1.0], size=(20_000, 3))
    points = rng.choice([0.0, -0.0, -1.0], size=(20_000, 3, 3))
    want = np.einsum("fk,fki->fi", weights, points)
    prod = np.empty((3, 3, 20_000))
    points_t = np.ascontiguousarray(points.transpose(2, 1, 0))
    np.multiply(np.ascontiguousarray(weights.T), points_t, out=prod)
    got = sum_terms(prod.swapaxes(0, 1), out=np.empty((3, 20_000)))
    products = weights[:, :, None] * points
    plain = (products[:, 0] + products[:, 1]) + products[:, 2]
    assert np.signbit(plain[plain == 0.0]).any(), "no row sums to -0.0 without the +0.0 start"
    assert not np.signbit(want[want == 0.0]).any()
    assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()


def test_weiszfeld_median_of_negative_zeros():
    """One gated slot whose x component is −0.0 and two zero-weight slots
    at x = −1: the weighted mean's x is +0.0, as einsum gives it, and the
    Weiszfeld steps keep it."""
    points = np.zeros((3, 3, 1))
    points[0, :, 0] = [-0.0, -1.0, -1.0]
    points[2, :, 0] = 1.0
    weights = np.array([[1.0], [0.0], [0.0]])
    got = _weiszfeld(points, weights, np.array([1.0]))
    assert got[:, 0].tolist() == [0.0, 0.0, 1.0]
    assert not np.signbit(got[0, 0])


def full_weiszfeld(points, weights, wsum):
    """``denoise._weiszfeld`` without dropping settled columns: every
    column takes every step until none moves by WEISZFELD_MOVE_TOL."""
    prod = np.empty_like(points)
    inv = np.empty_like(weights)
    inv_sum = np.empty_like(wsum)
    move = np.empty_like(wsum)
    stuck = np.empty(wsum.shape, dtype=bool)
    median = sum_terms(np.multiply(weights, points, out=prod).swapaxes(0, 1))
    np.divide(median, wsum, out=median)
    candidate = np.empty_like(median)
    for _step in range(WEISZFELD_MAX_ITER):
        np.subtract(median[:, None, :], points, out=prod)
        np.multiply(prod, prod, out=prod)
        np.add(prod[0], prod[2], out=inv)
        np.add(inv, prod[1], out=inv)
        np.sqrt(inv, out=inv)
        np.maximum(inv, WEISZFELD_DIST_FLOOR, out=inv)
        np.divide(weights, inv, out=inv)
        np.add(inv[0], inv[1], out=inv_sum)
        np.add(inv_sum, inv[2], out=inv_sum)
        sum_terms(np.multiply(inv, points, out=prod).swapaxes(0, 1), out=candidate)
        np.logical_not(np.greater(inv_sum, 0.0, out=stuck), out=stuck)
        np.copyto(inv_sum, 1.0, where=stuck)
        np.divide(candidate, inv_sum, out=candidate)
        np.copyto(candidate, median, where=stuck)
        np.subtract(candidate, median, out=median)
        np.multiply(median, median, out=median)
        np.add(median[0], median[1], out=move)
        np.add(move, median[2], out=move)
        median, candidate = candidate, median
        if np.sqrt(move.max(initial=0.0)) < WEISZFELD_MOVE_TOL:
            break
    return median


def ring_columns(n, seed, slots=(1, 2, 3)):
    """(points, weights, wsum) for *n* columns of three unit normals
    around a common direction, each column with 1, 2 or 3 gated slots
    (drawn from *slots*) in random positions. With 3 in *slots*, every
    third column weighs its first slot 20 times the others: its median
    sits on that point and is approached slowly, so the loop runs on
    while the other columns' moves shrink below the tolerance."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 1, 3)) + 0.4 * rng.standard_normal((n, 3, 3))
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    gated = np.arange(3) < rng.choice(slots, size=n)[:, None]
    gated = np.take_along_axis(gated, rng.permuted(np.tile(np.arange(3), (n, 1)), axis=1), axis=1)
    weights = np.where(gated, rng.uniform(0.2, 1.0, (n, 3)), 0.0)
    if 3 in slots:
        weights[1::3] = [1.0, 0.05, 0.05]
    return (
        np.ascontiguousarray(pts.transpose(2, 1, 0)),
        np.ascontiguousarray(weights.T),
        weights.sum(axis=1),
    )


def _compactions(monkeypatch):
    """Count the ``np.compress`` calls of ``_weiszfeld``, three per compaction."""
    calls = []
    compress = np.compress

    def spy(*args, **kwargs):
        calls.append(1)
        return compress(*args, **kwargs)

    monkeypatch.setattr(np, "compress", spy)
    return calls


def _same_as_full(points, weights, wsum):
    """``_weiszfeld`` gives the loop's bytes without dropping, and leaves
    its inputs as they were."""
    inputs = [a.tobytes() for a in (points, weights, wsum)]
    got = _weiszfeld(points, weights, wsum)
    assert [a.tobytes() for a in (points, weights, wsum)] == inputs
    want = full_weiszfeld(points, weights, wsum)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weiszfeld_drops_settled_columns_bit_for_bit(seed, monkeypatch):
    """1-, 2- and 3-slot columns: the single-slot ones settle at once and
    are dropped, the others keep the loop running."""
    calls = _compactions(monkeypatch)
    _same_as_full(*ring_columns(3000, seed))
    assert calls, "no column was dropped"


def test_weiszfeld_every_column_settles_early(monkeypatch):
    """Single-slot columns only: every move is below the tolerance after
    the first step, so the loop stops there with nothing dropped."""
    calls = _compactions(monkeypatch)
    _same_as_full(*ring_columns(500, 4, slots=(1,)))
    assert not calls


def test_weiszfeld_no_columns():
    points, weights, wsum = np.zeros((3, 3, 0)), np.zeros((3, 0)), np.zeros(0)
    assert _same_as_full(points, weights, wsum).shape == (3, 0)


def test_weiszfeld_stuck_column():
    """Subnormal weights on two points 20 apart: their inverse-distance
    weights round to 0, so the column is stuck at its weighted mean,
    among columns that keep moving."""
    points, weights, wsum = ring_columns(200, 5, slots=(2, 3))
    points[:, :, 0] = [[-10.0, 10.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    weights[:, 0] = [5e-324, 5e-324, 0.0]
    wsum[0] = 1e-323
    got = _same_as_full(points, weights, wsum)
    assert got[:, 0].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("seed", [6, 7])
def test_weiszfeld_moves_whose_squares_underflow(seed):
    """Columns whose y components are near 1e-170: some of their steps
    move the median by less than 1.5e-162, which squares to a zero move
    although the median changed, among columns that keep the loop
    running."""
    points, weights, wsum = ring_columns(400, seed)
    points[1, :, :200] *= 1e-170
    _same_as_full(points, weights, wsum)
