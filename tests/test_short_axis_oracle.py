"""Order pins for the short-axis helpers in ``meshseg.core`` and the
einsum contractions the denoise filters write out.

``row_norms``, ``row_cross``, ``sum_terms``, ``mean_terms`` and
``dot_terms`` replace numpy's own short-axis calls with whole-column
arithmetic in the order numpy uses, so they must give the very same
bytes. The edge-ring filters in ``meshseg.denoise`` likewise spell out
the einsum contractions of their row-major form on axis-major arrays.
Each test compares the written-out form with the call it replaces on rows
built to catch a change of order: every sign of zero, subnormals, ±1e308
(whose sums and squares overflow) and magnitudes from 1e-30 to 1e30 side
by side. A failure means numpy changed its order: update the named
function to match.
"""

import numpy as np
import pytest

from meshseg.core import dot_terms, mean_terms, row_cross, row_norms, sum_terms

SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.1e-310, 1e308, -1e308, 1.0, -1.0, 3.0, 1e16, -1e16]
)


def adversarial(shape, seed):
    """Rows of *shape* that mix special values with random magnitudes."""
    rng = np.random.default_rng(seed)
    special = rng.choice(SPECIAL, size=shape)
    mixed = rng.standard_normal(shape) * np.exp(rng.uniform(-70, 70, shape))
    out = np.where(rng.random(shape) < 0.5, special, mixed)
    # Whole rows of zeros of either sign, where the start of a sum shows.
    zero_rows = rng.random(shape[0]) < 0.05
    out[zero_rows] = rng.choice([0.0, -0.0], size=out[zero_rows].shape)
    return out


def with_signed_zero_rows(rows, seed):
    """*rows* with its first quarter drawn from ±0 and ±1, so that some
    products, and whole rows of them, are −0.0."""
    rng = np.random.default_rng(seed)
    n = len(rows) // 4
    rows[:n] = rng.choice([0.0, -0.0, 1.0, -1.0], size=rows[:n].shape)
    return rows


def same_bytes(got, want, helper, call):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (
        f"{call} no longer matches meshseg.core.{helper} bit for bit; "
        f"update {helper} to numpy's order"
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_norms_order(seed):
    rows = adversarial((20_000, 3), seed)
    with np.errstate(all="ignore"):
        same_bytes(row_norms(rows), np.linalg.norm(rows, axis=1), "row_norms",
                   "np.linalg.norm(axis=1)")
        # A single vector, as the per-flap oracle passes it.
        same_bytes(row_norms(rows[7]), np.linalg.norm(rows[7], axis=-1), "row_norms",
                   "np.linalg.norm(axis=-1)")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_cross_order(seed):
    a = adversarial((20_000, 3), seed)
    b = adversarial((20_000, 3), seed + 10)
    with np.errstate(all="ignore"):
        same_bytes(row_cross(a, b), np.cross(a, b), "row_cross", "np.cross")
        same_bytes(row_cross(a[3], b[3]), np.cross(a[3], b[3]), "row_cross", "np.cross")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sum_terms_order(seed):
    """Three terms, as the ring weights and triangle corners give them,
    and four, as the gnf patch sums do."""
    weights = adversarial((20_000, 3), seed)
    tri = adversarial((20_000, 3, 3), seed + 10)
    patch = adversarial((20_000, 4, 3), seed + 20)
    areas = adversarial((20_000, 4), seed + 30)
    with np.errstate(all="ignore"):
        same_bytes(sum_terms(weights.T), weights.sum(axis=1), "sum_terms", ".sum(axis=1)")
        same_bytes(sum_terms(tri.swapaxes(0, 1)), tri.sum(axis=1), "sum_terms", ".sum(axis=1)")
        same_bytes(sum_terms(patch.swapaxes(0, 1)), patch.sum(axis=1), "sum_terms",
                   ".sum(axis=1) over 4 terms")
        same_bytes(sum_terms(areas.T)[:, None], areas.sum(axis=1, keepdims=True), "sum_terms",
                   ".sum(axis=1) over 4 terms")


def test_sum_terms_starts_from_positive_zero():
    """numpy's add-reduce starts from +0.0, so an all −0.0 row sums to
    +0.0; (t0 + t1) + t2 would keep −0.0."""
    rows = np.full((2, 3), -0.0)
    assert np.signbit(rows.sum(axis=1)).tolist() == [False, False]
    assert np.signbit(sum_terms(rows.T)).tolist() == [False, False]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mean_terms_order(seed):
    tri = adversarial((20_000, 3, 3), seed)
    corners = np.ascontiguousarray(tri.swapaxes(0, 1))
    with np.errstate(all="ignore"):
        same_bytes(mean_terms(corners), tri.mean(axis=1), "mean_terms", ".mean(axis=1)")
        same_bytes(mean_terms(tri.swapaxes(0, 1)), tri.mean(axis=1), "mean_terms",
                   ".mean(axis=1)")


def test_helpers_on_empty_rows():
    empty = np.zeros((0, 3))
    assert row_norms(empty).shape == (0,)
    assert dot_terms(empty.T, empty.T).shape == (0,)
    assert row_cross(empty, empty).shape == (0, 3)
    assert sum_terms(empty.T).shape == (0,)
    assert mean_terms(np.zeros((3, 0, 3))).shape == (0, 3)


def test_einsum_dot_order():
    """``meshseg.core.dot_terms`` spells out einsum("pi,pi->p") over two
    arrays as ``sum_terms`` of the products x, z, y: like the add-reduce,
    einsum starts from +0.0. ``vertex_update`` passes its corner buffer as
    *prod*, so the products overwrite one factor."""
    a = adversarial((20_000, 3), 3)
    b = adversarial((20_000, 3), 4)
    # Rows of ±0 and ±1, so that some products are all −0.0.
    rng = np.random.default_rng(5)
    a[:5000] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(5000, 3))
    b[:5000] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(5000, 3))
    with np.errstate(all="ignore"):
        p = a * b
        explicit = sum_terms((p[:, 0], p[:, 2], p[:, 1]))
        a_t = np.ascontiguousarray(a.T)
        in_place = dot_terms(a_t, b.T, a_t)
        want = np.einsum("pi,pi->p", a, b).tobytes()
        assert want == explicit.tobytes() == in_place.tobytes(), (
            "numpy's einsum no longer sums a length-3 dot product as ((0.0 + x) + z) + y; "
            "update the sum order in meshseg.core.dot_terms to match it"
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dot_terms_order(seed):
    """Rows of (N, 3) arrays, as every dot outside the ring filters passes
    them, and one pair of 3-vectors, as the per-flap oracle does."""
    a = with_signed_zero_rows(adversarial((20_000, 3), seed), seed + 40)
    b = with_signed_zero_rows(adversarial((20_000, 3), seed + 10), seed + 40)
    with np.errstate(all="ignore"):
        same_bytes(dot_terms(a.T, b.T), np.einsum("ij,ij->i", a, b), "dot_terms",
                   'np.einsum("ij,ij->i")')
        same_bytes(dot_terms(a.T, a.T), np.einsum("...i,...i->...", a, a), "dot_terms",
                   'np.einsum("...i,...i->...")')
        same_bytes(dot_terms(a[9], b[9]), np.einsum("...i,...i->...", a[9], b[9]), "dot_terms",
                   'np.einsum("...i,...i->...") of two 3-vectors')


def ring_arrays(seed):
    """(F, 3) centre rows and (F, 3 slots, 3) ring rows, row-major, each
    with signed-zero rows, and their axis-major (3, F) and
    (3 components, 3 slots, F) forms."""
    centre = with_signed_zero_rows(adversarial((20_000, 3), seed), seed + 50)
    ring = adversarial((20_000, 3, 3), seed + 10)
    ring[:5000] = with_signed_zero_rows(ring[:, 0].copy(), seed + 60)[:5000, None, :]
    return centre, ring, np.ascontiguousarray(centre.T), np.ascontiguousarray(ring.transpose(2, 1, 0))


def ring_same_bytes(got, want, call, functions):
    """*got* is slot- or component-major, (k, F); *want* row-major (F, k)."""
    assert got.T.shape == want.shape
    assert got.T.tobytes() == want.tobytes(), (
        f"numpy's einsum {call} no longer sums in the order the axis-major ring "
        f"filters write out; update {functions} in meshseg.denoise to match it"
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_dot_order(seed):
    """The centre-to-ring dots of unf and l1: ((0.0 + x·x′) + z·z′) + y·y′."""
    centre, ring, centre_t, ring_t = ring_arrays(seed)
    with np.errstate(all="ignore"):
        ring_same_bytes(dot_terms(centre_t[:, None, :], ring_t),
                        np.einsum("fi,fki->fk", centre, ring),
                        '"fi,fki->fk"', "filter_unf and filter_l1median")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_squared_distance_order(seed):
    """The squared normal and centroid distances of bnf and the spatial
    kernel: ((0.0 + x²) + z²) + y²."""
    centre, ring, centre_t, ring_t = ring_arrays(seed)
    with np.errstate(all="ignore"):
        diff = centre[:, None, :] - ring
        diff_t = centre_t[:, None, :] - ring_t
        ring_same_bytes(dot_terms(diff_t, diff_t), np.einsum("fki,fki->fk", diff, diff),
                        '"fki,fki->fk"', "filter_bnf and _ring_spatial")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_slot_sum_order(seed):
    """The weighted slot sums of unf, bnf and the Weiszfeld steps:
    ((0.0 + w0·r0) + w1·r1) + w2·r2, the products written into the
    gathered ring as the filters do, then ``sum_terms`` over the slots."""
    weights, ring, weights_t, ring_t = ring_arrays(seed)
    with np.errstate(all="ignore"):
        want = np.einsum("fk,fki->fi", weights, ring)
        prod = np.multiply(weights_t, ring_t, out=ring_t)
        got = sum_terms(prod.swapaxes(0, 1), out=np.empty((3, len(weights))))
        ring_same_bytes(got, want, '"fk,fki->fi"', "sum_terms (filter_unf, filter_bnf, _weiszfeld)")
