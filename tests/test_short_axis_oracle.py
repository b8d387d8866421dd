"""Order pins for the short-axis helpers in ``meshseg.core``.

``row_norms``, ``row_cross``, ``sum_terms`` and ``mean_terms`` replace
numpy's own short-axis calls with whole-column arithmetic in the order
numpy uses, so they must give the very same bytes. Each test compares a
helper with the call it replaces on rows built to catch a change of
order: every sign of zero, subnormals, ±1e308 (whose sums and squares
overflow) and magnitudes from 1e-30 to 1e30 side by side. A failure
means numpy changed its order: update the named helper to match.
"""

import numpy as np
import pytest

from meshseg.core import mean_terms, row_cross, row_norms, sum_terms

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
    assert row_cross(empty, empty).shape == (0, 3)
    assert sum_terms(empty.T).shape == (0,)
    assert mean_terms(np.zeros((3, 0, 3))).shape == (0, 3)


def test_einsum_dot_order():
    """``meshseg.denoise.vertex_update`` spells out einsum("pi,pi->p")
    over two arrays as ``sum_terms`` of the products x, z, y: like the
    add-reduce, einsum starts from +0.0."""
    a = adversarial((20_000, 3), 3)
    b = adversarial((20_000, 3), 4)
    # Rows of ±0 and ±1, so that some products are all −0.0.
    rng = np.random.default_rng(5)
    a[:5000] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(5000, 3))
    b[:5000] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(5000, 3))
    with np.errstate(all="ignore"):
        p = a * b
        explicit = sum_terms((p[:, 0], p[:, 2], p[:, 1]))
        assert np.einsum("pi,pi->p", a, b).tobytes() == explicit.tobytes(), (
            "numpy's einsum no longer sums a length-3 dot product as ((0.0 + x) + z) + y; "
            "update the sum order in meshseg.denoise.vertex_update to match it"
        )
