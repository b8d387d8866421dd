"""The icosahedron fixture's bytes, and the checked ``subdiv`` count.

Every ``segment-ladder`` benchmark digest and the acceptance gates' random
icosahedra depend on ``icosahedron(m)``'s vertex order, positions and face
triples, so they are pinned here by sha256 at each tested resolution.
"""

import hashlib

import pytest

from meshseg import icosahedron, make_fixture
from meshseg.fixtures import FIXTURE_SHAPES

# m -> (sha256 of vertices.tobytes(), sha256 of faces.tobytes())
ICOSAHEDRON_SHA256 = {
    0: (
        "25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
        "3db7a1822c9b623934e2e4740412c5fbeb065c97b1d30344bad8fa21007c31dc",
    ),
    1: (
        "25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
        "3db7a1822c9b623934e2e4740412c5fbeb065c97b1d30344bad8fa21007c31dc",
    ),
    2: (
        "2c8ad9468c4ee88d66779c16838998549569baa0a7a22926aa2b2769a1cf9fa6",
        "0eb037284498271aa9642602b021c10c6054b1a9cac5c4f981a6da70a5c4ccd3",
    ),
    3: (
        "6eb94131c624115b7b31f0a9f4621f530581e6c3fbdb0770e8ceb96789ae9ae6",
        "f0b27b1e7ebc610c225aeb040eac84edf5a95e53e24e5fa78cb57b29e6e05c55",
    ),
    4: (
        "06733c51d901df141463abf80ec8d8a2be956338105353fdbf2c2efbe6ae15af",
        "73578c2d7794b04afc0b4810f034bd933ea6ca423b4fe95c580a9ed3fe2c1420",
    ),
    5: (
        "c31014411ceb457e5f67e935c5fcb415d81d4191f284e23ef30e13cec7b22bb2",
        "8e9e85f8017e3730239011fa71d84ab34a21a23ebcc56dbddf1fae90560ee659",
    ),
    6: (
        "61e5dcc9226bbc25bcaca5fe1b7d38e87cd03159c24c64ef05fbee38722e72d7",
        "c670b2223f5a5ff51b1decd58148188bb28bf8fdc049950341d5ad9bc25bd726",
    ),
    7: (
        "bed78b637d285d226b4358eb81788b095e6e77650e1e77d253035cf99c7203ea",
        "1699794b73f94179b8a6afe11fdf671cbf3928eaef248ebe8cd9e9aefd6399db",
    ),
    8: (
        "547573383bc23ddc7716b62f67d7f51697a420515c1257163cc9bd904e12e918",
        "c1ef18cc1744481c69acc8cb1a3f111c4b65296f59e654893cb584894233b040",
    ),
    16: (
        "c341c5dc58b09f1793856df6ddcb9c34df8cbf33b000565429f261d29636e543",
        "4a9ba9a3f23983fa58d5b6208aab465431ef282d085a8c0658e22a2a809d6422",
    ),
    32: (
        "ff73ab1bc1da7afc766efc700ac6962d06405b30630dde4478bbb82608f2a5e5",
        "a82825bf4e38512f7d352404c2036bc878cb03406e154b4449f6e76b1aadbc9d",
    ),
}


@pytest.mark.parametrize("m", sorted(ICOSAHEDRON_SHA256))
def test_icosahedron_bytes_are_pinned(m):
    mesh = icosahedron(m)
    n = max(m, 1)
    assert mesh.vertices.shape == (10 * n * n + 2, 3)
    assert mesh.faces.shape == (20 * n * n, 3)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (mesh.vertices, mesh.faces))
    assert got == ICOSAHEDRON_SHA256[m]


@pytest.mark.parametrize("shape", FIXTURE_SHAPES)
@pytest.mark.parametrize("subdiv", [2.7, -3, True, float("nan")])
def test_subdiv_is_a_checked_count(shape, subdiv):
    """2.7 is not rounded down, -3 and True do not quietly mean 1."""
    with pytest.raises(ValueError, match="subdiv must be an integer >= 0"):
        make_fixture(shape, subdiv)
