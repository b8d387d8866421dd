"""Synthetic Gaussian noise for denoising experiments.

The noise amplitude is specified relative to the mesh's mean edge length
so that the same ``sigma_factor`` produces comparable corruption across
resolutions. Draws come from a counter-based Philox generator and are
consumed in vertex order, which makes a given (mesh, spec) pair
reproduce byte-identical output on any platform numpy supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TriMesh, check_count, vertex_normals
from .errors import EmptyMeshError

NOISE_MODES = ("normal", "isotropic")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise recipe: amplitude (x mean edge length), direction mode, seed.

    mode "normal" displaces each vertex along its area-weighted vertex
    normal by one scalar Gaussian draw; "isotropic" adds an independent
    Gaussian 3-vector per vertex.
    """

    sigma_factor: float
    mode: str = "normal"
    seed: int = 0

    def __post_init__(self):
        if not self.sigma_factor >= 0:  # also rejects NaN
            raise ValueError(f"sigma_factor must be >= 0, got {self.sigma_factor}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")
        check_count("seed", self.seed, 0)


def add_noise(mesh: TriMesh, spec: NoiseSpec) -> TriMesh:
    """Corrupted copy of *mesh*; connectivity is untouched.

    sigma_factor == 0 returns an exact copy (no generator draws), so a
    zero-noise run is bitwise comparable to its input.
    """
    if mesh.n_vertices == 0:
        raise EmptyMeshError("cannot add noise to an empty mesh")
    if spec.sigma_factor == 0.0:
        return mesh.with_vertices(mesh.vertices)

    sigma = spec.sigma_factor * mesh.topology.mean_edge_length
    rng = np.random.Generator(np.random.Philox(spec.seed))
    if spec.mode == "normal":
        normals = vertex_normals(mesh)
        g = rng.standard_normal(mesh.n_vertices)
        displaced = mesh.vertices + sigma * g[:, None] * normals
    else:
        g = rng.standard_normal((mesh.n_vertices, 3))
        displaced = mesh.vertices + sigma * g
    return mesh.with_vertices(displaced)
