"""Feature-aware mesh denoising built on edge-operator segmentation.

Pipeline in one breath: corrupt or load a triangle mesh, optionally
relax it with a quadratic prefilter, grow face clusters wherever the
differential edge operator stays small, absorb undersized clusters, then
denoise with a cluster-constrained two-step filter (iterated face-normal
filtering + vertex fitting) and score the result against ground truth.
"""

from .core import (
    ClusterLabels,
    FaceGeometry,
    TopologyCache,
    TriMesh,
    build_topology,
    face_geometry,
    vertex_normals,
)
from .denoise import (
    BnfParams,
    DenoiseParams,
    GnfParams,
    L1Params,
    UnfParams,
    denoise,
    filter_bnf,
    filter_gnf,
    filter_l1median,
    filter_normals,
    filter_unf,
    params_from_tuple,
    vertex_update,
)
from .edgeop import edge_operator_field
from .errors import (
    ConnectivityMismatchError,
    DegenerateFaceError,
    DegenerateFlapError,
    EmptyMeshError,
    InconsistentWindingError,
    LabelLengthMismatchError,
    MeshError,
    MeshParseError,
    NonFiniteVertexError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    NonTriangleFaceError,
    SolverDivergedError,
    ZeroAreaFaceError,
)
from .fileio import read_labels, read_obj, write_labels, write_norms_csv, write_obj, write_ply_colored
from .fixtures import cube, icosahedron, make_fixture, plane
from .metrics import ev, msae
from .noise import NoiseSpec, add_noise
from .prefilter import PrefilterParams, prefilter
from .segment import SegmentParams, refine, region_grow, segment

__version__ = "0.1.0"

__all__ = [
    "BnfParams",
    "ClusterLabels",
    "ConnectivityMismatchError",
    "DegenerateFaceError",
    "DegenerateFlapError",
    "DenoiseParams",
    "EmptyMeshError",
    "FaceGeometry",
    "GnfParams",
    "InconsistentWindingError",
    "L1Params",
    "LabelLengthMismatchError",
    "MeshError",
    "MeshParseError",
    "NoiseSpec",
    "NonFiniteVertexError",
    "NonManifoldEdgeError",
    "NonManifoldVertexError",
    "NonTriangleFaceError",
    "PrefilterParams",
    "SegmentParams",
    "SolverDivergedError",
    "TopologyCache",
    "TriMesh",
    "UnfParams",
    "ZeroAreaFaceError",
    "add_noise",
    "build_topology",
    "cube",
    "denoise",
    "edge_operator_field",
    "ev",
    "face_geometry",
    "filter_bnf",
    "filter_gnf",
    "filter_l1median",
    "filter_normals",
    "filter_unf",
    "icosahedron",
    "make_fixture",
    "msae",
    "params_from_tuple",
    "plane",
    "prefilter",
    "read_labels",
    "read_obj",
    "refine",
    "region_grow",
    "segment",
    "vertex_normals",
    "vertex_update",
    "write_labels",
    "write_norms_csv",
    "write_obj",
    "write_ply_colored",
]
