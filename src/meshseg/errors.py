"""Exception hierarchy shared by all meshseg modules."""


class MeshError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateFaceError(MeshError):
    """A face references the same vertex more than once."""


class NonFiniteVertexError(MeshError):
    """A vertex coordinate is NaN or infinite."""


class NonManifoldEdgeError(MeshError):
    """An edge is shared by more than two faces."""


class NonManifoldVertexError(MeshError):
    """A vertex's faces form more than one fan (a bowtie vertex)."""


class InconsistentWindingError(MeshError):
    """Two faces traverse their shared edge in the same direction."""


class ZeroAreaFaceError(MeshError):
    """A face has exactly zero area, so its normal is undefined."""


class DegenerateFlapError(MeshError):
    """An edge flap contains a face whose area is numerically zero."""


class EmptyMeshError(MeshError):
    """The operation needs a non-empty mesh."""


class MeshParseError(MeshError):
    """A mesh file could not be parsed; message carries path and line."""


class NonTriangleFaceError(MeshParseError):
    """A face record in a mesh file does not have exactly three vertices."""


class LabelLengthMismatchError(MeshError):
    """A label array does not have one entry per face."""


class ConnectivityMismatchError(MeshError):
    """Two meshes that must share connectivity do not."""


class SolverDivergedError(MeshError):
    """The iterative linear solver failed to reach its tolerance."""
