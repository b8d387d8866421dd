"""Line-by-line reference reader for OBJ files.

:func:`meshseg.fileio.read_obj` parses a block of lines at a time with
C-level conversion and falls back to a record-by-record scan only to
raise a block's first error. The tests check it against
:func:`read_obj` below, which reads one line at a time: the same arrays
bit for bit, or the same exception type and message.
"""

import numpy as np

from meshseg.core import TriMesh
from meshseg.errors import MeshParseError, NonTriangleFaceError


def read_obj(path) -> TriMesh:
    """Parse *path* as OBJ, one line at a time."""
    vertices: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshParseError(
                        f"{path}:{lineno}: vertex record needs 3 coordinates: {line!r}"
                    )
                try:
                    vertices.append(tuple(float(x) for x in parts[1:4]))
                except ValueError as exc:
                    raise MeshParseError(
                        f"{path}:{lineno}: bad vertex coordinate: {line!r}"
                    ) from exc
            elif tag == "f":
                refs = parts[1:]
                if len(refs) != 3:
                    raise NonTriangleFaceError(
                        f"{path}:{lineno}: face has {len(refs)} vertices, "
                        f"only triangles are supported: {line!r}"
                    )
                idx = []
                for ref in refs:
                    head = ref.split("/", 1)[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        raise MeshParseError(
                            f"{path}:{lineno}: bad face index {ref!r}"
                        ) from exc
                    if i < 1:
                        raise MeshParseError(
                            f"{path}:{lineno}: face indices must be positive "
                            f"(1-based), got {i}"
                        )
                    idx.append(i - 1)
                faces.append(tuple(idx))
            # Any other record type (vn, vt, o, g, s, mtllib, ...) is skipped.
    fmax = max((max(f) for f in faces), default=-1)
    if fmax >= len(vertices):
        raise MeshParseError(
            f"{path}: face references vertex {fmax + 1} but only "
            f"{len(vertices)} vertices are defined"
        )
    return TriMesh(
        np.array(vertices, dtype=np.float64).reshape(-1, 3),
        np.array(faces, dtype=np.int64).reshape(-1, 3),
    )
