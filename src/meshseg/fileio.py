"""Wavefront OBJ reading/writing and colored PLY export.

Only the tiny OBJ subset needed for triangle meshes is supported:
``v x y z`` and ``f i j k`` records (1-based indices, optional ``/vt/vn``
suffixes). Everything else is ignored. Writing emits one ``v`` line per
vertex followed by one ``f`` line per face, nothing else, with float
coordinates in shortest round-trip decimal form so a write/read cycle
reproduces positions exactly.
"""

from __future__ import annotations

import colorsys

import numpy as np

from .core import TriMesh
from .errors import LabelLengthMismatchError, MeshParseError, NonTriangleFaceError

GOLDEN_RATIO_CONJUGATE = 0.618034
ROWS_PER_WRITE = 4096


def read_obj(path) -> TriMesh:
    """Parse *path* as OBJ, returning the mesh.

    Raises MeshParseError (with file and line number) on malformed
    records, NonTriangleFaceError on faces that are not triangles.
    """
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


def _write_rows(fh, row_format: str, table: np.ndarray) -> None:
    """Write *row_format* filled with each row of *table*. Values come
    from ``tolist()``, so floats print as ``repr`` (shortest round-trip)
    and integers as ``str``; rows are formatted ROWS_PER_WRITE at a time."""
    for start in range(0, len(table), ROWS_PER_WRITE):
        rows = table[start:start + ROWS_PER_WRITE]
        fh.write((row_format * len(rows)).format(*rows.ravel().tolist()))


def write_obj(mesh: TriMesh, path) -> None:
    """Write *mesh* to *path*; output is V + F lines, byte-deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, "v {!r} {!r} {!r}\n", mesh.vertices)
        _write_rows(fh, "f {} {} {}\n", mesh.faces + 1)


def _label_colors(n_labels: int) -> np.ndarray:
    """(n_labels, 3) uint8 RGB table built by golden-ratio hue stepping.

    Hue of label k is fract(k * 0.618034) at full saturation and value,
    which keeps any <= 256 labels pairwise distinct after 8-bit
    quantization while spreading neighboring labels far apart on the
    color wheel.
    """
    hues = (np.arange(n_labels) * GOLDEN_RATIO_CONJUGATE) % 1.0
    rgb = np.array([colorsys.hsv_to_rgb(h, 1.0, 1.0) for h in hues]).reshape(-1, 3)
    return np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)


def write_ply_colored(mesh: TriMesh, labels, path) -> None:
    """ASCII PLY with one uchar RGB triple per face, colored by label."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (mesh.n_faces,):
        raise LabelLengthMismatchError(
            f"got {labels.shape[0] if labels.ndim else 'scalar'} labels "
            f"for {mesh.n_faces} faces"
        )
    if labels.min(initial=0) < 0:
        raise ValueError("labels must be non-negative")
    face_colors = _label_colors(int(labels.max(initial=-1)) + 1)[labels]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ply\n")
        fh.write("format ascii 1.0\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property float x\n")
        fh.write("property float y\n")
        fh.write("property float z\n")
        fh.write(f"element face {mesh.n_faces}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("property uchar red\n")
        fh.write("property uchar green\n")
        fh.write("property uchar blue\n")
        fh.write("end_header\n")
        _write_rows(fh, "{!r} {!r} {!r}\n", mesh.vertices)
        _write_rows(fh, "3 {} {} {} {} {} {}\n", np.hstack((mesh.faces, face_colors)))


def write_labels(labels, path) -> None:
    """One integer label per line, in face order."""
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, "{}\n", labels[:, None])


def read_labels(path) -> np.ndarray:
    """Read a label file written by :func:`write_labels`."""
    with open(path, "r", encoding="utf-8") as fh:
        labels = [int(line) for line in fh if line.strip()]
    return np.asarray(labels, dtype=np.int64)
