"""Wavefront OBJ reading/writing, label files, colored PLY export and the
per-edge norms CSV.

Only the tiny OBJ subset needed for triangle meshes is supported:
``v x y z`` and ``f i j k`` records (1-based indices, optional ``/vt/vn``
suffixes). Everything else is ignored. Reading takes READ_BLOCK_CHARS of
text at a time (whole lines, universal newlines): it splits the block's
lines, picks its ``v`` and ``f`` records, and converts all of its
coordinates with one ``map(float, ...)`` and all of its face indices with
one ``map(int, ...)``. If anything in a block fails, a record-by-record
scan of that block raises the error of its first malformed line, so the
first error in file order wins, as in a line-by-line reader; a face
index past the vertex count is reported only after every block has
parsed. Writing emits one ``v`` line per
vertex followed by one ``f`` line per face, nothing else, with float
coordinates in shortest round-trip decimal form so a write/read cycle
reproduces positions exactly.

The colored PLY is ASCII too, but its header declares ``property float``
coordinates, so each is written as its float32 value with 9 significant
digits, ``[-]d.dddddddde±dd``, which a float32 reader parses back to
exactly ``vertices.astype(np.float32)``. The OBJ keeps shortest
round-trip doubles, because OBJ round trips feed scores. Integers (face
rows, colors, labels) print as ``str`` prints them. The PLY floats and
every integer are formatted by numpy digit arithmetic, ROWS_PER_WRITE
rows at a time, into a uint8 buffer whose pad bytes are then dropped.
"""

from __future__ import annotations

import colorsys
from fractions import Fraction
from itertools import chain, compress
from operator import itemgetter, methodcaller

import numpy as np

from .core import TopologyCache, TriMesh, label_array
from .errors import MeshParseError, NonTriangleFaceError

GOLDEN_RATIO_CONJUGATE = 0.618034
ROWS_PER_WRITE = 4096
# Characters of OBJ text read and parsed at a time.
READ_BLOCK_CHARS = 1 << 14
_INT64_MAX = 2**63 - 1
_CORNERS = itemgetter(1, 2, 3)
_SPLIT_SLASH = methodcaller("partition", "/")
# 10**0 .. 10**22: every power of ten a float64 holds exactly.
_POW10 = np.array([float(10**i) for i in range(23)])
# A mantissa below 1e9 scaled by at most three rounded operations is off by
# at most 3.4e-7; one nearer a half than this is rounded exactly instead.
_TIE_MARGIN = 1e-6


def read_obj(path) -> TriMesh:
    """Parse *path* as OBJ, returning the mesh.

    Raises MeshParseError (with file and line number) on malformed
    records, NonTriangleFaceError on faces that are not triangles; the
    first malformed line in the file decides. A face index past the
    vertex count raises MeshParseError once the whole file has parsed.
    Bytes that are not UTF-8 raise UnicodeDecodeError as their block is
    read, ahead of a malformed line up to a block before them.
    """
    vertex_blocks = [np.empty(0)]
    face_blocks = [np.empty(0, dtype=np.int64)]
    n_vertices = top = lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(READ_BLOCK_CHARS):
            try:
                coordinates, heads = _parse_block(lines)
            except (IndexError, ValueError):
                _raise_first_error(path, lines, lineno)
                raise  # only if the scan and the block parse disagree
            n_vertices += len(coordinates) // 3
            top = max(top, max(heads, default=0))
            vertex_blocks.append(coordinates)
            # An index past int64 cannot be cast, but the range error
            # below is then certain, so the array is never needed.
            if top <= _INT64_MAX:
                face_blocks.append(np.array(heads, dtype=np.int64))
            lineno += len(lines)
    if top > n_vertices:
        raise MeshParseError(
            f"{path}: face references vertex {top} but only "
            f"{n_vertices} vertices are defined"
        )
    faces = np.concatenate(face_blocks)
    faces -= 1
    return TriMesh(np.concatenate(vertex_blocks).reshape(-1, 3), faces.reshape(-1, 3))


def _parse_block(lines: list[str]) -> tuple[np.ndarray, list[int]]:
    """The coordinates (float64, flat) of the ``v`` records and the
    1-based vertex indices (Python ints, flat) of the ``f`` records in
    *lines*. Raises IndexError or ValueError on any malformed record."""
    records = list(filter(None, map(str.split, lines)))
    tags = list(map(itemgetter(0), records))
    vertices = list(compress(records, map("v".__eq__, tags)))
    faces = list(compress(records, map("f".__eq__, tags)))
    if set(map(len, faces)) - {4}:
        raise ValueError("a face is not a triangle")
    refs = chain.from_iterable(map(_CORNERS, faces))
    if "/" in "".join(lines):
        refs = map(itemgetter(0), map(_SPLIT_SLASH, refs))
    heads = list(map(int, refs))
    if min(heads, default=1) < 1:
        raise ValueError("a face index is not positive")
    coordinates = np.fromiter(
        map(float, chain.from_iterable(map(_CORNERS, vertices))),
        dtype=np.float64,
        count=3 * len(vertices),
    )
    return coordinates, heads


def _raise_first_error(path, lines: list[str], before: int) -> None:
    """Scan *lines*, which follow line *before* of *path*, record by
    record, and raise the error of the first malformed one."""
    for lineno, raw in enumerate(lines, start=before + 1):
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
                for x in parts[1:4]:
                    float(x)
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


def _blocks(n: int):
    """Row slices of ROWS_PER_WRITE rows covering 0..n-1."""
    return (slice(i, i + ROWS_PER_WRITE) for i in range(0, n, ROWS_PER_WRITE))


def _write_rows(fh, row_format: str, table: np.ndarray) -> None:
    """Write *row_format* filled with each row of *table* to the binary
    *fh*. Values come from ``tolist()``, so floats print as ``repr``
    (shortest round-trip) and integers as ``str``."""
    for block in _blocks(len(table)):
        rows = table[block]
        fh.write((row_format * len(rows)).format(*rows.ravel().tolist()).encode())


def _put_digits(values: np.ndarray, planes: np.ndarray) -> None:
    """Fill the (w, ...) uint8 *planes* with the ASCII decimal digits of
    the non-negative int64 *values*, most significant first, zero-filled."""
    for plane in planes[::-1]:
        quotient = values // 10
        np.subtract(values, quotient * 10, out=plane, casting="unsafe")
        plane += ord("0")
        values = quotient


def _int_cells(table: np.ndarray) -> np.ndarray:
    """(n, c, w) uint8 text of the integers of the (n, c) int64 *table*
    as ``str`` prints them, right-aligned after 0 pad bytes."""
    # int64's minimum is its own absolute value; its bits read 2**63 unsigned.
    magnitude = np.abs(table).view(np.uint64)
    width = len(str(magnitude.max(initial=0)))
    planes = np.empty((width + 1,) + table.shape, dtype=np.uint8)
    np.multiply(table < 0, ord("-"), out=planes[0], casting="unsafe")
    _put_digits(magnitude, planes[1:])
    for j in range(1, width):
        planes[j] *= magnitude >= 10 ** (width - j)
    return np.moveaxis(planes, 0, -1)


def _scale(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x * 10**k, in steps that each multiply or divide by an exact power
    of ten, so every step is one correctly rounded IEEE operation."""
    while True:
        step = np.clip(k, -22, 22)
        x = x * _POW10[np.maximum(step, 0)] / _POW10[np.maximum(-step, 0)]
        k = k - step
        if not k.any():
            return x


def _float32_cells(table: np.ndarray) -> np.ndarray:
    """(n, c, 15) uint8 text of the float32 values of the (n, c) *table*
    as ``"%.8e" % value`` prints them, a 0 pad byte in place of a sign.

    ``np.log10`` only guesses each decimal exponent; the exponent is then
    corrected from the scaled mantissa, whose digits come from correctly
    rounded operations alone (and exact rationals within _TIE_MARGIN of a
    rounding tie). So the text does not depend on numpy's SIMD path.
    """
    value = table.astype(np.float64)
    magnitude = np.abs(value)
    nonzero = magnitude > 0
    guess = np.log10(magnitude, out=np.zeros_like(magnitude), where=nonzero)
    exponent = np.floor(guess).astype(np.int64)
    mantissa = _scale(magnitude, 8 - exponent)
    exponent += (mantissa >= 1e9).astype(np.int64) - (nonzero & (mantissa < 1e8))
    mantissa = _scale(magnitude, 8 - exponent)
    rounded = np.rint(mantissa)
    for i in np.flatnonzero(np.abs(mantissa - np.floor(mantissa) - 0.5) < _TIE_MARGIN):
        exact = Fraction(float(magnitude.flat[i])) * Fraction(10) ** int(8 - exponent.flat[i])
        rounded.flat[i] = round(exact)
    carry = rounded >= 1e9
    rounded[carry] = 1e8
    exponent[carry] += 1
    planes = np.empty((15,) + value.shape, dtype=np.uint8)
    np.multiply(np.signbit(value), ord("-"), out=planes[0], casting="unsafe")
    _put_digits(rounded.astype(np.int64), planes[2:11])
    planes[1] = planes[2]
    planes[2] = ord(".")
    planes[11] = ord("e")
    planes[12] = np.where(exponent < 0, ord("-"), ord("+"))
    _put_digits(np.abs(exponent), planes[13:])
    return np.moveaxis(planes, 0, -1)


def _text(cells: np.ndarray, prefix: bytes = b"") -> bytes:
    """One ASCII row per row of the (n, c, w) *cells*: *prefix*, the c
    cells separated by spaces, a newline; the 0 pad bytes dropped."""
    n, c, w = cells.shape
    rows = np.empty((n, len(prefix) + c * (w + 1)), dtype=np.uint8)
    rows[:, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    body = rows[:, len(prefix) :].reshape(n, c, w + 1)
    body[..., :w] = cells
    body[:, :-1, w] = ord(" ")
    body[:, -1, w] = ord("\n")
    return rows[rows != 0].tobytes()


def write_obj(mesh: TriMesh, path) -> None:
    """Write *mesh* to *path*; output is V + F lines, byte-deterministic."""
    with open(path, "wb") as fh:
        _write_rows(fh, "v {!r} {!r} {!r}\n", mesh.vertices)
        for block in _blocks(mesh.n_faces):
            fh.write(_text(_int_cells(mesh.faces[block] + 1), b"f "))


def _label_colors(labels: np.ndarray) -> np.ndarray:
    """(N, 3) uint8 RGB of each of the N int64 *labels*, by golden-ratio
    hue stepping.

    Hue of label k is fract(k * 0.618034) at full saturation and value,
    which keeps any <= 256 labels pairwise distinct after 8-bit
    quantization while spreading neighboring labels far apart on the
    color wheel.
    """
    hues = (labels * GOLDEN_RATIO_CONJUGATE) % 1.0
    rgb = np.array([colorsys.hsv_to_rgb(h, 1.0, 1.0) for h in hues]).reshape(-1, 3)
    return np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)


def write_ply_colored(mesh: TriMesh, labels, path) -> None:
    """ASCII PLY with one uchar RGB triple per face, colored by label.

    Coordinates are written as float32, as the header declares, with 9
    significant digits, so a float32 reader gets exactly
    ``mesh.vertices.astype(np.float32)``. *labels* must be one
    non-negative integer per face, and every coordinate must be finite
    as a float32; otherwise this raises before the file is opened.
    """
    labels = label_array(labels, mesh.n_faces)
    if labels.min(initial=0) < 0:
        raise ValueError("labels must be non-negative")
    with np.errstate(over="ignore"):
        coordinates = mesh.vertices.astype(np.float32)
    if not np.isfinite(coordinates).all():
        raise ValueError("vertex coordinates must lie within float32's finite range")
    # One color per label present, so the work follows the face count,
    # not the largest label.
    present, index = np.unique(labels, return_inverse=True)
    colors = _label_colors(present)
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {mesh.n_vertices}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        f"element face {mesh.n_faces}\n"
        "property list uchar int vertex_indices\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for block in _blocks(mesh.n_vertices):
            fh.write(_text(_float32_cells(coordinates[block])))
        for block in _blocks(mesh.n_faces):
            rows = np.hstack((mesh.faces[block], colors[index[block]]))
            fh.write(_text(_int_cells(rows), b"3 "))


def write_labels(labels, path) -> None:
    """One integer label per line, in face order. *labels* must be a
    :class:`~meshseg.core.ClusterLabels` or a 1-D integer array; otherwise
    this raises ValueError before the file is opened."""
    labels = label_array(labels)
    with open(path, "wb") as fh:
        for block in _blocks(len(labels)):
            fh.write(_text(_int_cells(labels[block, None])))


def read_labels(path) -> np.ndarray:
    """Read a label file written by :func:`write_labels`: one integer a
    line, blank lines skipped. Raises MeshParseError, naming the file and
    line, on the first line that is not an integer within int64's range."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return np.array(list(map(int, filter(str.strip, fh))), dtype=np.int64)
        except (ValueError, OverflowError):
            fh.seek(0)
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    np.int64(int(line))
                except (ValueError, OverflowError) as exc:
                    raise MeshParseError(f"{path}:{lineno}: bad label {line.strip()!r}") from exc
            raise


def write_norms_csv(topo: TopologyCache, norms: np.ndarray, path) -> None:
    """CSV dump ``edge_id,v0,v1,norm`` of the (E,) *norms* (boundary: inf)."""
    # An object table, so that tolist() gives ints for the ids and floats
    # (repr, inf included) for the norms.
    table = np.empty((topo.n_edges, 4), dtype=object)
    table[:, 0] = np.arange(topo.n_edges)
    table[:, 1:3] = topo.edges
    table[:, 3] = norms
    with open(path, "wb") as fh:
        fh.write(b"edge_id,v0,v1,norm\n")
        _write_rows(fh, "{},{},{},{!r}\n", table)
