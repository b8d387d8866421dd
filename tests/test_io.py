"""Tests for OBJ/PLY readers and writers and the label files."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obj_oracle

from meshseg import TriMesh, cube, icosahedron
from meshseg.errors import (
    LabelLengthMismatchError,
    MeshParseError,
    NonTriangleFaceError,
)
from meshseg import fileio
from meshseg.fileio import (
    _label_colors,
    read_labels,
    read_obj,
    write_labels,
    write_obj,
    write_ply_colored,
)
from meshseg.noise import NoiseSpec, add_noise


def test_obj_round_trip_exact(tmp_path):
    """Write/read reproduces float positions bit-for-bit."""
    mesh = add_noise(icosahedron(2), NoiseSpec(0.3, "isotropic", seed=5))
    path = tmp_path / "mesh.obj"
    write_obj(mesh, path)
    back = read_obj(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.faces, mesh.faces)


def test_obj_write_deterministic(tmp_path):
    mesh = cube(2)
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(mesh, a)
    write_obj(mesh, b)
    assert a.read_bytes() == b.read_bytes()


def test_obj_reader_accepts_slash_refs_and_comments(tmp_path):
    path = tmp_path / "mixed.obj"
    path.write_text(
        "# comment line\n"
        "o object\n"
        "v 0 0 0\n"
        "v 1 0 0\n"
        "v 0 1 0\n"
        "vn 0 0 1\n"
        "vt 0 0\n"
        "\n"
        "f 1/1/1 2/2/1 3/3/1\n"
    )
    mesh = read_obj(path)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_reader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0\n")
    with pytest.raises(MeshParseError, match=r":2:"):
        read_obj(path)


def test_obj_reader_rejects_bad_coordinate(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 zero 0\n")
    with pytest.raises(MeshParseError, match=r":1:"):
        read_obj(path)


def test_obj_reader_rejects_quads(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(NonTriangleFaceError, match=r":5:"):
        read_obj(path)


def test_obj_reader_rejects_out_of_range_reference(tmp_path):
    path = tmp_path / "dangling.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
    with pytest.raises(MeshParseError):
        read_obj(path)


def test_obj_reader_rejects_nonpositive_index(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n")
    with pytest.raises(MeshParseError, match=r"1-based"):
        read_obj(path)


SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", " \t "]
LINE_ENDS = ["\n", "\r\n", "\r"]
COORDINATES = ["0.25", "-3", "+2", "007", "1_0", "-0.0", "1e-320", "nan", "inf", "1e400", "x", "1..0"]
# Valid heads weigh more, so that about half of the texts parse.
REFS = ["1", "2", "3", "4", "5", "+2", "007", "1_0", "1/2/3", "2//3", "3/1", "4/4/4"] * 2 + [
    "x", "0", "-1", "/1", "99999", str(2**63), str(2**64 + 7),
]
# Ignored records and blank lines; a vertex's fourth coordinate is ignored.
OTHER_RECORDS = ["vn 0 0 1", "vt 0.5 0.5", "o part", "# f 1 2", "#v 1 2", "", "g a/b", "v 1 2 3 4"]
WRONG_LENGTHS = ["v 1 2", "v", "f 1 2", "f 1 2 3 4", "f"]


def _obj_outcome(read, path):
    """The arrays *read* parses from *path*, or the type and message of
    what it raises."""
    try:
        mesh = read(path)
    except Exception as exc:  # every error must match the reference's
        return type(exc), str(exc)
    return mesh.vertices.tobytes(), mesh.faces.tobytes(), mesh.vertices.shape, mesh.faces.shape


_SPECIAL_RECORDS = st.one_of(
    st.lists(st.sampled_from(COORDINATES), min_size=3, max_size=3).map(lambda c: ["v", *c]),
    st.lists(st.sampled_from(REFS), min_size=3, max_size=3).map(lambda r: ["f", *r]),
    st.sampled_from(OTHER_RECORDS).map(str.split),
    st.sampled_from(WRONG_LENGTHS).map(str.split),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    filler=st.integers(500, 1500),
    filler_end=st.sampled_from(LINE_ENDS),
    specials=st.lists(
        st.tuples(
            st.integers(0, 1500),
            _SPECIAL_RECORDS,
            st.sampled_from(SEPARATORS),
            st.sampled_from(LINE_ENDS),
        ),
        max_size=5,
    ),
)
def test_obj_reader_matches_the_line_by_line_reader(tmp_path_factory, seed, filler, filler_end, specials):
    """OBJ texts of 20-60 KB, several read blocks: plain rows, with drawn
    records inserted anywhere, most of them past the first block. Exotic
    numbers and refs, odd separators, CR and CRLF line ends, comments and
    ignored records parse to the reference's arrays bit for bit; short
    rows, quads, bad or non-positive refs, refs past the vertex count or
    past int64 and non-finite coordinates raise its exception type and
    message, the first error in file order winning."""
    rng = np.random.default_rng(seed)
    rows = [
        f"v {x!r} {y!r} {z!r}" if kind else "f {} {} {}".format(*rng.permutation(20)[:3] + 1)
        for kind, (x, y, z) in zip(rng.random(filler) < 0.6, rng.normal(size=(filler, 3)).tolist())
    ]
    lines = [row + filler_end for row in rows]
    for at, tokens, separator, end in sorted(specials, key=lambda s: s[0]):
        lines.insert(at, separator + separator.join(tokens) + end)
    path = tmp_path_factory.mktemp("obj") / "drawn.obj"
    path.write_bytes("".join(lines).encode())
    assert path.stat().st_size > fileio.READ_BLOCK_CHARS
    assert _obj_outcome(read_obj, path) == _obj_outcome(obj_oracle.read_obj, path)


@pytest.mark.parametrize(
    "first, second",
    [
        ("v 1 2\n", "f 1 2 3 4\n"),
        ("f 1 2 3 4\n", "v 1 2\n"),
        ("f 1 2 0\n", "v 1 x 2\n"),
        ("f 1 2 99999\n", "f 1 2 x\n"),
        (f"f 1 2 {2**63}\n", "f 1 2 -1\n"),
        (f"f 1 2 {2**63}\n", "v nan 0 0\n"),
        ("f 1 2 3\n", "f 1//2 x 2\n"),
        ("v inf 0 0\n", "f 1 2 3\n"),
        ("f 3 1 3\n", "vn 0 0 1\n"),
    ],
)
def test_obj_reader_raises_the_first_error_across_blocks(tmp_path, monkeypatch, first, second):
    """With blocks of a few lines, the error of the earlier block wins,
    and a reference past the vertex count (past int64 too) is raised only
    once every block has parsed, before the mesh's own checks: as the
    line-by-line reader does."""
    monkeypatch.setattr(fileio, "READ_BLOCK_CHARS", 40)
    body = "".join(f"v {i} {i % 7} {i % 3}\n" for i in range(12))
    path = tmp_path / "bad.obj"
    path.write_text(first + body + second + body)
    expected = _obj_outcome(obj_oracle.read_obj, path)
    assert isinstance(expected[0], type) and issubclass(expected[0], Exception)
    assert _obj_outcome(read_obj, path) == expected


# tracemalloc peak of one read_obj of noisy icosahedron(32)'s OBJ, per
# line of the file, that whole-file token lists would exceed (about 475).
READ_OBJ_PEAK_PER_LINE = 100


def test_obj_read_allocates_at_most_100_bytes_a_line(tmp_path):
    """Parsing a block at a time keeps the peak allocation of a read
    near the arrays it returns, not the file's token lists."""
    path = tmp_path / "noisy.obj"
    write_obj(add_noise(icosahedron(32), NoiseSpec(0.5, "normal", seed=23)), path)
    n_lines = path.read_bytes().count(b"\n")
    read_obj(path)
    tracemalloc.start()
    try:
        read_obj(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= READ_OBJ_PEAK_PER_LINE * n_lines


def test_colormap_distinct_up_to_256():
    colors = _label_colors(np.arange(256))
    assert colors.shape == (256, 3) and colors.dtype == np.uint8
    assert len({tuple(row) for row in colors.tolist()}) == 256


def test_colormap_indexing():
    """Label k's color is row k: label 0 is pure red (hue 0)."""
    colors = _label_colors(np.arange(3))
    assert colors[0].tolist() == [255, 0, 0]
    assert _label_colors(np.array([2, 0, 2])).tolist() == colors[[2, 0, 2]].tolist()
    assert _label_colors(np.zeros(0, dtype=np.int64)).shape == (0, 3)


def test_ply_colors_labels_far_beyond_the_face_count(tmp_path):
    """Labels {0, 2**62} on 48 faces: only the labels present are
    colored, so no table up to 2**62 is built. In float64,
    2**62 · 0.618034 is a whole number, so both hues are 0: pure red."""
    mesh = cube(2)
    labels = np.where(np.arange(mesh.n_faces) % 2 == 0, 0, 2**62)
    write_ply_colored(mesh, labels, tmp_path / "far.ply")
    rows = (tmp_path / "far.ply").read_text().splitlines()[-mesh.n_faces :]
    colors = [[int(v) for v in row.split()[4:]] for row in rows]
    assert colors == [[255, 0, 0]] * mesh.n_faces


def test_ply_structure(tmp_path):
    mesh = cube(1)
    labels = np.arange(mesh.n_faces) % 3
    path = tmp_path / "seg.ply"
    write_ply_colored(mesh, labels, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert f"element vertex {mesh.n_vertices}" in lines
    assert f"element face {mesh.n_faces}" in lines
    header_end = lines.index("end_header")
    body = lines[header_end + 1 :]
    assert len(body) == mesh.n_vertices + mesh.n_faces
    face_rows = body[mesh.n_vertices :]
    colors = _label_colors(np.arange(3))
    for fid, row in enumerate(face_rows):
        parts = row.split()
        assert parts[0] == "3"
        assert [int(p) for p in parts[1:4]] == mesh.faces[fid].tolist()
        assert [int(p) for p in parts[4:7]] == colors[labels[fid]].tolist()


def _rows_one_by_one(mesh, labels):
    """OBJ and PLY bodies formatted one NumPy-scalar row at a time."""
    obj = "".join(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n" for x, y, z in mesh.vertices)
    obj += "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.faces)
    colors = _label_colors(labels)
    ply = "".join(
        " ".join(f"{float(np.float32(x)):.8e}" for x in row) + "\n" for row in mesh.vertices
    )
    ply += "".join(
        f"3 {a} {b} {c} {r} {g} {b_}\n" for (a, b, c), (r, g, b_) in zip(mesh.faces, colors)
    )
    return obj, ply


@pytest.mark.parametrize("rows_per_write", [fileio.ROWS_PER_WRITE, 7])
def test_writers_match_row_by_row_formatting(tmp_path, monkeypatch, rows_per_write):
    """Signed zero, a tiny value and an inexact sum print exactly as the
    per-row formatter prints them, also when the rows span several writes:
    as repr in the OBJ, as their float32 values with 9 digits in the PLY."""
    monkeypatch.setattr(fileio, "ROWS_PER_WRITE", rows_per_write)
    mesh = add_noise(cube(2), NoiseSpec(0.3, "normal", seed=3))
    vertices = mesh.vertices.copy()
    vertices[0] = (-0.0, 1e-300, 0.1 + 0.2)
    mesh = mesh.with_vertices(vertices)
    labels = np.arange(mesh.n_faces) % 5
    write_obj(mesh, tmp_path / "m.obj")
    write_ply_colored(mesh, labels, tmp_path / "m.ply")
    obj, ply = _rows_one_by_one(mesh, labels)
    assert (tmp_path / "m.obj").read_bytes() == obj.encode()
    assert (tmp_path / "m.obj").read_text().startswith("v -0.0 1e-300 0.30000000000000004\n")
    ply_bytes = (tmp_path / "m.ply").read_bytes()
    assert ply_bytes.split(b"end_header\n", 1)[1] == ply.encode()
    assert ply.startswith("-0.00000000e+00 0.00000000e+00 3.00000012e-01\n")
    write_labels(labels, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_text() == "".join(f"{int(lab)}\n" for lab in labels)


def test_ply_label_length_mismatch(tmp_path):
    mesh = cube(1)
    with pytest.raises(LabelLengthMismatchError):
        write_ply_colored(mesh, np.zeros(5, dtype=int), tmp_path / "bad.ply")


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 2, 1, 1, 0, 5])
    path = tmp_path / "labels.txt"
    write_labels(labels, path)
    assert path.read_text() == "0\n2\n1\n1\n0\n5\n"
    np.testing.assert_array_equal(read_labels(path), labels)


@pytest.mark.parametrize("bad, lineno", [("1.5", 3), ("x", 3), ("", 0), ("1 2", 3)])
def test_label_file_names_the_line_that_is_not_an_integer(tmp_path, bad, lineno):
    """Blank lines are skipped; the first line that is not an integer
    raises MeshParseError with the file and line."""
    path = tmp_path / "labels.txt"
    path.write_text(f"4\n\n{bad}\n-2\n x \n")
    with pytest.raises(MeshParseError, match=rf"labels\.txt:{lineno or 5}: bad label"):
        read_labels(path)


@pytest.mark.parametrize("label", ["9223372036854775808", "-9223372036854775809"])
def test_label_file_names_a_label_past_int64(tmp_path, label):
    """A label that is an integer but not an int64 raises MeshParseError
    naming its line, not a bare OverflowError from the cast."""
    path = tmp_path / "labels.txt"
    path.write_text(f"1\n{label}\n")
    with pytest.raises(MeshParseError, match=rf"labels\.txt:2: bad label '{label}'"):
        read_labels(path)


def test_label_file_reads_int64_extremes(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1\n9223372036854775807\n-9223372036854775808\n")
    assert read_labels(path).tolist() == [1, 2**63 - 1, -(2**63)]


def test_ply_of_no_faces_bytes(tmp_path):
    mesh = TriMesh([[0.0, 1.5, -2.0]], np.zeros((0, 3), dtype=np.int64))
    path = tmp_path / "none.ply"
    write_ply_colored(mesh, np.zeros(0, dtype=np.int64), path)
    assert path.read_bytes() == (
        b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
        b"property float y\nproperty float z\nelement face 0\n"
        b"property list uchar int vertex_indices\nproperty uchar red\n"
        b"property uchar green\nproperty uchar blue\nend_header\n"
        b"0.00000000e+00 1.50000000e+00 -2.00000000e+00\n"
    )


def test_ply_coordinates_parse_back_as_float32(tmp_path):
    """Every coordinate prints as ``%.8e`` of its float32 value and parses
    back to exactly that float32: signed zero, an underflow, float32's
    extremes, powers of ten with their neighbours, a mantissa that carries
    to the next power, and two values whose scaled mantissa rounds to a
    half in float64 though it lies just off one."""
    f32 = np.finfo(np.float32)
    values = [-0.0, 1e-300, f32.smallest_subnormal, f32.max, -f32.max, 0.99999999]
    values += [4.500175e-05, -9.310197e-05]
    for k in range(-30, 31):
        power = np.float32(10.0**k)
        values += [power, np.nextafter(power, np.float32(np.inf)), np.nextafter(power, np.float32(0))]
    values += [0.0] * (-len(values) % 3)
    vertices = np.array(values, dtype=np.float32).astype(np.float64).reshape(-1, 3)
    mesh = TriMesh(vertices, np.zeros((0, 3), dtype=np.int64))
    write_ply_colored(mesh, np.zeros(0, dtype=np.int64), tmp_path / "m.ply")
    body = (tmp_path / "m.ply").read_bytes().split(b"end_header\n", 1)[1]
    assert body.decode().split() == [f"{float(x):.8e}" for x in vertices.ravel()]
    back = np.array(body.split(), dtype=np.float32).reshape(-1, 3)
    np.testing.assert_array_equal(back.view(np.uint32), mesh.vertices.astype(np.float32).view(np.uint32))


def test_ply_text_does_not_trust_log10(tmp_path, monkeypatch):
    """The decimal exponent is corrected after np.log10's guess, so a guess
    one decade off either way writes the same bytes."""
    mesh = add_noise(icosahedron(2), NoiseSpec(0.3, "normal", seed=5))
    mesh = mesh.with_vertices(mesh.vertices * np.logspace(-12, 12, mesh.n_vertices)[:, None])
    labels = np.zeros(mesh.n_faces, dtype=np.int64)
    write_ply_colored(mesh, labels, tmp_path / "true.ply")
    log10 = np.log10

    def off_by_a_decade(x, out, where):
        shift = np.where(np.arange(x.size).reshape(x.shape) % 2, 0.9, -0.9)
        return np.add(log10(x, out=out, where=where), shift, out=out, where=where)

    monkeypatch.setattr(np, "log10", off_by_a_decade)
    write_ply_colored(mesh, labels, tmp_path / "guessed.ply")
    assert (tmp_path / "guessed.ply").read_bytes() == (tmp_path / "true.ply").read_bytes()


@pytest.mark.parametrize("coordinate", [3.5e38, -1e39])
def test_ply_rejects_coordinates_beyond_float32(tmp_path, coordinate):
    mesh = cube(1)
    vertices = mesh.vertices.copy()
    vertices[0, 1] = coordinate
    path = tmp_path / "big.ply"
    with pytest.raises(ValueError, match="float32"):
        write_ply_colored(mesh.with_vertices(vertices), np.zeros(mesh.n_faces, dtype=np.int64), path)
    assert not path.exists()


@pytest.mark.parametrize(
    "labels", [np.array([0.0, 1.7, 2.2]), np.array([[0, 1], [1, 0]])], ids=["float", "2d"]
)
def test_label_file_rejects_labels_that_are_not_1d_integers(tmp_path, labels):
    path = tmp_path / "labels.txt"
    with pytest.raises(ValueError, match="1-D integer"):
        write_labels(labels, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "labels",
    [np.arange(12) * 0.5, np.zeros((12, 1), dtype=np.int64)],
    ids=["float", "column"],
)
def test_ply_rejects_labels_that_are_not_1d_integers(tmp_path, labels):
    path = tmp_path / "seg.ply"
    with pytest.raises(ValueError, match="1-D integer"):
        write_ply_colored(cube(1), labels, path)
    assert not path.exists()


def test_label_file_keeps_negative_and_wide_labels(tmp_path):
    """int64's minimum included: ``np.abs`` leaves it negative."""
    labels = np.array([-7, 0, 10, -10**12, 2**62, 9, -1, -2**63, 2**63 - 1])
    write_labels(labels, tmp_path / "labels.txt")
    assert (tmp_path / "labels.txt").read_text() == "".join(f"{lab}\n" for lab in labels.tolist())


def test_label_file_rejects_uint64_labels_beyond_int64(tmp_path):
    """A uint64 label above int64's range is an error, not a wrapped
    negative label; int64's maximum still passes."""
    path = tmp_path / "labels.txt"
    with pytest.raises(ValueError, match="at most"):
        write_labels(np.array([5, 2**63], dtype=np.uint64), path)
    assert not path.exists()
    write_labels(np.array([5, 2**63 - 1], dtype=np.uint64), path)
    assert path.read_text() == "5\n9223372036854775807\n"


# tracemalloc peak of the row-formatting writer this one replaced, on the
# same call: icosahedron(32) with 37 labels.
FORMAT_WRITER_PLY_PEAK = 1_920_729


def test_ply_write_allocates_no_more_than_the_format_writer(tmp_path):
    """Formatting ROWS_PER_WRITE rows at a time keeps the peak allocation
    of a PLY write at or below the row-formatting writer's."""
    mesh = icosahedron(32)
    labels = np.arange(mesh.n_faces) % 37
    write_ply_colored(mesh, labels, tmp_path / "warm.ply")
    tracemalloc.start()
    try:
        write_ply_colored(mesh, labels, tmp_path / "seg.ply")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FORMAT_WRITER_PLY_PEAK
