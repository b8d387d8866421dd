"""End-to-end tests for the command-line interface and the sweep
harness config parser. Commands run in-process through main(argv)."""

import sys
from dataclasses import fields

import numpy as np
import pytest

from meshseg import cube, plane
from meshseg.bench import BenchConfig, parse_config
from meshseg.cli import (
    EXIT_IO,
    EXIT_METRIC_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    _prefilter_params,
    _segment_params,
    build_parser,
    main,
)
from meshseg.core import TriMesh, build_topology
from meshseg.denoise import PARAM_TYPES
from meshseg.edgeop import edge_operator_field
from meshseg.fileio import read_labels, read_obj, write_obj
from meshseg.metrics import msae
from meshseg.noise import NoiseSpec, add_noise
from meshseg.prefilter import PrefilterParams, prefilter
from meshseg.segment import SegmentParams, segment

from test_prefilter import sliver_cube


def write_fixture(tmp_path, name, mesh):
    path = tmp_path / name
    write_obj(mesh, path)
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "m.obj", "--dthr", "0.25"],
        ["denoise", "m.obj", "--method", "unf", "--params", "0.5,2,2", "--dthr", "0.25"],
    ],
    ids=["segment", "denoise"],
)
def test_flag_defaults_are_params_defaults(argv):
    args = build_parser().parse_args(argv)
    assert _segment_params(args) == SegmentParams(0.25)
    assert _prefilter_params(args) == PrefilterParams()


def test_noise_flag_defaults_are_noise_spec_defaults():
    args = build_parser().parse_args(["noise", "m.obj", "--sigma", "0.3"])
    assert NoiseSpec(0.3, args.mode, args.seed) == NoiseSpec(0.3)


# ---------------------------------------------------------------------------
# make-fixture / noise
# ---------------------------------------------------------------------------


def test_make_fixture_then_noise(tmp_path, capsys):
    fixture = tmp_path / "cube.obj"
    assert main(["make-fixture", "cube", "--subdiv", "3", "-o", str(fixture)]) == EXIT_OK
    clean = read_obj(fixture)
    assert clean.n_faces == 12 * 9

    noisy_path = tmp_path / "noisy.obj"
    assert (
        main(["noise", str(fixture), "--sigma", "0.4", "--seed", "7", "-o", str(noisy_path)])
        == EXIT_OK
    )
    noisy = read_obj(noisy_path)
    assert np.array_equal(noisy.faces, clean.faces)
    assert not np.array_equal(noisy.vertices, clean.vertices)
    assert str(noisy_path) in capsys.readouterr().out


def test_noise_default_output_name(tmp_path, capsys):
    fixture = write_fixture(tmp_path, "mesh.obj", cube(2))
    assert main(["noise", str(fixture), "--sigma", "0.25"]) == EXIT_OK
    expected = tmp_path / "mesh_n0.25.obj"
    assert expected.exists()
    assert str(expected) in capsys.readouterr().out


def test_make_fixture_rejects_unknown_shape():
    with pytest.raises(SystemExit) as exc:
        main(["make-fixture", "torus"])
    assert exc.value.code == EXIT_USAGE


def test_make_fixture_rejects_bad_subdiv(tmp_path, capsys):
    out = tmp_path / "cube.obj"
    assert main(["make-fixture", "cube", "--subdiv", "-3", "-o", str(out)]) == EXIT_USAGE
    assert "subdiv must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------


def test_segment_clean_cube(tmp_path, capsys):
    fixture = write_fixture(tmp_path, "cube.obj", cube(6))
    assert main(["segment", str(fixture), "--dthr", "1e-6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "clusters: 6" in out
    labels_path = tmp_path / "cube_labels.txt"
    ply_path = tmp_path / "cube_clusters.ply"
    assert labels_path.exists() and ply_path.exists()
    labels = np.loadtxt(labels_path, dtype=np.int64)
    assert labels.shape == (12 * 36,)
    assert len(np.unique(labels)) == 6


def test_segment_requires_dthr(tmp_path, capsys):
    fixture = write_fixture(tmp_path, "cube.obj", cube(2))
    assert main(["segment", str(fixture)]) == EXIT_USAGE
    assert "dthr" in capsys.readouterr().err


def test_segment_dump_norms(tmp_path):
    fixture = write_fixture(tmp_path, "cube.obj", cube(3))
    assert main(["segment", str(fixture), "--dthr", "1e-6", "--dump-norms"]) == EXIT_OK
    csv_path = tmp_path / "cube_norms.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "edge_id,v0,v1,norm"
    assert len(lines) - 1 == build_topology(cube(3)).n_edges


def test_segment_prefilter_dump_norms(tmp_path):
    """With --prefilter the norms CSV scores the relaxed mesh, and the
    labels match segment() prefiltering on its own."""
    noisy = add_noise(cube(4), NoiseSpec(0.5, "normal", seed=23))
    path = write_fixture(tmp_path, "noisy.obj", noisy)
    flags = ["--dthr", "0.05", "--prefilter", "--alpha", "5", "--beta", "5", "--sigma-w", "2"]
    assert main(["segment", str(path), *flags, "--dump-norms"]) == EXIT_OK

    mesh = read_obj(path)
    pf = PrefilterParams(alpha=5.0, beta=5.0, sigma_w=2.0)
    work = prefilter(mesh, pf)
    rows = (tmp_path / "noisy_norms.csv").read_text().splitlines()[1:]
    norms = np.array([float(row.split(",")[3]) for row in rows])
    np.testing.assert_array_equal(norms, edge_operator_field(work, build_topology(work)))
    raw = edge_operator_field(mesh, build_topology(mesh))
    assert not np.array_equal(norms, raw)

    labels = read_labels(tmp_path / "noisy_labels.txt")
    expected = segment(mesh, SegmentParams(d_thr=0.05), prefilter_params=pf)
    np.testing.assert_array_equal(labels, expected.labels)


def test_segment_prefilter_rejects_sliver_flaps(tmp_path, capsys):
    path = write_fixture(tmp_path, "sliver.obj", sliver_cube())
    assert main(["segment", str(path), "--dthr", "0.05", "--prefilter"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("meshseg: degenerate flaps") and "[21, 22, 23, 39, 102]" in err


def test_segment_missing_file(tmp_path, capsys):
    assert main(["segment", str(tmp_path / "nope.obj"), "--dthr", "0.1"]) == EXIT_IO
    assert "meshseg:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------


def test_denoise_params_help_names_each_methods_fields(capsys):
    """The --params help reads each method's fields, so it cannot drift
    from the tuple ``params_from_tuple`` takes."""
    with pytest.raises(SystemExit):
        main(["denoise", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for method, kind in PARAM_TYPES.items():
        assert f"{method}: ({', '.join(f.name for f in fields(kind))})" in help_text


def test_denoise_plain(tmp_path):
    noisy = add_noise(cube(4), NoiseSpec(0.4, "normal", seed=3))
    noisy_path = write_fixture(tmp_path, "noisy.obj", noisy)
    out_path = tmp_path / "out.obj"
    code = main(
        [
            "denoise",
            str(noisy_path),
            "--method",
            "bnf",
            "--params",
            "0.35,5,5",
            "-o",
            str(out_path),
        ]
    )
    assert code == EXIT_OK
    result = read_obj(out_path)
    assert np.array_equal(result.faces, noisy.faces)
    assert not np.array_equal(result.vertices, noisy.vertices)


def test_denoise_clustered_differs_from_plain(tmp_path):
    noisy = add_noise(cube(6), NoiseSpec(0.3, "normal", seed=5))
    noisy_path = write_fixture(tmp_path, "noisy.obj", noisy)
    plain_path = tmp_path / "plain.obj"
    ours_path = tmp_path / "ours.obj"
    base = ["denoise", str(noisy_path), "--method", "bnf", "--params", "0.4,10,10"]
    assert main(base + ["-o", str(plain_path)]) == EXIT_OK
    assert (
        main(
            base
            + ["--use-clusters", "--dthr", "0.05", "--prefilter", "-o", str(ours_path)]
        )
        == EXIT_OK
    )
    plain = read_obj(plain_path)
    ours = read_obj(ours_path)
    assert not np.array_equal(plain.vertices, ours.vertices)


def test_denoise_use_clusters_honours_segment_flags(tmp_path):
    """--baseline and --min-cluster reach the segmentation: growing by
    normal angle (6 clusters at 0.2 rad, against 3 by the edge operator)
    or keeping the raw region-growing labels (--min-cluster 1) changes
    the clustered output, which differs from the plain run's."""
    noisy = add_noise(cube(6), NoiseSpec(0.5, "normal", seed=3))
    noisy_path = write_fixture(tmp_path, "noisy.obj", noisy)
    base = ["denoise", str(noisy_path), "--method", "unf", "--params", "0.6,10,5"]
    clustered = base + [
        "--use-clusters", "--dthr", "0.01", "--min-cluster", "20",
        "--prefilter", "--alpha", "5", "--beta", "5", "--sigma-w", "2",
    ]
    runs = {
        "plain": base,
        "default": clustered,
        "raw-labels": clustered + ["--min-cluster", "1"],
        "normal-angle": clustered + ["--baseline", "normal-angle", "--dthr", "0.2"],
    }
    out = {}
    for name, argv in runs.items():
        path = tmp_path / f"{name}.obj"
        assert main(argv + ["-o", str(path)]) == EXIT_OK
        out[name] = path.read_bytes()
    assert len(set(out.values())) == len(out)


def test_denoise_default_output_name(tmp_path, capsys):
    noisy_path = write_fixture(tmp_path, "m.obj", add_noise(cube(2), NoiseSpec(0.2, "normal", seed=1)))
    assert main(["denoise", str(noisy_path), "--method", "unf", "--params", "0.5,3,3"]) == EXIT_OK
    assert (tmp_path / "m_dn.obj").exists()
    capsys.readouterr()


def test_denoise_dthr_without_clusters_warns(tmp_path, capsys):
    noisy_path = write_fixture(tmp_path, "m.obj", cube(2))
    code = main(
        ["denoise", str(noisy_path), "--method", "unf", "--params", "0.5,2,2", "--dthr", "0.1"]
    )
    assert code == EXIT_OK
    assert "ignored without --use-clusters" in capsys.readouterr().err


def test_denoise_prefilter_without_clusters_warns(tmp_path, capsys):
    noisy_path = write_fixture(tmp_path, "m.obj", cube(2))
    out = tmp_path / "plain.obj"
    args = ["denoise", str(noisy_path), "--method", "unf", "--params", "0.5,2,2", "-o", str(out)]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().err == ""
    plain = out.read_bytes()
    assert main(args + ["--prefilter"]) == EXIT_OK
    assert capsys.readouterr().err == "warning: --prefilter is ignored without --use-clusters\n"
    assert out.read_bytes() == plain


UNF = ["--method", "unf", "--params", "0.5,2,2"]


@pytest.mark.parametrize(
    "argv, extra, without",
    [
        (
            ["segment", "--dthr", "0.3"],
            ["--alpha", "5", "--beta", "9", "--sigma-w", "4"],
            "--prefilter",
        ),
        (
            ["denoise", *UNF],
            ["--dthr", "0.02", "--min-cluster", "5", "--ring-depth", "3"]
            + ["--baseline", "normal-angle", "--prefilter", "--alpha", "5", "--beta", "9"]
            + ["--sigma-w", "4"],
            "--use-clusters",
        ),
        (
            ["denoise", *UNF, "--use-clusters", "--dthr", "0.3"],
            ["--beta", "9", "--sigma-w", "4"],
            "--prefilter",
        ),
    ],
    ids=["segment", "denoise", "denoise-use-clusters"],
)
def test_flags_that_cannot_take_effect_warn(tmp_path, capsys, argv, extra, without):
    """Each ignored flag is named on stderr, and every output byte is the
    same as without it."""
    mesh = write_fixture(tmp_path, "m.obj", add_noise(cube(3), NoiseSpec(0.3, "normal", seed=2)))
    command, *rest = argv
    if command == "segment":
        out = ["--out-prefix", str(tmp_path / "m")]
    else:
        out = ["-o", str(tmp_path / "d.obj")]
    outputs, errors = [], []
    for flags in ([], extra):
        assert main([command, str(mesh), *rest, *out, *flags]) == EXIT_OK
        written = [path for path in tmp_path.iterdir() if path != mesh]
        outputs.append({path.name: path.read_bytes() for path in written})
        errors.append(capsys.readouterr().err)
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == (2 if command == "segment" else 1)
    named = [flag for flag in extra if flag.startswith("--")]
    warnings = "".join(f"warning: {flag} is ignored without {without}\n" for flag in named)
    assert errors == ["", warnings]


def test_denoise_usage_errors(tmp_path, capsys):
    noisy_path = write_fixture(tmp_path, "m.obj", cube(2))
    # wrong arity for the method
    assert (
        main(["denoise", str(noisy_path), "--method", "unf", "--params", "0.5,10"])
        == EXIT_USAGE
    )
    # malformed tuple
    assert (
        main(["denoise", str(noisy_path), "--method", "unf", "--params", "a,b,c"])
        == EXIT_USAGE
    )
    # --use-clusters without --dthr
    assert (
        main(
            [
                "denoise",
                str(noisy_path),
                "--method",
                "unf",
                "--params",
                "0.5,2,2",
                "--use-clusters",
            ]
        )
        == EXIT_USAGE
    )
    # unknown method is an argparse choice error
    with pytest.raises(SystemExit) as exc:
        main(["denoise", str(noisy_path), "--method", "warp", "--params", "1,2,3"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "method, params",
    [
        ("bnf", "nan,2,1"),
        ("bnf", "0.45,inf,1"),
        ("bnf", "0.45,2,nan"),
        ("gnf", "nan,2,0.35,2,1"),
        ("unf", "0.5,-inf,1"),
    ],
)
def test_denoise_rejects_non_finite_params(tmp_path, capsys, method, params):
    """NaN parameters and infinite iteration counts are usage errors with a
    one-line message, and no mesh is written."""
    noisy_path = write_fixture(tmp_path, "m.obj", cube(2))
    out = tmp_path / "out.obj"
    argv = ["denoise", str(noisy_path), "--method", method, "--params", params, "-o", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("meshseg: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "method, params, message",
    [
        ("gnf", "2,2,1e-170,2,1", "sigma_r"),
        ("bnf", "1e-170,2,1", "sigma_r"),
    ],
)
def test_denoise_rejects_scales_below_float_range(tmp_path, capsys, method, params, message):
    """A range scale whose 2σ² rounds to 0 is a usage error, and no mesh
    is written."""
    noisy_path = write_fixture(tmp_path, "m.obj", cube(2))
    out = tmp_path / "out.obj"
    argv = ["denoise", str(noisy_path), "--method", method, "--params", params, "-o", str(out)]
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_denoise_gnf_radius_below_float_range_writes_the_mesh(tmp_path):
    """A gnf radius of 1e-300 mean edge lengths is far below the cells the
    coordinates allow; the grid widens its cell, and the mesh is written."""
    noisy_path = write_fixture(tmp_path, "m.obj", cube(2))
    out = tmp_path / "out.obj"
    params = "1e-300,2,0.35,2,1"
    argv = ["denoise", str(noisy_path), "--method", "gnf", "--params", params, "-o", str(out)]
    assert main(argv) == EXIT_OK
    assert read_obj(out).n_faces == cube(2).n_faces


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_prints_and_appends_csv(tmp_path, capsys):
    truth = cube(3)
    noisy = add_noise(truth, NoiseSpec(0.3, "normal", seed=2))
    truth_path = write_fixture(tmp_path, "truth.obj", truth)
    result_path = write_fixture(tmp_path, "result.obj", noisy)
    csv_path = tmp_path / "scores.csv"

    assert (
        main(["eval", str(result_path), str(truth_path), "--csv", str(csv_path)])
        == EXIT_OK
    )
    out_line = capsys.readouterr().out.strip()
    label, msae_text, ev_text = out_line.split(",")
    assert label == "result"
    # repr floats round-trip exactly through the printed line
    assert float(msae_text) == msae(read_obj(result_path), read_obj(truth_path))
    assert float(ev_text) >= 0.0

    assert (
        main(
            [
                "eval",
                str(result_path),
                str(truth_path),
                "--label",
                "again",
                "--csv",
                str(csv_path),
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "label,msae,ev"
    assert len(lines) == 3  # header written once, one row per eval call
    assert lines[2].startswith("again,")


def test_eval_connectivity_mismatch_exit_code(tmp_path, capsys):
    a = write_fixture(tmp_path, "a.obj", cube(2))
    b = write_fixture(tmp_path, "b.obj", plane(2))
    assert main(["eval", str(a), str(b)]) == EXIT_METRIC_MISMATCH
    capsys.readouterr()


def test_eval_io_errors(tmp_path, capsys):
    good = write_fixture(tmp_path, "good.obj", cube(1))
    assert main(["eval", str(tmp_path / "missing.obj"), str(good)]) == EXIT_IO
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    assert main(["eval", str(bad), str(good)]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "segment"])
def test_non_finite_coordinate_exit_code(tmp_path, capsys, command):
    good = write_fixture(tmp_path, "good.obj", cube(1))
    bad = tmp_path / "nan.obj"
    bad.write_text(good.read_text().replace("v 0.0 0.0 0.0", "v nan 0.0 0.0", 1))
    assert "nan" in bad.read_text()
    argv = {
        "eval": ["eval", str(bad), str(good)],
        "segment": ["segment", str(bad), "--dthr", "0.1"],
    }[command]
    assert main(argv) == EXIT_IO
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "denoise"])
def test_inconsistent_winding_exit_code(tmp_path, capsys, command):
    mesh = cube(1)
    faces = mesh.faces.copy()
    faces[3] = faces[3, ::-1]
    bad = write_fixture(tmp_path, "flipped.obj", TriMesh(mesh.vertices, faces))
    argv = {
        "segment": ["segment", str(bad), "--dthr", "0.1"],
        "denoise": ["denoise", str(bad), "--method", "bnf", "--params", "0.35,1,1",
                    "-o", str(tmp_path / "out.obj")],
    }[command]
    assert main(argv) == EXIT_IO
    assert "same direction" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "denoise"])
def test_bowtie_vertex_exit_code(tmp_path, capsys, command):
    """Two tetrahedra that share only vertex 0."""
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
         [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
    )
    faces = [
        [[a, c, b], [a, b, d], [a, d, c], [b, c, d]]
        for a, b, c, d in ((0, 1, 2, 3), (0, 4, 5, 6))
    ]
    bad = write_fixture(tmp_path, "bowtie.obj", TriMesh(vertices, np.concatenate(faces)))
    argv = {
        "segment": ["segment", str(bad), "--dthr", "0.1"],
        "denoise": ["denoise", str(bad), "--method", "bnf", "--params", "0.35,1,1",
                    "-o", str(tmp_path / "out.obj")],
    }[command]
    assert main(argv) == EXIT_IO
    assert "more than one fan: [0]" in capsys.readouterr().err
    assert not (tmp_path / "out.obj").exists()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


BENCH_CONFIG = """\
# two methods, tiny iteration counts, auto-named jobs
model = cube.obj
sigma = 0.4
mode = normal
seed = 7
dthr = 0.05
min_cluster = 20
prefilter = true
sweep.bnf = 0.35, 4, 4
sweep.unf = 0.6, 4, 4
"""


def test_bench_writes_report_and_reruns_byte_identical(tmp_path, capsys):
    write_fixture(tmp_path, "cube.obj", cube(4))
    config = tmp_path / "sweep.cfg"
    config.write_text(BENCH_CONFIG)

    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert main(["bench", str(config), "--out", str(out_a), "--jobs", "2"]) == EXIT_OK
    assert main(["bench", str(config), "--out", str(out_b), "--jobs", "1"]) == EXIT_OK
    capsys.readouterr()

    for name in ("noisy.obj", "labels.txt", "clusters.ply", "timings.csv"):
        assert (out_a / name).exists() and (out_b / name).exists()
    # metric rows and the derived summary must not depend on thread order
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    results = (out_a / "results.csv").read_text().splitlines()
    assert results[0] == "label,model,method,use_clusters,dthr,params,msae,ev,status"
    assert len(results) == 1 + 4  # two sweep lines, each plain + clustered
    assert all(line.endswith(",ok") for line in results[1:])


def test_bench_failed_jobs_keep_their_rows(tmp_path, monkeypatch, capsys):
    """A job that raises gets an error row and a timing, its group a
    zero-count summary line; the ok groups' summary numbers are numpy's
    mean, cv and ev mean over their results.csv rows."""
    bench = sys.modules["meshseg.bench"]
    real = bench.denoise

    def bnf_fails(mesh, params, labels=None):
        if params.method == "bnf":
            raise RuntimeError("no bnf today")
        return real(mesh, params, labels=labels)

    monkeypatch.setattr(bench, "denoise", bnf_fails)
    write_fixture(tmp_path, "cube.obj", cube(4))
    config = tmp_path / "sweep.cfg"
    config.write_text(BENCH_CONFIG + "sweep.unf = 0.7, 4, 4\n")
    out = tmp_path / "run"
    assert main(["bench", str(config), "--out", str(out), "--jobs", "2"]) == EXIT_OK
    capsys.readouterr()

    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "label,wall_ms"
    assert [t.split(",")[0] for t in timings[1:]] == [row[0] for row in rows]
    failed = [",".join(row) for row in rows if row[2] == "bnf"]
    assert failed == [
        "bnf-00-plain,cube.obj,bnf,0,0.05,0.35;4.0;4.0,,,error:RuntimeError",
        "bnf-00-clustered,cube.obj,bnf,1,0.05,0.35;4.0;4.0,,,error:RuntimeError",
    ]

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,use_clusters,n_ok,msae_mean,msae_cv,ev_mean"
    expected = []
    for clustered in ("0", "1"):
        ok = [row for row in rows if row[2] == "unf" and row[3] == clustered]
        assert len(ok) == 2 and all(row[-1] == "ok" for row in ok)
        scores = np.array([float(row[6]) for row in ok])
        mean = float(scores.mean())
        cv = float(scores.std() / mean)
        ev_mean = float(np.array([float(row[7]) for row in ok]).mean())
        expected.append(f"unf,{clustered},2,{mean!r},{cv!r},{ev_mean!r}")
    assert summary[1:] == ["bnf,0,0,,,", "bnf,1,0,,,"] + expected


def test_bench_rejects_negative_jobs(tmp_path, capsys):
    write_fixture(tmp_path, "cube.obj", cube(2))
    config = write_config(tmp_path, "model = cube.obj\ndthr = 0.1\nsweep.unf = 0.5, 1, 1\n")
    out = tmp_path / "run"
    assert main(["bench", str(config), "--out", str(out), "--jobs", "-3"]) == EXIT_USAGE
    assert "jobs must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, fragment",
    [
        ("dthr = nan", "d_thr"),
        ("dthr = 0.1\nmin_cluster = 0", "min_cluster_size"),
        ("dthr = 0.1\nring_depth = 0", "ring_depth"),
    ],
)
def test_bench_rejects_bad_segment_settings_before_writing(tmp_path, capsys, settings, fragment):
    """Segmentation settings are checked with the config, so a bad one
    is a usage error that leaves no half-written report directory."""
    write_fixture(tmp_path, "cube.obj", cube(2))
    config = write_config(tmp_path, f"model = cube.obj\n{settings}\nsweep.unf = 0.5, 1, 1\n")
    out = tmp_path / "run"
    assert main(["bench", str(config), "--out", str(out)]) == EXIT_USAGE
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_bench_missing_config(tmp_path, capsys):
    assert main(["bench", str(tmp_path / "none.cfg")]) == EXIT_IO
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bench config grammar
# ---------------------------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    return path


def test_parse_config_resolves_relative_model(tmp_path):
    sub = tmp_path / "fix"
    sub.mkdir()
    write_fixture(sub, "cube.obj", cube(1))
    config = sub / "bench.cfg"
    config.write_text("model = cube.obj\ndthr = 0.1\nsweep.unf = 0.5, 2, 2\n")
    parsed = parse_config(config)
    assert parsed.model == str(sub / "cube.obj")
    assert parsed.dthr == 0.1
    assert parsed.sweep == [("unf", (0.5, 2.0, 2.0))]
    assert parsed.prefilter is True  # default


def test_parse_config_defaults_are_bench_config_defaults(tmp_path):
    config = write_config(tmp_path, "model = /m/c.obj\ndthr = 0.1\nsweep.unf = 0.5, 2, 2\n")
    assert parse_config(config) == BenchConfig("/m/c.obj", 0.1, [("unf", (0.5, 2.0, 2.0))])


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("dthr = 0.1\nsweep.unf = 0.5, 2, 2\n", "model"),
        ("model = c.obj\nsweep.unf = 0.5, 2, 2\n", "dthr"),
        ("model = c.obj\ndthr = 0.1\n", "no sweep"),
        ("model = c.obj\ndthr = 0.1\nwarp = 1\nsweep.unf = 0.5, 2, 2\n", "unknown keys"),
        ("model = c.obj\ndthr = 0.1\nmodel = d.obj\nsweep.unf = 0.5, 2, 2\n", "duplicate"),
        ("model = c.obj\ndthr = 0.1\nsweep.unf = 0.5, x, 2\n", "cfg:3: bad sweep tuple"),
        ("model = c.obj\ndthr = 0.1\nsweep.warp = 1, 2, 2\n", "cfg:3: unknown method"),
        ("model = c.obj\ndthr = 0.1\nprefilter = maybe\nsweep.unf = 0.5, 2, 2\n", "boolean"),
        ("model = c.obj\ndthr = 0.1\nmode = salt\nsweep.unf = 0.5, 2, 2\n", "mode"),
        ("model = c.obj\ndthr = oops\nsweep.unf = 0.5, 2, 2\n", "number"),
        ("just some words\n", "key = value"),
        ("model = c.obj\ndthr = 0.1\nsweep.unf = 0.5, 2.5, 2\n", "cfg:3: iteration counts"),
        ("model = c.obj\ndthr = 0.1\nsweep.bnf = 0.45, inf, 1\n", "cfg:3: iteration counts"),
        ("model = c.obj\ndthr = 0.1\nsweep.bnf = nan, 2, 1\n", "cfg:3: sigma_r"),
        ("model = c.obj\ndthr = 0.1\nsweep.unf = 2, 20, 10\n", "cfg:3: t must be a dot product"),
        ("model = c.obj\ndthr = 0.1\nsigma = -0.5\nsweep.unf = 0.5, 2, 2\n", "cfg: sigma_factor"),
        ("model = c.obj\ndthr = 0.1\nsigma = nan\nsweep.unf = 0.5, 2, 2\n", "cfg: sigma_factor"),
        ("model = c.obj\ndthr = 0.1\nsigma = 0\nseed = -4\nsweep.unf = 0.5, 2, 2\n", "cfg: seed"),
    ],
)
def test_parse_config_rejects_bad_input(tmp_path, text, fragment):
    config = write_config(tmp_path, text)
    with pytest.raises(ValueError, match=fragment):
        parse_config(config)


def test_parse_config_comments_and_bools(tmp_path):
    config = write_config(
        tmp_path,
        "model = c.obj  # the model\ndthr = 0.1\nprefilter = no\n"
        "# full-line comment\nsweep.gnf = 2, 1, 0.25, 3, 3\n",
    )
    parsed = parse_config(config)
    assert parsed.prefilter is False
    assert parsed.sweep == [("gnf", (2.0, 1.0, 0.25, 3.0, 3.0))]
