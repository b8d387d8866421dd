"""Command-line front end.

Subcommands: noise, segment, denoise, eval, bench, make-fixture.
Exit codes follow sysexits conventions: 0 success, 2 I/O or data
errors, 3 metric mismatch (eval on incompatible meshes), 64 usage.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bench import parse_config, run_bench
from .denoise import PARAM_TYPES, denoise, params_from_tuple
from .edgeop import edge_operator_field
from .errors import ConnectivityMismatchError, MeshError
from .fileio import read_obj, write_labels, write_norms_csv, write_obj, write_ply_colored
from .fixtures import FIXTURE_SHAPES, make_fixture
from .metrics import ev, msae
from .noise import NOISE_MODES, NoiseSpec, add_noise
from .prefilter import PrefilterParams, prefilter
from .segment import BASELINE_MODES, SegmentParams, segment

EXIT_OK = 0
EXIT_IO = 2
EXIT_METRIC_MISMATCH = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with the sysexits EX_USAGE code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_tuple(text: str):
    return tuple(float(x) for x in text.split(","))


# Params field -> option string. These options default to None, so a
# value given on the command line can be told from the params default.
PREFILTER_FLAGS = {"alpha": "--alpha", "beta": "--beta", "sigma_w": "--sigma-w"}
SEGMENT_FLAGS = {"d_thr": "--dthr", "min_cluster_size": "--min-cluster",
                 "ring_depth": "--ring-depth", "baseline_mode": "--baseline"}


def _given(args, flags: dict) -> dict:
    """{field: value} of the *flags* given on the command line."""
    return {dest: getattr(args, dest) for dest in flags if getattr(args, dest) is not None}


def _warn_ignored(args, flags: dict, without: str) -> None:
    for dest in _given(args, flags):
        print(f"warning: {flags[dest]} is ignored without {without}", file=sys.stderr)


def _prefilter_params(args) -> PrefilterParams:
    return PrefilterParams(**_given(args, PREFILTER_FLAGS))


def _segment_params(args) -> SegmentParams:
    return SegmentParams(**_given(args, SEGMENT_FLAGS))


def _prefilter_or_warn(args) -> PrefilterParams | None:
    """Under ``--prefilter`` its params; else None, warning of each one given."""
    if args.prefilter:
        return _prefilter_params(args)
    _warn_ignored(args, PREFILTER_FLAGS, "--prefilter")
    return None


def _add_prefilter_flags(parser):
    parser.add_argument(
        "--prefilter",
        action="store_true",
        default=None,
        help="relax positions before segmentation (never before denoising)",
    )
    parser.add_argument("--alpha", type=float, help="operator energy weight")
    parser.add_argument("--beta", type=float, help="flap smoothness weight")
    parser.add_argument("--sigma-w", type=float, help="edge weight normal-difference scale")


def _add_segment_flags(parser):
    parser.add_argument("--dthr", type=float, dest="d_thr", help="region-growing bound on ||D(e)||")
    parser.add_argument(
        "--min-cluster",
        type=int,
        dest="min_cluster_size",
        help="clusters smaller than this get absorbed (1 keeps the raw labels)",
    )
    parser.add_argument("--ring-depth", type=int, help="refinement ring radius")
    parser.add_argument(
        "--baseline",
        choices=BASELINE_MODES,
        dest="baseline_mode",
        help="growing predicate (normal-angle exists for comparisons)",
    )


def cmd_noise(args) -> int:
    mesh = read_obj(args.mesh)
    spec = NoiseSpec(sigma_factor=args.sigma, mode=args.mode, seed=args.seed)
    out = args.output
    if out is None:
        stem = Path(args.mesh)
        out = stem.with_name(f"{stem.stem}_n{args.sigma:g}{stem.suffix or '.obj'}")
    write_obj(add_noise(mesh, spec), out)
    print(out)
    return EXIT_OK


def cmd_segment(args) -> int:
    if args.d_thr is None:
        raise ValueError("segment requires --dthr")
    mesh = read_obj(args.mesh)
    params = _segment_params(args)
    pf = _prefilter_or_warn(args)
    # segment() would prefilter the same way; doing it here lets the norms
    # CSV reuse the relaxed mesh and its carried topology, with no second solve.
    work = mesh if pf is None else prefilter(mesh, pf)
    clusters = segment(work, params)
    prefix = Path(args.out_prefix) if args.out_prefix else Path(args.mesh).with_suffix("")
    labels_path = prefix.parent / f"{prefix.name}_labels.txt"
    ply_path = prefix.parent / f"{prefix.name}_clusters.ply"
    write_labels(clusters.labels, labels_path)
    write_ply_colored(mesh, clusters.labels, ply_path)
    if args.dump_norms:
        norms = edge_operator_field(work, work.topology)
        write_norms_csv(work.topology, norms, prefix.parent / f"{prefix.name}_norms.csv")
    print(f"clusters: {clusters.cluster_count}")
    print(labels_path)
    print(ply_path)
    return EXIT_OK


def cmd_denoise(args) -> int:
    try:
        numbers = _parse_tuple(args.params)
    except ValueError:
        raise ValueError(f"--params must be a comma-separated number list, got {args.params!r}")
    params = params_from_tuple(args.method, numbers)
    mesh = read_obj(args.mesh)

    labels = None
    if args.use_clusters:
        if args.d_thr is None:
            raise ValueError("--use-clusters requires --dthr")
        labels = segment(mesh, _segment_params(args), prefilter_params=_prefilter_or_warn(args))
    else:
        flags = {**SEGMENT_FLAGS, "prefilter": "--prefilter", **PREFILTER_FLAGS}
        _warn_ignored(args, flags, "--use-clusters")

    result = denoise(mesh, params, labels=labels)
    out = args.output
    if out is None:
        stem = Path(args.mesh)
        out = stem.with_name(f"{stem.stem}_dn{stem.suffix or '.obj'}")
    write_obj(result, out)
    print(out)
    return EXIT_OK


def cmd_eval(args) -> int:
    result = read_obj(args.result)
    truth = read_obj(args.truth)
    m = msae(result, truth)
    e = ev(result, truth)
    label = args.label if args.label is not None else Path(args.result).stem
    line = f"{label},{m!r},{e!r}"
    print(line)
    if args.csv:
        path = Path(args.csv)
        fresh = not path.exists() or path.stat().st_size == 0
        with open(path, "a", encoding="utf-8", newline="\n") as fh:
            if fresh:
                fh.write("label,msae,ev\n")
            fh.write(line + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = parse_config(args.config)
    out = run_bench(config, args.out, jobs=args.jobs)
    print(out)
    return EXIT_OK


def cmd_make_fixture(args) -> int:
    mesh = make_fixture(args.shape, args.subdiv)
    out = args.output or f"{args.shape}_{args.subdiv}.obj"
    write_obj(mesh, out)
    print(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="meshseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("noise", help="corrupt a mesh with Gaussian noise")
    p.add_argument("mesh")
    p.add_argument("--sigma", type=float, required=True, help="std in mean edge lengths")
    p.add_argument("--mode", choices=NOISE_MODES, default=NoiseSpec.mode)
    p.add_argument("--seed", type=int, default=NoiseSpec.seed)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("segment", help="cluster faces along feature lines")
    p.add_argument("mesh")
    _add_segment_flags(p)
    _add_prefilter_flags(p)
    p.add_argument("--dump-norms", action="store_true", help="also write per-edge ||D(e)|| CSV")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("denoise", help="two-step denoise, optionally cluster-constrained")
    p.add_argument("mesh")
    p.add_argument("--method", choices=sorted(PARAM_TYPES), required=True)
    p.add_argument(
        "--params",
        required=True,
        help="comma tuple; " + ", ".join(
            f"{name}: ({', '.join(f.name for f in fields(kind))})"
            for name, kind in sorted(PARAM_TYPES.items())
        ),
    )
    p.add_argument("--use-clusters", action="store_true")
    _add_segment_flags(p)
    _add_prefilter_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="score a result against ground truth")
    p.add_argument("result")
    p.add_argument("truth")
    p.add_argument("--label", default=None)
    p.add_argument("--csv", default=None, help="append label,msae,ev to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a sweep config, write a report directory")
    p.add_argument("config")
    p.add_argument("--out", default="bench_out")
    p.add_argument("--jobs", type=int, default=0, help="worker threads (0 = auto)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("make-fixture", help="generate a reference mesh")
    p.add_argument("shape", choices=FIXTURE_SHAPES)
    p.add_argument("--subdiv", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_make_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConnectivityMismatchError as exc:
        print(f"meshseg: {exc}", file=sys.stderr)
        return EXIT_METRIC_MISMATCH
    except (MeshError, OSError) as exc:
        print(f"meshseg: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"meshseg: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
