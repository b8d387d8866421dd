#!/usr/bin/env python3
"""meshseg benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload segment-ladder --seed 23 --trace 0

Run from the repository root. meshseg is imported from ``src/`` next to
this directory. ``--trace 0`` alternates untraced passes with set-up
samples and reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics. Times of
the end-to-end metrics are scaled to reference machine speed (pace.py).
The run length defaults to ``run_seconds`` in BENCHMARK.json. Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
report (and, traced, the spans) goes to ``perfbench/out/``. See
perfbench/README.md.
"""

from __future__ import annotations

# Only the standard library is imported here: importing meshseg (and with
# it numpy and scipy) is part of the set-up time being measured.
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The keys of workloads.WORKLOADS, repeated because importing that module
# imports meshseg, which must wait until set-up is being timed.
WORKLOAD_NAMES = ("segment-ladder", "ring-sweep", "gnf-sweep", "roundtrip")
DEFAULT_SEED = 23
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run. "<layer>.<function>.s" is the
# function's self time per traced pass (span time minus the spans it
# encloses); the others are per-pass counts. Every value is the median
# over the traced passes of one run.
SELF_TIMES = (
    "segment.refine",
    "segment.region_grow",
    "prefilter.prefilter",
    "edgeop.edge_operator_field",
    "core.build_topology",
    "core.face_geometry",
    "denoise.filter_unf",
    "denoise.filter_bnf",
    "denoise.filter_l1median",
    "denoise.filter_gnf",
    "denoise.vertex_update",
    "metrics.ev",
    "metrics.msae",
    "fileio.write_obj",
    "fileio.read_obj",
    "fileio.write_labels",
    "fileio.write_ply_colored",
)
CALL_COUNTS = ("prefilter.prefilter", "core.build_topology")
# counter -> (unit, the counter that is its base, if any)
COUNTERS = {
    "segment.raw_clusters": ("count", None),
    "segment.final_clusters": ("count", None),
    "segment.absorbed_faces": ("count", "segment.refined_faces"),
    "denoise.gnf_radius_pairs": ("count", None),
    "metrics.ev.points": ("count", None),
    "fileio.bytes_written": ("bytes", None),
}
SETUP_TIMES = ("fixtures.make_fixture", "noise.add_noise")


def per_layer_units() -> dict:
    import spans

    units = {f"{name}.s": "s" for name in SELF_TIMES}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update({name: unit for name, (unit, _) in COUNTERS.items()})
    units.update({f"{name}.peak_mb": "MB" for name in spans.MEMORY_TRACED})
    units["metrics.ev.us_per_point"] = "us"
    units.update({f"{name}.s": "s" for name in SETUP_TIMES})
    units["metrics.msae.value"] = "rad2"
    units["metrics.ev.value"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="noise seed of the inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time, by default run_seconds from BENCHMARK.json; "
                             "no round starts that would end after it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)
    if args.seconds is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = bench["run_seconds"]
    return args


def setup(workload: str, seed: int, tmp: Path, traced: bool):
    """Import meshseg from src/, make the workload's inputs and warm every
    layer up. Returns (workload spec, inputs, {"raw": s, "scaled": s},
    tracer or None), the seconds scaled to the reference loops timed just
    before and just after."""
    before = pace.reference_loop()
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import meshseg

    if Path(meshseg.__file__).resolve().parent != ROOT / "src" / "meshseg":
        raise SystemExit(f"meshseg was imported from {meshseg.__file__}, not from {ROOT / 'src'}")
    import workloads

    spec = workloads.WORKLOADS[workload]
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.pass_id = "setup"
    with spans.instrumented(tracer) if traced else nullcontext():
        inputs = workloads.make_inputs(spec.shape, spec.subdiv, seed, tmp)
    if traced:
        tracer.run_hooks()
    workloads.warm_up(tmp)
    seconds = time.perf_counter() - start
    speed = (before + pace.reference_loop()) / 2
    return spec, inputs, {"raw": seconds, "scaled": seconds * pace.REFERENCE_S / speed}, tracer


def child_setup_seconds(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def one_pass(spec, inputs, tmp: Path, tracer, index: int, watch_memory: bool = False) -> dict:
    import workloads

    p = workloads.Pass(timed=tracer is None)
    if tracer is not None:
        import spans

        tracer.pass_id = index
        tracer.watch_memory = watch_memory
    with spans.instrumented(tracer) if tracer is not None else nullcontext():
        start = time.perf_counter()
        try:
            spec.run(p, inputs, tmp)
        except workloads.OpFailed:
            pass
        wall = time.perf_counter() - start
    if tracer is not None:
        tracer.run_hooks()
    else:
        # An untraced pass's wall time is its operations' time, without the
        # reference loops run between them.
        wall = p.scaler.raw_s
    p.check()
    msae = p.values("metrics.msae")
    ev = p.values("metrics.ev")
    return {
        "index": index,
        "traced": tracer is not None,
        "memory": watch_memory,
        "wall_s": wall,
        "scaled_s": None if p.scaler is None else p.scaler.scaled_s,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
        "digest": p.digest(),
        "msae": sum(msae) / len(msae) if msae else None,
        "ev": ev[0] if ev else None,
    }


def run_passes(spec, inputs, tmp: Path, args, tracer) -> tuple[list[dict], list[float]]:
    """Rounds until another round would end after args.seconds; at least
    two. Untraced, a round is one pass and then one set-up sample in a
    child process, so that set-up is sampled over the same stretch of time
    as the passes. Traced, a round is one untraced pass and then one traced
    pass; every second traced pass runs tracemalloc inside the calls of
    spans.MEMORY_TRACED, and only the others are used for times.
    Returns the passes and the set-up samples."""
    passes, setup_samples = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        passes.append(one_pass(spec, inputs, tmp, None, len(passes)))
        if tracer is None:
            setup_samples.append(child_setup_seconds(args))
        else:
            passes.append(one_pass(spec, inputs, tmp, tracer, len(passes), watch_memory=rounds % 2 == 1))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + elapsed / rounds > args.seconds:
            return passes, setup_samples


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_metrics(tracer, passes: list[dict]) -> tuple[dict, dict, dict]:
    """Per-layer values, their bases, and informational counts. Times,
    counts and overhead are medians over the traced passes without
    tracemalloc; tracemalloc peaks are medians over the passes with it."""
    import spans

    selfs = spans.self_times(tracer.spans)
    calls = spans.call_counts(tracer.spans)
    top = spans.top_level_time(tracer.spans)
    timed = [p for p in passes if p["traced"] and not p["memory"]]
    ids = [p["index"] for p in timed]
    memory_ids = [p["index"] for p in passes if p["memory"]]
    counters = tracer.counters

    def median_over(pass_ids, value_of) -> float:
        return statistics.median(value_of(i) for i in pass_ids)

    values, bases = {}, {}
    for name in SELF_TIMES:
        values[f"{name}.s"] = median_over(ids, lambda i: selfs[i, name])
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = median_over(ids, lambda i: calls[i, name])
    for name, (_, base) in COUNTERS.items():
        values[name] = median_over(ids, lambda i: counters[i][name])
        if base is not None:
            bases[name] = median_over(ids, lambda i: counters[i][base])
    for name in spans.MEMORY_TRACED:
        values[f"{name}.peak_mb"] = median_over(memory_ids, lambda i: counters[i][f"{name}.peak_mb"])
    values["metrics.ev.us_per_point"] = median_over(
        ids, lambda i: 1e6 * selfs[i, "metrics.ev"] / counters[i]["metrics.ev.points"]
        if counters[i]["metrics.ev.points"] else 0.0
    )
    for name in SETUP_TIMES:
        values[f"{name}.s"] = selfs["setup", name]
    values["metrics.msae.value"] = timed[0]["msae"] or 0.0
    values["metrics.ev.value"] = timed[0]["ev"] or 0.0
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in timed) - statistics.median(
        p["wall_s"] for p in passes if not p["traced"]
    )
    values["trace.coverage"] = min(top[p["index"]] / p["wall_s"] for p in timed)
    # fixed_faces is 0 on every workload at seed 23, so it is printed with
    # its base but is not a metric.
    info = {name: median_over(ids, lambda i: counters[i][name])
            for name in ("denoise.fixed_faces", "denoise.filtered_faces")}
    return values, bases, info


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        if args.setup_only:
            seconds = setup(args.workload, args.seed, tmp, traced=False)[2]
            print(json.dumps(seconds))
            return 0
        traced = bool(args.trace)
        spec, inputs, own_setup, tracer = setup(args.workload, args.seed, tmp, traced)
        passes, setup_samples = run_passes(spec, inputs, tmp, args, tracer)
        setup_samples.insert(0, own_setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment()
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    scaled = [p["scaled_s"] for p in untraced]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"faces {inputs.noisy.n_faces}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  passes        {len(untraced)} untraced, {len(passes) - len(untraced)} traced"
          + (f" ({sum(p['memory'] for p in passes)} of them with tracemalloc)" if traced else ""))
    print(f"  digest        {' '.join(digests)}"
          + ("  (traced = untraced)" if traced and len(digests) == 1 else ""))
    print(f"  fail_ratio    {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    for p in passes:
        for error in p["errors"]:
            print(f"  FAILED pass {p['index']}: {error}")
    if untraced[0]["msae"] is not None:
        print(f"  msae          {fmt(untraced[0]['msae'])} rad^2 (mean over the pass's denoised results)")
    if untraced[0]["ev"] is not None:
        print(f"  ev            {fmt(untraced[0]['ev'])} (mean squared distance / truth bbox diagonal^2)")

    if traced:
        values, bases, info = layer_metrics(tracer, passes)
        units = per_layer_units()
        for name, value in values.items():
            note = f"  of {fmt(bases[name])}" if name in bases else ""
            if value == 0:
                note += "  (not exercised by this workload)"
            print(f"  {name:<32}{fmt(value):>14} {units[name]}{note}")
        if info["denoise.filtered_faces"]:
            print(f"  denoise.fixed_faces {fmt(info['denoise.fixed_faces'])} of "
                  f"{fmt(info['denoise.filtered_faces'])} faces filtered by unf, bnf and l1 (not a metric)")
        wall = statistics.median(p["wall_s"] for p in passes if p["traced"] and not p["memory"])
        shares = sorted(((values[f"{n}.s"] / wall, n) for n in SELF_TIMES), reverse=True)
        print("  largest self-time shares of a traced pass: "
              + ", ".join(f"{n} {share:.0%}" for share, n in shares[:4]))
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "pass", "name", "start", "end"), span))) + "\n")
    else:
        values = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(s["scaled"] for s in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"  wall_s        {fmt(values['wall_s'])} s at reference speed  (median of "
              f"{len(scaled)} passes; q1 {fmt(quartiles(scaled)[0])}, q3 {fmt(quartiles(scaled)[1])})")
        print(f"                raw {fmt(statistics.median(walls))} s  (q1 {fmt(quartiles(walls)[0])}, "
              f"q3 {fmt(quartiles(walls)[1])})")
        print(f"  setup_s       {fmt(values['setup_s'])} s at reference speed  (median of this process "
              f"and {len(setup_samples) - 1} children run between passes: "
              + ", ".join(fmt(s["scaled"]) for s in setup_samples) + ")")
        print(f"                raw {fmt(statistics.median(s['raw'] for s in setup_samples))} s")
        print(f"  peak_rss_mb   {fmt(values['peak_rss_mb'])} MB")

    correct = failed == 0 and len(digests) == 1
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "digests": digests, "passes": passes,
        "setup_samples": setup_samples, "correct": correct, "metrics": values,
        "not_exercised": [name for name, value in values.items() if value == 0],
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
