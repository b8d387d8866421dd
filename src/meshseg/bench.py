"""Sweep harness: one config in, a directory of comparable results out.

A config is a flat ``key = value`` text file (``#`` comments allowed)
naming a ground-truth model, a noise recipe, segmentation settings, and
one or more ``sweep.<method>`` parameter tuples:

    model = fixtures/cube.obj
    sigma = 0.5          # noise std in mean-edge-lengths (0 = no noise)
    mode = normal
    seed = 7
    dthr = 0.002
    min_cluster = 50
    prefilter = true
    sweep.unf = 0.5, 50, 50
    sweep.unf = 0.6, 50, 50
    sweep.gnf = 2, 1, 0.25, 20, 10

Every sweep entry runs twice — without and with cluster constraints —
against the *same* noise realization, so each pair is directly
comparable. Jobs execute in a thread pool, but rows are written in
submission order and all numeric output is formatted with shortest
round-trip floats, which makes results.csv byte-identical across reruns
of the same config. Wall-clock times, which are never reproducible, go
to a separate timings.csv so they cannot pollute the stable artifact.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import get_type_hints

import numpy as np

from .denoise import DenoiseParams, denoise, params_from_tuple
from .fileio import read_obj, write_labels, write_obj, write_ply_colored
from .metrics import ev, msae
from .noise import NOISE_MODES, NoiseSpec, add_noise
from .prefilter import PrefilterParams
from .segment import SegmentParams, segment

RESULTS_HEADER = "label,model,method,use_clusters,dthr,params,msae,ev,status"
TIMINGS_HEADER = "label,wall_ms"
SUMMARY_HEADER = "method,use_clusters,n_ok,msae_mean,msae_cv,ev_mean"


@dataclass
class BenchConfig:
    """Parsed sweep configuration; see the module docstring for the grammar."""

    model: str
    dthr: float
    sweep: list[tuple[str, tuple[float, ...]]]
    sigma: float = 0.0
    mode: str = NoiseSpec.mode
    seed: int = NoiseSpec.seed
    min_cluster: int = SegmentParams.min_cluster_size
    ring_depth: int = SegmentParams.ring_depth
    prefilter: bool = True


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_config(path) -> BenchConfig:
    """Parse and validate a bench config file.

    Raises ValueError on unknown keys, malformed values, or missing
    required keys (model, dthr, at least one sweep line). A relative
    model path is resolved against the config file's directory.
    """
    path = Path(path)
    values: dict[str, str] = {}
    sweep: list[tuple[str, tuple[float, ...]]] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("sweep."):
            method = key[len("sweep."):]
            try:
                numbers = tuple(float(x) for x in value.split(","))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad sweep tuple {value!r}") from exc
            params_from_tuple(method, numbers)  # validates arity and ranges
            sweep.append((method, numbers))
        elif key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value

    kinds = get_type_hints(BenchConfig)
    del kinds["sweep"]
    unknown = set(values) - set(kinds)
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    if "model" not in values:
        raise ValueError(f"{path}: missing required key 'model'")
    if "dthr" not in values:
        raise ValueError(f"{path}: missing required key 'dthr'")
    if not sweep:
        raise ValueError(f"{path}: no sweep.<method> lines; nothing to run")

    # Only the keys the file sets: BenchConfig holds every default.
    settings = {key: _config_value(path, key, kinds[key], text) for key, text in values.items()}
    if "mode" in settings and settings["mode"] not in NOISE_MODES:
        raise ValueError(f"{path}: mode must be one of {NOISE_MODES}, got {settings['mode']!r}")
    if not os.path.isabs(settings["model"]):
        settings["model"] = str(path.parent / settings["model"])
    return BenchConfig(sweep=sweep, **settings)


def _config_value(path, key: str, kind: type, text: str):
    """One config value as the type of its BenchConfig field."""
    if kind is bool:
        try:
            return _BOOL_WORDS[text.lower()]
        except KeyError:
            raise ValueError(f"{path}: {key} must be a boolean, got {text!r}") from None
    if kind in (int, float):
        try:
            return kind(text)
        except ValueError as exc:
            word = "an integer" if kind is int else "a number"
            raise ValueError(f"{path}: key {key!r} must be {word}") from exc
    return text


@dataclass
class BenchJob:
    label: str
    method: str
    params: DenoiseParams
    params_text: str
    use_clusters: bool


@dataclass
class BenchRow:
    job: BenchJob
    msae: float | None
    ev: float | None
    status: str
    wall_ms: float


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _run_job(job: BenchJob, noisy, truth, label_array) -> BenchRow:
    start = perf_counter()
    try:
        result = denoise(
            noisy, job.params, labels=label_array if job.use_clusters else None
        )
        row = BenchRow(
            job=job,
            msae=msae(result, truth),
            ev=ev(result, truth),
            status="ok",
            wall_ms=(perf_counter() - start) * 1000.0,
        )
    except Exception as exc:  # noqa: BLE001 - a failed job must not kill the sweep
        row = BenchRow(
            job=job,
            msae=None,
            ev=None,
            status=f"error:{type(exc).__name__}",
            wall_ms=(perf_counter() - start) * 1000.0,
        )
    return row


def run_bench(config: BenchConfig, out_dir, jobs: int = 0) -> Path:
    """Execute the full sweep grid, returning the report directory.

    Writes noisy.obj, labels.txt, clusters.ply, results.csv, timings.csv
    and summary.csv into *out_dir* (created if needed).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    truth = read_obj(config.model)

    if config.sigma > 0:
        noisy = add_noise(
            truth, NoiseSpec(sigma_factor=config.sigma, mode=config.mode, seed=config.seed)
        )
    else:
        noisy = truth
    write_obj(noisy, out / "noisy.obj")

    seg_params = SegmentParams(
        d_thr=config.dthr,
        min_cluster_size=config.min_cluster,
        ring_depth=config.ring_depth,
    )
    clusters = segment(
        noisy,
        seg_params,
        prefilter_params=PrefilterParams() if config.prefilter else None,
    )
    write_labels(clusters.labels, out / "labels.txt")
    write_ply_colored(noisy, clusters.labels, out / "clusters.ply")

    job_list: list[BenchJob] = []
    for index, (method, numbers) in enumerate(config.sweep):
        params = params_from_tuple(method, numbers)
        text = ";".join(repr(float(x)) for x in numbers)
        for use_clusters in (False, True):
            suffix = "clustered" if use_clusters else "plain"
            job_list.append(
                BenchJob(
                    label=f"{method}-{index:02d}-{suffix}",
                    method=method,
                    params=params,
                    params_text=text,
                    use_clusters=use_clusters,
                )
            )

    workers = jobs if jobs > 0 else min(4, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_job, job, noisy, truth, clusters) for job in job_list]
        rows = [f.result() for f in futures]  # submission order, not finish order

    model_name = Path(config.model).name
    with open(out / "results.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(
                f"{row.job.label},{model_name},{row.job.method},"
                f"{int(row.job.use_clusters)},{_fmt(config.dthr)},"
                f"{row.job.params_text},{_fmt(row.msae)},{_fmt(row.ev)},{row.status}\n"
            )
    with open(out / "timings.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TIMINGS_HEADER + "\n")
        for row in rows:
            fh.write(f"{row.job.label},{row.wall_ms:.3f}\n")

    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        methods = []
        for row in rows:
            key = (row.job.method, row.job.use_clusters)
            if key not in methods:
                methods.append(key)
        for method, use_clusters in methods:
            ok = [
                r
                for r in rows
                if r.job.method == method
                and r.job.use_clusters == use_clusters
                and r.status == "ok"
            ]
            if ok:
                msae_vals = np.array([r.msae for r in ok])
                ev_vals = np.array([r.ev for r in ok])
                mean = float(msae_vals.mean())
                cv = float(msae_vals.std() / mean) if mean > 0 else 0.0
                fh.write(
                    f"{method},{int(use_clusters)},{len(ok)},"
                    f"{_fmt(mean)},{_fmt(cv)},{_fmt(float(ev_vals.mean()))}\n"
                )
            else:
                fh.write(f"{method},{int(use_clusters)},0,,,\n")
    return out
