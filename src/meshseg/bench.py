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

The noise settings are checked by :class:`~meshseg.noise.NoiseSpec`.
Every sweep entry runs twice — without and with cluster constraints —
against the *same* noise realization, so each pair is directly
comparable. Jobs execute in a thread pool, but rows are written in
submission order and all numeric output is formatted with shortest
round-trip floats, which makes results.csv byte-identical across reruns
of the same config; a job that raises keeps its row, with an
``error:<type>`` status. Wall-clock times, which are never reproducible,
go to a separate timings.csv so they cannot pollute the stable artifact.
summary.csv gives each (method, clustered) group's ok count, msae mean
and cv, and ev mean.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import get_type_hints

import numpy as np

from .core import check_count
from .denoise import denoise, params_from_tuple
from .fileio import read_obj, write_labels, write_obj, write_ply_colored
from .metrics import ev, msae
from .noise import NoiseSpec, add_noise
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

    Raises ValueError on unknown keys, malformed values, noise or
    segmentation settings that NoiseSpec or SegmentParams rejects, or
    missing required keys (model, dthr, at least one sweep line). A
    relative model path is resolved against the config file's directory.
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
            try:  # validates the method, arity and ranges
                params_from_tuple(method, numbers)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
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
    for required in ("model", "dthr"):
        if required not in values:
            raise ValueError(f"{path}: missing required key {required!r}")
    if not sweep:
        raise ValueError(f"{path}: no sweep.<method> lines; nothing to run")

    # Only the keys the file sets: BenchConfig holds every default.
    settings = {key: _config_value(path, key, kinds[key], text) for key, text in values.items()}
    if not os.path.isabs(settings["model"]):
        settings["model"] = str(path.parent / settings["model"])
    config = BenchConfig(sweep=sweep, **settings)
    try:  # checked as `meshseg noise` and `meshseg segment` check them
        NoiseSpec(config.sigma, config.mode, config.seed)
        SegmentParams(config.dthr, config.min_cluster, config.ring_depth)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config


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


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _run_job(noisy, truth, clusters, job):
    """(msae, ev, status, wall_ms) of one job; a failed denoise must not
    kill the sweep, so its exception becomes an error status."""
    _, method, numbers, clustered = job
    params = params_from_tuple(method, numbers)
    start = perf_counter()
    try:
        result = denoise(noisy, params, labels=clusters if clustered else None)
        scores = msae(result, truth), ev(result, truth), "ok"
    except Exception as exc:  # noqa: BLE001
        scores = None, None, f"error:{type(exc).__name__}"
    return (*scores, (perf_counter() - start) * 1000.0)


def run_bench(config: BenchConfig, out_dir, jobs: int = 0) -> Path:
    """Execute the full sweep grid, returning the report directory.

    Writes noisy.obj, labels.txt, clusters.ply, results.csv, timings.csv
    and summary.csv into *out_dir* (created if needed). *jobs* is the
    number of worker threads, 0 for up to four.
    """
    check_count("jobs", jobs, 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    truth = read_obj(config.model)
    noisy = add_noise(truth, NoiseSpec(config.sigma, config.mode, config.seed))
    write_obj(noisy, out / "noisy.obj")

    clusters = segment(
        noisy,
        SegmentParams(config.dthr, config.min_cluster, config.ring_depth),
        prefilter_params=PrefilterParams() if config.prefilter else None,
    )
    write_labels(clusters.labels, out / "labels.txt")
    write_ply_colored(noisy, clusters.labels, out / "clusters.ply")

    # (label, method, numbers, clustered) per job: each sweep line plain, then clustered.
    job_list = [
        (f"{method}-{index:02d}-{kind}", method, numbers, kind == "clustered")
        for index, (method, numbers) in enumerate(config.sweep)
        for kind in ("plain", "clustered")
    ]
    workers = jobs or min(4, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map yields in submission order, not finish order
        runs = list(pool.map(partial(_run_job, noisy, truth, clusters), job_list))

    model_name = Path(config.model).name
    # (method, clustered) -> (msae values, ev values) of its ok jobs, in first-seen order.
    groups: dict[tuple[str, bool], tuple[list[float], list[float]]] = {}
    with open(out / "results.csv", "w", encoding="utf-8", newline="\n") as results, open(
        out / "timings.csv", "w", encoding="utf-8", newline="\n"
    ) as timings:
        results.write(RESULTS_HEADER + "\n")
        timings.write(TIMINGS_HEADER + "\n")
        for (label, method, numbers, clustered), (score, ev_score, status, wall_ms) in zip(
            job_list, runs
        ):
            text = ";".join(repr(float(x)) for x in numbers)
            results.write(
                f"{label},{model_name},{method},{int(clustered)},{_fmt(config.dthr)},"
                f"{text},{_fmt(score)},{_fmt(ev_score)},{status}\n"
            )
            timings.write(f"{label},{wall_ms:.3f}\n")
            msae_vals, ev_vals = groups.setdefault((method, clustered), ([], []))
            if status == "ok":
                msae_vals.append(score)
                ev_vals.append(ev_score)

    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for (method, clustered), (msae_vals, ev_vals) in groups.items():
            scores = ",,"
            if msae_vals:
                mean = float(np.mean(msae_vals))
                cv = float(np.std(msae_vals) / mean) if mean > 0 else 0.0
                scores = f"{_fmt(mean)},{_fmt(cv)},{_fmt(float(np.mean(ev_vals)))}"
            fh.write(f"{method},{int(clustered)},{len(msae_vals)},{scores}\n")
    return out
