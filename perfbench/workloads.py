"""The four workloads: their inputs, one pass each, and the checks on
every output a pass produces.

Every call into meshseg goes through ``Pass.op``, which looks the
function up in its module at call time (so the traced run sees the
wrappers ``spans.instrumented`` installs), counts it as one operation,
and keeps its output for the checks that run after the timed pass. In an
untraced pass it also times the call and scales that time to reference
machine speed (see pace.py).
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import meshseg
from pace import Scaler

NOISE_SIGMA = 0.5  # mean edge lengths, "normal" mode
PREFILTER = meshseg.PrefilterParams(5, 5, 2)

# d_thr as a multiple of the noisy mesh's mean edge length.
LADDER_K = (0.025, 0.03, 0.06)
SWEEP_K = 0.06
RING_FILTERS = (
    meshseg.UnfParams(0.5, 20, 10),
    meshseg.BnfParams(0.45, 20, 10),
    meshseg.L1Params(40, 20, 10),
)
GNF_FILTER = meshseg.GnfParams(2, 2, 0.35, 20, 10)
ROUNDTRIP_FILTER = meshseg.BnfParams(0.45, 100, 50)


def api(name: str):
    """"<layer>.<function>" -> the function currently bound in that module."""
    layer, fn = name.split(".")
    return getattr(sys.modules[f"meshseg.{layer}"], fn)


class OpFailed(Exception):
    """An operation raised; the rest of its pass cannot run."""


class Pass:
    """Runs one pass's operations and checks their outputs afterwards.
    With ``timed``, ``scaler`` sums the operations' raw and scaled seconds."""

    def __init__(self, timed: bool = False):
        self.ops: list[tuple[str, object, object]] = []  # (name, output, check)
        self.attempted = 0
        self.errors: list[str] = []
        self.scaler = Scaler() if timed else None

    def op(self, name: str, *args, check=None, **kwargs):
        self.attempted += 1
        fn = api(name)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation
            self.errors.append(f"{name}: raised {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        finally:
            if self.scaler is not None:
                self.scaler.add(time.perf_counter() - start)
        self.ops.append((name, out, check))
        return out

    def check(self) -> None:
        for name, out, check in self.ops:
            problem = check(out) if check is not None else None
            if problem:
                self.errors.append(f"{name}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.errors)

    def values(self, name: str) -> list:
        return [out for op_name, out, _ in self.ops if op_name == name]

    def digest(self) -> str:
        """sha256 of every label array and result vertex array, in order."""
        h = hashlib.sha256()
        for _, out, _ in self.ops:
            if isinstance(out, meshseg.ClusterLabels):
                h.update(np.ascontiguousarray(out.labels, dtype=np.int64).tobytes())
            elif isinstance(out, meshseg.TriMesh):
                h.update(np.ascontiguousarray(out.vertices, dtype=np.float64).tobytes())
        return h.hexdigest()[:16]


# ---- output checks: each returns None or a one-line problem ----------------

def labels_ok(n_faces):
    def check(clusters):
        labels = np.asarray(clusters.labels)
        if labels.shape != (n_faces,):
            return f"labels shape {labels.shape}, expected ({n_faces},)"
        sizes = np.asarray(clusters.cluster_sizes)
        if len(sizes) != clusters.cluster_count or clusters.cluster_count < 1:
            return f"cluster_count {clusters.cluster_count} vs {len(sizes)} sizes"
        if labels.min() < 0 or labels.max() != clusters.cluster_count - 1:
            return "labels are not 0..cluster_count-1"
        if not np.array_equal(np.bincount(labels, minlength=len(sizes)), sizes) or (sizes == 0).any():
            return "cluster_sizes do not count the labels contiguously"
        return None
    return check


def mesh_ok(source):
    """Finite positions and face normals, and the source's connectivity."""
    def check(result):
        if result.n_vertices != source.n_vertices or not np.array_equal(result.faces, source.faces):
            return "connectivity differs from the input"
        if not np.isfinite(result.vertices).all():
            return "non-finite vertex positions"
        tri = result.vertices[result.faces]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        with np.errstate(invalid="ignore", divide="ignore"):
            normals = cross / np.linalg.norm(cross, axis=1, keepdims=True)
        if not np.isfinite(normals).all():
            return "non-finite face normals"
        return None
    return check


def same_mesh(written):
    def check(read_back):
        problem = mesh_ok(written)(read_back)
        if problem is None and not np.array_equal(read_back.vertices, written.vertices):
            return "vertices differ from the mesh written"
        return problem
    return check


def finite_scalar(value):
    return None if np.isfinite(value) and value >= 0 else f"value {value!r}"


def labels_file(labels, path):
    def check(_):
        back = meshseg.read_labels(path)
        return None if np.array_equal(back, labels) else "labels file differs from the labels"
    return check


def ply_file(mesh, path):
    def check(_):
        with open(path, encoding="utf-8") as fh:
            header = fh.read(512)
        for line in (f"element vertex {mesh.n_vertices}\n", f"element face {mesh.n_faces}\n"):
            if line not in header:
                return f"PLY header lacks {line.strip()!r}"
        return None
    return check


# ---- inputs ----------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    truth: meshseg.TriMesh
    noisy: meshseg.TriMesh  # as read back from its OBJ file
    mel: float  # mean edge length of noisy


def make_inputs(shape: str, subdiv: int, seed: int, tmp: Path) -> Inputs:
    truth = api("fixtures.make_fixture")(shape, subdiv)
    noisy = api("noise.add_noise")(truth, meshseg.NoiseSpec(NOISE_SIGMA, "normal", seed))
    path = tmp / "noisy.obj"
    api("fileio.write_obj")(noisy, path)
    noisy = api("fileio.read_obj")(path)
    mel = meshseg.build_topology(noisy).mean_edge_length
    return Inputs(truth, noisy, mel)


def warm_up(tmp: Path) -> None:
    """One call per layer on cube(2), so lazy first-call costs land in set-up."""
    small = make_inputs("cube", 2, 1, tmp)
    meshseg.face_geometry(small.noisy)
    meshseg.edge_operator_field(small.noisy, meshseg.build_topology(small.noisy))
    labels = meshseg.segment(small.noisy, meshseg.SegmentParams(SWEEP_K * small.mel), PREFILTER)
    meshseg.write_labels(labels.labels, tmp / "warm.txt")
    meshseg.write_ply_colored(small.noisy, labels.labels, tmp / "warm.ply")
    for params in (*RING_FILTERS, GNF_FILTER):
        result = meshseg.denoise(small.noisy, params, labels=labels)
    meshseg.msae(result, small.truth)
    meshseg.ev(result, small.truth)


# ---- one pass of each workload ---------------------------------------------

def segment_ladder(p: Pass, inp: Inputs, tmp: Path) -> None:
    for k in LADDER_K:
        clusters = p.op("segment.segment", inp.noisy, meshseg.SegmentParams(k * inp.mel), PREFILTER,
                        check=labels_ok(inp.noisy.n_faces))
        labels_path, ply_path = tmp / f"labels_{k}.txt", tmp / f"clusters_{k}.ply"
        p.op("fileio.write_labels", clusters.labels, labels_path,
             check=labels_file(clusters.labels, labels_path))
        p.op("fileio.write_ply_colored", inp.noisy, clusters.labels, ply_path,
             check=ply_file(inp.noisy, ply_path))


def _segment_once(p: Pass, inp: Inputs):
    return p.op("segment.segment", inp.noisy, meshseg.SegmentParams(SWEEP_K * inp.mel), PREFILTER,
                check=labels_ok(inp.noisy.n_faces))


def _filter_sweep(p: Pass, inp: Inputs, filters) -> None:
    clusters = _segment_once(p, inp)
    for params in filters:
        for labels in (None, clusters):
            result = p.op("denoise.denoise", inp.noisy, params, labels=labels, check=mesh_ok(inp.noisy))
            p.op("metrics.msae", result, inp.truth, check=finite_scalar)


def ring_sweep(p: Pass, inp: Inputs, tmp: Path) -> None:
    _filter_sweep(p, inp, RING_FILTERS)


def gnf_sweep(p: Pass, inp: Inputs, tmp: Path) -> None:
    _filter_sweep(p, inp, (GNF_FILTER,))


def roundtrip(p: Pass, inp: Inputs, tmp: Path) -> None:
    clusters = _segment_once(p, inp)
    result = p.op("denoise.denoise", inp.noisy, ROUNDTRIP_FILTER, labels=clusters, check=mesh_ok(inp.noisy))
    path = tmp / "denoised.obj"
    p.op("fileio.write_obj", result, path)
    back = p.op("fileio.read_obj", path, check=same_mesh(result))
    p.op("metrics.msae", back, inp.truth, check=finite_scalar)
    p.op("metrics.ev", back, inp.truth, check=finite_scalar)


@dataclass(frozen=True)
class Workload:
    shape: str
    subdiv: int
    run: object  # (Pass, Inputs, tmp dir) -> None


WORKLOADS = {
    "segment-ladder": Workload("icosahedron", 32, segment_ladder),
    "ring-sweep": Workload("cube", 32, ring_sweep),
    "gnf-sweep": Workload("cube", 16, gnf_sweep),
    "roundtrip": Workload("cube", 20, roundtrip),
}
