"""The benchmark's span hooks (``perfbench/spans.py``) against the package.

The hooks record counters from the arguments of traced calls. They read
each argument by position and fall back to its name, so the calls
inside ``segment()`` and ``denoise()`` pass those arguments by keyword.
This runs the pipeline under the tracer and checks the counters.
"""

import importlib
from pathlib import Path

import meshseg
from meshseg import BnfParams, GnfParams, L1Params, NoiseSpec, SegmentParams, UnfParams

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_hooks_count_segment_and_denoise(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    spans = importlib.import_module("spans")
    noisy = meshseg.add_noise(meshseg.cube(4), NoiseSpec(0.2, "normal", seed=23))
    d_thr = 0.2 * meshseg.build_topology(noisy).mean_edge_length
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        labels = meshseg.segment(noisy, SegmentParams(d_thr, min_cluster_size=8))
        for params in (
            UnfParams(0.5, 2, 1),
            BnfParams(0.45, 2, 1),
            L1Params(40, 2, 1),
            GnfParams(2, 2, 0.35, 2, 1),
        ):
            meshseg.denoise(noisy, params, labels=labels)
    tracer.run_hooks()
    counters = tracer.counters[tracer.pass_id]
    assert labels.cluster_count > 1
    assert counters["segment.final_clusters"] == labels.cluster_count
    assert counters["denoise.filtered_faces"] == 3 * noisy.n_faces
    assert counters["denoise.gnf_radius_pairs"] > 0
