"""Every perfbench workload still gives the digest of the benchmark's
baseline (``perfbench/baseline/README.md``) at its two seeds: the labels
and result vertices of one untraced pass are the same bits. A change that
alters these numbers on purpose updates the constants here and says so."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DIGESTS = {
    ("segment-ladder", 23): "a5f3dc706fb27e02",
    ("segment-ladder", 7919): "5efb4f09b0d1bc7d",
    ("ring-sweep", 23): "7907526470696fdc",
    ("ring-sweep", 7919): "2f618f1d377a2c01",
    ("gnf-sweep", 23): "359b0a137722ec79",
    ("gnf-sweep", 7919): "c7db3942df96e816",
    ("roundtrip", 23): "13971cfc0190de86",
    ("roundtrip", 7919): "d5292545ff288465",
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_workload_digest(workloads, tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload.shape, workload.subdiv, seed, tmp_path)
    p = workloads.Pass()
    workload.run(p, inputs, tmp_path)
    p.check()
    assert p.failed == 0, p.errors
    assert p.digest() == DIGESTS[name, seed]


def test_every_workload_is_pinned(workloads):
    assert {name for name, _ in DIGESTS} == set(workloads.WORKLOADS)
