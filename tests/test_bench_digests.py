"""Every perfbench workload still gives the digest of the benchmark's
baseline (``perfbench/baseline/README.md``) at its two seeds: the labels
and result vertices of one untraced pass are the same bits. A change that
alters these numbers on purpose updates the constants here and says so.
segment-ladder's digests and one PLY it writes are also rerun in child
processes on other numpy and BLAS code paths; run as a script, this file
prints that fingerprint."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"

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


# sha256 of segment-ladder's k = 0.025 PLY at seed 23.
LADDER_PLY_SHA256 = "3842a561f6ebe27854651eadbaeeb5e94b7c6f95f0ec325a3c443b06be543250"

# numpy's AVX2 code path on an AVX-512 machine, and one BLAS thread.
PORTABLE_ENVIRONMENTS = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "one-blas-thread": {"OPENBLAS_NUM_THREADS": "1"},
}


def _import_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture(scope="module")
def workloads():
    return _import_workloads()


def ladder_fingerprint(workloads, tmp: Path) -> dict:
    """segment-ladder's digest at both seeds, and the sha256 of the PLY
    its first rung writes at seed 23."""
    workload = workloads.WORKLOADS["segment-ladder"]
    digests = {}
    for seed in (23, 7919):
        run_dir = tmp / str(seed)
        run_dir.mkdir()
        inputs = workloads.make_inputs(workload.shape, workload.subdiv, seed, run_dir)
        p = workloads.Pass()
        workload.run(p, inputs, run_dir)
        p.check()
        assert p.failed == 0, p.errors
        digests[str(seed)] = p.digest()
    ply = (tmp / "23" / f"clusters_{workloads.LADDER_K[0]}.ply").read_bytes()
    return {"digests": digests, "ply_sha256": hashlib.sha256(ply).hexdigest()}


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


def test_segment_ladder_bits_hold_on_other_code_paths(workloads, tmp_path):
    """segment-ladder's labels and PLY bytes are the same on the default
    code path, on numpy's AVX2 path and with one BLAS thread, each rerun
    in its own process. ring-sweep, gnf-sweep and roundtrip are not
    checked: they are machine-bound, because their filters' kernels go
    through np.exp, whose last bit differs between numpy's AVX2 and
    AVX-512 paths, so their digests hold only on the path they were
    pinned on."""
    default = ladder_fingerprint(workloads, tmp_path)
    assert default == {
        "digests": {str(seed): DIGESTS["segment-ladder", seed] for seed in (23, 7919)},
        "ply_sha256": LADDER_PLY_SHA256,
    }
    for name, variables in PORTABLE_ENVIRONMENTS.items():
        pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        env = {**os.environ, **variables, "PYTHONPATH": pythonpath}
        run = subprocess.run(
            [sys.executable, __file__, str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == default, name


if __name__ == "__main__":
    out_dir = Path(sys.argv[1])
    out_dir.mkdir()
    print(json.dumps(ladder_fingerprint(_import_workloads(), out_dir)))
