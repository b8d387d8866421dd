"""The l1 filter's Weiszfeld working set: one per ``filter_l1median`` call,
reused by every sweep of that call, never shared between calls, and
invisible in the results.

``_weiszfeld`` must give the same bytes in a workspace wider than its
columns that earlier calls left dirty; ``filter_l1median`` must hand
every sweep the same workspace, a new one per call, so that calls in
threads give the serial bytes.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from meshseg import cube, icosahedron
from meshseg.core import face_geometry
from meshseg.denoise import L1Params, _weiszfeld, _WeiszfeldWork, filter_l1median
from meshseg.noise import NoiseSpec, add_noise
from test_l1_oracle import _compactions, full_weiszfeld, ring_columns

DENOISE = sys.modules["meshseg.denoise"]  # meshseg.denoise is the function
BUFFERS = ("prod", "inv", "inv_sum", "move", "flags", "median", "candidate")


def dirty_work(n):
    """A workspace of *n* columns holding what no step would write."""
    work = _WeiszfeldWork(n)
    for name in BUFFERS:
        buf = getattr(work, name)
        buf[...] = True if buf.dtype == bool else np.nan
    return work


def stuck_columns():
    """As ``test_l1_oracle.test_weiszfeld_stuck_column``: column 0 is
    stuck at its weighted mean among columns that keep moving."""
    points, weights, wsum = ring_columns(200, 5, slots=(2, 3))
    points[:, :, 0] = [[-10.0, 10.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    weights[:, 0] = [5e-324, 5e-324, 0.0]
    wsum[0] = 1e-323
    return points, weights, wsum


CASES = {
    "compacts": lambda: ring_columns(3000, 0),
    "settles-at-once": lambda: ring_columns(500, 4, slots=(1,)),
    "no-columns": lambda: (np.zeros((3, 3, 0)), np.zeros((3, 0)), np.zeros(0)),
    "stuck-column": stuck_columns,
}


@pytest.mark.parametrize("case", list(CASES))
def test_weiszfeld_workspace_changes_nothing(case):
    """A wider dirty workspace, and the same one again after a call on
    other columns: the same bytes as the loop without dropping, and the
    inputs left as they were. (``test_l1_oracle`` runs each call in a
    workspace of its own size.)"""
    points, weights, wsum = CASES[case]()
    inputs = [a.copy() for a in (points, weights, wsum)]
    want = full_weiszfeld(points, weights, wsum).tobytes()
    work = dirty_work(len(wsum) + 1000)
    assert _weiszfeld(points, weights, wsum, work).tobytes() == want
    _weiszfeld(*ring_columns(len(wsum) + 1000, 9), work)
    assert _weiszfeld(points, weights, wsum, work).tobytes() == want
    for before, after in zip(inputs, (points, weights, wsum)):
        assert before.tobytes() == after.tobytes()
    if case == "stuck-column":
        assert _weiszfeld(points, weights, wsum, work)[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_weiszfeld_workspace_run_compacts(monkeypatch):
    """The "compacts" case drops settled columns while it works in the
    wider workspace."""
    calls = _compactions(monkeypatch)
    _weiszfeld(*CASES["compacts"](), dirty_work(4000))
    assert calls, "no column was dropped"


def noisy(mesh):
    return add_noise(mesh, NoiseSpec(0.5, "normal", seed=23))


PARAMS = L1Params(40.0, 6, 0)


def test_every_sweep_of_a_call_reuses_its_workspace(monkeypatch):
    mesh = noisy(cube(8))
    topo, geometry = mesh.topology, face_geometry(mesh)
    seen = []
    weiszfeld = DENOISE._weiszfeld

    def spy(points, weights, wsum, work):
        seen.append(work)
        return weiszfeld(points, weights, wsum, work)

    monkeypatch.setattr(DENOISE, "_weiszfeld", spy)
    first = filter_l1median(topo, geometry, PARAMS)
    second = filter_l1median(topo, geometry, PARAMS)
    monkeypatch.undo()
    assert first.tobytes() == second.tobytes() == filter_l1median(topo, geometry, PARAMS).tobytes()
    assert len(seen) == 2 * PARAMS.n_iter, "a sweep had no gated face"
    calls = seen[: PARAMS.n_iter], seen[PARAMS.n_iter :]
    for works in calls:
        for work in works:
            assert isinstance(work, _WeiszfeldWork)
            for name in BUFFERS:
                assert np.shares_memory(getattr(work, name), getattr(works[0], name)), name
    for name in BUFFERS:
        assert not np.shares_memory(getattr(calls[0][0], name), getattr(calls[1][0], name)), name


def test_calls_in_threads_give_the_serial_bytes():
    """Calls on two meshes of other sizes run at once, more threads than
    cores, with a short switch interval: each result equals its serial
    bytes, so no call reads another's working set."""
    jobs = []
    for mesh in (noisy(cube(8)), noisy(icosahedron(8))):
        jobs.append((mesh.topology, face_geometry(mesh)))
    serial = [filter_l1median(topo, geometry, PARAMS).tobytes() for topo, geometry in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(filter_l1median, *job, PARAMS) for job in jobs * 3]
            got = [future.result(timeout=120).tobytes() for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == serial * 3
