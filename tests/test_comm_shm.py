"""Shm drills: the shared process-backend drill set plus ``/dev/shm`` lifecycle.

The backend bit-parity matrix (exchange/allreduce/operator/cg ×
rank grids × boundary phases × dtypes) and the fault/teardown drill set
every process backend runs live in ``tests/test_comm_backends.py``; this
module runs the drill set against shm and keeps what is inherently about
the shared-memory transport: segment unlinking and worker joining.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.comm import RankGrid, ShmComm
from tests.test_comm_backends import FaultDrills, TeardownDrills, _proc_alive

LATTICE_SHAPE = (4, 4, 4, 4, 4, 3)


def _segment_names(prefix: str) -> list[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        pytest.skip("no /dev/shm on this platform")
    return [n for n in os.listdir(shm_dir) if prefix in n]


class TestTeardown(TeardownDrills):
    backend = "shm"

    def test_close_unlinks_segments(self):
        comm = ShmComm(RankGrid((2, 1, 1, 1)))
        prefix = comm._prefix
        comm.alloc_blocks(comm.new_key("x"), LATTICE_SHAPE, np.complex128)
        assert _segment_names(prefix)
        comm.close()
        assert not _segment_names(prefix)

    def test_workers_joined_after_close(self):
        comm = ShmComm(RankGrid((2, 1, 1, 1)))
        pids = list(comm._pids)
        assert all(_proc_alive(p) for p in pids)
        comm.close()
        assert not any(_proc_alive(p) for p in pids)


class TestFaultTolerance(FaultDrills):
    """Rank death, injected comm faults, and leak-free teardown under both."""

    backend = "shm"
