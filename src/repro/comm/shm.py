"""Process-parallel SPMD backend: one OS process per rank over shared memory.

Where :class:`~repro.comm.VirtualComm` executes all ranks sequentially in
one process, :class:`ShmComm` runs each rank as a real worker process (the
paper's SPMD model on the cores of one node).  Rank-local fields live in
named ``multiprocessing.shared_memory`` segments, so a halo exchange is a
real face-slab copy from a neighbour's segment into the rank's own ghost
shell, and every rank stencils its block in parallel with the others.

Execution model
---------------
* The master protocol is :class:`~repro.comm.process.ProcessComm`; the
  ranks run the shared :meth:`~repro.comm.executor.RankExecutor.serve`
  loop over one pipe each.  Commands and acks travel over the pipes; the
  block data never does, because the master's block arrays *are* the
  rank segments.
* The ghost fill is *pull*-style (:class:`_SegmentExecutor`): each rank
  writes only its own ghost shells and reads only neighbour interiors,
  which are stable for the duration of the command, and the face slabs
  carry interior extents on orthogonal axes
  (:func:`~repro.comm.halo.face_index`), so concurrent writes never
  overlap concurrent reads and no intra-command barrier is needed.

The master owns segment lifetime: workers attach by name and deregister
from the ``resource_tracker`` so only :meth:`ShmComm.close` unlinks (the
documented double-unlink workaround for Python < 3.13).
"""

from __future__ import annotations

import os
import uuid
from multiprocessing import shared_memory

import numpy as np

from repro.comm.errors import CommPeerError, CommTimeoutError
from repro.comm.executor import RankExecutor, detach_from_master
from repro.comm.process import ProcessComm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace

__all__ = ["ShmComm"]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a master-owned segment without adopting its lifetime.

    The resource tracker keys its cache by segment *name*, so letting the
    attach register (and later unregister) the name would erase the
    master's own registration and turn the final unlink into a tracker
    error.  Suppressing registration during the attach leaves exactly one
    owner — the master — as on Python >= 3.13's ``track=False``.
    """
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


class _SegmentExecutor(RankExecutor):
    """A rank whose blocks are shared segments: ghosts are *pulled* from
    neighbour segments instead of pushed over peers."""

    def __init__(self, rank: int, grid: RankGrid, prefix: str) -> None:
        super().__init__(rank, grid)
        self._prefix = prefix
        self._specs: dict[str, tuple[tuple[int, ...], np.dtype]] = {}
        self._segments: dict[tuple[str, int], shared_memory.SharedMemory] = {}
        self._arrays: dict[tuple[str, int], np.ndarray] = {}

    def _attach(self, key: str, r: int) -> np.ndarray:
        arr = self._arrays.get((key, r))
        if arr is None:
            shape, dtype = self._specs[key]
            seg = self._segments[(key, r)] = _attach_segment(f"{self._prefix}-{key}-{r}")
            arr = self._arrays[(key, r)] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        return arr

    def _new_block(self, key, shape, dtype):
        self._specs[key] = (shape, dtype)
        return self._attach(key, self.rank)

    def _send_faces(self, arr, s0, w):
        return None  # neighbours pull

    def _neighbour_face(self, key, nb, mu, role, src_idx, ghost):
        return self._attach(key, nb)[src_idx]

    def close(self) -> None:
        self._arrays.clear()
        self.blocks.clear()
        for seg in self._segments.values():
            try:
                seg.close()
            except Exception:
                pass


class _PipeChannel:
    """A rank's end of its command pipe (the executor's control channel)."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def recv(self):
        (seq, cmd, _), raw = self._conn.recv()
        return seq, cmd, raw

    def send(self, ack, raw) -> None:
        self._conn.send((ack, raw))


def _rank_main(rank: int, grid: RankGrid, conn, prefix: str) -> None:
    """Body of one shm rank process: serve commands until ``stop``."""
    detach_from_master()
    executor = _SegmentExecutor(rank, grid, prefix)
    try:
        executor.serve(_PipeChannel(conn))
    finally:
        executor.close()
        conn.close()


class ShmComm(ProcessComm):
    """A communicator whose ranks are real processes over shared memory.

    The master's block arrays are views of the rank segments, so block
    commands carry no data; :meth:`close` also unlinks every segment,
    including after a rank failure.
    """

    _ship_blocks = False

    def __init__(
        self,
        grid: RankGrid,
        trace: CommTrace | None = None,
        timeout: float = 120.0,
        start_method: str | None = None,
        fault_injector=None,
    ) -> None:
        super().__init__(grid, trace, timeout, fault_injector)
        self._prefix = f"repro-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._segments: list[shared_memory.SharedMemory] = []
        self._pipes: list = [None] * self.nranks

        def args_of(ctx, r):
            self._pipes[r], child = ctx.Pipe()
            return (r, self.grid, child, self._prefix)

        try:
            self._spawn(self.nranks, _rank_main, args_of, start_method, "shm")
        except BaseException:
            self.close()
            raise

    # -- transport ------------------------------------------------------------

    def _new_blocks(self, key, shape, dtype):
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        views = []
        for r in self.grid.all_ranks():
            seg = shared_memory.SharedMemory(
                create=True, size=nbytes, name=f"{self._prefix}-{key}-{r}"
            )
            self._segments.append(seg)
            arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
            arr[...] = 0
            views.append(arr)
        return views

    def _send(self, rank, msg, payload):
        try:
            self._pipes[rank].send((msg, payload))
        except (OSError, ValueError) as e:
            raise CommPeerError(f"send failed ({e})") from e

    def _recv(self, rank, timeout):
        pipe = self._pipes[rank]
        try:
            if not pipe.poll(timeout):
                raise CommTimeoutError(f"no reply within {timeout}s")
            return pipe.recv()
        except (EOFError, OSError) as e:
            raise CommPeerError(f"worker died ({e!r})") from e

    def _release(self):
        for pipe in self._pipes:
            if pipe is not None:
                pipe.close()
        for seg in self._segments:
            for release in (seg.close, seg.unlink):  # unlink even if close fails
                try:
                    release()
                except Exception:
                    pass
        self._segments.clear()
