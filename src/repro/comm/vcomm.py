"""The virtual communicator: every rank in this process, run in turn.

:class:`VirtualComm` is the in-process transport of
:class:`~repro.comm.process.ProcessComm`.  Each rank is a
:class:`~repro.comm.executor.RankExecutor` whose blocks *are* the
master's block arrays, and a command runs on the ranks one after another
inside ``_send``.  Ghosts are pulled from sibling blocks, as shm's ranks
pull them from neighbour segments, so the data motion, the arithmetic and
the trace are those of every other backend; the machine model turns the
trace into time at scale.
"""

from __future__ import annotations

from collections import deque

from repro.comm.executor import RankExecutor
from repro.comm.process import ProcessComm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace

__all__ = ["VirtualComm"]


class _SiblingExecutor(RankExecutor):
    """A rank whose blocks are the master's arrays: ghosts are *pulled*
    from the sibling ranks' blocks instead of pushed over peers."""

    def __init__(self, rank: int, grid: RankGrid, table: dict, stencil) -> None:
        super().__init__(rank, grid)
        self._table = table  # the master's block table: key -> (shape, dtype, arrays)
        self._stencil = stencil  # ranks run in turn, so they share one scratch set

    def _new_block(self, key, shape, dtype):
        return self._table[key][2][self.rank]

    def _send_faces(self, arr, s0, w):
        return None  # siblings pull

    def _neighbour_face(self, key, nb, mu, role, src_idx, ghost):
        return self._table[key][2][nb][src_idx]


class VirtualComm(ProcessComm):
    """A communicator whose ranks run sequentially inside this process.

    Exact, dependency-free and available at any rank count.  The ranks
    count into this process's telemetry registry directly, so there are
    no worker metrics to gather.
    """

    _ship_blocks = False

    def __init__(self, grid: RankGrid, trace: CommTrace | None = None) -> None:
        from repro.kernels.halo import HaloStencil

        super().__init__(grid, trace)
        stencil = HaloStencil()
        self._ranks = [
            _SiblingExecutor(r, self.grid, self._blocks, stencil) for r in self.grid.all_ranks()
        ]
        self._acks: list[deque] = [deque() for _ in self._ranks]

    def _send(self, rank, msg, payload):
        seq, cmd, _ = msg
        self._acks[rank].append(self._ranks[rank].respond(seq, cmd, payload))

    def _recv(self, rank, timeout):
        return self._acks[rank].popleft()

    def _release(self):
        self._ranks.clear()

    def gather_worker_metrics(self, timeout: float = 5.0) -> dict[int, dict]:
        return {}
