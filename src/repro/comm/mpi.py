"""Optional ``mpi4py`` fast path behind the same master-driven interface.

When ``mpi4py`` is importable, :class:`MpiComm` offers the ``tcp``
backend's exact interface — the shared master protocol
(:class:`~repro.comm.process.ProcessComm`), worker-resident blocks,
mirror synchronisation, in-order ``allreduce_sum`` — but moves every byte
through MPI instead of raw sockets, so a site with a tuned MPI stack
(InfiniBand, slingshot, vendor collectives under ``MPI_Send``) gets that
fabric for free.  The rank processes are spawned dynamically with
``MPI.COMM_SELF.Spawn`` and run the shared
:meth:`~repro.comm.executor.RankExecutor.serve` loop with push ghost
fill, so results are bit-identical to every other backend.

The backend registers itself in :func:`repro.comm.registry.available_comms`
only when the import succeeds; requesting ``mpi`` explicitly without
``mpi4py`` raises the typed
:class:`~repro.comm.errors.CommUnavailableError` (the same degrade-loudly
pattern the kernel registry uses for ``numba``).  This container ships no
MPI, so only the degradation branch is exercised by the test suite; the
happy path mirrors ``tcp`` one-for-one by construction.  MPI receives
have no deadline, so the ``timeout`` argument does not bound an ack wait.
"""

from __future__ import annotations

import numpy as np

from repro.comm.errors import CommUnavailableError
from repro.comm.executor import RankExecutor
from repro.comm.process import ProcessComm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace

__all__ = ["MpiComm", "mpi_available", "require_mpi"]

#: Message tags on the spawned intercommunicator.
_TAG_CMD = 1
_TAG_RAW = 2
_TAG_ACK = 3


def mpi_available() -> bool:
    """True when ``mpi4py`` imports (checked lazily, never at module import)."""
    try:
        import mpi4py  # noqa: F401
    except Exception:
        return False
    return True


def require_mpi():
    """Return the ``mpi4py.MPI`` module or raise the typed unavailability."""
    try:
        from mpi4py import MPI
    except Exception as e:  # pragma: no cover - depends on site install
        raise CommUnavailableError(
            "comm backend 'mpi' requires mpi4py, which is not importable; "
            "install mpi4py or choose one of the always-available backends "
            "(see repro.comm.available_comms())"
        ) from e
    return MPI  # pragma: no cover - depends on site install


class _MpiPeers:
    """Rank↔rank face transport over an MPI intracommunicator.

    Matches the :class:`~repro.comm.executor.PeerTransport` duck type:
    frame tags map onto MPI message tags directly, so the same
    ``(peer, tag)`` matching that the socket transport implements with a
    stash is done by the MPI matching engine.
    """

    def __init__(self, comm) -> None:  # pragma: no cover - needs mpi4py
        self._comm = comm

    def send_one(self, peer: int, tag: int, payload: bytes) -> None:  # pragma: no cover
        self._comm.Send([np.frombuffer(payload, dtype=np.uint8), len(payload)], dest=peer, tag=tag)

    def recv(self, peer: int, tag: int) -> bytes:  # pragma: no cover - needs mpi4py
        status = require_mpi().Status()
        self._comm.Probe(source=peer, tag=tag, status=status)
        buf = np.empty(status.Get_count(), dtype=np.uint8)
        self._comm.Recv([buf, buf.size], source=peer, tag=tag)
        return buf.tobytes()


class _MpiChannel:  # pragma: no cover - needs mpi4py
    """A spawned rank's command channel over the parent intercommunicator."""

    def __init__(self, parent) -> None:
        self._parent = parent

    def recv(self):
        seq, cmd, has_raw = self._parent.recv(source=0, tag=_TAG_CMD)
        raw = self._parent.recv(source=0, tag=_TAG_RAW) if has_raw else None
        return seq, cmd, raw

    def send(self, ack, raw) -> None:
        self._parent.send((ack, raw), dest=0, tag=_TAG_ACK)


def _mpi_worker_main() -> None:  # pragma: no cover - runs inside mpiexec-spawned ranks
    """Entry point of a spawned MPI rank (see ``MpiComm.__init__``)."""
    MPI = require_mpi()
    parent = MPI.Comm.Get_parent()
    world = MPI.COMM_WORLD
    cfg = parent.bcast(None, root=0)
    executor = RankExecutor(world.Get_rank(), RankGrid(tuple(cfg["dims"])), _MpiPeers(world))
    executor.serve(_MpiChannel(parent))
    parent.Disconnect()


class MpiComm(ProcessComm):
    """Master-driven communicator over dynamically spawned MPI ranks.

    Interface-identical to :class:`~repro.comm.tcp.TcpComm`; only the
    transport differs.  Constructing it without ``mpi4py`` raises
    :class:`~repro.comm.errors.CommUnavailableError`.
    """

    def __init__(
        self,
        grid: RankGrid,
        trace: CommTrace | None = None,
        timeout: float = 120.0,
        fault_injector=None,
    ) -> None:
        MPI = require_mpi()  # raises CommUnavailableError when absent
        # pragma: no cover start - everything below needs a live MPI runtime
        super().__init__(grid, trace, timeout, fault_injector)
        import sys

        self._inter = MPI.COMM_SELF.Spawn(
            sys.executable,
            args=["-c", "import repro.comm.mpi as m; m._mpi_worker_main()"],
            maxprocs=self.nranks,
        )
        self._inter.bcast({"dims": self.grid.dims}, root=MPI.ROOT)

    def _send(self, rank, msg, payload):  # pragma: no cover - needs mpi4py
        self._inter.send(msg, dest=rank, tag=_TAG_CMD)
        if payload is not None:
            self._inter.send(payload, dest=rank, tag=_TAG_RAW)

    def _recv(self, rank, timeout):  # pragma: no cover - needs mpi4py
        return self._inter.recv(source=rank, tag=_TAG_ACK)

    def _release(self) -> None:  # pragma: no cover - needs mpi4py
        self._inter.Disconnect()
