"""The rank executor shared by every communicator backend.

A rank is a loop: receive a command from the master, act on rank-local
blocks (allocate, fill ghosts, stencil), and acknowledge.  Everything
about that loop except *how bytes move* is the same whether the ranks run
in the master's process (:mod:`repro.comm.vcomm`), share memory
(:mod:`repro.comm.shm`), talk over TCP sockets (:mod:`repro.comm.tcp`) or
over an MPI communicator (:mod:`repro.comm.mpi`), so it lives here once:
:class:`RankExecutor` holds the block table, the command semantics,
:meth:`~RankExecutor.respond` and the process loop
:meth:`~RankExecutor.serve`.  A backend supplies a control channel
(``recv``/``send``, or direct :meth:`~RankExecutor.respond` calls in
process) plus, for the halo exchange, either a peer transport (push) or
an executor subclass that reads neighbour blocks directly (pull).

Every command carries the master's sequence number and every ack echoes
it, so a master that gave up on a slow ack can recognise and discard it
when it arrives late (see :class:`repro.comm.process.ProcessComm`).

The halo exchange fills each ghost shell from the neighbour's opposite
interior slab: along each decomposed axis the rank's ``ghost_hi`` comes
from the ``+mu`` neighbour's ``src_lo`` and ``ghost_lo`` from the ``-mu``
neighbour's ``src_hi``; undecomposed axes are local copies.  Slab indices
come from :func:`~repro.comm.halo.face_index` — the single source of truth
shared with the sequential oracle :func:`~repro.comm.halo.halo_exchange` —
and boundary phases are applied by the *receiver* after the copy, in the
same order as ``halo_exchange``, so the filled arrays are bit-identical
across every backend.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback

import numpy as np

from repro.comm.errors import CommError
from repro.comm.frame import face_tag
from repro.comm.halo import face_index
from repro.comm.rankgrid import RankGrid
from repro.telemetry import registry as _tm_registry

__all__ = ["PeerTransport", "RankExecutor", "detach_from_master"]


class PeerTransport:
    """Duck-typed peer data mover (see :class:`repro.comm.tcp._SocketPeers`).

    ``send_one(peer_rank, tag, bytes)`` pushes one tagged message (run on
    a helper thread by the executor so sends and receives overlap);
    ``recv(peer_rank, tag)`` blocks for one tagged message from a peer,
    raising a typed :class:`~repro.comm.errors.CommError` on timeout,
    peer death, or a torn frame.
    """

    def send_one(self, peer: int, tag: int, payload: bytes) -> None:
        raise NotImplementedError

    def recv(self, peer: int, tag: int) -> bytes:
        raise NotImplementedError


class _ThreadedSends:
    """Run a transport's blocking sends on a helper thread.

    Concurrent send/recv is what makes the exchange deadlock-free: every
    rank can be mid-``sendall`` of a face larger than the socket buffer
    while its main thread drains the peer's frames.
    """

    def __init__(self, send_one, sends: list[tuple[int, int, bytes]]) -> None:
        self._error: BaseException | None = None

        def run() -> None:
            try:
                for peer, tag, payload in sends:
                    send_one(peer, tag, payload)
            except BaseException as e:  # re-raised by join() on the main thread
                self._error = e

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()

    def join(self) -> None:
        self._thread.join()
        if self._error is not None:
            raise self._error


def detach_from_master() -> None:
    """Set up a rank process the master spawned locally.

    The master handles ^C, and a forked rank inherits the master's
    telemetry registry: reset it so the teardown gather returns clean
    per-rank counts (spawn starts clean anyway).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _tm_registry.reset()


class RankExecutor:
    """One rank's block table + command semantics, independent of transport.

    The base class fills ghosts by *push*: faces travel through ``peers``
    (a :class:`PeerTransport`).  A backend whose ranks can read each
    other's blocks overrides :meth:`_new_block`, :meth:`_send_faces` and
    :meth:`_neighbour_face` instead.
    """

    def __init__(self, rank: int, grid: RankGrid, peers: PeerTransport | None = None) -> None:
        from repro.kernels.halo import HaloStencil

        self.rank = int(rank)
        self.grid = grid
        self.peers = peers
        self.blocks: dict[str, np.ndarray] = {}
        self._stencil = HaloStencil()

    # -- ghost-fill hooks (push over peers) -----------------------------------

    def _new_block(self, key: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def _send_faces(self, arr: np.ndarray, s0: int, w: int):
        """Start sending this rank's ``src`` slabs to its neighbours."""
        sends: list[tuple[int, int, bytes]] = []
        for mu in range(4):
            nb_hi = self.grid.neighbor(self.rank, mu, +1)
            if nb_hi == self.rank:
                continue
            nb_lo = self.grid.neighbor(self.rank, mu, -1)
            for nb, role in ((nb_hi, "src_hi"), (nb_lo, "src_lo")):
                slab = arr[face_index(arr.ndim, s0, w, mu, role)]
                sends.append(
                    (nb, face_tag(mu, role == "src_hi"), np.ascontiguousarray(slab).tobytes())
                )
        return _ThreadedSends(self.peers.send_one, sends) if sends else None

    def _neighbour_face(self, key: str, nb: int, mu: int, role: str, src_idx, ghost: np.ndarray):
        """Neighbour ``nb``'s ``role`` slab (``src_idx``) of block ``key``,
        shaped like ``ghost``."""
        buf = self.peers.recv(nb, face_tag(mu, role == "src_hi"))
        return np.frombuffer(buf, ghost.dtype).reshape(ghost.shape)

    # -- commands -------------------------------------------------------------

    def declare(self, specs: list[tuple[str, tuple[int, ...], str]]) -> None:
        """Allocate one zero-filled rank-local block per ``(key, shape, dtype)``."""
        for key, shape, dtype in specs:
            self.blocks[key] = self._new_block(key, tuple(shape), np.dtype(dtype))

    def exchange(
        self,
        key: str,
        width: int,
        site_axis_start: int,
        phases: tuple[complex, complex, complex, complex] | None,
    ) -> None:
        """Fill this rank's ghost shells from neighbour slabs + local wraps.

        Push sends run on a helper thread while this thread receives, so
        every rank makes progress regardless of face size; receives are
        matched by ``(peer, tag)`` so the two faces a width-2 grid axis
        routes over one link cannot be confused.
        """
        arr = self.blocks[key]
        ndim, s0, w, rank, grid = arr.ndim, site_axis_start, width, self.rank, self.grid
        pending = self._send_faces(arr, s0, w)
        try:
            for mu in range(4):
                for ghost_role, src_role, d in (("ghost_hi", "src_lo", +1), ("ghost_lo", "src_hi", -1)):
                    nb = grid.neighbor(rank, mu, d)
                    ghost = arr[face_index(ndim, s0, w, mu, ghost_role)]
                    src_idx = face_index(ndim, s0, w, mu, src_role)
                    if nb == rank:
                        # Undecomposed axis: the wrap is a local copy, exactly
                        # as the sequential exchange performs it.
                        ghost[...] = arr[src_idx]
                    else:
                        ghost[...] = self._neighbour_face(key, nb, mu, src_role, src_idx, ghost)
                    if phases is not None and grid.crosses_boundary(rank, mu, d):
                        ghost *= phases[mu] if d > 0 else np.conj(phases[mu])
        finally:
            if pending is not None:
                pending.join()

    def dagger(self, u_key: str, udag_key: str) -> None:
        from repro.kernels.halo import dagger_halo_links

        dagger_halo_links(self.blocks[u_key], out=self.blocks[udag_key])

    def dslash(
        self,
        psi_key: str,
        out_key: str,
        u_key: str,
        udag_key: str,
        width: int,
        phases: tuple[complex, complex, complex, complex],
        diag: float,
    ) -> None:
        """One Wilson apply on this rank: exchange, then stencil the interior."""
        self.exchange(psi_key, width, 0, phases)
        b = self.blocks
        self._stencil.wilson_into(b[out_key], b[u_key], b[udag_key], b[psi_key], width, diag)

    def execute(self, cmd: tuple, raw: bytes | None):
        """Run one command; return ``(meta, raw_reply)`` for the ack.

        On transports whose master keeps mirror copies, ``exchange`` and
        ``dslash`` arrive with ``raw``: the bytes of the command's source
        block.  They replace the block before the command runs, and the
        reply carries the result block (the exchanged block, or ``out``).
        """
        op = cmd[0]
        if op in ("exchange", "dslash"):
            if raw is not None:
                src = self.blocks[cmd[1]]
                src[...] = np.frombuffer(raw, dtype=src.dtype).reshape(src.shape)
            getattr(self, op)(*cmd[1:])
            result = self.blocks[cmd[1] if op == "exchange" else cmd[2]]
            return None, None if raw is None else result.tobytes()
        if op == "declare":
            self.declare(cmd[1])
        elif op == "dagger":
            self.dagger(cmd[1], cmd[2])
        elif op == "reduce":
            return None, raw  # gather-at-root echo: the master sums in rank order
        elif op == "sleep":
            # Fault-drill hook: wedge this rank so the master's recv deadline
            # (not a deadlock) decides the outcome.
            time.sleep(float(cmd[1]))
        elif op == "telemetry":
            return _tm_registry.snapshot(), None
        else:
            raise ValueError(f"unknown rank command {op!r}")
        return None, None

    def respond(self, seq: int, cmd: tuple, raw: bytes | None) -> tuple[tuple, bytes | None]:
        """Run one command; return its ack ``(seq, status, meta)`` and raw reply.

        A failing command becomes an ``error`` ack carrying the traceback;
        ``stop`` is acknowledged without running anything.
        """
        if cmd[0] == "stop":
            return (seq, "ok", None), None
        try:
            meta, reply = self.execute(cmd, raw)
        except Exception:
            return (seq, "error", traceback.format_exc()), None
        return (seq, "ok", meta), reply

    # -- the command loop -----------------------------------------------------

    def serve(self, channel) -> int:
        """Execute the master's commands until ``stop``.

        ``channel.recv()`` returns ``(seq, cmd, raw)`` and
        ``channel.send(ack, raw)`` sends ``ack = (seq, status, meta)``
        plus an optional raw reply.  Returns 0 on a clean ``stop`` and 1
        when the master vanished (nothing left to acknowledge).
        """
        while True:
            try:
                seq, cmd, raw = channel.recv()
            except (CommError, EOFError, OSError):
                return 1
            op = cmd[0]
            if op not in ("stop", "telemetry"):
                _tm_registry.add(f"commands/{op}", 1)
            try:
                channel.send(*self.respond(seq, cmd, raw))
            except (CommError, OSError):
                return 1
            if op == "stop":
                return 0
