"""The master side shared by every communicator (virtual, shm, tcp, mpi).

:class:`ProcessComm` is the communicator protocol for backends whose ranks
are :class:`repro.comm.executor.RankExecutor` instances driven by master
commands — in this process (``virtual``) or in rank processes running
:meth:`~repro.comm.executor.RankExecutor.serve` (shm, tcp, mpi):
the block table and keys, trace recording, the in-order reduction,
checksums, the block commands the decomposed operator drives
(:meth:`~ProcessComm.exchange_shared`, :meth:`~ProcessComm.dagger_shared`,
:meth:`~ProcessComm.run_dslash`), health, the worker-metrics merge, the
context protocol, and the ack sweep with its fault-injector hooks.

A backend subclass supplies only its transport:

* starting the ranks (its ``__init__``, via :meth:`_spawn` for processes);
* ``_send(rank, msg, payload)`` — one command ``msg = (seq, cmd,
  has_payload)`` plus an optional raw per-rank payload;
* ``_recv(rank, timeout)`` — one ``((seq, status, meta), raw)`` ack;
* ``_sever(rank)`` — cut a rank it did not start (``kill_rank``);
* ``_release()`` — close channels and free OS resources in ``close``;
* optionally ``_new_blocks`` (where block storage lives) and
  ``_ship_blocks`` (whether the master's block arrays are mirrors that
  commands must carry to the ranks and back).

Transport faults surface as typed :class:`~repro.comm.errors.CommError`
subclasses (all ``RuntimeError``, so ``run_resilient`` retries them).

**Sequence-numbered acks.**  Every command carries a sequence number that
its ack echoes.  After a command times out, its late acks are still in
the channel; the sweep discards acks older than the command it awaits and
raises a typed :class:`CommError` on any other mismatch, so one slow rank
can never make a later command read the previous command's reply.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import signal
import time
import zlib

import numpy as np

from repro.comm.decomposition import Decomposition
from repro.comm.errors import CommError, CommPeerError, CommTimeoutError
from repro.comm.halo import face_bytes_of_shape, record_exchange_trace
from repro.comm.lifecycle import discard_live_comm, register_live_comm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace
from repro.lattice import Lattice4D
from repro.telemetry import registry as _tm_registry
from repro.telemetry.state import STATE

__all__ = ["ProcessComm"]

#: Deadline of the best-effort teardown round (``stop`` acks).
_STOP_TIMEOUT = 2.0


class ProcessComm:
    """A communicator whose ranks are driven by master commands.

    The comm protocol (``decompose`` / ``allreduce_sum`` /
    ``record_compute`` / ``trace``) plus the per-rank block API the
    decomposed operator uses: :meth:`alloc_blocks`,
    :meth:`exchange_shared`, :meth:`dagger_shared`, :meth:`run_dslash`.

    Use as a context manager, or call :meth:`close` — teardown stops the
    ranks and releases every OS resource even after a rank failure.
    """

    #: True when the master's block arrays are mirrors of rank memory, so
    #: block commands carry their source block and return their result.
    _ship_blocks = True

    def __init__(
        self,
        grid: RankGrid,
        trace: CommTrace | None = None,
        timeout: float = 120.0,
        fault_injector=None,
    ) -> None:
        if not isinstance(grid, RankGrid):
            grid = RankGrid(tuple(grid))
        self.grid = grid
        self.trace = trace if trace is not None else CommTrace()
        self.timeout = float(timeout)
        # Duck-typed hook (see repro.campaign.faults.FaultInjector): consulted
        # around every command send/ack so tests and the campaign harness can
        # kill a rank, delay an ack, or drop an ack at a chosen command.
        self._faults = fault_injector
        self._blocks: dict[str, tuple[tuple[int, ...], str, list[np.ndarray]]] = {}
        self._key_counter = 0
        self._seq = 0
        self._closed = False
        self._procs: list = [None] * grid.nranks  # local rank processes
        self._pids: list[int | None] = [None] * grid.nranks
        self._dead: set[int] = set()  # ranks whose channel is known broken
        register_live_comm(self)

    # -- transport hooks ------------------------------------------------------

    def _send(self, rank: int, msg: tuple, payload: bytes | None) -> None:
        raise NotImplementedError

    def _recv(self, rank: int, timeout: float) -> tuple[tuple, bytes | None]:
        raise NotImplementedError

    def _sever(self, rank: int) -> None:
        raise NotImplementedError(f"{type(self).__name__} cannot cut rank {rank}")

    def _release(self) -> None:
        """Close channels and free OS resources (after the stop round)."""

    def _new_blocks(self, key: str, shape: tuple[int, ...], dtype: np.dtype) -> list[np.ndarray]:
        return [np.zeros(shape, dtype=dtype) for _ in self.grid.all_ranks()]

    def _spawn(self, n_local: int, target, args_of, start_method: str | None, name: str) -> None:
        """Start local rank processes ``0 .. n_local-1`` running ``target``."""
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(start_method)
        for r in range(n_local):
            args = args_of(ctx, r)
            proc = ctx.Process(target=target, args=args, daemon=True, name=f"{name}-rank-{r}")
            proc.start()
            # A pipe end handed to the rank belongs to it: drop the master's
            # copy so a dead rank reads as EOF and later forks don't inherit it.
            for arg in args:
                if isinstance(arg, mp.connection.Connection):
                    arg.close()
            self._procs[r] = proc
            self._pids[r] = proc.pid

    # -- comm protocol --------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.grid.nranks

    def decompose(self, lattice: Lattice4D) -> Decomposition:
        return Decomposition(lattice, self.grid)

    def allreduce_sum(self, partials) -> complex | float:
        """Gather-at-root global sum, reduced in rank order.

        Each partial makes a real round trip through its rank, widened to
        complex128; the master sums the echoed values in rank order, so
        the result is bit-identical on every backend.
        """
        if len(partials) != self.nranks:
            raise ValueError(f"expected {self.nranks} partials, got {len(partials)}")
        payloads = [np.asarray(p, dtype=np.complex128).tobytes() for p in partials]
        echoes = self._command(("reduce",), payloads)
        total = np.frombuffer(echoes[0][1], dtype=np.complex128)[0]
        for r in range(1, self.nranks):
            total = total + np.frombuffer(echoes[r][1], dtype=np.complex128)[0]
        self.trace.record_collective(
            "allreduce_sum", np.asarray(partials[0]).nbytes, self.nranks
        )
        if np.iscomplexobj(np.asarray(partials[0])):
            return complex(total)
        return float(total.real)

    def record_compute(self, kernel: str, flops_per_rank: int) -> None:
        self.trace.record_compute(kernel, flops_per_rank, self.nranks)

    # -- health & fault injection ---------------------------------------------

    def workers_alive(self) -> list[bool]:
        """Per-rank liveness (local: process state; others: channel state)."""
        return [
            bool(proc.is_alive()) if proc is not None else r not in self._dead
            for r, proc in enumerate(self._procs)
        ]

    @property
    def healthy(self) -> bool:
        """True while the comm is open and every rank is alive."""
        return not self._closed and all(self.workers_alive())

    def ping(self) -> bool:
        """Full command/ack round trip through every rank (the watchdog probe).

        An empty ``declare`` is a no-op on the ranks but still traverses
        every channel, so a dead, wedged, or deadlocked rank surfaces as a
        typed :class:`CommError` instead of a later mid-physics hang.
        """
        self._command(("declare", []))
        return True

    def kill_rank(self, rank: int, sig: int = signal.SIGKILL) -> None:
        """Fault-injection hook: take one rank down hard.

        A local rank gets ``sig`` (SIGKILL models node failure — no
        cleanup, exactly like a production rank loss); a rank the master
        did not start has its channel severed, the strongest action the
        master has across hosts.
        """
        proc = self._procs[rank]
        if proc is None:
            self._sever(rank)
            self._dead.add(rank)
            return
        if proc.is_alive() and proc.pid is not None:
            os.kill(proc.pid, sig)
        proc.join(timeout=5.0)

    # -- per-rank block API ---------------------------------------------------

    def new_key(self, tag: str) -> str:
        """A fresh name-safe block key (operators may share one comm)."""
        self._key_counter += 1
        return f"{tag}{self._key_counter}"

    def alloc_blocks(self, key: str, shape: tuple[int, ...], dtype) -> list[np.ndarray]:
        """Allocate one zero-filled block per rank; return the master's arrays."""
        self._check_open()
        if key in self._blocks:
            raise ValueError(f"block key {key!r} already allocated")
        dt = np.dtype(dtype)
        shape = tuple(shape)
        views = self._new_blocks(key, shape, dt)
        self._blocks[key] = (shape, dt.str, views)
        self._command(("declare", [(key, shape, dt.str)]))
        return views

    def blocks(self, key: str) -> list[np.ndarray]:
        """The master's arrays of an allocated block set."""
        return self._blocks[key][2]

    def block_checksums(self, key: str) -> list[int]:
        """Per-rank CRC32 of a block set's current bytes (ABFT guard hook).

        The ABFT guard layer (:mod:`repro.guard.abft`) compares these
        against encode-time values to localise silent corruption of the
        link halos to a rank.  Master arrays are rank memory itself
        (virtual, shm) or mirrors synchronised by every command that
        touches the key, so between commands they are exact copies of the
        rank blocks.
        """
        self._check_open()
        return [zlib.crc32(np.ascontiguousarray(view)) for view in self.blocks(key)]

    def exchange_shared(
        self,
        key: str,
        width: int = 1,
        site_axis_start: int = 0,
        phases: tuple[complex, complex, complex, complex] | None = None,
    ) -> None:
        """Rank-parallel halo exchange of a block set, with trace."""
        self._check_open()
        self._record_exchange(key, width)
        self._block_command(("exchange", key, width, site_axis_start, phases), key, key)

    def dagger_shared(self, u_key: str, udag_key: str) -> None:
        """Each rank daggers its own gauge halo block into ``udag_key``."""
        self._command(("dagger", u_key, udag_key))

    def run_dslash(
        self,
        psi_key: str,
        out_key: str,
        u_key: str,
        udag_key: str,
        phases: tuple[complex, complex, complex, complex],
        diag: float,
        width: int = 1,
    ) -> None:
        """One Wilson apply on every rank: exchange, then stencil the interior.

        The links stay rank-resident from construction; on mirror
        transports only the source fermion travels with the command and
        only the result block comes back.
        """
        self._check_open()
        self._record_exchange(psi_key, width)
        self._block_command(
            ("dslash", psi_key, out_key, u_key, udag_key, width, phases, diag),
            psi_key,
            out_key,
        )

    # -- telemetry aggregation ------------------------------------------------

    def gather_worker_metrics(self, timeout: float = 5.0) -> dict[int, dict]:
        """Pull each rank's telemetry snapshot into the master's registry.

        Rank counters land under a ``rank<r>/`` prefix (e.g.
        ``rank2/commands/dslash``).  Returns the raw per-rank snapshots.
        Best-effort: a dead or slow rank is skipped, never raised on —
        this runs inside :meth:`close`.
        """
        replies, _ = self._round(("telemetry",), None, timeout, hooks=False)
        snaps = {
            r: reply[0]
            for r, reply in enumerate(replies)
            if reply is not None and isinstance(reply[0], dict)
        }
        reg = _tm_registry.get_registry()
        for r, snap in snaps.items():
            reg.merge(snap, prefix=f"rank{r}/")
        return snaps

    # -- internals ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def _record_exchange(self, key: str, width: int = 1) -> None:
        shape, dtype, _ = self._blocks[key]
        s0 = len(shape) - 6  # site axes end 6 before the (spin|dir, color) tail
        # Fermion blocks are (t,z,y,x,4,3) -> s0=0; gauge (4,t,z,y,x,3,3) -> s0=1.
        itemsize = np.dtype(dtype).itemsize
        nbytes = [face_bytes_of_shape(shape, s0, width, mu, itemsize) for mu in range(4)]
        record_exchange_trace(self.trace, self.grid, nbytes)

    def _block_command(self, cmd: tuple, src_key: str, dst_key: str) -> None:
        """Run a block command; on mirror transports carry ``src_key``'s
        mirrors to the ranks and land the result in ``dst_key``'s."""
        if not self._ship_blocks:
            self._command(cmd)
            return
        replies = self._command(cmd, [m.tobytes() for m in self.blocks(src_key)])
        for m, (_, raw) in zip(self.blocks(dst_key), replies):
            m[...] = np.frombuffer(raw, dtype=m.dtype).reshape(m.shape)

    def _command(self, cmd: tuple, payloads: list[bytes] | None = None) -> list[tuple]:
        """Broadcast ``cmd`` (+ optional per-rank raw payload), sweep the acks.

        Returns each rank's ``(meta, raw)`` reply.  Any rank failing —
        timeout, death, torn frame, or an error ack — aborts the command
        with a typed :class:`CommError` naming every failed rank; if
        *every* failure was a deadline, the more specific
        :class:`CommTimeoutError` is raised so callers can tell a wedged
        rank set from a dead one.
        """
        self._check_open()
        replies, errors = self._round(cmd, payloads, self.timeout, hooks=True)
        if errors:
            detail = "\n".join(f"rank {r}: {e}" for r, e in errors)
            timeouts = all(isinstance(e, CommTimeoutError) for _, e in errors)
            cls = CommTimeoutError if timeouts else CommError
            raise cls(
                f"{type(self).__name__} command {cmd[0]!r} failed on "
                f"{len(errors)} rank(s):\n{detail}"
            )
        return replies

    def _round(self, cmd, payloads, timeout: float, hooks: bool):
        """One command round over every live rank: ``(replies, errors)``."""
        self._seq += 1
        seq = self._seq
        faults = self._faults if hooks else None
        errors: list[tuple[int, Exception]] = []
        sent: list[int] = []
        for r in self.grid.all_ranks():
            if faults is not None:
                faults.fire_pre_send(self, seq, r)
            if r in self._dead:
                errors.append((r, CommPeerError("rank is dead")))
                continue
            try:
                self._send(r, (seq, cmd, payloads is not None), None if payloads is None else payloads[r])
                sent.append(r)
            except CommError as e:
                self._dead.add(r)
                errors.append((r, e))
        replies: list[tuple | None] = [None] * self.nranks
        for r in sent:
            drop_ack = False
            if faults is not None:
                delay, drop_ack = faults.fire_pre_recv(self, seq, r)
                if delay > 0.0:
                    time.sleep(delay)
            try:
                status, meta, raw = self._await_ack(r, seq, timeout)
            except CommTimeoutError as e:
                errors.append((r, e))  # the late ack is discarded by seq later
                continue
            except CommError as e:
                self._dead.add(r)
                errors.append((r, e))
                continue
            if drop_ack:
                # Consume the ack (keeping the channel in sync) but treat it
                # as lost — the injected-network-fault path.
                errors.append((r, CommPeerError("ack dropped (injected fault)")))
            elif status != "ok":
                errors.append((r, CommError(str(meta))))
            else:
                replies[r] = (meta, raw)
        return replies, errors

    def _await_ack(self, r: int, seq: int, timeout: float):
        """Receive rank ``r``'s ack of command ``seq``, skipping stale acks."""
        while True:
            (ack_seq, status, meta), raw = self._recv(r, timeout)
            if ack_seq == seq:
                return status, meta, raw
            if ack_seq > seq:
                raise CommError(f"ack for command {ack_seq} while awaiting {seq}")

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Stop the ranks, release every OS resource.  Idempotent; never raises."""
        if self._closed:
            return
        if STATE.counting:
            try:
                self.gather_worker_metrics()
            except Exception:
                pass
        self._closed = True
        discard_live_comm(self)
        for step in (self._stop_round, self._release):
            try:
                step()
            except Exception:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            try:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
                proc.close()  # release the sentinel fd
            except Exception:
                pass
        self._blocks.clear()

    def _stop_round(self) -> None:
        self._round(("stop",), None, _STOP_TIMEOUT, hooks=False)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort safety net; tests close explicitly
        try:
            self.close()
        except Exception:
            pass
