"""Backend-parametrised bit-parity matrix and drill set for every communicator.

Every instantiable backend (``virtual``, ``shm``, ``tcp`` — and any future
entry of :func:`repro.comm.available_comms`) must be a bit-exact drop-in:
same ghost shells, same sums, same operator output, same solver iterates,
same trace — for every rank grid, boundary phase, and field dtype.  The
oracles are independent of every backend: the sequential
:func:`~repro.comm.halo_exchange` for ghost shells and the single-domain
:class:`~repro.dirac.WilsonDirac` for the operator.  The cases are
parametrised over the backend name, so a new backend joins the whole
matrix by registering in the comm registry.

The fault/teardown drill set every process backend must pass (ping,
kill_rank, injected kill / drop-ack / delay-ack, error acks, use after
close, the atexit sweep) is defined once here as :class:`FaultDrills` and
:class:`TeardownDrills`; ``tests/test_comm_shm.py`` and
``tests/test_comm_tcp.py`` run it against their backend next to their
transport-only tests.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.comm import (
    COMM_ENV_VAR,
    CommError,
    CommTimeoutError,
    CommTrace,
    CommUnavailableError,
    Decomposition,
    RankGrid,
    ShmComm,
    TcpComm,
    VirtualComm,
    add_halo,
    available_comms,
    halo_exchange,
    make_comm,
    resolve_comm_name,
)
from repro.comm.registry import _COMM_NAMES
from repro.dirac import WilsonDirac
from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import cg_spmd

#: Every backend the matrix runs against.
BACKENDS = [n for n in available_comms() if n != "mpi"]

#: Backends whose ranks are OS processes (they have pids to stop).
PROCESS_BACKENDS = [n for n in BACKENDS if n != "virtual"]

GRIDS = [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1), (4, 1, 1, 1)]
PHASES = [(-1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)]
DTYPES = [np.complex64, np.complex128]  # fp32 and fp64 field data

LATTICE = Lattice4D((4, 4, 6, 4))

#: Short deadlines so a wedged backend fails the suite instead of stalling it.
COMM_KW = {"timeout": 60.0}


@pytest.fixture(scope="module")
def gauge():
    return GaugeField.hot(LATTICE, rng=5)


@pytest.fixture(scope="module")
def psi():
    return random_fermion(LATTICE, rng=9)


def _noncorner_equal(a: np.ndarray, b: np.ndarray, w: int = 1) -> bool:
    """Compare interior + all ghost faces (corners are never exchanged)."""
    interior = tuple(slice(w, -w) for _ in range(4))
    if not np.array_equal(a[interior], b[interior]):
        return False
    for mu in range(4):
        for face in (slice(0, w), slice(-w, None)):
            idx = [slice(w, -w)] * 4
            idx[mu] = face
            if not np.array_equal(a[tuple(idx)], b[tuple(idx)]):
                return False
    return True


def _exchanged(backend: str, grid: RankGrid, blocks, phases, dtype):
    """Run one ghost-shell exchange on ``backend``; return the filled arrays
    and the trace events."""
    with make_comm(grid, backend, **COMM_KW) as comm:
        key = comm.new_key("psi")
        shape = tuple(n + 2 for n in blocks[0].shape[:4]) + blocks[0].shape[4:]
        views = comm.alloc_blocks(key, shape, dtype)
        interior = tuple(slice(1, -1) for _ in range(4))
        for r, b in enumerate(blocks):
            views[r][interior] = b.astype(dtype)
        comm.exchange_shared(key, width=1, phases=phases)
        return [v.copy() for v in views], comm.trace.events


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", GRIDS)
@pytest.mark.parametrize("phases", PHASES)
@pytest.mark.parametrize("dtype", DTYPES)
class TestExchangeParity:
    """The rank executors' block exchange against the sequential oracle."""

    def test_exchange_matches_virtual(self, backend, dims, phases, dtype, psi):
        grid = RankGrid(dims)
        blocks = Decomposition(LATTICE, grid).scatter(psi)
        vhalos = [add_halo(b.astype(dtype)) for b in blocks]
        trace = CommTrace()
        halo_exchange(vhalos, grid, trace=trace, phases=phases)
        got, events = _exchanged(backend, grid, blocks, phases, dtype)
        assert events == trace.events
        for r in range(grid.nranks):
            assert got[r].dtype == np.dtype(dtype)
            assert _noncorner_equal(vhalos[r].data, got[r]), f"{backend} rank {r}"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", GRIDS)
class TestAllreduceParity:
    def test_complex_sum_bit_identical(self, backend, dims):
        grid = RankGrid(dims)
        rng = np.random.default_rng(3)
        partials = [complex(rng.normal(), rng.normal()) for _ in range(grid.nranks)]
        want = VirtualComm(grid).allreduce_sum(partials)
        with make_comm(grid, backend, **COMM_KW) as comm:
            got = comm.allreduce_sum(partials)
        assert complex(got) == complex(want)

    def test_real_sum_returns_float(self, backend, dims):
        grid = RankGrid(dims)
        partials = [0.1 * (r + 1) for r in range(grid.nranks)]
        want = VirtualComm(grid).allreduce_sum(partials)
        with make_comm(grid, backend, **COMM_KW) as comm:
            got = comm.allreduce_sum(partials)
        assert isinstance(got, float)
        assert float(got) == float(want)

    def test_wrong_partial_count_raises(self, backend, dims):
        grid = RankGrid(dims)
        with make_comm(grid, backend, **COMM_KW) as comm:
            with pytest.raises(ValueError):
                comm.allreduce_sum([1.0] * (grid.nranks + 1))


class TestAllreduceFp32:
    """Every backend shares the widen-to-fp64-then-sum reduction: fp32
    partials produce bit-identical sums on every backend."""

    @pytest.mark.parametrize("dims", [(2, 1, 1, 1), (2, 2, 1, 1)])
    def test_fp32_partials_identical_across_block_backends(self, dims):
        grid = RankGrid(dims)
        rng = np.random.default_rng(11)
        partials = [
            np.complex64(complex(rng.normal(), rng.normal()))
            for _ in range(grid.nranks)
        ]
        sums = {}
        for backend in BACKENDS:
            with make_comm(grid, backend, **COMM_KW) as comm:
                sums[backend] = comm.allreduce_sum(partials)
        values = list(sums.values())
        assert all(v == values[0] for v in values), sums


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", GRIDS)
@pytest.mark.parametrize("phases", PHASES)
class TestOperatorParity:
    def test_apply_and_trace_bit_identical(self, backend, dims, phases, gauge, psi):
        grid = RankGrid(dims)
        want = WilsonDirac(gauge, 0.1, phases=phases).apply(psi)
        vop = DecomposedWilsonDirac(gauge, 0.1, VirtualComm(grid), phases=phases)
        assert np.array_equal(want, vop.apply(psi))
        with make_comm(grid, backend, **COMM_KW) as comm:
            op = DecomposedWilsonDirac(gauge, 0.1, comm, phases=phases)
            got = op.apply(psi)
            assert np.array_equal(want, got)
            assert comm.trace.events == vop.comm.trace.events


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", [(2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1)])
@pytest.mark.parametrize("phases", PHASES)
class TestSolverParity:
    def test_cg_spmd_bit_identical(self, backend, dims, phases, gauge):
        grid = RankGrid(dims)
        b = random_fermion(LATTICE, rng=17)
        vop = DecomposedWilsonDirac(gauge, 0.3, VirtualComm(grid), phases=phases)
        want = cg_spmd(vop, b, tol=1e-6, max_iter=100)
        with make_comm(grid, backend, **COMM_KW) as comm:
            op = DecomposedWilsonDirac(gauge, 0.3, comm, phases=phases)
            got = cg_spmd(op, b, tol=1e-6, max_iter=100)
        assert want.converged and got.converged
        assert want.iterations == got.iterations
        assert want.history == got.history
        assert np.array_equal(want.x, got.x)
        # Honest accounting: at least one normal-operator apply per iteration.
        assert got.operator_applies >= got.iterations
        assert got.operator_applies == want.operator_applies
        assert got.flops == want.flops > 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestContextProtocol:
    def test_close_is_idempotent_and_context_safe(self, backend):
        with make_comm((1, 1, 1, 1), backend, **COMM_KW) as comm:
            assert comm.allreduce_sum([1.0]) == 1.0
        comm.close()
        comm.close()


class TestRegistry:
    def test_always_available_backends_present(self):
        names = available_comms()
        assert {"shm", "tcp", "virtual"} <= set(names)
        assert names == tuple(sorted(names))

    def test_default_is_virtual(self, monkeypatch):
        monkeypatch.delenv(COMM_ENV_VAR, raising=False)
        assert resolve_comm_name() == "virtual"
        assert isinstance(make_comm((1, 1, 1, 1)), VirtualComm)

    @pytest.mark.parametrize(
        "name,cls", [("shm", ShmComm), ("tcp", TcpComm)]
    )
    def test_env_selects_backend(self, monkeypatch, name, cls):
        monkeypatch.setenv(COMM_ENV_VAR, name)
        assert resolve_comm_name() == name
        with make_comm((1, 1, 1, 1)) as comm:
            assert isinstance(comm, cls)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(COMM_ENV_VAR, "shm")
        assert resolve_comm_name("virtual") == "virtual"

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(ValueError, match="nosuchcomm") as err:
            resolve_comm_name("nosuchcomm")
        # Satellite guarantee: the message enumerates from _COMM_NAMES, so
        # it can never go stale when a backend is added.
        for known in _COMM_NAMES:
            assert known in str(err.value)

    def test_registered_but_unavailable_raises_typed(self):
        try:
            import mpi4py  # noqa: F401

            pytest.skip("mpi4py installed; degradation branch not testable")
        except ImportError:
            pass
        assert "mpi" in _COMM_NAMES
        assert "mpi" not in available_comms()
        with pytest.raises(CommUnavailableError, match="mpi"):
            resolve_comm_name("mpi")


# -- the process-backend drill set ---------------------------------------------


def _proc_alive(pid: int) -> bool:
    """True when ``pid`` exists in /proc and is not a reaped zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split()[2] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def leftovers(comm):
    """A probe listing what a leak-free ``close`` must remove: live rank
    processes, plus the ``/dev/shm`` segments of an shm communicator."""
    pids = [p for p in comm._pids if p is not None]
    prefix = getattr(comm, "_prefix", None)

    def probe() -> list[str]:
        left = [f"pid {p}" for p in pids if _proc_alive(p)]
        if prefix is not None and os.path.isdir("/dev/shm"):
            left += [n for n in os.listdir("/dev/shm") if prefix in n]
        return left

    return probe


class _Drills:
    backend: str  # set by the per-backend subclass

    def _comm(self, dims=(2, 1, 1, 1), **kw):
        kw.setdefault("timeout", 10.0)
        return make_comm(RankGrid(dims), self.backend, **kw)


class FaultDrills(_Drills):
    """Rank death and injected command faults; every channel survives or
    fails typed, and teardown is leak-free after either."""

    def test_ping_roundtrips_all_ranks(self):
        with self._comm() as comm:
            assert comm.ping() is True
            assert comm.healthy
            assert comm.workers_alive() == [True, True]

    def test_teardown_under_fault_does_not_leak(self):
        # A killed rank (SIGKILL, no cleanup) must surface as a typed error
        # naming the rank — from the survivor's peer traffic and from the
        # dead rank's missing ack — not as a hang, and close must still
        # reap every process and release every OS resource.
        comm = self._comm()
        probe = leftovers(comm)
        key = comm.new_key("x")
        comm.alloc_blocks(key, (4, 4, 4, 4, 4, 3), np.complex128)
        comm.kill_rank(1)
        assert comm.workers_alive() == [True, False]
        assert not comm.healthy
        with pytest.raises(CommError, match="rank 1"):
            comm.exchange_shared(key, width=1)
        with pytest.raises(CommError, match="rank 1"):
            comm.ping()
        comm.close()
        assert probe() == []

    def test_injected_rank_kill_before_command(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().kill_rank(rank=0, at_command=1)
        comm = self._comm(fault_injector=inj)
        probe = leftovers(comm)
        with pytest.raises(CommError, match="rank 0"):
            comm.ping()
        comm.close()
        assert probe() == []

    def test_injected_drop_ack_keeps_pipes_in_sync(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().drop_ack(rank=1, at_command=1)
        with self._comm(fault_injector=inj) as comm:
            with pytest.raises(CommError, match="ack dropped"):
                comm.ping()
            assert comm.ping() is True  # the fault fired once; channels survive

    def test_injected_delay_ack_is_transparent(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().delay_ack(rank=0, at_command=1, seconds=0.05)
        with self._comm(fault_injector=inj) as comm:
            assert comm.ping() is True

    def test_atexit_registry_closes_stragglers(self):
        from repro.comm.lifecycle import LIVE_COMMS, close_live_comms

        comm = self._comm(dims=(1, 1, 1, 1))
        probe = leftovers(comm)
        comm.alloc_blocks(comm.new_key("y"), (2, 2, 2, 2, 4, 3), np.complex128)
        assert comm in LIVE_COMMS
        close_live_comms()  # what atexit runs if the driver dies with comms open
        assert comm._closed
        assert probe() == []


class TeardownDrills(_Drills):
    """Error acks and closing: the channel stays in sync, nothing leaks."""

    def test_failing_rank_body_does_not_leak(self):
        comm = self._comm()
        probe = leftovers(comm)
        comm.alloc_blocks(comm.new_key("x"), (4, 4, 4, 4, 4, 3), np.complex128)
        with pytest.raises(CommError, match="failed"):
            # Undeclared key: every rank raises inside the command body.
            comm._command(("exchange", "nosuchkey", 1, 0, None))
        assert comm.ping() is True  # ranks survive; acks stay in sync
        comm.close()
        assert probe() == []

    def test_close_is_idempotent_and_context_safe(self):
        with self._comm(dims=(1, 1, 1, 1)) as comm:
            probe = leftovers(comm)
            assert comm.allreduce_sum([1.0]) == 1.0
        comm.close()
        assert probe() == []
        with pytest.raises(RuntimeError):
            comm.allreduce_sum([1.0])
        with pytest.raises(RuntimeError):
            comm.ping()


@pytest.mark.parametrize("backend", PROCESS_BACKENDS)
class TestAckSequencing:
    """Acks echo their command's sequence number: a late ack of a command
    that timed out is discarded, never read as a later command's reply."""

    def test_late_ack_after_timeout_is_discarded(self, backend):
        with make_comm(RankGrid((2, 1, 1, 1)), backend, timeout=0.5) as comm:
            with pytest.raises(CommTimeoutError, match="rank"):
                comm._command(("sleep", 1.0))
            assert comm.healthy
            assert comm.allreduce_sum([1.0, 2.0]) == 3.0
            assert comm.allreduce_sum([10, 20]) == 30
            assert comm.ping() is True

    def test_resumed_rank_does_not_shift_later_acks(self, backend):
        with make_comm(RankGrid((2, 1, 1, 1)), backend, timeout=0.5) as comm:
            pid = comm._pids[1]
            os.kill(pid, signal.SIGSTOP)
            try:
                with pytest.raises(CommTimeoutError, match="rank 1"):
                    comm.ping()
            finally:
                os.kill(pid, signal.SIGCONT)
            for _ in range(3):
                assert comm.ping() is True
            assert comm.allreduce_sum([10, 20]) == 30

    def test_ack_ahead_of_its_command_is_a_typed_error(self, backend):
        with make_comm(RankGrid((1, 1, 1, 1)), backend, timeout=5.0) as comm:
            # An out-of-band command numbered past the next one: its ack
            # matches no awaited command and must not be taken as a reply.
            comm._send(0, (comm._seq + 5, ("declare", []), False), None)
            with pytest.raises(CommError, match="awaiting"):
                comm.ping()
