"""Tcp drills: the shared process-backend drill set plus the socket transport.

The bit-parity matrix and the fault/teardown drill set every process
backend runs live in ``tests/test_comm_backends.py``; this module runs the
drill set against tcp and covers what is inherently about the socket
transport — torn-frame detection (a rank killed mid-send must never let a
partial length-prefixed message be read as data), typed connect/recv
faults that ``run_resilient`` retries, the cross-host ``--connect``
rendezvous, and ``/proc``-verified absence of orphan rank processes and
leaked sockets.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest

from repro.comm import (
    CommConnectError,
    CommError,
    CommPeerError,
    CommTimeoutError,
    RankGrid,
    TcpComm,
    TornFrameError,
    VirtualComm,
)
from repro.comm.frame import (
    FRAME_MAGIC,
    TAG_RAW,
    recv_frame,
    send_frame,
)
from repro.comm.tcp import run_worker
from tests.test_comm_backends import FaultDrills, TeardownDrills, _proc_alive

GRID2 = RankGrid((2, 1, 1, 1))
KW = {"timeout": 20.0, "connect_timeout": 20.0}


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


# -- framing: the torn-frame regression satellite -----------------------------


class TestFraming:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_roundtrip(self):
        a, b = self._pair()
        send_frame(a, b"halo-face-bytes", tag=TAG_RAW)
        assert recv_frame(b) == (TAG_RAW, b"halo-face-bytes")
        a.close(), b.close()

    def test_partial_payload_is_torn_not_data(self):
        # A peer killed mid-send leaves a prefix of the frame in the buffer:
        # the receiver must raise, never return the partial bytes as payload.
        a, b = self._pair()
        payload = b"x" * 4096
        header = struct.pack("<4sBII", FRAME_MAGIC, TAG_RAW, len(payload), zlib.crc32(payload))
        a.sendall(header + payload[: len(payload) // 2])
        a.close()  # rank dies mid-send
        with pytest.raises(TornFrameError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_partial_header_is_torn(self):
        a, b = self._pair()
        a.sendall(struct.pack("<4sBII", FRAME_MAGIC, TAG_RAW, 100, 0)[:7])
        a.close()
        with pytest.raises(TornFrameError):
            recv_frame(b)
        b.close()

    def test_corrupt_payload_fails_crc(self):
        a, b = self._pair()
        payload = b"y" * 64
        header = struct.pack("<4sBII", FRAME_MAGIC, TAG_RAW, len(payload), zlib.crc32(payload))
        corrupted = bytearray(payload)
        corrupted[10] ^= 0xFF
        a.sendall(header + bytes(corrupted))
        with pytest.raises(TornFrameError, match="CRC"):
            recv_frame(b)
        a.close(), b.close()

    def test_bad_magic_is_torn(self):
        a, b = self._pair()
        a.sendall(struct.pack("<4sBII", b"JUNK", TAG_RAW, 0, 0))
        with pytest.raises(TornFrameError, match="magic"):
            recv_frame(b)
        a.close(), b.close()

    def test_clean_eof_is_peer_gone_not_torn(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(CommPeerError):
            recv_frame(b)
        b.close()

    def test_recv_timeout_is_typed(self):
        a, b = self._pair()
        b.settimeout(0.1)
        with pytest.raises(CommTimeoutError):
            recv_frame(b)
        a.close(), b.close()


# -- connect / rendezvous faults ----------------------------------------------


class TestConnectFaults:
    def test_worker_connect_refusal_is_typed(self):
        # Port 1 is never listening; the retry window expires quickly.
        with pytest.raises(CommConnectError, match="connect"):
            run_worker(("127.0.0.1", 1), rank=0, connect_timeout=0.5)

    def test_master_rendezvous_timeout_is_typed(self):
        # One rank is reserved for an external joiner that never appears.
        t0 = time.monotonic()
        with pytest.raises(CommTimeoutError, match="never connected"):
            TcpComm(GRID2, timeout=5.0, connect_timeout=1.5, n_external=1)
        assert time.monotonic() - t0 < 10.0

    def test_failed_rendezvous_leaves_no_orphans_or_sockets(self):
        before = _open_fds()
        with pytest.raises(CommTimeoutError):
            TcpComm(GRID2, timeout=5.0, connect_timeout=1.0, n_external=2)
        time.sleep(0.2)
        assert _open_fds() <= before + 1  # transient fd churn only


# -- runtime faults -----------------------------------------------------------


class TestFaultTolerance(FaultDrills):
    backend = "tcp"


class TestRuntimeFaults:
    def test_recv_timeout_via_wedged_rank(self):
        with TcpComm(GRID2, timeout=1.0, connect_timeout=20.0) as comm:
            with pytest.raises(CommTimeoutError, match="rank"):
                comm._command(("sleep", 5.0))

    def test_comm_errors_are_retryable_by_run_resilient(self):
        # The taxonomy contract: every comm fault is a RuntimeError, so the
        # campaign supervisor retries it with a fresh communicator.
        from repro.campaign.runner import RetryPolicy, run_resilient

        for cls in (CommConnectError, CommTimeoutError, CommPeerError, TornFrameError):
            assert issubclass(cls, CommError) and issubclass(cls, RuntimeError)

        comms = []

        def factory():
            comm = TcpComm(RankGrid((1, 1, 1, 1)), **KW)
            comms.append(comm)
            return comm

        class FlakyCampaign:
            attempts = 0

            def run(self, fault=None, comm=None, progress=None, guard=None):
                FlakyCampaign.attempts += 1
                assert comm is not None and comm.ping()
                if FlakyCampaign.attempts == 1:
                    raise CommTimeoutError("injected: first segment wedged")

                class Summary:
                    retries = 0

                return Summary()

        summary = run_resilient(
            FlakyCampaign(),
            comm_factory=factory,
            retry=RetryPolicy(max_retries=2, backoff_base=0.0),
            sleep=lambda s: None,
        )
        assert summary.retries == 1
        assert len(comms) == 2
        assert all(c._closed for c in comms)  # supervisor closed every attempt


# -- teardown / leak accounting -----------------------------------------------


class TestTeardown(TeardownDrills):
    backend = "tcp"

    def test_close_reaps_processes_and_sockets(self):
        before = _open_fds()
        comm = TcpComm(GRID2, **KW)
        pids = list(comm._pids)
        comm.alloc_blocks(comm.new_key("x"), (4, 4, 4, 4, 4, 3), np.complex128)
        assert comm.ping()
        comm.close()
        comm.close()  # idempotent
        time.sleep(0.2)
        assert not any(_proc_alive(p) for p in pids)
        assert _open_fds() <= before + 1
        with pytest.raises(RuntimeError):
            comm.ping()


# -- cross-host rendezvous (loopback stand-in) --------------------------------


class TestExternalRendezvous:
    def test_external_rank_joins_via_cli_and_is_bit_identical(self):
        from repro.dirac.decomposed import DecomposedWilsonDirac
        from repro.fields import GaugeField, random_fermion
        from repro.lattice import Lattice4D

        # Reserve a port, start the external worker *first* (its rendezvous
        # dial retries), then bring up the master with one rank reserved.
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.comm.tcp",
                "--connect",
                f"127.0.0.1:{port}",
                "--connect-timeout",
                "30",
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            comm = TcpComm(
                GRID2, timeout=30.0, connect_timeout=30.0, port=port, n_external=1
            )
            lat = Lattice4D((4, 4, 6, 4))
            gauge = GaugeField.hot(lat, rng=5)
            psi = random_fermion(lat, rng=9)
            want = DecomposedWilsonDirac(gauge, 0.1, VirtualComm(GRID2)).apply(psi)
            got = DecomposedWilsonDirac(gauge, 0.1, comm).apply(psi)
            assert np.array_equal(want, got)
            comm.close()
            assert proc.wait(timeout=15) == 0  # clean stop, not a kill
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
