"""The four seeded workloads, each driven through the public API of ``repro``.

Each workload is the only one that runs some layer:

* ``spectrum`` -- even-odd Schur operator and single-RHS ``cg``: point
  propagators plus pion/rho contraction, kernel-bound, no I/O.
* ``serve`` -- store reads, cache reads and writes, queue coalescing and
  batched block CG, via one closed-loop client of ``MeasurementService``.
* ``spmd`` -- ``cg_spmd`` over a 2-rank ``tcp`` communicator: master
  shipping, halo exchange and allreduce block the result.
* ``sweep`` -- ``Fleet.run``: worker spawn and ``import repro`` per design
  point, pure-gauge HMC, checkpoint and ledger writes, no Dslash.

The gauge configurations are the data set being measured, as a stored
ensemble is for its users: a heatbath stream from the fixed
:data:`ENSEMBLE_SEED`.  ``--seed`` draws the traffic over it: source
points, the request plan, burst right-hand sides, CG sources and the
sweep's β grid.  (On 8x4^3, CG cost differs by about 11% from one
configuration to the next, which would otherwise dominate the run-to-run
spread.)

A workload makes its inputs in :meth:`Workload.generate`
(not timed), builds the program objects plus one untimed warm-up in
:meth:`Workload.build` (timed as set-up), runs one unit of work per
:meth:`Workload.op`, and checks the outputs in :meth:`Workload.check`,
outside every timed span.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Lattice of the Dirac workloads, (T, Z, Y, X).
DIRAC_SHAPE = (8, 4, 4, 4)
BETA = 5.7
MASS = 0.2
TOL = 1e-8
THERMALISE_SWEEPS = 10
ENSEMBLE_SEED = 2013


@dataclass
class Op:
    """Outcome of one unit of work."""

    seconds: float
    attempted: int
    failed: int = 0
    #: Latency samples of the user-visible requests inside the op.
    latencies: list[float] = field(default_factory=list)


def ensemble(n: int) -> list:
    """``n`` configurations of the fixed ensemble: hot start plus heatbath
    sweeps, then ``THERMALISE_SWEEPS`` more between configurations."""
    from repro import GaugeField, Lattice4D, heatbath_sweep

    rng = np.random.default_rng(ENSEMBLE_SEED)
    gauge = GaugeField.hot(Lattice4D(DIRAC_SHAPE), rng=rng)
    out = []
    for _ in range(n):
        for _ in range(THERMALISE_SWEEPS):
            heatbath_sweep(gauge, BETA, rng)
        out.append(gauge.copy())
    return out


def median_apply_ms(apply, x, repeats: int = 20) -> float:
    out = np.empty_like(x)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        apply(x, out)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


class Workload:
    name = ""
    #: Ops a run completes even when the window has passed.
    min_ops = 1
    #: What ``Op.latencies`` measures, for the report.
    latency_label = ""

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        # Traced runs alternate untraced and traced ops; where inputs allow,
        # each pair runs the same input so the wall difference is overhead.
        self.pair_inputs = tracer is not None
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.workdir = workdir
        self.tracer = tracer

    def generate(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass

    def report(self, ops: list[Op], window: float) -> dict:
        """Workload-specific metrics for the table: name -> (value, unit, n)."""
        return {}

    def trace_extra(self, traced_ops: list[int]) -> dict:
        """Per-layer values the workload measures itself (trace runs)."""
        return {}

    def add_worker_spans(self, op_span) -> None:
        """Record spans of other processes that ran during a traced op."""


class Spectrum(Workload):
    name = "spectrum"
    latency_label = "propagator"

    def generate(self) -> None:
        self.gauge = ensemble(1)[0]
        self.coords = [
            tuple(int(self.rng.integers(n)) for n in DIRAC_SHAPE) for _ in range(256)
        ]
        self.results: list[tuple] = []
        self.contract_s: list[float] = []

    def build(self) -> None:
        from repro import EvenOddWilson, WilsonDirac, point_source, solve_wilson_eo

        self.dirac = WilsonDirac(self.gauge, MASS)
        eo = EvenOddWilson(self.gauge, MASS)
        solve_wilson_eo(eo, point_source(self.dirac.lattice, (0, 0, 0, 0), 0, 0), tol=TOL)

    def op(self, i: int) -> Op:
        from repro.measure import correlator, propagator

        coord = self.coords[(i // 2 if self.pair_inputs else i) % len(self.coords)]
        t0 = time.perf_counter()
        try:
            prop = propagator.point_propagator(self.dirac, coord, tol=TOL)
        except RuntimeError:  # a column did not converge
            return Op(time.perf_counter() - t0, 1, 1)
        t1 = time.perf_counter()
        pion = correlator.pion_correlator(prop)
        rho = correlator.rho_correlator(prop)
        t2 = time.perf_counter()
        self.contract_s.append(t2 - t1)
        self.results.append((coord, prop, pion, rho))
        return Op(t2 - t0, 1, 0, [t1 - t0])

    def check(self) -> list[str]:
        from repro.measure import propagator_norm_check

        errors = []
        for coord, prop, pion, rho in self.results:
            res = propagator_norm_check(self.dirac, prop, coord)
            if not res <= 10 * TOL:
                errors.append(f"spectrum: propagator at {coord} residual {res:.3e} > 10 tol")
            if not (np.all(np.isfinite(pion)) and np.all(np.isfinite(rho))):
                errors.append(f"spectrum: non-finite correlator at {coord}")
        return errors

    def report(self, ops, window):
        props = [op.latencies[0] for op in ops if op.latencies]
        return {
            "propagator_s": (float(np.median(props)), "s", len(props)),
            "contract_s": (float(np.median(self.contract_s)), "s", len(self.contract_s)),
        }

    def trace_extra(self, traced_ops):
        from repro.dirac.eo import EvenOddWilson
        from repro.fields import random_fermion
        from repro.lattice import mask_field

        eo = EvenOddWilson(self.gauge, MASS)
        x = random_fermion(self.dirac.lattice, rng=self.seed)
        schur = median_apply_ms(eo.schur_operator().apply_into, mask_field(x, eo.even))
        wilson = median_apply_ms(self.dirac.apply_into, x)
        return {
            "dirac.schur_apply_ms": schur,
            "dirac.wilson_apply_ms": wilson,
            "dirac.schur_over_wilson": schur / wilson,
        }


def _values_bytes(values: dict) -> bytes:
    return json.dumps(values, sort_keys=True).encode()


class Serve(Workload):
    """One closed-loop client; an op is one cycle of three correlator
    requests (exactly one repeats an earlier one, so it is a cache hit)
    followed by one 4-wide raw ``SolveQueue`` burst."""

    name = "serve"
    latency_label = "correlator request"
    n_configs = 4
    burst_width = 4
    max_cycles = 400

    def generate(self) -> None:
        from repro.store import EnsembleStore

        store = EnsembleStore(self.workdir / "store")
        self.keys = [
            store.put(gauge, {
                "action": "wilson", "couplings": {"beta": BETA}, "trajectory": i,
                "rng": {"seed": ENSEMBLE_SEED, "algorithm": "heatbath"},
            })
            for i, gauge in enumerate(ensemble(self.n_configs))
        ]
        sites = [tuple(int(v) for v in np.unravel_index(j, DIRAC_SHAPE))
                 for j in range(int(np.prod(DIRAC_SHAPE)))]
        fresh = iter(self.rng.permutation(self.n_configs * len(sites)))
        # plan: (config index, source coord, expected hit)
        self.plan: list[tuple[int, tuple, bool]] = []
        misses: list[tuple[int, tuple]] = []
        for cycle in range(self.max_cycles):
            hit_at = int(self.rng.integers(1 if cycle == 0 else 0, 3))
            for pos in range(3):
                if pos == hit_at:
                    cfg, coord = misses[int(self.rng.integers(len(misses)))]
                    self.plan.append((cfg, coord, True))
                else:
                    j = int(next(fresh))
                    cfg, coord = j % self.n_configs, sites[j // self.n_configs]
                    misses.append((cfg, coord))
                    self.plan.append((cfg, coord, False))
        self.burst_plan = [
            (int(self.rng.integers(self.n_configs)), int(self.rng.integers(2**31)))
            for _ in range(self.max_cycles + 1)
        ]
        self.poison_column = int(self.rng.integers(self.burst_width))
        self.served: list[tuple[int, bool, bytes]] = []
        self.burst_results = []

    def _set_request(self, request: int) -> None:
        if self.tracer is not None:
            self.tracer.request = request

    def _params(self, coord) -> dict:
        return {"quark_mass": MASS, "source_coord": list(coord), "tol": TOL}

    def build(self) -> None:
        from repro import WilsonDirac, point_source
        from repro.serve import SolveQueue
        from repro.solvers.block import solve_wilson_batch
        from repro.store import EnsembleStore, MeasurementService

        self.store = EnsembleStore(self.workdir / "store", create=False)
        solver = solve_wilson_batch
        if self.tracer is not None:
            from perfbench.layers import outer_solver_hook

            solver = outer_solver_hook(self.tracer, solve_wilson_batch)
        self.queue = SolveQueue(solver=solver)
        self.service = MeasurementService(
            self.store, cache_root=self.workdir / "cache", queue=self.queue
        )
        self.diracs = [WilsonDirac(self.store.get(k)[0], MASS) for k in self.keys]
        b = point_source(self.diracs[0].lattice, (0, 0, 0, 0), 0, 0)
        self.queue.submit(self.diracs[0], b, tol=TOL)
        self.queue.flush()

    def _burst_sources(self, cycle: int):
        from repro.fields import random_fermion

        cfg, seed = self.burst_plan[cycle]
        lat = self.diracs[cfg].lattice
        return cfg, [random_fermion(lat, rng=seed + j) for j in range(self.burst_width)]

    def _burst(self, cfg: int, sources) -> list:
        """Submit one burst and flush; returns each result or exception."""
        futures = [self.queue.submit(self.diracs[cfg], b, tol=TOL) for b in sources]
        self.queue.flush()
        out = []
        for f in futures:
            exc = f.exception(timeout=0)
            out.append(exc if exc is not None else f.result(timeout=0))
        return out

    def op(self, cycle: int) -> Op:
        cfg_b, sources = self._burst_sources(cycle)
        t_start = time.perf_counter()
        latencies, failed = [], 0
        for k in range(3):
            idx = 3 * cycle + k
            cfg, coord, _ = self.plan[idx]
            self._set_request(4 * cycle + k)
            t0 = time.perf_counter()
            try:
                values, hit = self.service.request(self.keys[cfg], "correlators",
                                                   self._params(coord))
            except RuntimeError:  # a failed request has infinite latency
                failed += 1
                latencies.append(math.inf)
                continue
            latencies.append(time.perf_counter() - t0)
            self.served.append((idx, hit, _values_bytes(values)))
        self._set_request(4 * cycle + 3)
        results = self._burst(cfg_b, sources)
        seconds = time.perf_counter() - t_start
        self.burst_results.extend(results)
        failed += sum(1 for r in results if isinstance(r, BaseException) or not r.converged)
        return Op(seconds, 3 + len(results), failed, latencies)

    def check(self) -> list[str]:
        from repro.store import MeasurementCache

        errors = []
        # Poison drill: one burst with one non-finite source.  Healthy
        # requests failed with it are the blast radius (not a check failure).
        cfg, sources = self._burst_sources(self.max_cycles)
        sources[self.poison_column][0, 0, 0, 0, 0, 0] = np.nan
        results = self._burst(cfg, sources)
        self.healthy_failed = sum(
            1 for j, r in enumerate(results)
            if j != self.poison_column and isinstance(r, BaseException)
        )
        if not isinstance(results[self.poison_column], BaseException):
            errors.append("serve: a non-finite source was answered instead of refused")
        cold: dict[tuple, bytes] = {}
        for idx, hit, blob in self.served:
            cfg, coord, want_hit = self.plan[idx]
            if hit != want_hit:
                errors.append(f"serve: request {idx} hit={hit}, plan says {want_hit}")
            if not hit:
                cold[cfg, coord] = blob
            elif cold.get((cfg, coord)) != blob:
                errors.append(f"serve: warm values of request {idx} differ from cold")
            if not all(math.isfinite(v) for vs in json.loads(blob).values() for v in vs):
                errors.append(f"serve: non-finite correlator in request {idx}")
        replayed = MeasurementCache(self.workdir / "cache")
        for (cfg, coord), blob in cold.items():
            req = self.service.request_for(self.keys[cfg], "correlators", self._params(coord))
            values = replayed.lookup(req)
            if values is None or _values_bytes(values) != blob:
                errors.append(f"serve: journal replay of {coord} on config {cfg} differs")
        for r in self.burst_results:
            if isinstance(r, BaseException):
                errors.append(f"serve: healthy burst request failed: {r!r}")
            elif not (r.converged and r.residual <= 10 * TOL):
                errors.append(f"serve: burst solution not converged: {r.summary()}")
        return errors

    def report(self, ops, window):
        lat = sorted(x for op in ops for x in op.latencies)
        answered = sum(op.attempted - op.failed for op in ops)
        hits = sum(1 for _, hit, _ in self.served if hit)
        out = {
            "request_p50_s": (float(np.median(lat)), "s", len(lat)),
            "goodput_rps": (answered / window, "1/s", answered),
            "hit_share": (hits / max(len(self.served), 1), "share", len(self.served)),
        }
        tail = tail_percentile(lat)
        if tail is None:  # too few requests in one window for a tail
            out["request_tail_s"] = (None, "s", len(lat))
        else:
            out[f"request_tail_s (p{tail[0]:.0f})"] = (tail[1], "s", len(lat))
        return out

    def trace_extra(self, traced_ops):
        ops = set(traced_ops)
        hits = [hit for idx, hit, _ in self.served if idx // 3 in ops]
        n = max(len(ops), 1)
        return {
            "store.cache_hits": sum(hits) / n,
            "store.cache_misses": (len(hits) - sum(hits)) / n,
            "store.hit_share": sum(hits) / max(len(hits), 1),
            "serve.blast_radius": float(self.healthy_failed),
            "serve.poisoned_share": 1 / (len(self.burst_results) + self.burst_width),
        }


class Spmd(Workload):
    name = "spmd"
    latency_label = "distributed solve"
    grid = (2, 1, 1, 1)

    def generate(self) -> None:
        self.gauge = ensemble(1)[0]
        self.source_seeds = [int(s) for s in self.rng.integers(2**31, size=512)]
        self.solutions: list[tuple[int, np.ndarray]] = []
        self.comm = None
        self.halo: list[tuple[int, int]] = []

    def source(self, i: int) -> np.ndarray:
        from repro.fields import random_fermion

        return random_fermion(self.gauge.lattice, rng=self.source_seeds[i % 512])

    def build(self) -> None:
        from repro import DecomposedWilsonDirac, make_comm

        self.comm = make_comm(self.grid, "tcp")
        self.op_tcp = DecomposedWilsonDirac(self.gauge, MASS, self.comm)
        self.op_tcp.apply(self.source(0))

    def op(self, i: int) -> Op:
        from repro.solvers import spmd

        i = i // 2 if self.pair_inputs else i
        b = self.source(i)
        trace = self.comm.trace
        halo0 = (trace.total_halo_bytes(), trace.message_count())
        t0 = time.perf_counter()
        res = spmd.cg_spmd(self.op_tcp, b, tol=TOL)
        seconds = time.perf_counter() - t0
        self.halo.append((trace.total_halo_bytes() - halo0[0],
                          trace.message_count() - halo0[1]))
        self.solutions.append((i, res.x))
        return Op(seconds, 1, 0 if res.converged else 1, [seconds])

    def check(self) -> list[str]:
        from repro import DecomposedWilsonDirac, WilsonDirac, cg_spmd, make_comm
        from repro.fields import norm

        errors = []
        i0, x0 = self.solutions[0]
        virtual = DecomposedWilsonDirac(self.gauge, MASS, make_comm(self.grid, "virtual"))
        ref = cg_spmd(virtual, self.source(i0), tol=TOL)
        if ref.x.tobytes() != x0.tobytes():
            errors.append("spmd: tcp solution is not bit-identical to the virtual one")
        dirac = WilsonDirac(self.gauge, MASS)
        self.true_residuals = []
        for i, x in self.solutions:
            b = self.source(i)
            r = norm(b - dirac.apply(x)) / norm(b)
            self.true_residuals.append(r)
            if not r <= 10 * TOL:
                errors.append(f"spmd: solve {i} true residual {r:.3e} > 10 tol")
        return errors

    def report(self, ops, window):
        solves = [op.seconds for op in ops]
        return {"solve_s": (float(np.median(solves)), "s", len(solves))}

    def trace_extra(self, traced_ops):
        local = self.op_tcp.decomp.local_shape
        site_bytes = 12 * np.dtype(np.complex128).itemsize
        halo_block = int(np.prod([n + 2 for n in local])) * site_bytes
        out_block = int(np.prod(local)) * site_bytes
        n = max(len(traced_ops), 1)
        return {
            "comm.halo_bytes": sum(self.halo[i][0] for i in traced_ops) / n,
            "comm.halo_messages": sum(self.halo[i][1] for i in traced_ops) / n,
            "comm.ship_bytes_computed": float(self.comm.nranks * (halo_block + out_block)),
            "solvers.true_residual_max": max(self.true_residuals),
        }

    def close(self) -> None:
        if self.comm is not None:
            self.comm.close()
            self.comm = None


class Sweep(Workload):
    """An op is one ``Fleet.run`` of the seeded design in a fresh directory."""

    name = "sweep"
    latency_label = "design point"
    min_ops = 2
    shape = (4, 4, 4, 4)
    n_points = 8
    n_trajectories = 2
    workers = 2

    def generate(self) -> None:
        from repro.fleet import grid_design

        betas = np.round(np.sort(self.rng.uniform(5.6, 6.4, self.n_points)), 4)
        self.points = grid_design(self.shape, [float(b) for b in betas],
                                  n_trajectories=self.n_trajectories,
                                  seed=int(self.rng.integers(2**20)))
        self.runs: list[dict] = []

    def build(self) -> None:
        # Warm-up: one interpreter importing what every worker imports.
        subprocess.run([sys.executable, "-c", "import repro.fleet.worker"],
                       check=True, env=child_env(), timeout=120)

    def op(self, i: int) -> Op:
        from repro.fleet import Fleet

        directory = self.workdir / "sweep" / f"run_{i:03d}"
        beats: dict[int, float] = {}
        stop = threading.Event()
        poller = None
        if self.tracer is not None and self.tracer.installed:
            poller = threading.Thread(target=self._poll_first_heartbeats,
                                      args=(directory, beats, stop))
            poller.start()
        t0 = time.perf_counter()
        try:
            fleet = Fleet(directory, self.points, max_workers=self.workers)
            summary = fleet.run()
        finally:
            stop.set()
            if poller is not None:
                poller.join()
        seconds = time.perf_counter() - t0
        spawn, finish = {}, {}
        for rec in fleet.journal.records():
            if rec["kind"] == "spawn":
                spawn.setdefault(rec["point"], rec["wall"])
            elif rec["kind"] == "finish":
                finish[rec["point"]] = rec["wall"]
        walls = [finish[p] - spawn[p] for p in finish]
        self.runs.append({"dir": directory, "summary": summary, "spawn": spawn,
                          "finish": finish, "beats": beats, "seconds": seconds})
        failed = self.n_points - summary.completed
        return Op(seconds, self.n_points, failed, walls)

    def _poll_first_heartbeats(self, directory: Path, beats: dict, stop) -> None:
        from repro.fleet import read_heartbeat

        while not stop.is_set():
            for p in self.points:
                if p.index not in beats:
                    hb = read_heartbeat(directory / "points" / p.name)
                    if hb is not None and hb["step"] == -1:
                        beats[p.index] = hb["wall"]
            stop.wait(0.005)

    def check(self) -> list[str]:
        errors = []
        first = None
        for k, run in enumerate(self.runs):
            s = run["summary"]
            if s.completed != self.n_points or s.quarantined:
                errors.append(f"sweep: run {k} completed {s.completed}/{self.n_points}, "
                              f"quarantined {s.quarantined}")
            ledgers = [(run["dir"] / "points" / p.name / "ledger.jsonl").read_bytes()
                       for p in self.points]
            if first is None:
                first = ledgers
            elif ledgers != first:
                errors.append(f"sweep: point ledgers of run {k} differ from run 0")
        return errors

    def report(self, ops, window):
        done = sum(op.attempted - op.failed for op in ops)
        return {"points_per_min": (60.0 * done / window, "1/min", done)}

    def add_worker_spans(self, op_span) -> None:
        """Per-point spans on their own tracks, from the journal and heartbeats."""
        from repro.fleet import read_heartbeat

        offset = time.perf_counter() - time.time()
        tracer, run = self.tracer, self.runs[-1]
        for idx, t_spawn in run["spawn"].items():
            t_end = run["finish"].get(idx)
            if t_end is None:
                continue
            point = tracer.add_span("point", "fleet", t_spawn + offset, t_end + offset,
                                    track=idx + 1, parent=op_span.index, request=idx)
            beat = run["beats"].get(idx)
            last = read_heartbeat(run["dir"] / "points" / self.points[idx].name)
            if beat is None or last is None:
                continue
            tracer.add_span("spawn_to_first_heartbeat", "import", t_spawn + offset,
                            beat + offset, track=idx + 1, parent=point.index, request=idx)
            tracer.add_span("campaign_segment", "campaign", beat + offset,
                            last["wall"] + offset, track=idx + 1, parent=point.index,
                            request=idx)

    def trace_extra(self, traced_ops):
        from repro.campaign.runner import HMCCampaign

        # One design point in-process, so the hmc and campaign spans exist.
        with self.tracer.install(), self.tracer.span("inproc_point", "bench"):
            HMCCampaign(self.workdir / "inproc", self.points[0].config).run()
        runs = [self.runs[i] for i in traced_ops]
        n = max(len(runs), 1)
        walls, beats, idle = [], [], []
        spawns = reaps = retries = 0
        for run in runs:
            s = run["summary"]
            spawns += s.spawns
            reaps += s.reaps
            retries += s.spawns - s.completed - len(s.quarantined)
            point_walls = [run["finish"][p] - run["spawn"][p] for p in run["finish"]]
            walls += point_walls
            beats += [run["beats"][p] - run["spawn"][p] for p in run["beats"]]
            idle.append(1.0 - sum(point_walls) / (self.workers * run["seconds"]))
        return {
            "fleet.spawns": spawns / n,
            "fleet.reaps": reaps / n,
            "fleet.retries": retries / n,
            "fleet.point_wall_p50_s": float(np.median(walls)) if walls else 0.0,
            "fleet.first_heartbeat_s": float(np.median(beats)) if beats else 0.0,
            "fleet.idle_share": float(np.median(idle)) if idle else 0.0,
        }


def child_env() -> dict:
    """Environment for a fresh interpreter that imports ``repro`` from src/."""
    import repro

    env = os.environ.copy()
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail_percentile(sorted_samples: list[float]):
    """``(percentile, value)``: the highest nearest-rank percentile with at
    least 10 samples above it, or ``None`` while that percentile would not
    reach the median (fewer than 21 samples)."""
    n = len(sorted_samples)
    if n < 21:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, float(sorted_samples[k])


WORKLOADS = {w.name: w for w in (Spectrum, Serve, Spmd, Sweep)}
