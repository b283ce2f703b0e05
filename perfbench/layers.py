"""Which calls into ``repro`` the traced run wraps, and the per-layer metrics.

Every patch targets a public function or method, at the attribute the
caller looks up at call time (a module global such as
``repro.solvers.wilson_solve.cg`` where the caller imported the name).
Counts are taken from arguments and results after each call returns.
"""

from __future__ import annotations

import statistics

from perfbench.tracing import LAYERS, ROOT_LAYER, Patch, Tracer, summarise_budget
from repro.util.flops import WILSON_DSLASH_FLOPS_PER_SITE

#: Names of spans of a single Dirac operator application.
_LEAF_DIRAC = ("WilsonDirac.", "SchurOperator.", "DecomposedWilsonDirac.",
               "EvenOddWilson.full_operator_apply")
_INNER_SOLVERS = ("cg", "block_cg", "cg_spmd")


def _volume(shape) -> int:
    v = 1
    for n in shape:
        v *= n
    return v


def _hop_single(tracer, span, args, kwargs, out):
    u, psi = args[1], args[2]
    _record_hop(tracer, u, psi, 1, _volume(psi.shape[:-2]))


def _hop_batch(tracer, span, args, kwargs, out):
    u, X = args[1], args[2]
    _record_hop(tracer, u, X, X.shape[0], _volume(X.shape[1:5]))


def _record_hop(tracer: Tracer, u, psi, nrhs: int, volume: int) -> None:
    # Compulsory traffic: links and daggered links once, source and result once.
    nbytes = 2 * u.nbytes + 2 * psi.nbytes
    tracer.count("kernels.hop_calls")
    tracer.count("kernels.hop_rhs", nrhs)
    tracer.count("kernels.site_rhs", volume * nrhs)
    tracer.count("kernels.flops", WILSON_DSLASH_FLOPS_PER_SITE * volume * nrhs)
    tracer.count("kernels.bytes", nbytes)
    tracer.counts["kernels.working_set_max"] = max(
        tracer.counts["kernels.working_set_max"], nbytes
    )


def _dirac_apply(kind: str, batched: bool):
    def hook(tracer, span, args, kwargs, out):
        if tracer.inside(_LEAF_DIRAC):
            return  # the adjoint and normal forms re-enter a leaf apply
        n = args[1].shape[0] if batched else 1
        tracer.count("dirac.applies", n)
        tracer.count(f"dirac.{kind}_applies", n)

    return hook


def _outer_solve(tracer, span, args, kwargs, out):
    results = out if isinstance(out, list) else [out]
    tracer.count("solvers.outer_calls")
    for res in results:
        tracer.count("solvers.iterations", res.iterations)
        tracer.count("solvers.reported_applies", res.operator_applies)
        if res.label != "cg_spmd":  # cg_spmd reports its recurrence residual
            tracer.counts["solvers.true_residual_max"] = max(
                tracer.counts["solvers.true_residual_max"], res.residual
            )


def _inner_solve(tracer, span, args, kwargs, out):
    tracer.count("solvers.inner_calls")


def _spmd_solve(tracer, span, args, kwargs, out):
    _inner_solve(tracer, span, args, kwargs, out)
    _outer_solve(tracer, span, args, kwargs, out)


def _counter(key: str):
    def hook(tracer, span, args, kwargs, out):
        tracer.count(key)

    return hook


def _store_get(tracer, span, args, kwargs, out):
    store, key = args[0], args[1]
    tracer.count("store.get_bytes", store.path_for(key).stat().st_size)


def _checkpoint_save(tracer, span, args, kwargs, path):
    tracer.count("campaign.checkpoints")
    tracer.count("campaign.checkpoint_bytes", path.stat().st_size)


def _submit(tracer, span, args, kwargs, out):
    tracer.samples.setdefault("serve.submitted_at", []).append(span.start)


def repro_patches() -> list[Patch]:
    """The layer-boundary patches for every workload."""
    from repro.campaign.checkpoint import CheckpointStore
    from repro.campaign.ledger import Ledger
    from repro.campaign.runner import HMCCampaign
    from repro.comm.tcp import TcpComm
    from repro.dirac.decomposed import DecomposedWilsonDirac
    from repro.dirac.eo import EvenOddWilson, SchurOperator
    from repro.dirac.operator import NormalOperator
    from repro.dirac.wilson import WilsonDirac
    from repro.fleet.orchestrator import Fleet
    from repro.hmc.hmc import HMC
    from repro.kernels.fused import FusedHopping
    import repro.measure.correlator as correlator
    import repro.measure.propagator as propagator
    from repro.serve.queue import SolveQueue
    import repro.solvers.block as block
    import repro.solvers.spmd as spmd
    import repro.solvers.wilson_solve as wilson_solve
    from repro.store.cache import MeasurementCache
    from repro.store.ensemble import EnsembleStore
    import repro.store.service as service

    patches = [
        Patch(FusedHopping, "__call__", "kernels", "FusedHopping.__call__", _hop_single),
        Patch(FusedHopping, "apply_batch_into", "kernels", "FusedHopping.apply_batch_into",
              _hop_batch),
    ]
    for cls, kind in ((WilsonDirac, "wilson"), (SchurOperator, "schur")):
        for attr in ("apply", "apply_into", "apply_dagger", "apply_dagger_into"):
            patches.append(Patch(cls, attr, "dirac", f"{cls.__name__}.{attr}",
                                 _dirac_apply(kind, False)))
        for attr in ("apply_batch_into", "apply_dagger_batch_into"):
            patches.append(Patch(cls, attr, "dirac", f"{cls.__name__}.{attr}",
                                 _dirac_apply(kind, True)))
    for attr in ("apply", "apply_dagger"):
        patches.append(Patch(DecomposedWilsonDirac, attr, "dirac",
                             f"DecomposedWilsonDirac.{attr}", _dirac_apply("wilson", False)))
    patches += [
        Patch(EvenOddWilson, "full_operator_apply", "dirac",
              "EvenOddWilson.full_operator_apply", _dirac_apply("wilson", False)),
        Patch(EvenOddWilson, "prepare_rhs", "dirac", "EvenOddWilson.prepare_rhs"),
        Patch(EvenOddWilson, "reconstruct", "dirac", "EvenOddWilson.reconstruct"),
        Patch(NormalOperator, "apply_into", "dirac", "NormalOperator.apply_into"),
        Patch(NormalOperator, "apply_batch_into", "dirac", "NormalOperator.apply_batch_into"),
        Patch(propagator, "solve_wilson_eo", "solvers", "solve_wilson_eo", _outer_solve),
        Patch(wilson_solve, "cg", "solvers", "cg", _inner_solve),
        Patch(block, "block_cg", "solvers", "block_cg", _inner_solve),
        Patch(spmd, "cg_spmd", "solvers", "cg_spmd", _spmd_solve),
        Patch(TcpComm, "run_dslash", "comm", "TcpComm.run_dslash"),
        Patch(TcpComm, "allreduce_sum", "comm", "TcpComm.allreduce_sum",
              _counter("comm.allreduce_calls")),
        Patch(SolveQueue, "submit", "serve", "SolveQueue.submit", _submit),
        Patch(SolveQueue, "flush", "serve", "SolveQueue.flush"),
        Patch(EnsembleStore, "get", "store", "EnsembleStore.get", _store_get),
        Patch(MeasurementCache, "lookup", "store", "MeasurementCache.lookup"),
        Patch(MeasurementCache, "put", "store", "MeasurementCache.put"),
        Patch(service.MeasurementService, "request", "store", "MeasurementService.request"),
        Patch(service, "queued_point_propagator", "store", "queued_point_propagator"),
        Patch(propagator, "point_propagator", "measure", "point_propagator"),
        Patch(correlator, "pion_correlator", "measure", "pion_correlator"),
        Patch(correlator, "rho_correlator", "measure", "rho_correlator"),
        Patch(HMC, "trajectory", "hmc", "HMC.trajectory"),
        Patch(HMCCampaign, "run", "campaign", "HMCCampaign.run"),
        Patch(CheckpointStore, "save", "campaign", "CheckpointStore.save", _checkpoint_save),
        Patch(Ledger, "append", "campaign", "Ledger.append"),
        Patch(Fleet, "run", "fleet", "Fleet.run"),
    ]
    return patches


def outer_solver_hook(tracer: Tracer, solver):
    """Wrap a batched solver for ``SolveQueue(solver=...)``.

    Times each batch and charges every request in it the wait from its
    ``submit`` to the batch start (a flush drains FIFO).
    """

    def traced(operator, B, **kwargs):
        if not tracer.installed:
            return solver(operator, B, **kwargs)
        with tracer.span("solve_wilson_batch", "solvers") as s:
            out = solver(operator, B, **kwargs)
        submitted = tracer.samples.setdefault("serve.submitted_at", [])
        waits = [s.start - t for t in submitted[: B.shape[0]]]
        del submitted[: B.shape[0]]
        tracer.count("serve.batches")
        tracer.count("serve.batched_rhs", B.shape[0])
        tracer.count("serve.queue_wait_total", sum(waits))
        tracer.count("serve.batch_solve_total", s.duration)
        _outer_solve(tracer, s, (), {}, out)
        return out

    return traced


#: Per-layer metrics: name -> (unit, better, description).
PER_LAYER = {
    "import.repro_s": ("s", "lower", "fresh interpreter start plus import repro, median"),
    "kernels.hop_calls": ("count", "lower", "hopping-kernel calls per op"),
    "kernels.hop_rhs": ("count", "lower", "right-hand sides through the kernel per op"),
    "kernels.hop_s": ("s", "lower", "kernel seconds per op"),
    "kernels.site_rhs_per_s": ("1/s", "higher", "site-RHS updates per kernel second"),
    "kernels.bytes_computed": ("B", "lower", "computed compulsory bytes per op"),
    "kernels.flops_per_byte_computed": ("flop/B", "higher", "nominal flops per computed byte"),
    "kernels.working_set_kib": ("KiB", "lower", "largest computed bytes of one kernel call"),
    "dirac.applies": ("count", "lower", "Dirac operator applies per op, counted outside"),
    "dirac.eo_share": ("share", "higher", "share of Dirac applies on the even-odd Schur operator"),
    "dirac.apply_self_s": ("s", "lower", "operator glue: apply seconds minus kernel, per op"),
    "dirac.schur_apply_ms": ("ms", "lower", "one Schur apply, median"),
    "dirac.wilson_apply_ms": ("ms", "lower", "one Wilson apply, median"),
    "dirac.schur_over_wilson": ("ratio", "lower", "Schur apply time over Wilson apply time"),
    "dirac.spmd_glue_s": ("s", "lower", "DecomposedWilsonDirac.apply outside comm, per op"),
    "solvers.iterations": ("count", "lower", "solver iterations per op"),
    "solvers.refine_rounds": ("count", "lower", "refinement restarts per op"),
    "solvers.true_residual_max": ("1", "lower", "largest verified true relative residual"),
    "solvers.linalg_self_s": ("s", "lower", "cg/block_cg/cg_spmd self seconds per op"),
    "solvers.reported_applies": ("count", "lower", "SolveResult.operator_applies per op"),
    "comm.run_dslash_s": ("s", "lower", "TcpComm.run_dslash seconds per op"),
    "comm.allreduce_calls": ("count", "lower", "allreduce calls per op"),
    "comm.allreduce_s": ("s", "lower", "allreduce seconds per op"),
    "comm.halo_bytes": ("B", "lower", "halo bytes per op, from comm.trace"),
    "comm.halo_messages": ("count", "lower", "halo messages per op, from comm.trace"),
    "comm.ship_bytes_computed": ("B", "lower", "master<->rank bytes per apply, from block shapes"),
    "serve.batches": ("count", "lower", "batched solves per op"),
    "serve.coalesce_factor": ("ratio", "higher", "requests per batched solve"),
    "serve.queue_wait_s": ("s", "lower", "mean wait from submit to batch start"),
    "serve.batch_solve_s": ("s", "lower", "mean seconds per batched solve"),
    "serve.blast_radius": ("count", "lower", "healthy requests failed per poisoned request"),
    "serve.poisoned_share": ("share", "lower", "share of raw solve requests that are poisoned"),
    "store.get_s": ("s", "lower", "EnsembleStore.get seconds per op"),
    "store.get_bytes": ("B", "lower", "configuration bytes read per op"),
    "store.lookup_s": ("s", "lower", "cache lookup seconds per op"),
    "store.cache_put_s": ("s", "lower", "cache put seconds per op"),
    "store.cache_hits": ("count", "higher", "cache hits per op"),
    "store.cache_misses": ("count", "lower", "cache misses per op"),
    "store.hit_share": ("share", "higher", "hits over measurement requests"),
    "measure.contract_s": ("s", "lower", "pion plus rho contraction seconds per op"),
    "hmc.trajectory_s": ("s", "lower", "one in-process HMC trajectory, median"),
    "campaign.checkpoint_s": ("s", "lower", "one checkpoint save, median"),
    "campaign.checkpoint_bytes": ("B", "lower", "bytes of one checkpoint"),
    "fleet.spawns": ("count", "lower", "worker spawns per op"),
    "fleet.reaps": ("count", "lower", "worker reaps per op"),
    "fleet.retries": ("count", "lower", "point retries per op"),
    "fleet.point_wall_p50_s": ("s", "lower", "spawn to finish per point, median"),
    "fleet.first_heartbeat_s": ("s", "lower", "spawn to first heartbeat per point, median"),
    "fleet.idle_share": ("share", "lower", "idle share of worker slots during a sweep"),
    "budget.wall_s": ("s", "lower", "traced wall seconds per op"),
    **{f"budget.{layer}_s": ("s", "lower", f"wall seconds charged to {layer} per op")
       for layer in LAYERS},
    "budget.unattributed_s": ("s", "lower", "wall seconds charged to no layer per op"),
    "budget.unattributed_share": ("share", "lower", "unattributed share of traced wall"),
    "budget.tracing_overhead_s": ("s", "lower", "traced minus untraced op wall, median (signed)"),
}

#: Metrics that may legitimately be negative (a difference of two walls).
SIGNED = {"budget.tracing_overhead_s"}


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer: Tracer, charged: dict, n_ops: int, extra: dict) -> dict:
    """Per-layer values from the spans and counts of ``n_ops`` traced ops.

    ``extra`` holds values the workload measured itself (micro-timings,
    comm-trace deltas, fleet journal figures); they override defaults.
    """
    c = tracer.counts
    per_op = 1.0 / max(n_ops, 1)
    by_layer = summarise_budget(charged)

    def names(*wanted):
        return sum(v for (layer, name), v in charged.items() if name in wanted)

    def span_time(name):
        return sum(s.duration for s in tracer.spans if s.name == name)

    def span_median(name):
        return _median([s.duration for s in tracer.spans if s.name == name])

    kernel_s = by_layer["kernels"]
    wall = sum(by_layer.values())
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "kernels.hop_calls": c["kernels.hop_calls"] * per_op,
        "kernels.hop_rhs": c["kernels.hop_rhs"] * per_op,
        "kernels.hop_s": kernel_s * per_op,
        "kernels.site_rhs_per_s": _ratio(c["kernels.site_rhs"], kernel_s),
        "kernels.bytes_computed": c["kernels.bytes"] * per_op,
        "kernels.flops_per_byte_computed": _ratio(c["kernels.flops"], c["kernels.bytes"]),
        "kernels.working_set_kib": c["kernels.working_set_max"] / 1024.0,
        "dirac.applies": c["dirac.applies"] * per_op,
        "dirac.eo_share": _ratio(c["dirac.schur_applies"], c["dirac.applies"]),
        "dirac.apply_self_s": by_layer["dirac"] * per_op,
        "dirac.spmd_glue_s": names("DecomposedWilsonDirac.apply",
                                   "DecomposedWilsonDirac.apply_dagger") * per_op,
        "solvers.iterations": c["solvers.iterations"] * per_op,
        "solvers.refine_rounds": max(c["solvers.inner_calls"] - c["solvers.outer_calls"], 0)
        * per_op,
        "solvers.true_residual_max": c["solvers.true_residual_max"],
        "solvers.linalg_self_s": names(*_INNER_SOLVERS) * per_op,
        "solvers.reported_applies": c["solvers.reported_applies"] * per_op,
        "comm.run_dslash_s": span_time("TcpComm.run_dslash") * per_op,
        "comm.allreduce_calls": c["comm.allreduce_calls"] * per_op,
        "comm.allreduce_s": span_time("TcpComm.allreduce_sum") * per_op,
        "serve.batches": c["serve.batches"] * per_op,
        "serve.coalesce_factor": _ratio(c["serve.batched_rhs"], c["serve.batches"]),
        "serve.queue_wait_s": _ratio(c["serve.queue_wait_total"], c["serve.batched_rhs"]),
        "serve.batch_solve_s": _ratio(c["serve.batch_solve_total"], c["serve.batches"]),
        "store.get_s": span_time("EnsembleStore.get") * per_op,
        "store.get_bytes": c["store.get_bytes"] * per_op,
        "store.lookup_s": span_time("MeasurementCache.lookup") * per_op,
        "store.cache_put_s": span_time("MeasurementCache.put") * per_op,
        "measure.contract_s": (span_time("pion_correlator") + span_time("rho_correlator"))
        * per_op,
        "hmc.trajectory_s": span_median("HMC.trajectory"),
        "campaign.checkpoint_s": span_median("CheckpointStore.save"),
        "campaign.checkpoint_bytes": _ratio(c["campaign.checkpoint_bytes"],
                                            c["campaign.checkpoints"]),
        "budget.wall_s": wall * per_op,
        "budget.unattributed_s": by_layer[ROOT_LAYER] * per_op,
        "budget.unattributed_share": _ratio(by_layer[ROOT_LAYER], wall),
    })
    for layer in LAYERS:
        m[f"budget.{layer}_s"] = by_layer[layer] * per_op
    m.update(extra)
    return m
