"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload`` is one of ``spectrum``, ``serve``, ``spmd``, ``sweep`` (see
``perfbench/workloads.py`` for what each runs and why) or ``all``, which
runs each in its own process.  A run makes its inputs from ``--seed``,
sets up three times (``setup_s`` is the median), works for ``--seconds``,
checks every output, and prints a table followed by one JSON line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``BENCHMARK.json``
``end_to_end``), measured with no tracing: ``setup_s``, ``peak_rss_mb``
(this process plus its largest child), ``op_p50_s`` (median latency of the
workload's unit of work: a 12-column propagator, a correlator request, a
distributed solve, a design point from spawn to finish) and
``goodput_per_s`` (operations answered per second of the window).  The
table above the JSON line also names them as the workload's own metrics
(``propagator_s``, ``request_p50_s``, ``goodput_rps``, ``solve_s``,
``points_per_min``, ...) with units and sample counts.  With ``--trace 1`` the run
alternates untraced and traced operations, reports the per-layer metrics
and a layer budget, and writes a Perfetto-loadable trace under
``.perfbench/traces/``.  Scratch files go to ``.perfbench/work/`` and are
removed at exit.  The exit code is 0 only when every check and the
sanity gate pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.  Every workload reports each.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "goodput_per_s": "1/s",
}


def fresh_import_s(env: dict) -> float:
    """Wall seconds of a new interpreter that only imports ``repro``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], check=True, env=env, timeout=120)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def sanity_errors(metrics: dict, units: dict, signed=(), positive=(), pairs=()) -> list[str]:
    """Reject physically impossible values: a non-finite number, a negative
    duration (unless ``signed``), a share outside [0, 1], a negative rate,
    a non-positive value among ``positive``, or a tail percentile below
    its median (``pairs`` of ``(median, tail)`` names)."""
    errors = []
    for name, value in metrics.items():
        unit = units[name]
        if not math.isfinite(value):
            errors.append(f"{name} = {value} is not finite")
        elif unit in ("s", "ms") and value < 0 and name not in signed:
            errors.append(f"{name} = {value} is a negative duration")
        elif unit == "share" and not 0.0 <= value <= 1.0:
            errors.append(f"{name} = {value} is a share outside [0, 1]")
        elif unit.startswith("1/") and value < 0:
            errors.append(f"{name} = {value} is a negative rate")
        elif name in positive and value <= 0:
            errors.append(f"{name} = {value} is not positive")
    for median_name, tail_name in pairs:
        if metrics[tail_name] < metrics[median_name]:
            errors.append(f"{tail_name} = {metrics[tail_name]} is below "
                          f"{median_name} = {metrics[median_name]}")
    return errors


def run_ops(w, seconds: float, tracer):
    """Ops until the window has passed; with a tracer, odd ops are traced."""
    ops, traced, untraced = [], [], []
    t_start = time.perf_counter()
    i = 0
    while (time.perf_counter() - t_start < seconds or len(ops) < w.min_ops
           or (tracer is not None and not traced)):
        if tracer is not None and i % 2 == 1:
            tracer.request = i
            with tracer.install(), tracer.span("op", "bench", op=i) as root:
                op = w.op(i)
            w.add_worker_spans(root)
            traced.append(i)
        else:
            op = w.op(i)
            untraced.append(i)
        ops.append(op)
        i += 1
    return ops, time.perf_counter() - t_start, traced, untraced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import layers, tracing
    from perfbench.workloads import WORKLOADS, child_env

    workdir = ROOT / ".perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(layers.repro_patches()) if trace else None
    w = WORKLOADS[name](seed, workdir, tracer)
    try:
        w.generate()
        env = child_env()
        setups, imports = [], []
        for k in range(SETUP_REPEATS):
            imports.append(fresh_import_s(env))
            w.close()
            t0 = time.perf_counter()
            w.build()
            setups.append(imports[-1] + time.perf_counter() - t0)
        ops, window, traced, untraced = run_ops(w, seconds, tracer)
        errors = w.check()
        report = w.report(ops, window)
        extra = w.trace_extra(traced) if trace else {}
    finally:
        w.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    latencies = [x for op in ops for x in op.latencies]
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_s": statistics.median(latencies),
        "goodput_per_s": (attempted - failed) / window,
    }
    print(f"== {name}: seed {seed}, {len(ops)} ops in {window:.2f} s, "
          f"trace {int(trace)} ==")
    table = {
        "setup_s": (e2e["setup_s"], "s", len(setups)),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB", 1),
        "failed_share": (failed / attempted, "share", attempted),
        f"op_p50_s ({w.latency_label})": (e2e["op_p50_s"], "s", len(latencies)),
        "goodput_per_s": (e2e["goodput_per_s"], "1/s", attempted - failed),
        **report,
    }
    for key, (value, unit, n) in table.items():
        shown = "n/a" if value is None else f"{value:12.6g}"
        print(f"  {key:<32} {shown:>12} {unit:<6} n={n}")
    table = {k: v for k, v in table.items() if v[0] is not None}
    errors += sanity_errors(
        {k: v[0] for k, v in table.items()}, {k: v[1] for k, v in table.items()},
        positive=[k for k in table if k not in ("failed_share", "hit_share")],
        pairs=[("request_p50_s", k) for k in table if k.startswith("request_tail_s")],
    )

    if trace:
        charged = tracing.layer_budget(tracer.spans, "op")
        op_walls = [ops[i].seconds for i in traced]
        bare_walls = [ops[i].seconds for i in untraced]
        extra["import.repro_s"] = statistics.median(imports)
        extra["budget.tracing_overhead_s"] = (
            statistics.median(op_walls) - statistics.median(bare_walls))
        metrics = layers.per_layer_metrics(tracer, charged, len(traced), extra)
        units = {k: v[0] for k, v in layers.PER_LAYER.items()}
        print_budget(metrics, len(traced))
        path = ROOT / ".perfbench" / "traces" / f"{name}-seed{seed}.json"
        tracer.write_trace(path, f"perfbench {name}")
        print(f"  trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        ran = metrics["kernels.hop_calls"] > 0
        errors += sanity_errors(metrics, units, signed=layers.SIGNED,
                                positive=["kernels.site_rhs_per_s"] if ran else [])
    else:
        metrics, units = e2e, dict(END_TO_END)
        errors += sanity_errors(metrics, units, positive=list(metrics))
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def print_budget(m: dict, n_traced: int) -> None:
    from perfbench.layers import PER_LAYER
    from perfbench.tracing import LAYERS

    wall = m["budget.wall_s"]
    print(f"  layer budget, seconds per traced op ({n_traced} traced ops):")
    for layer in LAYERS:
        s = m[f"budget.{layer}_s"]
        print(f"    {layer:<12} {s:>10.4f} s {100 * s / wall if wall else 0:>6.1f} %")
    print(f"    {'unattributed':<12} {m['budget.unattributed_s']:>10.4f} s "
          f"{100 * m['budget.unattributed_share']:>6.1f} %")
    print(f"    {'wall':<12} {wall:>10.4f} s; tracing overhead "
          f"{m['budget.tracing_overhead_s']:+.4f} s per op")
    for name, value in m.items():
        if not name.startswith("budget."):
            unit, _, what = PER_LAYER[name]
            print(f"  {name:<32} {value:>12.6g} {unit:<6} {what}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    from perfbench.workloads import WORKLOADS

    merged, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            correct = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("spectrum", "serve", "spmd", "sweep", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
