"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uniform_2k_exact --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # each in its own process

``--trace 0`` measures the end-to-end metrics with no wrappers
installed: the workload's set-up and measured phase repeat until
``--seconds`` have passed (at least :data:`MIN_REPS` times), and the
medians are reported.  ``--trace 1`` makes one traced repetition (plus,
for ``rpc_8k_relaxed``, one with the metrics observer off) and one
untraced repetition, and reports the per-layer metrics of
:data:`LAYER_METRICS`; the spans go to ``.bench_build/perfbench/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, peak_rss_mib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Repetitions per untraced run, whatever ``--seconds`` says: medians of
#: fewer samples follow single outliers.
MIN_REPS = 3

E2E_METRICS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

#: Top-level spans whose ``ru_maxrss`` is reported as ``<span>.rss_mib``.
RSS_SPANS = (
    "core.rfc.generate",
    "topologies.packed.generate",
    "workloads.flows.schedule",
    "simulation.engine.init",
    "simulation.fastpath.table",
    "accel.relaxed.candidates",
    "simulation.fastpath.loop",
    "accel.relaxed.loop",
    "workloads.tracker.summary",
    "obs.hooks.export",
    "faults.removal.shuffle",
    "core.ancestors.sweeper",
    "accel.sweeps.coverage",
    "faults.updown_survival.threshold",
)

#: Per-layer metric -> unit.  Times are self times (span duration minus
#: child spans), summed over the spans of that name.
LAYER_METRICS = {
    "core.rfc.generate_s": "s",
    "topologies.packed.generate_s": "s",
    "workloads.flows.schedule_s": "s",
    "workloads.flows.flows": "count",
    "simulation.engine.init_s": "s",
    "simulation.engine.channels": "count",
    "simulation.fastpath.table_s": "s",
    "simulation.fastpath.table_entries": "count",
    "accel.relaxed.candidates_s": "s",
    "accel.sim.padded_s": "s",
    "simulation.fastpath.loop_s": "s",
    "simulation.fastpath.us_per_packet": "us",
    "accel.relaxed.loop_s": "s",
    "accel.relaxed.us_per_packet": "us",
    "accel.relaxed.grant_ratio": "ratio",
    "simulation.generated_packets": "count",
    "simulation.delivered_packets": "count",
    "obs.hooks.on_arbitrate_calls": "count",
    "obs.hooks.on_hop_calls": "count",
    "obs.hooks.hook_s": "s",
    "obs.hooks.export_s": "s",
    "obs.hooks.overhead_s": "s",
    "workloads.tracker.summary_s": "s",
    "workloads.tracker.completion_ratio": "ratio",
    "faults.removal.shuffle_s": "s",
    "core.ancestors.sweeper_s": "s",
    "accel.sweeps.coverage_s": "s",
    "faults.updown_survival.threshold_s": "s",
    "accel.sweeps.probes": "count",
    "accel.sweeps.probe_s": "s",
    "bench.check_s": "s",
    "trace.overhead_pct": "%",
    "trace.gap_pct": "%",
    "trace.absent_wrappers": "count",
} | {f"{span}.rss_mib": "MiB" for span in RSS_SPANS}


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or exit 2.

    ``workloads`` imports ``repro``, so the functions below import it
    only after this has run.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS, Checks, repetition

    workload = WORKLOADS[name].workload
    checks = Checks()
    setups, walls, prints = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        setup_s, wall_s, fingerprint = repetition(workload, seed, checks)
        setups.append(setup_s)
        walls.append(wall_s)
        prints.append(fingerprint)
    checks.expect("repeat-identical", all(p == prints[0] for p in prints))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mib": peak_rss_mib(),
    }
    print(f"{name} seed={seed}: {len(walls)} repetitions (medians)")
    print(f"  setup_s samples: {' '.join(f'{v:.4f}' for v in setups)}")
    print(f"  wall_s samples:  {' '.join(f'{v:.4f}' for v in walls)}")
    return _result(checks, values, E2E_METRICS)


def run_traced(name: str, seed: int) -> dict:
    from workloads import WORKLOADS, Checks, repetition

    spec = WORKLOADS[name]
    checks = Checks()
    tracer = Tracer()
    # Traced first: ru_maxrss only grows, so the per-span RSS readings
    # are meaningful only in the first repetition of the process.
    with tracer.installed():
        rec = tracer.start("traced")
        setup_t, wall_t, traced = repetition(spec.workload, seed, checks, rec.span)
        base = None
        if spec.baseline is not None:
            base = tracer.start("baseline")
            repetition(spec.baseline, seed, checks, base.span)
    setup_u, wall_u, untraced = repetition(spec.workload, seed, checks)
    checks.expect("traced-equals-untraced", traced == untraced)

    own = rec.self_times()
    counts = rec.counts
    values = {m: 0.0 for m in LAYER_METRICS}
    for metric in LAYER_METRICS:
        if metric.endswith("_s") and metric[:-2] in own:
            values[metric] = own[metric[:-2]]
        elif metric in counts:
            values[metric] = counts[metric]
    for span_name in RSS_SPANS:
        values[f"{span_name}.rss_mib"] = rec.rss_after.get(span_name, 0.0)
    generated = counts.get("simulation.generated_packets", 0)
    for loop in ("simulation.fastpath.loop", "accel.relaxed.loop"):
        if generated and loop in own:
            values[f"{loop[:-5]}.us_per_packet"] = own[loop] * 1e6 / generated
    requests = counts.get("arb.requests", 0)
    if requests:
        values["accel.relaxed.grant_ratio"] = counts["arb.grants"] / requests
    if base is not None:
        loop = "accel.relaxed.loop"
        values["obs.hooks.overhead_s"] = (
            own.get(loop, 0.0) - base.self_times().get(loop, 0.0)
        )
    values["trace.overhead_pct"] = 100.0 * (wall_t - wall_u) / wall_u
    total = setup_t + wall_t
    values["trace.gap_pct"] = 100.0 * (total - rec.top_level_seconds()) / total
    values["trace.absent_wrappers"] = len(tracer.absent)

    for target in tracer.absent:
        print(f"  absent: {target}")
    out = ROOT / ".bench_build" / "perfbench" / f"spans-{name}-seed{seed}.json"
    tracer.write(out)
    print(f"{name} seed={seed}: traced spans written to {out}")
    print(f"  untraced setup_s={setup_u:.4f} wall_s={wall_u:.4f}")
    return _result(checks, values, LAYER_METRICS)


def _result(checks, values: dict, units: dict) -> dict:
    for failure in checks.failures:
        print(f"  FAILED check: {failure}")
    for metric, value in values.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            m: {"value": values[m], "unit": units[m]} for m in units
        },
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh process, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            sys.exit(f"perfbench: {name} exited with {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is imported (by repro): one BLAS/OpenMP thread, so a
    # workload's time and memory are its own and the load fits two cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    elif args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
