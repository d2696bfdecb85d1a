"""Command-line interface: ``repro-rfc`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Build a topology (rfc / cft / oft / rrn / kary), print its summary
    and optionally verify up/down routability.
``analyze``
    Structural report for an RFC: threshold offset, diameter,
    bisection bounds, generation attempts.
``simulate``
    One cycle-level simulation run (topology, traffic, load).
``workload``
    One open-loop flow workload run (poisson-mix / rpc / shuffle /
    incast) with an FCT percentile table.
``experiment``
    Regenerate a paper table/figure by id (fig5, tab3, ... or 'all').
``scenarios``
    Print the Section 5 cost scenarios.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` for integers ``>= minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    from .experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro-rfc",
        description=(
            "Random Folded Clos topologies: generation, analysis, "
            "simulation and paper-experiment reproduction (HPCA 2017)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a topology and summarize it")
    gen.add_argument(
        "topology", choices=["rfc", "cft", "oft", "rrn", "kary"]
    )
    gen.add_argument("--radix", type=int, default=12)
    gen.add_argument("--levels", type=int, default=3)
    gen.add_argument("--leaves", type=int, default=0,
                     help="RFC leaf switches (default: Theorem 4.2 maximum)")
    gen.add_argument("--order", type=int, default=0,
                     help="OFT order q (default: from radix)")
    gen.add_argument("--switches", type=int, default=64,
                     help="RRN switch count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--check-updown", action="store_true")
    gen.add_argument("--packed", action="store_true",
                     help="RFC only: build the array-native "
                          "PackedFoldedClos via the batched "
                          "Steger-Wormald generator and report "
                          "generation time, peak memory and a "
                          "strong-expansion summary")
    gen.add_argument("--terminals", type=int, default=0, metavar="N",
                     help="with --packed: target terminal count; leaf "
                          "count is derived as the smallest even N1 "
                          "with N1 * R/2 >= N (overrides --leaves)")

    ana = sub.add_parser("analyze", help="structural analysis of an RFC")
    ana.add_argument("--radix", type=int, default=12)
    ana.add_argument("--levels", type=int, default=3)
    ana.add_argument("--leaves", type=int, default=0)
    ana.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="one cycle-level simulation run")
    sim.add_argument("topology", choices=["rfc", "cft"])
    sim.add_argument("--radix", type=int, default=8)
    sim.add_argument("--levels", type=int, default=3)
    sim.add_argument("--leaves", type=int, default=32)
    sim.add_argument("--traffic", default="uniform",
                     choices=["uniform", "random-pairing", "fixed-random"])
    sim.add_argument("--load", type=float, default=0.5)
    sim.add_argument("--cycles", type=int, default=2_000)
    sim.add_argument("--warmup", type=int, default=500)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--rng-mode",
                     choices=["exact", "relaxed"],
                     default="exact",
                     help="'exact' (default): one shared sequential RNG "
                          "stream, bit-for-bit reproducible; 'relaxed': "
                          "counter-based per-packet RNG on the fully "
                          "batched engine -- much faster, deterministic "
                          "per seed, but NOT bit-for-bit comparable to "
                          "exact-mode results (statistical equivalence "
                          "only)")
    sim.add_argument("--trace", metavar="PATH", default=None,
                     help="write a JSONL event trace (inject/hop/eject/"
                          "drop) to PATH")
    sim.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write the run's metrics registry (queue/credit "
                          "histograms, per-link loads, latency "
                          "percentiles) as JSON to PATH")

    wl = sub.add_parser(
        "workload", help="one open-loop flow workload run with FCT stats"
    )
    wl.add_argument("--pattern", default="poisson-mix",
                    choices=["poisson-mix", "rpc", "shuffle", "incast"])
    wl.add_argument("--topology", choices=["rfc", "cft"], default="rfc")
    wl.add_argument("--radix", type=int, default=8)
    wl.add_argument("--levels", type=int, default=3)
    wl.add_argument("--leaves", type=int, default=32)
    wl.add_argument("--load", type=float, default=0.5,
                    help="target offered load for Poisson workloads")
    wl.add_argument("--duration", type=int, default=2_000,
                    help="flow arrival window in cycles")
    wl.add_argument("--cycles", type=int, default=4_000,
                    help="measured cycles (horizon = warmup + cycles; "
                         "give completions headroom past --duration)")
    wl.add_argument("--warmup", type=int, default=0,
                    help="warmup cycles (workloads usually measure from "
                         "cycle 0; flows are explicit, not steady-state)")
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--fanin", type=int, default=8,
                    help="incast fan-in (workers per aggregator)")
    wl.add_argument("--rpc-size", type=int, default=4,
                    help="packets per rpc/incast flow")
    wl.add_argument("--rng-mode", choices=["exact", "relaxed"],
                    default="exact",
                    help="'relaxed': counter-RNG batched engine, "
                         "statistically equivalent only")
    wl.add_argument("--trace", metavar="PATH", default=None,
                    help="write flow_complete JSONL records to PATH")

    exp = sub.add_parser("experiment", help="reproduce a paper table/figure")
    exp.add_argument("name", choices=[*sorted(EXPERIMENTS), "all"],
                     help="experiment id (fig5, tab3, ...) or 'all'")
    exp.add_argument("--full", action="store_true",
                     help="full-scale parameters (slow)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--csv", metavar="DIR", default=None,
                     help="also write <DIR>/<name>.csv per experiment")
    exp.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes for simulation sweeps "
                          "(default 1 = serial; results are identical "
                          "for any worker count)")
    exp.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="content-addressed result cache directory; "
                          "warm re-runs skip already-simulated points")
    exp.add_argument("--no-cache", action="store_true",
                     help="ignore --cache-dir (recompute everything)")
    exp.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="collect engine metrics on every simulated "
                          "point and write the merged per-scenario "
                          "exports as JSON to PATH")

    sub.add_parser("scenarios", help="print the Section 5 cost scenarios")

    rep = sub.add_parser(
        "report", help="full structural report for a topology file"
    )
    rep.add_argument("path", help="topology JSON from 'export'")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--fault-trials", type=_int_at_least(0), default=5,
                     help="random failure orders for the fault sweep "
                          "(0 skips it)")

    div = sub.add_parser(
        "diversity", help="path-diversity census of an RFC or CFT"
    )
    div.add_argument("topology", choices=["rfc", "cft", "oft"])
    div.add_argument("--radix", type=int, default=12)
    div.add_argument("--levels", type=int, default=3)
    div.add_argument("--leaves", type=int, default=0)
    div.add_argument("--pairs", type=_int_at_least(1), default=200)
    div.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint",
        help="run the determinism/reproducibility checkers (repro.lint)",
        add_help=False,
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to 'python -m repro.lint' "
             "(paths, --format {text,json})",
    )

    export = sub.add_parser(
        "export", help="generate a topology and write it to a file"
    )
    export.add_argument("topology", choices=["rfc", "cft", "oft", "rrn"])
    export.add_argument("output", help="output path (.json, .dot or .edges)")
    export.add_argument("--radix", type=int, default=12)
    export.add_argument("--levels", type=int, default=3)
    export.add_argument("--leaves", type=int, default=0)
    export.add_argument("--switches", type=int, default=64)
    export.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from .core.ancestors import has_updown_routing_of
    from .core.rfc import radix_regular_rfc
    from .core.theory import rfc_max_leaves
    from .topologies.fattree import commodity_fat_tree, k_ary_l_tree
    from .topologies.oft import oft_order_for_radix, orthogonal_fat_tree
    from .topologies.rrn import random_regular_network, rrn_degree_for

    if args.topology == "rfc" and args.packed:
        return _cmd_generate_packed(args)
    if args.packed:
        print("--packed is only supported for 'rfc'", file=sys.stderr)
        return 2
    if args.topology == "rfc":
        leaves = args.leaves or rfc_max_leaves(args.radix, args.levels)
        topo = radix_regular_rfc(args.radix, leaves, args.levels, rng=args.seed)
    elif args.topology == "cft":
        topo = commodity_fat_tree(args.radix, args.levels)
    elif args.topology == "kary":
        topo = k_ary_l_tree(args.radix // 2, args.levels)
    elif args.topology == "oft":
        q = args.order or oft_order_for_radix(args.radix)
        topo = orthogonal_fat_tree(q, args.levels)
    else:
        degree, hosts = rrn_degree_for(args.radix, 2 * (args.levels - 1))
        topo = random_regular_network(args.switches, degree, hosts,
                                      rng=args.seed)
        print(f"{topo.name}: T={topo.num_terminals} switches="
              f"{topo.num_switches} links={topo.num_links} "
              f"ports={topo.num_ports}")
        return 0

    print(f"{topo.name}: T={topo.num_terminals} levels={topo.level_sizes} "
          f"links={topo.num_links} ports={topo.num_ports} "
          f"radix-regular={topo.is_radix_regular()}")
    if args.check_updown:
        from .core.ancestors import has_updown_routing_of as check

        print(f"up/down routable: {check(topo)}")
    return 0


def _cmd_generate_packed(args: argparse.Namespace) -> int:
    """``generate rfc --packed``: the extreme-scale array-native path.

    Reproduces the ``extreme_scale`` bench section interactively:
    generation wall time, ancestor-analysis wall time, peak RSS and a
    strong-expansion summary for an RFC sized by ``--terminals`` (or
    ``--leaves`` / the Theorem 4.2 maximum).
    """
    import resource
    import time

    from .core.ancestors import sweeper_of
    from .core.expansion import strong_expansion_limit
    from .core.theory import rfc_max_leaves, threshold_radix, x_for_radix
    from .topologies.packed import packed_radix_regular_rfc

    half = args.radix // 2
    if args.terminals:
        leaves = -(-args.terminals // half)
        leaves += leaves % 2
    else:
        leaves = args.leaves or rfc_max_leaves(args.radix, args.levels)

    start = time.perf_counter()
    topo = packed_radix_regular_rfc(
        args.radix, leaves, args.levels, rng=args.seed
    )
    generation_s = time.perf_counter() - start

    start = time.perf_counter()
    sweeper = sweeper_of(topo)
    fraction = sweeper.reachable_fraction()
    analysis_s = time.perf_counter() - start
    # ru_maxrss is KiB on Linux.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    max_leaves = strong_expansion_limit(args.radix, args.levels)
    print(f"{topo.name}: T={topo.num_terminals:,} levels={topo.level_sizes} "
          f"links={topo.num_links:,} ports={topo.num_ports:,} "
          f"radix-regular={topo.is_radix_regular()}")
    print(f"  generation:           {generation_s:.3f} s "
          f"(batched Steger-Wormald, packed CSR)")
    print(f"  ancestor analysis:    {analysis_s:.3f} s "
          f"(reachable fraction {fraction:.6f}, "
          f"up/down routable: {fraction >= 1.0})")
    print(f"  peak RSS:             {peak_mib:.0f} MiB")
    print(f"  strong expansion:     N1={leaves:,} of {max_leaves:,} max "
          f"(threshold radix {threshold_radix(leaves, args.levels):.2f}, "
          f"offset x={x_for_radix(args.radix, leaves, args.levels):+.3f})")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core.rfc import rfc_with_updown
    from .core.theory import (
        rfc_max_leaves,
        threshold_radix,
        updown_probability,
        x_for_radix,
    )
    from .graphs.bisection import rfc_normalized_bisection
    from .graphs.metrics import leaf_diameter

    leaves = args.leaves or rfc_max_leaves(args.radix, args.levels)
    x = x_for_radix(args.radix, leaves, args.levels)
    print(f"RFC(R={args.radix}, N1={leaves}, l={args.levels})")
    print(f"  terminals:          {leaves * (args.radix // 2):,}")
    print(f"  threshold radix:    {threshold_radix(leaves, args.levels):.2f}")
    print(f"  threshold offset x: {x:+.3f}")
    print(f"  P(up/down):         {updown_probability(x):.4f}")
    print(f"  normalized bisection (Bollobas): "
          f"{rfc_normalized_bisection(args.radix, args.levels):.3f}")
    topo, attempts = rfc_with_updown(args.radix, leaves, args.levels,
                                     rng=args.seed)
    leaf_ids = [topo.switch_id(0, i) for i in range(topo.num_leaves)]
    print(f"  generated in {attempts} attempt(s); leaf diameter "
          f"{leaf_diameter(topo.adjacency(), leaf_ids)} "
          f"(bound {2 * (args.levels - 1)})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .core.rfc import rfc_with_updown
    from .obs import (
        MetricsObserver,
        MultiObserver,
        TraceWriter,
        TracingObserver,
    )
    from .simulation.config import SimulationParams
    from .simulation.engine import simulate
    from .simulation.traffic import make_traffic
    from .topologies.fattree import commodity_fat_tree

    if args.topology == "cft":
        topo = commodity_fat_tree(args.radix, args.levels)
    else:
        topo, _ = rfc_with_updown(args.radix, args.leaves, args.levels,
                                  rng=args.seed)
    relaxed = getattr(args, "rng_mode", "exact") == "relaxed"
    if relaxed:
        # Loud, up-front, and on stderr: numbers produced in this mode
        # are deterministic for the seed but not comparable bit-for-bit
        # with exact-mode runs (or with the paper pins).
        print(
            "WARNING: --rng-mode relaxed is NOT bit-for-bit "
            "reproducible against exact-mode runs; results are only "
            "statistically equivalent (see docs/PERFORMANCE.md). "
            "Publishable numbers should use --rng-mode exact.",
            file=sys.stderr,
        )
    params = SimulationParams(
        measure_cycles=args.cycles,
        warmup_cycles=args.warmup,
        seed=args.seed,
        rng_mode="relaxed" if relaxed else "exact",
    )
    traffic = make_traffic(args.traffic, topo.num_terminals,
                           rng=args.seed + 101)

    observers = []
    metrics_obs = writer = None
    if args.metrics_out:
        metrics_obs = MetricsObserver()
        observers.append(metrics_obs)
    if args.trace:
        writer = TraceWriter(args.trace)
        observers.append(TracingObserver(writer))
    observer = None
    if len(observers) == 1:
        observer = observers[0]
    elif observers:
        observer = MultiObserver(observers)

    result = simulate(topo, traffic, args.load, params, observer=observer)
    print(result.row())
    print(f"  delivered {result.delivered_packets:,} packets, "
          f"avg hops {result.avg_hops:.2f}, "
          f"max latency {result.max_latency}")
    if writer is not None:
        writer.close()
        print(f"  trace: {writer.written:,} events -> {args.trace}"
              + (f" ({writer.dropped:,} dropped)" if writer.dropped else ""))
    if metrics_obs is not None:
        export = metrics_obs.export()
        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(export, indent=1, sort_keys=True))
        counters = export["counters"]
        print(f"  metrics: {counters.get('inject.packets', 0):,} injected / "
              f"{counters.get('eject.packets', 0):,} ejected -> "
              f"{args.metrics_out}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from .core.rfc import rfc_with_updown
    from .obs import TraceWriter
    from .simulation.config import SimulationParams
    from .topologies.fattree import commodity_fat_tree
    from .workloads import make_workload, run_workload

    if args.topology == "cft":
        topo = commodity_fat_tree(args.radix, args.levels)
    else:
        topo, _ = rfc_with_updown(args.radix, args.leaves, args.levels,
                                  rng=args.seed)
    if args.rng_mode == "relaxed":
        print(
            "WARNING: --rng-mode relaxed is NOT bit-for-bit "
            "reproducible against exact-mode runs; FCT distributions "
            "are only statistically equivalent.",
            file=sys.stderr,
        )
    params = SimulationParams(
        measure_cycles=args.cycles,
        warmup_cycles=args.warmup,
        seed=args.seed,
        rng_mode=args.rng_mode,
    )
    workload = make_workload(
        args.pattern,
        topo.num_terminals,
        seed=args.seed + 101,
        load=args.load,
        duration=args.duration,
        packet_phits=params.packet_phits,
        fanin=args.fanin,
        rpc_size=args.rpc_size,
    )
    writer = TraceWriter(args.trace) if args.trace else None
    result = run_workload(topo, workload, params, trace_writer=writer)
    if writer is not None:
        writer.close()
    fs = result.flow_stats
    print(f"{topo.name}  workload={args.pattern}  "
          f"rng_mode={params.rng_mode}  seed={args.seed}")
    print(f"  flows: {fs['flows_completed']:,}/{fs['flows_total']:,} "
          f"completed ({fs['flows_dropped']} dropped), "
          f"{fs['packets']:,} packets delivered")
    print(f"  accepted load {result.accepted_load:.3f} "
          f"(offered {result.offered_load:.3f})")
    print("  FCT cycles      mean      p50      p99     p999      max")
    print(f"            {fs['fct_mean']:9.1f} {fs['fct_p50']:8.1f} "
          f"{fs['fct_p99']:8.1f} {fs['fct_p999']:8.1f} "
          f"{fs['fct_max']:8.1f}")
    print(f"  slowdown (vs ideal serialization): "
          f"mean {fs['slowdown_mean']:.2f}  p50 {fs['slowdown_p50']:.2f}  "
          f"p99 {fs['slowdown_p99']:.2f}")
    if writer is not None:
        print(f"  trace: {writer.written:,} flow_complete records -> "
              f"{args.trace}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import contextlib
    import json
    from pathlib import Path

    from . import obs
    from .exec import using_executor
    from .experiments import EXPERIMENTS, run_experiment

    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    metrics_scope = (
        obs.using_metrics(True) if args.metrics_out
        else contextlib.nullcontext()
    )
    with metrics_scope, using_executor(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    ):
        for name in names:
            table = run_experiment(name, quick=not args.full, seed=args.seed)
            print(table.render())
            print()
            if args.csv:
                directory = Path(args.csv)
                directory.mkdir(parents=True, exist_ok=True)
                (directory / f"{name}.csv").write_text(table.to_csv())
        if args.metrics_out:
            path = Path(args.metrics_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            exports = obs.collected()
            path.write_text(json.dumps(exports, indent=1, sort_keys=True))
            print(f"metrics: {len(exports)} sweep export(s) -> {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import analyze_network
    from .topologies.io import load

    network = load(args.path)
    report = analyze_network(
        network, rng=args.seed, fault_trials=args.fault_trials
    )
    print(report.render())
    return 0


def _cmd_diversity(args: argparse.Namespace) -> int:
    from .core.rfc import rfc_with_updown
    from .core.theory import rfc_max_leaves
    from .routing.diversity import path_diversity_census
    from .topologies.fattree import commodity_fat_tree
    from .topologies.oft import oft_order_for_radix, orthogonal_fat_tree

    if args.topology == "rfc":
        leaves = args.leaves or min(rfc_max_leaves(args.radix, args.levels),
                                    200)
        topo, _ = rfc_with_updown(args.radix, leaves - leaves % 2,
                                  args.levels, rng=args.seed)
    elif args.topology == "cft":
        topo = commodity_fat_tree(args.radix, args.levels)
    else:
        topo = orthogonal_fat_tree(
            oft_order_for_radix(args.radix), args.levels
        )
    census = path_diversity_census(topo, sample_pairs=args.pairs,
                                   rng=args.seed)
    print(f"{topo.name}: {census.describe()}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core.rfc import rfc_with_updown
    from .core.theory import rfc_max_leaves
    from .topologies.fattree import commodity_fat_tree
    from .topologies.io import save, to_dot, to_edge_list
    from .topologies.oft import oft_order_for_radix, orthogonal_fat_tree
    from .topologies.rrn import random_regular_network, rrn_degree_for

    if args.topology == "rfc":
        leaves = args.leaves or rfc_max_leaves(args.radix, args.levels)
        topo, _ = rfc_with_updown(args.radix, leaves, args.levels,
                                  rng=args.seed)
    elif args.topology == "cft":
        topo = commodity_fat_tree(args.radix, args.levels)
    elif args.topology == "oft":
        topo = orthogonal_fat_tree(
            oft_order_for_radix(args.radix), args.levels
        )
    else:
        degree, hosts = rrn_degree_for(args.radix, 2 * (args.levels - 1))
        topo = random_regular_network(args.switches, degree, hosts,
                                      rng=args.seed)
    path = Path(args.output)
    if path.suffix == ".json":
        save(topo, path)
    elif path.suffix == ".dot":
        path.write_text(to_dot(topo))
    elif path.suffix == ".edges":
        path.write_text(to_edge_list(topo))
    else:
        print(f"unknown output format {path.suffix!r}; "
              "use .json, .dot or .edges", flush=True)
        return 2
    print(f"wrote {topo.name} ({topo.num_links} links) to {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.runner import main as lint_main

    return lint_main(list(args.lint_args))


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .experiments.sec5_scenarios import run

    print(run(quick=True).render())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "workload": _cmd_workload,
        "experiment": _cmd_experiment,
        "scenarios": _cmd_scenarios,
        "lint": _cmd_lint,
        "report": _cmd_report,
        "diversity": _cmd_diversity,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        # Bad inputs (a load outside (0, 1], an odd radix, a missing
        # topology file) fail with one line naming the input, not a
        # traceback; NetworkError is a ValueError.
        print(f"repro-rfc {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
