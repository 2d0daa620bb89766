"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the 16-network registry with paper-scale statistics.
``seeds``
    Run IMM on a registry dataset or a SNAP edge list and print the seed
    set with its influence estimates.
``compare``
    Run eIM/gIM/cuRipples on one dataset and print the comparison.
``experiment``
    Regenerate one of the paper's tables/figures by name.
``serve``
    Run the influence-query service: JSON-lines requests over TCP, or
    batch mode reading requests from stdin (one per line).
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.experiments import ExperimentConfig, figures, tables
from repro.experiments.runner import compare_engines
from repro.graphs import assign_ic_weights, assign_lt_weights, load_edgelist
from repro.graphs.datasets import DATASETS, load_dataset
from repro.imm import BoundsConfig, IMMOptions, run_imm
from repro.resilience import ResilienceOptions

EXPERIMENTS = {
    "table1": tables.table1_datasets,
    "table1b": tables.table1_calibration,
    "table2": tables.table2_ic_k_sweep,
    "table3": tables.table3_ic_eps_sweep,
    "table4": tables.table4_lt_k_sweep,
    "table5": tables.table5_lt_eps_sweep,
    "fig3": figures.fig3_scan_scaling,
    "fig4": figures.fig4_log_encoding_memory,
    "fig5": figures.fig5_source_elim_speedup,
    "fig6": figures.fig6_source_elim_memory,
    "fig7": figures.fig7_ic_speedups,
    "fig8": figures.fig8_lt_speedups,
    "sec42": figures.sec42_csc_memory,
}


def _workload_parent(
    *,
    k: int,
    epsilon: float,
    seed: int,
    theta_scale: float,
    dataset_required: bool = False,
) -> argparse.ArgumentParser:
    """The workload options shared by ``seeds`` and ``compare``.

    A fresh parent parser per subcommand (argparse ``parents=`` shares
    action objects, so one instance cannot carry per-command defaults or
    required-ness).  ``seeds`` keeps ``--dataset`` out of the parent —
    there it lives in a mutually exclusive group with ``--edge-list``,
    which argparse cannot express across a parent boundary.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if dataset_required:
        parent.add_argument("--dataset", required=True, choices=sorted(DATASETS),
                            help="registry code")
    parent.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])
    parent.add_argument("--k", type=int, default=k)
    parent.add_argument("--epsilon", type=float, default=epsilon)
    parent.add_argument("--model", default="IC", choices=["IC", "LT"])
    parent.add_argument("--seed", type=int, default=seed, help="RNG seed")
    parent.add_argument("--theta-scale", type=float, default=theta_scale,
                        help="scale the IMM sample-size bounds (1.0 = exact)")
    parent.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="RRR sampler worker processes (IMMOptions.n_jobs)")
    parent.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-round sampling timeout before hung workers "
                             "are recycled (default: wait forever)")
    parent.add_argument("--retries", type=int, default=2, metavar="N",
                        help="sampling retry budget per job before serial "
                             "degradation (default 2)")
    parent.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="persist warm-start RRR chunks under DIR and "
                             "resume from them on re-run")
    parent.add_argument("--visited-mode", default=None,
                        choices=["auto", "sorted", "bitset"],
                        help="sampler visited bookkeeping: 'bitset' keeps a "
                             "dense word-packed visited plane, 'sorted' the "
                             "classic sorted-key array; 'auto' starts each "
                             "batch sorted and moves it to the plane once "
                             "its merges cost what the plane would, if the "
                             "plane fits the memory budget (default: "
                             "REPRO_VISITED_MODE, else auto; output is "
                             "bit-identical in every mode)")
    parent.add_argument("--coverage-scan", default=None,
                        choices=["auto", "csr", "bitset"],
                        help="seed-selection coverage scan: 'bitset' popcounts "
                             "word-packed membership rows, 'csr' walks the "
                             "inverted-index postings; 'auto' picks by the "
                             "kernel memory budget (default: "
                             "REPRO_COVERAGE_SCAN, else auto; seeds and "
                             "stats are identical either way)")
    parent.add_argument("--data-plane", default=None, choices=["pickle", "shm"],
                        help="parent<->worker transport: 'shm' publishes the "
                             "graph once into shared memory and ships results "
                             "log-encoded; 'pickle' is the classic path "
                             "(default: REPRO_DATA_PLANE, else shm where "
                             "available; output is bit-identical either way)")
    parent.add_argument("--memory-budget-mb", type=float, default=None,
                        metavar="MB",
                        help="process memory budget in MiB: RRR chunks "
                             "demote to compressed/spilled tiers and dense "
                             "kernel planes fall back to sparse paths rather "
                             "than exceed it; seeds are bit-identical at "
                             "every budget (default: REPRO_MEMORY_BUDGET_MB, "
                             "else unbounded)")
    parent.add_argument("--profile", action="store_true",
                        help="print a per-phase timing/metrics table for the run")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="eIM reproduction: influence maximization via IMM "
                    "with a simulated GPU substrate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the evaluation-network registry")

    seeds = sub.add_parser(
        "seeds", help="run IMM and print the seed set",
        parents=[_workload_parent(k=10, epsilon=0.2, seed=0, theta_scale=1.0)],
    )
    src = seeds.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=sorted(DATASETS), help="registry code")
    src.add_argument("--edge-list", help="path to a SNAP-format edge list")
    seeds.add_argument("--no-source-elimination", action="store_true",
                       help="disable the paper's §3.4 heuristic")
    seeds.add_argument("--validate", type=int, metavar="SAMPLES", default=0,
                       help="cross-check with this many forward Monte-Carlo cascades")
    seeds.add_argument("--profile-json", metavar="FILE", default=None,
                       help="also write the profile report as JSON to FILE")

    compare = sub.add_parser(
        "compare", help="compare the three engines",
        parents=[_workload_parent(k=50, epsilon=0.1, seed=2025,
                                  theta_scale=0.5, dataset_required=True)],
    )
    compare.add_argument("--warm-start", action="store_true",
                         help="share one warm-start RRR sample across the repeats")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--datasets", help="comma-separated code subset")
    experiment.add_argument("--scale", default="tiny", choices=["tiny", "small", "paper"])

    serve = sub.add_parser(
        "serve", help="serve influence queries (JSON-lines over TCP or stdin)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7473,
                       help="TCP port (0 = ephemeral); ignored with --stdin")
    serve.add_argument("--stdin", action="store_true",
                       help="batch mode: read one JSON request per line from "
                            "stdin, write one JSON response per line to stdout")
    serve.add_argument("--max-inflight", type=int, default=2,
                       help="concurrent query executions (worker threads)")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="admitted-but-waiting queries before submits are "
                            "rejected with ServiceOverloadedError")
    serve.add_argument("--max-substrates", type=int, default=8,
                       help="warm sampling substrates (RRR store + coverage "
                            "index) kept resident, LRU beyond that")
    serve.add_argument("--exact-cache-size", type=int, default=128,
                       help="finished results kept for exact repeat hits")
    serve.add_argument("--chunk-sets", type=int, default=1024,
                       help="substrate RRR chunk granularity")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="persist substrate chunks under DIR so a "
                            "restarted service warm-starts from disk")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-query wall-clock budget; expired "
                            "queries fail with DeadlineExceededError instead "
                            "of occupying a worker (unset = unbounded)")
    serve.add_argument("--read-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-connection idle read timeout; a silent "
                            "client gets its connection closed (unset = "
                            "wait forever)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="on SIGTERM, wait this long for admitted "
                            "queries to finish before closing")
    serve.add_argument("--memory-budget-mb", type=float, default=None,
                       metavar="MB",
                       help="process memory budget in MiB; under pressure "
                            "substrate chunks demote to compressed/spilled "
                            "tiers, and overcommitted admissions are served "
                            "degraded or shed instead of risking a host OOM "
                            "(default: REPRO_MEMORY_BUDGET_MB, else "
                            "unbounded)")
    serve.add_argument("--health", action="store_true",
                       help="client mode: ask the server at --host:--port "
                            "for its health snapshot, print it, exit")
    return parser


def _cmd_datasets(_args) -> int:
    cfg = ExperimentConfig.from_env()
    print(tables.table1_datasets(cfg).render())
    return 0


def _cmd_seeds(args) -> int:
    if args.dataset:
        graph = load_dataset(args.dataset, scale=args.scale, rng=args.seed)
        label = f"{DATASETS[args.dataset].name} ({args.scale})"
    else:
        graph = load_edgelist(args.edge_list)
        label = args.edge_list
    assign = assign_ic_weights if args.model == "IC" else assign_lt_weights
    graph = assign(graph)
    print(f"{label}: {graph.n} vertices, {graph.m} edges")
    resilience = ResilienceOptions(
        job_timeout=args.timeout,
        max_retries=args.retries,
        checkpoint_dir=args.checkpoint_dir,
    )
    store = None
    if args.checkpoint_dir is not None:
        # route sampling through a checkpointed warm-start store so a
        # killed run resumes from its last completed chunk
        from repro.rrr.store import shared_store

        store = shared_store(
            graph,
            model=args.model,
            eliminate_sources=not args.no_source_elimination,
            entropy=args.seed,
            n_jobs=args.jobs,
            resilience=resilience,
            data_plane=args.data_plane,
            visited_mode=args.visited_mode,
        )
    result = run_imm(
        graph, args.k, args.epsilon, rng=args.seed,
        options=IMMOptions(
            model=args.model,
            eliminate_sources=not args.no_source_elimination,
            bounds=BoundsConfig(theta_scale=args.theta_scale),
            n_jobs=args.jobs,
            profile=args.profile or args.profile_json is not None,
            resilience=resilience,
            data_plane=args.data_plane,
            visited_mode=args.visited_mode,
            coverage_scan=args.coverage_scan,
            memory_budget_mb=args.memory_budget_mb,
        ),
        store=store,
    )
    print(f"theta = {result.theta} RRR sets; coverage = {result.coverage_fraction:.3f}")
    recovery = result.trace.resilience
    if recovery is not None and not recovery.clean:
        print(f"resilience: {recovery.retries} retries, "
              f"{recovery.rebuilds} pool rebuilds, "
              f"{recovery.degraded_jobs} degraded jobs, "
              f"~{recovery.wall_clock_lost:.2f}s lost")
    print(f"seeds: {sorted(result.seeds.tolist())}")
    print(f"influence estimate: {result.influence_estimate():.1f} "
          f"({100 * result.influence_estimate() / graph.n:.1f}% of network)")
    if args.validate:
        from repro.diffusion import estimate_spread

        spread = estimate_spread(graph, result.seeds, args.model,
                                 args.validate, rng=args.seed + 1)
        print(f"Monte-Carlo spread ({args.validate} cascades): {spread:.1f}")
    if result.profile is not None:
        if args.profile:
            print()
            print(obs.render_table(result.profile))
        if args.profile_json is not None:
            obs.write_json(result.profile, args.profile_json)
            print(f"profile written to {args.profile_json}")
    return 0


def _cmd_compare(args) -> int:
    if args.memory_budget_mb is not None:
        # compare drives many runs through ExperimentConfig; pin the
        # budget process-wide instead of threading it through each one
        from repro.memory.budget import governor

        governor().set_budget(int(args.memory_budget_mb * 1024 * 1024))
    cfg = ExperimentConfig.from_env(
        scale=args.scale, seed=args.seed,
        theta_scale=args.theta_scale, sweep_theta_scale=args.theta_scale,
        datasets=(args.dataset,), n_jobs=args.jobs,
        warm_start=args.warm_start or args.checkpoint_dir is not None,
        job_timeout=args.timeout, max_retries=args.retries,
        checkpoint_dir=args.checkpoint_dir,
        data_plane=args.data_plane,
        visited_mode=args.visited_mode,
        coverage_scan=args.coverage_scan,
    )
    handle = obs.install() if args.profile else None
    row = compare_engines(args.dataset, args.k, args.epsilon, args.model, cfg)
    for result in (row.eim, row.gim, row.curipples):
        status = "OOM" if result.oom else f"{result.total_cycles:.3e} cycles"
        extra = "" if result.oom else (
            f"  theta={result.theta}  rrr={result.rrr_store_bytes:,}B"
            f"  peak={result.peak_device_bytes:,}B"
        )
        print(f"{result.engine:<10s} {status}{extra}")
    if not (row.eim.oom or row.gim.oom):
        print(f"\neIM speedup: {row.speedup_vs_gim:.2f}x over gIM, "
              f"{row.speedup_vs_curipples:.2f}x over cuRipples")
    if handle is not None:
        report = handle.report()
        obs.uninstall()
        print()
        print(obs.render_table(report))
    return 0


def _cmd_experiment(args) -> int:
    overrides = {"scale": args.scale}
    if args.datasets:
        overrides["datasets"] = tuple(
            c.strip().upper() for c in args.datasets.split(",") if c.strip()
        )
    cfg = ExperimentConfig.from_env(**overrides)
    print(EXPERIMENTS[args.name](cfg).render())
    return 0


def _cmd_serve(args) -> int:
    from repro.service import InfluenceService, ServiceOptions
    from repro.service.server import request_once, serve_stdin, serve_tcp

    if args.health:
        import json

        response = request_once(args.host, args.port, {"health": True})
        print(json.dumps(response.get("health", response), indent=2))
        return 0 if response.get("ok") else 1
    options = ServiceOptions(
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue_depth,
        exact_cache_size=args.exact_cache_size,
        max_substrates=args.max_substrates,
        chunk_sets=args.chunk_sets,
        checkpoint_dir=args.checkpoint_dir,
        default_deadline=args.deadline,
        memory_budget_mb=args.memory_budget_mb,
    )
    with InfluenceService(options) as service:
        if args.stdin:
            served = serve_stdin(service, sys.stdin, sys.stdout)
            print(f"served {served} requests", file=sys.stderr)
        else:
            print(f"serving on {args.host}:{args.port} "
                  f"(JSON-lines; Ctrl-C to stop, SIGTERM to drain)",
                  file=sys.stderr)
            serve_tcp(service, args.host, args.port,
                      read_timeout=args.read_timeout,
                      drain_timeout=args.drain_timeout)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "seeds": _cmd_seeds,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
