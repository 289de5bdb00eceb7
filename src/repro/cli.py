"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``traces``
    List available workloads and their Table II characteristics.
``scenarios``
    List the registered scenarios (workload × cluster × protocol).
``generate``
    Write a synthetic workload to an SWF file.
``evaluate``
    Score heuristic schedulers (and optionally a saved RL model) on a
    workload or a scenario — one Table V/VI/X/XI row from the shell.
``compare``
    The scenario × scheduler evaluation matrix, optionally written to a
    JSON artifact.
``train``
    Train an RL scheduling policy and save it as ``.npz``.
``study``
    The cross-scenario generalization study (Table VII): train one
    policy per scenario into a checkpoint zoo (resumable), evaluate
    every policy on every scenario alongside the heuristics, and write
    the generalization-matrix JSON artifact.
``serve``
    Run the scheduler-as-a-service daemon: a selector-loop socket front
    end multiplexing N logical clusters (tenants) over one process, each
    with its own policy (heuristic or saved RL model).
``submit``
    Client for a running daemon: submit a single job or replay an SWF
    file, query status/stats, drain.

Examples
--------
::

    python -m repro traces
    python -m repro scenarios
    python -m repro generate PIK-IPLEX --jobs 10000 -o pik.swf
    python -m repro evaluate Lublin-1 --metric bsld --backfill
    python -m repro evaluate --scenario lublin-256-mem --workers 4
    python -m repro evaluate --scenario pik-iplex --no-backfill
    python -m repro compare --scenarios lublin-256,bursty-sdsc \\
        --schedulers FCFS,SJF --workers 2 -o matrix.json
    python -m repro train Lublin-1 --metric bsld --epochs 20 -o model.npz
    python -m repro train --scenario lublin-64 -o model.npz
    python -m repro evaluate Lublin-1 --model model.npz
    python -m repro study --scenarios lublin-64,lublin-256-mem \\
        --jobs 400 --epochs 2 --trajectories 2 --length 16 --obsv 8 \\
        --sequences 2 --eval-length 24 --workers 2 -o generalization.json
    python -m repro serve --port 7653 \\
        --tenant batch:FCFS:256:easy --tenant rl:model.npz:256 \\
        --telemetry serve_telemetry.jsonl
    python -m repro submit --port 7653 --tenant batch \\
        --job-id 1 --procs 4 --runtime 600
    python -m repro submit --port 7653 --tenant batch --swf trace.swf
    python -m repro submit --port 7653 --drain --stop
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import (
    EvalConfig,
    EnvConfig,
    RuntimeConfig,
    ScenarioConfig,
    ServeConfig,
    StudyConfig,
    TelemetryConfig,
    TenantConfig,
    TrainConfig,
    compare,
    generalization_matrix,
    load_trace,
    scenario_matrix,
    train,
)
from .checkpoint import CheckpointError
from .nn import POLICY_PRESETS
from .scenarios import available_scenarios, get_scenario
from .schedulers import HEURISTICS, RLSchedulerPolicy, make_scheduler
from .sim.metrics import METRICS, metric_by_name
from .workloads import available_traces, characterize, write_swf

__all__ = ["main", "build_parser", "setup_logging"]

logger = logging.getLogger("repro.cli")


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    A plain ``StreamHandler(sys.stderr)`` keeps the stream object it was
    built with; once a caller swaps and closes that stream (pytest's
    capture between tests, a daemon re-pointing its stderr) every later
    record, from any thread, fails with "I/O operation on closed file".
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def setup_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Route ``repro.*`` diagnostics to stderr at the chosen level.

    Command *output* (tables, artifacts, result rows) stays on stdout via
    plain ``print``; everything advisory — progress, notes, warnings —
    goes through per-module loggers so shell pipelines over stdout stay
    machine-parseable.  Idempotent: re-running replaces the handler, so
    repeated ``main()`` calls (tests) don't stack duplicates.
    """
    level = logging.WARNING if quiet else (
        logging.DEBUG if verbose else logging.INFO
    )
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RLScheduler reproduction: RL-based HPC batch job scheduling",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level diagnostics on stderr")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings and errors only on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traces", help="list workloads and their statistics")
    p.add_argument("--jobs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scenarios", help="list registered scenarios")
    p.add_argument("action", nargs="?", choices=["list"], default="list")

    p = sub.add_parser("generate", help="write a synthetic workload to SWF")
    p.add_argument("name", choices=available_traces())
    p.add_argument("--jobs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("evaluate", help="compare schedulers on a workload")
    p.add_argument("name", nargs="?", default=None,
                   help="trace name (omit when using --scenario)")
    p.add_argument("--scenario", default=None,
                   help="registered scenario name (workload + cluster + "
                        "protocol defaults)")
    p.add_argument("--jobs", type=int, default=4000)
    p.add_argument("--seed", type=int, default=None,
                   help="workload-generation seed; with --scenario it also "
                        "overrides the protocol's sequence-sampling seed "
                        "(default: 0 for plain traces, scenario defaults "
                        "otherwise)")
    p.add_argument("--metric", choices=sorted(METRICS), default=None)
    p.add_argument("--backfill", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force backfilling on (--backfill) or off "
                        "(--no-backfill); default: the scenario protocol, "
                        "off for plain traces")
    p.add_argument("--sequences", type=int, default=4)
    p.add_argument("--length", type=int, default=256)
    p.add_argument("--swf-dir", default=None)
    p.add_argument("--model", default=None,
                   help="policy checkpoint (.npz) to include")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="fan sequences over N worker processes (1 = serial)")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="enable telemetry and write the repro/telemetry@1 "
                        "JSONL trace to PATH")

    p = sub.add_parser(
        "compare", help="scenario × scheduler evaluation matrix"
    )
    p.add_argument("--scenarios", default=None,
                   help="comma-separated scenario names (default: all "
                        "registered)")
    p.add_argument("--schedulers", default="FCFS,SJF,WFP3,UNICEP,F1",
                   help="comma-separated scheduler names")
    p.add_argument("--metric", choices=sorted(METRICS), default=None,
                   help="override every scenario's protocol metric")
    p.add_argument("--backfill", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force backfilling on/off for every scenario "
                        "(default: each scenario's protocol)")
    p.add_argument("--jobs", type=int, default=None,
                   help="shrink every scenario workload to N jobs")
    p.add_argument("--sequences", type=int, default=4)
    p.add_argument("--length", type=int, default=128)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="fan matrix cells over N worker processes")
    p.add_argument("-o", "--output", default=None,
                   help="write the matrix as JSON")

    p = sub.add_parser("train", help="train an RL policy and save it")
    p.add_argument("name", nargs="?", default=None,
                   help="trace name (omit when using --scenario)")
    p.add_argument("--scenario", default=None,
                   help="registered scenario name to train inside")
    p.add_argument("--jobs", type=int, default=4000)
    p.add_argument("--metric", choices=sorted(METRICS), default="bsld")
    _add_train_flags(p)
    p.add_argument("--swf-dir", default=None)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser(
        "study",
        help="cross-scenario generalization study (Table VII): train one "
             "policy per scenario, evaluate every policy on every scenario",
    )
    p.add_argument("--scenarios", default=None,
                   help="comma-separated scenario names (default: all "
                        "registered)")
    p.add_argument("--zoo-dir", default="zoo",
                   help="policy-checkpoint directory; scenarios whose "
                        "<name>.npz already exists skip training (resume)")
    p.add_argument("--heuristics", default="FCFS,SJF,WFP3,UNICEP,F1",
                   help="comma-separated heuristic baselines")
    p.add_argument("--metric", choices=sorted(METRICS), default=None,
                   help="override every scenario's protocol metric")
    p.add_argument("--jobs", type=int, default=None,
                   help="shrink every scenario workload to N jobs")
    _add_train_flags(p)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="fan the evaluation cells over N worker processes "
                        "(1 = serial, same results either way); training "
                        "runs in this process")
    p.add_argument("--sequences", type=int, default=None,
                   help="evaluation sequences per scenario "
                        "(default: each scenario's protocol)")
    p.add_argument("--eval-length", type=int, default=None,
                   help="evaluation sequence length (default: protocol)")
    p.add_argument("--on-mismatch", choices=["adapt", "fail"],
                   default="adapt",
                   help="deploying a policy on a scenario with a different "
                        "feature layout: adapt (record the compat mode) or "
                        "fail loudly")
    p.add_argument("-o", "--output", default=None,
                   help="write the generalization-matrix JSON artifact")

    p = sub.add_parser(
        "serve",
        help="run the scheduler daemon (selector-loop socket front end, "
             "multi-tenant)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7653,
                   help="TCP port (0 = ephemeral; the daemon prints the "
                        "bound address on stdout)")
    p.add_argument("--tenant", action="append", default=None,
                   metavar="NAME:SCHED:PROCS[:BACKFILL[:MEMORY]]",
                   help="add a logical cluster: SCHED is a heuristic name "
                        "or a saved policy .npz path; BACKFILL is "
                        "none/easy/conservative; MEMORY is per-proc "
                        "capacity. Repeatable; default: one "
                        "'default:FCFS:256' tenant")
    p.add_argument("--history", type=_nonnegative_int, default=10_000,
                   help="finished-job records retained per tenant for "
                        "status queries")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="enable telemetry and write the repro/telemetry@1 "
                        "JSONL trace to PATH")

    p = sub.add_parser(
        "submit",
        help="client for a running daemon: submit jobs, query, drain",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7653)
    p.add_argument("--tenant", default=None,
                   help="tenant name (optional for single-tenant daemons)")
    p.add_argument("--swf", default=None, metavar="FILE",
                   help="replay an SWF trace file job by job")
    p.add_argument("--limit", type=_positive_int, default=None,
                   help="with --swf: replay only the first N jobs")
    p.add_argument("--job-id", type=int, default=None,
                   help="single-job mode: job id")
    p.add_argument("--procs", type=_positive_int, default=1,
                   help="single-job mode: processors requested")
    p.add_argument("--runtime", type=float, default=None,
                   help="single-job mode: actual runtime in seconds")
    p.add_argument("--reqtime", type=float, default=None,
                   help="single-job mode: requested (estimated) runtime; "
                        "defaults to --runtime")
    p.add_argument("--mem", type=float, default=None,
                   help="single-job mode: requested memory per processor")
    p.add_argument("--submit-time", type=float, default=None,
                   help="single-job mode: logical submission instant "
                        "(default: the engine's current horizon)")
    p.add_argument("--user", type=int, default=None,
                   help="single-job mode: submitting user id")
    p.add_argument("--status", type=int, default=None, metavar="JOB_ID",
                   help="query one job's state")
    p.add_argument("--stats", action="store_true",
                   help="print tenant statistics")
    p.add_argument("--advance", type=float, default=None, metavar="UNTIL",
                   help="declare that logical time reached UNTIL")
    p.add_argument("--drain", action="store_true",
                   help="run every queued job to completion")
    p.add_argument("--stop", action="store_true",
                   help="with --drain: shut the daemon down afterwards")

    return parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The flags ``train`` and ``study`` share (one Trainer, or one per
    scenario); :func:`_train_config` reads them back."""
    p.add_argument("--seed", type=int, default=0,
                   help="training seed (train: the workload's too; study: "
                        "workloads keep scenario seeds)")
    p.add_argument("--epochs", type=int, default=16)
    p.add_argument("--trajectories", type=int, default=14)
    p.add_argument("--length", type=int, default=64,
                   help="training trajectory length (jobs per sequence)")
    p.add_argument("--obsv", type=int, default=32,
                   help="MAX_OBSV_SIZE (paper default 128)")
    p.add_argument("--policy", choices=list(POLICY_PRESETS), default="kernel")
    p.add_argument("--filter", action="store_true",
                   help="enable trajectory filtering (recommended for PIK)")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="enable telemetry and write the repro/telemetry@1 "
                        "JSONL trace to PATH")


def _train_config(args, **extra) -> TrainConfig:
    """The :class:`TrainConfig` of ``train`` / ``study`` arguments;
    ``extra`` adds the fields only one of the two commands sets."""
    return TrainConfig(
        epochs=args.epochs,
        trajectories_per_epoch=args.trajectories,
        trajectory_length=args.length,
        seed=args.seed,
        use_trajectory_filter=args.filter,
        **extra,
    )


def _telemetry_config(args) -> TelemetryConfig | None:
    """``--telemetry PATH`` -> config, ``None`` when the flag is absent."""
    path = getattr(args, "telemetry", None)
    if path is None:
        return None
    return TelemetryConfig(enabled=True, path=path)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_traces(args) -> int:
    print(f"{'Name':<14} {'size':>7} {'it(s)':>8} {'rt(s)':>8} {'nt':>8}")
    for name in available_traces():
        trace = load_trace(name, n_jobs=args.jobs, seed=args.seed)
        print(characterize(trace).table_row())
    return 0


def _cmd_scenarios(args) -> int:
    names = available_scenarios()
    print(f"{'Scenario':<17} {'procs':>7} {'mem':>6} {'workload':<14} "
          f"{'protocol':<22} description")
    for name in names:
        s = get_scenario(name)
        proto = s.protocol
        mem = "-" if s.cluster.memory is None else f"{s.cluster.memory:g}"
        bf = "+bf" if proto.backfill else ""
        proto_s = f"{proto.n_sequences}x{proto.sequence_length} {proto.metric}{bf}"
        print(f"{name:<17} {s.cluster.n_procs:>7} {mem:>6} "
              f"{s.workload.trace:<14} {proto_s:<22} {s.description}")
    print(f"{len(names)} scenarios registered")
    return 0


def _cmd_generate(args) -> int:
    trace = load_trace(args.name, n_jobs=args.jobs, seed=args.seed)
    write_swf(trace, args.output)
    print(f"wrote {len(trace)} jobs ({trace.max_procs} procs) to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    if (args.name is None) == (args.scenario is None):
        print("evaluate: pass a trace name or --scenario (not both)",
              file=sys.stderr)
        return 2
    runtime = RuntimeConfig.from_workers(args.workers)
    schedulers = [cls() for cls in HEURISTICS.values()]
    if args.scenario:
        scen = get_scenario(args.scenario)  # fail fast on unknown names
        # Seed precedence: --seed overrides BOTH the workload-generation
        # seed and the protocol's sequence-sampling seed; without it the
        # scenario defaults apply to both.
        eval_seed = scen.protocol.seed if args.seed is None else args.seed
        config = EvalConfig(
            n_sequences=args.sequences, sequence_length=args.length,
            seed=eval_seed, runtime=runtime,
            telemetry=_telemetry_config(args),
            scenario=ScenarioConfig(name=args.scenario, n_jobs=args.jobs,
                                    seed=args.seed),
        )
        n_procs = scen.cluster.n_procs
        metric = args.metric or scen.protocol.metric
        backfill = args.backfill  # tri-state; None = protocol default
        backfill_on = (scen.protocol.backfill if args.backfill is None
                       else args.backfill)
        trace_arg, label = None, f"scenario {scen.name}"
    else:
        trace_arg = load_trace(args.name, n_jobs=args.jobs,
                               seed=0 if args.seed is None else args.seed,
                               swf_dir=args.swf_dir)
        config = EvalConfig(n_sequences=args.sequences,
                            sequence_length=args.length, seed=42,
                            runtime=runtime,
                            telemetry=_telemetry_config(args))
        n_procs = trace_arg.max_procs
        metric = args.metric or "bsld"
        backfill = bool(args.backfill)
        backfill_on = backfill
        label = trace_arg.name
    if args.model:
        rl = RLSchedulerPolicy.load(args.model)
        if args.scenario:
            # Full retarget: checked n_procs rebind plus explicit
            # feature-layout classification against the scenario.
            rl = rl.retarget(scen)
            if rl.compat != "native":
                logger.info("note: %s deploys %s on scenario %s",
                            rl.name, rl.compat, scen.name)
        else:
            # Retarget the saved policy at this cluster through the
            # checked setter: a bogus size fails loudly here, not mid-run.
            rl.n_procs = n_procs
        schedulers.append(rl)
    scores = compare(schedulers, trace_arg, metric=metric,
                     backfill=backfill, config=config)
    if not backfill_on:
        mode = "no backfill"
    else:  # True or a named variant like "conservative"
        mode = "backfill" if backfill_on is True else f"{backfill_on} backfill"
    print(f"{metric} on {label} ({mode}, "
          f"{args.sequences}x{args.length} jobs, workers={args.workers}):")
    for name, value in scores.items():
        print(f"  {name:<14} {float(value):12.3f} ± {value.std:.3f}")
    return 0


def _cmd_compare(args) -> int:
    names = ([n.strip() for n in args.scenarios.split(",")] if args.scenarios
             else available_scenarios())
    scheds = [make_scheduler(n.strip()) for n in args.schedulers.split(",")]
    config = EvalConfig(
        n_sequences=args.sequences, sequence_length=args.length,
        seed=args.seed,
        runtime=RuntimeConfig.from_workers(args.workers),
    )
    matrix = scenario_matrix(
        scheds, names, metric=args.metric,
        backfill=args.backfill,  # tri-state; None = per-scenario protocol
        config=config, n_jobs=args.jobs,
    )
    sched_names = [s.name for s in scheds]
    width = max(len(n) for n in matrix) + 2
    print(f"scenario × scheduler matrix "
          f"({args.sequences}x{args.length} jobs, workers={args.workers}):")
    print(" " * width + "".join(f"{n:>14}" for n in sched_names))
    for scen_name, row in matrix.items():
        cells = "".join(f"{float(row[n]):14.3f}" for n in sched_names)
        print(f"{scen_name:<{width}}{cells}")
    if args.output:
        doc = {
            "config": {
                "scenarios": list(matrix),
                "schedulers": sched_names,
                "n_sequences": args.sequences,
                "sequence_length": args.length,
                "seed": args.seed,
                "n_jobs": args.jobs,
                "metric_override": args.metric,
                "workers": args.workers,
            },
            "results": {
                scen_name: {
                    name: {
                        "mean": float(r),
                        "std": r.std,
                        "n": r.n,
                        "values": [float(v) for v in r.values],
                    }
                    for name, r in row.items()
                }
                for scen_name, row in matrix.items()
            },
        }
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        logger.info("wrote %s", args.output)
    return 0


def _cmd_train(args) -> int:
    if (args.name is None) == (args.scenario is None):
        print("train: pass a trace name or --scenario (not both)",
              file=sys.stderr)
        return 2
    scenario_cfg = None
    trace = None
    if args.scenario:
        get_scenario(args.scenario)  # fail fast on unknown names
        scenario_cfg = ScenarioConfig(name=args.scenario, n_jobs=args.jobs,
                                      seed=args.seed)
        trace_label = f"scenario {args.scenario}"
    else:
        trace = load_trace(args.name, n_jobs=args.jobs, seed=args.seed,
                           swf_dir=args.swf_dir)
        trace_label = trace.name
    result = train(
        trace,
        metric=args.metric,
        policy_preset=args.policy,
        env_config=EnvConfig(max_obsv_size=args.obsv),
        train_config=_train_config(
            args,
            telemetry=_telemetry_config(args),
            scenario=scenario_cfg,
        ),
    )
    result.save(args.output)
    print(f"trained {args.policy} on {trace_label} for {args.metric}: "
          + _train_summary(result))
    logger.info("saved to %s", args.output)
    return 0


def _train_summary(result) -> str:
    """The curve half of the ``train`` report, direction-aware.

    The "best" epoch is the one held-out greedy validation selected (the
    checkpoint :meth:`TrainingResult.as_scheduler` deploys), so the
    summary reports the training-curve value *at that epoch* — not the
    curve extremum, which for higher-is-better metrics like ``util``
    isn't even the right end of the range.
    """
    curve = result.metric_curve()
    _, higher_is_better = metric_by_name(result.metric)
    direction = "higher" if higher_is_better else "lower"
    if result.best_epoch >= 0:
        return (f"epoch-0 {curve[0]:.2f} -> {curve[result.best_epoch]:.2f} "
                f"at validation-best epoch {result.best_epoch} "
                f"({direction} is better)")
    # no epoch ever won validation (e.g. all-NaN rewards): report the end
    return (f"epoch-0 {curve[0]:.2f} -> final {curve[-1]:.2f} "
            f"({direction} is better)")


def _cmd_study(args) -> int:
    config = StudyConfig(
        scenarios=tuple(n.strip() for n in args.scenarios.split(","))
        if args.scenarios else (),
        zoo_dir=args.zoo_dir,
        heuristics=tuple(n.strip() for n in args.heuristics.split(",")),
        policy_preset=args.policy,
        metric=args.metric,
        train=_train_config(args),
        max_obsv_size=args.obsv,
        n_jobs=args.jobs,
        n_sequences=args.sequences,
        sequence_length=args.eval_length,
        on_mismatch=args.on_mismatch,
        runtime=RuntimeConfig.from_workers(args.workers),
        telemetry=_telemetry_config(args),
    )
    doc = generalization_matrix(config, progress=logger.info)
    results = doc["results"]
    columns = list(next(iter(results.values())))
    width = max(len(n) for n in results) + 2
    col_width = max(14, max(len(n) for n in columns) + 2)
    print(f"generalization matrix ({len(results)} scenarios x "
          f"{len(columns)} schedulers, workers={args.workers}):")
    print(" " * width + "".join(f"{n:>{col_width}}" for n in columns))
    for scen_name, row in results.items():
        cells = "".join(f"{row[n]['mean']:{col_width}.3f}" for n in columns)
        print(f"{scen_name:<{width}}{cells}")
    for policy_name, info in doc["policies"].items():
        non_native = {s: c for s, c in info["compat"].items()
                      if c != "native"}
        if non_native:
            notes = ", ".join(f"{s}: {c}" for s, c in non_native.items())
            logger.info("%s deployed cross-layout -> %s", policy_name, notes)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
        logger.info("wrote %s", args.output)
    return 0


def _parse_tenant(text: str) -> TenantConfig:
    """``NAME:SCHED:PROCS[:BACKFILL[:MEMORY]]`` -> :class:`TenantConfig`.

    ``SCHED`` is a heuristic name unless it looks like a file path
    (contains a slash or ends in ``.npz``), in which case it loads as a
    saved RL policy.
    """
    parts = text.split(":")
    if not 3 <= len(parts) <= 5:
        raise argparse.ArgumentTypeError(
            f"tenant spec must be NAME:SCHED:PROCS[:BACKFILL[:MEMORY]], "
            f"got {text!r}"
        )
    name, sched, procs = parts[0], parts[1], parts[2]
    backfill: bool | str = False
    if len(parts) >= 4 and parts[3] and parts[3] != "none":
        backfill = True if parts[3] == "true" else parts[3]
    memory = float(parts[4]) if len(parts) == 5 and parts[4] else None
    try:
        n_procs = int(procs)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tenant {name!r}: PROCS must be an integer, got {procs!r}"
        ) from None
    is_policy = "/" in sched or sched.endswith(".npz")
    try:
        return TenantConfig(
            name=name,
            scheduler="RL" if is_policy else sched,
            policy_path=sched if is_policy else None,
            n_procs=n_procs,
            memory=memory,
            backfill=backfill,
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tenant {name!r}: {exc}") from None


def _cmd_serve(args) -> int:
    from .serve import serve  # lazy: the socket front end only when serving

    tenants = tuple(_parse_tenant(spec) for spec in (args.tenant or ()))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        tenants=tenants or (TenantConfig(),),
        completed_history=args.history,
        telemetry=_telemetry_config(args),
    )
    return serve(config)


def _cmd_submit(args) -> int:
    from .serve import ServeClient, ServeError, replay_swf

    single_job = args.job_id is not None or args.runtime is not None
    actions = [bool(args.swf), single_job, args.status is not None,
               args.stats, args.advance is not None, args.drain]
    if not any(actions):
        print("submit: nothing to do — pass --swf, --job-id/--runtime, "
              "--status, --stats, --advance, or --drain", file=sys.stderr)
        return 2
    if args.swf and single_job:
        print("submit: --swf and single-job mode are mutually exclusive",
              file=sys.stderr)
        return 2
    if single_job and (args.job_id is None or args.runtime is None):
        print("submit: single-job mode needs both --job-id and --runtime",
              file=sys.stderr)
        return 2
    try:
        with ServeClient(args.host, args.port) as client:
            if args.swf:
                summary = replay_swf(client, args.swf, tenant=args.tenant,
                                     limit=args.limit, drain=args.drain)
                print(json.dumps(summary, indent=2))
            elif single_job:
                job = {"job_id": args.job_id, "run_time": args.runtime,
                       "requested_procs": args.procs}
                if args.reqtime is not None:
                    job["requested_time"] = args.reqtime
                if args.mem is not None:
                    job["requested_mem"] = args.mem
                if args.submit_time is not None:
                    job["submit_time"] = args.submit_time
                if args.user is not None:
                    job["user_id"] = args.user
                response = client.submit(job, tenant=args.tenant)
                print(json.dumps({k: v for k, v in response.items()
                                  if k not in ("v", "ok")}, indent=2))
            if args.status is not None:
                response = client.status(args.status, tenant=args.tenant)
                print(json.dumps(response["job"], indent=2))
            if args.advance is not None:
                response = client.advance(args.advance, tenant=args.tenant)
                print(json.dumps({k: v for k, v in response.items()
                                  if k not in ("v", "ok")}, indent=2))
            if args.stats:
                response = client.stats(tenant=args.tenant)
                print(json.dumps({k: v for k, v in response.items()
                                  if k not in ("v", "ok")}, indent=2))
            if args.drain and not args.swf:
                response = client.drain(tenant=args.tenant, stop=args.stop)
                print(json.dumps({k: v for k, v in response.items()
                                  if k not in ("v", "ok")}, indent=2))
            elif args.swf and args.stop:
                client.drain(tenant=None, stop=True)
    except ServeError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "traces": _cmd_traces,
    "scenarios": _cmd_scenarios,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "train": _cmd_train,
    "study": _cmd_study,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        return _COMMANDS[args.command](args)
    except CheckpointError as exc:  # a policy file named on the command line
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
