"""The ``cordial-repro`` console entry point.

With no subcommand, ``cordial-repro [--scale S] [--seed N] [--jobs N]``
runs E1-E7, prints each paper-vs-measured table, and (with ``--output``)
writes a combined report suitable for EXPERIMENTS.md.  With ``--jobs N``
the independent experiments run concurrently on a DAG executor (the
analysis experiments E1/E2/E5-E6/E7 have no cross-dependencies; E4 reuses
the models E3 trains) and dataset generation itself is sharded over worker
processes.  Report content is identical for every ``jobs`` value — only
the elapsed-time annotations differ.

The operator workflow over MCE log files:

* ``generate`` — synthesise a fleet and write its MCE log;
* ``train``    — train a pipeline from a log (bank pattern labels come
  from the observational labeller over each bank's complete history —
  no generator ground truth needed) and save it as JSON;
* ``evaluate`` — split a log 7:3, train, score pattern/block/ICR
  metrics, and write a markdown report;
* ``analyze``  — run the empirical-study battery (Tables I-II, Figure 4
  data) over a log.

``cordial-repro serve-replay`` exercises the *online* path: it streams
events through the fleet serving engine (one in-process shard by
default; ``--shards N`` / ``--jobs N`` fan it out, with optional bounded
shuffling, a mid-stream checkpoint/restart and shard supervision) and
dumps a report of the decisions and metrics.  By default it generates a
fleet, trains on its 70 % split and serves the test split — the serving
smoke check CI archives as an artifact; ``--pipeline P --log L`` serves
a whole log through a saved pipeline instead.

``cordial-repro chaos`` goes further: it runs a seeded fault-injection
campaign (``repro.chaos``) against the same engine — stream
perturbation operators plus kill/restore, checkpoint-tampering and
optional worker faults — and exits non-zero if any invariant of the
oracle is violated.

Both serving subcommands take ``--obs DIR`` to capture the run's full
observability record (journal, trace, audit trail, Prometheus metrics —
see ``docs/OBSERVABILITY.md``); ``cordial-repro obs-report DIR``
summarises one such artifact directory after the fact (serve-replay
prints the directories it wrote).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import List, Optional

from repro.core.classifier import MODEL_NAMES
from repro.experiments import fig3, fig4, table1, table2, table3, table4
from repro.experiments.common import ExperimentContext
from repro.experiments.dag import DagTask, execute_dag

#: Section order of the combined report (fixed regardless of completion
#: order under parallel execution).
SECTION_ORDER = ("E1", "E2", "E5/E6", "E7", "E3", "E4")


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (shards, jobs, runs...)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type for budgets that may be 0 (restarts)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _experiment_tasks(context: ExperimentContext, include_models: bool,
                      include_examples: bool) -> List[DagTask]:
    """The experiment DAG: analysis tasks are independent; E4 needs E3."""

    def run_fig3() -> object:
        result = fig3.run(context)
        body = result.format()
        if include_examples:
            body += "\n" + result.format_examples()
        return (result, body)

    tasks = [
        DagTask("E1", lambda: table1.run(context)),
        DagTask("E2", lambda: table2.run(context)),
        DagTask("E5/E6", run_fig3),
        DagTask("E7", lambda: fig4.run(context)),
    ]
    if include_models:
        tasks.append(DagTask("E3", lambda: table3.run(context)))
        tasks.append(DagTask("E4", lambda: table4.run(context),
                             deps=("E3",)))
    return tasks


def run_all(context: ExperimentContext, include_models: bool = True,
            include_examples: bool = False,
            jobs: Optional[int] = None) -> str:
    """Run every experiment and return the combined report text.

    Args:
        include_models: also run the (expensive) Table III/IV model
            training; the analysis-only experiments always run.
        include_examples: append the ASCII Figure 3(a) maps.
        jobs: concurrency of the experiment DAG (``None`` inherits
            ``context.jobs``).  Sections are assembled in the fixed
            ``SECTION_ORDER``, so the report matches the sequential run
            modulo elapsed-time strings.
    """
    jobs = context.jobs if jobs is None else jobs
    # Materialise the shared inputs once, before any concurrency.
    _ = context.dataset
    if include_models:
        _ = context.split

    tasks = _experiment_tasks(context, include_models, include_examples)
    results = execute_dag(tasks, jobs=jobs)

    sections: List[str] = []
    for name in SECTION_ORDER:
        if name not in results:
            continue
        result = results[name]
        if name == "E5/E6":
            body = result.value[1]
        else:
            body = result.value.format()
        sections.append(f"== {name} ({result.elapsed:.1f}s) ==\n{body}\n")

    if include_models:
        result3 = results["E3"].value
        result4 = results["E4"].value
        sections.append(
            "Headline shape checks:\n"
            f"  best pattern model: {result3.best_model()} "
            "(paper: Random Forest)\n"
            f"  Cordial beats baseline on F1+ICR: "
            f"{result4.cordial_beats_baseline()}\n"
            f"  F1 improvement over baseline: "
            f"{result4.f1_improvement():.1%} (paper: 90.7%)\n"
            f"  ICR improvement over baseline: "
            f"{result4.icr_improvement():.1%} (paper: 47.1%)\n")
    return "\n".join(sections)


def cmd_generate(args: argparse.Namespace) -> int:
    """Synthesise a fleet and write its MCE log.

    ``--jobs`` shards fault realisation over worker processes; the log is
    bit-identical for any value (the dataset determinism contract).
    """
    from repro.datasets import FleetGenConfig, generate_fleet_dataset
    from repro.telemetry.mcelog import write_mce_log

    dataset = generate_fleet_dataset(FleetGenConfig(scale=args.scale),
                                     seed=args.seed, jobs=args.jobs)
    count = write_mce_log(dataset.store, args.output)
    print(f"wrote {count:,} events ({len(dataset.uer_banks)} UER banks) "
          f"to {args.output}")
    return 0


def _dataset_from_log(path: str):
    """Wrap an MCE log into the dataset protocol ``Cordial`` trains on.

    Every UER bank is labelled observationally from its complete history
    (:func:`~repro.core.patterns.label_bank_pattern`), so no generator
    ground truth is needed.
    """
    from repro.core.patterns import label_bank_pattern
    from repro.datasets import FleetGenConfig
    from repro.datasets.fleetgen import BankGroundTruth, FleetDataset
    from repro.hbm.address import MicroLevel
    from repro.telemetry.events import ErrorType
    from repro.telemetry.mcelog import read_mce_log
    from repro.telemetry.store import ErrorStore

    store = ErrorStore(read_mce_log(path))
    truth = {}
    for bank in sorted(store.units_with(MicroLevel.BANK, ErrorType.UER)):
        uers = store.uer_rows_of_bank(bank)
        truth[bank] = BankGroundTruth(
            bank_key=bank, fault_type=None,
            pattern=label_bank_pattern([r.row for r in uers],
                                       [r.column for r in uers]),
            anchor_rows=(), cluster_width=0,
            uer_row_sequence=tuple((r.timestamp, r.row) for r in uers))
    return FleetDataset(config=FleetGenConfig(), seed=0, store=store,
                        bank_truth=truth)


def cmd_train(args: argparse.Namespace) -> int:
    """Train Cordial from an MCE log and save the pipeline."""
    from repro.core.persistence import save_cordial
    from repro.core.pipeline import Cordial

    dataset = _dataset_from_log(args.log)
    banks = dataset.store.banks_with_min_uer_rows(args.trigger)
    if len(banks) < 10:
        print(f"error: only {len(banks)} banks reach {args.trigger} UER "
              "rows; need at least 10 to train", file=sys.stderr)
        return 1
    mix = Counter(dataset.bank_truth[bank].pattern.value for bank in banks)
    print(f"{len(banks)} trainable banks; label mix: "
          + ", ".join(f"{name}={mix[name]}" for name in sorted(mix)))
    cordial = Cordial(model_name=args.model, trigger_uer_rows=args.trigger,
                      random_state=args.seed, n_jobs=args.jobs)
    cordial.fit(dataset, banks)
    save_cordial(cordial, args.output)
    print(f"saved pipeline ({args.model}, threshold "
          f"{cordial.predictor.effective_threshold:.2f}) to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Split a log 7:3, train, evaluate, and write a markdown report."""
    from repro.core.costmodel import CostParams
    from repro.core.pipeline import Cordial, evaluate_neighbor_baseline
    from repro.core.report import write_markdown_report
    from repro.ml.selection import train_test_split_groups

    dataset = _dataset_from_log(args.log)
    banks = dataset.store.banks_with_min_uer_rows(args.trigger)
    if len(banks) < 20:
        print(f"error: only {len(banks)} trainable banks; need 20+",
              file=sys.stderr)
        return 1
    train, test = train_test_split_groups(banks, test_fraction=0.3,
                                          seed=args.seed)
    cordial = Cordial(model_name=args.model, trigger_uer_rows=args.trigger,
                      random_state=args.seed, n_jobs=args.jobs)
    cordial.fit(dataset, train)
    evaluation = cordial.evaluate(dataset, test)
    baseline = evaluate_neighbor_baseline(dataset, test,
                                          trigger_uer_rows=args.trigger)
    path = write_markdown_report(evaluation, args.output,
                                 baseline=baseline,
                                 cost_params=CostParams(),
                                 title=f"Cordial evaluation — {args.log}")
    print(f"pattern weighted F1 {evaluation.pattern_weighted.f1:.3f}, "
          f"block F1 {evaluation.block_scores.f1:.3f}, "
          f"ICR {evaluation.icr.icr:.2%} "
          f"(baseline {baseline.icr.icr:.2%})")
    print(f"report written to {path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the empirical-study battery over a log file."""
    from repro.analysis.locality import (compute_locality_chisquare,
                                         format_locality_curve)
    from repro.analysis.sudden import (compute_sudden_uer_table,
                                       format_sudden_table)
    from repro.analysis.summary import (compute_dataset_summary,
                                        format_summary_table)
    from repro.telemetry.mcelog import read_mce_log
    from repro.telemetry.store import ErrorStore

    store = ErrorStore(read_mce_log(args.log))
    print(format_sudden_table(compute_sudden_uer_table(store)))
    print()
    print(format_summary_table(compute_dataset_summary(store)))
    print()
    print(format_locality_curve(compute_locality_chisquare(store)))
    return 0


def cmd_serve_replay(args: argparse.Namespace) -> int:
    """Stream a fleet or a log through the online service; dump a report."""
    from repro.experiments.serve import run_serve_replay

    report = run_serve_replay(
        pipeline_path=args.pipeline, log_path=args.log,
        scale=args.scale, seed=args.seed, model_name=args.model,
        max_skew=args.max_skew, shuffle=args.shuffle,
        shuffle_seed=args.shuffle_seed, jobs=args.jobs,
        checkpoint_path=args.checkpoint, checkpoint_at=args.checkpoint_at,
        shards=args.shards, obs_dir=args.obs,
        audit_attributions=args.audit_attributions,
        supervise=args.supervise, max_restarts=args.max_restarts,
        batch_timeout=args.batch_timeout,
        poison_threshold=args.poison_threshold)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    summary = report["summary"]
    timing = report["timing"]
    print(f"served {summary['events_ingested']:,} events: "
          f"{summary['triggers_fired']} triggers, "
          f"{summary['repredictions']} repredictions, "
          f"{summary['decisions_total']} decisions, "
          f"ICR {summary['icr']:.2%} "
          f"(dead-lettered: {summary['events_dead_lettered'] or 0})")
    print(f"  wall {timing['wall_seconds']:.2f}s, "
          f"cpu {timing['cpu_seconds']:.2f}s, "
          f"{timing['events_per_second']:,.0f} events/s")
    if "obs" in report:
        blocks = [*report["obs"].get("shards", {}).values()]
        if "supervisor" in report["obs"]:
            blocks.append(report["obs"]["supervisor"])
        for block in blocks:
            directory = os.path.dirname(block["artifacts"]["summary"])
            print(f"observability artifacts written to {directory}")
    print(f"metrics report written to {args.output}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded chaos campaign against the serving path."""
    from repro.chaos import ChaosPlan, default_plan, run_chaos_campaign

    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = ChaosPlan.from_dict(json.load(handle))
    else:
        plan = default_plan(kills_per_run=args.kills_per_run,
                            intensity=args.intensity)
    if args.worker_faults_per_run or args.poison_per_run:
        import dataclasses

        plan = dataclasses.replace(
            plan, worker_faults_per_run=args.worker_faults_per_run,
            poison_per_run=args.poison_per_run)
    report = run_chaos_campaign(
        scale=args.scale, seed=args.seed, model_name=args.model,
        plan=plan, runs=args.runs, campaign_seed=args.campaign_seed,
        jobs=args.jobs, max_events=args.max_events, obs_dir=args.obs,
        shards=args.shards, engine_jobs=args.engine_jobs)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    bad_runs = sum(1 for run in report["runs"] if not run["ok"])
    print(f"chaos campaign: {len(report['runs'])} runs over "
          f"{report['config']['stream_events']:,} events "
          f"({len(plan.operators)} operators, "
          f"{plan.kills_per_run} kills/run)")
    if plan.worker_faults_per_run or plan.poison_per_run:
        print(f"  supervised fleet: {plan.worker_faults_per_run} worker "
              f"faults/run, {plan.poison_per_run} poison records/run "
              f"(every run checked byte-identical to its twin)")
    print(f"  clean ICR {report['clean']['summary']['icr']:.2%}, "
          f"campaign digest {report['campaign_digest'][:16]}...")
    if report["dead_letters_total"]:
        rendered = ", ".join(f"{k}={v}" for k, v in
                             sorted(report["dead_letters_total"].items()))
        print(f"  dead letters across runs: {rendered}")
    if report["ok"]:
        print("  all invariants held")
    else:
        print(f"  INVARIANT VIOLATIONS: {report['violations_total']} "
              f"across {bad_runs} runs")
        for run in report["runs"]:
            for violation in run["violations"]:
                print(f"    run {run['run']}: "
                      f"[{violation['invariant']}] {violation['detail']}")
    if args.obs is not None:
        print(f"observability artifacts written to {args.obs}")
    print(f"chaos report written to {args.output}")
    return 0 if report["ok"] else 1


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Summarise the artifacts of an ``--obs`` output directory."""
    from repro.obs import (AUDIT_FILE, JOURNAL_FILE, SUMMARY_FILE,
                           TRACE_FILE, AuditLog, read_journal)

    directory = args.dir
    out = {}

    journal_path = os.path.join(directory, JOURNAL_FILE)
    if os.path.exists(journal_path):
        header, events = read_journal(journal_path)
        provenance = header.get("provenance", {})
        counts = {}
        for event in events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        out["journal"] = {
            "events": len(events),
            "counts_by_type": {k: counts[k] for k in sorted(counts)},
            "git_sha": provenance.get("git_sha"),
            "config_digest": provenance.get("config_digest"),
            "seeds": provenance.get("seeds", {}),
        }

    audit_path = os.path.join(directory, AUDIT_FILE)
    if os.path.exists(audit_path):
        audit = AuditLog.read_jsonl(audit_path)
        out["audit"] = audit.summary()
        if args.bank is not None and args.row is not None:
            bank_key = tuple(int(b) for b in args.bank.split(","))
            decisions = audit.explain(bank_key, args.row)
            out["explain"] = {
                "bank_key": list(bank_key), "row": args.row,
                "decisions": decisions}

    summary_path = os.path.join(directory, SUMMARY_FILE)
    if os.path.exists(summary_path):
        with open(summary_path, "r", encoding="utf-8") as handle:
            out["run_summary"] = json.load(handle)

    trace_path = os.path.join(directory, TRACE_FILE)
    if os.path.exists(trace_path):
        with open(trace_path, "r", encoding="utf-8") as handle:
            out["trace_events"] = len(json.load(handle)["traceEvents"])

    if not out:
        print(f"no observability artifacts found under {directory}",
              file=sys.stderr)
        return 1
    if args.json:
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    if "journal" in out:
        journal = out["journal"]
        print(f"journal: {journal['events']} events")
        for kind, count in journal["counts_by_type"].items():
            print(f"  {kind}: {count}")
        print(f"  provenance: git {journal['git_sha'] or 'unknown'}, "
              f"config digest {(journal['config_digest'] or '')[:16]}, "
              f"seeds {journal['seeds']}")
    if "audit" in out:
        audit_summary = out["audit"]
        print(f"audit: {audit_summary['records']} decisions "
              f"(by kind: {audit_summary['by_kind']}, "
              f"by action: {audit_summary['by_action']})")
    if "trace_events" in out:
        print(f"trace: {out['trace_events']} spans")
    if "explain" in out:
        explained = out["explain"]
        print(f"decisions touching bank {explained['bank_key']} "
              f"row {explained['row']}: {len(explained['decisions'])}")
        for decision in explained["decisions"]:
            rows = decision["rows_requested"]
            print(f"  [{decision['index']}] t={decision['timestamp']:.0f} "
                  f"{decision['kind']}/{decision['action']} "
                  f"pattern={decision['pattern']} "
                  f"requested {len(rows)} rows, "
                  f"newly spared {decision['newly_spared']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``cordial-repro`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        description="Reproduce every table and figure of the Cordial paper "
                    "on a calibrated synthetic fleet.")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fleet scale (1.0 = paper magnitude)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker parallelism for dataset generation and "
                             "the experiment DAG (results are identical for "
                             "any value)")
    parser.add_argument("--fast", action="store_true",
                        help="skip the model-training experiments (E3/E4)")
    parser.add_argument("--examples", action="store_true",
                        help="include ASCII Figure 3(a) bank maps")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")

    sub = parser.add_subparsers(dest="command")
    g = sub.add_parser("generate", help="synthesise a fleet MCE log")
    g.add_argument("--scale", type=float, default=0.25)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for fault realisation "
                        "(output is identical for any value)")
    g.add_argument("--output", required=True)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train Cordial from an MCE log")
    t.add_argument("--log", required=True)
    t.add_argument("--output", required=True,
                   help="where to save the pipeline JSON")
    t.set_defaults(func=cmd_train)
    e = sub.add_parser("evaluate", help="train+evaluate over a log and "
                       "write a markdown report")
    e.add_argument("--log", required=True)
    e.add_argument("--output", default="cordial_report.md")
    e.set_defaults(func=cmd_evaluate)
    for p in (t, e):
        p.add_argument("--model", default="Random Forest",
                       choices=MODEL_NAMES)
        p.add_argument("--trigger", type=_positive_int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for model training "
                            "(results are identical for any value)")

    a = sub.add_parser("analyze", help="empirical study over a log")
    a.add_argument("--log", required=True)
    a.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "serve-replay",
        help="stream a generated fleet (or --pipeline/--log: a whole log "
             "through a saved pipeline) through the online fleet serving "
             "engine and dump a decisions/metrics JSON report")
    p.add_argument("--pipeline", type=str, default=None,
                   help="saved pipeline JSON to serve with (with --log; "
                        "replaces --scale/--seed/--model)")
    p.add_argument("--log", type=str, default=None,
                   help="MCE log to serve, whole and in file order "
                        "(with --pipeline)")
    p.add_argument("--scale", type=float, default=0.12,
                   help="fleet scale of the served dataset")
    p.add_argument("--seed", type=int, default=42, help="generator seed")
    p.add_argument("--model", default="LightGBM",
                   choices=MODEL_NAMES)
    p.add_argument("--max-skew", type=float, default=0.0, dest="max_skew",
                   help="reorder-buffer window in stream seconds")
    p.add_argument("--shuffle", action="store_true",
                   help="shuffle the stream within --max-skew before "
                        "serving (exercises the reorder buffer)")
    p.add_argument("--shuffle-seed", type=int, default=0,
                   dest="shuffle_seed")
    p.add_argument("--checkpoint", type=str, default=None,
                   help="checkpoint the fleet mid-stream into this "
                        "directory and serve the rest on an engine "
                        "restored from it (exercises restart)")
    p.add_argument("--checkpoint-at", type=_positive_int, default=None,
                   dest="checkpoint_at",
                   help="take the --checkpoint snapshot after this many "
                        "events (default: mid-stream; must lie within "
                        "the stream)")
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="bank-key shards of the fleet engine (decisions/"
                        "ICR/metrics are identical for any value; --jobs "
                        "sets the worker processes)")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--output", type=str, default="serve_metrics.json",
                   help="where to write the metrics JSON report")
    p.add_argument("--obs", type=str, default=None, metavar="DIR",
                   help="write observability artifacts (run journal, "
                        "trace, audit trail, Prometheus metrics) under "
                        "this directory, one shard-NN subdirectory per "
                        "shard (epoch-01/shard-NN after a --checkpoint "
                        "restart)")
    p.add_argument("--supervise", action="store_true",
                   help="run the fleet under the shard supervisor: "
                        "crash detection, "
                        "deterministic restart, poison quarantine, "
                        "degraded failover — output stays byte-identical")
    p.add_argument("--max-restarts", type=_non_negative_int, default=3,
                   dest="max_restarts",
                   help="per-worker restart budget before degraded "
                        "failover (with --supervise)")
    p.add_argument("--batch-timeout", type=float, default=30.0,
                   dest="batch_timeout",
                   help="seconds a worker may go silent before it is "
                        "declared hung (with --supervise)")
    p.add_argument("--poison-threshold", type=_positive_int, default=2,
                   dest="poison_threshold",
                   help="kills by the same batch before the supervisor "
                        "bisects for a poison record (with --supervise)")
    p.add_argument("--audit-attributions", action="store_true",
                   dest="audit_attributions",
                   help="record per-feature attributions for every "
                        "flagged block in the audit trail (slow)")
    p.set_defaults(func=cmd_serve_replay)

    c = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign against the online "
             "service and validate the invariant oracle")
    c.add_argument("--scale", type=float, default=0.08,
                   help="fleet scale of the served dataset")
    c.add_argument("--seed", type=int, default=11, help="generator seed")
    c.add_argument("--model", default="LightGBM",
                   choices=MODEL_NAMES)
    c.add_argument("--runs", type=_positive_int, default=20,
                   help="chaos runs in the campaign")
    c.add_argument("--campaign-seed", type=int, default=0,
                   dest="campaign_seed",
                   help="root seed of the campaign's SeedSequence tree")
    c.add_argument("--plan", type=str, default=None,
                   help="JSON plan file (ChaosPlan.to_dict layout); "
                        "default: the house plan with all six operators")
    c.add_argument("--kills-per-run", type=int, default=2,
                   dest="kills_per_run",
                   help="kill/restore faults per run (default plan only)")
    c.add_argument("--intensity", type=float, default=1.0,
                   help="scale every operator rate at once "
                        "(default plan only)")
    c.add_argument("--max-events", type=_positive_int, default=None,
                   dest="max_events",
                   help="truncate the test stream (smoke runs)")
    c.add_argument("--shards", type=_positive_int, default=1,
                   help="bank-key shards of every chaos run's fleet "
                        "engine (kill points restart the whole fleet)")
    c.add_argument("--jobs", type=_positive_int, default=1)
    c.add_argument("--engine-jobs", type=_positive_int, default=1,
                   dest="engine_jobs",
                   help="worker processes per chaos engine "
                        "(1 = in-process workers)")
    c.add_argument("--worker-faults-per-run", type=int, default=0,
                   dest="worker_faults_per_run",
                   help="per-shard worker faults (crash/hang/garbage) "
                        "injected per run; engages the shard supervisor "
                        "and the byte-identical twin check")
    c.add_argument("--poison-per-run", type=int, default=0,
                   dest="poison_per_run",
                   help="poison records planted per run, each bisected "
                        "out and quarantined by the supervisor")
    c.add_argument("--output", type=str, default="chaos_report.json",
                   help="where to write the campaign JSON report")
    c.add_argument("--obs", type=str, default=None, metavar="DIR",
                   help="observe the clean baseline serve and write its "
                        "journal/trace/audit artifacts into this "
                        "directory (the campaign report is unchanged)")
    c.set_defaults(func=cmd_chaos)

    o = sub.add_parser(
        "obs-report",
        help="summarise the artifacts of an --obs output directory "
             "(journal counts, provenance, audit roll-up; optionally "
             "explain one bank/row)")
    o.add_argument("dir", help="an --obs output directory")
    o.add_argument("--bank", type=str, default=None,
                   help="comma-separated bank key to explain "
                        "(e.g. 0,0,1,0,2,0,3,1)")
    o.add_argument("--row", type=int, default=None,
                   help="row to explain (with --bank)")
    o.add_argument("--json", action="store_true",
                   help="emit the summary as JSON instead of text")
    o.set_defaults(func=cmd_obs_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``cordial-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve-replay" and (
            (args.pipeline is None) != (args.log is None)):
        parser.error("serve-replay: --pipeline and --log go together")
    if args.command is not None:
        return args.func(args)

    context = ExperimentContext(scale=args.scale, seed=args.seed,
                                jobs=args.jobs)
    report = run_all(context, include_models=not args.fast,
                     include_examples=args.examples)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
