"""Chaos campaigns: N seeded runs of a plan, each judged by the oracle.

A campaign first serves the *clean* stream once through one plain
``CordialService`` (the oracle's divergence baseline), then executes
``runs`` chaos runs.  Each run derives its own ``SeedSequence`` child,
perturbs the stream through the plan's operators (one grandchild RNG per
operator), serves it through a fleet engine (one in-process shard by
default) with whole-fleet kill/restore faults at randomized ingest
points, and runs the full invariant battery.

The JSON report is byte-stable: identical (plan, seed, stream, pipeline)
inputs produce the identical document, decision digests included — the
reproducibility contract ``tests/test_chaos_harness.py`` locks down.
Nothing wall-clock and no filesystem path enters the report.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.faults import (WORKER_FAULT_MODES, WorkerFault,
                                serve_engine_with_faults)
from repro.chaos.operators import apply_operator, plant_poison
from repro.chaos.oracle import CleanBaseline, InvariantOracle
from repro.chaos.plan import ChaosPlan
from repro.core.online import CordialService, Decision
from repro.core.pipeline import Cordial
from repro.serving import (ShardedCordialEngine, SupervisorConfig,
                           serve_stream_sharded)
from repro.telemetry.events import ErrorRecord


@dataclass(frozen=True)
class CampaignConfig:
    """How many runs, and the campaign root seed."""

    runs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


def decisions_digest(decisions: Sequence[Decision]) -> str:
    """SHA-256 over the canonical JSON decision log."""
    payload = json.dumps([d.to_obj() for d in decisions], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def perturb_stream(stream: Sequence[ErrorRecord], plan: ChaosPlan,
                   rngs: Sequence[np.random.Generator]
                   ) -> Tuple[List[Any], List[dict]]:
    """Apply the plan's operators in order, one RNG per operator."""
    perturbed: List[Any] = list(stream)
    applied: List[dict] = []
    for spec, rng in zip(plan.operators, rngs):
        perturbed, count = apply_operator(spec.name, perturbed, rng,
                                          dict(spec.params))
        applied.append({"name": spec.name, "applied": count})
    return perturbed, applied


def _summarize(service: CordialService, decisions: Sequence[Decision],
               icr: float) -> dict:
    stats = service.stats
    return {
        "events_ingested": stats.events_ingested,
        "events_released": int(service.metrics.counter_value(
            "collector.events_released")),
        "dead_letters": {k: service.collector.dead_letter_counts[k]
                         for k in sorted(service.collector.dead_letter_counts)},
        "triggers_fired": stats.triggers_fired,
        "repredictions": stats.repredictions,
        "decisions_total": len(decisions),
        "decisions_by_action": {
            k: stats.decisions_by_action[k]
            for k in sorted(stats.decisions_by_action)},
        "spared_rows": service.spared_rows,
        "spared_banks": service.spared_banks,
        "icr": icr,
    }


def _supervision_schedule(plan: ChaosPlan, stream_length: int, shards: int,
                          rng: np.random.Generator) -> Tuple[List[int],
                                                             List[Any]]:
    """Draw poison positions and per-shard worker faults for one run.

    All draws come from the run's dedicated supervision RNG child, in a
    fixed order (poison first), so the schedule is as reproducible as
    the operator streams.
    """
    positions: List[int] = []
    if plan.poison_per_run and stream_length > 1:
        count = min(plan.poison_per_run, stream_length - 1)
        positions = sorted(int(p) for p in rng.choice(
            np.arange(1, stream_length), size=count, replace=False))
    faults: List[Any] = []
    mode_names = sorted(WORKER_FAULT_MODES)
    for _ in range(plan.worker_faults_per_run):
        faults.append(WorkerFault(
            at_event=int(rng.integers(1, max(2, stream_length + 1))),
            shard=int(rng.integers(0, shards)),
            mode=mode_names[int(rng.integers(0, len(mode_names)))]))
    return positions, faults


def run_one(cordial: Cordial, stream: Sequence[ErrorRecord],
            truth: Dict[tuple, Sequence[Tuple[float, int]]],
            plan: ChaosPlan, run_seed: np.random.SeedSequence,
            oracle: InvariantOracle, workdir: str, run_index: int,
            shards: int = 1, engine_jobs: int = 1) -> dict:
    """One chaos run: perturb, serve with faults, judge; JSON-ready.

    The run serves through a
    :class:`~repro.serving.engine.ShardedCordialEngine` with ``shards``
    bank-key shards on ``engine_jobs`` workers; kill points checkpoint
    and restart the whole fleet.  Decisions/ICR/state are bit-identical
    for any shard count, so the report layout, digests, and invariant
    battery do not depend on it.  When the plan asks for worker faults
    or poison records, the engine runs *supervised*: the stream is
    additionally disturbed by scheduled worker crashes/hangs/garbage and
    planted poison records, an undisturbed twin run serves the
    poison-free twin stream, and the oracle's ``supervision`` check
    requires the two to end byte-identical (modulo the poison
    dead-letter ledger).
    """
    children = run_seed.spawn(len(plan.operators) + 2)
    operator_rngs = [np.random.default_rng(c)
                     for c in children[:len(plan.operators)]]
    fault_rng = np.random.default_rng(children[len(plan.operators)])
    supervision_rng = np.random.default_rng(children[-1])

    perturbed, applied = perturb_stream(stream, plan, operator_rngs)
    if plan.kills_per_run and len(perturbed) > 1:
        count = min(plan.kills_per_run, len(perturbed) - 1)
        kill_points = sorted(int(k) for k in fault_rng.choice(
            np.arange(1, len(perturbed)), size=count, replace=False))
    else:
        kill_points = []
    supervise = plan.worker_faults_per_run > 0 or plan.poison_per_run > 0

    supervisor_config = None
    worker_faults: List[Any] = []
    twin = perturbed
    planted = 0
    poison_positions: List[int] = []
    if supervise:
        poison_positions, worker_faults = _supervision_schedule(
            plan, len(perturbed), shards, supervision_rng)
        perturbed, twin, planted = plant_poison(perturbed, poison_positions)
        supervisor_config = SupervisorConfig(
            max_restarts=(2 * planted + len(worker_faults) + 4),
            batch_timeout=5.0, poison_threshold=2, backoff_base=0.0)

    checkpoint_dir = os.path.join(workdir, f"chaos-run-{run_index}.fleet")
    engine = ShardedCordialEngine(cordial, shards, n_jobs=engine_jobs,
                                  spares_per_bank=plan.spares_per_bank,
                                  max_skew=plan.max_skew,
                                  supervisor=supervisor_config)
    try:
        engine, outcome = serve_engine_with_faults(
            engine, perturbed, kill_points, checkpoint_dir, fault_rng,
            tamper_modes=plan.tamper_modes, worker_faults=worker_faults)
    finally:
        engine.close()
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    icr = outcome.service.coverage(truth)

    supervised_extra: Optional[dict] = None
    if supervise:
        twin_engine = ShardedCordialEngine(
            cordial, shards, n_jobs=1,
            spares_per_bank=plan.spares_per_bank, max_skew=plan.max_skew)
        try:
            twin_engine, twin_outcome = serve_stream_sharded(twin_engine,
                                                             twin)
        finally:
            twin_engine.close()
        supervised_extra = {
            "supervised": True,
            "poison_positions": poison_positions,
            "poison_planted": planted,
            "worker_faults": [f.to_obj() for f in worker_faults],
            "twin_decisions_digest": decisions_digest(
                twin_outcome.decisions),
            "supervision_violations": [
                v.to_obj() for v in oracle.check_supervision(
                    outcome.service.state_dict(),
                    twin_outcome.service.state_dict(),
                    outcome.decisions, twin_outcome.decisions,
                    icr, twin_outcome.service.coverage(truth),
                    poison_planted=planted)],
        }
    scratch = os.path.join(workdir, f"chaos-run-{run_index}.oracle.ckpt")
    violation_objs = [v.to_obj()
                      for v in oracle.check_run(outcome, icr, scratch)]
    if os.path.exists(scratch):
        os.remove(scratch)
    report = {
        "run": run_index,
        "operators": applied,
        "kill_points": kill_points,
        "restores": outcome.restore_count,
        "tamper_trials": [t.to_obj() for t in outcome.tamper_trials],
        "summary": _summarize(outcome.service, outcome.decisions, icr),
        "decisions_digest": decisions_digest(outcome.decisions),
    }
    if supervised_extra is not None:
        violation_objs += supervised_extra.pop("supervision_violations")
        report.update(supervised_extra)
    report["violations"] = violation_objs
    report["ok"] = not violation_objs
    return report


def run_campaign(cordial: Cordial, stream: Sequence[ErrorRecord],
                 truth: Dict[tuple, Sequence[Tuple[float, int]]],
                 plan: ChaosPlan, config: CampaignConfig, workdir: str,
                 context: Optional[dict] = None, obs=None,
                 shards: int = 1, engine_jobs: int = 1) -> dict:
    """Execute a full campaign; returns the byte-stable JSON report.

    Args:
        cordial: the fitted pipeline under test.
        stream: the clean, time-ordered event stream.
        truth: per-bank ``(first_uer_time, row)`` ground truth for ICR.
        plan: the chaos recipe.
        config: run count and root seed.
        workdir: scratch directory for checkpoint files (never recorded
            in the report, so reports are location-independent).
        context: free-form labels merged into the report's config block
            (scale, model name, ...).
        shards: bank-key shards of every chaos run's fleet engine (see
            :func:`run_one`).  The clean baseline is one plain
            ``CordialService`` — the fleet is bit-identical to it, which
            is precisely the property the campaign digests then witness.
        obs: optional :class:`~repro.obs.Observability` bundle, attached
            to the **clean baseline** serve only.  Per-run engines stay
            unobserved on purpose: the ``drop_key`` tamper operator
            samples the checkpoint's state keys, and an optional ``obs``
            key would give it a target whose loss loads cleanly —
            silently weakening the tamper-detection invariant.  The
            journal additionally records one ``run`` event per chaos run
            and a closing ``campaign`` event; none of it enters the
            report, which stays byte-stable and path-free.
    """
    clean_service = CordialService(cordial,
                                   spares_per_bank=plan.spares_per_bank,
                                   max_skew=plan.max_skew, obs=obs)
    clean_decisions: List[Decision] = []
    for record in stream:
        clean_decisions.extend(clean_service.ingest(record))
    clean_decisions.extend(clean_service.flush())
    clean_icr = clean_service.coverage(truth)
    clean = CleanBaseline(decision_count=len(clean_decisions),
                          icr=clean_icr)
    oracle = InvariantOracle(plan, clean=clean)

    root = np.random.SeedSequence(config.seed)
    runs = []
    for run_index, run_seed in enumerate(root.spawn(config.runs)):
        run = run_one(cordial, stream, truth, plan, run_seed, oracle,
                      workdir, run_index, shards=shards,
                      engine_jobs=engine_jobs)
        if obs is not None:
            obs.journal.event("run", run=run_index, ok=run["ok"],
                              violations=len(run["violations"]),
                              dead_letters=run["summary"]["dead_letters"])
        runs.append(run)

    campaign_hash = hashlib.sha256()
    campaign_hash.update(decisions_digest(clean_decisions).encode())
    for run in runs:
        campaign_hash.update(run["decisions_digest"].encode())
    violations_total = sum(len(run["violations"]) for run in runs)
    # Aggregate the dead-letter *reason histogram* across chaos runs.
    # The per-run summaries always carried it, but the campaign roll-up
    # used to drop it, so the report could not be reconciled against the
    # journal's quarantine ledger without re-reading every run.
    dead_letters_total: Dict[str, int] = {}
    for run in runs:
        for reason, count in run["summary"]["dead_letters"].items():
            dead_letters_total[reason] = (
                dead_letters_total.get(reason, 0) + count)
    if obs is not None:
        obs.journal.event("campaign", runs=config.runs,
                          violations_total=violations_total,
                          dead_letters_total={
                              k: dead_letters_total[k]
                              for k in sorted(dead_letters_total)})
    return {
        "config": {
            "runs": config.runs,
            "seed": config.seed,
            "stream_events": len(stream),
            **dict(context or {}),
        },
        "plan": plan.to_dict(),
        "clean": {
            "summary": _summarize(clean_service, clean_decisions,
                                  clean_icr),
            "decisions_digest": decisions_digest(clean_decisions),
        },
        "runs": runs,
        "dead_letters_total": {k: dead_letters_total[k]
                               for k in sorted(dead_letters_total)},
        "violations_total": violations_total,
        "ok": violations_total == 0,
        "campaign_digest": campaign_hash.hexdigest(),
    }


def run_chaos_campaign(scale: float = 0.08, seed: int = 11,
                       model_name: str = "LightGBM",
                       plan: Optional[ChaosPlan] = None,
                       runs: int = 20, campaign_seed: int = 0,
                       jobs: int = 1, max_events: Optional[int] = None,
                       workdir: Optional[str] = None,
                       obs_dir: Optional[str] = None,
                       shards: int = 1,
                       engine_jobs: int = 1) -> dict:
    """Generate, train, and run a campaign — the CLI entry's workhorse.

    Reuses the serve-replay plumbing: the same fleet generation, 70:30
    bank split, training, and test-stream construction as
    ``cordial-repro serve-replay``, so chaos results are directly
    comparable with the serving smoke reports.

    Args:
        obs_dir: when given, observe the clean baseline serve (see
            :func:`run_campaign`) and write the journal/trace/audit
            artifacts into this directory.  The campaign report itself
            is unchanged — it stays byte-stable and path-free.
        shards: bank-key shards of the chaos runs' fleet engine
            (``cordial-repro chaos --shards N``).  Decision digests,
            summaries, and the campaign digest are identical for any
            value.
    """
    import tempfile

    from repro.chaos.plan import default_plan
    from repro.experiments.serve import prepare_serving_run

    plan = plan if plan is not None else default_plan()
    cordial, stream, truth, meta = prepare_serving_run(
        scale=scale, seed=seed, model_name=model_name, jobs=jobs)
    if max_events is not None:
        stream = stream[:max_events]
    context = {**meta, "scale": scale, "generator_seed": seed,
               "model_name": model_name, "shards": shards}
    config = CampaignConfig(runs=runs, seed=campaign_seed)
    obs = None
    if obs_dir is not None:
        from repro.obs import Observability, build_provenance

        obs = Observability.create(
            obs_dir,
            provenance=build_provenance(
                seeds={"generator": seed, "campaign": campaign_seed},
                config={**context, "runs": runs, "plan": plan.to_dict()}))
    try:
        if workdir is not None:
            report = run_campaign(cordial, stream, truth, plan, config,
                                  workdir, context=context, obs=obs,
                                  shards=shards, engine_jobs=engine_jobs)
        else:
            with tempfile.TemporaryDirectory(
                    prefix="cordial-chaos-") as scratch:
                report = run_campaign(cordial, stream, truth, plan, config,
                                      scratch, context=context, obs=obs,
                                      shards=shards,
                                      engine_jobs=engine_jobs)
    finally:
        if obs is not None:
            obs.export(obs_dir)
    return report
