"""Total-order merge and re-shard split of per-shard serving state.

Bank keys partition cleanly across shards (:mod:`repro.serving.router`),
so every per-bank structure — collector bank buffers, pending reorder
entries, sparing ledgers, pattern/UER/feature state — is *disjoint*
across shards.  Merging is therefore a union re-sorted into the exact
deterministic layout :meth:`CordialService.state_dict` produces, and a
merged state loads into one real :class:`~repro.core.online.CordialService`
that is indistinguishable from a service that served the whole stream
alone.  Splitting is the inverse: filter every per-bank structure by
:func:`~repro.serving.router.shard_of_bank`, which is how a fleet
checkpoint saved at one shard count restores onto another.

The non-bank-keyed pieces need explicit accounting:

* **decisions** — every shard emits its own ascending ``(timestamp,
  sequence)`` stream; pooling *all* segments (across shards *and* across
  checkpoint epochs) and sorting once on that key reproduces the single
  service's emission order.  Segments must never be concatenated
  epoch-wise: shard watermarks lag the global one differently, so one
  shard's pre-checkpoint decision can sort after another's
  post-checkpoint decision.
* **stats / counters** — ``events_ingested`` counts *submissions*
  (including quarantined ones) on a single service, but shard services
  only ever see routed records; the merge overrides it with
  ``carried + coordinator-submitted``.  The ``collector.dead_letters``
  counter family is likewise overridden from the router's cumulative
  ledger (shard collectors never quarantine).  Everything else is a
  plain sum — counters are integer-valued, so float summation is exact
  and order-free below 2**53.
* **replay truncation/duplicate counters** — fleet totals are
  shard-count-invariant but their per-shard attribution is not; a split
  assigns the merged totals to shard 0 so the sums survive any
  save/restore topology.
* **audit trail** — observed shards checkpoint their decision audit
  (``state["obs"]``); the merge concatenates the shard trails in shard
  order and a split hands every shard its own banks' records back in
  their original order, so a restored fleet keeps the records taken
  before the checkpoint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.online import Decision, ServiceStats
from repro.serving.router import shard_of_bank
from repro.telemetry.metrics import EXPORT_VERSION, MetricsRegistry, _series_key


def merge_decisions(segments: Sequence[Sequence[Decision]]) -> List[Decision]:
    """All decision segments pooled into the global emission order.

    Valid for ascending-release streams (sorted input, or any stream
    displaced within a positive ``max_skew`` — the reorder heap releases
    in ascending ``(timestamp, sequence)`` order); that is exactly the
    contract the single-service reorder buffer guarantees decisions for.
    """
    pooled = [d for segment in segments for d in segment]
    return sorted(pooled, key=lambda d: (d.timestamp, d.sequence))


def merge_stats(shard_stats: Sequence[dict],
                events_submitted: int,
                carried: Optional[dict] = None) -> dict:
    """Fleet-level :class:`~repro.core.online.ServiceStats` document.

    ``events_ingested`` is overridden to ``carried + events_submitted``
    (the coordinator counts every submission, exactly as a single
    service's ingest counter would); the remaining fields are
    ``carried + sum over shards``.
    """
    carried = carried or ServiceStats().to_dict()
    actions: Dict[str, int] = dict(carried["decisions_by_action"])
    triggers = int(carried["triggers_fired"])
    repredictions = int(carried["repredictions"])
    for stats in shard_stats:
        triggers += int(stats["triggers_fired"])
        repredictions += int(stats["repredictions"])
        for action, count in stats["decisions_by_action"].items():
            actions[action] = actions.get(action, 0) + int(count)
    return {
        "events_ingested": int(carried["events_ingested"]) + events_submitted,
        "triggers_fired": triggers,
        "repredictions": repredictions,
        "decisions_by_action": {k: actions[k] for k in sorted(actions)},
    }


def merge_metrics(shard_documents: Sequence[dict],
                  dead_letter_counts: Dict[str, int],
                  events_ingested: int,
                  carried_counters: Optional[Dict[str, float]] = None) -> dict:
    """Merged registry export document (counters only, sorted keys).

    Gauges (reorder depth, budget pressure) and histograms (wall-clock
    latency) are intentionally dropped: they are per-shard instantaneous
    or timing series with no shard-count-invariant fleet meaning.  The
    result is a valid :meth:`MetricsRegistry.restore` document.
    """
    counters: Dict[str, float] = dict(carried_counters or {})
    for document in shard_documents:
        for key, value in document.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
    counters["collector.events_ingested"] = float(events_ingested)
    for reason, count in dead_letter_counts.items():
        key = _series_key("collector.dead_letters", {"reason": reason})
        counters[key] = float(count)
    return {
        "version": EXPORT_VERSION,
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {},
    }


def merge_service_states(shard_states: Sequence[dict], router_state: dict,
                         stats: dict, metrics: dict) -> dict:
    """Union the per-shard state dicts into one service state dict.

    The result has the exact layout of ``CordialService.state_dict()``
    for a service that served the whole stream alone, so it loads into a
    real service (reports, oracle checks, and re-sharding all reuse the
    single-service machinery unchanged).  Observed shard states also
    union their audit trails under ``"obs"``; an unobserved fleet's
    merged state has no ``"obs"`` key, exactly like an unobserved
    service's.
    """
    reference = shard_states[0]
    collector_ref = reference["collector"]
    collector = {
        "trigger_uer_rows": collector_ref["trigger_uer_rows"],
        "max_skew": collector_ref["max_skew"],
        "max_pending": collector_ref["max_pending"],
        "max_dead_letters": collector_ref["max_dead_letters"],
        "max_timestamp": router_state["max_timestamp"],
        "banks": sorted((entry for state in shard_states
                         for entry in state["collector"]["banks"]),
                        key=lambda entry: entry[0]),
        "pending": sorted((obj for state in shard_states
                           for obj in state["collector"]["pending"]),
                          key=lambda obj: (obj["ts"], obj["seq"])),
        "dead_letters": list(router_state["dead_letters"]),
        "dead_letter_counts": {
            k: router_state["dead_letter_counts"][k]
            for k in sorted(router_state["dead_letter_counts"])},
    }
    counter_names = ("truncated_requests", "truncated_rows",
                     "duplicate_requests", "duplicate_rows")
    replay = {
        "spares_per_bank": reference["replay"]["spares_per_bank"],
        "spared_rows": sorted((entry for state in shard_states
                               for entry in state["replay"]["spared_rows"]),
                              key=lambda entry: entry[0]),
        "spared_banks": sorted((entry for state in shard_states
                                for entry in state["replay"]["spared_banks"]),
                               key=lambda entry: entry[0]),
        "counters": {name: sum(int(state["replay"]["counters"][name])
                               for state in shard_states)
                     for name in counter_names},
    }

    def union(key: str) -> list:
        return sorted((entry for state in shard_states for entry in state[key]),
                      key=lambda entry: entry[0])

    merged = {
        "spares_per_bank": reference["spares_per_bank"],
        "max_skew": reference["max_skew"],
        "collector": collector,
        "replay": replay,
        "stats": stats,
        "pattern_of": union("pattern_of"),
        "uer_rows": union("uer_rows"),
        "feature_state": union("feature_state"),
        "metrics": metrics,
    }
    audits = [state["obs"]["audit"] for state in shard_states
              if "obs" in state]
    if audits:
        # Observed shards: one audit trail, shard by shard, each shard's
        # records in their own decision order.
        records = [record for audit in audits for record in audit["records"]]
        merged["obs"] = {"audit": {**audits[0],
                                   "records": _renumbered(records)}}
    return merged


def _renumbered(records: Sequence[dict]) -> List[dict]:
    """Audit records re-indexed by their position in the new trail."""
    return [{**record, "index": index} for index, record in enumerate(records)]


def split_service_state(state: dict, n_shards: int) -> List[dict]:
    """Partition one merged service state onto ``n_shards`` shards.

    Every per-bank structure is filtered by
    :func:`~repro.serving.router.shard_of_bank`; stats and metrics start
    fresh on every shard (the fleet totals ride in the manifest as
    *carried* values — see :mod:`repro.serving.engine`); the router owns
    the dead-letter ledger, so shard collectors restore with an empty
    one; and every shard inherits the *global* ``max_timestamp`` so its
    local watermark can never run ahead of where the fleet's already is.
    """
    from repro.telemetry.mcelog import record_from_obj

    def owner(bank_entry) -> int:
        return shard_of_bank(tuple(bank_entry), n_shards)

    collector_src = state["collector"]
    replay_src = state["replay"]
    zero_replay_counters = {"truncated_requests": 0, "truncated_rows": 0,
                            "duplicate_requests": 0, "duplicate_rows": 0}
    shards: List[dict] = []
    for sid in range(n_shards):
        collector = {
            "trigger_uer_rows": collector_src["trigger_uer_rows"],
            "max_skew": collector_src["max_skew"],
            "max_pending": collector_src["max_pending"],
            "max_dead_letters": collector_src["max_dead_letters"],
            "max_timestamp": collector_src["max_timestamp"],
            "banks": [entry for entry in collector_src["banks"]
                      if owner(entry[0]) == sid],
            "pending": [obj for obj in collector_src["pending"]
                        if shard_of_bank(record_from_obj(obj).bank_key,
                                         n_shards) == sid],
            "dead_letters": [],
            "dead_letter_counts": {},
        }
        replay = {
            "spares_per_bank": replay_src["spares_per_bank"],
            "spared_rows": [entry for entry in replay_src["spared_rows"]
                            if owner(entry[0]) == sid],
            "spared_banks": [entry for entry in replay_src["spared_banks"]
                             if owner(entry[0]) == sid],
            # Fleet truncation/duplicate totals are shard-count-invariant
            # but their attribution is not; shard 0 carries them so the
            # sums survive any save/restore topology.
            "counters": (dict(replay_src["counters"]) if sid == 0
                         else dict(zero_replay_counters)),
        }
        shards.append({
            "spares_per_bank": state["spares_per_bank"],
            "max_skew": state["max_skew"],
            "collector": collector,
            "replay": replay,
            "stats": ServiceStats().to_dict(),
            "pattern_of": [entry for entry in state["pattern_of"]
                           if owner(entry[0]) == sid],
            "uer_rows": [entry for entry in state["uer_rows"]
                         if owner(entry[0]) == sid],
            "feature_state": [entry for entry in state["feature_state"]
                              if owner(entry[0]) == sid],
            "metrics": MetricsRegistry().as_dict(),
        })
        if "obs" in state:
            audit = state["obs"]["audit"]
            shards[-1]["obs"] = {"audit": {
                **audit,
                "records": _renumbered([record for record in audit["records"]
                                        if owner(record["bank_key"]) == sid]),
            }}
    return shards
