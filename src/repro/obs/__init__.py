"""`repro.obs`: the end-to-end observability layer.

One import point for the four pillars — deterministic span tracing
(:mod:`~repro.obs.tracer`), the structured run journal
(:mod:`~repro.obs.journal`), the per-decision audit trail
(:mod:`~repro.obs.audit`) and Prometheus exposition
(:mod:`~repro.obs.promexport`) — plus :class:`Observability`, the bundle
the serving stack threads through itself.

Everything here is strictly *passive*: with observability attached, the
decisions and ICR of a serving run are byte-identical to an unobserved
run (``tests/test_obs_equivalence.py`` enforces it), and with it
detached the hot path pays a single ``is None`` check.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from repro.obs.audit import AuditLog
from repro.obs.journal import RunJournal, build_provenance, read_journal
from repro.obs.promexport import render_prometheus, snapshot_delta
from repro.obs.tracer import FakeClock, SpanTracer, resolve_clock
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "AuditLog", "FakeClock", "Observability", "RunJournal", "SpanTracer",
    "build_provenance", "read_journal", "render_prometheus",
    "resolve_clock", "snapshot_delta",
]

#: Artifact file names inside an ``--obs`` output directory.
TRACE_FILE = "trace.json"
JOURNAL_FILE = "journal.jsonl"
AUDIT_FILE = "audit.jsonl"
METRICS_FILE = "metrics.json"
PROM_FILE = "metrics.prom"
SUMMARY_FILE = "obs_summary.json"


class Observability:
    """Tracer + journal + audit, bundled for the serving stack.

    Components always exist (a detached bundle journals in memory), so
    instrumentation sites need exactly one guard: ``if obs is not
    None``.  Only the audit trail is checkpoint state — the journal is
    its own append-only file and the tracer is process-local — which is
    what rides in the version-3 service checkpoint.
    """

    def __init__(self, tracer: Optional[SpanTracer] = None,
                 journal: Optional[RunJournal] = None,
                 audit: Optional[AuditLog] = None) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.journal = journal if journal is not None else RunJournal(
            clock=self.tracer.clock)
        self.audit = audit if audit is not None else AuditLog()

    @classmethod
    def create(cls, directory: Optional[Union[str, Path]] = None,
               provenance: Optional[Mapping] = None,
               clock: Optional[Callable[[], float]] = None,
               attributions: bool = False,
               sample_every: int = 1_000) -> "Observability":
        """A fully wired bundle, optionally writing into ``directory``.

        The directory is created if missing; the journal starts
        appending to ``journal.jsonl`` immediately (provenance header
        first), while the trace/audit/metrics artifacts are written by
        :meth:`export` at end of run.

        The tracer records its span-duration histograms into a registry
        of its own, never into the service's: span durations are clock
        readings, and the service registry is checkpoint state that two
        identical runs must write byte for byte.
        """
        clock = resolve_clock(clock)
        journal_path = None
        if directory is not None:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            journal_path = directory / JOURNAL_FILE
        tracer = SpanTracer(clock=clock, metrics=MetricsRegistry())
        journal = RunJournal(path=journal_path, clock=clock,
                             provenance=dict(provenance or {}),
                             sample_every=sample_every)
        audit = AuditLog(attributions=attributions)
        return cls(tracer=tracer, journal=journal, audit=audit)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """The checkpointable slice of the bundle (the audit trail)."""
        return {"audit": self.audit.state_dict()}

    def load_state_dict(self, state: dict) -> "Observability":
        """Restore the audit trail captured by :meth:`state_dict`."""
        self.audit.load_state_dict(state["audit"])
        return self

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict:
        """Journal, trace and audit roll-up (JSON-ready)."""
        return {"journal": self.journal.summary(),
                "trace": self.tracer.summary(),
                "audit": self.audit.summary()}

    def export(self, directory: Union[str, Path],
               metrics: Optional[MetricsRegistry] = None) -> dict:
        """Write every artifact into ``directory``; returns their paths.

        ``trace.json`` (Chrome ``trace_event``), ``audit.jsonl``,
        ``obs_summary.json``, and — when a registry is given —
        ``metrics.json`` (the registry export document, plus the
        tracer's ``trace.span_seconds`` histograms) and ``metrics.prom``
        (text exposition of the same).  The journal has been appending
        to ``journal.jsonl`` all along; it is flushed here.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}

        trace_path = directory / TRACE_FILE
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.tracer.export_chrome()}, handle,
                      sort_keys=True)
            handle.write("\n")
        paths["trace"] = str(trace_path)

        audit_path = directory / AUDIT_FILE
        self.audit.write_jsonl(audit_path)
        paths["audit"] = str(audit_path)

        summary_path = directory / SUMMARY_FILE
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(self.summary(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths["summary"] = str(summary_path)

        if metrics is not None:
            metrics_path = directory / METRICS_FILE
            document = metrics.as_dict()
            if self.tracer.metrics is not None:
                histograms = {**document["histograms"],
                              **self.tracer.metrics.as_dict()["histograms"]}
                document["histograms"] = {k: histograms[k]
                                          for k in sorted(histograms)}
            with open(metrics_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            paths["metrics"] = str(metrics_path)
            prom_path = directory / PROM_FILE
            with open(prom_path, "w", encoding="utf-8") as handle:
                handle.write(render_prometheus(document))
            paths["prom"] = str(prom_path)

        if self.journal.path is not None:
            paths["journal"] = str(self.journal.path)
        self.journal.close()
        return paths
