"""Serve a whole stream through one plain ``CordialService``.

The plain service is the reference the fleet engine and the chaos
harness are held against: ingest every record in order, then flush.
"""

from typing import List, Sequence

from repro.core.online import CordialService, Decision


def serve_all(service: CordialService, records: Sequence) -> List[Decision]:
    """Ingest ``records`` in order, flush, and return every decision."""
    decisions: List[Decision] = []
    for record in records:
        decisions.extend(service.ingest(record))
    decisions.extend(service.flush())
    return decisions
