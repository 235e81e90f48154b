"""Merging one result store into another.

The ssh backend's remote workers flush records into a store on *their*
filesystem; when a chunk completes, its segments come home and are
merged into the orchestrator's store.  The merge replays the source
through the destination's normal ``put`` path (rather than copying
segment files) so the destination's own ``(seq, writer)`` ordering
stays authoritative, torn source tails stay invisible, and a record
the destination already holds identically is not duplicated.

Also exposed as ``repro store merge <dest> <source>`` for stitching
together stores harvested from hosts by hand.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MergeOutcome:
    """What one merge did."""

    scanned: int        # keys replayed from the source
    merged: int         # keys written (new or payload changed)
    identical: int      # keys already present with the same payload
    archs: int          # architecture manifests carried over

    def render(self) -> str:
        return (
            f"merged {self.merged} of {self.scanned} record(s) "
            f"({self.identical} already identical), "
            f"{self.archs} arch manifest(s)"
        )


def merge_store(dest, source) -> MergeOutcome:
    """Fold every record of ``source`` into ``dest`` (last-wins as
    seen by ``source``'s own replay order)."""
    scanned = merged = identical = archs = 0
    for key, payload in source.items():
        scanned += 1
        existing = dest.get(key)
        if existing == payload:
            identical += 1
            continue
        dest.put(key, payload)
        merged += 1
    for fingerprint in source.arch_fingerprints():
        payload = source.arch_payload(fingerprint)
        if payload is not None and dest.arch_payload(fingerprint) is None:
            dest.record_arch(fingerprint, payload)
            archs += 1
    return MergeOutcome(scanned=scanned, merged=merged,
                        identical=identical, archs=archs)
