"""Named counters: the one counter type every layer counts into.

A :class:`Counters` maps a counter name to a number, or to a nested
``Counters`` for a family of counts keyed by kind (the simulator's
``event_counts``).  It adds, merges, copies, diffs and serializes
without knowing any name, so a layer that wants a new count increments
it and every reader carries it with no further edit: the process-wide
kernel-build and compile-cache counters, a simulation's
:class:`~repro.experiments.runner.SimTelemetry` (which crosses the
worker boundary as plain JSON), ``runner.stats``, its per-sweep
deltas, run-log entries and ``repro report``'s totals.

A name nobody counted reads as zero, by key or by attribute
(``stats.disk_hits``), except where a ``dict`` method already owns
the attribute name.
"""

from __future__ import annotations

from typing import Mapping


class Counters(dict):
    """A mapping from counter name to number (or nested ``Counters``)."""

    __slots__ = ()

    def __missing__(self, name: str):
        return 0

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return self[name]

    def __setattr__(self, name: str, value) -> None:
        self[name] = value

    def add(self, name: str, amount=1) -> None:
        """Count ``amount`` more under ``name``."""
        self[name] = self.get(name, 0) + amount

    def merge(self, other: Mapping) -> "Counters":
        """Add every count in ``other`` (nested families too) into this
        one; returns ``self``."""
        for name, value in other.items():
            if isinstance(value, Mapping):
                family = self.get(name)
                if family is None:
                    family = self[name] = Counters()
                family.merge(value)
            else:
                self.add(name, value)
        return self

    def copy(self) -> "Counters":
        """An independent snapshot (nested families are copied too)."""
        return Counters().merge(self)

    def delta_since(self, baseline: Mapping) -> "Counters":
        """Name-wise ``self - baseline``: what was counted since
        ``baseline`` was copied.  A count that did not move is left
        out; a nested family stays, even when nothing in it moved."""
        delta = Counters()
        for name, value in self.items():
            before = baseline.get(name)
            if isinstance(value, Mapping):
                delta[name] = Counters(value).delta_since(before or {})
            elif value - (before or 0):
                delta[name] = value - (before or 0)
        return delta

    # Readings the runner's public ``stats`` surface has always offered.

    @property
    def hits(self):
        """Cache hits from either tier (memory or the result store)."""
        return self.memory_hits + self.disk_hits

    @property
    def simulated_cycles_per_host_second(self) -> float:
        if self.host_seconds <= 0.0:
            return 0.0
        return self.simulated_cycles / self.host_seconds
