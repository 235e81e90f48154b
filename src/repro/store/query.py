"""One query API over the result store.

Every consumer used to read the store through its own ad-hoc path:
the figures replayed ``simulate_many`` for warm records, the ``store``
CLI called :meth:`ResultStore.stats` directly, scripts iterated
``store.keys()`` by hand and re-parsed payloads.  This module is the
single sanctioned read surface instead: a :class:`Query` that decodes
raw ``key -> payload`` entries into typed :class:`StoredRecord` rows
(workload, policy, arch/kernel fingerprints, seed, the full payload,
and -- where the arch manifest knows the fingerprint -- the concrete
MRF latency multiple), with filters, projections, group-by, and
aggregations over IPC and any other numeric record field.

Reports (``repro report``), run diffing (``repro diff-runs``), the
``store`` CLI, ``run_all_experiments``'s ``[store]`` line, and
:meth:`Runner.results` are all built on it; direct segment/index
access stays confined to :mod:`repro.store`.

Keys are parsed structurally, never trusted blindly: both the current
format ``<workload>__<policy>__a<arch-fp>__<seed>__k<kernel-fp>`` and
the pre-arch-fingerprint legacy format (a bare config hash in place of
the ``a<fp>`` segment) decode, and a key that matches neither still
yields a row (fingerprints empty, identity recovered from the payload
where possible) so maintenance tooling sees *every* record.

``where()``'s identity constraints are pushed below the payload
decode.  ``workload``, ``policy``, ``arch_fingerprint``,
``kernel_fingerprint``, ``seed``, ``key_in`` and the latency band
depend only on the key (the band through the arch manifest), so
:meth:`Query.records` splits each key once, rejects a parseable key
that fails them without reading its payload, and decodes only the
survivors.  A key that parses as neither format still decodes (unless
``key_in`` leaves it out), and is then held to the same constraints on
its payload-derived identity.  ``schema_ok`` and :meth:`Query.filter`
predicates need the payload and run on the built :class:`StoredRecord`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.store.result_store import ResultStore, StoreStats


_HEX_DIGITS = frozenset("0123456789abcdef")


def _is_hex(text: str) -> bool:
    return bool(text) and _HEX_DIGITS.issuperset(text)


@dataclass(frozen=True)
class ParsedKey:
    """The structured form of one result-store cache key."""

    workload: str
    policy: str
    #: Content fingerprint of the architecture (``a<fp>`` segment);
    #: empty for legacy-format keys.
    arch_fingerprint: str
    #: The legacy config-hash segment, for pre-arch-fingerprint keys;
    #: empty for current-format keys.
    config_fingerprint: str
    seed: int
    kernel_fingerprint: str


#: A key's identity as a plain tuple, in :class:`ParsedKey` (and
#: :class:`StoredRecord`) field order: workload, policy, arch
#: fingerprint, config fingerprint, seed, kernel fingerprint.
_Identity = Tuple[str, str, str, str, int, str]

_WORKLOAD, _POLICY, _ARCH_FP, _CONFIG_FP, _SEED, _KERNEL_FP = range(6)


def _split_key(key: str) -> Optional[_Identity]:
    """The identity a cache key encodes, or ``None`` if it matches
    neither format.

    Parsed right to left (kernel fingerprint, seed, arch segment,
    policy) because only the workload may itself contain ``__`` -- a
    file-backed workload is addressed by its path.
    """
    base, sep, kernel_fp = key.rpartition("__k")
    if not sep or not _is_hex(kernel_fp):
        return None
    parts = base.rsplit("__", 3)
    if len(parts) != 4:
        return None
    workload, policy, arch_token, seed_text = parts
    if not workload or not policy:
        return None
    try:
        seed = int(seed_text)
    except ValueError:
        return None
    if arch_token.startswith("a") and _is_hex(arch_token[1:]):
        return workload, policy, arch_token[1:], "", seed, kernel_fp
    if _is_hex(arch_token):
        return workload, policy, "", arch_token, seed, kernel_fp
    return None


def parse_key(key: str) -> Optional[ParsedKey]:
    """Decode a cache key, or ``None`` if it matches neither format."""
    identity = _split_key(key)
    return None if identity is None else ParsedKey(*identity)


@dataclass(frozen=True)
class StoredRecord:
    """One typed row of the store: a decoded ``key -> payload`` entry."""

    key: str
    workload: str
    policy: str
    arch_fingerprint: str
    config_fingerprint: str
    seed: int
    kernel_fingerprint: str
    #: The raw stored payload (a ``RunRecord``-shaped dict for current
    #: entries; possibly an older schema for stale ones).
    payload: Mapping[str, Any]
    #: Whether the payload decodes under the *current* ``RunRecord``
    #: schema.  Stale entries stay visible (they are what ``diff-runs``
    #: attributes to schema drift) but are excluded from aggregations.
    schema_ok: bool
    #: The MRF latency multiple of the architecture this record was
    #: simulated on, resolved through the store's arch manifest;
    #: ``None`` when the fingerprint has no recorded description.
    latency: Optional[float]
    #: Whether the key parsed as a known cache-key format.
    key_ok: bool = True

    @property
    def ipc(self) -> Optional[float]:
        value = self.payload.get("ipc")
        return float(value) if isinstance(value, (int, float)) else None

    def value(self, name: str) -> Any:
        """Resolve a field by name: record attributes first (workload,
        policy, fingerprints, seed, latency, key), then any payload
        field (ipc, cycles, mrf_reads, ...)."""
        if name in _RECORD_FIELDS:
            return getattr(self, name)
        return self.payload.get(name)


_RECORD_FIELDS = frozenset(
    ("key", "workload", "policy", "arch_fingerprint",
     "config_fingerprint", "seed", "kernel_fingerprint", "latency",
     "schema_ok", "key_ok")
)


def _current_schema_fields() -> frozenset:
    # Deferred: repro.experiments.runner imports repro.store, so the
    # RunRecord schema cannot be imported at module load without a
    # cycle.  The field set is what decides schema_ok -- RunRecord
    # construction itself would also coerce types, but stored payloads
    # are produced by asdict(RunRecord), so shape is the honest check.
    from dataclasses import fields as dataclass_fields

    from repro.experiments.runner import RunRecord
    return frozenset(spec.name for spec in dataclass_fields(RunRecord))


def _decode_latency(arch_payload: Optional[dict]) -> Optional[float]:
    """The MRF latency multiple recorded in an arch-manifest payload."""
    if arch_payload is None:
        return None
    from repro.arch.serialize import ArchSerializationError, arch_from_dict
    try:
        return arch_from_dict(arch_payload).mrf_latency_multiple
    except ArchSerializationError:
        return None


@dataclass(frozen=True)
class _Constraints:
    """The ``where()`` constraints accumulated by one query.

    Every field holds one entry per ``where()`` call that set it, so
    chained calls intersect exactly as chained filters would.  All but
    ``schema_ok`` are checked on a key's identity, before its payload
    is read.
    """

    #: ``(identity slot, required value)`` equality pairs.
    equal: Tuple[Tuple[int, Any], ...] = ()
    key_sets: Tuple[frozenset, ...] = ()
    #: ``(min, max)`` latency bounds; ``None`` leaves a side open.
    latency_bands: Tuple[Tuple[Optional[float], Optional[float]], ...] = ()
    schema_ok: Tuple[bool, ...] = ()

    def admits(self, key: str, identity: _Identity,
               latency: Optional[float]) -> bool:
        """Whether a record with this key, identity and resolved
        latency passes every payload-independent constraint.  A
        latency band never admits an unknown latency (unknown is not
        "within range")."""
        for slot, value in self.equal:
            if identity[slot] != value:
                return False
        if not self.admits_key(key):
            return False
        for low, high in self.latency_bands:
            if latency is None or not (
                (low is None or latency >= low)
                and (high is None or latency <= high)
            ):
                return False
        return True

    def admits_key(self, key: str) -> bool:
        """Whether ``key`` is in every ``key_in`` set -- decidable for
        any key, parseable or not."""
        return all(key in keys for keys in self.key_sets)

    def merged(self, other: "_Constraints") -> "_Constraints":
        return _Constraints(
            self.equal + other.equal,
            self.key_sets + other.key_sets,
            self.latency_bands + other.latency_bands,
            self.schema_ok + other.schema_ok,
        )


# -- aggregation functions ----------------------------------------------------

def _geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


AGGREGATORS: Dict[str, Callable[[Sequence[float]], float]] = {
    "count": len,
    "sum": sum,
    "min": min,
    "max": max,
    "mean": lambda values: sum(values) / len(values) if values else 0.0,
    "geomean": _geomean,
}


class Query:
    """Lazy, chainable read API over one result store.

    Construct from an open :class:`ResultStore` (or a root path via
    :meth:`Query.open`); filters accumulate and nothing touches disk
    until a terminal method (:meth:`records`, :meth:`project`,
    :meth:`group_by`, :meth:`aggregate`, :meth:`count`,
    :meth:`stats`) runs.
    """

    def __init__(self, store: ResultStore,
                 _predicates: Tuple[Callable[[StoredRecord], bool], ...]
                 = (),
                 _constraints: _Constraints = _Constraints(),
                 _identities: Optional[Dict[str, Optional[_Identity]]]
                 = None) -> None:
        self._store = store
        self._predicates = _predicates
        self._constraints = _constraints
        #: key -> split identity, shared by every query derived from
        #: this one (a key's split never changes).
        self._identities = {} if _identities is None else _identities

    @classmethod
    def open(cls, root: str, create: bool = False) -> "Query":
        """Open the store at ``root`` read-only-safely and query it.

        Propagates :class:`~repro.store.result_store.StoreError` for a
        directory that is not a store, exactly like ``ResultStore``
        with ``create=False``.
        """
        return cls(ResultStore(root, create=create))

    @property
    def store(self) -> ResultStore:
        return self._store

    # -- filters ------------------------------------------------------------

    def filter(self, predicate: Callable[[StoredRecord], bool]) -> "Query":
        """A new query with ``predicate`` added to the filter chain.

        Predicates see the built record, so every matching key's
        payload is decoded; prefer :meth:`where` for key dimensions.
        """
        return Query(self._store, self._predicates + (predicate,),
                     self._constraints, self._identities)

    def where(self, workload: Optional[str] = None,
              policy: Optional[str] = None,
              arch_fingerprint: Optional[str] = None,
              kernel_fingerprint: Optional[str] = None,
              seed: Optional[int] = None,
              schema_ok: Optional[bool] = None,
              min_latency: Optional[float] = None,
              max_latency: Optional[float] = None,
              key_in: Optional[Sequence[str]] = None) -> "Query":
        """Equality filters on the key dimensions, plus a latency band.

        Latency bounds compare the manifest-resolved MRF latency
        multiple; records whose architecture the manifest does not know
        never match a latency bound (unknown is not "within range").
        ``key_in`` restricts to an explicit key set -- how the service
        scopes ``GET /report/<job>`` to exactly one job's grid.  Every
        constraint but ``schema_ok`` is decided on the key, before the
        payload is decoded.
        """
        equal = tuple(
            (slot, value) for slot, value in (
                (_WORKLOAD, workload), (_POLICY, policy),
                (_ARCH_FP, arch_fingerprint),
                (_KERNEL_FP, kernel_fingerprint), (_SEED, seed),
            ) if value is not None
        )
        added = _Constraints(
            equal=equal,
            key_sets=() if key_in is None else (frozenset(key_in),),
            latency_bands=() if min_latency is None and max_latency is None
            else ((min_latency, max_latency),),
            schema_ok=() if schema_ok is None else (schema_ok,),
        )
        return Query(self._store, self._predicates,
                     self._constraints.merged(added), self._identities)

    # -- terminal reads -----------------------------------------------------

    def records(self) -> List[StoredRecord]:
        """Every live record passing the filter chain, sorted by key
        (deterministic regardless of segment/shard layout)."""
        schema_fields = _current_schema_fields()
        constraints = self._constraints
        identities = self._identities
        latencies: Dict[str, Optional[float]] = {"": None}

        def latency_of(arch_fp: str) -> Optional[float]:
            if arch_fp not in latencies:
                latencies[arch_fp] = _decode_latency(
                    self._store.arch_payload(arch_fp))
            return latencies[arch_fp]

        def admit_key(key: str) -> bool:
            if key not in identities:
                identities[key] = _split_key(key)
            identity = identities[key]
            if identity is None:
                # Its workload and policy are in the payload.
                return constraints.admits_key(key)
            return constraints.admits(
                key, identity, latency_of(identity[_ARCH_FP])
                if constraints.latency_bands else None)

        rows = []
        for key, payload in self._store.items(admit_key):
            identity = identities[key]
            key_ok = identity is not None
            if not key_ok:
                identity = (str(payload.get("workload", "")),
                            str(payload.get("policy", "")), "", "", 0, "")
                if not constraints.admits(key, identity, None):
                    continue
            # The identity tuple is in StoredRecord's field order.
            record = StoredRecord(
                key, *identity,
                payload=payload,
                schema_ok=frozenset(payload) == schema_fields,
                latency=latency_of(identity[_ARCH_FP]),
                key_ok=key_ok,
            )
            if all(record.schema_ok == wanted
                   for wanted in constraints.schema_ok) \
                    and all(predicate(record)
                            for predicate in self._predicates):
                rows.append(record)
        rows.sort(key=lambda r: r.key)
        return rows

    def count(self) -> int:
        return len(self.records())

    def project(self, *names: str) -> List[Tuple[Any, ...]]:
        """The named fields of every matching record, as tuples."""
        return [
            tuple(record.value(name) for name in names)
            for record in self.records()
        ]

    def group_by(self, *names: str) -> Dict[Tuple[Any, ...],
                                            List[StoredRecord]]:
        """Matching records bucketed by the named fields."""
        groups: Dict[Tuple[Any, ...], List[StoredRecord]] = {}
        for record in self.records():
            groups.setdefault(
                tuple(record.value(name) for name in names), []
            ).append(record)
        return groups

    def aggregate(self, by: Sequence[str],
                  **aggregations: Tuple[str, str]) -> List[Dict[str, Any]]:
        """Group-by plus named aggregations, one output row per group.

        Each keyword is ``name=(aggregator, field)`` with aggregator
        one of :data:`AGGREGATORS` (``count``/``sum``/``min``/``max``/
        ``mean``/``geomean``) over the numeric values of ``field``
        (e.g. ``ipc``, ``cycles``, ``latency``).  Non-numeric and
        missing values are excluded; ``count`` counts records with a
        usable value of its field (count over ``key`` counts all).
        Rows come back sorted by the group tuple.
        """
        for name, (aggregator, _) in aggregations.items():
            if aggregator not in AGGREGATORS:
                raise ValueError(
                    f"unknown aggregator {aggregator!r} for {name!r}; "
                    f"choose from {sorted(AGGREGATORS)}"
                )
        rows = []
        for group, records in sorted(self.group_by(*by).items(),
                                     key=lambda item: _sort_token(item[0])):
            row: Dict[str, Any] = dict(zip(by, group))
            for name, (aggregator, field_name) in aggregations.items():
                if aggregator == "count" and field_name in ("", "key"):
                    row[name] = len(records)
                    continue
                values = [
                    value for value in
                    (record.value(field_name) for record in records)
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)
                ]
                row[name] = AGGREGATORS[aggregator](values) if (
                    values or aggregator == "count"
                ) else None
            rows.append(row)
        return rows

    # -- store-level reads --------------------------------------------------

    def stats(self) -> StoreStats:
        """On-disk shape of the whole store (full scan; includes the
        corrupt-line and torn-tail damage counters reports surface)."""
        return self._store.stats()

    def run_history(self) -> List[dict]:
        """Recorded run-telemetry entries, oldest first."""
        entries = list(self._store.iter_run_logs())
        entries.sort(key=lambda entry: entry.get("time", 0))
        return entries

    def arch_descriptions(self) -> Dict[str, Optional[dict]]:
        """fingerprint -> recorded arch payload for every manifest entry."""
        return {
            fingerprint: self._store.arch_payload(fingerprint)
            for fingerprint in self._store.arch_fingerprints()
        }


def _sort_token(group: Tuple[Any, ...]) -> Tuple:
    # None-safe deterministic ordering for mixed group tuples.
    return tuple(
        (value is None, str(type(value).__name__), value if value is not None
         else "")
        for value in group
    )
