"""Kubernetes-style Event objects and the deduplicating recorder.

Controllers narrate themselves the way real kube controllers do: each
noteworthy transition emits an :class:`KubeEvent` (``Scheduled``,
``FailedScheduling``, ``Evicted``, ``LeaderChanged``, ``TokenThrottled``,
…) through an :class:`EventRecorder`, which — like the Kubernetes event
correlator — dedups on (involved object, reason, message, source): a
repeat bumps ``count`` and ``last_time`` instead of minting a new object.

Events are *stored through the apiserver* (kind ``Event``), so they are
listable/watchable like any resource, but the recorder's local ledger is
the source of truth: a write that hits an apiserver outage or a fencing
rejection is buffered and flushed on the next emit instead of raised —
observability must never take a controller down with it.

Event objects draw uids from a recorder-local counter (``evt-…``), not
the shared ObjectMeta uid counter, so enabling observability does not
shift the uid sequence of Pods/Nodes — a prerequisite for the
identical-seed, tracing-on-vs-off replay guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.objects import DEFAULT_NAMESPACE, ObjectMeta

__all__ = ["KubeEvent", "EventRecorder", "EVENT_NORMAL", "EVENT_WARNING"]

EVENT_NORMAL = "Normal"
EVENT_WARNING = "Warning"


@dataclass
class KubeEvent:
    """A Kubernetes ``v1.Event`` analogue."""

    metadata: ObjectMeta
    reason: str = ""
    message: str = ""
    #: Normal | Warning
    type: str = EVENT_NORMAL
    involved_kind: str = ""
    involved_namespace: str = DEFAULT_NAMESPACE
    involved_name: str = ""
    #: reporting component, e.g. ``kubeshare-sched``.
    source: str = ""
    count: int = 1
    first_time: float = 0.0
    last_time: float = 0.0

    kind = "Event"

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def involved_key(self) -> str:
        return f"{self.involved_kind}/{self.involved_namespace}/{self.involved_name}"

    def clone(self) -> "KubeEvent":
        return KubeEvent(
            metadata=self.metadata.clone(),
            reason=self.reason,
            message=self.message,
            type=self.type,
            involved_kind=self.involved_kind,
            involved_namespace=self.involved_namespace,
            involved_name=self.involved_name,
            source=self.source,
            count=self.count,
            first_time=self.first_time,
            last_time=self.last_time,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.metadata.name,
            "namespace": self.metadata.namespace,
            "reason": self.reason,
            "message": self.message,
            "type": self.type,
            "involved_kind": self.involved_kind,
            "involved_namespace": self.involved_namespace,
            "involved_name": self.involved_name,
            "source": self.source,
            "count": self.count,
            "first_time": self.first_time,
            "last_time": self.last_time,
        }


class EventRecorder:
    """Dedup + best-effort apiserver write-through for events."""

    def __init__(self, env, api=None) -> None:
        self.env = env
        #: optional APIServer; ``None`` keeps events local-only.
        self.api = api
        #: every distinct event of the run (the source of truth).
        self.ledger: List[KubeEvent] = []
        self.emitted_total = 0
        self.failed_writes = 0
        self._index: Dict[Tuple[str, str, str, str], KubeEvent] = {}
        #: events whose latest state has not reached the apiserver yet.
        self._dirty: List[KubeEvent] = []
        self._seq = itertools.count(1)

    # -- emitting ----------------------------------------------------------
    def emit(
        self,
        reason: str,
        message: str,
        involved_kind: str = "",
        involved_name: str = "",
        involved_namespace: str = DEFAULT_NAMESPACE,
        type: str = EVENT_NORMAL,
        source: str = "",
    ) -> KubeEvent:
        """Record an event; dedups against prior identical emissions."""
        now = self.env.now
        self.emitted_total += 1
        dedup_key = (
            f"{involved_kind}/{involved_namespace}/{involved_name}",
            reason,
            message,
            source,
        )
        ev = self._index.get(dedup_key)
        if ev is not None:
            ev.count += 1
            ev.last_time = now
        else:
            seq = next(self._seq)
            stem = involved_name or reason.lower() or "event"
            ev = KubeEvent(
                metadata=ObjectMeta(
                    name=f"{stem}.{seq:07d}",
                    namespace=involved_namespace or DEFAULT_NAMESPACE,
                    uid=f"evt-{seq:08d}",
                ),
                reason=reason,
                message=message,
                type=type,
                involved_kind=involved_kind,
                involved_namespace=involved_namespace,
                involved_name=involved_name,
                source=source,
                first_time=now,
                last_time=now,
            )
            self._index[dedup_key] = ev
            self.ledger.append(ev)
        if ev not in self._dirty:
            self._dirty.append(ev)
        self.flush()
        return ev

    # -- apiserver write-through -------------------------------------------
    def flush(self) -> int:
        """Push pending event state through the apiserver (best effort).

        Failures (outage, fencing, races) leave the event queued for the
        next flush; they are counted but never raised into the emitter.
        """
        if self.api is None or not self._dirty:
            return 0
        from ..cluster.apiserver import (
            AlreadyExists,
            Conflict,
            NotFound,
            ServiceUnavailable,
            UnknownKind,
        )

        written = 0
        still_dirty: List[KubeEvent] = []
        for ev in self._dirty:
            try:
                try:
                    self.api.create(ev.clone())
                except AlreadyExists:
                    count, last = ev.count, ev.last_time

                    def bump(stored: KubeEvent) -> None:
                        stored.count = count
                        stored.last_time = last

                    self.api.patch("Event", ev.name, bump, ev.metadata.namespace)
                written += 1
            except (ServiceUnavailable, Conflict, NotFound, UnknownKind):
                self.failed_writes += 1
                still_dirty.append(ev)
        self._dirty = still_dirty
        return written

    @property
    def pending_writes(self) -> int:
        return len(self._dirty)

    # -- views -------------------------------------------------------------
    def for_object(
        self, name: str, kind: Optional[str] = None, namespace: Optional[str] = None
    ) -> List[KubeEvent]:
        return [
            e
            for e in self.ledger
            if e.involved_name == name
            and (kind is None or e.involved_kind == kind)
            and (namespace is None or e.involved_namespace == namespace)
        ]

    def by_reason(self, reason: str) -> List[KubeEvent]:
        return [e for e in self.ledger if e.reason == reason]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [e.to_dict() for e in self.ledger]


def events_table(events: List[Dict[str, object]]) -> str:
    """Render event dicts as a ``kubectl get events``-style table."""
    header = f"{'LAST':>9}  {'TYPE':7} {'REASON':<20} {'OBJECT':<38} {'COUNT':>5}  MESSAGE"
    lines = [header]
    for e in events:
        obj = f"{e['involved_kind'].lower()}/{e['involved_name']}"
        lines.append(
            f"{e['last_time']:>9.3f}  {e['type']:7} {str(e['reason']):<20} "
            f"{obj:<38} {e['count']:>5}  {e['message']}"
        )
    return "\n".join(lines)
