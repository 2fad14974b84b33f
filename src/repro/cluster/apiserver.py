"""kube-apiserver: CRUD + watch frontend over etcd.

All components — the scheduler, kubelets, controllers, and KubeShare's two
custom controllers — interact exclusively through this class, mirroring the
paper's Figure 1. Custom resource kinds (the ``SharePod`` CRD) are added at
runtime via :meth:`APIServer.register_crd`, the analogue of applying a
CustomResourceDefinition.

API calls are synchronous from the caller's point of view; control-plane
latencies are modelled explicitly where they matter for the evaluation (the
container runtime and the controller reconcile loops), which keeps every
run deterministic.

Watch usage pattern (inside a simulation process)::

    stream = api.watch("Pod", replay=True)
    while True:
        raw = yield stream.get()
        etype, pod = translate_event(raw)
        ...
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, Optional, Tuple

from ..obs import runtime as obs
from ..sim import Environment
from .etcd import CasFailure, Etcd, WatchEvent, WatchEventType
from .objects import DEFAULT_NAMESPACE, LabelSelector, Node, Pod

__all__ = [
    "APIServer",
    "Conflict",
    "FencingConflict",
    "AlreadyExists",
    "NotFound",
    "ServiceUnavailable",
    "UnknownKind",
    "translate_event",
]


class Conflict(Exception):
    """Optimistic-concurrency failure: object changed since it was read."""


class FencingConflict(Conflict):
    """Write from a deposed leader: its lease epoch is no longer current.

    A retry cannot help — the writer must observe that it lost leadership
    (split-brain protection, see :mod:`repro.cluster.leaderelection`).
    """


class AlreadyExists(Exception):
    """Create of an object whose namespace/name is already taken."""


class NotFound(Exception):
    """Read/update/delete of an object that does not exist."""


class UnknownKind(Exception):
    """Operation on a kind that is neither built-in nor a registered CRD."""


class ServiceUnavailable(Exception):
    """The apiserver is inside an outage window (chaos-injected 503)."""


def _clone(obj: Any) -> Any:
    clone = getattr(obj, "clone", None)
    return clone() if callable(clone) else copy.deepcopy(obj)


def translate_event(ev: WatchEvent) -> Tuple[WatchEventType, Any]:
    """Translate a raw etcd event into ``(type, object)``.

    The object carries ``ev.kv.mod_revision`` as its resource version. For
    DELETE events it is the previous stored value (the tombstone itself
    carries ``None``).

    Zero-copy fan-out: one watch event is delivered to every matching
    subscriber, and nobody mutates a stored object after its commit
    (every write stores a fresh object), so a PUT or replay event whose
    stored value already carries its final resource version — ``create``
    and ``update``/``patch`` stamp it before any watcher runs — returns
    that stored object itself. Otherwise one clone, stamped with the
    event's revision, is cached on the event and shared by all its
    watchers: a DELETE (the delete revision is newer than the value's)
    and a value written without a stamped version (a blind
    :meth:`Etcd.put`). Consumers must treat delivered objects as
    **read-only** (every mutation path in this codebase goes through
    ``api.patch`` on a freshly ``get``-cloned object, which is also what
    optimistic concurrency requires).
    """
    if ev.type is WatchEventType.DELETE:
        payload = ev.prev.value if ev.prev is not None else None
    else:
        payload = ev.kv.value
    if payload is None:
        return (ev.type, None)
    rv = ev.kv.mod_revision
    if payload.metadata.resource_version == rv:
        return (ev.type, payload)
    obj = ev.translated
    if obj is None:
        obj = _clone(payload)
        obj.metadata.resource_version = rv
        ev.translated = obj
    return (ev.type, obj)


class APIServer:
    """The cluster's single API frontend, backed by :class:`Etcd`."""

    BUILTIN_KINDS = ("Pod", "Node", "Lease")

    def __init__(self, env: Environment, etcd: Optional[Etcd] = None) -> None:
        self.env = env
        # Explicit None check: an *empty* Etcd is falsy (it has __len__),
        # so `etcd or Etcd(env)` would silently discard a provided store.
        self.etcd = etcd if etcd is not None else Etcd(env)
        self._kinds: set[str] = set(self.BUILTIN_KINDS)
        #: admission plugins consulted (in registration order) by
        #: :meth:`create` after kind validation; empty unless a policy
        #: layer is installed, so the default create path pays nothing.
        self._admission: List[Any] = []
        #: chaos knobs: requests fail with :class:`ServiceUnavailable`
        #: until ``down_until``; ``extra_latency`` is added by callers that
        #: model their request round-trips explicitly.
        self.down_until = 0.0
        self.extra_latency = 0.0
        self.outages_total = 0

    # -- chaos -------------------------------------------------------------
    def set_outage(self, duration: float) -> None:
        """Begin (or extend) an outage window of *duration* seconds."""
        self.down_until = max(self.down_until, self.env.now + duration)
        self.outages_total += 1

    @property
    def available(self) -> bool:
        return self.env.now >= self.down_until

    def _gate(self) -> None:
        if self.env.now < self.down_until:
            raise ServiceUnavailable(
                f"apiserver down until t={self.down_until:.3f}"
            )

    # -- write fencing -----------------------------------------------------
    def _check_fencing(self, fencing: Optional[Any]) -> None:
        """Admit a fenced write only while its lease epoch is current.

        *fencing* is a :class:`~repro.cluster.leaderelection.FencingToken`
        (duck-typed: lease_namespace/lease_name/holder/epoch). A write that
        carries a stale token — a deposed leader resuming after a GC pause
        or partition — is rejected with :class:`FencingConflict` before it
        can touch etcd, which is what prevents split-brain double writes.
        """
        if fencing is None:
            return
        kv = self.etcd.get(
            self._key("Lease", fencing.lease_namespace, fencing.lease_name)
        )
        lease = kv.value if kv is not None else None
        if (
            lease is None
            or lease.spec.holder != fencing.holder
            or lease.spec.epoch != fencing.epoch
        ):
            held = (
                "no lease"
                if lease is None
                else f"holder={lease.spec.holder!r} epoch={lease.spec.epoch}"
            )
            raise FencingConflict(
                f"fenced write rejected: {fencing.holder!r} epoch "
                f"{fencing.epoch} is stale ({held})"
            )

    # -- kind registry -----------------------------------------------------
    def register_crd(self, kind: str) -> None:
        """Register a custom resource kind (e.g. ``SharePod``)."""
        self._kinds.add(kind)

    def register_admission(self, plugin: Any) -> None:
        """Install an admission plugin (an object with ``admit(obj)``).

        ``admit`` runs synchronously inside :meth:`create` before the
        etcd write; it may mutate the object (the server clones after
        admission) or raise to refuse the create. Idempotent per plugin:
        re-registering an already-installed instance is a no-op.
        """
        if plugin not in self._admission:
            self._admission.append(plugin)

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._kinds))

    def _check_kind(self, kind: str) -> None:
        if kind not in self._kinds:
            raise UnknownKind(kind)

    @staticmethod
    def _key(kind: str, namespace: str, name: str) -> str:
        return f"/registry/{kind}/{namespace}/{name}"

    def _obj_key(self, obj: Any) -> str:
        return self._key(obj.kind, obj.metadata.namespace, obj.metadata.name)

    # -- CRUD ----------------------------------------------------------------
    def create(self, obj: Any, fencing: Optional[Any] = None) -> Any:
        """Persist a new object. Returns the stored copy."""
        self._gate()
        self._check_fencing(fencing)
        self._check_kind(obj.kind)
        for plugin in self._admission:
            plugin.admit(obj)
        stored = _clone(obj)
        stored.metadata.creation_time = self.env.now
        key = self._obj_key(stored)
        try:
            kv = self.etcd.put_if(key, stored, mod_revision=0)
        except CasFailure:
            raise AlreadyExists(key) from None
        # The KV holds a reference to `stored`; record the final RV on it.
        stored.metadata.resource_version = kv.mod_revision
        if obs.enabled():
            obs.api_write(
                "create", stored.kind, stored.metadata.namespace, stored.metadata.name
            )
            if stored.kind == "SharePod":
                obs.sharepod_created(stored)
        return _clone(stored)

    def get(
        self, kind: str, name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> Optional[Any]:
        """Fetch one object, or ``None`` if absent."""
        self._gate()
        self._check_kind(kind)
        kv = self.etcd.get(self._key(kind, namespace, name))
        if kv is None:
            return None
        obj = _clone(kv.value)
        obj.metadata.resource_version = kv.mod_revision
        return obj

    def peek(
        self, kind: str, name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> Optional[Any]:
        """Fetch one object **without cloning** — strictly read-only.

        The returned object is the etcd-stored value itself; callers must
        not mutate it (every mutation path goes through ``get`` + patch /
        ``update``, as optimistic concurrency requires anyway). Outage
        gating and kind checking match :meth:`get` exactly, so a poll
        loop can probe a phase field through the same failure model
        without paying a defensive deep copy per poll tick. The stored
        object already carries its final resource version (create/update
        stamp it on the stored reference).
        """
        self._gate()
        self._check_kind(kind)
        kv = self.etcd.get(self._key(kind, namespace, name))
        return None if kv is None else kv.value

    def peek_list(self, kind: str) -> List[Any]:
        """All objects of *kind* **without cloning** — strictly read-only.

        The list counterpart of :meth:`peek`: the returned objects are the
        etcd-stored values themselves, key-ordered, each already carrying
        its final resource version. Outage gating and kind checking match
        :meth:`list` exactly."""
        self._gate()
        self._check_kind(kind)
        return [kv.value for kv in self.etcd.range(f"/registry/{kind}/")]

    def list(
        self,
        kind: str,
        namespace: Optional[str] = None,
        selector: Optional[LabelSelector] = None,
    ) -> List[Any]:
        """All objects of *kind*, optionally namespace/selector filtered."""
        self._gate()
        self._check_kind(kind)
        prefix = f"/registry/{kind}/" + (f"{namespace}/" if namespace else "")
        out = []
        for kv in self.etcd.range(prefix):
            obj = _clone(kv.value)
            obj.metadata.resource_version = kv.mod_revision
            if selector is None or selector.matches(obj.metadata.labels):
                out.append(obj)
        return out

    def update(self, obj: Any, fencing: Optional[Any] = None) -> Any:
        """Write back an object read earlier; optimistic-concurrency checked."""
        return _clone(self._commit(_clone(obj), fencing))

    def _commit(self, stored: Any, fencing: Optional[Any]) -> Any:
        """CAS-write *stored* itself at its resource version and stamp the
        new one on it. *stored* becomes the etcd value, so no caller may
        keep a reference it could mutate later: :meth:`update` passes a
        fresh clone, :meth:`patch` the private object it read and
        mutated."""
        self._gate()
        self._check_fencing(fencing)
        self._check_kind(stored.kind)
        key = self._obj_key(stored)
        try:
            kv = self.etcd.put_if(
                key, stored, mod_revision=stored.metadata.resource_version
            )
        except CasFailure as err:
            if self.etcd.get(key) is None:
                raise NotFound(key) from None
            raise Conflict(str(err)) from None
        stored.metadata.resource_version = kv.mod_revision
        if obs.enabled():
            obs.api_write(
                "update", stored.kind, stored.metadata.namespace, stored.metadata.name
            )
        return stored

    def patch(
        self,
        kind: str,
        name: str,
        mutate: Callable[[Any], None],
        namespace: str = DEFAULT_NAMESPACE,
        retries: int = 8,
        fencing: Optional[Any] = None,
    ) -> Any:
        """Read-modify-write with automatic conflict retry.

        The re-read on every attempt is what makes the retry safe: a
        conflicting writer's changes are picked up before *mutate* runs
        again, so no concurrent update is silently overwritten. Fencing
        rejections are not retried — a stale epoch cannot become fresh.
        """
        for _ in range(retries):
            obj = self.get(kind, name, namespace)
            if obj is None:
                raise NotFound(self._key(kind, namespace, name))
            mutate(obj)
            try:
                return _clone(self._commit(obj, fencing))
            except FencingConflict:
                raise
            except Conflict:
                continue
        raise Conflict(f"patch of {kind}/{namespace}/{name} kept conflicting")

    def delete(
        self,
        kind: str,
        name: str,
        namespace: str = DEFAULT_NAMESPACE,
        fencing: Optional[Any] = None,
    ) -> Any:
        """Remove an object; returns the last stored value."""
        self._gate()
        self._check_fencing(fencing)
        self._check_kind(kind)
        prev = self.etcd.delete(self._key(kind, namespace, name))
        if prev is None:
            raise NotFound(self._key(kind, namespace, name))
        if obs.enabled():
            obs.api_write("delete", kind, namespace, name)
        return _clone(prev.value)

    def try_delete(
        self,
        kind: str,
        name: str,
        namespace: str = DEFAULT_NAMESPACE,
        fencing: Optional[Any] = None,
    ) -> bool:
        """Like :meth:`delete` but returns False instead of raising."""
        try:
            self.delete(kind, name, namespace, fencing=fencing)
            return True
        except NotFound:
            return False

    # -- watches ---------------------------------------------------------------
    def watch(self, kind: str, namespace: Optional[str] = None, replay: bool = False):
        """Subscribe to changes of *kind*.

        Returns an etcd watch; yield ``stream.get()`` to receive raw
        :class:`WatchEvent` items and run them through
        :func:`translate_event`. With ``replay=True`` current objects are
        delivered first as synthetic PUTs (the informer "list+watch").
        """
        self._check_kind(kind)
        prefix = f"/registry/{kind}/" + (f"{namespace}/" if namespace else "")
        return self.etcd.watch(prefix, replay=replay)

    # -- convenience -----------------------------------------------------------
    def bind(
        self, pod_name: str, node_name: str, namespace: str = DEFAULT_NAMESPACE
    ) -> Pod:
        """The scheduler's Bind call: pin a pod to a node."""

        def mutate(pod: Pod) -> None:
            if pod.spec.node_name is not None:
                raise Conflict(f"pod {pod_name} already bound to {pod.spec.node_name}")
            pod.spec.node_name = node_name

        return self.patch("Pod", pod_name, mutate, namespace)

    def nodes(self) -> List[Node]:
        return self.list("Node")

    def pods(self, namespace: Optional[str] = None) -> List[Pod]:
        return self.list("Pod", namespace)
