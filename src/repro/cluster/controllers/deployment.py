"""Deployment: versioned ReplicaSets with rolling updates.

The second stock higher-level controller (after ReplicaSet), included to
exercise controller composition the way real clusters stack them — and,
per the paper's §4.6 argument, Deployments of *sharePods* work unchanged
because the ReplicaSet layer accepts a pod factory.

A Deployment owns one ReplicaSet per template revision. On a template
change it creates the next revision's ReplicaSet and shifts replicas over
``max_surge``-style: scale the new set up one at a time as the old set
scales down, so total live replicas never drops below ``replicas - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from ...sim import Environment
from ..apiserver import AlreadyExists, APIServer, NotFound
from ..controller import Controller
from ..objects import LabelSelector, ObjectMeta, PodPhase, PodSpec
from .replicaset import ReplicaSet

__all__ = ["Deployment", "DeploymentController"]


@dataclass
class Deployment:
    """Desired state: *replicas* pods from the current template revision."""

    metadata: ObjectMeta
    replicas: int = 1
    selector: LabelSelector = field(default_factory=LabelSelector)
    template: PodSpec = field(default_factory=PodSpec)
    template_labels: Dict[str, str] = field(default_factory=dict)
    #: bump to trigger a rolling update (stands in for template hashing).
    revision: int = 1

    kind = "Deployment"

    def clone(self) -> "Deployment":
        return Deployment(
            metadata=self.metadata.clone(),
            replicas=self.replicas,
            selector=LabelSelector(self.selector.match_labels),
            template=self.template.clone(),
            template_labels=dict(self.template_labels),
            revision=self.revision,
        )


class DeploymentController(Controller):
    """Reconciles Deployments into revisioned ReplicaSets."""

    kind = "Deployment"

    def __init__(self, env: Environment, api: APIServer) -> None:
        api.register_crd("Deployment")
        api.register_crd("ReplicaSet")
        super().__init__(env, api)

    def start(self) -> "DeploymentController":
        super().start()
        self.env.process(self._watch_replicasets(), name="deploy:rs-watch")
        return self

    def _watch_replicasets(self) -> Generator:
        from ..apiserver import translate_event

        stream = self.api.watch("ReplicaSet", replay=True)
        while True:
            raw = yield stream.get()
            _etype, rs = translate_event(raw)
            if rs is None:
                continue
            for owner in rs.metadata.owner_references:
                if owner.startswith("deployment:"):
                    self.queue.add(owner.split(":", 1)[1])

    # -- helpers --------------------------------------------------------------
    @staticmethod
    def _rs_name(deploy: Deployment, revision: int) -> str:
        return f"{deploy.metadata.name}-rev{revision}"

    def _owned_replicasets(self, deploy: Deployment) -> Dict[int, ReplicaSet]:
        owner = f"deployment:{deploy.metadata.key}"
        out: Dict[int, ReplicaSet] = {}
        for rs in self.api.list("ReplicaSet", deploy.metadata.namespace):
            if owner in rs.metadata.owner_references:
                revision = int(rs.metadata.annotations.get("revision", "0"))
                out[revision] = rs
        return out

    def _live_pods(self, rs: ReplicaSet) -> int:
        kinds = ["Pod"] + (["SharePod"] if "SharePod" in self.api.kinds else [])
        count = 0
        for kind in kinds:
            for p in self.api.list(kind, rs.metadata.namespace):
                if rs.metadata.key in p.metadata.owner_references and (
                    p.status.phase in (PodPhase.PENDING, PodPhase.RUNNING)
                ):
                    count += 1
        return count

    def _make_rs(self, deploy: Deployment, revision: int, replicas: int) -> ReplicaSet:
        labels = dict(deploy.template_labels)
        labels["revision"] = str(revision)
        rs = ReplicaSet(
            metadata=ObjectMeta(
                name=self._rs_name(deploy, revision),
                namespace=deploy.metadata.namespace,
                annotations={"revision": str(revision)},
            ),
            replicas=replicas,
            selector=LabelSelector(labels),
            template=deploy.template,
            template_labels=labels,
        )
        rs.metadata.owner_references = [f"deployment:{deploy.metadata.key}"]
        return rs

    # -- reconcile ----------------------------------------------------------------
    def reconcile(self, key: str) -> Generator:
        namespace, name = key.split("/", 1)
        deploy: Optional[Deployment] = self.api.get("Deployment", name, namespace)
        owned = None if deploy is None else self._owned_replicasets(deploy)

        if deploy is None:
            # Garbage-collect owned ReplicaSets.
            owner = f"deployment:{namespace}/{name}"
            for rs in self.api.list("ReplicaSet", namespace):
                if owner in rs.metadata.owner_references:
                    self.api.try_delete("ReplicaSet", rs.metadata.name, namespace)
            return

        current = owned.get(deploy.revision)
        if current is None:
            # New revision: start at 0 replicas; the rolling loop below
            # shifts capacity over from older revisions.
            start = deploy.replicas if not owned else 0
            rs = self._make_rs(deploy, deploy.revision, start)
            try:
                self.api.create(rs)
            except AlreadyExists:  # pragma: no cover - redundant event
                pass
            if owned:
                self.queue.add(key)
            return

        old_sets = {rev: rs for rev, rs in owned.items() if rev != deploy.revision}
        old_live = sum(self._live_pods(rs) for rs in old_sets.values())
        new_live = self._live_pods(current)

        if not old_sets:
            # Steady state: keep the current set sized to spec.
            if current.replicas != deploy.replicas:
                self._resize(current, deploy.replicas)
            return

        # Rolling update: step the new set up / old sets down one at a time.
        if current.replicas < deploy.replicas and new_live >= current.replicas:
            self._resize(current, current.replicas + 1)
        elif new_live > 0 and old_live > 0:
            # New replica is up: retire one old replica.
            rev, oldest = sorted(old_sets.items())[0]
            if oldest.replicas > 0:
                self._resize(oldest, oldest.replicas - 1)
            else:
                self.api.try_delete(
                    "ReplicaSet", oldest.metadata.name, oldest.metadata.namespace
                )
        elif old_live == 0:
            for rs in old_sets.values():
                self.api.try_delete(
                    "ReplicaSet", rs.metadata.name, rs.metadata.namespace
                )
        # Progress is event-driven, but replica state changes may race the
        # informer; nudge ourselves until convergence.
        if old_sets or current.replicas != deploy.replicas:
            yield self.env.timeout(0.25)
            self.queue.add(key)
        return

    def _resize(self, rs: ReplicaSet, replicas: int) -> None:
        def mutate(obj: ReplicaSet) -> None:
            obj.replicas = replicas

        try:
            self.api.patch("ReplicaSet", rs.metadata.name, mutate, rs.metadata.namespace)
        except NotFound:  # pragma: no cover - concurrent GC
            pass
