"""Simulated GPU device: memory ledger + fluid-shared compute engine.

A :class:`GPUDevice` executes *kernel work* (measured in seconds of
full-device compute) on behalf of :class:`ComputeSession` objects. At any
instant every session has a *rate* — the fraction of the device it
progresses at — recomputed by :func:`~repro.gpu.sharing.elastic_shares`
whenever the set of demanding sessions changes. A session running alone at
``cap=1`` progresses at rate 1.0 (one second of work per simulated second).

Isolation styles map onto this engine naturally:

* **exclusive** (native Kubernetes): one session per device → rate 1.
* **token mode** (KubeShare's device library at full fidelity): only the
  token holder launches kernels at a time, so the engine sees a single
  demanding session and grants it the whole device — throttling emerges
  from the blocking in the frontend, exactly as with the real library.
* **fluid mode** (KubeShare at cluster scale): sessions carry
  (request, limit) and the engine applies the elastic-share steady state
  directly.
* **unisolated sharing** (Deepomatic-style baselines): sessions carry
  request=0, limit=1 and additionally suffer a contention penalty per
  concurrent peer, modelling interference that no throttling mitigates.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..sim import Environment, Event
from .sharing import ShareEntry, elastic_shares, elastic_shares_py

__all__ = [
    "GPUDevice",
    "ComputeSession",
    "GpuOutOfMemory",
    "DeviceLostError",
    "V100_MEMORY",
]

#: Device memory of the paper's Tesla V100s (16 GB).
V100_MEMORY = 16 * 2**30


class GpuOutOfMemory(Exception):
    """Physical device memory exhausted (or library quota exceeded)."""


class DeviceLostError(Exception):
    """The physical GPU failed (e.g. an uncorrectable ECC error).

    Raised by in-flight CUDA work on the dead device and by any later
    attempt to allocate memory or open a session on it — the simulated
    analogue of ``CUDA_ERROR_ECC_UNCORRECTABLE`` / device-lost."""


class ComputeSession:
    """One container's compute context on a device."""

    def __init__(
        self,
        device: "GPUDevice",
        name: str,
        request: float = 0.0,
        limit: float = 1.0,
        isolated: bool = True,
    ) -> None:
        if not 0.0 <= request <= 1.0:
            raise ValueError(f"request must be in [0,1], got {request}")
        if not 0.0 < limit <= 1.0:
            raise ValueError(f"limit must be in (0,1], got {limit}")
        self.device = device
        self.name = name
        self.request = request
        self.limit = limit
        #: isolated sessions (KubeShare's library serializes kernel
        #: launches) never suffer concurrency contention; unisolated ones
        #: (no compute throttling) do when the device is over-committed.
        self.isolated = isolated
        #: instantaneous demand in [0,1]; 0 when no kernels are pending.
        self.demand = 0.0
        #: current granted rate (engine-computed).
        self.rate = 0.0
        #: integral of granted rate over time (for usage accounting).
        self.granted_integral = 0.0
        self._last_update = device.env.now
        self.closed = False

    # -- engine bookkeeping -------------------------------------------------
    def _accumulate(self, now: float) -> None:
        self.granted_integral += self.rate * (now - self._last_update)
        self._last_update = now

    def granted_time(self) -> float:
        """Total granted compute (seconds of full device) up to now."""
        return self.granted_integral + self.rate * (
            self.device.env.now - self._last_update
        )

    # -- work execution -----------------------------------------------------------
    def run(self, work: float, demand: Optional[float] = None) -> Generator:
        """Process: execute *work* seconds of full-device compute.

        *demand* caps the session's instantaneous appetite (an inference
        job serving a 30% request load has demand 0.3 even when alone);
        default is 1.0 (saturating, like training).
        """
        if self.closed:
            raise RuntimeError(f"session {self.name} is closed")
        if work < 0:
            raise ValueError("work must be >= 0")
        env = self.device.env
        appetite = 1.0 if demand is None else float(demand)
        remaining = float(work)
        self.demand = appetite
        self.device._recompute()
        try:
            while remaining > 1e-12:
                if self.device.failed:
                    raise DeviceLostError(
                        f"GPU {self.device.uuid} lost while running "
                        f"{self.name}: {self.device.fail_reason}"
                    )
                rate = self.rate
                if rate <= 1e-12:
                    yield self.device.change_event()
                    continue
                started = env.now
                finish = env.timeout(remaining / rate)
                change = self.device.change_event()
                # Race finish against change without a Condition event.
                # The owning process subscribes to the shared change
                # event directly and yields the finish timer, so
                # whichever fires first resumes it during its own
                # dispatch — one event pop per slice instead of two (the
                # Condition's succeed/schedule/pop round trip). The
                # finally detaches from change even when the process is
                # killed or interrupted mid-slice (chaos teardown), so a
                # later allocation change can never resume a corpse.
                resume = env.active_process._resume
                change.callbacks.append(resume)
                try:
                    yield finish
                finally:
                    callbacks = change.callbacks
                    if callbacks is not None:
                        try:
                            callbacks.remove(resume)
                        except ValueError:
                            pass
                remaining -= (env.now - started) * rate
                if finish.callbacks is not None:
                    # A rate change won the race: the stale finish timer
                    # would otherwise sit in the heap until its original
                    # expiry. Tombstone it so re-slicing costs one live
                    # event per rate change, not one per abandoned slice
                    # (the drain discards its callbacks unrun, which also
                    # unsubscribes this process).
                    finish.cancel()
        finally:
            self.demand = 0.0
            self.device._recompute()

    def set_params(self, request: Optional[float] = None, limit: Optional[float] = None) -> None:
        """Adjust request/limit on the fly (vGPU spec updates)."""
        if request is not None:
            self.request = request
        if limit is not None:
            self.limit = limit
        self.device._recompute()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.demand = 0.0
            self.device._close_session(self)


class GPUDevice:
    """A physical GPU: identity, memory, and the shared compute engine."""

    def __init__(
        self,
        env: Environment,
        uuid: str,
        node_name: str,
        memory: int = V100_MEMORY,
        contention_per_peer: float = 0.05,
    ) -> None:
        self.env = env
        self.uuid = uuid
        self.node_name = node_name
        self.memory = int(memory)
        #: throughput lost per extra concurrently-demanding session when
        #: sharing is *unisolated* (limited memory bandwidth, §1).
        self.contention_per_peer = contention_per_peer
        #: the device threw an uncorrectable error and is unusable.
        self.failed = False
        self.fail_reason: Optional[str] = None
        #: failed state at the last _recompute (forces a waiter wake-up on
        #: every fail/recover transition even if no rate changed).
        self._last_failed = False
        self._mem_by_owner: Dict[str, int] = {}
        self._sessions: List[ComputeSession] = []
        self._change: Event = env.event()
        #: integral of total granted rate over time (NVML utilization).
        self.busy_integral = 0.0
        self._busy_rate = 0.0
        self._busy_last = env.now

    # -- memory ledger -------------------------------------------------------
    @property
    def memory_used(self) -> int:
        return sum(self._mem_by_owner.values())

    @property
    def memory_free(self) -> int:
        return self.memory - self.memory_used

    def alloc_memory(self, owner: str, nbytes: int) -> None:
        if self.failed:
            raise DeviceLostError(f"GPU {self.uuid} failed: {self.fail_reason}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes > self.memory_free:
            raise GpuOutOfMemory(
                f"GPU {self.uuid}: cannot allocate {nbytes} bytes "
                f"({self.memory_free} free of {self.memory})"
            )
        self._mem_by_owner[owner] = self._mem_by_owner.get(owner, 0) + nbytes

    def free_memory(self, owner: str, nbytes: Optional[int] = None) -> None:
        held = self._mem_by_owner.get(owner, 0)
        if nbytes is None:
            nbytes = held
        if nbytes > held + 0:
            raise ValueError(f"{owner} frees {nbytes} but holds {held}")
        remaining = held - nbytes
        if remaining:
            self._mem_by_owner[owner] = remaining
        else:
            self._mem_by_owner.pop(owner, None)

    def memory_of(self, owner: str) -> int:
        return self._mem_by_owner.get(owner, 0)

    # -- compute engine ----------------------------------------------------------
    def open_session(
        self,
        name: str,
        request: float = 0.0,
        limit: float = 1.0,
        isolated: bool = True,
    ) -> ComputeSession:
        if self.failed:
            raise DeviceLostError(f"GPU {self.uuid} failed: {self.fail_reason}")
        session = ComputeSession(
            self, name, request=request, limit=limit, isolated=isolated
        )
        self._sessions.append(session)
        self._recompute()
        return session

    def _close_session(self, session: ComputeSession) -> None:
        try:
            self._sessions.remove(session)
        except ValueError:  # pragma: no cover - double close
            pass
        self._recompute()

    @property
    def sessions(self) -> List[ComputeSession]:
        return list(self._sessions)

    def change_event(self) -> Event:
        """Event fired on the next allocation change (one-shot, shared)."""
        return self._change

    # -- failure & recovery -----------------------------------------------------
    def fail(self, reason: str = "uncorrectable ECC error") -> None:
        """Mark the device dead and wake every in-flight session.

        Woken sessions observe ``failed`` and raise
        :class:`DeviceLostError` into their callers."""
        if self.failed:
            return
        self.failed = True
        self.fail_reason = reason
        self._recompute()

    def recover(self) -> None:
        """Bring a failed device back (post-repair); state is wiped."""
        if not self.failed:
            return
        self.failed = False
        self.fail_reason = None
        self._mem_by_owner.clear()
        self._recompute()

    def reset(self) -> None:
        """Power-cycle: wipe the memory ledger (node reboot; any sessions
        must already be closed by their owners' teardown)."""
        self._mem_by_owner.clear()
        self._recompute()

    def _recompute(self) -> None:  # hot-path
        """Re-solve the elastic shares after any membership/demand change."""
        now = self.env.now
        self.busy_integral += self._busy_rate * (now - self._busy_last)
        self._busy_last = now

        demanding = (
            [] if self.failed else [s for s in self._sessions if s.demand > 0.0]
        )
        n = len(demanding)

        if n < 2:
            # Token mode serializes launches, so the engine almost always
            # sees 0 or 1 demanding sessions — and then the full solve
            # collapses: a lone session gets min(limit, demand) exactly
            # (one ShareEntry's cap never exceeds capacity, so the solver
            # returns the cap array unchanged and the n>1 contention term
            # is 1.0), everyone else gets 0. Skipping the numpy round
            # trip performs no arithmetic the full solve would, so the
            # rates are bit-identical.
            winner = demanding[0] if demanding else None
            changed = self.failed is not self._last_failed
            self._last_failed = self.failed
            busy_rate = 0.0
            for s in self._sessions:
                rate = min(s.limit, s.demand) if s is winner else 0.0
                old = s.rate
                if old:
                    # granted_integral only grows while the rate is
                    # non-zero; idle sessions keep a stale _last_update
                    # (their pending integral term is 0.0 either way)...
                    s._accumulate(now)
                elif rate:
                    # ...which must be stamped when the rate leaves 0,
                    # or the idle stretch would bill at the new rate.
                    s._last_update = now
                if rate != old:
                    changed = True
                    s.rate = rate
                busy_rate += rate
            self._busy_rate = busy_rate
            if changed:
                old_ev = self._change
                # Fire only when a waiter subscribed: the change event's
                # consumers (ComputeSession.run) always attach a callback
                # in the same kernel step they fetch it, so an empty
                # callback list means nobody can observe this edge and
                # firing would be two events of pure queue traffic. The
                # armed event stays in place for future waiters, who then
                # see the *next* change.
                if old_ev.callbacks:
                    self._change = self.env.event()
                    old_ev.succeed()
            return
        # Contention penalizes *unisolated* concurrent sharing of an
        # over-committed device (limited memory bandwidth, §1). Sessions
        # throttled by KubeShare's library serialize kernel launches and
        # are immune.
        contended_eff = 1.0
        if n > 1:
            total_appetite = sum(min(s.limit, s.demand) for s in demanding)
            if total_appetite > 1.0 + 1e-9:
                contended_eff = 1.0 / (1.0 + self.contention_per_peer * (n - 1))

        entries = [
            ShareEntry(request=s.request, cap=min(s.limit, s.demand))
            for s in demanding
        ]
        if not entries:
            alloc = []
        elif n < 8:
            # Bit-identical pure-Python mirror; numpy's fixed dispatch
            # overhead dominates the solve at these sizes.
            alloc = elastic_shares_py(entries, capacity=1.0)
        else:
            alloc = elastic_shares(entries, capacity=1.0)

        new_rates = {}
        for s, a in zip(demanding, alloc):
            new_rates[id(s)] = float(a) * (1.0 if s.isolated else contended_eff)

        changed = self.failed is not self._last_failed
        self._last_failed = self.failed
        busy_rate = 0.0
        for s in self._sessions:
            s._accumulate(now)
            rate = new_rates.get(id(s), 0.0)
            if rate != s.rate:
                changed = True
            s.rate = rate
            busy_rate += rate
        self._busy_rate = busy_rate

        # Wake every waiter exactly once — and only when some session's
        # rate actually changed (or the device's failed flag flipped). An
        # unchanged allocation means every woken session would recompute
        # the *same* absolute finish time and go back to sleep; skipping
        # the wake coalesces those redundant re-slices. The failed-flag
        # term matters because a session can legitimately hold rate 0 on
        # a saturated device and must still observe the loss.
        if changed:
            old = self._change
            if old.callbacks:  # see the n<2 fast path above
                self._change = self.env.event()
                old.succeed()

    # -- utilization accounting -----------------------------------------------------
    def busy_time(self) -> float:
        """Total busy integral up to now (seconds of full-device compute)."""
        return self.busy_integral + self._busy_rate * (self.env.now - self._busy_last)

    def utilization_since(self, t0: float, busy_at_t0: float) -> float:
        """Average utilization between a recorded (t0, busy) sample and now."""
        dt = self.env.now - t0
        if dt <= 0:
            return 0.0
        return (self.busy_time() - busy_at_t0) / dt

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GPUDevice {self.uuid} on {self.node_name}>"
