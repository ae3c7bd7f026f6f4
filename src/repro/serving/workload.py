"""Serving-tier load generation: skewed multi-tenant read/write sessions.

This is the Benz-et-al. global-systems shape of load — many lightweight
closed-loop sessions against a partitioned KV front end — with the three
axes the serving benchmarks sweep:

* **read ratio** — fraction of ops that are reads (the rest are
  single-key puts);
* **skew** — Zipfian key popularity (0: uniform; 0.99: the classic
  hot-key YCSB setting), from a precomputed CDF so sampling is O(log n);
* **tenants** — sessions belong to named tenants carrying a DRR weight
  (PR 5's weighted ingress) and an admission cap: a tenant at its
  ``max_outstanding`` write budget queues further writes client-side
  instead of pushing them at the leaders.

:func:`run_serving_workload` wires it all into a simulator run and
returns a :class:`ServingRunResult` exposing the history, the serving
replicas, the read-path traffic split and the linearizability verdicts.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from ..bench.harness import SimCluster
from ..checking import History, check_all, serving_records
from ..checking.genuineness import GenuinenessMonitor
from ..checking.linearizability import check_linearizability
from ..client import AmcastClientOptions
from ..config import BatchingOptions, ClusterConfig
from ..sim import CpuModel, Simulator, Trace
from ..sim.faults import FaultPlan
from ..sim.network import DelayModel
from ..types import ProcessId
from ..workload import DeliveryTracker
from .messages import KvReadCommand
from .monitor import ReadPathMonitor
from .replica import ServingReplica, attach_kv_replicas
from .session import ServingSession

__all__ = [
    "ZipfianKeys",
    "TenantSpec",
    "TenantGate",
    "ServingLoadSession",
    "ServingRunResult",
    "run_serving_workload",
]


class ZipfianKeys:
    """A Zipf-skewed key chooser over a fixed key universe.

    ``skew`` is the Zipf exponent: 0 degenerates to uniform, ~0.99 is
    the classic YCSB hot-key distribution.  The CDF is precomputed once;
    a draw is one uniform sample plus a binary search.
    """

    def __init__(self, num_keys: int, skew: float = 0.0, prefix: str = "k") -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        self.skew = skew
        self.keys = [f"{prefix}{i:04d}" for i in range(num_keys)]
        if skew <= 0:
            self._cdf: Optional[List[float]] = None
        else:
            weights = [1.0 / (i + 1) ** skew for i in range(num_keys)]
            total = sum(weights)
            acc, cdf = 0.0, []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0
            self._cdf = cdf

    def choose(self, rng: random.Random) -> str:
        if self._cdf is None:
            return self.keys[rng.randrange(len(self.keys))]
        return self.keys[bisect_left(self._cdf, rng.random())]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's fairness contract.

    ``weight`` flows into the sessions' DRR ingress weight at the lane
    leaders (PR 5); ``max_outstanding`` is the admission cap — the most
    writes the tenant's sessions may have in flight cluster-wide
    (``None``: uncapped).  ``read_slo`` / ``write_slo`` are per-op
    latency targets in seconds (``None``: no target); completions above
    a target count as SLO breaches in the sessions' per-tenant stats and
    in the telemetry registry when observability is on.
    """

    name: str
    weight: int = 1
    max_outstanding: Optional[int] = None
    read_slo: Optional[float] = None
    write_slo: Optional[float] = None


class TenantGate:
    """Shared admission-control counters, one slot pool per tenant.

    Sessions ``try_acquire`` before launching a write; a refusal parks a
    continuation that is re-driven (FIFO per tenant) as completions
    ``release`` slots.
    """

    def __init__(self, specs: Sequence[TenantSpec]) -> None:
        self.specs = {s.name: s for s in specs}
        self._outstanding: Dict[str, int] = {s.name: 0 for s in specs}
        self._waiting: Dict[str, Deque[Callable[[], None]]] = {
            s.name: deque() for s in specs
        }
        #: High-water mark of concurrently outstanding writes per tenant —
        #: what the admission tests assert against.
        self.peak: Dict[str, int] = {s.name: 0 for s in specs}

    def try_acquire(self, tenant: str) -> bool:
        spec = self.specs.get(tenant)
        cap = spec.max_outstanding if spec is not None else None
        if cap is not None and self._outstanding[tenant] >= cap:
            return False
        self._outstanding[tenant] = out = self._outstanding.get(tenant, 0) + 1
        if out > self.peak.get(tenant, 0):
            self.peak[tenant] = out
        return True

    def wait(self, tenant: str, resume: Callable[[], None]) -> None:
        self._waiting[tenant].append(resume)

    def release(self, tenant: str) -> None:
        self._outstanding[tenant] -= 1
        waiting = self._waiting.get(tenant)
        if waiting:
            waiting.popleft()()

    def outstanding(self, tenant: str) -> int:
        return self._outstanding.get(tenant, 0)


class ServingLoadSession(ServingSession):
    """A closed-loop read/write session over the serving tier.

    Keeps ``window`` ops in flight; each op is a read with probability
    ``read_ratio`` (single Zipf-chosen key, answered through the serving
    read path) and a single-key put otherwise.  Writes pass the tenant
    admission gate before launching.
    """

    def __init__(
        self,
        pid: ProcessId,
        config: ClusterConfig,
        runtime,
        protocol_cls,
        tracker,
        chooser: ZipfianKeys,
        num_ops: int,
        read_ratio: float = 0.5,
        rng: Optional[random.Random] = None,
        options: Optional[AmcastClientOptions] = None,
        read_timeout: Optional[float] = None,
        prefer_local: bool = True,
        tenant: str = "default",
        gate: Optional[TenantGate] = None,
        window: int = 1,
        spec: Optional[TenantSpec] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        super().__init__(
            pid, config, runtime, protocol_cls, tracker, options,
            read_timeout=read_timeout, prefer_local=prefer_local,
        )
        self.chooser = chooser
        self.read_ratio = read_ratio
        self.rng = rng or random.Random(pid)
        self.tenant = tenant
        self.gate = gate
        self.window = max(1, window)
        self.spec = spec
        self.telemetry = telemetry
        self._remaining = num_ops
        self._inflight = 0
        self._value_seq = 0
        self.read_ops = 0
        self.write_ops = 0
        #: Always-on SLO breach tallies (asserted by tests without obs).
        self.read_slo_breaches = 0
        self.write_slo_breaches = 0

    def on_start(self) -> None:
        self._fill()

    @property
    def done(self) -> bool:
        return self._remaining == 0 and self._inflight == 0

    # -- op generation ------------------------------------------------------

    def _fill(self) -> None:
        while self._remaining > 0 and self._inflight < self.window:
            self._remaining -= 1
            self._inflight += 1
            if self.rng.random() < self.read_ratio:
                self.read_ops += 1
                self.read((self.chooser.choose(self.rng),))
            else:
                self.write_ops += 1
                self._launch_write()

    def _launch_write(self) -> None:
        if self.gate is not None and not self.gate.try_acquire(self.tenant):
            self.gate.wait(self.tenant, self._launch_write)
            return
        key = self.chooser.choose(self.rng)
        self._value_seq += 1
        handle = self.put(key, (self.pid, self._value_seq))
        if self.gate is not None:
            handle.on_complete(lambda _h: self.gate.release(self.tenant))

    # -- completion hooks ---------------------------------------------------

    def _record_latency(self, op: str, latency: float, slo) -> None:
        breach = slo is not None and latency > slo
        if breach:
            if op == "read":
                self.read_slo_breaches += 1
            else:
                self.write_slo_breaches += 1
        tel = self.telemetry
        if tel is not None:
            tel.registry.histogram(
                f"tenant_{op}_latency_seconds", tenant=self.tenant
            ).observe(latency)
            if breach:
                tel.registry.counter(
                    "tenant_slo_breaches_total", tenant=self.tenant, op=op
                ).inc()

    def _after_completion(self, mid, t) -> None:
        handle = self.handle_of(mid)
        if handle is not None and isinstance(handle.payload, KvReadCommand):
            return  # a fallback read's command landing: its reply refills
        if handle is not None:
            start = (
                handle.launched_at
                if handle.launched_at is not None
                else handle.submitted_at
            )
            self._record_latency(
                "write", t - start,
                self.spec.write_slo if self.spec is not None else None,
            )
        self._inflight -= 1
        self._fill()

    def _after_read(self, handle) -> None:
        self._record_latency(
            "read", handle.completed_at - handle.invoked_at,
            self.spec.read_slo if self.spec is not None else None,
        )
        self._inflight -= 1
        self._fill()


@dataclass
class ServingRunResult:
    """Everything observable about one finished serving run."""

    config: ClusterConfig
    sim: Simulator
    trace: Trace
    tracker: DeliveryTracker
    sessions: List[ServingLoadSession]
    members: Dict[int, Any]
    replicas: Dict[int, ServingReplica]
    monitor: ReadPathMonitor
    gate: Optional[TenantGate]
    duration: float
    genuineness: Optional[GenuinenessMonitor] = None
    #: repro.obs.Telemetry of the run, or None when observability is off.
    telemetry: Optional[Any] = None

    def history(self) -> History:
        return History.from_trace(self.config, self.trace)

    def check(self, quiescent: bool = True) -> List:
        return check_all(self.history(), quiescent=quiescent)

    def check_serving(self) -> List:
        reads, writes = serving_records(self.sessions)
        return check_linearizability(self.history(), reads, writes)

    # -- metrics ------------------------------------------------------------

    @property
    def reads_completed(self) -> int:
        return sum(1 for s in self.sessions for r in s.reads if r.done)

    @property
    def reads_local(self) -> int:
        return sum(
            1 for s in self.sessions for r in s.reads if r.done and r.path == "local"
        )

    @property
    def reads_fallback(self) -> int:
        return sum(
            1 for s in self.sessions for r in s.reads if r.done and r.path == "submit"
        )

    @property
    def writes_completed(self) -> int:
        return sum(s.write_ops for s in self.sessions)

    @property
    def ops_completed(self) -> int:
        return self.reads_completed + self.writes_completed

    def throughput(self) -> float:
        """Completed ops per second of virtual time."""
        if self.duration <= 0:
            return 0.0
        return self.ops_completed / self.duration

    def read_latencies(self) -> List[float]:
        return sorted(
            r.completed_at - r.invoked_at
            for s in self.sessions
            for r in s.reads
            if r.done
        )


def run_serving_workload(
    protocol_cls,
    num_groups: int = 2,
    group_size: int = 3,
    num_sessions: int = 4,
    ops_per_session: int = 50,
    read_ratio: float = 0.9,
    skew: float = 0.0,
    num_keys: int = 64,
    tenants: Sequence[TenantSpec] = (),
    window: int = 1,
    prefer_local: bool = True,
    read_timeout: Optional[float] = 0.02,
    hold_stale: Optional[float] = None,
    retry_timeout: Optional[float] = None,
    protocol_options: Any = None,
    network: Optional[DelayModel] = None,
    cpu: Optional[CpuModel] = None,
    seed: int = 0,
    config: Optional[ClusterConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    monitors: Sequence[Any] = (),
    attach_fd: bool = False,
    fd_options: Any = None,
    attach_genuineness: bool = False,
    record_sends: bool = False,
    drain_grace: float = 0.05,
    max_events: int = 50_000_000,
    max_time: Optional[float] = None,
    batching: Optional[BatchingOptions] = None,
    obs: Optional[Any] = None,
) -> ServingRunResult:
    """Run a serving-tier workload in the simulator.

    :func:`repro.bench.harness.run_workload`'s cluster with serving
    replicas attached to every member and :class:`ServingLoadSession`
    clients instead of plain closed-loop submitters.
    """
    if config is None:
        config = ClusterConfig.build(num_groups, group_size, num_sessions)
    monitor = ReadPathMonitor()
    genuineness = GenuinenessMonitor(config) if attach_genuineness else None
    cluster = SimCluster(
        protocol_cls,
        config,
        network=network,
        seed=seed,
        cpu=cpu,
        protocol_options=protocol_options,
        batching=batching,
        obs=obs,
        monitors=[monitor, genuineness, *monitors],
        attach_fd=attach_fd,
        fd_options=fd_options,
        record_sends=record_sends,
    )
    sim, tracker = cluster.sim, cluster.tracker
    replicas = attach_kv_replicas(
        cluster.members, config.num_groups, hold_stale=hold_stale
    )

    specs = list(tenants) or [TenantSpec("default")]
    gate = TenantGate(specs) if tenants else None
    chooser = ZipfianKeys(num_keys, skew)

    def build_session(i, pid, rt):
        spec = specs[i % len(specs)]
        return ServingLoadSession(
            pid, config, rt, protocol_cls, tracker, chooser,
            num_ops=ops_per_session,
            read_ratio=read_ratio,
            rng=random.Random(seed * 10_007 + pid),
            options=AmcastClientOptions(
                window=None,
                retry_timeout=retry_timeout,
                retain_completed=None,  # the linearizability checker reads them all
                weight=spec.weight,
            ),
            read_timeout=read_timeout,
            prefer_local=prefer_local,
            tenant=spec.name,
            gate=gate,
            window=window,
            spec=spec,
            telemetry=cluster.telemetry,
        )

    sessions: List[ServingLoadSession] = cluster.add_clients(build_session)
    cluster.arm(fault_plan)
    if fault_plan is not None:
        # Excuse crashed members from full-replication write acks (they
        # can never deliver again — and never answer a read either).
        for crash in fault_plan.crashes:
            sim.schedule_at(crash.at, lambda p=crash.pid: tracker.note_crashed(p))
    cluster.run(
        done=lambda: all(s.done for s in sessions),
        drain_grace=drain_grace,
        max_events=max_events,
        max_time=max_time,
    )
    return ServingRunResult(
        sessions=sessions,
        replicas=replicas,
        monitor=monitor,
        gate=gate,
        genuineness=genuineness,
        **cluster.result_fields(),
    )
