"""Build and run one complete workload configuration.

:class:`SimCluster` is the one place a simulated cluster is stood up:
simulator, trace, delivery tracker, telemetry, protocol members, failure
detectors, monitors and fault plan, plus the one ``run until done, then
drain`` loop.  :func:`run_workload` — the entry point used by the test
suite, the example scripts and every benchmark — composes it with
closed-loop clients and returns a :class:`RunResult` exposing the
history, checker verdicts and metrics; the reconfiguration and serving
harnesses compose the same builder with what is theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..checking import History, check_all
from ..checking.genuineness import GenuinenessMonitor
from ..config import BatchingOptions, ClusterConfig
from ..errors import SimulationError
from ..failure.detector import attach_monitor
from ..obs import Telemetry, collect_process_stats
from ..sim import ConstantDelay, CpuModel, Simulator, Trace
from ..sim.faults import FaultPlan
from ..sim.network import DelayModel
from ..workload import (
    ClientOptions,
    ClosedLoopClient,
    DeliveryTracker,
    DestinationChooser,
    RandomKGroups,
)


def apply_batching(protocol_cls, protocol_options: Any, batching: BatchingOptions) -> Any:
    """Fold a ``batching`` knob into the protocol options, where supported.

    Protocols that don't understand batching (Skeen, the sequencer)
    silently ignore the knob, so sweeps can pass one ``batching`` value
    across a heterogeneous protocol grid.  Supporting protocols declare
    ``SUPPORTS_BATCHING`` plus their options dataclass as ``OPTIONS_CLS``
    (WbCast, FtSkeen and FastCast today).  Public: the CLI's net runtime
    folds options through it too.
    """
    if protocol_options is not None and hasattr(protocol_options, "batching"):
        return replace(protocol_options, batching=batching)
    if protocol_options is None and getattr(protocol_cls, "SUPPORTS_BATCHING", False):
        # AttributeError here means a protocol declared SUPPORTS_BATCHING
        # without naming its options dataclass — fail loudly, don't guess.
        return protocol_cls.OPTIONS_CLS(batching=batching)
    return protocol_options


class SimCluster:
    """One simulated cluster, wired and ready for its load generators.

    Construction registers every member of ``config`` (telemetry and
    failure detectors attached as asked); the caller then adds whatever
    drives the run (:meth:`add_clients`, or ``sim.add_process`` for
    one-off processes), calls :meth:`arm`, and :meth:`run`.  ``monitors``
    (``None`` entries skipped) are attached to the trace in the order
    given, after the span monitor and the delivery tracker.
    """

    def __init__(
        self,
        protocol_cls,
        config: ClusterConfig,
        network: Optional[DelayModel] = None,
        seed: int = 0,
        cpu: Optional[CpuModel] = None,
        protocol_options: Any = None,
        batching: Optional[BatchingOptions] = None,
        obs: Optional[Any] = None,
        monitors: Sequence[Any] = (),
        attach_fd: bool = False,
        fd_options: Any = None,
        record_sends: bool = True,
    ) -> None:
        if batching is not None:
            protocol_options = apply_batching(protocol_cls, protocol_options, batching)
        self.protocol_cls = protocol_cls
        self.config = config
        self.protocol_options = protocol_options
        self.trace = trace = Trace(record_sends=record_sends)
        self.sim = sim = Simulator(
            network if network is not None else ConstantDelay(0.001),
            seed=seed, trace=trace, cpu=cpu,
        )
        self.telemetry = telemetry = Telemetry.create(
            obs if obs is not None else config.obs,
            now=lambda: sim.now, time_source=sim,
        )
        if telemetry is not None:
            span_monitor = telemetry.trace_monitor()
            if span_monitor is not None:
                trace.attach(span_monitor)
        self.tracker = DeliveryTracker(config, sim=sim)
        trace.attach(self.tracker)
        self.monitors = [m for m in monitors if m is not None]
        for monitor in self.monitors:
            trace.attach(monitor)
        self.members: Dict[int, Any] = {}
        for pid in config.all_members:
            proc = sim.add_process(
                pid,
                lambda rt, p=pid: protocol_cls(p, config, rt, options=protocol_options),
            )
            self.members[pid] = proc
            if telemetry is not None:
                proc.attach_obs(telemetry)
            if attach_fd:
                attach_monitor(proc, fd_options)
        self.end_of_load = 0.0

    def add_clients(self, factory: Callable[[int, int, Any], Any]) -> List[Any]:
        """One process per ``config.clients`` pid; ``factory(index, pid,
        runtime)`` builds it."""
        return [
            self.sim.add_process(pid, lambda rt, i=i, p=pid: factory(i, p, rt))
            for i, pid in enumerate(self.config.clients)
        ]

    def add_closed_loop_clients(
        self,
        options: ClientOptions,
        dest_k: int,
        chooser_factory: Optional[Callable[[ClusterConfig, int], DestinationChooser]],
    ) -> List[ClosedLoopClient]:
        config = self.config

        def build(i, pid, rt):
            chooser = (
                chooser_factory(config, i)
                if chooser_factory is not None
                else RandomKGroups(config, dest_k)
            )
            return ClosedLoopClient(
                pid, config, rt, self.protocol_cls, self.tracker, chooser, options
            )

        return self.add_clients(build)

    def arm(self, fault_plan: Optional[FaultPlan] = None) -> None:
        """Last step before running: hand the registered members to the
        monitors that introspect them, and schedule the fault plan."""
        for monitor in self.monitors:
            binder = getattr(monitor, "bind_processes", None)
            if callable(binder):
                binder(self.members)
        if fault_plan is not None:
            fault_plan.validate(self.config)
            fault_plan.apply(self.sim)

    def run(
        self,
        expected: int = 0,
        done: Optional[Callable[[], bool]] = None,
        drain_grace: float = 0.05,
        max_events: int = 50_000_000,
        max_time: Optional[float] = None,
    ) -> float:
        """Step until the tracker counts ``expected`` completed multicasts
        — or, for loads whose completion is not a delivery count, until
        ``done()`` — then drain ``drain_grace`` more virtual seconds so
        followers catch up.  Returns the end-of-load time.

        Stops early when the queue drains (lost messages, no retry) or
        virtual time passes ``max_time``; raises past ``max_events``.
        """
        sim, tracker = self.sim, self.tracker
        steps = 0
        # The count compare stays inline: this loop runs once per event.
        while (tracker.completed_count < expected) if done is None else not done():
            if not sim.step():
                break
            steps += 1
            if steps > max_events:
                raise SimulationError(f"run exceeded {max_events} events before completing")
            if max_time is not None and sim.now > max_time:
                break
        self.end_of_load = sim.now
        if drain_grace > 0:
            sim.run(until=sim.now + drain_grace)
        if self.telemetry is not None:
            collect_process_stats(self.telemetry, self.members)
        return self.end_of_load

    def result_fields(self) -> Dict[str, Any]:
        """The fields every harness's result type shares."""
        return dict(
            config=self.config,
            sim=self.sim,
            trace=self.trace,
            tracker=self.tracker,
            members=self.members,
            duration=self.end_of_load,
            telemetry=self.telemetry,
        )


@dataclass
class RunResult:
    """Everything observable about one finished run."""

    config: ClusterConfig
    sim: Simulator
    trace: Trace
    tracker: DeliveryTracker
    clients: List[ClosedLoopClient]
    members: Dict[int, Any]
    duration: float
    completed: int
    expected: int
    #: repro.obs.Telemetry of the run, or None when observability is off.
    telemetry: Optional[Any] = None
    #: The genuineness monitor, when the run attached one.
    genuineness: Optional[Any] = None

    def history(self) -> History:
        return History.from_trace(self.config, self.trace)

    def check(self, quiescent: bool = True) -> List:
        return check_all(self.history(), quiescent=quiescent)

    def latencies(self) -> List[float]:
        return sorted(self.tracker.latencies().values())

    def completed_handles(self) -> List[Any]:
        """Every completed :class:`~repro.client.SubmitHandle` still
        retained by the sessions (all of them, at bench retention)."""
        handles = []
        for client in self.clients:
            for mid, _ in client.completed:
                h = client.handle_of(mid)
                if h is not None:
                    handles.append(h)
        return handles

    def latency_split(self):
        """End-to-end latency split at the SUBMIT_ACK boundary (see
        :func:`repro.bench.metrics.split_latencies`)."""
        from .metrics import split_latencies

        return split_latencies(self.completed_handles())

    def throughput(self) -> float:
        """Completed multicasts per second of virtual time."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def all_done(self) -> bool:
        return self.completed >= self.expected


def run_workload(
    protocol_cls,
    num_groups: int = 2,
    group_size: int = 3,
    num_clients: int = 2,
    messages_per_client: int = 5,
    dest_k: int = 2,
    network: Optional[DelayModel] = None,
    seed: int = 0,
    cpu: Optional[CpuModel] = None,
    protocol_options: Any = None,
    client_options: Optional[ClientOptions] = None,
    chooser_factory: Optional[Callable[[ClusterConfig, int], DestinationChooser]] = None,
    fault_plan: Optional[FaultPlan] = None,
    monitors: Sequence[Any] = (),
    attach_genuineness: bool = False,
    attach_fd: bool = False,
    fd_options: Any = None,
    record_sends: bool = True,
    drain_grace: float = 0.05,
    max_events: int = 50_000_000,
    max_time: Optional[float] = None,
    config: Optional[ClusterConfig] = None,
    batching: Optional[BatchingOptions] = None,
    obs: Optional[Any] = None,
) -> RunResult:
    """Run ``num_clients`` closed-loop clients against ``protocol_cls``.

    Returns once every client finished all its messages (or ``max_time`` /
    ``max_events`` was hit), after an extra ``drain_grace`` of virtual time
    so in-flight DELIVERs reach followers and the run is quiescent.

    ``batching`` folds leader-side batching knobs into the protocol options
    for protocols that support them (ignored by the rest).
    """
    if config is None:
        config = ClusterConfig.build(num_groups, group_size, num_clients)
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
        monitors=[genuineness, *monitors],
        attach_fd=attach_fd,
        fd_options=fd_options,
        record_sends=record_sends,
    )
    clients = cluster.add_closed_loop_clients(
        client_options or ClientOptions(num_messages=messages_per_client),
        dest_k,
        chooser_factory,
    )
    cluster.arm(fault_plan)
    expected = sum(c.options.num_messages for c in clients)
    cluster.run(
        expected, drain_grace=drain_grace, max_events=max_events, max_time=max_time
    )
    return RunResult(
        clients=clients,
        completed=cluster.tracker.completed_count,
        expected=expected,
        genuineness=genuineness,
        **cluster.result_fields(),
    )
