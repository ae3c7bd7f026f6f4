"""Run one workload *through* a scripted reconfiguration (simulator).

The elastic counterpart of :func:`repro.bench.harness.run_workload`: wires
a cluster whose members carry :class:`~repro.reconfig.manager.ReconfigManager`s,
pre-registers the joiners of the script (a process boots before it is
configured in), drives closed-loop load clients, and submits the script's
join / leave / reweight / reshard commands through an ordinary client
session — the commands travel the multicast total order like any other
message, which is the entire reconfiguration mechanism.

Returns an :class:`ElasticRunResult` extending the standard
:class:`~repro.bench.harness.RunResult` with the epoch chain, the joiner
processes (for pre-join read assertions) and epoch-aware verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.harness import RunResult, SimCluster
from ..client import AmcastClient, AmcastClientOptions, SubmitHandle
from ..config import BatchingOptions, ClusterConfig
from ..errors import ConfigError
from ..sim import CpuModel
from ..sim.faults import (
    FaultPlan,
    JoinSpec,
    LaneWeightSpec,
    LeaveSpec,
    ReconfigPlan,
    ReconfigSpec,
    ShardSpec,
)
from ..sim.network import DelayModel
from ..types import ProcessId
from ..workload import ClientOptions
from .checking import (
    ElasticGenuinenessMonitor,
    check_elastic,
    check_joiner_coverage,
    epoch_chain,
    reference_manager,
)
from .commands import (
    ConfigCommand,
    JoinCmd,
    LeaveCmd,
    SetLaneWeightsCmd,
    SetShardsCmd,
)
from .manager import ReconfigManager
from .member import JoiningMember


def command_of(config: ClusterConfig, spec: ReconfigSpec) -> ConfigCommand:
    """The wire command a script event denotes (allocating a join pid when
    the spec left it to us: one above every currently configured process)."""
    if isinstance(spec, JoinSpec):
        pid = spec.pid if spec.pid is not None else max(config.all_processes) + 1
        return JoinCmd(spec.gid, pid)
    if isinstance(spec, LeaveSpec):
        return LeaveCmd(spec.pid)
    if isinstance(spec, LaneWeightSpec):
        return SetLaneWeightsCmd(spec.weights)
    if isinstance(spec, ShardSpec):
        return SetShardsCmd(spec.shards)
    raise ConfigError(f"unknown reconfig spec {spec!r}")


def resolve_plan(
    config: ClusterConfig, plan: ReconfigPlan, first_free_pid: ProcessId
) -> List[Tuple[float, ConfigCommand]]:
    """Concrete (time, command) pairs with joiner pids allocated densely
    from ``first_free_pid``."""
    out: List[Tuple[float, ConfigCommand]] = []
    next_pid = first_free_pid
    for spec in plan.sorted_events():
        if isinstance(spec, JoinSpec) and spec.pid is None:
            out.append((spec.at, JoinCmd(spec.gid, next_pid)))
            next_pid += 1
        else:
            out.append((spec.at, command_of(config, spec)))
    return out


class ReconfigDriver(AmcastClient):
    """The operator console: submits scripted config commands to all groups."""

    def __init__(
        self,
        pid: ProcessId,
        config: ClusterConfig,
        runtime,
        protocol_cls,
        tracker,
        schedule: Sequence[Tuple[float, ConfigCommand]],
        retry_timeout: float,
    ) -> None:
        super().__init__(
            pid,
            config,
            runtime,
            protocol_cls,
            tracker,
            AmcastClientOptions(
                window=None,
                retry_timeout=retry_timeout,
                fence_epoch=True,
                retain_completed=None,
            ),
        )
        self.schedule = list(schedule)
        self.handles: List[SubmitHandle] = []

    def on_start(self) -> None:
        all_groups = frozenset(self.config.group_ids)
        for at, cmd in self.schedule:
            self.runtime.set_timer(
                at, lambda c=cmd, d=all_groups: self.handles.append(self.submit(d, c))
            )

    @property
    def done(self) -> bool:
        return len(self.handles) == len(self.schedule) and all(
            h.completed for h in self.handles
        )


@dataclass
class ElasticRunResult(RunResult):
    """A reconfigured run: everything RunResult has, plus the epoch view."""

    plan: Optional[ReconfigPlan] = None
    driver: Optional[ReconfigDriver] = None
    joiners: Dict[ProcessId, JoiningMember] = field(default_factory=dict)
    managers: Dict[ProcessId, ReconfigManager] = field(default_factory=dict)

    def epochs(self) -> List[ClusterConfig]:
        """The run's configuration chain, from the most complete manager
        (a leaver's log truncates at its own leave)."""
        return epoch_chain(
            self.config, reference_manager(self.managers, self.joiners)
        )

    def check_elastic(self, quiescent: bool = True) -> List:
        return check_elastic(self.history(), self.epochs(), quiescent=quiescent)

    def check(self, quiescent: bool = True) -> List:
        # The epoch-aware restatement replaces the fixed-membership checks.
        return self.check_elastic(quiescent=quiescent)

    def joiner_coverage_violations(self) -> List[str]:
        """Joiner read/delivery obligations, per join epoch (see
        :func:`repro.reconfig.checking.check_joiner_coverage`)."""
        violations: List[str] = []
        chain = self.epochs()
        for epoch_idx in range(1, len(chain)):
            config = chain[epoch_idx]
            prev = chain[epoch_idx - 1]
            fresh = set(config.all_members) - set(prev.all_members)
            for pid in fresh:
                joiner = self.joiners.get(pid)
                if joiner is None or joiner.reconfig is None:
                    violations.append(f"joiner {pid} never installed")
                    continue
                gid = config.group_of(pid)
                mate = next(
                    self.managers[p]
                    for p in config.members(gid)
                    if p in self.managers and p not in self.joiners
                )
                violations.extend(
                    check_joiner_coverage(joiner.reconfig, mate, config.epoch)
                )
        return violations


def run_elastic_workload(
    protocol_cls,
    config: ClusterConfig,
    plan: ReconfigPlan,
    messages_per_client: int = 8,
    dest_k: int = 2,
    network: Optional[DelayModel] = None,
    seed: int = 0,
    cpu: Optional[CpuModel] = None,
    protocol_options: Any = None,
    client_options: Optional[ClientOptions] = None,
    chooser_factory: Optional[Any] = None,
    fault_plan: Optional[FaultPlan] = None,
    monitors: Sequence[Any] = (),
    attach_genuineness: bool = False,
    attach_fd: bool = False,
    fd_options: Any = None,
    batching: Optional[BatchingOptions] = None,
    client_retry: float = 0.05,
    driver_retry: float = 0.05,
    drain_grace: float = 0.1,
    max_events: int = 50_000_000,
    max_time: float = 30.0,
    obs: Optional[Any] = None,
) -> ElasticRunResult:
    """Run closed-loop clients through the scripted reconfiguration.

    The workload sessions run epoch-fenced with retransmission (both are
    required for liveness across epoch flips: the fence is what teaches a
    session the new config, the retry is what re-drives fenced
    submissions).  ``max_time`` is a hard virtual-time stop so a wedged
    reconfiguration fails the run instead of hanging it.

    Scripts that overlap *crashes* with reconfiguration should pass
    ``attach_fd=True``: epoch handoffs only cover deal-driven leadership
    moves, so a lane whose crash-elected leader later leaves needs the
    failure detector to re-elect around the (dead) deal leader.
    """
    plan.validate(config)
    genuineness = ElasticGenuinenessMonitor(config) if attach_genuineness else None
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
    )
    sim, tracker, members = cluster.sim, cluster.tracker, cluster.members
    managers: Dict[int, ReconfigManager] = {
        pid: ReconfigManager.attach(proc, config) for pid, proc in members.items()
    }

    # Joiner pids first (densely above every configured process), then the
    # operator console's pid.
    first_free = max(config.all_processes) + 1
    schedule = resolve_plan(config, plan, first_free)
    joiner_cmds = [cmd for _, cmd in schedule if isinstance(cmd, JoinCmd)]
    driver_pid = max(
        [first_free - 1] + [cmd.pid for cmd in joiner_cmds]
    ) + 1

    joiners: Dict[int, JoiningMember] = {}
    for cmd in joiner_cmds:
        joiner = sim.add_process(
            cmd.pid,
            lambda rt, c=cmd: JoiningMember(
                c.pid, config, rt, c.gid, protocol_cls,
                options=cluster.protocol_options,
            ),
        )
        joiners[cmd.pid] = joiner
        members[cmd.pid] = joiner
        tracker.note_member(cmd.pid, cmd.gid)
        if genuineness is not None:
            genuineness.note_member(cmd.pid, cmd.gid)

    copts = client_options or ClientOptions(
        num_messages=messages_per_client, retry_timeout=client_retry
    )
    changes = {"fence_epoch": True}
    if copts.retry_timeout is None:
        # Retransmission is the liveness driver across epoch flips: a
        # fenced submission is only re-driven by its retry timer.
        changes["retry_timeout"] = client_retry
    clients = cluster.add_closed_loop_clients(
        ClientOptions(**{**copts.__dict__, **changes}), dest_k, chooser_factory
    )
    driver = sim.add_process(
        driver_pid,
        lambda rt: ReconfigDriver(
            driver_pid, config, rt, protocol_cls, tracker, schedule, driver_retry
        ),
    )
    cluster.arm(fault_plan)
    cluster.run(
        done=lambda: (
            all(c.done for c in clients)
            and driver.done
            and all(j.installed for j in joiners.values())
        ),
        drain_grace=drain_grace,
        max_events=max_events,
        max_time=max_time,
    )

    result = ElasticRunResult(
        clients=clients,
        completed=tracker.completed_count,
        expected=sum(c.options.num_messages for c in clients) + len(schedule),
        plan=plan,
        driver=driver,
        joiners=joiners,
        managers=managers,
        genuineness=genuineness,
        **cluster.result_fields(),
    )
    if genuineness is not None and managers:
        genuineness.note_epochs(
            epoch_chain(config, reference_manager(managers, joiners))
        )
    # Post-install the joiners' managers join the introspection map.
    for pid, joiner in joiners.items():
        if joiner.reconfig is not None:
            managers[pid] = joiner.reconfig
    return result
