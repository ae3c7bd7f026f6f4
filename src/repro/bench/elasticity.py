"""Elasticity benchmark: throughput dip and recovery across a live scale-out.

The reconfiguration subsystem's performance claim is not peak throughput —
it is that a membership change under live load costs a bounded, short dip
instead of a restart.  This benchmark measures exactly that: closed-loop
clients drive a sharded WbCast cluster at a saturating rate; mid-run the
script joins a member (scale-out) and optionally re-deals the ordering
lanes toward it; completed-multicast throughput is bucketed over virtual
time and the profile around each event is reported:

* **baseline** — mean bucket throughput before the first event;
* **dip** — the lowest bucket inside the post-event settling window,
  as a fraction of baseline;
* **recovery** — virtual time from the event to the first bucket back at
  ≥ ``RECOVERY_BAR`` of baseline (staying there for the next bucket too).

Run ``python -m repro bench-elasticity`` (results land on stdout; the
committed profile lives in ``results/elasticity.txt``).  ``--quick``
shrinks the run for CI smoke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import ClusterConfig
from ..sim import UniformCpu
from ..sim.faults import JoinSpec, LaneWeightSpec, ReconfigPlan
from ..workload import ClientOptions
from .driver import BenchSpec, option
from .sweep import DEFAULT_CPU_COST
from .topologies import LAN_ONE_WAY

#: A bucket counts recoveries once throughput holds at this baseline share.
RECOVERY_BAR = 0.95


@dataclass(frozen=True)
class ElasticityProfile:
    """The throughput profile of one reconfiguration event."""

    label: str
    at: float
    baseline: float  # msgs/s before the event
    dip_fraction: float  # lowest settling-window bucket / baseline
    recovery_time: Optional[float]  # seconds to regain RECOVERY_BAR


@dataclass(frozen=True)
class ElasticityResult:
    buckets: Tuple[Tuple[float, float], ...]  # (bucket start, msgs/s)
    bucket_width: float
    profiles: Tuple[ElasticityProfile, ...]
    completed: int
    expected: int
    checks_ok: bool


def _bucket_throughput(
    partial_times: Sequence[float], bucket: float, horizon: float
) -> List[Tuple[float, float]]:
    out = []
    t = 0.0
    while t < horizon:
        count = sum(1 for pt in partial_times if t <= pt < t + bucket)
        out.append((t, count / bucket))
        t += bucket
    return out


def profile_events(
    buckets: Sequence[Tuple[float, float]],
    events: Sequence[Tuple[str, float]],
    bucket: float,
    settle_window: float,
) -> List[ElasticityProfile]:
    profiles = []
    ordered = sorted(events, key=lambda e: e[1])
    for i, (label, at) in enumerate(ordered):
        # Baseline: steady buckets before this event, excluding any
        # earlier event's dip-and-settle window (otherwise the second
        # event's baseline is depressed by the first event's hole).
        floor_t = 0.0
        if i > 0:
            floor_t = ordered[i - 1][1] + settle_window
        before = [
            r for t, r in buckets if floor_t <= t and t + bucket <= at
        ]
        if not before:
            # Events closer together than the settle window: fall back to
            # everything before this event rather than an empty window.
            before = [r for t, r in buckets if t + bucket <= at]
        baseline = sum(before) / len(before) if before else 0.0
        window = [(t, r) for t, r in buckets if at <= t < at + settle_window]
        dip = (
            min(r for _, r in window) / baseline
            if window and baseline > 0
            else float("nan")
        )
        recovery: Optional[float] = None
        if baseline > 0 and window:
            # Scan for recovery from the dip bucket, not the event time:
            # the command's own delivery latency can lag the event by a
            # bucket or more, and scanning from `at` would report ~0 ms
            # off the still-at-baseline buckets before the dip.
            t_dip = min(window, key=lambda tr: tr[1])[0]
            after = [(t, r) for t, r in buckets if t >= t_dip]
            for i, (t, r) in enumerate(after):
                nxt = after[i + 1][1] if i + 1 < len(after) else r
                if r >= RECOVERY_BAR * baseline and nxt >= RECOVERY_BAR * baseline:
                    recovery = t - at
                    break
        profiles.append(ElasticityProfile(label, at, baseline, dip, recovery))
    return profiles


@dataclass(frozen=True)
class ElasticityParams:
    """One scale-out run; fields built with ``option`` are its flags."""

    num_groups: int = option(2, "--groups", type=int, default=2)
    group_size: int = option(3, "--group-size", type=int, default=3)
    shards: int = option(2, "--shards", type=int, default=2)
    num_clients: int = option(40, "--clients", type=int, default=40)
    messages_per_client: int = option(400, "--messages", type=int, default=400)
    join_at: float = option(0.15, "--join-at", type=float, default=0.15)
    #: Re-deal the lanes toward the joiner, at twice the join time.
    reweight: bool = option(
        True, "--no-reweight", action="store_true", convert=lambda v: not v
    )
    seed: int = option(42, "--seed", type=int, default=42)
    bucket: float = 0.025
    settle_window: float = 0.1


def run_elasticity(params: ElasticityParams, _cell=None) -> ElasticityResult:
    from ..protocols.wbcast import WbCastOptions, WbCastProcess
    from ..reconfig.harness import run_elastic_workload
    from ..sim.network import lan_topology

    join_at, bucket = params.join_at, params.bucket
    config = ClusterConfig.build(
        params.num_groups,
        params.group_size,
        params.num_clients,
        shards_per_group=params.shards,
    )
    joiner_pid = max(config.all_processes) + 1
    driver_pid = joiner_pid + 1  # the harness's operator-console session
    network = lan_topology(
        tuple(config.all_processes) + (joiner_pid, driver_pid),
        one_way=LAN_ONE_WAY,
    )
    events: List = [JoinSpec(join_at, 0, joiner_pid)]
    labels = [("join", join_at)]
    if params.reweight:
        # Re-deal lanes toward the joiner once it is in: the scale-out is
        # only real once the new member carries ordering work.
        weights = tuple((pid, 1) for pid in config.members(0)) + ((joiner_pid, 2),)
        events.append(LaneWeightSpec(2 * join_at, weights))
        labels.append(("reweight", 2 * join_at))
    plan = ReconfigPlan(events=events)
    res = run_elastic_workload(
        WbCastProcess,
        config,
        plan,
        messages_per_client=params.messages_per_client,
        dest_k=min(2, params.num_groups),
        network=network,
        seed=params.seed,
        cpu=UniformCpu(DEFAULT_CPU_COST, jitter=0.1),
        protocol_options=WbCastOptions(retry_interval=0.05),
        client_options=ClientOptions(
            num_messages=params.messages_per_client, window=4, retry_timeout=0.05
        ),
        max_time=60.0,
    )
    horizon = max(res.tracker.partial_time.values()) if res.tracker.partial_time else 0.0
    buckets = _bucket_throughput(
        list(res.tracker.partial_time.values()), bucket, horizon
    )
    profiles = profile_events(buckets, labels, bucket, params.settle_window)
    checks_ok = all(c.ok for c in res.check_elastic(quiescent=False))
    return ElasticityResult(
        buckets=tuple(buckets),
        bucket_width=bucket,
        profiles=tuple(profiles),
        completed=res.completed,
        expected=res.expected,
        checks_ok=checks_ok,
    )


def render(result: ElasticityResult) -> str:
    lines = [
        "Elasticity: live scale-out under closed-loop load (virtual time)",
        f"completed {result.completed}/{result.expected}; "
        f"properties {'OK' if result.checks_ok else 'VIOLATED'}",
        "",
        f"{'event':<10} {'at':>7} {'baseline':>12} {'dip':>7} {'recovery':>10}",
    ]
    for p in result.profiles:
        rec = f"{p.recovery_time * 1000:.1f} ms" if p.recovery_time is not None else "n/a"
        lines.append(
            f"{p.label:<10} {p.at:>6.2f}s {p.baseline:>9,.0f}/s "
            f"{p.dip_fraction:>6.0%} {rec:>10}"
        )
    lines.append("")
    lines.append(
        f"bucketed throughput ({result.bucket_width * 1000:.0f} ms buckets):"
    )
    for t, r in result.buckets:
        bar = "#" * int(r / 2000)
        lines.append(f"  {t:>6.2f}s {r:>9,.0f}/s {bar}")
    return "\n".join(lines)


def gates(_params, results: List[ElasticityResult], _extra) -> List[str]:
    # Any property violation or an incomplete (wedged) run fails the
    # invocation, so the CI smoke step actually gates on correctness.
    (result,) = results
    failures = []
    if not result.checks_ok:
        failures.append("epoch-aware property checks failed")
    if result.completed < result.expected:
        failures.append(f"run wedged at {result.completed}/{result.expected}")
    return failures


BENCH = BenchSpec(
    name="bench-elasticity",
    help="throughput dip/recovery across a live scale-out "
    "(join + lane re-deal under closed-loop load)",
    params=ElasticityParams,
    quick=dict(
        num_clients=16,
        messages_per_client=200,
        join_at=0.03,
        bucket=0.01,
        settle_window=0.04,
    ),
    flags=dict(quick="CI-sized run"),
    run_cell=run_elasticity,
    report=lambda _params, results: render(results[0]),
    gates=gates,
)
