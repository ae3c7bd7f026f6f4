"""The five workloads and how one run of each is measured.

A *run* is one workload, one seed, one ``--seconds`` budget, tracing off
or on — what ``run.py --workload`` executes and what the benchmark
driver calls.  Inside a run every repeat gets a fresh cluster (a reused
one slows down as its history grows; see README, open questions), and
every value reported is the median over the run's repeats.

``tcp_*`` run the asyncio TCP runtime on loopback with zero injected
delay, so their latency is processor time.  ``sim_*`` run the
discrete-event simulator on the paper's WAN delays with no CPU model, so
their latency is *modelled* message delay and their throughput is how
fast the simulator itself executes.
"""

from __future__ import annotations

import asyncio
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.bench.harness import apply_batching, run_workload
from repro.bench.topologies import wan_testbed
from repro.checking import check_all
from repro.client import AmcastClientOptions
from repro.config import BatchingOptions, ClusterConfig
from repro.net import LocalCluster, TransportOptions
from repro.net.codec import CODEC_STATS
from repro.obs import ObsOptions
from repro.protocols.wbcast import WbCastProcess
from repro.sim.faults import FaultPlan
from repro.workload import ClientOptions
from repro.workload.netdrive import drive_cluster

from layers import run_layer_drives
from tracing import LANE_CONTROL, GcWatch, Tracer, collect_unwatched

#: Multiplicative per-message jitter on the WAN delays of ``sim_*``.  The
#: bare delay matrix makes latency a handful of discrete sums: quantiles
#: then jump between seeds (140.0 or 145.15 ms) or do not move at all,
#: and a value that never varies cannot be told from a constant.  Jitter
#: is drawn from the seeded simulator RNG, so a seed still repeats exactly.
WAN_JITTER = 0.05

#: Handler spans reported by name; every other message type (GC rounds,
#: heartbeats, recovery, lane control) is folded into ``other``.
HANDLER_TYPES = (
    "MulticastMsg",
    "MulticastBatchMsg",
    "AcceptMsg",
    "AcceptAckMsg",
    "DeliverMsg",
    "AcceptBatchMsg",
    "AcceptAckBatchMsg",
    "DeliverBatchMsg",
)

#: Share of a ``tcp_*`` run's budget spent in the latency phase.  Saturation
#: throughput repeats within 1% after two or three repeats; the latency
#: quantiles (``tcp_sharded``'s merge-wait tail above all) need every
#: sample the time cap leaves.
LATENCY_SHARE = 2 / 3

#: Span stages whose waiting time attributes ``lat_p50_ms``.
OBS_STAGES = ("admit", "accept_quorum", "commit", "merge_release", "deliver")

OBS_ON = ObsOptions(enabled=True)

#: Every ``tcp_*`` cluster: client sessions, destination groups per
#: multicast (both groups: every message is global), batching linger.
SESSIONS = 2
DEST_K = 2
LINGER = 0.002


@dataclass(frozen=True)
class Scale:
    """Operation counts of one repeat: the real thing, or the smoke test's."""

    warm_msgs: int  #: discarded closed-loop warm-up on every fresh TCP cluster
    sat_msgs: int  #: multicasts per saturation repeat
    sat_nominal_s: float  #: what a saturation repeat is budgeted at
    lat_seconds: float  #: length of one open-loop repeat
    lat_rate: float  #: open-loop arrival rate, multicasts per second
    sim_msgs_per_client: int
    sim_crash_msgs_per_client: int
    sim_warm_msgs_per_client: int
    sim_crash_at: float  #: virtual time of the leader crash
    queue_entries: int  #: standalone queue drives
    profiled_msgs: int  #: messages per client of the profiled call count


FULL = Scale(
    warm_msgs=200,
    sat_msgs=3000,
    sat_nominal_s=2.0,
    lat_seconds=3.0,
    lat_rate=400.0,
    sim_msgs_per_client=400,
    sim_crash_msgs_per_client=200,
    sim_warm_msgs_per_client=10,
    sim_crash_at=2.0,
    queue_entries=50_000,
    profiled_msgs=25,
)

QUICK = Scale(
    warm_msgs=20,
    sat_msgs=80,
    sat_nominal_s=0.1,
    lat_seconds=0.25,
    lat_rate=200.0,
    sim_msgs_per_client=12,
    sim_crash_msgs_per_client=24,
    sim_warm_msgs_per_client=2,
    sim_crash_at=0.4,
    queue_entries=500,
    profiled_msgs=5,
)


class Metric(NamedTuple):
    value: float
    unit: str
    kind: str  #: wall | work | modelled
    q1: float
    q3: float
    n: int  #: samples the value is the median of


def single(value: float, unit: str, kind: str) -> Metric:
    return Metric(value, unit, kind, value, value, 1)


def median_of(samples: Sequence[float], unit: str, kind: str) -> Metric:
    if len(samples) < 2:
        return single(samples[0], unit, kind)
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return Metric(statistics.median(samples), unit, kind, q1, q3, len(samples))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, linearly interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Report:
    """What one run observed."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: List[str] = field(default_factory=list)

    def count(self, attempted: int, completed: int, checks_ok: bool) -> None:
        """Fold one repeat's operations in; a failed checker fails them all."""
        self.attempted += attempted
        self.failed += attempted - completed if checks_ok else attempted
        self.correct = self.correct and checks_ok


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- TCP workloads -----------------------------------------------------------


@dataclass(frozen=True)
class TcpSpec:
    """One ``tcp_*`` workload: 2 groups × 3 members, every message global."""

    leader_batch: int = 1
    ingress_batch: int = 1
    shards: int = 1

    def cluster(self, seed: int, window: int, obs: Optional[ObsOptions]) -> LocalCluster:
        config = ClusterConfig.build(
            num_groups=2,
            group_size=3,
            num_clients=SESSIONS,
            shards_per_group=self.shards,
        )
        options = None
        if self.leader_batch > 1:
            options = apply_batching(
                WbCastProcess,
                None,
                BatchingOptions(max_batch=self.leader_batch, max_linger=LINGER),
            )
        ingress = None
        if self.ingress_batch > 1:
            ingress = BatchingOptions(
                max_batch=self.ingress_batch, max_linger=LINGER
            )
        return LocalCluster(
            config,
            WbCastProcess,
            options=options,
            seed=seed,
            client_options=AmcastClientOptions(
                window=window,
                retry_timeout=2.0,
                ingress=ingress,
                retain_completed=None,
            ),
            num_sessions=SESSIONS,
            transport_options=TransportOptions(
                codec="binary", coalesce=True, max_queue=512
            ),
            obs=obs,
        )


@dataclass
class TcpRepeat:
    setup_s: float
    attempted: int = 0
    completed: int = 0
    checks_ok: bool = False
    check_s: float = 0.0
    cpu_s: float = 0.0  #: process CPU, first submit to quiescence
    deliveries: int = 0
    retransmits: int = 0
    backpressure: int = 0
    msgs_s: float = 0.0  #: saturation phase
    latencies: List[float] = field(default_factory=list)  #: latency phase, seconds
    lateness: List[float] = field(default_factory=list)
    stage_p50_ms: Dict[str, float] = field(default_factory=dict)
    frames_per_flush: float = 0.0


def poisson_offsets(rng: random.Random, rate: float, seconds: float) -> List[float]:
    offsets, t = [], rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


async def _open_loop(cluster: LocalCluster, offsets, rng, timeout, out: TcpRepeat):
    """Submit on schedule whatever the cluster does; time from the due instant."""
    loop = asyncio.get_running_loop()
    group_ids = sorted(cluster.config.group_ids)
    done = asyncio.Event()
    pending = len(offsets)

    def on_complete(handle, due: float) -> None:
        nonlocal pending
        out.latencies.append(handle.completed_at - due)
        pending -= 1
        if pending <= 0:
            done.set()

    start = loop.time() + 0.02
    for i, offset in enumerate(offsets):
        due = start + offset
        wait = due - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        out.lateness.append(loop.time() - due)
        dests = frozenset(rng.sample(group_ids, DEST_K))
        handle = cluster.sessions[i % len(cluster.sessions)].submit(dests)
        handle.on_complete(lambda h, due=due: on_complete(h, due))
    try:
        await asyncio.wait_for(done.wait(), timeout)
    except asyncio.TimeoutError:
        pass
    out.attempted = len(offsets)
    out.completed = len(out.latencies)


async def _tcp_repeat(
    spec: TcpSpec,
    seed: int,
    phase: str,
    scale: Scale,
    tracer: Optional[Tracer],
    obs: Optional[ObsOptions],
) -> TcpRepeat:
    t_setup = time.perf_counter()
    # The latency phase's window is wide enough that the session never
    # holds a scheduled submission back.
    cluster = spec.cluster(seed, window=128 if phase == "sat" else 4096, obs=obs)
    if tracer is not None:
        tracer.wrap_cluster_recording(cluster)
    await cluster.start()
    try:
        if tracer is not None:
            tracer.wrap_cluster_processes(cluster)
        per_session = max(1, scale.warm_msgs // SESSIONS)
        await drive_cluster(cluster, per_session, DEST_K, timeout=30.0, seed=seed)
        out = TcpRepeat(setup_s=time.perf_counter() - t_setup)
        if tracer is not None:
            tracer.clear()
        cpu0 = time.process_time()
        if phase == "sat":
            drive = await drive_cluster(
                cluster,
                max(1, scale.sat_msgs // SESSIONS),
                DEST_K,
                timeout=60.0,
                seed=seed + 1,
            )
            out.attempted, out.completed = drive.submitted, drive.completed
            out.msgs_s = drive.throughput
        else:
            rng = random.Random(seed)
            offsets = poisson_offsets(rng, scale.lat_rate, scale.lat_seconds)
            await _open_loop(cluster, offsets, rng, 20.0, out)
        expected = sum(
            len(cluster.config.members(g))
            for _, _, m in cluster.multicasts.values()
            for g in m.dests
        )
        await cluster.wait_quiescent(expected, timeout=10.0)
        out.cpu_s = time.process_time() - cpu0
        out.deliveries = len(cluster.deliveries)
        t_check = time.perf_counter()
        out.checks_ok = all(r.ok for r in check_all(cluster.history()))
        out.check_s = time.perf_counter() - t_check
        out.retransmits = sum(
            s.handle_of(mid).retries for s in cluster.sessions for mid in s.sent
        )
        out.backpressure = sum(
            t.backpressure_events
            for t in (*cluster.transports.values(), *cluster._session_transports)
        )
        if cluster.telemetry is not None:
            out.stage_p50_ms = _stage_p50_ms(cluster.telemetry.spans)
            flushes = cluster.telemetry.registry.histograms("transport_coalesce_frames")
            total = sum(h.count for h in flushes)
            out.frames_per_flush = sum(h.sum for h in flushes) / total if total else 0.0
    finally:
        await cluster.stop()
    return out


def _stage_p50_ms(spans: Any) -> Dict[str, float]:
    """Median wait before each pipeline stage, from the program's own spans."""
    gaps: Dict[str, List[float]] = {}
    for mid in spans.delivered_mids():
        for stage, dt in spans.gaps(mid):
            gaps.setdefault(stage, []).append(dt)
    return {stage: statistics.median(v) * 1e3 for stage, v in gaps.items()}


def tcp_repeat(spec, seed, phase, scale, tracer=None, obs=None) -> TcpRepeat:
    # Free the previous repeat's cluster now, not in the middle of this
    # repeat's set-up or timed phase.
    collect_unwatched()
    if tracer is None:
        return asyncio.run(_tcp_repeat(spec, seed, phase, scale, None, obs))
    with tracer.patched_wire():
        return asyncio.run(_tcp_repeat(spec, seed, phase, scale, tracer, obs))


def _saturation_repeats(spec, seed, scale, budget_s, report, tracer_total=None):
    """Fresh-cluster saturation repeats until ``budget_s`` is spent."""
    repeats: List[TcpRepeat] = []
    t0 = time.perf_counter()
    while not repeats or time.perf_counter() - t0 + scale.sat_nominal_s <= budget_s:
        tracer = Tracer() if tracer_total is not None else None
        rep = tcp_repeat(
            spec, seed + len(repeats), "sat", scale, tracer,
            OBS_ON if tracer is not None else None,
        )
        if tracer is not None:
            tracer_total.merge(tracer)
        report.count(rep.attempted, rep.completed, rep.checks_ok)
        repeats.append(rep)
    return repeats


def run_tcp(name: str, spec: TcpSpec, seed: int, seconds: float, trace: bool, scale: Scale) -> Report:
    report = Report()
    report.notes.append(
        "loopback TCP, zero injected delay: latency is processor time; "
        f"{SESSIONS} sessions, closed loop window 128/session, then "
        f"open loop Poisson {scale.lat_rate:g} msgs/s"
    )
    # The first cluster of a process runs 25-40% slow (cold allocator and
    # bytecode caches): one discarded repeat before anything is timed.
    tcp_repeat(spec, seed, "sat", scale)
    if trace:
        # One untraced repeat, traced saturation repeats for half of what
        # is left after the single latency repeat, then the layer drives.
        _run_tcp_traced(report, spec, seed, (seconds - scale.lat_seconds) / 2, scale)
        return report
    lat_repeats = max(1, round(seconds * LATENCY_SHARE / scale.lat_seconds))
    sat_budget = seconds - lat_repeats * scale.lat_seconds
    sat = _saturation_repeats(spec, seed, scale, sat_budget, report)
    lat = []
    for i in range(lat_repeats):
        rep = tcp_repeat(spec, seed + 100 + i, "lat", scale)
        report.count(rep.attempted, rep.completed, rep.checks_ok)
        lat.append(rep)
    m = report.metrics
    m["setup_s"] = median_of([r.setup_s for r in sat + lat], "s", "wall")
    m["sat_msgs_s"] = median_of([r.msgs_s for r in sat], "msgs/s", "wall")
    _latency_metrics(m, [r.latencies for r in lat], "wall")
    m["peak_rss_mb"] = single(peak_rss_mb(), "MB", "wall")
    return report


def _latency_metrics(m: Dict[str, Metric], per_repeat: List[List[float]], kind: str) -> None:
    """``lat_p50_ms`` / ``lat_p90_ms``: median over repeats of each repeat's quantile."""
    for name, pct in (("lat_p50_ms", 50), ("lat_p90_ms", 90)):
        m[name] = median_of([percentile(v, pct) * 1e3 for v in per_repeat], "ms", kind)


def _run_tcp_traced(report: Report, spec: TcpSpec, seed: int, sat_budget: float, scale: Scale) -> None:
    base = tcp_repeat(spec, seed, "sat", scale)
    report.count(base.attempted, base.completed, base.checks_ok)
    tracer = Tracer()
    codec_base = CODEC_STATS.snapshot()
    with GcWatch() as gc_watch:
        sat = _saturation_repeats(spec, seed, scale, sat_budget, report, tracer)
        lat = tcp_repeat(spec, seed + 100, "lat", scale, obs=OBS_ON)
    report.count(lat.attempted, lat.completed, lat.checks_ok)

    mcasts = sum(r.completed for r in sat)
    deliveries = sum(r.deliveries for r in sat)
    cpu_ns = sum(r.cpu_s for r in sat) * 1e9
    m = report.metrics
    _handler_metrics(m, tracer, mcasts, cpu_ns)
    _reconcile(report, tracer, mcasts, cpu_ns, "asyncio_other")

    ns, calls, counts = tracer.self_ns, tracer.calls, tracer.counts
    frames = counts["frames"]
    m["net.codec.encode_us_per_frame"] = single(
        ns["net.codec.encode"] / 1e3 / frames, "us", "wall")
    m["net.codec.decode_us_per_frame"] = single(
        ns["net.codec.decode"] / 1e3 / frames, "us", "wall")
    m["net.codec.frames_per_mcast"] = single(frames / mcasts, "count", "work")
    m["net.codec.bytes_per_mcast"] = single(counts["bytes"] / mcasts, "bytes", "work")
    m["net.codec.pickle_fallbacks"] = single(
        sum(CODEC_STATS.hot_path_fallbacks(codec_base).values()), "count", "work")
    m["net.transport.send_us_per_frame"] = single(
        ns["net.transport.send"] / 1e3 / calls["net.transport.send"], "us", "wall")
    m["net.transport.frames_per_flush"] = median_of(
        [r.frames_per_flush for r in sat], "count", "work")
    m["net.transport.backpressure_events"] = single(
        sum(r.backpressure for r in sat), "count", "work")
    m["client.submit_us"] = single(
        ns["client.submit"] / 1e3 / calls["client.submit"], "us", "wall")
    m["client.on_message_us"] = single(
        ns["client.on_message"] / 1e3 / calls["client.on_message"], "us", "wall")
    m["client.retransmits"] = single(
        sum(r.retransmits for r in sat) + lat.retransmits, "count", "work")
    m["client.gen_late_p50_ms"] = single(percentile(lat.lateness, 50) * 1e3, "ms", "wall")
    m["client.gen_late_p99_ms"] = single(percentile(lat.lateness, 99) * 1e3, "ms", "wall")
    m["client.lat_p99_ms"] = single(percentile(lat.latencies, 99) * 1e3, "ms", "wall")
    m["client.lat_max_ms"] = single(max(lat.latencies) * 1e3, "ms", "wall")
    m["net.cluster.record_us_per_delivery"] = single(
        (ns["net.cluster.record"] + ns["workload.tracker"]) / 1e3 / deliveries,
        "us", "wall")
    m["net.cluster.gc_gen2_count"] = single(gc_watch.gen2_count, "count", "work")
    m["net.cluster.gc_pause_ms_max"] = single(gc_watch.pause_ms_max, "ms", "wall")
    m["checking.check_all_s"] = median_of([r.check_s for r in sat], "s", "wall")
    for stage in OBS_STAGES:
        m[f"obs.stage_p50_ms.{stage}"] = single(
            lat.stage_p50_ms.get(stage, 0.0), "ms", "wall")
    m["trace.overhead_ratio"] = single(
        statistics.median(r.msgs_s for r in sat) / base.msgs_s, "ratio", "wall")
    _layer_drive_metrics(m, seed, scale)


def _handler_metrics(m: Dict[str, Metric], tracer: Tracer, mcasts: int, cpu_ns: float) -> None:
    """``protocols.*`` metrics both runtimes share, from the handler spans."""
    spans = tracer.detail("protocols.wbcast")
    calls = {kind: n for kind, (_, n) in spans.items()}
    rest = [v for kind, v in spans.items() if kind not in HANDLER_TYPES]
    spans["other"] = (sum(ns for ns, _ in rest), sum(n for _, n in rest))
    for kind in (*HANDLER_TYPES, "other"):
        ns, n = spans.get(kind, (0, 0))
        m[f"protocols.wbcast.handler_us.{kind}"] = single(
            ns / 1e3 / n if n else 0.0, "us", "wall")
        m[f"protocols.wbcast.handler_calls_per_mcast.{kind}"] = single(
            n / mcasts, "count", "work")
    layers = tracer.layer_ns()
    protocol_ns = layers.get("protocols.wbcast", 0) + layers.get("protocols.wbcast.sharding", 0)
    m["protocols.wbcast.cpu_share"] = single(protocol_ns / cpu_ns, "fraction", "wall")
    m["protocols.wbcast.sharding.lane_ctrl_msgs_per_mcast"] = single(
        sum(calls.get(kind, 0) for kind in LANE_CONTROL) / mcasts, "count", "work")
    counts = tracer.counts
    # Entries per frame, a per-message frame counting as a batch of one.
    for name, one, batch in (
        ("protocols.batching.entries_per_batch", "AcceptMsg", "AcceptBatchMsg"),
        ("protocols.batching.ingress_msgs_per_frame", "MulticastMsg", "MulticastBatchMsg"),
    ):
        frames = calls.get(one, 0) + calls.get(batch, 0)
        entries = calls.get(one, 0) + counts[batch + ".entries"]
        m[name] = single(entries / frames, "count", "work")


def _reconcile(report: Report, tracer: Tracer, mcasts: int, cpu_ns: float, other: str) -> None:
    """Wrapped self times + ``other`` = process CPU of the traced phase."""
    layers = tracer.layer_ns()
    other_ns = cpu_ns - sum(layers.values())
    m = report.metrics
    m["net.cluster.asyncio_other_share"] = single(other_ns / cpu_ns, "fraction", "wall")
    m["net.cluster.cpu_ms_per_mcast"] = single(cpu_ns / 1e6 / mcasts, "ms", "wall")
    parts = sorted(layers.items(), key=lambda kv: -kv[1]) + [(other, other_ns)]
    report.notes.append(
        f"reconciliation ({mcasts} multicasts, ms per multicast, share of process CPU): "
        + " + ".join(
            f"{name} {ns / 1e6 / mcasts:.4f} ({ns / cpu_ns:.1%})" for name, ns in parts
        )
        + f" = cpu {cpu_ns / 1e6 / mcasts:.4f}"
    )


def _layer_drive_metrics(m: Dict[str, Metric], seed: int, scale: Scale) -> None:
    drives = run_layer_drives(seed, scale.queue_entries, scale.profiled_msgs)
    for name, (value, unit, kind) in drives.items():
        m[name] = single(value, unit, kind)


# -- simulator workloads -----------------------------------------------------


class RecoveryProbe:
    """``run_workload`` monitor: virtual time of the first ``recover()``."""

    def __init__(self) -> None:
        self.first_recover: Optional[float] = None

    def bind_processes(self, members: Dict[int, Any]) -> None:
        for proc in members.values():
            proc.recover = self._probed(proc, proc.recover)

    def _probed(self, proc: Any, recover):
        def probed(*args, **kwargs):
            if self.first_recover is None:
                self.first_recover = proc.now()
            return recover(*args, **kwargs)

        return probed


@dataclass
class SimRepeat:
    setup_s: float
    wall_s: float
    cpu_s: float
    attempted: int
    completed: int
    checks_ok: bool
    check_s: float
    latencies: List[float]
    events: int
    wire_msgs: int
    retransmits: int
    stage_p50_ms: Dict[str, float]
    fault_ms: Dict[str, float]

    def fingerprint(self):
        """Everything virtual: must repeat exactly for one seed."""
        return (self.latencies, self.events, self.wire_msgs, self.retransmits)


def sim_repeat(crash: bool, seed: int, scale: Scale, tracer: Optional[Tracer] = None) -> SimRepeat:
    collect_unwatched()  # the previous repeat's trace, outside anything timed
    t_setup = time.perf_counter()
    config = ClusterConfig.build(num_groups=3, group_size=3, num_clients=16)

    def simulate(msgs_per_client: int, **extra):
        return run_workload(
            WbCastProcess,
            config=config,
            network=wan_testbed(config, spread_leaders=True, jitter=WAN_JITTER),
            seed=seed,
            cpu=None,
            dest_k=2,
            client_options=ClientOptions(
                num_messages=msgs_per_client,
                window=4,
                retry_timeout=0.5 if crash else None,
            ),
            # Long enough for the last DELIVERs to cross the WAN, so the
            # termination checker sees a quiescent run.
            drain_grace=1.0,
            **extra,
        )

    simulate(scale.sim_warm_msgs_per_client)
    setup_s = time.perf_counter() - t_setup

    extra: Dict[str, Any] = {}
    probe = RecoveryProbe()
    monitors: List[Any] = [tracer] if tracer is not None else []
    if crash:
        extra.update(
            attach_fd=True,
            fault_plan=FaultPlan.crash_leaders(config, [0], at=scale.sim_crash_at),
        )
        monitors.append(probe)
    if tracer is not None:
        extra["obs"] = OBS_ON
    msgs = scale.sim_crash_msgs_per_client if crash else scale.sim_msgs_per_client
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = simulate(msgs, monitors=monitors, **extra)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    t_check = time.perf_counter()
    checks_ok = all(r.ok for r in result.check())
    check_s = time.perf_counter() - t_check

    fault_ms: Dict[str, float] = {}
    if crash and result.trace.crashes and probe.first_recover is not None:
        crash_t, crashed_pid = result.trace.crashes[0]
        gid = config.group_of(crashed_pid)
        tracker = result.tracker
        resumed = min(
            (t for mid, t in tracker.partial_time.items()
             if t >= probe.first_recover and gid in tracker.dests[mid]),
            default=None,
        )
        if resumed is not None:
            fault_ms = {
                "failure.detect_ms": (probe.first_recover - crash_t) * 1e3,
                "protocols.wbcast.recovery_ms": (resumed - probe.first_recover) * 1e3,
                "failure.outage_ms": (resumed - crash_t) * 1e3,
            }
    return SimRepeat(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        attempted=result.expected,
        completed=result.completed,
        checks_ok=checks_ok and (not crash or bool(fault_ms)),
        check_s=check_s,
        latencies=result.latencies(),
        events=result.sim.events_executed,
        wire_msgs=result.trace.send_count,
        retransmits=sum(h.retries for h in result.completed_handles()),
        stage_p50_ms=(
            _stage_p50_ms(result.telemetry.spans) if result.telemetry is not None else {}
        ),
        fault_ms=fault_ms,
    )


def run_sim(name: str, crash: bool, seed: int, seconds: float, trace: bool, scale: Scale) -> Report:
    report = Report()
    report.notes.append(
        "simulator, 3 groups x 3 on the paper's WAN delays "
        f"(jitter +-{WAN_JITTER:.0%}), no CPU model: latency is modelled message "
        "delay, sat_msgs_s is simulated multicasts per wall second; 16 "
        "closed-loop clients x window 4"
        + (", group 0's leader crashes mid-run" if crash else "")
    )
    t0 = time.perf_counter()
    repeats = [sim_repeat(crash, seed, scale)]
    if trace:
        _run_sim_traced(report, repeats[0], crash, seed, seconds, scale, t0)
        return report
    while time.perf_counter() - t0 + repeats[-1].wall_s <= seconds:
        repeats.append(sim_repeat(crash, seed, scale))
    for rep in repeats:
        same = rep.fingerprint() == repeats[0].fingerprint()
        report.count(rep.attempted, rep.completed, rep.checks_ok and same)
    m = report.metrics
    m["setup_s"] = median_of([r.setup_s for r in repeats], "s", "wall")
    m["sat_msgs_s"] = median_of([r.completed / r.wall_s for r in repeats], "msgs/s", "wall")
    _latency_metrics(m, [r.latencies for r in repeats], "modelled")
    m["peak_rss_mb"] = single(peak_rss_mb(), "MB", "wall")
    return report


def _run_sim_traced(report, base: SimRepeat, crash, seed, seconds, scale, t0) -> None:
    report.count(base.attempted, base.completed, base.checks_ok)
    tracer = Tracer()
    traced: List[SimRepeat] = []
    with GcWatch() as gc_watch:
        while not traced or time.perf_counter() - t0 + traced[-1].wall_s <= seconds * 0.8:
            rep = sim_repeat(crash, seed, scale, tracer)
            same = rep.fingerprint() == base.fingerprint()
            report.count(rep.attempted, rep.completed, rep.checks_ok and same)
            traced.append(rep)

    mcasts = sum(r.completed for r in traced)
    cpu_ns = sum(r.cpu_s for r in traced) * 1e9
    m = report.metrics
    _handler_metrics(m, tracer, mcasts, cpu_ns)
    _reconcile(report, tracer, mcasts, cpu_ns, "sim_other")
    m["client.retransmits"] = single(base.retransmits, "count", "work")
    m["client.lat_p99_ms"] = single(percentile(base.latencies, 99) * 1e3, "ms", "modelled")
    m["client.lat_max_ms"] = single(max(base.latencies) * 1e3, "ms", "modelled")
    m["net.cluster.gc_gen2_count"] = single(gc_watch.gen2_count, "count", "work")
    m["net.cluster.gc_pause_ms_max"] = single(gc_watch.pause_ms_max, "ms", "wall")
    m["checking.check_all_s"] = median_of([r.check_s for r in traced], "s", "wall")
    for stage in OBS_STAGES:
        m[f"obs.stage_p50_ms.{stage}"] = single(
            traced[0].stage_p50_ms.get(stage, 0.0), "ms", "modelled")
    m["sim.wall_us_per_event"] = single(base.wall_s * 1e6 / base.events, "us", "wall")
    m["sim.events_per_mcast"] = single(base.events / base.completed, "count", "work")
    m["sim.wire_msgs_per_mcast"] = single(base.wire_msgs / base.completed, "count", "work")
    for name, value in base.fault_ms.items():
        m[name] = single(value, "ms", "modelled")
    m["trace.overhead_ratio"] = single(
        statistics.median(r.completed / r.wall_s for r in traced)
        / (base.completed / base.wall_s),
        "ratio", "wall")
    _layer_drive_metrics(m, seed, scale)


# -- the catalogue -----------------------------------------------------------

TCP_SPECS = {
    "tcp_permsg": TcpSpec(),
    "tcp_batched": TcpSpec(leader_batch=8, ingress_batch=16),
    "tcp_sharded": TcpSpec(shards=2),
}
SIM_CRASH = {"sim_wan": False, "sim_wan_crash": True}
WORKLOADS = (*TCP_SPECS, *SIM_CRASH)

#: Per-layer metrics a runtime cannot exercise, by name prefix: a traced
#: run reports them as 0 rather than leaving them out.
_TCP_IDLE = ("sim.", "failure.", "protocols.wbcast.recovery_ms")
_SIM_IDLE = (
    "net.codec.encode_us", "net.codec.decode_us", "net.codec.frames_per",
    "net.codec.bytes_per", "net.codec.pickle", "net.transport.",
    "client.submit_us", "client.on_message_us", "client.gen_late",
    "net.cluster.record_us",
)


def idle_prefixes(name: str):
    """Prefixes of the per-layer metrics workload ``name`` leaves at 0."""
    if name in TCP_SPECS:
        return _TCP_IDLE
    return _SIM_IDLE if SIM_CRASH[name] else _SIM_IDLE + _TCP_IDLE[1:]


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Report:
    """One run of one workload."""
    if name in TCP_SPECS:
        return run_tcp(name, TCP_SPECS[name], seed, seconds, trace, scale)
    if name in SIM_CRASH:
        return run_sim(name, SIM_CRASH[name], seed, seconds, trace, scale)
    raise ValueError(f"unknown workload {name!r} (have: {', '.join(WORKLOADS)})")
