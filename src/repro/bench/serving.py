"""Serving-tier sweep: read-at-watermark measured against the submit path.

Every read in the repo used to ride the full multicast submit path; the
serving layer answers them locally at the watermark instead.  This bench
records the two headline claims on real runs:

* **zero ordering traffic for reads** — on the watermark arm of each
  grid cell the :class:`~repro.serving.monitor.ReadPathMonitor` counts
  every ordering-plane message attributable to a read; the 90%-read
  headline cell asserts that count is exactly zero.
* **throughput** — each cell also runs a control arm with
  ``prefer_local=False`` (every read routed through the submit path, the
  pre-serving behaviour) on the same seed and mix; the headline compares
  the two (acceptance: >= 3x at the 90% read mix).

The grid is read-ratio x skew x tenants (axes shared with
:mod:`repro.bench.sweep`), swept on the simulator; ``--runtime net``
adds a TCP smoke cell driving :class:`~repro.serving.session.ServingSession`
over :class:`~repro.net.LocalCluster` sockets.  Every simulated history —
including a lane-leader-crash run — is put through the linearizability
checker; a run that fails it is not a measurement.

Run ``python -m repro bench-serving``; ``--quick`` is the CI smoke grid,
``--out FILE`` writes the standard results block and ``--json FILE`` the
machine-readable ``BENCH_serving.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..config import ClusterConfig
from ..failure.detector import MonitorOptions
from ..obs import ObsOptions
from ..protocols import PROTOCOLS
from ..serving import TenantSpec, run_serving_workload
from ..sim.faults import CrashSpec, FaultPlan
from .driver import (
    BenchSpec,
    float_list,
    int_list,
    option,
    positive_int,
    seed_option,
)
from .metrics import summarize_latencies
from .report import render_table
from .topologies import wan_site_config

#: Admission cap per tenant in multi-tenant cells (writes in flight).
TENANT_CAP = 8


@dataclass(frozen=True)
class ServingPoint:
    """One measured (runtime, read_ratio, skew, tenants) grid cell."""

    runtime: str
    protocol: str
    read_ratio: float
    skew: float
    tenants: int
    sessions: int
    ops: int
    reads_local: int
    reads_fallback: int
    writes: int
    throughput: float
    #: Control arm: same mix with every read routed through the submit
    #: path (NaN when the control arm was skipped).
    submit_throughput: float
    speedup: float
    #: Ordering-plane messages attributable to reads on the watermark arm
    #: (None: unmeasured — the net runtime records no trace).
    read_ordering: Optional[int]
    mean_read_ms: float
    p95_read_ms: float
    checks_ok: bool
    linearizable: bool
    #: Delivery ordering granularity this cell ran under ("total" or
    #: "keys"; the net smoke cell always runs total).
    conflict: str = "total"
    #: With telemetry on: the per-tenant latency / SLO rows of this cell
    #: (see :func:`tenant_rows`).
    tenant_rows: Tuple[tuple, ...] = ()


@dataclass(frozen=True)
class ServingParams:
    """The sweep's grid; fields built with ``option`` are its flags."""

    read_ratios: Tuple[float, ...] = option(
        (0.5, 0.9, 0.99),
        "--read-ratio",
        type=float_list,
        metavar="R[,R...]",
        help="read-fraction axis (default: 0.5,0.9,0.99)",
    )
    skews: Tuple[float, ...] = option(
        (0.0, 0.99),
        "--skew",
        type=float_list,
        metavar="S[,S...]",
        help="Zipf-exponent axis; 0 is uniform, 0.99 the classic hot-key "
        "setting (default: 0.0,0.99)",
    )
    tenant_counts: Tuple[int, ...] = option(
        (1, 4),
        "--tenants",
        type=int_list,
        metavar="N[,N...]",
        help="tenant-count axis: tenants carry DRR weights and admission "
        "caps (default: 1,4)",
    )
    protocol: str = option(
        "wbcast",
        "--protocol",
        choices=sorted(
            name
            for name, cls in PROTOCOLS.items()
            if getattr(cls, "SUPPORTS_SHARDING", False) or name == "wbcast"
        ),
        default="wbcast",
        help="protocol under the serving tier (default: wbcast)",
    )
    runtime: str = option(
        "sim",
        "--runtime",
        choices=("sim", "net", "both"),
        default="sim",
        help="'sim' sweeps the grid on the simulator; 'net' drives serving "
        "sessions over localhost TCP sockets; 'both' runs both",
    )
    sessions: int = option(
        4,
        "--sessions",
        type=positive_int,
        metavar="N",
        also=("net_sessions",),
        help="concurrent serving sessions (default: 4 sim, 2 net)",
    )
    ops_per_session: int = option(
        120,
        "--ops",
        type=positive_int,
        metavar="N",
        also=("net_ops",),
        help="ops per session (default: 120 sim, 40 net; 40 / 20 with --quick)",
    )
    #: Run the submit-path control arm per cell (the >=3x comparison).
    compare_submit: bool = option(
        True,
        "--no-compare",
        action="store_true",
        convert=lambda v: not v,
        help="skip the submit-path control arm (no speedup column)",
    )
    crash_run: bool = option(
        True,
        "--no-crash",
        action="store_true",
        convert=lambda v: not v,
        help="skip the lane-leader-crash linearizability run",
    )
    #: The net smoke cell always runs total.
    conflict: str = option(
        "total",
        "--conflict",
        choices=("total", "keys"),
        default="total",
        help="delivery ordering granularity for the sim grid: total (the "
        "paper, default) or keys (conflict-aware delivery — single-key "
        "reads gate on their key's conflict domain; the net smoke cell "
        "always runs total)",
    )
    seed: int = seed_option()
    obs: bool = option(
        False,
        "--obs",
        action="store_true",
        help="instrument sim cells with the telemetry registry and print "
        "per-tenant read/write latency histograms plus SLO-breach counts "
        "(the control arm stays uninstrumented)",
    )
    #: Per-tenant latency targets in seconds (None: no SLO accounting);
    #: setting either implies ``obs``.
    read_slo: Optional[float] = option(
        None,
        "--read-slo",
        type=float,
        metavar="SECS",
        help="per-tenant read latency SLO target in seconds; completions "
        "above it count as breaches in the per-tenant report",
    )
    write_slo: Optional[float] = option(
        None,
        "--write-slo",
        type=float,
        metavar="SECS",
        help="per-tenant write latency SLO target in seconds",
    )
    num_groups: int = 2
    group_size: int = 3
    window: int = 2
    num_keys: int = 64
    shards_per_group: int = 1
    #: Read fallback timer; generous against the WAN grid's ordering
    #: rounds so it only ever fires for genuinely silent replicas.
    read_timeout: float = 0.5
    #: Net smoke cell size (wall-clock runs stay small).
    net_sessions: int = 2
    net_ops: int = 40

    @property
    def instrumented(self) -> bool:
        return self.obs or self.read_slo is not None or self.write_slo is not None


def tenant_specs(
    count: int,
    read_slo: Optional[float] = None,
    write_slo: Optional[float] = None,
) -> Tuple[TenantSpec, ...]:
    """The tenant axis: one anonymous uncapped tenant, or ``count``
    weighted tenants each carrying an admission cap (and, when given,
    per-op latency SLO targets)."""
    if count <= 1:
        return ()
    return tuple(
        TenantSpec(
            f"t{i}", weight=i + 1, max_outstanding=TENANT_CAP,
            read_slo=read_slo, write_slo=write_slo,
        )
        for i in range(count)
    )


def run_wan_arm(
    sweep: Any,
    read_ratio: float,
    skew: float,
    shards: int,
    conflict: str,
    window: int,
    **workload_kwargs: Any,
):
    """One serving run on the WAN site geometry (:func:`wan_site_config`)
    — the Benz-et-al. global serving shape: every session reads its
    co-sited replica (intra-DC hop) while the submit path pays real WAN
    ordering rounds.  ``sweep`` is the serving or conflict bench's params
    (cluster shape, sizing, seed); shared by both benches."""
    config, network = wan_site_config(
        sweep.num_groups, sweep.group_size, sweep.sessions,
        shards_per_group=shards, conflict=conflict,
    )
    return run_serving_workload(
        PROTOCOLS[sweep.protocol],
        config=config,
        network=network,
        num_sessions=sweep.sessions,
        ops_per_session=sweep.ops_per_session,
        read_ratio=read_ratio,
        skew=skew,
        num_keys=sweep.num_keys,
        window=window,
        read_timeout=sweep.read_timeout,
        # Park not-yet-fresh reads at the replica past a WAN round: the
        # covering delivery is already in flight, so no fallback fires
        # and the read path stays at zero ordering messages.
        hold_stale=sweep.read_timeout / 2 if sweep.read_timeout else None,
        seed=sweep.seed,
        drain_grace=0.5,
        attach_genuineness=True,
        **workload_kwargs,
    )


def _run_arm(
    sweep: ServingParams, read_ratio: float, skew: float, tenants: int, prefer_local: bool
):
    return run_wan_arm(
        sweep, read_ratio, skew, sweep.shards_per_group, sweep.conflict, sweep.window,
        tenants=tenant_specs(tenants, sweep.read_slo, sweep.write_slo),
        prefer_local=prefer_local,
        # Only the measured arm is instrumented; the control arm stays
        # bare so its throughput is the uninstrumented reference.
        obs=ObsOptions(enabled=True) if sweep.instrumented and prefer_local else None,
    )


def run_sim_point(
    sweep: ServingParams,
    read_ratio: float,
    skew: float,
    tenants: int,
) -> ServingPoint:
    result = _run_arm(sweep, read_ratio, skew, tenants, prefer_local=True)
    checks = result.check() + result.genuineness.check()
    lin = result.check_serving()
    summary = summarize_latencies(result.read_latencies())
    submit_throughput = float("nan")
    speedup = float("nan")
    if sweep.compare_submit:
        control = _run_arm(sweep, read_ratio, skew, tenants, prefer_local=False)
        submit_throughput = control.throughput()
        if submit_throughput > 0:
            speedup = result.throughput() / submit_throughput
    return ServingPoint(
        runtime="sim",
        protocol=sweep.protocol,
        read_ratio=read_ratio,
        skew=skew,
        tenants=tenants,
        sessions=sweep.sessions,
        ops=result.ops_completed,
        reads_local=result.reads_local,
        reads_fallback=result.reads_fallback,
        writes=result.writes_completed,
        throughput=result.throughput(),
        submit_throughput=submit_throughput,
        speedup=speedup,
        read_ordering=result.monitor.fallback_ordering_messages,
        mean_read_ms=summary.mean * 1000 if summary else float("nan"),
        p95_read_ms=summary.p95 * 1000 if summary else float("nan"),
        checks_ok=all(c.ok for c in checks),
        linearizable=all(c.ok for c in lin),
        conflict=sweep.conflict,
        tenant_rows=tenant_rows(result.telemetry) if result.telemetry else (),
    )


def run_crash_point(
    sweep: Any, shards: int, conflict: str, read_ratio: float, skew: float
) -> Dict[str, Any]:
    """Crash lane 0's leader of group 0 under a sharded serving mix: reads
    must fall back (never return stale data) and the full history must
    still pass the amcast and linearizability checkers through the lane
    takeover.  ``sweep`` is the serving or conflict bench's params — the
    one crash run of both benches."""
    config = ClusterConfig.build(
        sweep.num_groups,
        sweep.group_size,
        sweep.sessions,
        shards_per_group=shards,
        conflict=conflict,
    )
    victim = config.lane_leader(0, 0)
    result = run_serving_workload(
        PROTOCOLS[sweep.protocol],
        config=config,
        num_sessions=sweep.sessions,
        ops_per_session=max(20, sweep.ops_per_session // 3),
        read_ratio=read_ratio,
        skew=skew,
        num_keys=sweep.num_keys,
        window=1,
        read_timeout=0.02,
        retry_timeout=0.05,
        seed=sweep.seed,
        fault_plan=FaultPlan(crashes=[CrashSpec(victim, 0.03)]),
        attach_fd=True,
        fd_options=MonitorOptions(
            heartbeat_interval=0.005, suspect_timeout=0.02,
            stagger=0.01, max_timeout=0.3,
        ),
        max_time=60.0,
    )
    checks = result.check(quiescent=False)
    lin = result.check_serving()
    return {
        "crashed_pid": victim,
        "shards_per_group": shards,
        "ops": result.ops_completed,
        "writes": result.writes_completed,
        "reads_local": result.reads_local,
        "reads_fallback": result.reads_fallback,
        "checks_ok": all(c.ok for c in checks),
        "linearizable": all(c.ok for c in lin),
        "failed_checks": [c.describe() for c in checks + lin if not c.ok],
    }


def serving_crash_run(sweep: ServingParams, _points=None) -> Optional[Dict[str, Any]]:
    """The acceptance criterion's crash run: a sharded 90%-read mix."""
    if not sweep.crash_run or sweep.runtime == "net":
        return None
    return run_crash_point(
        sweep, max(2, sweep.shards_per_group), sweep.conflict, read_ratio=0.9, skew=0.0
    )


def run_net_point(sweep: ServingParams, read_ratio: float) -> ServingPoint:
    """TCP smoke cell: serving sessions over LocalCluster sockets."""
    import asyncio
    import random
    import time

    from ..checking import check_all
    from ..checking.linearizability import check_linearizability, serving_records
    from ..client import AmcastClientOptions
    from ..net import LocalCluster
    from ..serving import ServingSession, ZipfianKeys, attach_kv_replicas

    config = ClusterConfig.build(
        sweep.num_groups, sweep.group_size, sweep.net_sessions
    )
    chooser = ZipfianKeys(sweep.num_keys, 0.0)

    def session_factory(pid, cfg, runtime, protocol_cls, tracker, options):
        return ServingSession(
            pid, cfg, runtime, protocol_cls, tracker, options,
            read_timeout=2.0, prefer_local=True,
        )

    async def drive(session, rng: random.Random) -> None:
        for _ in range(sweep.net_ops):
            if rng.random() < read_ratio:
                handle = session.read((chooser.choose(rng),))
                while not handle.done:
                    await asyncio.sleep(0.001)
            else:
                handle = session.put(chooser.choose(rng), (session.pid, rng.random()))
                while not handle.completed:
                    await asyncio.sleep(0.001)

    async def scenario():
        cluster = LocalCluster(
            config,
            PROTOCOLS[sweep.protocol],
            seed=sweep.seed,
            client_options=AmcastClientOptions(retry_timeout=1.0),
            num_sessions=sweep.net_sessions,
            session_factory=session_factory,
        )
        await cluster.start()
        try:
            attach_kv_replicas(cluster.processes, config.num_groups)
            t0 = time.monotonic()
            await asyncio.gather(
                *(
                    drive(s, random.Random(sweep.seed * 31 + i))
                    for i, s in enumerate(cluster.sessions)
                )
            )
            elapsed = time.monotonic() - t0
            history = cluster.history()
            checks = check_all(history, quiescent=False)
            reads, writes = serving_records(cluster.sessions)
            lin = check_linearizability(history, reads, writes)
            return cluster.sessions, elapsed, checks, lin
        finally:
            await cluster.stop()

    sessions, elapsed, checks, lin = asyncio.run(scenario())
    reads = [r for s in sessions for r in s.reads if r.done]
    lats = sorted(r.completed_at - r.invoked_at for r in reads)
    summary = summarize_latencies(lats)
    total_ops = sweep.net_sessions * sweep.net_ops
    return ServingPoint(
        runtime="net",
        protocol=sweep.protocol,
        read_ratio=read_ratio,
        skew=0.0,
        tenants=1,
        sessions=sweep.net_sessions,
        ops=total_ops,
        reads_local=sum(1 for r in reads if r.path == "local"),
        reads_fallback=sum(1 for r in reads if r.path == "submit"),
        writes=total_ops - len(reads),
        throughput=total_ops / elapsed if elapsed > 0 else 0.0,
        submit_throughput=float("nan"),
        speedup=float("nan"),
        read_ordering=None,  # no trace on the net runtime
        mean_read_ms=summary.mean * 1000 if summary else float("nan"),
        p95_read_ms=summary.p95 * 1000 if summary else float("nan"),
        checks_ok=all(c.ok for c in checks),
        linearizable=all(c.ok for c in lin),
    )


def cells(sweep: ServingParams) -> Iterator[Tuple]:
    if sweep.runtime in ("sim", "both"):
        for read_ratio in sweep.read_ratios:
            for skew in sweep.skews:
                for tenants in sweep.tenant_counts:
                    yield "sim", read_ratio, skew, tenants
    if sweep.runtime in ("net", "both"):
        for read_ratio in sweep.read_ratios:
            yield "net", read_ratio


def run_cell(sweep: ServingParams, cell: Tuple) -> ServingPoint:
    runtime, *axes = cell
    return (run_sim_point if runtime == "sim" else run_net_point)(sweep, *axes)


# -- reporting ----------------------------------------------------------------


def table_title(_sweep: ServingParams, points: List[ServingPoint]) -> str:
    keys = any(p.conflict == "keys" for p in points)
    return "Serving sweep — read-at-watermark vs submit-path reads" + (
        " (conflict=keys)" if keys else ""
    )


COLUMNS = (
    ("runtime", lambda p: p.runtime),
    ("reads", lambda p: f"{p.read_ratio:.2f}"),
    ("skew", lambda p: f"{p.skew:.2f}"),
    ("tenants", lambda p: p.tenants),
    ("local/fallback", lambda p: f"{p.reads_local}/{p.reads_fallback}"),
    ("writes", lambda p: p.writes),
    ("ops/s", lambda p: p.throughput),
    ("submit ops/s", lambda p: p.submit_throughput),
    ("speedup", lambda p: f"{p.speedup:.1f}x" if p.speedup == p.speedup else "-"),
    ("read-order msgs", lambda p: "-" if p.read_ordering is None else p.read_ordering),
    ("mean read (ms)", lambda p: p.mean_read_ms),
    ("p95 read (ms)", lambda p: p.p95_read_ms),
    ("checks", lambda p: "ok" if p.checks_ok and p.linearizable else "FAIL"),
)


def tenant_rows(telemetry: Any) -> Tuple[tuple, ...]:
    """Per-tenant read/write latency and SLO-breach rows of one
    instrumented cell (the ROADMAP's per-tenant SLO accounting, first
    leg); empty for single-tenant cells."""
    reg = telemetry.registry
    reads = {dict(h.labels)["tenant"]: h
             for h in reg.histograms("tenant_read_latency_seconds")}
    writes = {dict(h.labels)["tenant"]: h
              for h in reg.histograms("tenant_write_latency_seconds")}
    rows = []
    for t in sorted(set(reads) | set(writes)):
        r, w = reads.get(t), writes.get(t)
        rows.append(
            (
                t,
                r.count if r else 0,
                r.quantile(0.5) * 1000 if r else float("nan"),
                r.quantile(0.95) * 1000 if r else float("nan"),
                w.count if w else 0,
                w.quantile(0.5) * 1000 if w else float("nan"),
                w.quantile(0.95) * 1000 if w else float("nan"),
                reg.counter_total("tenant_slo_breaches_total", tenant=t, op="read"),
                reg.counter_total("tenant_slo_breaches_total", tenant=t, op="write"),
            )
        )
    return tuple(rows)


TENANT_COLUMNS = [
    "tenant",
    "reads",
    "read p50 (ms)",
    "read p95 (ms)",
    "writes",
    "write p50 (ms)",
    "write p95 (ms)",
    "read SLO misses",
    "write SLO misses",
]


def footer(
    _sweep: ServingParams, points: List[ServingPoint], crash: Optional[Dict[str, Any]]
) -> List[str]:
    """One per-tenant table per instrumented cell, then the crash run."""
    lines = []
    for p in points:
        if p.tenant_rows:
            label = f"reads={p.read_ratio:.2f} skew={p.skew:.2f} tenants={p.tenants}"
            lines += [
                "",
                render_table(
                    TENANT_COLUMNS,
                    p.tenant_rows,
                    title=f"Per-tenant latency / SLO — {label}",
                ),
            ]
    if crash is not None:
        verdict = (
            "linearizable" if crash["linearizable"] and crash["checks_ok"] else "FAILED"
        )
        lines.append(
            f"lane-leader crash (pid {crash['crashed_pid']}): "
            f"{crash['reads_local']} local / {crash['reads_fallback']} "
            f"fallback reads, history {verdict}"
        )
    return lines


def headline_point(points: List[ServingPoint]) -> Optional[ServingPoint]:
    """The acceptance cell: the sim point nearest a 90% read mix (ties
    broken toward uniform keys and a single tenant)."""
    sim = [p for p in points if p.runtime == "sim"]
    if not sim:
        return None
    return min(sim, key=lambda p: (abs(p.read_ratio - 0.9), p.skew, p.tenants))


def headline(points: List[ServingPoint]) -> str:
    lines = []
    p = headline_point(points)
    if p is not None:
        lines.append(
            f"read-at-watermark @ {p.read_ratio:.0%} reads: "
            f"{p.reads_local}/{p.reads_local + p.reads_fallback} reads served "
            f"locally, {p.read_ordering} ordering messages attributable to "
            f"reads, {p.speedup:.1f}x throughput vs submit-path routing "
            f"({p.throughput:,.0f} vs {p.submit_throughput:,.0f} ops/s)"
        )
        lines.append(
            "linearizability: "
            + (
                "all recorded histories pass"
                if all(q.linearizable for q in points)
                else "FAILED on some history"
            )
        )
    return "\n".join(lines)


def payload(
    _sweep: ServingParams,
    points: List[ServingPoint],
    crash: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """What BENCH_serving.json records beyond the grid and its points."""
    head = headline_point(points)
    return {
        "tenant_cap": TENANT_CAP,
        "crash_run": crash,
        "headline": None
        if head is None
        else {
            "read_ratio": head.read_ratio,
            "reads_local": head.reads_local,
            "reads_fallback": head.reads_fallback,
            "read_ordering_messages": head.read_ordering,
            "speedup_vs_submit": head.speedup,
            "throughput": head.throughput,
            "submit_throughput": head.submit_throughput,
            "linearizable": all(p.linearizable for p in points)
            and (crash is None or crash["linearizable"]),
        },
    }


def checker_failures(
    points: List[Any], crash: Optional[Dict[str, Any]], cell_label
) -> List[str]:
    """Every cell's amcast and linearizability checkers, and the crash
    run's, as gate failures (shared with the conflict bench)."""
    failures: List[str] = []
    for p in points:
        if not p.checks_ok:
            failures.append(f"amcast checks failed: {cell_label(p)}")
        if not p.linearizable:
            failures.append(f"linearizability failed: {cell_label(p)}")
    if crash is not None and not (crash["linearizable"] and crash["checks_ok"]):
        failures.append(f"crash run failed: {crash['failed_checks']}")
    return failures


def acceptance_failures(
    _sweep: Any, points: List[ServingPoint], crash: Optional[Dict[str, Any]]
) -> List[str]:
    """The recorded-run gates: zero read-attributable ordering traffic at
    the headline mix, >=3x over the submit path, every history linearizable."""
    failures: List[str] = []
    head = headline_point(points)
    if head is not None:
        if head.read_ordering:
            failures.append(
                f"headline cell leaked {head.read_ordering} ordering messages"
            )
        if head.speedup == head.speedup and head.speedup < 3.0:
            failures.append(f"headline speedup {head.speedup:.2f}x < 3x")
    return failures + checker_failures(
        points, crash, lambda p: f"{p.runtime} cell {p.read_ratio}"
    )


BENCH = BenchSpec(
    name="bench-serving",
    help="serving-tier sweep: read-at-watermark local reads vs "
    "submit-path reads (read-ratio x skew x tenants axes)",
    params=ServingParams,
    # The 90%-read headline mix, uniform + hot-key skew, one tenant pair.
    quick=dict(
        read_ratios=(0.9,),
        skews=(0.0, 0.99),
        tenant_counts=(2,),
        ops_per_session=40,
        net_ops=20,
    ),
    flags=dict(
        out="also write the standard results block to FILE",
        json="also write the machine-readable BENCH_serving.json to FILE",
        quick="CI smoke grid (90%% reads, two skews, one tenant pair)",
    ),
    cells=cells,
    run_cell=run_cell,
    columns=COLUMNS,
    title=table_title,
    headline=headline,
    extra=serving_crash_run,
    footer=footer,
    gates=acceptance_failures,
    payload=payload,
    header=(
        "sim cells run on the WAN testbed (3 DCs, site placement, sessions "
        f"spread over DCs); tenant admission cap {TENANT_CAP} writes in flight",
    ),
)
