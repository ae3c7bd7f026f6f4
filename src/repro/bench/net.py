"""TCP throughput sweep: the net runtime measured, not just smoked.

Every headline number before this module came from the simulator; the
asyncio TCP runtime — the deployment model the paper actually evaluates —
had correctness coverage but no recorded performance.  This sweep drives
:class:`~repro.net.LocalCluster` (or the one-process-per-member
:class:`~repro.net.MultiProcCluster`) through real ``AmcastClient``
sessions over localhost sockets, sweeping protocol × leader batch ×
ingress batch, and records throughput to ``results/net_*.txt``.

The wire-path knobs under test are the point:

* ``--codec pickle`` / ``--no-coalesce`` reproduce the pre-overhaul wire
  path (whole-frame pickle, one ``drain()`` await per frame) — that run
  is the recorded baseline, ``results/net_baseline.txt``.
* The defaults (binary codec, writer coalescing) are the overhauled path,
  recorded as ``results/net_fast.txt``.
* ``--loop uvloop`` swaps in uvloop when installed and degrades honestly
  (the recorded loop label says what actually ran) when not.
* ``--procs lanes`` hosts every member — hence every lane leader — in
  its own OS process.

Run ``python -m repro bench-net``; ``--quick`` is the CI smoke grid,
``--out FILE`` writes the standard results-file block (header comment,
table, headline).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..client import AmcastClientOptions
from ..config import BatchingOptions, ClusterConfig
from ..net import LocalCluster, MultiProcCluster, TransportOptions
from ..net.codec import CODEC_STATS
from ..obs import ObsOptions
from ..protocols import PROTOCOLS
from ..workload.netdrive import drive_cluster, install_loop
from .driver import (
    BenchSpec,
    int_list,
    option,
    positive_int,
)
from .harness import apply_batching
from .metrics import summarize_latencies

#: Protocols swept by default: the paper's white-box protocol and the
#: strongest black-box baseline.
NET_PROTOCOLS = ("wbcast", "ftskeen")


@dataclass(frozen=True)
class NetPoint:
    """One measured (protocol, wire config, batch, ingress) grid cell."""

    protocol: str
    codec: str
    coalesce: bool
    loop: str
    procs: str
    batch: int
    ingress: int
    sessions: int
    window: int
    throughput: float
    mean_latency: float
    p95_latency: float
    completed: int
    submitted: int
    backpressure_events: int
    #: With ``--obs``: hot-path message types that fell back to pickle in
    #: this cell (name -> count), and frames rejected as corrupt.
    codec_fallbacks: Dict[str, int] = field(default_factory=dict)
    corrupt_frames: int = 0


@dataclass(frozen=True)
class NetParams:
    """The sweep's grid; fields built with ``option`` are its flags."""

    protocols: Tuple[str, ...] = option(
        NET_PROTOCOLS,
        "--protocol",
        choices=(*NET_PROTOCOLS, "all"),
        default="all",
        convert=lambda v: (v,),
        help="protocol axis (default: wbcast and ftskeen)",
    )
    codec: str = option(
        "binary",
        "--codec",
        choices=("binary", "pickle"),
        default="binary",
        help="wire codec: struct-packed binary (default) or the "
        "pre-overhaul whole-frame pickle (the recorded baseline)",
    )
    coalesce: bool = option(
        True,
        "--no-coalesce",
        action="store_true",
        convert=lambda v: not v,
        help="flush one frame per drain() await (the pre-overhaul writer)",
    )
    loop: str = option(
        "default",
        "--loop",
        choices=("default", "uvloop"),
        default="default",
        help="event loop; uvloop degrades to the default loop (with an "
        "honest label in the results) when not installed",
    )
    #: ``"1"``: whole cluster in one process; ``"lanes"``: one OS process
    #: per member, so each lane leader runs alone (MultiProcCluster).
    procs: str = option(
        "1",
        "--procs",
        choices=("1", "lanes"),
        default="1",
        help="'1': whole cluster in one process; 'lanes': one OS process "
        "per member, so each lane leader runs alone",
    )
    #: Leader-side batch sizes (1 = the paper's per-message protocol).
    batch_sizes: Tuple[int, ...] = option(
        (1, 8),
        "--batch-sizes",
        type=int_list,
        metavar="N[,N...]",
        help="leader-side batch-size axis (default: 1,8)",
    )
    #: Client-side ingress coalescing sizes (1 = one MULTICAST per msg).
    ingress_batches: Tuple[int, ...] = option(
        (1, 16),
        "--ingress-batch",
        type=int_list,
        metavar="N[,N...]",
        help="client-side ingress coalescing axis (default: 1,16)",
    )
    sessions: int = option(
        2,
        "--sessions",
        type=positive_int,
        metavar="N",
        help="concurrent AmcastClient sessions (default: 2)",
    )
    messages_per_session: int = option(
        400,
        "--messages",
        type=positive_int,
        metavar="N",
        help="messages per session (default: 400)",
    )
    #: Outstanding submissions per session; deep enough to keep writer
    #: queues non-empty, which is what coalescing feeds on.
    window: int = option(
        128,
        "--window",
        type=positive_int,
        metavar="N",
        help="outstanding submissions per session (default: 128)",
    )
    obs: bool = option(
        False,
        "--obs",
        action="store_true",
        help="instrument every cluster with the telemetry registry and "
        "report wire-path health (codec hot-path fallbacks, corrupt "
        "frames) after the sweep",
    )
    num_groups: int = 2
    group_size: int = 3
    dest_k: int = 2
    max_queue: Optional[int] = 512
    linger: float = 0.002
    timeout: float = 120.0
    seed: int = 42


def _protocol_options(protocol: str, batch: int, linger: float):
    protocol_cls = PROTOCOLS[protocol]
    if batch <= 1 or not getattr(protocol_cls, "SUPPORTS_BATCHING", False):
        return None
    return apply_batching(
        protocol_cls, None, BatchingOptions(max_batch=batch, max_linger=linger)
    )


def run_point(sweep: NetParams, protocol: str, batch: int, ingress: int) -> NetPoint:
    loop_label = install_loop(sweep.loop)
    codec_base = CODEC_STATS.snapshot() if sweep.obs else None
    protocol_cls = PROTOCOLS[protocol]
    config = ClusterConfig.build(
        num_groups=sweep.num_groups,
        group_size=sweep.group_size,
        num_clients=sweep.sessions,
    )
    transport_options = TransportOptions(
        codec=sweep.codec,
        coalesce=sweep.coalesce,
        max_queue=sweep.max_queue,
    )
    ingress_options = (
        BatchingOptions(max_batch=ingress, max_linger=sweep.linger)
        if ingress > 1
        else None
    )
    client_options = AmcastClientOptions(
        window=sweep.window,
        retry_timeout=2.0,
        ingress=ingress_options,
    )
    cluster_cls = MultiProcCluster if sweep.procs == "lanes" else LocalCluster

    async def scenario():
        cluster = cluster_cls(
            config,
            protocol_cls,
            options=_protocol_options(protocol, batch, sweep.linger),
            seed=sweep.seed,
            client_options=client_options,
            num_sessions=sweep.sessions,
            transport_options=transport_options,
            obs=ObsOptions(enabled=True) if sweep.obs else None,
        )
        await cluster.start()
        try:
            return await drive_cluster(
                cluster,
                sweep.messages_per_session,
                dest_k=sweep.dest_k,
                timeout=sweep.timeout,
                seed=sweep.seed,
            )
        finally:
            await cluster.stop()

    result = asyncio.run(scenario())
    codec_health = {}
    if codec_base is not None:
        codec_health = dict(
            codec_fallbacks=CODEC_STATS.hot_path_fallbacks(codec_base),
            corrupt_frames=CODEC_STATS.corrupt_frames - codec_base["corrupt_frames"],
        )
    summary = summarize_latencies(result.latencies)
    return NetPoint(
        protocol=protocol,
        codec=sweep.codec,
        coalesce=sweep.coalesce,
        loop=loop_label,
        procs=sweep.procs,
        batch=batch,
        ingress=ingress,
        sessions=sweep.sessions,
        window=sweep.window,
        throughput=result.throughput,
        mean_latency=summary.mean if summary else float("nan"),
        p95_latency=summary.p95 if summary else float("nan"),
        completed=result.completed,
        submitted=result.submitted,
        backpressure_events=result.backpressure_events,
        **codec_health,
    )


def cells(sweep: NetParams) -> Iterator[Tuple[str, int, int]]:
    for protocol in sweep.protocols:
        batches = (
            tuple(sweep.batch_sizes)
            if getattr(PROTOCOLS[protocol], "SUPPORTS_BATCHING", False)
            else (1,)
        )
        for batch in batches:
            for ingress in sweep.ingress_batches:
                yield protocol, batch, ingress


COLUMNS = (
    ("protocol", lambda p: p.protocol),
    ("codec", lambda p: p.codec),
    ("coalesce", lambda p: "on" if p.coalesce else "off"),
    ("procs", lambda p: p.procs),
    ("batch", lambda p: p.batch),
    ("ingress", lambda p: p.ingress),
    ("sessions", lambda p: p.sessions),
    ("msgs/s", lambda p: p.throughput),
    ("mean lat (ms)", lambda p: p.mean_latency * 1000),
    ("p95 lat (ms)", lambda p: p.p95_latency * 1000),
    ("completed", lambda p: f"{p.completed}/{p.submitted}"),
    ("backpressure", lambda p: p.backpressure_events),
)


def headline(points: List[NetPoint]) -> str:
    lines = []
    for protocol in dict.fromkeys(p.protocol for p in points):
        best = max(
            (p for p in points if p.protocol == protocol), key=lambda p: p.throughput
        )
        lines.append(
            f"{protocol} [{best.codec}, coalesce {'on' if best.coalesce else 'off'}, "
            f"{best.loop}, procs={best.procs}]: peak {best.throughput:,.0f} msgs/s "
            f"(batch {best.batch}, ingress {best.ingress}, "
            f"{best.sessions} sessions x window {best.window})"
        )
    return "\n".join(lines)


def codec_footer(sweep: NetParams, points: List[NetPoint], _extra) -> List[str]:
    """``--obs``: the wire-path health line (hot-path pickle fallbacks)."""
    if not sweep.obs:
        return []
    fallbacks: Dict[str, int] = {}
    for p in points:
        for name, count in p.codec_fallbacks.items():
            fallbacks[name] = fallbacks.get(name, 0) + count
    if fallbacks:
        detail = ", ".join(
            f"{name} x{count}" for name, count in sorted(fallbacks.items())
        )
        return [f"codec     : HOT-PATH PICKLE FALLBACKS — {detail}"]
    corrupt = sum(p.corrupt_frames for p in points)
    return [f"codec     : hot path clean (0 pickle fallbacks, {corrupt} corrupt frames)"]


def gates(_sweep: NetParams, points: List[NetPoint], _extra) -> List[str]:
    # A run where any cell lost messages to the deadline is not a valid
    # measurement — fail the invocation so CI notices.
    if any(p.completed < p.submitted for p in points):
        return ["some points timed out before completing"]
    return []


BENCH = BenchSpec(
    name="bench-net",
    help="TCP runtime throughput sweep over localhost sockets "
    "(codec/coalescing/procs wire-path axes)",
    params=NetParams,
    # One protocol, per-message vs ingress-batched.
    quick=dict(
        protocols=("wbcast",),
        batch_sizes=(1,),
        ingress_batches=(1, 16),
        messages_per_session=60,
        timeout=60.0,
    ),
    flags=dict(
        out="also write the standard results block to FILE",
        quick="CI smoke grid (wbcast only, tiny message counts)",
        profile="cProfile each grid cell as its own phase and print per-phase "
        "CPU attribution ('-' or no value: stdout; FILE: write there)",
    ),
    cells=cells,
    run_cell=lambda sweep, cell: run_point(sweep, *cell),
    phase=lambda cell: f"{cell[0]}/batch{cell[1]}/ingress{cell[2]}",
    columns=COLUMNS,
    title="TCP runtime sweep — localhost sockets, AmcastClient sessions",
    headline=headline,
    footer=codec_footer,
    gates=gates,
    header=(
        "protocol x leader batch x ingress batch, closed-loop AmcastClient "
        "sessions on localhost TCP",
        "p95 is nearest-rank (bench.metrics.summarize_latencies); files "
        "recorded before PR 12 used statistics.quantiles(n=20), exclusive",
    ),
    needs_network=True,
)
