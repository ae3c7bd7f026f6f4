"""Batching ablation: throughput scaling vs. batch size (Fig. 7 topology).

The paper's protocols issue per-message rounds — WbCast one ACCEPT quorum
round trip per multicast, FtSkeen/FastCast one or two consensus commands —
so Figs. 7–8 saturate on per-message handling cost.  The protocol-agnostic
:class:`~repro.protocols.batching.Batcher` amortises that cost for all
three implementations, which lets this ablation attribute throughput to
the *protocol* rather than to who happens to batch: every (protocol,
linger mode, batch size, client count) grid cell runs the identical
Fig. 7 LAN testbed (same CPU model, client loop and topology), so the
only varying factors are the batching knobs.

Acceptance bars: batched WbCast ≥2x its per-message peak at batch 16;
batched FtSkeen and FastCast ≥1.5x theirs.

Run ``python -m repro bench-batching`` for the default grid.
``--protocol`` narrows the protocol axis, ``--linger-mode
adaptive``/``both`` adds the adaptive linger axis, ``--ingress-batch 1,16`` adds the client-side ingress
coalescing axis (AmcastClient sessions batching their submissions per
destination leader — the remaining per-message saturation term after the
leader-side batching of PRs 1–2), ``--client-window`` widens the
closed-loop window so ingress batches have company to coalesce with,
``--quick`` runs a CI-sized smoke grid, and ``REPRO_BENCH_FULL=1``
enables the paper-scale grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import BatchingOptions
from ..placement import PlacementPolicy, lane_timings
from ..protocols import BATCHING_PROTOCOLS, PROTOCOLS
from ..protocols.wbcast import WbCastOptions
from ..sim.network import WAN_ONE_WAY
from .driver import (
    BenchSpec,
    int_list,
    option,
    positive_int,
)
from .sweep import DEFAULT_CPU_COST, SweepPoint
from .sweep import run_point as sweep_run_point
from .topologies import (
    LAN_ONE_WAY,
    WAN_MAX_LINGER,
    lan_testbed,
    wan_site_map,
    wan_testbed,
)

#: Batch sizes swept by default; 1 is the paper's per-message protocol.
BATCH_SIZES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class BatchingPoint(SweepPoint):
    """One (protocol, linger mode, batch, ingress, shards, clients) point:
    the sweep measurement (``protocol`` holding the registry name) plus
    the knobs it ran under."""

    linger_mode: str = "-"
    batch: int = 1
    ingress: int = 1
    #: Ordering lanes per group (sharded multi-leader groups; 1 = paper).
    shards: int = 1
    #: Lane/leader placement policy: "flat" (topology-blind deal) or
    #: "site" (site-affine deal + tree overlay + geo-spread clients).
    placement: str = "flat"
    #: Delivery ordering granularity this cell ran under ("total" or
    #: "keys"; non-WbCast protocols always record "total").
    conflict: str = "total"


@dataclass(frozen=True)
class BatchingParams:
    """The ablation's grid; fields built with ``option`` are its flags."""

    protocols: Tuple[str, ...] = option(
        BATCHING_PROTOCOLS,
        "--protocol",
        choices=(*BATCHING_PROTOCOLS, "all"),
        default="all",
        convert=lambda v: (v,),
        help="protocol axis (default: all batching-capable protocols)",
    )
    linger_modes: Tuple[str, ...] = option(
        ("fixed",),
        "--linger-mode",
        choices=("fixed", "adaptive", "both"),
        default="fixed",
        convert=lambda v: ("fixed", "adaptive") if v == "both" else (v,),
        help="linger mode axis: fixed max_linger, adaptive (EWMA of "
        "inter-arrival times, bounded by min/max linger), or both",
    )
    #: Client-side ingress coalescing axis (1 = one MULTICAST per message,
    #: the paper's ingress; >1 lets AmcastClient sessions coalesce
    #: submissions per destination leader, amortising the leader's
    #: per-message ingress CPU — the remaining saturation term after PR 2).
    ingress_batches: Tuple[int, ...] = option(
        (1,),
        "--ingress-batch",
        type=int_list,
        metavar="N[,N...]",
        help="client-side ingress coalescing axis: AmcastClient batch "
        "sizes to sweep, e.g. '1,16' (default: 1 — one MULTICAST per "
        "message, the paper's ingress)",
    )
    #: Outstanding multicasts per client; >1 sustains per-leader pressure.
    client_window: int = option(
        4,
        "--client-window",
        type=positive_int,
        metavar="N",
        help="outstanding multicasts per closed-loop client (default: 4; "
        "raise it to give ingress batches company to coalesce with)",
    )
    #: Sharded multi-leader axis: ordering lanes per group (1 = the
    #: paper's single leader per group, the saturation term left after
    #: PR 3's ingress batching).
    shards: Tuple[int, ...] = option(
        (1,),
        "--shards",
        type=int_list,
        metavar="N[,N...]",
        help="sharded multi-leader axis: ordering lanes per group to "
        "sweep, e.g. '1,4' (default: 1 — the paper's single leader per "
        "group; applies to protocols with sharding support, today WbCast)",
    )
    group_size: int = option(
        3,
        "--group-size",
        type=int,
        metavar="N",
        help="members per group (odd, default 3; the sharding ablation "
        "uses 5 so four lanes deal onto four distinct members)",
    )
    client_counts: Tuple[int, ...] = option(
        (100, 300),
        "--clients",
        type=int_list,
        metavar="N[,N...]",
        help="client-count axis override (default: 100,300; peaks need "
        "deeper saturation, e.g. '300,600,1000')",
    )
    batch_sizes: Tuple[int, ...] = option(
        BATCH_SIZES,
        "--batch-sizes",
        type=int_list,
        metavar="N[,N...]",
        help="batch-size axis override (default: 1,2,4,8,16)",
    )
    #: Placement axis for the sharded points: "flat" keeps the recorded
    #: topology-blind deal; "site" attaches a site-affine placement
    #: policy (co-located lane leaders, geo-spread clients, tree-overlay
    #: ACCEPT dissemination) — the WAN-regression fix.  Single-leader
    #: (shards=1) points always run flat: with one lane the site deal
    #: degenerates to the legacy one, so a separate row would only
    #: duplicate the baseline.
    placements: Tuple[str, ...] = option(
        ("flat",),
        "--placement",
        choices=("flat", "site", "both"),
        default="flat",
        convert=lambda v: ("flat", "site") if v == "both" else (v,),
        help="lane/leader placement axis for sharded WAN points: flat "
        "(topology-blind deal, the recorded baseline), site (site-affine "
        "lane leaders + geo-spread clients + tree-overlay dissemination), "
        "or both (ignored off the WAN / at shards=1)",
    )
    #: Testbed: ``"lan"`` (Fig. 7 CloudLab analogue) or ``"wan"`` (the
    #: Fig. 8 three-data-centre analogue) — the WAN axis is what the
    #: ROADMAP's paper-scale *sharded WAN grid* records: lanes spread the
    #: per-message leader work even when δ, not CPU, dominates latency.
    topology: str = option(
        "lan",
        "--topology",
        choices=("lan", "wan"),
        default="lan",
        help="testbed: the Fig. 7 LAN (default) or the Fig. 8 "
        "three-data-centre WAN (sharded WAN grid)",
    )
    #: Only WbCast has the conflict layer; other protocols in the grid
    #: keep running total so the rows stay comparable.
    conflict: str = option(
        "total",
        "--conflict",
        choices=("total", "keys"),
        default="total",
        help="delivery ordering granularity: total (the paper's atomic "
        "multicast, default) or keys (conflict-aware delivery — commuting "
        "disjoint-key messages skip the cross-lane merge wait; WbCast "
        "only, other protocols in the grid keep running total)",
    )
    #: Unfootprinted messages would all be fences in keys mode.
    key_universe: int = option(
        64,
        "--key-universe",
        type=positive_int,
        metavar="N",
        help="key universe for the synthetic single-key footprints "
        "clients stamp in keys mode (default: 64)",
    )
    num_groups: int = 6
    dest_k: int = 2
    messages_per_client: int = 6
    cpu_cost: float = DEFAULT_CPU_COST
    cpu_jitter: float = 0.1
    network_jitter: float = 0.05
    pipeline_depth: int = 4
    seed: int = 42

    @property
    def max_linger(self) -> float:
        """Linger several one-way delays so batches fill under load: 0.5 ms
        against a ~5 ms saturated LAN latency; on the WAN, where one-way
        delays are ~1000x LAN, the window scales with them."""
        return WAN_MAX_LINGER if self.topology == "wan" else 10 * LAN_ONE_WAY

    @property
    def min_linger(self) -> float:
        """Adaptive-linger floor: 0 keeps the LAN-calibrated default; on
        the WAN it comes from the delay matrix, so the adaptive mode
        cannot flush far below what the network can carry."""
        if self.topology != "wan":
            return 0.0
        return lane_timings(WAN_ONE_WAY).min_linger


def batching_options(
    sweep: BatchingParams, batch: int, linger_mode: str = "fixed"
) -> BatchingOptions:
    """The knob settings for one swept batch size (1 = batching off)."""
    if batch <= 1:
        return BatchingOptions()
    return BatchingOptions(
        max_batch=batch,
        max_linger=sweep.max_linger,
        pipeline_depth=sweep.pipeline_depth,
        linger_mode=linger_mode,
        min_linger=min(sweep.min_linger, sweep.max_linger),
    )


def ingress_options(
    sweep: BatchingParams, ingress: int
) -> Optional[BatchingOptions]:
    """Client-session coalescing knobs for one swept ingress batch size."""
    if ingress <= 1:
        return None
    return BatchingOptions(max_batch=ingress, max_linger=sweep.max_linger)


def wan_protocol_options(protocol: str, placement: str = "flat"):
    """Topology-derived protocol tunables for the WAN grid.

    The WbCast defaults are LAN-calibrated: a 0.1 ms probe re-arm against
    a ~100 ms WAN watermark round is a probe storm.  Deriving the pacing
    from the delay matrix fixes the distortion for *every* WAN point —
    S=1 baseline and sharded alike — so speedup ratios compare protocols,
    not calibration accidents.  Non-WbCast protocols have no lane
    machinery to pace; they return None (protocol defaults).
    """
    if protocol != "wbcast":
        return None
    timings = lane_timings(WAN_ONE_WAY)
    probe = (
        timings.site_probe_delay if placement == "site" else timings.lane_probe_delay
    )
    return WbCastOptions(
        lane_probe_delay=probe,
        lane_advance_interval=timings.lane_advance_interval,
    )


def _wan_config_hook(placement: str):
    """Config hook attaching the site-affine policy ("site" placement)."""
    if placement != "site":
        return None
    def hook(config):
        sites = wan_site_map(config)
        return replace(config, placement=PlacementPolicy.site_affine(sites))

    return hook


def run_point(
    sweep: BatchingParams,
    protocol: str,
    batch: int,
    clients: int,
    linger_mode: str = "fixed",
    ingress: int = 1,
    shards: int = 1,
    placement: str = "flat",
) -> BatchingPoint:
    # One measurement = one point of the generic sweep harness; only the
    # protocol and the batching/sharding/placement knobs vary between
    # grid cells.
    protocol_options = None
    config_hook = None
    if sweep.topology == "wan":
        protocol_options = wan_protocol_options(protocol, placement)
        config_hook = _wan_config_hook(placement)
        # Same network geometry for flat and site placements: only the
        # lane deal (and the overlay it enables) differs between the rows.
        topology = lambda config: wan_testbed(  # noqa: E731
            config,
            jitter=sweep.network_jitter,
            site_map=wan_site_map(config),
        )
    else:
        topology = lambda config: lan_testbed(config, jitter=sweep.network_jitter)  # noqa: E731
    # Only WbCast carries the conflict-relation layer; other protocols in
    # the grid silently keep the total order so their rows stay comparable.
    conflict = sweep.conflict if protocol == "wbcast" else "total"
    point = sweep_run_point(
        PROTOCOLS[protocol],
        topology,
        sweep,
        sweep.dest_k,
        clients,
        batching=batching_options(sweep, batch, linger_mode),
        ingress=ingress_options(sweep, ingress),
        shards_per_group=shards,
        protocol_options=protocol_options,
        config_hook=config_hook,
        conflict=conflict,
    )
    return BatchingPoint(
        **{**asdict(point), "protocol": protocol},
        linger_mode=linger_mode if batch > 1 else "-",
        batch=batch,
        ingress=ingress,
        shards=shards,
        placement=placement,
        conflict=conflict,
    )


def cells(sweep: BatchingParams) -> Iterator[Tuple]:
    """The grid in run order: one ``run_point`` argument tuple per cell."""
    for protocol in sweep.protocols:
        sharding = getattr(PROTOCOLS[protocol], "SUPPORTS_SHARDING", False)
        shard_counts = tuple(sweep.shards) if sharding else (1,)
        for batch in sweep.batch_sizes:
            modes = ("fixed",) if batch <= 1 else tuple(sweep.linger_modes)
            for mode in modes:
                for ingress in sweep.ingress_batches:
                    for shards in shard_counts:
                        # Placement only differentiates sharded points on
                        # the WAN; everything else runs the flat deal once.
                        if shards > 1 and sweep.topology == "wan":
                            placements = tuple(dict.fromkeys(sweep.placements))
                        else:
                            placements = ("flat",)
                        for placement in placements:
                            for clients in sweep.client_counts:
                                yield (
                                    protocol, batch, clients, mode,
                                    ingress, shards, placement,
                                )


def peak_throughputs(
    points: List[BatchingPoint],
    protocol: Optional[str] = None,
    linger_mode: Optional[str] = None,
    ingress: Optional[int] = None,
    shards: Optional[int] = None,
    placement: Optional[str] = None,
) -> Dict[int, float]:
    """Best throughput per batch size across client counts.

    ``protocol`` filters to one protocol; ``linger_mode`` to one mode
    (the batch-1 per-message baseline, recorded with mode ``"-"``, always
    passes the mode filter so speedups stay comparable); ``ingress`` to
    one client-side ingress batch size; ``shards`` to one lane count;
    ``placement`` to one lane-placement policy (single-leader points are
    always recorded flat and always pass, so site-placement speedups keep
    the same baseline).  ``None`` keeps the all-points behaviour.
    """
    peaks: Dict[int, float] = {}
    for p in points:
        if protocol is not None and p.protocol != protocol:
            continue
        if linger_mode is not None and p.linger_mode not in ("-", linger_mode):
            continue
        if ingress is not None and p.ingress != ingress:
            continue
        if shards is not None and p.shards != shards:
            continue
        if placement is not None and p.shards > 1 and p.placement != placement:
            continue
        peaks[p.batch] = max(peaks.get(p.batch, 0.0), p.throughput)
    return peaks


def shard_speedup(
    points: List[BatchingPoint],
    shards: int,
    batch: int = 16,
    ingress: int = 16,
    protocol: Optional[str] = None,
    placement: Optional[str] = None,
) -> float:
    """Peak-throughput ratio of ``shards`` lanes over the single-leader
    protocol at the same batching knobs (the sharding acceptance bar).

    ``placement`` picks which lane deal the sharded side ran under; the
    single-leader base is placement-agnostic by construction.
    """
    base = peak_throughputs(points, protocol=protocol, ingress=ingress, shards=1)
    sharded = peak_throughputs(
        points, protocol=protocol, ingress=ingress, shards=shards,
        placement=placement,
    )
    if base.get(batch, 0.0) <= 0:
        return float("nan")
    return sharded.get(batch, 0.0) / base[batch]


def peak_speedup(
    points: List[BatchingPoint],
    batch: int = 16,
    protocol: Optional[str] = None,
    linger_mode: Optional[str] = None,
) -> float:
    """Peak-throughput ratio of ``batch`` over the per-message protocol."""
    peaks = peak_throughputs(points, protocol=protocol, linger_mode=linger_mode)
    base = peaks.get(1, 0.0)
    if base <= 0:
        return float("nan")
    return peaks.get(batch, 0.0) / base


def table_title(sweep: BatchingParams, points: List[BatchingPoint]) -> str:
    testbed = "Fig. 8 WAN" if sweep.topology == "wan" else "Fig. 7 LAN"
    if any(p.conflict == "keys" for p in points):
        testbed += ", conflict=keys"
    return f"Batching ablation — throughput vs batch size per protocol ({testbed})"


COLUMNS = (
    ("protocol", lambda p: p.protocol),
    ("linger", lambda p: p.linger_mode),
    ("batch", lambda p: p.batch),
    ("ingress", lambda p: p.ingress),
    ("shards", lambda p: p.shards),
    ("placement", lambda p: p.placement),
    ("clients", lambda p: p.clients),
    ("msgs/s", lambda p: p.throughput),
    ("mean lat (ms)", lambda p: p.mean_latency * 1000),
    ("ack leg (ms)", lambda p: p.mean_ack_latency * 1000),
    ("order leg (ms)", lambda p: p.mean_post_ack_latency * 1000),
    ("p95 lat (ms)", lambda p: p.p95_latency * 1000),
    ("completed", lambda p: p.completed),
)


def headline(points: List[BatchingPoint]) -> str:
    # One line per (protocol, batch size); when several linger modes,
    # ingress batch sizes or shard counts were swept, one line per
    # combination too — merging them would silently credit whichever axis
    # won the peak.
    modes = [m for m in dict.fromkeys(p.linger_mode for p in points) if m != "-"]
    ingresses = sorted({p.ingress for p in points})
    shard_counts = sorted({p.shards for p in points})
    placements = list(dict.fromkeys(p.placement for p in points if p.shards > 1)) or ["flat"]
    lines = []
    for protocol in dict.fromkeys(p.protocol for p in points):
        for mode in modes or [None]:
            for ingress in ingresses:
                for shards in shard_counts:
                    for placement in placements if shards > 1 else ["flat"]:
                        peaks = peak_throughputs(
                            points, protocol=protocol, linger_mode=mode,
                            ingress=ingress, shards=shards, placement=placement,
                        )
                        base = peaks.get(1, 0.0)
                        tag = f" [{mode}]" if len(modes) > 1 else ""
                        itag = f" ingress={ingress}" if len(ingresses) > 1 else ""
                        stag = f" shards={shards}" if len(shard_counts) > 1 else ""
                        ptag = (
                            f" place={placement}"
                            if len(placements) > 1 and shards > 1
                            else ""
                        )
                        for batch in sorted(peaks):
                            if batch == 1 or base <= 0:
                                continue
                            lines.append(
                                f"{protocol}{tag}{itag}{stag}{ptag} batch={batch}: "
                                f"peak {peaks[batch]:,.0f} msgs/s "
                                f"({peaks[batch] / base:.2f}x over per-message)"
                            )
    # The sharding acceptance bar: lanes vs the single leader at the same
    # (largest) batching knobs, one line per placement policy swept.
    if len(shard_counts) > 1:
        batch = max(p.batch for p in points)
        ingress = max(ingresses)
        for protocol in dict.fromkeys(p.protocol for p in points):
            for shards in shard_counts:
                if shards == 1:
                    continue
                for placement in placements:
                    ratio = shard_speedup(
                        points, shards, batch=batch, ingress=ingress,
                        protocol=protocol, placement=placement,
                    )
                    ptag = f" [{placement}]" if len(placements) > 1 else ""
                    if ratio == ratio:  # skip NaN (protocol without sharding)
                        lines.append(
                            f"{protocol} shards={shards}{ptag}: "
                            f"{ratio:.2f}x peak over single-leader "
                            f"(batch {batch}, ingress {ingress})"
                        )
    return "\n".join(lines)


BENCH = BenchSpec(
    name="bench-batching",
    help="batch-size throughput ablation across protocols "
    "(REPRO_BENCH_FULL=1 for full grid)",
    params=BatchingParams,
    # Per-message vs. one batched point per protocol.
    quick=dict(batch_sizes=(1, 8), client_counts=(100,), messages_per_client=4),
    full=dict(
        client_counts=(100, 300, 600, 1000), num_groups=10, messages_per_client=10
    ),
    flags=dict(
        quick="CI smoke grid (per-message vs one batched point)",
        profile="cProfile each (protocol, batch) phase and print per-phase "
        "CPU attribution ('-' or no value: stdout; FILE: write there)",
    ),
    cells=cells,
    run_cell=lambda sweep, cell: run_point(sweep, *cell),
    phase=lambda cell: f"{cell[0]}/batch{cell[1]}",
    columns=COLUMNS,
    title=table_title,
    headline=headline,
)
