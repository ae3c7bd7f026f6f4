"""Shared client-sweep machinery for the Fig. 7 / Fig. 8 reproductions.

One *point* = (protocol, number of destination groups, number of clients):
closed-loop clients multicast to ``dest_k`` uniformly random groups over a
given topology, with a per-process CPU service-time model providing the
saturation behaviour of the paper's figures.  We report mean latency and
throughput per point, plus the paper's headline comparison: WbCast's
improvement over FastCast at the largest client count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import BatchingOptions, ClusterConfig
from ..protocols import FastCastProcess, FtSkeenProcess, WbCastProcess
from ..sim import UniformCpu
from ..sim.network import DelayModel
from ..workload import ClientOptions
from .driver import BenchSpec, full_sweep_enabled
from .harness import run_workload
from .metrics import mean_split, summarize_latencies
from .report import render_table

#: Default CPU service time per handled message, calibrated so a 10-group
#: LAN cluster saturates around 10^3 clients (the region Fig. 7 reports).
DEFAULT_CPU_COST = 0.000008  # 8 µs


@dataclass(frozen=True)
class SweepPoint:
    protocol: str
    dest_k: int
    clients: int
    mean_latency: float
    p95_latency: float
    throughput: float
    completed: int
    #: SUBMIT_ACK-driven split of the end-to-end latency: launch → fully
    #: acked, and acked → first delivery everywhere (NaN when unmeasured).
    mean_ack_latency: float = float("nan")
    mean_post_ack_latency: float = float("nan")


@dataclass
class SweepConfig:
    num_groups: int = 10
    group_size: int = 3
    client_counts: Sequence[int] = (50, 200, 500, 1000)
    dest_ks: Sequence[int] = (2, 6)
    messages_per_client: int = 10
    cpu_cost: float = DEFAULT_CPU_COST
    cpu_jitter: float = 0.1
    network_jitter: float = 0.05
    seed: int = 42
    #: Outstanding multicasts per closed-loop client (1 = paper's loop).
    client_window: int = 1
    #: With conflict="keys": clients stamp each submission with one key
    #: drawn uniformly from a universe of this size (0: no footprints —
    #: every message is a fence and keys mode degenerates to total).
    key_universe: int = 0


def run_point(
    protocol_cls,
    topology_factory: Callable[[ClusterConfig], DelayModel],
    sweep: Any,
    dest_k: int,
    clients: int,
    batching: Optional[BatchingOptions] = None,
    ingress: Optional[BatchingOptions] = None,
    shards_per_group: int = 1,
    protocol_options: Optional[object] = None,
    config_hook: Optional[Callable[[ClusterConfig], ClusterConfig]] = None,
    conflict: str = "total",
) -> SweepPoint:
    """One measurement.  ``sweep`` supplies the grid-wide sizing (a
    :class:`SweepConfig`, or any params object with its fields); the
    keyword knobs are what a bench may vary cell by cell:

    * ``batching`` — leader-side batching, applied to protocols that
      support it (None: the paper's per-message protocol everywhere);
    * ``ingress`` — client-side ingress coalescing (None: one MULTICAST
      per message, the paper's wire protocol);
    * ``shards_per_group`` — ordering lanes per group (honoured by
      protocols declaring SUPPORTS_SHARDING, ignored by the rest);
    * ``protocol_options`` — a pre-built options instance (e.g. a
      ``WbCastOptions`` with topology-derived probe/advance pacing); the
      harness folds ``batching`` on top, so both knobs compose;
    * ``config_hook`` — post-build hook on the cluster config (e.g.
      attaching a placement policy whose site map must match the
      topology factory's);
    * ``conflict`` — "total" (the paper) or "keys" (conflict-aware
      delivery — commuting messages skip the cross-lane merge wait;
      wbcast only).
    """
    config = ClusterConfig.build(
        sweep.num_groups,
        sweep.group_size,
        clients,
        shards_per_group=shards_per_group,
        conflict=conflict,
    )
    if config_hook is not None:
        config = config_hook(config)
    network = topology_factory(config)
    cpu = UniformCpu(sweep.cpu_cost, jitter=sweep.cpu_jitter)
    result = run_workload(
        protocol_cls,
        config=config,
        messages_per_client=sweep.messages_per_client,
        dest_k=dest_k,
        network=network,
        seed=sweep.seed,
        cpu=cpu,
        protocol_options=protocol_options,
        client_options=ClientOptions(
            num_messages=sweep.messages_per_client,
            window=sweep.client_window,
            ingress=ingress,
            key_universe=sweep.key_universe if conflict == "keys" else 0,
        ),
        batching=batching,
        record_sends=False,
        drain_grace=0.0,
    )
    summary = summarize_latencies(result.latencies())
    ack_mean, post_ack_mean = mean_split(result.latency_split())
    return SweepPoint(
        protocol=protocol_cls.__name__,
        dest_k=dest_k,
        clients=clients,
        mean_latency=summary.mean if summary else float("nan"),
        p95_latency=summary.p95 if summary else float("nan"),
        throughput=result.throughput(),
        completed=result.completed,
        mean_ack_latency=ack_mean,
        mean_post_ack_latency=post_ack_mean,
    )


def run_sweep(
    protocols: Dict[str, type],
    topology_factory: Callable[[ClusterConfig], DelayModel],
    sweep: Optional[SweepConfig] = None,
) -> List[SweepPoint]:
    sweep = sweep or SweepConfig()
    points: List[SweepPoint] = []
    for name, cls in protocols.items():
        for dest_k in sweep.dest_ks:
            for clients in sweep.client_counts:
                points.append(run_point(cls, topology_factory, sweep, dest_k, clients))
    return points


def format_sweep(points: List[SweepPoint], title: str) -> str:
    rows = [
        (
            p.protocol.replace("Process", ""),
            p.dest_k,
            p.clients,
            p.mean_latency * 1000,
            p.p95_latency * 1000,
            p.throughput,
        )
        for p in points
    ]
    return render_table(
        ["protocol", "dests", "clients", "mean lat (ms)", "p95 lat (ms)", "msgs/s"],
        rows,
        title=title,
    )


def headline_comparison(points: List[SweepPoint]) -> str:
    """WbCast-vs-FastCast improvement at the largest client count per
    destination-group count — the paper's 70–150% (LAN) / 47–124% (WAN)."""
    lines: List[str] = []
    by_key: Dict[tuple, SweepPoint] = {
        (p.protocol, p.dest_k, p.clients): p for p in points
    }
    dest_ks = sorted({p.dest_k for p in points})
    max_clients = max((p.clients for p in points), default=0)
    for dest_k in dest_ks:
        wb = by_key.get(("WbCastProcess", dest_k, max_clients))
        fc = by_key.get(("FastCastProcess", dest_k, max_clients))
        if not wb or not fc or wb.mean_latency == 0 or wb.throughput == 0:
            continue
        lat_gain = (fc.mean_latency / wb.mean_latency - 1.0) * 100
        thr_gain = (wb.throughput / fc.throughput - 1.0) * 100
        lines.append(
            f"dests={dest_k} @ {max_clients} clients: WbCast vs FastCast — "
            f"latency {lat_gain:+.0f}%, throughput {thr_gain:+.0f}%"
        )
    return "\n".join(lines)


#: The protocols of the paper's Figs. 7-8.
FIGURE_PROTOCOLS: Dict[str, type] = {
    "wbcast": WbCastProcess,
    "fastcast": FastCastProcess,
    "ftskeen": FtSkeenProcess,
}


def figure_bench(
    name: str,
    help: str,
    title: str,
    testbed: Callable[..., DelayModel],
    grid: SweepConfig,
    full_grid: SweepConfig,
) -> Tuple[Callable[..., List[SweepPoint]], BenchSpec]:
    """A client-sweep figure: its ``run(sweep=None)`` function (default:
    ``grid``, or ``full_grid`` under REPRO_BENCH_FULL=1) and its bench."""

    def run(sweep: Optional[SweepConfig] = None) -> List[SweepPoint]:
        sweep = sweep or (full_grid if full_sweep_enabled() else grid)
        return run_sweep(
            FIGURE_PROTOCOLS,
            lambda config: testbed(config, jitter=sweep.network_jitter),
            sweep,
        )

    def report(_params, results) -> str:
        (points,) = results
        return format_sweep(points, title) + "\n\n" + headline_comparison(points)

    return run, BenchSpec(
        name=name, help=help, run_cell=lambda _params, _cell: run(), report=report
    )
