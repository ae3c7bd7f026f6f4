"""Message-complexity analysis: what the latency of Fig. 5 costs in traffic.

The white-box protocol buys its 3δ by fanning ACCEPTs from every
destination leader to *every process of every destination group* and
collecting acks back at every leader — Θ(k²·n) messages for k destination
groups of n members, versus Θ(k·n + k²) for the consensus-as-a-black-box
designs.  The paper does not tabulate this; we measure it because it is
the mechanism behind the one divergence our CPU model shows from Fig. 7
(see EXPERIMENTS.md §4).

One isolated multicast per configuration; we count every wire message
(client submission included) and the critical-path depth in δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Type

from ..sim import ConstantDelay
from .driver import BenchSpec
from .latency_table import DELTA, _build, _group_size_for
from .report import render_table


@dataclass(frozen=True)
class ComplexityPoint:
    protocol: str
    dest_k: int
    group_size: int
    messages: int
    messages_excl_self: int
    leader_delivery_delta: float


def measure_complexity(
    protocol_cls: Type, dest_k: int, num_groups: int = 4
) -> ComplexityPoint:
    sim, _config, trace, tracker, (client,) = _build(
        protocol_cls,
        ConstantDelay(DELTA),
        [[(0.0, tuple(range(dest_k)))]],
        num_groups=num_groups,
    )
    sim.run()
    mid = client.sent[0]
    latency = tracker.latency(mid)
    non_self = sum(1 for r in trace.sends if r.src != r.dst)
    return ComplexityPoint(
        protocol=protocol_cls.__name__.replace("Process", ""),
        dest_k=dest_k,
        group_size=_group_size_for(protocol_cls),
        messages=trace.send_count,
        messages_excl_self=non_self,
        leader_delivery_delta=(latency / DELTA) if latency else float("nan"),
    )


def complexity_table(dest_ks=(1, 2, 4)) -> List[ComplexityPoint]:
    from ..protocols import FastCastProcess, FtSkeenProcess, SkeenProcess, WbCastProcess

    points: List[ComplexityPoint] = []
    for cls in (SkeenProcess, WbCastProcess, FastCastProcess, FtSkeenProcess):
        for k in dest_ks:
            points.append(measure_complexity(cls, k))
    return points


def format_complexity(points: List[ComplexityPoint]) -> str:
    return render_table(
        ["protocol", "dests k", "2f+1", "wire msgs", "excl. loopback", "commit (δ)"],
        [
            (p.protocol, p.dest_k, p.group_size, p.messages,
             p.messages_excl_self, p.leader_delivery_delta)
            for p in points
        ],
        title=(
            "Message complexity per multicast (one isolated message; "
            "latency-for-traffic trade-off behind Fig. 5)"
        ),
    )


BENCH = BenchSpec(
    name="complexity",
    help="message-complexity table",
    run_cell=lambda _params, _cell: complexity_table(),
    report=lambda _params, results: format_complexity(results[0]),
)
