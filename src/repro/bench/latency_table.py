"""Empirical reproduction of the paper's latency table (Theorems 3–4, §VI).

Collision-free latency (CFL): one message, constant one-way delay δ, no
interference; we report the delay until first delivery in every destination
group (the paper's metric — reached at the leaders) and until *all* correct
members delivered (the followers' extra DELIVER hop).

Failure-free latency (FFL): the convoy-effect worst case.  A conflicting
message m' is aimed to arrive at one destination leader *just* before that
leader's clock passes m's global timestamp, over an adversarially fast
link (δ is only an upper bound on delays, so a near-zero link is fair
game — exactly the Fig. 2 construction).  m then waits for m' to commit.
Sweeping the injection offset and taking the worst observed latency of m
reproduces Equation (4): FFL = CFL + C, where C is the protocol's
clock-advance lag.

Expected (paper):  Skeen 2δ/4δ · WbCast 3δ/5δ · FastCast 4δ/8δ ·
FT-Skeen 6δ/12δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import ClusterConfig
from ..sim import ConstantDelay
from ..sim.network import DelayModel
from ..types import ProcessId
from ..workload import ClientOptions, OneShotClient
from .driver import BenchSpec
from .harness import SimCluster
from .report import render_table

#: Theoretical (collision-free, failure-free) latencies in δ units (§VI).
PAPER_LATENCIES: Dict[str, Tuple[int, int]] = {
    "skeen": (2, 4),
    "wbcast": (3, 5),
    "fastcast": (4, 8),
    "ftskeen": (6, 12),
}

DELTA = 0.001  # one δ of simulated time (1 ms)


class _FastLink(DelayModel):
    """Constant δ everywhere except one adversarially fast (src, dst) link."""

    def __init__(self, delta: float, fast_src: ProcessId, fast_dst: ProcessId,
                 eps: float) -> None:
        self._delta = delta
        self._fast = (fast_src, fast_dst)
        self._eps = eps

    def delay(self, src, dst, size, now, rng) -> float:
        if src == dst:
            return 0.0
        if (src, dst) == self._fast:
            return self._eps
        return self._delta

    def bound(self) -> float:
        return self._delta


def _group_size_for(protocol_cls) -> int:
    return 1 if protocol_cls.__name__ == "SkeenProcess" else 3


def _build(
    protocol_cls,
    network,
    schedules,
    num_groups: int = 2,
    options=None,
    shards_per_group: int = 1,
):
    """One simulator with OneShot clients following ``schedules``."""
    config = ClusterConfig.build(
        num_groups,
        _group_size_for(protocol_cls),
        len(schedules),
        shards_per_group=shards_per_group,
    )
    cluster = SimCluster(protocol_cls, config, network=network, protocol_options=options)
    clients = cluster.add_clients(
        lambda i, pid, rt: OneShotClient(
            pid, config, rt, protocol_cls, cluster.tracker, schedules[i], ClientOptions()
        )
    )
    return cluster.sim, config, cluster.trace, cluster.tracker, clients


def measure_cfl(protocol_cls, delta: float = DELTA) -> Tuple[float, float]:
    """(leader CFL, all-members CFL) in δ units for one isolated message."""
    sim, config, trace, tracker, clients = _build(
        protocol_cls, ConstantDelay(delta), [[(0.0, (0, 1))]]
    )
    sim.run()
    mid = clients[0].sent[0]
    leader_latency = tracker.latency(mid)
    all_latency = max(
        rec.t for rec in trace.deliveries if rec.m.mid == mid
    ) - tracker.multicast_time[mid]
    return leader_latency / delta, all_latency / delta


def collision_latency(
    protocol_cls,
    delta: float,
    tau: float,
    options=None,
    shards_per_group: int = 1,
) -> Optional[float]:
    """Latency (seconds) of ``m`` when a conflicting ``m'`` is injected
    ``tau`` after it — one run of the Fig. 2 construction.

    Warm-up traffic addressed only to group 1 skews its clock ahead of
    group 0's, so message ``m`` (to both groups) gets a high global
    timestamp while group 0's leader still has a low clock.  The
    conflicting ``m'`` then races over a near-zero link to group 0's
    leader; arriving before that leader's clock passes m's global
    timestamp, it takes a lower local timestamp and blocks m until m'
    itself commits — which takes m's full commit pipeline again.
    """
    t0 = 20 * delta  # m is multicast well after the warm-up has quiesced
    warmup = [(i * delta, (1,)) for i in range(5)]
    sim, config, _trace, tracker, clients = _build(
        protocol_cls,
        ConstantDelay(delta),
        [warmup, [(t0, (0, 1))], [(t0 + tau, (0, 1))]],
        options=options,
        shards_per_group=shards_per_group,
    )
    # The adversarial fast link runs from m' 's client to group 0's leader.
    sim.network = _FastLink(delta, config.clients[2], 0, eps=delta / 1000)
    sim.run()
    return tracker.latency(clients[1].sent[0])


def measure_ffl(
    protocol_cls,
    delta: float = DELTA,
    sweep_to: float = 8.0,
    step: float = 0.125,
    options=None,
) -> float:
    """Worst observed latency (in δ units) of a message under one
    adversarially timed conflicting message, over an offset sweep."""
    latencies = (
        collision_latency(protocol_cls, delta, delta * step * i, options)
        for i in range(int(sweep_to / step) + 1)
    )
    return max((lat for lat in latencies if lat is not None), default=0.0) / delta


@dataclass(frozen=True)
class LatencyRow:
    protocol: str
    cfl_leader: float
    cfl_all: float
    ffl: float
    paper_cfl: int
    paper_ffl: int


def build_latency_table(protocols: Optional[Dict[str, type]] = None) -> List[LatencyRow]:
    if protocols is None:
        from ..protocols import PROTOCOLS

        protocols = {k: v for k, v in PROTOCOLS.items() if k in PAPER_LATENCIES}
    rows: List[LatencyRow] = []
    for name, cls in protocols.items():
        cfl_leader, cfl_all = measure_cfl(cls)
        ffl = measure_ffl(cls)
        paper_cfl, paper_ffl = PAPER_LATENCIES[name]
        rows.append(LatencyRow(name, cfl_leader, cfl_all, ffl, paper_cfl, paper_ffl))
    return rows


def format_latency_table(rows: List[LatencyRow]) -> str:
    return render_table(
        ["protocol", "CFL (δ) leader", "CFL (δ) all", "FFL (δ) measured",
         "paper CFL", "paper FFL"],
        [
            (r.protocol, round(r.cfl_leader, 3), round(r.cfl_all, 3),
             round(r.ffl, 3), r.paper_cfl, r.paper_ffl)
            for r in rows
        ],
        title="Latency in message delays (δ): measured vs paper (Thms 3-4, §VI)",
    )


BENCH = BenchSpec(
    name="latency-table",
    help="CFL/FFL table (Theorems 3-4)",
    run_cell=lambda _params, _cell: build_latency_table(),
    report=lambda _params, results: format_latency_table(results[0]),
)
