"""Figure 7 reproduction: LAN performance with increasing client counts.

The paper: 10 groups × 3 replicas on CloudLab (0.1 ms RTT), clients
multicasting 20-byte messages to a fixed number of destination groups;
WbCast beats FastCast and fault-tolerant Skeen on both latency and
throughput — by 70–150% at 1000 clients — and FastCast trails Skeen
slightly in LAN (its parallel execution paths cost more than they save
when δ is tiny).

Run ``python -m repro figure7`` for the default grid; set
``REPRO_BENCH_FULL=1`` for the larger one.
"""

from __future__ import annotations

from .sweep import SweepConfig, figure_bench
from .topologies import lan_testbed

run_figure7, BENCH = figure_bench(
    "figure7",
    "Fig. 7 LAN sweep (REPRO_BENCH_FULL=1 for full grid)",
    "Figure 7 (LAN): latency & throughput vs clients",
    lan_testbed,
    grid=SweepConfig(
        num_groups=6,
        client_counts=(20, 100, 300),
        dest_ks=(2, 4),
        messages_per_client=6,
    ),
    full_grid=SweepConfig(
        client_counts=(50, 100, 200, 500, 1000),
        dest_ks=(1, 2, 4, 6, 10),
        messages_per_client=10,
    ),
)
