"""Figure 8 reproduction: WAN performance with increasing client counts.

The paper: the same 10 groups replicated across three Google Cloud regions
(Oregon / N. Virginia / England; RTTs 60 / 75 / 130 ms), each region
holding a full copy of the data.  WbCast outperforms FastCast by 47–124%
at 1000 clients and sustains higher throughput at high client counts; in
WAN the ordering FastCast < Skeen of the LAN flips — speculation pays when
δ dominates CPU cost.

Run ``python -m repro figure8``; set ``REPRO_BENCH_FULL=1`` for the
larger grid.
"""

from __future__ import annotations

from .sweep import SweepConfig, figure_bench
from .topologies import wan_testbed

run_figure8, BENCH = figure_bench(
    "figure8",
    "Fig. 8 WAN sweep (REPRO_BENCH_FULL=1 for full grid)",
    "Figure 8 (WAN): latency & throughput vs clients",
    wan_testbed,
    grid=SweepConfig(
        num_groups=6,
        client_counts=(20, 100, 300),
        dest_ks=(2, 4),
        messages_per_client=4,
    ),
    full_grid=SweepConfig(
        client_counts=(50, 100, 200, 500, 1000),
        dest_ks=(1, 2, 4, 6, 10),
        messages_per_client=6,
    ),
)
