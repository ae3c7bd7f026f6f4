"""Benchmark harness reproducing the paper's evaluation (Section VI).

* :mod:`repro.bench.harness` — stand up one simulated cluster
  (:class:`~repro.bench.harness.SimCluster`) and run one workload on it;
* :mod:`repro.bench.driver` — the declarative bench spec, the generic
  sweep driver, and the registry of benches (``BENCH_MODULES``; ``python
  -m repro --help`` lists them);
* :mod:`repro.bench.topologies` — the paper's LAN and WAN testbeds;
* :mod:`repro.bench.metrics` / :mod:`repro.bench.report` — latency
  summaries and ASCII tables shared by every bench.
"""

from .harness import RunResult, run_workload
from .metrics import LatencySummary, summarize_latencies
from .topologies import lan_testbed, wan_testbed

__all__ = [
    "LatencySummary",
    "RunResult",
    "lan_testbed",
    "run_workload",
    "summarize_latencies",
    "wan_testbed",
]
