"""Batching ablation: leader-side batching on the Fig. 7 LAN testbed.

Beyond the paper's own evaluation: the seed protocols issue per-message
rounds (WbCast one ACCEPT quorum round, FtSkeen/FastCast one or two
consensus commands per multicast), which is what saturates Figs. 7-8.
The protocol-agnostic Batcher amortises that cost for all three
implementations; this benchmark sweeps the batch size with everything
else held fixed and checks the acceptance bars — at least 2x simulated
peak throughput at batch 16 for WbCast and at least 1.5x for the batched
FtSkeen/FastCast baselines over their per-message selves — while the
conformance suites separately re-verify the ordering/genuineness
invariants under the same knobs.
"""

from conftest import run_once, save_result

from repro.bench.batching import BENCH, peak_speedup, peak_throughputs
from repro.bench.driver import default_params, render, run_grid


def test_batching_throughput_scaling(benchmark):
    params = default_params(BENCH)
    points = run_once(benchmark, lambda: run_grid(BENCH, params))
    save_result("batching_all_protocols", render(BENCH, params, points))
    # WbCast throughput grows monotonically with the batch size at every
    # step of the default grid, and the headline speedup clears the 2x bar.
    peaks = peak_throughputs(points, protocol="wbcast")
    sizes = sorted(peaks)
    for lo, hi in zip(sizes, sizes[1:]):
        assert peaks[hi] > peaks[lo], (lo, hi, peaks)
    assert peak_speedup(points, batch=16, protocol="wbcast") >= 2.0
    # The batched baselines clear their 1.5x bars, so Fig. 7-style protocol
    # comparisons no longer conflate "better protocol" with "who batches".
    assert peak_speedup(points, batch=16, protocol="ftskeen") >= 1.5
    assert peak_speedup(points, batch=16, protocol="fastcast") >= 1.5
