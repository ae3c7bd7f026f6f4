"""Smoke test of the performance ledger: names, units, kinds, determinism.

Runs every workload once untraced and once traced at the ``--quick``
scale (tiny operation counts) and asserts no timing — only that every
metric and workload ``BENCHMARK.json`` names is emitted with its unit and
a kind, that nothing failed, and that the simulator's virtual metrics and
work counts repeat exactly.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as ledger  # noqa: E402
import workloads  # noqa: E402

CONTRACT = ledger.load_contract()
NAMES = [w["name"] for w in CONTRACT["workloads"]]
#: Short enough that every phase makes exactly one repeat.
SECONDS = 0.2
SEED = 11


@pytest.fixture(scope="module")
def reports():
    return {
        (name, trace): ledger.measure(name, SEED, SECONDS, trace, quick=True)
        for name in NAMES
        for trace in (False, True)
    }


def test_contract_names_the_workloads_the_code_has():
    assert tuple(NAMES) == workloads.WORKLOADS
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in CONTRACT["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_every_declared_metric_is_emitted_with_unit_and_kind(reports):
    for (name, trace), report in reports.items():
        declared = CONTRACT["per_layer" if trace else "end_to_end"]
        assert list(report.metrics) == [m["name"] for m in declared], name
        for spec in declared:
            metric = report.metrics[spec["name"]]
            assert metric.unit == spec["unit"], (name, spec["name"])
            assert metric.kind in ("wall", "work", "modelled"), (name, spec["name"])
        if not trace:
            assert all(m.value > 0 for m in report.metrics.values()), name


def test_nothing_fails_and_checkers_pass(reports):
    for (name, trace), report in reports.items():
        assert report.correct, (name, trace)
        assert report.attempted > 0 and report.failed == 0, (name, trace)


def test_each_layer_is_exercised_where_the_readme_says(reports):
    def value(name, metric):
        return reports[(name, True)].metrics[metric].value

    # 28 frames / 12 ACCEPTs per multicast unless a stalled host forces a
    # client retransmission (2 s timeout) — hence approx, not equality.
    assert value("tcp_permsg", "net.codec.frames_per_mcast") == pytest.approx(28.0, rel=0.05)
    assert value("tcp_permsg", "protocols.batching.entries_per_batch") == 1.0
    assert value("tcp_batched", "protocols.batching.entries_per_batch") > 1.0
    assert value("tcp_batched", "protocols.batching.ingress_msgs_per_frame") > 1.0
    assert value(
        "tcp_sharded", "protocols.wbcast.handler_calls_per_mcast.AcceptMsg"
    ) == pytest.approx(12.0, rel=0.05)
    assert value("sim_wan", "net.codec.frames_per_mcast") == 0.0
    assert value("sim_wan", "sim.wire_msgs_per_mcast") == 34.0
    assert value("sim_wan", "failure.outage_ms") == 0.0
    assert value("sim_wan_crash", "failure.outage_ms") == pytest.approx(
        value("sim_wan_crash", "failure.detect_ms")
        + value("sim_wan_crash", "protocols.wbcast.recovery_ms")
    )
    assert value("sim_wan_crash", "failure.outage_ms") > 0.0
    for name in NAMES:
        assert 0.0 < value(name, "trace.overhead_ratio")
        assert value(name, "net.codec.pickle_fallbacks") == 0.0


def test_sim_wan_virtual_metrics_and_counts_repeat_exactly(reports):
    again = {
        trace: ledger.measure("sim_wan", SEED, SECONDS, trace, quick=True)
        for trace in (False, True)
    }
    for trace, second in again.items():
        first = reports[("sim_wan", trace)]
        for name, metric in first.metrics.items():
            if metric.kind in ("work", "modelled") and not name.startswith("net.cluster.gc"):
                assert second.metrics[name].value == metric.value, name


def test_one_run_ends_with_the_contract_json_line(capsys):
    assert ledger.run_one("sim_wan", SEED, SECONDS, False, quick=True) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
