"""The command-line interface and the flow renderer."""

import pytest

from repro.bench.flow import flow_events, flow_report, lane_diagram
from repro.bench.harness import run_workload
from repro.cli import main
from repro.protocols import WbCastProcess
from repro.sim import ConstantDelay

from tests.conftest import DELTA


class TestCli:
    def test_run_wbcast(self, capsys):
        code = main(["run", "--protocol", "wbcast", "--groups", "2",
                     "--clients", "1", "--messages", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validity: OK" in out
        assert "3.00δ" in out

    def test_run_skeen_forces_singleton_groups(self, capsys):
        code = main(["run", "--protocol", "skeen", "--groups", "3",
                     "--clients", "1", "--messages", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x 1" in out

    def test_run_all_protocols(self, capsys):
        for name in ("ftskeen", "fastcast", "sequencer"):
            code = main(["run", "--protocol", name, "--groups", "2",
                         "--clients", "1", "--messages", "2"])
            assert code == 0, capsys.readouterr().out

    def test_run_lan_topology(self, capsys):
        code = main(["run", "--topology", "lan", "--clients", "1", "--messages", "2"])
        assert code == 0

    @pytest.mark.parametrize("protocol", ["wbcast", "ftskeen", "fastcast"])
    def test_run_batched_protocols(self, capsys, protocol):
        """Every batching-capable protocol accepts the batching knobs."""
        code = main(["run", "--protocol", protocol, "--groups", "2",
                     "--clients", "2", "--messages", "4",
                     "--batch-size", "4", "--batch-linger", "0.002",
                     "--pipeline-depth", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_batch=4" in out
        assert "ignored" not in out

    def test_run_adaptive_linger(self, capsys):
        code = main(["run", "--protocol", "wbcast", "--groups", "2",
                     "--clients", "2", "--messages", "4",
                     "--batch-size", "4", "--batch-linger", "0.002",
                     "--linger-mode", "adaptive", "--min-linger", "0.0005"])
        out = capsys.readouterr().out
        assert code == 0
        assert "linger=adaptive[0.0005s, 0.002s]" in out

    def test_run_elastic_reports_telemetry(self, capsys):
        """--obs used to be silently dropped on the reconfiguration branch."""
        code = main(["run", "--protocol", "wbcast", "--groups", "2",
                     "--clients", "2", "--messages", "6", "--join-at", "0.01",
                     "--obs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "epochs    : 0 -> 1" in out
        assert "obs       :" in out and "spans     :" in out

    def test_bench_batching_quick(self, capsys):
        """The CI smoke path: one protocol, tiny grid, table + headline."""
        code = main(["bench-batching", "--protocol", "ftskeen", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ftskeen" in out and "batch" in out
        assert "x over per-message" in out

    def test_flow_command(self, capsys):
        code = main(["flow", "--protocol", "wbcast", "--dest-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Multicast" in out and "Accept" in out and "deliver(m)" in out

    def test_flow_lanes(self, capsys):
        code = main(["flow", "--protocol", "wbcast", "--dest-k", "2", "--lanes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "t=" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestFlowRenderer:
    @pytest.fixture
    def run(self):
        return run_workload(WbCastProcess, num_groups=2, group_size=3, num_clients=1,
                            messages_per_client=1, dest_k=2, seed=0,
                            network=ConstantDelay(DELTA))

    def test_events_are_attributed(self, run):
        mid = run.clients[0].sent[0]
        events = flow_events(run.trace, mid)
        assert events
        names = {type(r.msg).__name__ for r in events}
        assert {"MulticastMsg", "AcceptMsg", "AcceptAckMsg", "DeliverMsg"} <= names

    def test_report_mentions_deliveries(self, run):
        mid = run.clients[0].sent[0]
        text = flow_report(run.trace, mid, DELTA)
        assert text.count("deliver(m)") == 6  # all members of both groups
        assert "(times in δ)" in text

    def test_lane_diagram_has_a_lane_per_process(self, run):
        mid = run.clients[0].sent[0]
        text = lane_diagram(run.trace, mid, DELTA)
        header = text.splitlines()[0]
        for pid in range(6):
            assert f"p{pid}" in header

    def test_unknown_mid_is_graceful(self, run):
        assert "no traffic" in lane_diagram(run.trace, (99, 99), DELTA)
