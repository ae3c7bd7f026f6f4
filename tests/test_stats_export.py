"""Per-message-type wire traffic of a run, normalised per multicast."""

from collections import Counter

import pytest

from repro.bench.harness import run_workload
from repro.protocols import FtSkeenProcess, WbCastProcess
from repro.sim import ConstantDelay

from tests.conftest import DELTA


def per_multicast(run, message_type: str) -> float:
    by_type = Counter(type(rec.msg).__name__ for rec in run.trace.sends)
    assert sum(by_type.values()) == run.trace.send_count
    return by_type[message_type] / run.completed


class TestTrafficByType:
    def test_accept_fanout(self):
        run = run_workload(WbCastProcess, num_groups=2, group_size=3, num_clients=2,
                           messages_per_client=5, dest_k=2, seed=0,
                           network=ConstantDelay(DELTA))
        assert per_multicast(run, "DeliverMsg") > 0
        # Every multicast to 2 groups of 3 fans 12 ACCEPTs out.
        assert per_multicast(run, "AcceptMsg") == pytest.approx(12.0)

    def test_ack_traffic_scaling_wbcast_vs_ftskeen(self):
        """WbCast's acks scale Θ(k²n) (every destination process acks every
        destination leader); FT-Skeen's consensus acks scale Θ(k·n).  At
        k=2, n=3 both come to 12 per multicast; at k=4 WbCast doubles
        FT-Skeen's."""
        def acks_per_multicast(cls, ack_type, k):
            res = run_workload(cls, num_groups=4, group_size=3, num_clients=2,
                               messages_per_client=5, dest_k=k, seed=1,
                               network=ConstantDelay(DELTA))
            return per_multicast(res, ack_type)

        wb2 = acks_per_multicast(WbCastProcess, "AcceptAckMsg", 2)
        ft2 = acks_per_multicast(FtSkeenProcess, "PaxosAccepted", 2)
        wb4 = acks_per_multicast(WbCastProcess, "AcceptAckMsg", 4)
        ft4 = acks_per_multicast(FtSkeenProcess, "PaxosAccepted", 4)
        assert wb2 == pytest.approx(ft2)           # coincide at k=2, n=3
        assert wb4 == pytest.approx(2 * ft4)       # diverge at k=4
