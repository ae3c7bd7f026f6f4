"""The serving layer: read-at-watermark, fallbacks, and the checker.

Three batteries:

* a unit battery for the linearizability checker itself, on hand-built
  histories where each violation class is planted deliberately;
* randomized sharded read/write conformance runs through
  :func:`run_serving_workload`, verified end to end;
* the lane-leader-crash scenario — reads against the dead replica must
  fall back (never return stale data) and the full history must still
  pass the checker.
"""

import random

import pytest

from tests.conftest import FAST_FD
from repro.apps import BankCluster, KvStoreCluster
from repro.apps.kvstore import KvCommand
from repro.checking.history import History
from repro.checking.linearizability import (
    ReadRecord,
    WriteRecord,
    assert_linearizable,
    check_linearizability,
    check_read_conformance,
    check_read_your_writes,
    check_realtime_freshness,
    check_session_monotonic,
    serving_records,
)
from repro.config import ClusterConfig
from repro.errors import PropertyViolation
from repro.protocols import WbCastProcess
from repro.serving import (
    ReadMsg,
    TenantSpec,
    attach_kv_replicas,
    run_serving_workload,
)
from repro.sim.faults import CrashSpec, FaultPlan
from repro.types import AmcastMessage


# -- hand-built histories for the checker unit battery ------------------------


def _kv_history():
    """One group, two puts to ``x`` (values 1 then 2, versions 1 then 2)."""
    config = ClusterConfig.build(num_groups=1, group_size=3, num_clients=2)
    m1 = AmcastMessage(
        mid=(10, 0), dests=frozenset({0}), payload=KvCommand("put", (("x", 1),))
    )
    m2 = AmcastMessage(
        mid=(10, 1), dests=frozenset({0}), payload=KvCommand("put", (("x", 2),))
    )
    deliveries = {
        pid: [(0.001, m1), (0.002, m2)] for pid in config.members(0)
    }
    history = History(
        config=config,
        multicasts={m.mid: (10, 0.0, m) for m in (m1, m2)},
        deliveries=deliveries,
        crashed=set(),
    )
    return config, history


def _read(session, rid, index, items, invoked_at, completed_at, keys=("x",)):
    return ReadRecord(
        session=session,
        rid=rid,
        gid=0,
        keys=keys,
        invoked_at=invoked_at,
        completed_at=completed_at,
        index=index,
        items=items,
    )


class TestCheckerBattery:
    def test_conformance_accepts_ground_truth(self):
        _config, history = _kv_history()
        reads = [
            _read(20, 1, index=1, items=(("x", 1, 1),), invoked_at=0.003, completed_at=0.004),
            _read(20, 2, index=2, items=(("x", 2, 2),), invoked_at=0.005, completed_at=0.006),
        ]
        assert check_read_conformance(history, reads).ok

    def test_conformance_catches_wrong_value(self):
        _config, history = _kv_history()
        bad = _read(20, 1, index=2, items=(("x", 1, 1),), invoked_at=0.003, completed_at=0.004)
        result = check_read_conformance(history, [bad])
        assert not result.ok and "ground truth" in result.describe()

    def test_conformance_catches_index_beyond_sequence(self):
        _config, history = _kv_history()
        bad = _read(20, 1, index=9, items=(), invoked_at=0.003, completed_at=0.004)
        result = check_read_conformance(history, [bad])
        assert not result.ok and "beyond" in result.describe()

    def test_monotonic_catches_index_regression(self):
        r1 = _read(20, 1, index=2, items=(("x", 2, 2),), invoked_at=0.003, completed_at=0.004)
        r2 = _read(20, 2, index=1, items=(("x", 1, 1),), invoked_at=0.005, completed_at=0.006)
        result = check_session_monotonic([r1, r2])
        assert not result.ok and "went backwards" in result.describe()

    def test_monotonic_allows_concurrent_reads(self):
        # r2 invoked before r1 completed: no order obligation either way.
        r1 = _read(20, 1, index=2, items=(("x", 2, 2),), invoked_at=0.003, completed_at=0.010)
        r2 = _read(20, 2, index=1, items=(("x", 1, 1),), invoked_at=0.004, completed_at=0.005)
        assert check_session_monotonic([r1, r2]).ok

    def test_read_your_writes_catches_uncovered_own_write(self):
        _config, history = _kv_history()
        w = WriteRecord(
            session=20, mid=(10, 1), gid=0, key="x", invoked_at=0.0, completed_at=0.002
        )
        stale = _read(20, 1, index=1, items=(("x", 1, 1),), invoked_at=0.003, completed_at=0.004)
        result = check_read_your_writes(history, [stale], [w])
        assert not result.ok and "does not cover" in result.describe()

    def test_read_your_writes_equal_timestamps_are_concurrent(self):
        # Completion and invocation at the same virtual instant: the sim
        # runs the two callbacks in arbitrary order, so no obligation.
        _config, history = _kv_history()
        w = WriteRecord(
            session=20, mid=(10, 1), gid=0, key="x", invoked_at=0.0, completed_at=0.003
        )
        r = _read(20, 1, index=1, items=(("x", 1, 1),), invoked_at=0.003, completed_at=0.004)
        assert check_read_your_writes(history, [r], [w]).ok

    def test_realtime_freshness_catches_cross_session_staleness(self):
        _config, history = _kv_history()
        w = WriteRecord(
            session=21, mid=(10, 1), gid=0, key="x", invoked_at=0.0, completed_at=0.002
        )
        stale = _read(20, 1, index=1, items=(("x", 1, 1),), invoked_at=0.003, completed_at=0.004)
        result = check_realtime_freshness(history, [stale], [w])
        assert not result.ok and "misses write" in result.describe()

    def test_full_battery_passes_a_clean_history(self):
        _config, history = _kv_history()
        reads = [
            _read(20, 1, index=2, items=(("x", 2, 2),), invoked_at=0.003, completed_at=0.004),
        ]
        writes = [
            WriteRecord(
                session=21, mid=(10, 1), gid=0, key="x", invoked_at=0.0, completed_at=0.002
            )
        ]
        assert all(c.ok for c in check_linearizability(history, reads, writes))
        assert_linearizable(history, reads, writes)

    def test_assert_linearizable_raises(self):
        _config, history = _kv_history()
        writes = [
            WriteRecord(
                session=21, mid=(10, 1), gid=0, key="x", invoked_at=0.0, completed_at=0.002
            )
        ]
        stale = _read(20, 1, index=1, items=(("x", 1, 1),), invoked_at=0.003, completed_at=0.004)
        with pytest.raises(PropertyViolation):
            assert_linearizable(history, [stale], writes)


# -- replica-side mechanics ---------------------------------------------------


class _FakeTimer:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _FakeRuntime:
    def __init__(self):
        self.timers = []

    def set_timer(self, delay, fn):
        timer = _FakeTimer()
        self.timers.append((delay, fn, timer))
        return timer

    def fire_all(self):
        pending, self.timers = self.timers, []
        for _delay, fn, timer in pending:
            if not timer.cancelled:
                fn()


class _FakeProc:
    def __init__(self, pid, gid):
        self.pid = pid
        self.gid = gid
        self.runtime = _FakeRuntime()
        self._handlers = {}
        self.sent = []

    def deliver(self, m):
        pass

    def send(self, dest, msg):
        self.sent.append((dest, msg))


class TestReplicaParking:
    def _replica(self, hold_stale):
        proc = _FakeProc(pid=0, gid=0)
        replicas = attach_kv_replicas({0: proc}, num_groups=1, hold_stale=hold_stale)
        return proc, replicas[0]

    def test_parked_read_is_served_by_the_covering_delivery(self):
        proc, replica = self._replica(hold_stale=0.1)
        proc._handlers[ReadMsg](99, ReadMsg(1, 0, ("x",), min_index=1))
        assert proc.sent == []  # parked, not declined
        proc.deliver(
            AmcastMessage(
                mid=(9, 0), dests=frozenset({0}), payload=KvCommand("put", (("x", 7),))
            )
        )
        (dest, reply), = proc.sent
        assert dest == 99 and not reply.stale and reply.items == (("x", 7, 1),)
        assert replica.served == 1 and replica.declined == 0

    def test_parked_read_declines_when_the_hold_expires(self):
        proc, replica = self._replica(hold_stale=0.1)
        proc._handlers[ReadMsg](99, ReadMsg(1, 0, ("x",), min_index=5))
        proc.runtime.fire_all()
        (_dest, reply), = proc.sent
        assert reply.stale and replica.declined == 1
        # A late delivery must not answer the already-declined read twice.
        proc.deliver(
            AmcastMessage(
                mid=(9, 0), dests=frozenset({0}), payload=KvCommand("put", (("x", 7),))
            )
        )
        assert len(proc.sent) == 1

    def test_without_hold_stale_a_stale_read_declines_immediately(self):
        proc, replica = self._replica(hold_stale=None)
        proc._handlers[ReadMsg](99, ReadMsg(1, 0, ("x",), min_index=1))
        (_dest, reply), = proc.sent
        assert reply.stale and replica.declined == 1


# -- end-to-end randomized conformance ----------------------------------------


class TestRandomizedConformance:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sharded_read_write_mix_is_linearizable(self, seed):
        config = ClusterConfig.build(
            num_groups=2, group_size=3, num_clients=4, shards_per_group=2
        )
        rng = random.Random(seed)
        result = run_serving_workload(
            WbCastProcess,
            config=config,
            ops_per_session=40,
            read_ratio=rng.uniform(0.4, 0.8),
            skew=rng.choice([0.0, 0.9]),
            num_keys=32,
            window=2,
            read_timeout=0.05,
            seed=seed,
        )
        assert all(s.done for s in result.sessions)
        failed = [c.describe() for c in result.check() if not c.ok]
        assert not failed, failed
        lin = result.check_serving()
        assert all(c.ok for c in lin), [c.describe() for c in lin if not c.ok]
        assert result.reads_local > 0

    def test_zero_read_ordering_at_ninety_percent_reads(self):
        result = run_serving_workload(
            WbCastProcess,
            num_sessions=4,
            ops_per_session=50,
            read_ratio=0.9,
            window=2,
            read_timeout=0.05,
            seed=7,
        )
        assert result.reads_fallback == 0
        result.monitor.assert_zero_read_ordering()
        assert all(c.ok for c in result.check_serving())

    def test_records_round_trip_through_serving_records(self):
        result = run_serving_workload(
            WbCastProcess, ops_per_session=20, read_ratio=0.5, seed=3
        )
        reads, writes = serving_records(result.sessions)
        assert reads and writes
        assert_linearizable(result.history(), reads, writes)


# -- crash fallback -----------------------------------------------------------


class TestCrashFallback:
    def test_lane_leader_crash_reads_fall_back_and_stay_linearizable(self):
        config = ClusterConfig.build(
            num_groups=2, group_size=3, num_clients=4, shards_per_group=2
        )
        victim = config.lane_leader(0, 0)
        result = run_serving_workload(
            WbCastProcess,
            config=config,
            ops_per_session=25,
            read_ratio=0.9,
            window=1,
            read_timeout=0.02,
            retry_timeout=0.05,
            seed=42,
            fault_plan=FaultPlan(crashes=[CrashSpec(victim, 0.03)]),
            attach_fd=True,
            fd_options=FAST_FD,
            max_time=60.0,
        )
        assert all(s.done for s in result.sessions)
        # The crashed replica's readers time out and fall back — the
        # fallback path answered them, never a stale local reply.
        assert result.reads_fallback > 0
        failed = [c.describe() for c in result.check(quiescent=False) if not c.ok]
        assert not failed, failed
        lin = result.check_serving()
        assert all(c.ok for c in lin), [c.describe() for c in lin if not c.ok]

    def test_sessions_avoid_a_suspected_replica(self):
        config = ClusterConfig.build(num_groups=1, group_size=3, num_clients=2)
        victim = config.members(0)[0]
        result = run_serving_workload(
            WbCastProcess,
            config=config,
            ops_per_session=30,
            read_ratio=0.9,
            read_timeout=0.02,
            retry_timeout=0.05,
            seed=5,
            fault_plan=FaultPlan(crashes=[CrashSpec(victim, 0.02)]),
            attach_fd=True,
            fd_options=FAST_FD,
            max_time=60.0,
        )
        assert all(s.done for s in result.sessions)
        avoided = [s for s in result.sessions if victim in s._avoid]
        assert avoided  # at least one session suspected the dead replica
        for s in avoided:
            # After the suspicion, its local reads go to live replicas.
            later = [r for r in s.reads if r.path == "local" and r.replica == victim]
            assert all(not r.done or r.index is not None for r in later)


# -- tenants ------------------------------------------------------------------


class TestTenantAdmission:
    def test_admission_caps_bound_outstanding_writes(self):
        tenants = (
            TenantSpec("gold", weight=3, max_outstanding=2),
            TenantSpec("bronze", weight=1, max_outstanding=1),
        )
        result = run_serving_workload(
            WbCastProcess,
            num_sessions=4,
            ops_per_session=30,
            read_ratio=0.2,
            window=4,
            read_timeout=0.05,
            tenants=tenants,
            seed=11,
        )
        assert all(s.done for s in result.sessions)
        assert result.gate is not None
        assert result.gate.peak["gold"] <= 2
        assert result.gate.peak["bronze"] <= 1
        assert all(c.ok for c in result.check_serving())

    def test_uncapped_single_tenant_runs_unconstrained(self):
        result = run_serving_workload(
            WbCastProcess, ops_per_session=20, read_ratio=0.5, seed=1
        )
        assert result.gate is None
        assert all(s.done for s in result.sessions)


# -- app front ends -----------------------------------------------------------


class TestAppServingPaths:
    def test_bank_balance_reads_through_the_serving_path(self):
        bank = BankCluster({"a": 100, "b": 50}, num_groups=2)
        bank.transfer("a", "b", 30)
        bank.settle()
        assert bank.balance("a") == 70
        assert bank.balance("b") == 80
        assert bank.balance("a") == bank.ledger_balance("a")
        assert bank.total_balance() == 150

    def test_bank_balance_agrees_on_every_replica(self):
        bank = BankCluster({"a": 10, "b": 20}, num_groups=2)
        bank.transfer("b", "a", 5)
        bank.settle()
        for replica in range(3):
            assert bank.balance("a", replica_index=replica) == 15

    def test_kvstore_version_stamps_grow_with_rewrites(self):
        store = KvStoreCluster(num_groups=2)
        store.put("v", 1)
        store.sync()
        _value, v1 = store.get_versioned("v")
        store.put("v", 2)
        store.sync()
        value, v2 = store.get_versioned("v")
        assert value == 2 and v2 > v1 > 0
        assert store.get_versioned("never-written") == (None, 0)
        assert store.replicas_converged()


# -- bench smoke --------------------------------------------------------------


class TestBenchServing:
    def _tiny_sweep(self, **overrides):
        from repro.bench import serving as bench_serving
        from repro.bench.driver import default_params

        return default_params(
            bench_serving.BENCH,
            quick=True,
            ops_per_session=12,
            sessions=2,
            tenant_counts=(1,),
            skews=(0.0,),
            net_sessions=2,
            net_ops=6,
            **overrides,
        )

    def test_quick_sim_point_meets_acceptance(self):
        from repro.bench import serving as bench_serving

        from repro.bench.driver import json_payload, run_grid

        sweep = self._tiny_sweep()
        points = run_grid(bench_serving.BENCH, sweep)
        assert points
        for p in points:
            assert p.checks_ok and p.linearizable
            assert p.read_ordering == 0
        crash = bench_serving.serving_crash_run(sweep)
        assert crash["checks_ok"] and crash["linearizable"]
        assert not bench_serving.acceptance_failures(sweep, points, crash)
        payload = json_payload(bench_serving.BENCH, sweep, points, crash)
        assert payload["points"] and payload["crash_run"]["linearizable"]
        assert payload["headline"]["linearizable"]

    def test_quick_net_point_runs_over_sockets(self):
        from repro.bench import serving as bench_serving

        point = bench_serving.run_net_point(self._tiny_sweep(), read_ratio=0.9)
        assert point.runtime == "net"
        assert point.checks_ok and point.linearizable
        assert point.ops > 0

    def test_cli_registers_bench_serving(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(
            ["bench-serving", "--quick", "--read-ratio", "0.9", "--skew", "0",
             "--tenants", "2"]
        )
        assert args.command == "bench-serving"
        assert tuple(args.read_ratio) == (0.9,)
