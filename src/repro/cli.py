"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the library's experiment modules:

* ``run`` — run a workload against any protocol/topology and verify it
  (``--batch-size`` / ``--batch-linger`` / ``--pipeline-depth`` enable
  leader-side batching for protocols that support it — WbCast, FtSkeen
  and FastCast; ``--linger-mode adaptive`` scales the linger to the
  observed arrival rate, bounded by ``--min-linger``/``--batch-linger``;
  ``--ingress-batch`` coalesces client submissions per destination
  leader through the ``AmcastClient`` session; ``--runtime net`` runs
  the same workload over a real asyncio TCP cluster on localhost);
* ``spans`` — run with telemetry on and print the message-lifecycle
  breakdown: per-stage latency legs and the top-k slowest messages
  (``--obs`` / ``--obs-export`` expose the same registry on ``run``);
* ``flow`` — trace one multicast hop by hop (the Fig. 5 view);
* every bench in :func:`repro.bench.driver.bench_specs` — the paper's
  tables (``latency-table`` / ``convoy`` / ``figure7`` / ``figure8`` /
  ``ablations`` / ``complexity``) and the sweeps beyond it
  (``bench-batching`` / ``bench-elasticity`` / ``bench-net`` /
  ``bench-serving`` / ``bench-conflict``).  Each is registered from its
  own spec and run by the one generic driver; this module names none.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench.driver import add_flags, bench_specs, nonneg_float, positive_int, run_bench
from .bench.harness import run_workload
from .bench.metrics import summarize_latencies
from .bench.topologies import LAN_ONE_WAY, lan_testbed, wan_testbed
from .config import BatchingOptions, ClusterConfig
from .obs import ObsOptions
from .protocols import PROTOCOLS
from .sim import ConstantDelay
from .sim.network import WAN_ONE_WAY
from .workload import ClientOptions


def _add_cluster_arguments(
    parser: argparse.ArgumentParser, clients: int, messages: int, topology: str
) -> None:
    """The cluster/topology options ``run`` and ``spans`` share."""
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="wbcast")
    parser.add_argument("--groups", type=int, default=3)
    parser.add_argument("--group-size", type=int, default=3)
    parser.add_argument("--shards", type=positive_int, default=1, metavar="S",
                        help="ordering lanes per group (sharded multi-leader "
                             "groups: each lane has its own leader, timestamps "
                             "and recovery; 1 keeps the paper's single leader; "
                             "honoured by protocols with sharding support, "
                             "today wbcast)")
    parser.add_argument("--clients", type=int, default=clients)
    parser.add_argument("--messages", type=int, default=messages)
    parser.add_argument("--dest-k", type=int, default=2)
    parser.add_argument("--delta", type=float, default=0.001,
                        help="one-way delay in seconds (default 1 ms; sim only, "
                             "constant topology)")
    parser.add_argument("--topology", choices=["constant", "lan", "wan"],
                        default=topology,
                        help="simulated network: constant --delta, the Fig. 7 "
                             "LAN, or the Fig. 8 WAN grid (the interesting "
                             "case for stage attribution)")
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="White-box atomic multicast (DSN 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a workload and verify it")
    _add_cluster_arguments(run_p, clients=2, messages=10, topology="constant")
    run_p.add_argument("--runtime", choices=["sim", "net"], default="sim",
                       help="'sim': deterministic virtual-time simulator; "
                            "'net': a real asyncio TCP cluster on localhost "
                            "ephemeral ports, driven through the same "
                            "AmcastClient session API")
    run_p.add_argument("--conflict", choices=["total", "keys"], default="total",
                       help="delivery ordering granularity: 'total' is the "
                            "paper's total order; 'keys' delivers a committed "
                            "message once no *conflicting* (key-sharing) "
                            "message can be ordered before it — commuting "
                            "disjoint-key traffic skips the cross-lane merge "
                            "wait (wbcast only; checked against the "
                            "conflict-aware partial-order properties)")
    run_p.add_argument("--key-universe", type=positive_int, default=64,
                       metavar="N",
                       help="with --conflict keys: submissions declare one "
                            "key drawn uniformly from N synthetic keys "
                            "(controls how often messages commute)")
    run_p.add_argument("--ingress-batch", type=positive_int, default=1,
                       metavar="N",
                       help="client-side ingress coalescing: AmcastClient "
                            "sessions buffer submissions per destination "
                            "leader and send MULTICAST_BATCH wire messages "
                            "of up to N entries (1: one MULTICAST per "
                            "message, the paper's ingress)")
    run_p.add_argument("--ingress-linger", type=nonneg_float, default=None,
                       metavar="SECS",
                       help="max time a submission lingers client-side for "
                            "co-batching (default: --batch-linger, or 2ms "
                            "when that is 0)")
    run_p.add_argument("--batch-size", type=positive_int, default=1, metavar="N",
                       help="leader-side batch size (1: per-message protocol)")
    run_p.add_argument("--batch-linger", type=nonneg_float, default=0.0,
                       metavar="SECS",
                       help="max virtual time a multicast lingers for co-batching")
    run_p.add_argument("--pipeline-depth", type=positive_int, default=1,
                       metavar="N",
                       help="max in-flight leader batches per destination set")
    run_p.add_argument("--linger-mode", choices=["fixed", "adaptive"],
                       default="fixed",
                       help="'fixed' always waits --batch-linger; 'adaptive' "
                            "scales the wait to an EWMA of observed "
                            "inter-arrival times (grows toward --batch-linger "
                            "under bursts, shrinks toward --min-linger under "
                            "sparse load)")
    run_p.add_argument("--min-linger", type=nonneg_float, default=0.0,
                       metavar="SECS",
                       help="lower bound of the adaptive linger (default 0)")
    run_p.add_argument("--join-at", type=nonneg_float, default=None,
                       metavar="SECS",
                       help="dynamic reconfiguration: submit a join(group 0, "
                            "fresh pid) command through the multicast total "
                            "order at this time (sim: virtual seconds; net: "
                            "wall seconds after start); the joiner receives "
                            "a state-transfer snapshot and serves reads of "
                            "pre-join messages (wbcast only)")
    run_p.add_argument("--leave-at", type=nonneg_float, default=None,
                       metavar="SECS",
                       help="dynamic reconfiguration: submit a leave command "
                            "for the last member of group 0 at this time "
                            "(wbcast only)")
    run_p.add_argument("--codec", choices=["binary", "pickle"], default="binary",
                       help="net runtime wire codec: struct-packed binary "
                            "frames (default) or whole-frame pickle (the "
                            "pre-overhaul wire format; sim ignores this)")
    run_p.add_argument("--loop", choices=["default", "uvloop"], default="default",
                       help="net runtime event loop; uvloop falls back to "
                            "the default loop when not installed")
    run_p.add_argument("--procs-per-node", choices=["1", "lanes"], default="1",
                       help="net runtime process model: '1' hosts the whole "
                            "cluster in one process; 'lanes' hosts each "
                            "member — hence each lane leader — in its own "
                            "OS process (no kill/reconfig drivers there)")
    run_p.add_argument("--obs", action="store_true",
                       help="enable the telemetry subsystem: message-lifecycle "
                            "spans plus the metrics registry (counters, "
                            "gauges, latency histograms) on both runtimes; "
                            "off by default so runs stay byte-identical to "
                            "uninstrumented ones")
    run_p.add_argument("--obs-export", choices=["json", "prom"], default=None,
                       help="print the full metrics snapshot after the run "
                            "in JSON or Prometheus text format (implies "
                            "--obs)")

    spans_p = sub.add_parser(
        "spans",
        help="run a workload with telemetry on and print the top-k slowest "
             "messages with their per-stage lifecycle breakdown "
             "(submit/admit/accept_quorum/commit/merge_release/deliver)")
    _add_cluster_arguments(spans_p, clients=4, messages=25, topology="wan")
    spans_p.add_argument("--top-k", type=positive_int, default=10, metavar="K",
                         help="how many of the slowest messages to break down")

    flow_p = sub.add_parser("flow", help="trace one multicast hop by hop (Fig. 5 view)")
    flow_p.add_argument("--protocol", choices=sorted(PROTOCOLS), default="wbcast")
    flow_p.add_argument("--dest-k", type=int, default=2)
    flow_p.add_argument("--lanes", action="store_true", help="lane diagram view")

    # Every registered bench: one option set, declared by its own spec.
    for name, spec in bench_specs().items():
        add_flags(sub.add_parser(name, help=spec.help), spec)
    return parser


def _cluster_for(args: argparse.Namespace, **config_kwargs):
    """``(protocol class, config)`` of a run/spans invocation; Skeen's
    singleton groups are forced here."""
    group_size = 1 if args.protocol == "skeen" else args.group_size
    config = ClusterConfig.build(
        args.groups, group_size, args.clients,
        shards_per_group=args.shards, **config_kwargs,
    )
    return PROTOCOLS[args.protocol], config


def network_for(args: argparse.Namespace, config: ClusterConfig):
    """``(delay model, δ)`` of the ``--topology`` / ``--delta`` choice; δ is
    the topology's largest one-way delay, in which latencies are reported."""
    if args.topology == "lan":
        return lan_testbed(config), LAN_ONE_WAY
    if args.topology == "wan":
        return wan_testbed(config), max(WAN_ONE_WAY.values())
    return ConstantDelay(args.delta), args.delta


def _ingress_options(args: argparse.Namespace):
    """Client-session coalescing knobs implied by the run arguments."""
    if args.ingress_batch <= 1:
        if args.ingress_linger is not None:
            print(
                "note: --ingress-linger has no effect without "
                "--ingress-batch > 1",
                file=sys.stderr,
            )
        return None
    linger = args.ingress_linger
    if linger is None:
        linger = args.batch_linger if args.batch_linger > 0 else 0.002
    return BatchingOptions(max_batch=args.ingress_batch, max_linger=linger)


def _print_ingress(ingress) -> None:
    """The one-line ingress summary shared by the sim and net branches."""
    if ingress is not None:
        print(
            f"ingress   : max_batch={ingress.max_batch} "
            f"linger={ingress.max_linger}s (client-side coalescing)"
        )


def _batching_options(args: argparse.Namespace):
    """Leader-side batching knobs implied by the run arguments.

    Returns ``(options_or_None, error_message_or_None)`` — one validation
    path shared by the sim and net branches, so the flags can never drift.
    """
    if args.batch_size > 1 or args.batch_linger > 0:
        if args.min_linger > args.batch_linger:
            return None, "--min-linger must not exceed --batch-linger"
        return BatchingOptions(
            max_batch=args.batch_size,
            max_linger=args.batch_linger,
            pipeline_depth=args.pipeline_depth,
            linger_mode=args.linger_mode,
            min_linger=args.min_linger,
        ), None
    if args.pipeline_depth > 1 or args.min_linger > 0 or args.linger_mode != "fixed":
        print(
            "note: --pipeline-depth/--linger-mode/--min-linger have no "
            "effect without --batch-size/--batch-linger",
            file=sys.stderr,
        )
    return None, None


def _obs_options(args: argparse.Namespace):
    """The ObsOptions implied by --obs/--obs-export (None: obs off)."""
    if not (getattr(args, "obs", False) or getattr(args, "obs_export", None)):
        return None
    return ObsOptions(enabled=True, export=getattr(args, "obs_export", None))


def _print_obs(telemetry, export: Optional[str]) -> None:
    """The post-run telemetry tail shared by the sim and net branches."""
    if telemetry is None:
        return
    if export == "json":
        print(telemetry.registry.render_json())
    elif export == "prom":
        print(telemetry.registry.render_prometheus(), end="")
    else:
        snap = telemetry.registry.snapshot()
        print(
            f"obs       : {len(snap['counters'])} counters, "
            f"{len(snap['gauges'])} gauges, "
            f"{len(snap['histograms'])} histograms recorded "
            "(--obs-export json|prom for the full snapshot)"
        )
    spans = telemetry.spans
    if spans is not None and spans.delivered_mids():
        delivered = spans.delivered_mids()
        fracs = sorted(
            f for m in delivered
            if (f := spans.attributed_fraction(m)) is not None
        )
        frac = fracs[len(fracs) // 2] if fracs else 0.0
        print(
            f"spans     : {len(delivered)} delivered messages traced, "
            f"{frac * 100:.1f}% of median e2e latency attributed to "
            "pipeline stages (see `repro spans`)"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.shards > 1 and not getattr(
        PROTOCOLS[args.protocol], "SUPPORTS_SHARDING", False
    ):
        print(
            f"note: --shards has no effect on {args.protocol} "
            "(no sharding support); running single-leader groups",
            file=sys.stderr,
        )
    reconfig = args.join_at is not None or args.leave_at is not None
    if args.conflict == "keys":
        if args.protocol != "wbcast":
            print(
                f"error: --conflict keys requires the wbcast protocol "
                f"(got {args.protocol})",
                file=sys.stderr,
            )
            return 2
        if reconfig:
            print(
                "error: --conflict keys does not support --join-at/--leave-at "
                "(reconfiguration requires the total order)",
                file=sys.stderr,
            )
            return 2
    protocol_cls, config = _cluster_for(args, conflict=args.conflict)
    group_size = len(config.members(0))
    if reconfig and args.protocol != "wbcast":
        print(
            f"error: --join-at/--leave-at require the wbcast protocol "
            f"(got {args.protocol})",
            file=sys.stderr,
        )
        return 2
    batching, error = _batching_options(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ingress = _ingress_options(args)
    if args.runtime == "net":
        return _cmd_run_net(args, protocol_cls, config, batching, ingress)
    if reconfig:
        return _cmd_run_elastic(args, protocol_cls, config, batching, ingress)
    network, delta = network_for(args, config)
    client_options = None
    if ingress is not None or args.conflict == "keys":
        client_options = ClientOptions(
            num_messages=args.messages,
            ingress=ingress,
            key_universe=args.key_universe if args.conflict == "keys" else 0,
        )
    result = run_workload(
        protocol_cls,
        config=config,
        messages_per_client=args.messages,
        dest_k=min(args.dest_k, args.groups),
        network=network,
        seed=args.seed,
        batching=batching,
        client_options=client_options,
        obs=_obs_options(args),
        # High-latency topologies need several probe/watermark round trips
        # after the last client completion before followers quiesce.
        drain_grace=max(0.05, 10 * delta),
    )
    print(f"protocol  : {args.protocol}")
    print(f"cluster   : {args.groups} groups x {group_size}, {args.clients} clients")
    if config.shards_per_group > 1:
        print(
            f"sharding  : {config.shards_per_group} ordering lanes/group "
            f"(lane leaders dealt round-robin over members)"
        )
    if config.conflict == "keys":
        print(
            f"conflict  : keys ({config.conflict_domains} domains, "
            f"{args.key_universe}-key universe; commuting messages "
            f"deliver at stability)"
        )
    _print_ingress(ingress)
    if batching is not None:
        supported = getattr(protocol_cls, "SUPPORTS_BATCHING", False)
        note = "" if supported else " (ignored: protocol does not batch)"
        linger = f"linger={batching.max_linger}s"
        if batching.linger_mode == "adaptive":
            linger = (
                f"linger=adaptive[{batching.min_linger}s, {batching.max_linger}s]"
            )
        print(
            f"batching  : max_batch={batching.max_batch} "
            f"{linger} depth={batching.pipeline_depth}{note}"
        )
    print(f"completed : {result.completed}/{result.expected}")
    ok = True
    for check in result.check():
        print(f"check     : {check.describe()}")
        ok = ok and check.ok
    summary = summarize_latencies(result.latencies())
    if summary:
        print(
            f"latency   : mean {summary.mean / delta:.2f}δ, "
            f"p95 {summary.p95 / delta:.2f}δ, max {summary.max / delta:.2f}δ"
        )
    print(f"throughput: {result.throughput():,.0f} msgs/s (virtual time)")
    _print_obs(result.telemetry, args.obs_export)
    return 0 if (ok and result.all_done) else 1


def _cmd_run_elastic(
    args: argparse.Namespace, protocol_cls, config, batching, ingress
) -> int:
    """Run the sim workload through a scripted join / leave (wbcast)."""
    from .reconfig.harness import run_elastic_workload
    from .sim.faults import JoinSpec, LeaveSpec, ReconfigPlan

    events = []
    if args.join_at is not None:
        events.append(JoinSpec(args.join_at, 0))
    if args.leave_at is not None:
        # The last *original* member of group 0 leaves (never the joiner).
        events.append(LeaveSpec(args.leave_at, config.members(0)[-1]))
    plan = ReconfigPlan(events=events)
    if args.topology != "constant":
        # The site topologies place only build-time processes; joiners and
        # the operator console have no placement there yet.
        print(
            "note: --topology is not supported with --join-at/--leave-at; "
            "running on the constant-delay network",
            file=sys.stderr,
        )
    network = ConstantDelay(args.delta)
    result = run_elastic_workload(
        protocol_cls,
        config,
        plan,
        messages_per_client=args.messages,
        dest_k=min(args.dest_k, args.groups),
        network=network,
        seed=args.seed,
        batching=batching,
        client_options=ClientOptions(
            num_messages=args.messages, retry_timeout=0.05, ingress=ingress
        ),
        attach_genuineness=True,
        obs=_obs_options(args),
    )
    print(f"protocol  : {args.protocol} (dynamic reconfiguration)")
    print(
        f"cluster   : {args.groups} groups x {len(config.members(0))}, "
        f"{args.clients} clients, shards={config.shards_per_group}"
    )
    for at, cmd in (
        [(e.at, "join(g0)") for e in plan.events if isinstance(e, JoinSpec)]
        + [(e.at, f"leave({e.pid})") for e in plan.events if isinstance(e, LeaveSpec)]
    ):
        print(f"reconfig  : {cmd} at t={at}s")
    print(f"completed : {result.completed}/{result.expected}")
    ok = True
    for check in result.check_elastic():
        print(f"check     : {check.describe()}")
        ok = ok and check.ok
    coverage = result.joiner_coverage_violations()
    print(
        "joiners   : "
        + (
            "state transfer + post-join coverage OK"
            if not coverage
            else f"FAILED — {coverage[:3]}"
        )
    )
    ok = ok and not coverage
    epochs = result.epochs()
    print(f"epochs    : {' -> '.join(str(c.epoch) for c in epochs)} "
          f"(final groups: {epochs[-1].groups})")
    _print_obs(result.telemetry, args.obs_export)
    return 0 if (ok and result.completed >= result.expected) else 1


async def _drive_net_reconfig(cluster, args, config, total: int, dest_k: int):
    """Half the load, the scripted join / leave, the other half; reconfig
    commands must be interleaved at wall-clock offsets, so this path polls
    for completion instead of using :func:`drive_cluster`."""
    import asyncio
    import random
    import time

    from .reconfig import JoinCmd, LeaveCmd
    from .reconfig.checking import check_elastic, epoch_chain, reference_manager

    rng = random.Random(args.seed)

    def submit(count: int):
        return [
            cluster.multicast(frozenset(rng.sample(range(args.groups), dest_k)))
            for _ in range(count)
        ]

    t0 = time.monotonic()
    handles = submit(total // 2)
    cmd_handles = []
    reconfig_ok = True
    leaver = config.members(0)[-1]
    if args.join_at is not None:
        await asyncio.sleep(args.join_at)
        joiner = await cluster.add_member(0)
        cmd_handles.append(cluster.submit_reconfig(JoinCmd(0, joiner)))
        if not await cluster.wait_installed(joiner, timeout=15.0):
            print("error: joiner never installed", file=sys.stderr)
            reconfig_ok = False
    if args.leave_at is not None:
        await asyncio.sleep(max(0.0, args.leave_at - (args.join_at or 0.0)))
        cmd_handles.append(cluster.submit_reconfig(LeaveCmd(leaver)))
    handles.extend(submit(total - total // 2))
    deadline = time.monotonic() + max(15.0, 0.05 * total)
    while time.monotonic() < deadline and not all(
        h.completed for h in handles + cmd_handles
    ):
        await asyncio.sleep(0.02)
    elapsed = time.monotonic() - t0
    epochs = epoch_chain(config, reference_manager(cluster.managers))
    checks = check_elastic(cluster.history(), epochs, quiescent=False)
    # The reconfiguration itself must have happened: commands completed,
    # joiner installed — a run where only the data traffic survives is a
    # reconfig regression, not a pass.
    done = all(h.completed for h in handles + cmd_handles) and reconfig_ok
    return done, sum(1 for h in handles if h.completed), elapsed, checks


def _cmd_run_net(
    args: argparse.Namespace, protocol_cls, config, batching, ingress
) -> int:
    """Run the workload over the asyncio TCP runtime (localhost sockets).

    The same :class:`~repro.client.AmcastClient` session API the simulator
    uses drives a real cluster here: submissions are coalesced client-side
    (``--ingress-batch``), acked by leaders, retransmitted on a timer, and
    the resulting history is verified with the standard checkers.
    """
    import asyncio

    from .bench.harness import apply_batching
    from .checking import check_all
    from .client import AmcastClientOptions
    from .net import LocalCluster, MultiProcCluster, TransportOptions
    from .workload.netdrive import drive_cluster, install_loop

    if args.topology != "constant" or args.delta != 0.001:
        print(
            "note: --topology/--delta model simulated networks; the net "
            "runtime runs on real localhost sockets and ignores them",
            file=sys.stderr,
        )
    protocol_options = (
        apply_batching(protocol_cls, None, batching) if batching is not None else None
    )
    total = args.clients * args.messages
    dest_k = min(args.dest_k, args.groups)
    reconfig = args.join_at is not None or args.leave_at is not None
    multiproc = args.procs_per_node == "lanes"
    if multiproc and reconfig:
        print(
            "error: --procs-per-node lanes does not support --join-at/"
            "--leave-at (reconfig drivers are single-process)",
            file=sys.stderr,
        )
        return 2
    loop_label = install_loop(args.loop)
    cluster_cls = MultiProcCluster if multiproc else LocalCluster

    async def scenario():
        cluster = cluster_cls(
            config,
            protocol_cls,
            options=protocol_options,
            seed=args.seed,
            client_options=AmcastClientOptions(retry_timeout=0.25, ingress=ingress),
            attach_reconfig=reconfig,
            transport_options=TransportOptions(codec=args.codec),
            obs=_obs_options(args),
        )
        await cluster.start()
        try:
            if reconfig:
                outcome = await _drive_net_reconfig(cluster, args, config, total, dest_k)
                return (*outcome, cluster.telemetry)
            drive = await drive_cluster(
                cluster, total, dest_k=dest_k, seed=args.seed,
                timeout=max(15.0, 0.05 * total),
            )
            quiescent = await cluster.wait_quiescent(
                total * dest_k * len(config.members(0)),
                timeout=max(10.0, 0.05 * total),
            )
            checks = check_all(cluster.history(), quiescent=quiescent)
            # Only the reconfig path gates the exit code on `done`; here
            # handle completion is the contract, and quiescence informs
            # the termination check only.
            return True, drive.completed, drive.elapsed, checks, cluster.telemetry
        finally:
            await cluster.stop()

    done, completed, elapsed, checks, telemetry = asyncio.run(scenario())
    print(f"protocol  : {args.protocol} (asyncio TCP runtime, localhost)")
    print(
        f"wire      : codec={args.codec} loop={loop_label} "
        f"procs-per-node={args.procs_per_node}"
    )
    if reconfig:
        events = []
        if args.join_at is not None:
            events.append(f"join(g0)@{args.join_at}s")
        if args.leave_at is not None:
            events.append(f"leave@{args.leave_at}s")
        print(f"reconfig  : {', '.join(events)}")
    print(
        f"cluster   : {args.groups} groups x "
        f"{len(config.members(0))}, 1 session, {total} submissions"
    )
    if config.shards_per_group > 1:
        print(f"sharding  : {config.shards_per_group} ordering lanes/group")
    _print_ingress(ingress)
    print(f"completed : {completed}/{total}")
    ok = True
    for check in checks:
        print(f"check     : {check.describe()}")
        ok = ok and check.ok
    if elapsed > 0:
        print(f"throughput: {completed / elapsed:,.0f} msgs/s (wall clock)")
    _print_obs(telemetry, args.obs_export)
    return 0 if (ok and done and completed == total) else 1


def _cmd_spans(args: argparse.Namespace) -> int:
    """Run a sim workload with telemetry on; print the span breakdown."""
    from .obs import render_spans_report

    protocol_cls, config = _cluster_for(args)
    network, delta = network_for(args, config)
    result = run_workload(
        protocol_cls,
        config=config,
        messages_per_client=args.messages,
        dest_k=min(args.dest_k, args.groups),
        network=network,
        seed=args.seed,
        obs=ObsOptions(enabled=True, top_k=args.top_k),
        drain_grace=max(0.05, 10 * delta),
    )
    print(
        f"protocol  : {args.protocol}  topology={args.topology}  "
        f"shards={config.shards_per_group}  "
        f"{result.completed}/{result.expected} completed"
    )
    spans = result.telemetry.spans if result.telemetry is not None else None
    if spans is None or not spans.delivered_mids():
        print("no delivered messages were traced", file=sys.stderr)
        return 1
    print(render_spans_report(spans, k=args.top_k))
    return 0 if result.all_done else 1


def _cmd_flow(args: argparse.Namespace) -> int:
    from .bench.flow import flow_report, lane_diagram
    from .bench.latency_table import DELTA, _build

    protocol_cls = PROTOCOLS[args.protocol]
    dests = tuple(range(max(1, args.dest_k)))
    sim, config, trace, tracker, clients = _build(
        protocol_cls, ConstantDelay(DELTA), [[(0.0, dests)]], num_groups=max(2, args.dest_k)
    )
    sim.run()
    mid = clients[0].sent[0]
    if args.lanes:
        print(lane_diagram(trace, mid, DELTA))
    else:
        print(flow_report(trace, mid, DELTA))
    return 0


_COMMANDS = {"run": _cmd_run, "spans": _cmd_spans, "flow": _cmd_flow}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(argv)
    command = _COMMANDS.get(args.command)
    if command is not None:
        return command(args)
    return run_bench(bench_specs()[args.command], args, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
