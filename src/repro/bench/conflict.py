"""Conflict-aware delivery: total-order vs keys-mode delivery latency.

The conflict-relation layer (``ClusterConfig.conflict = "keys"``) lets a
committed/stable message deliver as soon as no *conflicting* message can
be ordered before it: messages on disjoint conflict domains commute, so
they skip the cross-lane merge wait (sharded groups) or the head-of-line
wait behind unrelated pending messages (single-leader groups).  This
bench records the claim on the WAN grid: a disjoint-key Zipfian workload
is run under ``conflict=total`` and ``conflict=keys`` on the same seed,
geometry and placement, and the delivery-latency distributions are
compared cell by cell.

Every cell's history goes through the full checker stack — the classic
total-order checks for the total cells, the partial-order
conflict-ordering / domain-agreement checks for the keys cells, and the
serving linearizability checker for both — plus a keys-mode
lane-leader-crash run; a run that fails any of them is not a
measurement.

Run ``python -m repro bench-conflict``; ``--quick`` shrinks the grid for
CI, ``--out FILE`` writes the standard results block
(``results/conflict.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..checking import check_all
from ..config import ClusterConfig
from ..protocols import PROTOCOLS
from ..workload import ClientOptions
from .batching import wan_protocol_options
from .driver import (
    BenchSpec,
    option,
    positive_int,
    seed_option,
)
from .harness import run_workload
from .metrics import summarize_latencies
from .serving import checker_failures, run_crash_point, run_wan_arm
from .topologies import wan_site_map, wan_testbed

#: Zipf exponents swept by default: mildly skewed traffic is mostly
#: disjoint-key (the commuting case keys mode exploits); the hot-key
#: setting shows the degenerate limit where most messages conflict.
CONFLICT_SKEWS = (0.6,)
#: Lanes per group swept by default: the single leader and a sharded
#: deployment (where total order additionally pays the cross-lane merge).
CONFLICT_SHARDS = (1, 3)


@dataclass(frozen=True)
class ConflictPoint:
    """One measured (arm, conflict mode, shards, skew) grid cell.

    The *delivery* arm runs cross-group closed-loop multicasts (dest_k=2,
    Zipfian single-key footprints) — the workload where total order pays
    the convoy: one slow-committing multicast blocks every later message,
    while keys mode only blocks the conflicting ones.  The *serving* arm
    runs the read/write session mix so the linearizability checker has
    real reads to verify per cell.
    """

    arm: str
    conflict: str
    shards: int
    skew: float
    ops: int
    reads_local: int
    reads_fallback: int
    p50_delivery_ms: float
    mean_delivery_ms: float
    p95_delivery_ms: float
    checks_ok: bool
    linearizable: bool


@dataclass(frozen=True)
class ConflictParams:
    """The sweep's grid; fields built with ``option`` are its flags."""

    shard_counts: Tuple[int, ...] = option(
        CONFLICT_SHARDS,
        "--shards",
        type=positive_int,
        metavar="N",
        convert=lambda v: (v,),
        help="single lane-count override for the shards axis "
        f"(default axis: {','.join(map(str, CONFLICT_SHARDS))})",
    )
    skews: Tuple[float, ...] = option(
        CONFLICT_SKEWS,
        "--skew",
        type=float,
        metavar="S",
        convert=lambda v: (v,),
        help="single Zipf-exponent override for the skew axis "
        f"(default axis: {','.join(map(str, CONFLICT_SKEWS))})",
    )
    #: Serving arm: session mix sizing (linearizability coverage).
    ops_per_session: int = option(
        40,
        "--ops",
        type=positive_int,
        metavar="N",
        help="serving-arm ops per session (default: 40; 20 with --quick)",
    )
    sessions: int = option(
        4,
        "--sessions",
        type=positive_int,
        metavar="N",
        help="serving-arm concurrent sessions (default: 4; 3 with --quick)",
    )
    crash_run: bool = option(
        True,
        "--no-crash",
        action="store_true",
        convert=lambda v: not v,
        help="skip the keys-mode lane-leader-crash run",
    )
    seed: int = seed_option()
    protocol: str = "wbcast"
    num_groups: int = 3
    group_size: int = 3
    #: Delivery arm: closed-loop cross-group multicast clients.
    clients: int = 6
    messages_per_client: int = 30
    dest_k: int = 2
    window: int = 4
    serving_window: int = 2
    num_keys: int = 64
    #: Serving arm mix: write-heavy, so the per-domain freshness gates
    #: and the linearizability checker both get real work.
    read_ratio: float = 0.25
    read_timeout: float = 0.5


def delivery_latencies(result) -> List[float]:
    """Launch → partial-delivery latency of every completed multicast."""
    history = result.history()
    out: List[float] = []
    for mid, (_, t0, _m) in history.multicasts.items():
        done = history.partial_delivery_time(mid)
        if done is not None:
            out.append(done - t0)
    return sorted(out)


def _point(
    arm, conflict, shards, skew, ops, reads_local, reads_fallback, latencies, checks, lin
) -> ConflictPoint:
    summary = summarize_latencies(latencies)
    return ConflictPoint(
        arm=arm,
        conflict=conflict,
        shards=shards,
        skew=skew,
        ops=ops,
        reads_local=reads_local,
        reads_fallback=reads_fallback,
        p50_delivery_ms=summary.p50 * 1000 if summary else float("nan"),
        mean_delivery_ms=summary.mean * 1000 if summary else float("nan"),
        p95_delivery_ms=summary.p95 * 1000 if summary else float("nan"),
        checks_ok=all(c.ok for c in checks),
        linearizable=all(c.ok for c in lin),
    )


def run_delivery_cell(
    sweep: ConflictParams, shards: int, skew: float, conflict: str
) -> ConflictPoint:
    """Cross-group multicast latency under one conflict mode.

    The geometry is the convoy-prone one: group leaders spread over the
    three data centres (``spread_leaders``), so the Skeen gather between
    a message's destination leaders pays a *pair-dependent* WAN round —
    60/75/130 ms RTT depending on which DCs the destinations' leaders
    landed in.  A message gathering over the slow pair holds a smaller
    proposed timestamp while it straggles, and in total order every
    later-timestamped committed message behind it waits; keys mode lets
    the disjoint-key ones through.  The median-delivery-latency delta is
    exactly that skipped wait.  Sharded cells keep the topology-blind
    (flat) lane deal for the same reason: lanes land on different DCs,
    so the cross-lane merge costs real probe rounds.
    """
    config = ClusterConfig.build(
        sweep.num_groups,
        sweep.group_size,
        sweep.clients,
        shards_per_group=shards,
        conflict=conflict,
    )
    sites = wan_site_map(config, spread_leaders=True, spread_clients=True)
    network = wan_testbed(config, jitter=0.05, site_map=sites)
    result = run_workload(
        PROTOCOLS[sweep.protocol],
        config=config,
        messages_per_client=sweep.messages_per_client,
        dest_k=sweep.dest_k,
        network=network,
        seed=sweep.seed,
        protocol_options=wan_protocol_options(sweep.protocol, "flat"),
        client_options=ClientOptions(
            num_messages=sweep.messages_per_client,
            window=sweep.window,
            key_universe=sweep.num_keys,
            key_skew=skew,
        ),
        record_sends=False,
        # Keys-mode lane floors converge via LANE_PROBE rounds, so the
        # post-load drain must cover a WAN round trip for the quiescent
        # termination check to hold.
        drain_grace=1.0,
    )
    return _point(
        "delivery", conflict, shards, skew, result.completed, 0, 0,
        result.latencies(),
        checks=check_all(result.history()),
        lin=[],  # no serving reads on this arm
    )


def run_serving_cell(
    sweep: ConflictParams, shards: int, skew: float, conflict: str
) -> ConflictPoint:
    """Serving session mix under one conflict mode: real reads for the
    linearizability checker, per-domain freshness gates exercised."""
    # Identical geometry for the total and keys arms of a cell — the
    # conflict mode is the only thing that varies, so the latency delta is
    # attributable to delivery granularity alone.
    result = run_wan_arm(
        sweep, sweep.read_ratio, skew, shards, conflict, sweep.serving_window,
        protocol_options=wan_protocol_options(sweep.protocol, "site"),
    )
    return _point(
        "serving", conflict, shards, skew, result.ops_completed,
        result.reads_local, result.reads_fallback,
        delivery_latencies(result),
        checks=result.check() + result.genuineness.check(),
        lin=result.check_serving(),
    )


def run_crash_cell(sweep: ConflictParams, _points=None) -> Optional[Dict[str, Any]]:
    """Keys-mode lane-leader crash: the partial-order checkers and the
    linearizability checker must hold through a lane takeover too."""
    if not sweep.crash_run:
        return None
    return run_crash_point(
        sweep, max(2, max(sweep.shard_counts)), "keys", sweep.read_ratio, max(sweep.skews)
    )


def cells(sweep: ConflictParams) -> Iterator[Tuple]:
    for shards in sweep.shard_counts:
        for skew in sweep.skews:
            for conflict in ("total", "keys"):
                yield run_delivery_cell, shards, skew, conflict
                yield run_serving_cell, shards, skew, conflict


# -- reporting ----------------------------------------------------------------

COLUMNS = (
    ("arm", lambda p: p.arm),
    ("conflict", lambda p: p.conflict),
    ("shards", lambda p: p.shards),
    ("skew", lambda p: f"{p.skew:.2f}"),
    ("ops", lambda p: p.ops),
    (
        "local/fallback",
        lambda p: f"{p.reads_local}/{p.reads_fallback}" if p.arm == "serving" else "-",
    ),
    ("p50 dlv (ms)", lambda p: p.p50_delivery_ms),
    ("mean dlv (ms)", lambda p: p.mean_delivery_ms),
    ("p95 dlv (ms)", lambda p: p.p95_delivery_ms),
    ("checks", lambda p: "ok" if p.checks_ok and p.linearizable else "FAIL"),
)


def headline(points: List[ConflictPoint]) -> str:
    """Median-delivery-latency delta, keys vs total, per (shards, skew) —
    measured on the delivery arm (cross-group multicasts)."""
    delivery = [p for p in points if p.arm == "delivery"]
    by_key = {(p.conflict, p.shards, p.skew): p for p in delivery}
    lines: List[str] = []
    for shards in sorted({p.shards for p in delivery}):
        for skew in sorted({p.skew for p in delivery}):
            total = by_key.get(("total", shards, skew))
            keys = by_key.get(("keys", shards, skew))
            if not total or not keys or total.p50_delivery_ms != total.p50_delivery_ms:
                continue
            delta = (1.0 - keys.p50_delivery_ms / total.p50_delivery_ms) * 100
            lines.append(
                f"shards={shards} skew={skew:.2f}: median delivery "
                f"{keys.p50_delivery_ms:.1f} ms (keys) vs "
                f"{total.p50_delivery_ms:.1f} ms (total) — {delta:+.0f}% lower"
            )
    ok = all(p.checks_ok and p.linearizable for p in points)
    lines.append(
        "checkers: "
        + ("all cells pass" if ok else "FAILED on some cell")
        + " (total cells: total-order; keys cells: conflict-ordering + "
        "domain-agreement; all cells: linearizability)"
    )
    return "\n".join(lines)


def footer(
    _sweep: ConflictParams, _points: List[ConflictPoint], crash: Optional[Dict[str, Any]]
) -> List[str]:
    if crash is None:
        return []
    verdict = "pass" if crash["linearizable"] and crash["checks_ok"] else "FAILED"
    return [
        f"keys-mode lane-leader crash (pid {crash['crashed_pid']}): "
        f"{crash['reads_local']} local / {crash['reads_fallback']} "
        f"fallback reads, checkers {verdict}"
    ]


def acceptance_failures(
    _sweep: Any, points: List[ConflictPoint], crash: Optional[Dict[str, Any]]
) -> List[str]:
    """The recorded-run gates: every cell's checkers pass and keys beats
    total on median delivery latency in at least one sharded cell."""
    failures = checker_failures(
        points, crash, lambda p: f"{p.arm} conflict={p.conflict} shards={p.shards}"
    )
    by_key = {
        (p.conflict, p.shards, p.skew): p for p in points if p.arm == "delivery"
    }
    wins = [
        keys.p50_delivery_ms < total.p50_delivery_ms
        for (conflict, shards, skew), total in by_key.items()
        if conflict == "total"
        for keys in [by_key.get(("keys", shards, skew))]
        if keys is not None
    ]
    if wins and not any(wins):
        failures.append("keys mode never beat total on median delivery latency")
    return failures


BENCH = BenchSpec(
    name="bench-conflict",
    help="conflict-aware delivery: total vs keys delivery latency "
    "on the WAN grid (Zipfian disjoint-key workload)",
    params=ConflictParams,
    # One sharded cell pair at the default skew.
    quick=dict(
        shard_counts=(3,),
        clients=4,
        messages_per_client=12,
        sessions=3,
        ops_per_session=20,
    ),
    flags=dict(
        out="also write the standard results block to FILE",
        quick="CI smoke grid (one sharded total/keys cell pair)",
    ),
    cells=cells,
    run_cell=lambda sweep, cell: cell[0](sweep, *cell[1:]),
    columns=COLUMNS,
    title="Conflict-aware delivery — total vs keys on the WAN grid",
    headline=headline,
    extra=run_crash_cell,
    footer=footer,
    gates=acceptance_failures,
    header=(
        "WAN testbed (3 DCs, clients spread over DCs), every cell run under "
        "conflict=total and conflict=keys on the same seed",
        "delivery arm: spread leaders + flat lane deal (pair-dependent "
        "60/75/130 ms gather RTTs), closed-loop cross-group multicasts with "
        "Zipfian single-key footprints",
        "serving arm: site placement, read/write session mix "
        "(linearizability coverage)",
    ),
)
