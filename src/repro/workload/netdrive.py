"""Closed-loop driving of live TCP clusters, shared by bench and CLI.

The sim workloads (:mod:`repro.workload.clients`) run inside virtual
time; a live cluster needs the same closed-loop shape — submit through
:class:`~repro.client.AmcastClient` sessions, refill as completions free
window slots, stop at a per-session message budget — expressed over
wall-clock asyncio.  :func:`drive_cluster` is that driver: the
``bench-net`` sweep and the non-reconfiguration branch of ``repro run
--runtime net`` both use it, so the measured ingress path and the demoed
one cannot drift apart.  (``--join-at``/``--leave-at`` runs interleave
operator commands at wall-clock offsets and keep their own submit loop.)
"""

from __future__ import annotations

import asyncio
import functools
import random
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@functools.lru_cache(maxsize=None)
def install_loop(loop: str) -> str:
    """Install the requested event-loop policy; returns the honest label.

    uvloop is optional and must not be a hard dependency: when requested
    but absent, the default loop runs and the recorded label says so —
    results files never claim a loop that didn't run.
    """
    if loop == "uvloop":
        try:
            import uvloop
        except ImportError:
            print("note: uvloop requested but not installed; using the "
                  "default event loop", file=sys.stderr)
            return "default (uvloop unavailable)"
        asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
        return "uvloop"
    return "default"


@dataclass
class DriveResult:
    """What one closed-loop drive observed."""

    #: Messages that reached partial delivery before the deadline.
    completed: int
    #: Messages submitted in total (completed + lost-to-deadline).
    submitted: int
    #: First submit → last completion, in seconds.
    elapsed: float
    #: Per-message submit → partial-delivery latencies, in seconds.
    latencies: List[float] = field(default_factory=list)
    #: Transport-level backpressure crossings summed over all sessions.
    backpressure_events: int = 0

    @property
    def throughput(self) -> float:
        """Completed messages per second (0 when nothing completed)."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed / self.elapsed


async def drive_cluster(
    cluster,
    messages_per_session: int,
    dest_k: int = 2,
    timeout: float = 60.0,
    seed: int = 0,
    sessions: Optional[Sequence[int]] = None,
) -> DriveResult:
    """Drive every session of ``cluster`` closed-loop and await the lot.

    Each session submits ``messages_per_session`` multicasts, each to
    ``dest_k`` random destination groups; the session's own window is the
    flow control (submissions past it queue in the session backlog, which
    is also where transport backpressure parks fresh launches).  Returns
    once every submission completed or ``timeout`` expired, whichever is
    first — a result with ``completed < submitted`` means the deadline
    cut the run short.
    """
    rng = random.Random(seed)
    group_ids = sorted(cluster.config.group_ids)
    k = min(dest_k, len(group_ids))
    session_indices = list(sessions) if sessions is not None else list(
        range(len(cluster.sessions))
    )
    loop = asyncio.get_running_loop()
    done = asyncio.Event()
    remaining = len(session_indices) * messages_per_session
    completions: List[float] = []
    latencies: List[float] = []
    t0 = loop.time()

    def on_complete(handle) -> None:
        nonlocal remaining
        remaining -= 1
        completions.append(handle.completed_at)
        if handle.launched_at is not None:
            latencies.append(handle.completed_at - handle.launched_at)
        if remaining <= 0:
            done.set()

    submitted = 0
    for i in session_indices:
        session = cluster.sessions[i]
        for n in range(messages_per_session):
            dests = frozenset(rng.sample(group_ids, k))
            handle = session.submit(dests, payload=None)
            handle.on_complete(on_complete)
            submitted += 1

    try:
        await asyncio.wait_for(done.wait(), timeout)
    except asyncio.TimeoutError:
        pass

    elapsed = (max(completions) - t0) if completions else (loop.time() - t0)
    backpressure = sum(
        t.backpressure_events for t in getattr(cluster, "_session_transports", [])
    )
    return DriveResult(
        completed=len(completions),
        submitted=submitted,
        elapsed=elapsed,
        latencies=latencies,
        backpressure_events=backpressure,
    )
