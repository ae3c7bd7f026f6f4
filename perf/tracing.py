"""Self-time spans recorded from outside the program.

The traced runs wrap the calls *into* each layer's public functions —
nothing under ``src/`` knows it is being measured.  Everything the TCP
runtime does happens on one event-loop thread and every wrapped call is
synchronous, so a plain stack gives exact nesting: a span's **self time**
is its duration minus the durations of the spans it called.  Summed over
a phase, self times plus whatever the loop did outside any wrapper
(``asyncio_other``) equal the process CPU of that phase — the
reconciliation line ``run.py`` prints.

Span names are ``<layer>`` or ``<layer>:<detail>`` (``protocols.wbcast:
AcceptMsg``); :meth:`Tracer.layer_ns` folds the detail away.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.net import transport as _transport
from repro.net.runtime import NetRuntime
from repro.net.transport import NodeTransport

#: Wire messages that exist only to move lane watermarks: work a sharded
#: cluster does that delivers nothing (the wasted-work ratio's numerator).
LANE_CONTROL = frozenset(
    {"LaneProbeMsg", "LaneAdvanceMsg", "LaneAdvanceAckMsg", "LaneWatermarkMsg"}
)


def wire_type(msg: Any) -> str:
    """Type name of a wire message, seen through lane envelopes."""
    return type(getattr(msg, "inner", msg)).__name__


class Tracer:
    """Accumulates self time and call counts per span name."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Plain tallies taken at the same boundaries (bytes, entries).
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[List[int]] = []

    def wrap(
        self,
        fn: Callable,
        name: Optional[str] = None,
        key: Optional[Callable[..., str]] = None,
    ) -> Callable:
        """``fn`` recorded as a span called ``name`` (or ``key(*args)``)."""
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = name if key is None else key(*args)
            children = [0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_ns[span] += dur - children[0]
                calls[span] += 1

        return traced

    def clear(self) -> None:
        """Forget everything recorded so far (after a warm-up)."""
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def merge(self, other: "Tracer") -> None:
        """Add another tracer's totals to this one."""
        for mine, theirs in (
            (self.self_ns, other.self_ns),
            (self.calls, other.calls),
            (self.counts, other.counts),
        ):
            for span, n in theirs.items():
                mine[span] += n

    def layer_ns(self) -> Dict[str, int]:
        """Self time per layer (span details folded into their layer)."""
        out: Dict[str, int] = defaultdict(int)
        for span, ns in self.self_ns.items():
            out[span.split(":", 1)[0]] += ns
        return dict(out)

    def detail(self, layer: str) -> Dict[str, Tuple[int, int]]:
        """``detail -> (self ns, calls)`` of one layer's ``layer:detail`` spans."""
        prefix = layer + ":"
        return {
            span[len(prefix):]: (ns, self.calls[span])
            for span, ns in self.self_ns.items()
            if span.startswith(prefix)
        }

    # -- member handlers (both runtimes) -----------------------------------

    def wrap_member(self, proc: Any) -> None:
        """Span every ``on_message`` of one group member, by message type.

        A sharded host's own routing/merge work becomes the self time of
        ``protocols.wbcast.sharding``; its lanes' handlers are child spans.
        """
        counts = self.counts

        def handler_key(sender, msg) -> str:
            kind = wire_type(msg)
            if kind in ("AcceptBatchMsg", "MulticastBatchMsg"):
                counts[kind + ".entries"] += len(msg.entries)
            return "protocols.wbcast:" + kind

        lanes = getattr(proc, "lanes", None)
        if lanes:
            proc.on_message = self.wrap(proc.on_message, "protocols.wbcast.sharding")
            for lane in lanes:
                lane.on_message = self.wrap(lane.on_message, key=handler_key)
        else:
            proc.on_message = self.wrap(proc.on_message, key=handler_key)

    def bind_processes(self, members: Dict[int, Any]) -> None:
        """``run_workload`` monitor hook: wrap the simulator's members."""
        for proc in members.values():
            self.wrap_member(proc)

    # -- TCP runtime ---------------------------------------------------------

    @contextmanager
    def patched_wire(self) -> Iterator[None]:
        """Span the codec and transport entry points while the block runs.

        ``NetRuntime`` binds ``transport.send`` at construction and the
        transport imports the codec functions by name, so these three are
        swapped where the program looks them up, and put back after.
        """
        counts = self.counts
        encode, decode = _transport.encode_frame, _transport.decode_buffer
        send, set_timer = NodeTransport.send, NetRuntime.set_timer
        traced_encode = self.wrap(encode, "net.codec.encode")

        def counting_encode(sender, msg, codec="binary"):
            frame = traced_encode(sender, msg, codec)
            counts["frames"] += 1
            counts["bytes"] += len(frame)
            return frame

        wrap = self.wrap

        def traced_set_timer(runtime, delay, fn):
            return set_timer(runtime, delay, wrap(fn, "timers"))

        _transport.encode_frame = counting_encode
        # Handlers run inside decode_buffer's scan as its child spans, so
        # its self time is the decoding alone.
        _transport.decode_buffer = self.wrap(decode, "net.codec.decode")
        NodeTransport.send = self.wrap(send, "net.transport.send")
        NetRuntime.set_timer = traced_set_timer
        try:
            yield
        finally:
            _transport.encode_frame, _transport.decode_buffer = encode, decode
            NodeTransport.send, NetRuntime.set_timer = send, set_timer

    def wrap_cluster_recording(self, cluster: Any) -> None:
        """Before ``cluster.start()``: span delivery/history recording.

        The runtimes bind the delivery callback when the cluster starts,
        so it is replaced on the instance first.
        """
        cluster._record_delivery = self.wrap(
            cluster._record_delivery, "net.cluster.record"
        )
        cluster.tracker.on_deliver = self.wrap(
            cluster.tracker.on_deliver, "workload.tracker"
        )

    def wrap_cluster_processes(self, cluster: Any) -> None:
        """After ``cluster.start()``: span members and client sessions."""
        for proc in cluster.processes.values():
            self.wrap_member(proc)
        for session in cluster.sessions:
            session.submit = self.wrap(session.submit, "client.submit")
            session.on_message = self.wrap(session.on_message, "client.on_message")


def collect_unwatched() -> None:
    """``gc.collect()`` between repeats, hidden from any :class:`GcWatch`:
    the pauses worth reporting are the ones the program's own allocation
    triggers, not the harness's housekeeping."""
    watchers, gc.callbacks[:] = gc.callbacks[:], []
    try:
        gc.collect()
    finally:
        gc.callbacks[:] = watchers


class GcWatch:
    """Collector pauses seen from ``gc.callbacks`` while the block runs."""

    def __init__(self) -> None:
        self.gen2_count = 0
        self.pause_ms_max = 0.0
        self._t0 = 0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
            return
        pause_ms = (time.perf_counter_ns() - self._t0) / 1e6
        if pause_ms > self.pause_ms_max:
            self.pause_ms_max = pause_ms
        if info["generation"] == 2:
            self.gen2_count += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
