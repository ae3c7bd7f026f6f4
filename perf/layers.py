"""Standalone layer drives: one layer at a time, no cluster around it.

``python perf/run.py --layers-only`` runs just these (a few seconds), so
a codec or queue change can iterate before paying for the full suite.
Each traced run also repeats them, which is why they are kept short.

* codec: per-type ``encode_frame`` / ``decode_frame`` cost over a corpus
  of real wire messages, captured from two small seeded simulator runs
  (one per-message, one batched) so every hot type is present whatever
  workload the caller is measuring;
* ``DeliveryQueue``: set_pending → commit → pop_deliverable;
* ``LaneMergeQueue``: push → advance → pop_next over two lanes;
* protocol call count: profiled function calls per multicast of a seeded
  simulator run — exactly repeatable, so it is a *work* count.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.bench.harness import run_workload
from repro.bench.topologies import wan_testbed
from repro.config import BatchingOptions, ClusterConfig
from repro.net.codec import decode_frame, encode_frame
from repro.protocols.ordering import DeliveryQueue
from repro.protocols.wbcast import WbCastProcess
from repro.protocols.wbcast.sharding import LaneMergeQueue
from repro.types import Timestamp, make_message
from repro.workload import ClientOptions

#: The wire types that carry the ordering traffic of every workload.
HOT_TYPES = (
    "MulticastMsg",
    "AcceptMsg",
    "AcceptAckMsg",
    "DeliverMsg",
    "AcceptBatchMsg",
    "AcceptAckBatchMsg",
    "DeliverBatchMsg",
    "SubmitAckMsg",
)

Corpus = Dict[str, List[Tuple[int, Any]]]


def capture_corpus(seed: int, per_type: int = 128) -> Corpus:
    """``type name -> [(sender, message)]`` from two seeded sim runs."""
    corpus: Corpus = {name: [] for name in HOT_TYPES}
    for batching in (None, BatchingOptions(max_batch=8, max_linger=0.002)):
        result = run_workload(
            WbCastProcess,
            num_groups=2,
            group_size=3,
            num_clients=4,
            dest_k=2,
            seed=seed,
            batching=batching,
            client_options=ClientOptions(num_messages=40, window=8),
        )
        for rec in result.trace.sends:
            bucket = corpus.get(type(rec.msg).__name__)
            if bucket is not None and len(bucket) < per_type:
                bucket.append((rec.src, rec.msg))
    missing = [name for name, msgs in corpus.items() if not msgs]
    if missing:
        raise RuntimeError(f"corpus capture saw no {missing}")
    return corpus


def _median_ns_per_item(fn: Callable[[], None], items: int, rounds: int) -> float:
    """Median over ``rounds`` of the per-item cost of ``fn()``."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / items)
    return statistics.median(samples)


def codec_drive(corpus: Corpus, rounds: int = 9) -> Dict[str, float]:
    """``net.codec.{encode,decode}_ns.<Type>`` over the corpus."""
    out: Dict[str, float] = {}
    for name in HOT_TYPES:
        msgs = corpus[name]
        frames = [encode_frame(src, msg) for src, msg in msgs]
        # decode_frame takes the frame body: everything after the 4-byte
        # length prefix the stream reader strips.
        bodies = [memoryview(frame)[4:] for frame in frames]
        for src, msg in msgs[:8]:
            if decode_frame(memoryview(encode_frame(src, msg))[4:]) != (src, msg):
                raise RuntimeError(f"{name} does not round-trip the codec")

        def encode_all(msgs=msgs) -> None:
            for src, msg in msgs:
                encode_frame(src, msg)

        def decode_all(bodies=bodies) -> None:
            for body in bodies:
                decode_frame(body)

        out[f"net.codec.encode_ns.{name}"] = _median_ns_per_item(
            encode_all, len(msgs), rounds
        )
        out[f"net.codec.decode_ns.{name}"] = _median_ns_per_item(
            decode_all, len(bodies), rounds
        )
    return out


def delivery_queue_drive(entries: int) -> float:
    """``DeliveryQueue`` pops per second, 16 provisional entries in flight.

    Every message is stamped provisionally, committed at a later global
    timestamp and popped in order — the unsharded delivery path's queue
    work per message, with a window of pending timestamps ahead of the
    head as under load.
    """
    msgs = [make_message(0, i, (0, 1)) for i in range(entries)]
    queue = DeliveryQueue()
    window = 16
    popped = 0
    t0 = time.perf_counter()
    for i, m in enumerate(msgs):
        queue.set_pending(m.mid, Timestamp(i + 1, 0))
        if i >= window:
            done = msgs[i - window]
            queue.commit(done, Timestamp(i - window + 1, 1))
            for _ in queue.pop_deliverable():
                popped += 1
    for i in range(max(0, entries - window), entries):
        queue.commit(msgs[i], Timestamp(i + 1, 1))
    for _ in queue.pop_deliverable():
        popped += 1
    elapsed = time.perf_counter() - t0
    if popped != entries:
        raise RuntimeError(f"DeliveryQueue released {popped} of {entries}")
    return popped / elapsed


def lane_merge_drive(entries: int) -> float:
    """``LaneMergeQueue`` pops per second merging two busy lanes.

    Lanes alternate, so every other pop first finds the head blocked on
    the still-empty sibling lane and is released by that lane's next push
    — the merge's steady state under symmetric load.
    """
    msgs = [make_message(0, i, (0, 1)) for i in range(entries)]
    merge = LaneMergeQueue(2)
    popped = 0
    t0 = time.perf_counter()
    for i, m in enumerate(msgs):
        merge.push(i % 2, m, Timestamp(i + 1, i % 2))
        while merge.pop_next()[0] is not None:
            popped += 1
    for lane in (0, 1):
        merge.advance(lane, Timestamp(entries + 1, lane))
    while merge.pop_next()[0] is not None:
        popped += 1
    elapsed = time.perf_counter() - t0
    if popped != entries:
        raise RuntimeError(f"LaneMergeQueue released {popped} of {entries}")
    return popped / elapsed


def py_calls_per_mcast(seed: int, messages_per_client: int) -> float:
    """Profiled function calls per multicast of a seeded WAN sim run."""
    config = ClusterConfig.build(3, 3, 4)
    prof = cProfile.Profile()
    prof.enable()
    result = run_workload(
        WbCastProcess,
        config=config,
        network=wan_testbed(config, spread_leaders=True),
        seed=seed,
        dest_k=2,
        client_options=ClientOptions(num_messages=messages_per_client, window=4),
    )
    prof.disable()
    if not result.all_done:
        raise RuntimeError("profiled sim run did not complete")
    return pstats.Stats(prof).total_calls / result.completed


def run_layer_drives(
    seed: int, queue_entries: int, profiled_msgs: int
) -> Dict[str, Tuple[float, str, str]]:
    """Every standalone metric: ledger name -> (value, unit, kind)."""
    out = {
        name: (ns, "ns", "wall")
        for name, ns in codec_drive(capture_corpus(seed)).items()
    }
    out["protocols.ordering.pops_per_s"] = (
        delivery_queue_drive(queue_entries), "1/s", "wall")
    out["protocols.wbcast.sharding.merge_pops_per_s"] = (
        lane_merge_drive(queue_entries), "1/s", "wall")
    out["protocols.wbcast.py_calls_per_mcast"] = (
        py_calls_per_mcast(seed, profiled_msgs), "count", "work")
    return out
