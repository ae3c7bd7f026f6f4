"""Figure 2 reproduction: the convoy effect in Skeen's protocol.

The scenario of the paper's Fig. 2: message ``m`` to groups {g1, g2} is
about to commit at g1 when a conflicting ``m'`` arrives over a near-zero
link, taking a local timestamp below m's global timestamp.  m's delivery
then waits for m' to commit — up to 2δ more, doubling the collision-free
latency from 2δ to 4δ.

We sweep the arrival offset of m' and report m's delivery latency at each
offset, showing the characteristic step: 2δ without interference, rising
towards 4δ as m' arrives ever closer to m's commit point.

Beyond the paper: :func:`run_convoy` takes batching and sharding knobs,
and :func:`run_convoy_ablation` sweeps them — *does batching widen the
convoy window C?*  A leader lingering a proposal for co-batched company
delays its commit point by up to the linger, which extends the interval
in which a conflicting ``m'`` can still sneak under ``m``'s global
timestamp; sharding instead routes ``m`` and ``m'`` to hash-chosen lanes,
so the collision only forms when they share one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Type

from ..config import BatchingOptions
from ..protocols import PROTOCOLS
from ..protocols.skeen import SkeenProcess
from .driver import BenchSpec, nonneg_float, option, positive_int
from .harness import apply_batching
from .latency_table import DELTA, collision_latency
from .report import render_table


@dataclass(frozen=True)
class ConvoyPoint:
    offset_delta: float  # when m' was injected, in δ after m
    latency_delta: float  # m's delivery latency, in δ


def run_convoy(
    protocol_cls: Optional[Type] = None,
    delta: float = DELTA,
    offsets: Optional[List[float]] = None,
    batching: Optional[BatchingOptions] = None,
    shards: int = 1,
) -> List[ConvoyPoint]:
    protocol_cls = protocol_cls or SkeenProcess
    options = (
        apply_batching(protocol_cls, None, batching) if batching is not None else None
    )
    if offsets is None:
        offsets = [i * 0.25 for i in range(0, 17)]  # 0δ .. 4δ
    points: List[ConvoyPoint] = []
    for off in offsets:
        latency = collision_latency(protocol_cls, delta, off * delta, options, shards)
        points.append(ConvoyPoint(off, latency / delta if latency else float("nan")))
    return points


def convoy_window(points: List[ConvoyPoint], tolerance: float = 0.05) -> float:
    """The convoy window C in δ: the widest injection offset still
    observed inflating m's latency beyond the collision-free baseline.

    When even the sweep's largest offset is inflated, the window never
    closed within the sweep — the honest answer is ``inf`` (right-
    censored), not the sweep edge masquerading as a measurement.
    """
    finite = [p for p in points if p.latency_delta == p.latency_delta]
    if not finite:
        return float("nan")
    base = min(p.latency_delta for p in finite)
    inflated = [p.offset_delta for p in finite if p.latency_delta > base + tolerance]
    if not inflated:
        return 0.0
    if max(inflated) >= max(p.offset_delta for p in finite):
        return float("inf")
    return max(inflated)


@dataclass(frozen=True)
class ConvoyVariant:
    """One row of the batching/sharding convoy ablation."""

    label: str
    protocol_cls: Type
    batching: Optional[BatchingOptions] = None
    shards: int = 1


@dataclass(frozen=True)
class ConvoyAblationRow:
    label: str
    base_delta: float  # collision-free latency (δ)
    worst_delta: float  # worst latency under the adversarial m' (δ)
    window_delta: float  # convoy window C (δ)


def run_convoy_ablation(
    variants: Sequence[ConvoyVariant],
    delta: float = DELTA,
    sweep_to: float = 8.0,
    step: float = 0.25,
) -> List[ConvoyAblationRow]:
    offsets = [i * step for i in range(int(sweep_to / step) + 1)]
    rows: List[ConvoyAblationRow] = []
    for v in variants:
        points = run_convoy(
            v.protocol_cls, delta, offsets, batching=v.batching, shards=v.shards
        )
        finite = [p.latency_delta for p in points if p.latency_delta == p.latency_delta]
        rows.append(
            ConvoyAblationRow(
                label=v.label,
                base_delta=min(finite) if finite else float("nan"),
                worst_delta=max(finite) if finite else float("nan"),
                window_delta=convoy_window(points),
            )
        )
    return rows


def format_convoy_ablation(rows: List[ConvoyAblationRow]) -> str:
    def window(value: float) -> str:
        if value == float("inf"):
            return "unclosed in sweep"
        return str(round(value, 3))

    return render_table(
        ["variant", "collision-free (δ)", "worst (δ)", "window C (δ)"],
        [
            (r.label, round(r.base_delta, 3), round(r.worst_delta, 3),
             window(r.window_delta))
            for r in rows
        ],
        title=(
            "Convoy ablation — does batching widen the convoy window C? "
            "(adversarial m' offset sweep, Fig. 2 construction)"
        ),
    )


def format_convoy(points: List[ConvoyPoint], protocol_name: str = "Skeen") -> str:
    return render_table(
        ["m' offset (δ)", "latency of m (δ)"],
        [(p.offset_delta, round(p.latency_delta, 3)) for p in points],
        title=(
            f"Figure 2 — convoy effect in {protocol_name}: delivery latency of m "
            "vs arrival offset of conflicting m'"
        ),
    )


@dataclass(frozen=True)
class ConvoyParams:
    """The sweep's knobs; every field is a flag."""

    protocol: str = option(
        "skeen", "--protocol", choices=sorted(PROTOCOLS), default="skeen"
    )
    batch_size: int = option(
        1,
        "--batch-size",
        type=positive_int,
        default=1,
        metavar="N",
        help="leader-side batch size (1: per-message protocol)",
    )
    batch_linger: float = option(
        0.0,
        "--batch-linger",
        type=nonneg_float,
        default=0.0,
        metavar="SECS",
        help="leader-side linger; the knob that widens C",
    )
    shards: int = option(
        1,
        "--shards",
        type=positive_int,
        default=1,
        metavar="S",
        help="ordering lanes per group (wbcast)",
    )


def run_cell(params: ConvoyParams, _cell) -> Tuple[str, List[ConvoyPoint]]:
    """Run the sweep with the knobs the protocol supports; returns the
    label of what actually ran, and the points."""
    protocol_cls = PROTOCOLS[params.protocol]
    batching = None
    if params.batch_size > 1 or params.batch_linger > 0:
        if getattr(protocol_cls, "SUPPORTS_BATCHING", False):
            batching = BatchingOptions(
                max_batch=params.batch_size, max_linger=params.batch_linger
            )
        else:
            print(
                f"note: --batch-size/--batch-linger have no effect on "
                f"{params.protocol} (no batching support)",
                file=sys.stderr,
            )
    shards = params.shards
    if shards > 1 and not getattr(protocol_cls, "SUPPORTS_SHARDING", False):
        print(
            f"note: --shards has no effect on {params.protocol} "
            "(no sharding support)",
            file=sys.stderr,
        )
        shards = 1
    # Label only the knobs that actually applied, so a recorded table
    # never claims a configuration the run did not execute.
    name = params.protocol
    if batching is not None:
        name += f" batch={params.batch_size} linger={params.batch_linger}s"
    if shards > 1:
        name += f" shards={shards}"
    return name, run_convoy(protocol_cls, batching=batching, shards=shards)


def report(_params: ConvoyParams, results) -> str:
    ((name, points),) = results
    finite = [p.latency_delta for p in points if p.latency_delta == p.latency_delta]
    return (
        format_convoy(points, name)
        + f"\n\ncollision-free: {min(finite):.2f}δ, worst under collision: "
        f"{max(finite):.2f}δ, window C: {convoy_window(points):.2f}δ "
        f"(paper, Skeen per-message: 2δ → 4δ)"
    )


BENCH = BenchSpec(
    name="convoy",
    help="Fig. 2 convoy-effect sweep "
    "(--protocol/--batch-size/--batch-linger/--shards axes)",
    params=ConvoyParams,
    run_cell=run_cell,
    report=report,
)
