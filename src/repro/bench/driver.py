"""One declarative bench spec, one generic driver.

A bench is a :class:`BenchSpec`: a frozen *params* dataclass whose fields
declare their own CLI flags (:func:`option`), the ``--quick`` overrides,
the grid (``cells`` / ``run_cell``), the report (``columns`` + ``headline``,
or a custom ``report``) and the acceptance ``gates``.  :func:`run_bench`
is the only code that resolves flags, sweeps, profiles, prints, writes
``--out`` / ``--json`` and turns gates into an exit code.

Adding a bench is one module defining ``BENCH = BenchSpec(...)`` plus its
name in :data:`BENCH_MODULES`; ``repro.cli`` registers whatever
:func:`bench_specs` returns and never names a bench itself.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .report import render_table

# -- argparse value types (the one copy of each) ------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonneg_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def float_list(text: str) -> Tuple[float, ...]:
    """Comma-separated floats (``0.5,0.9,0.99``)."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated float list: {text!r}"
        ) from exc


def int_list(text: str) -> Tuple[int, ...]:
    """Comma-separated positive ints (``1,16``)."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated int list: {text!r}"
        ) from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"values must be >= 1, got {text!r}")
    return values


# -- the spec -----------------------------------------------------------------


def option(
    value: Any,
    /,
    *strings: str,
    convert: Optional[Callable[[Any], Any]] = None,
    also: Sequence[str] = (),
    **add_argument_kwargs: Any,
) -> Any:
    """A params field set by a CLI flag.

    ``value`` is the field's full-grid default.  ``add_argument_kwargs``
    go to ``parser.add_argument`` verbatim; their ``default`` (None, or
    False for ``store_true``, unless given) is what *flag not passed*
    looks like, and must map to the field default.  A passed value is
    stored as ``convert(value)`` (identity when omitted), in this field
    and in every field named by ``also``.
    """
    return field(
        default=value,
        metadata={
            "flag": strings, "convert": convert, "also": tuple(also),
            "kwargs": add_argument_kwargs,
        },
    )


def seed_option() -> Any:
    return option(42, "--seed", type=int, metavar="N", help="workload seed (default: 42)")


@dataclass(frozen=True)
class NoParams:
    """Params of a bench that takes no flags."""


@dataclass(frozen=True)
class BenchSpec:
    """Everything the driver needs to run one ``repro`` bench subcommand."""

    #: The ``repro`` subcommand, and its one-line help.
    name: str
    help: str
    #: One run of the grid: ``run_cell(params, cell) -> point``.
    run_cell: Callable[[Any, Any], Any]
    #: Frozen dataclass; fields built with :func:`option` become flags.
    params: type = NoParams
    #: Field overrides applied by ``--quick`` (explicit flags still win),
    #: and by ``REPRO_BENCH_FULL=1`` for the paper-scale grid.
    quick: Mapping[str, Any] = field(default_factory=dict)
    full: Mapping[str, Any] = field(default_factory=dict)
    #: The driver's own flags this bench takes — any of ``quick``,
    #: ``profile``, ``out``, ``json`` — each with its help text.
    flags: Mapping[str, str] = field(default_factory=dict)
    #: The grid, in run order (default: one cell).
    cells: Callable[[Any], Iterable[Any]] = lambda p: (None,)
    #: Profiler phase label of a cell (``--profile``).
    phase: Callable[[Any], str] = str
    #: Table columns as ``(header, point -> cell value)`` and its title
    #: (a string, or ``(params, points) -> str``).
    columns: Sequence[Tuple[str, Callable[[Any], Any]]] = ()
    title: Union[str, Callable[[Any, List[Any]], str]] = ""
    headline: Optional[Callable[[List[Any]], str]] = None
    #: Replaces the table + headline report entirely.
    report: Optional[Callable[[Any, List[Any]], str]] = None
    #: A post-grid measurement (e.g. a crash run); its result is handed
    #: to ``footer`` / ``gates`` / ``payload`` as ``extra``.
    extra: Optional[Callable[[Any, List[Any]], Any]] = None
    #: Lines printed after the report: ``footer(params, points, extra)``.
    footer: Optional[Callable[[Any, List[Any], Any], List[str]]] = None
    #: Acceptance failures (non-empty: exit 1):
    #: ``gates(params, points, extra)``.
    gates: Optional[Callable[[Any, List[Any], Any], List[str]]] = None
    #: Extra top-level keys of the ``--json`` artifact.
    payload: Optional[Callable[[Any, List[Any], Any], Dict[str, Any]]] = None
    #: Free-text lines for the ``--out`` header (testbed, definitions).
    header: Sequence[str] = ()
    #: Drives real sockets rather than the simulator.
    needs_network: bool = False


#: ``add_argument`` keywords of the flags the driver acts on itself.
_DRIVER_FLAGS = {
    "quick": dict(action="store_true"),
    "profile": dict(nargs="?", const="-", metavar="FILE"),
    "out": dict(metavar="FILE"),
    "json": dict(metavar="FILE"),
}


def add_flags(parser: argparse.ArgumentParser, spec: BenchSpec) -> None:
    """Declare the spec's flags: every :func:`option` field of its
    params, then the driver's own."""
    for f in fields(spec.params):
        if "flag" in f.metadata:
            parser.add_argument(*f.metadata["flag"], **f.metadata["kwargs"])
    for name, help in spec.flags.items():
        parser.add_argument(f"--{name}", help=help, **_DRIVER_FLAGS[name])


def full_sweep_enabled() -> bool:
    """Opt into the larger parameter grid via REPRO_BENCH_FULL=1."""
    return os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def default_params(spec: BenchSpec, quick: bool = False, **changes: Any) -> Any:
    """The spec's grid — the ``--quick`` one, the ``REPRO_BENCH_FULL=1``
    one, or the default — with ``changes`` on top."""
    base = spec.quick if quick else (spec.full if full_sweep_enabled() else {})
    return replace(spec.params(), **{**base, **changes})


def resolve(spec: BenchSpec, args: argparse.Namespace) -> Any:
    """The params of a parsed invocation: the grid's defaults, then
    every flag passed with a non-default value."""
    changes = {}
    for f in fields(spec.params):
        if "flag" not in f.metadata:
            continue
        kwargs, convert = f.metadata["kwargs"], f.metadata["convert"]
        unset = kwargs.get(
            "default", False if kwargs.get("action") == "store_true" else None
        )
        # argparse's own dest: the first long flag, dashes to underscores.
        value = getattr(args, f.metadata["flag"][0].lstrip("-").replace("-", "_"))
        if value == unset:
            continue
        if convert is not None:
            value = convert(value)
        for name in (f.name, *f.metadata["also"]):
            changes[name] = value
    return default_params(spec, getattr(args, "quick", False), **changes)


def run_grid(spec: BenchSpec, params: Any, profiler: Any = None) -> List[Any]:
    """Run every cell; ``profiler`` (a :class:`~repro.obs.PhaseProfiler`)
    attributes CPU per cell phase."""
    points = []
    for cell in spec.cells(params):
        with profiler.phase(spec.phase(cell)) if profiler else nullcontext():
            points.append(spec.run_cell(params, cell))
    return points


def render(spec: BenchSpec, params: Any, points: List[Any]) -> str:
    """The report: the spec's own, or its table plus headline."""
    if spec.report is not None:
        return spec.report(params, points)
    title = spec.title(params, points) if callable(spec.title) else spec.title
    text = render_table(
        [header for header, _ in spec.columns],
        [[value(p) for _, value in spec.columns] for p in points],
        title=title,
    )
    if spec.headline is not None:
        text += "\n\n" + spec.headline(points)
    return text


def results_block(spec: BenchSpec, params: Any, argv: Sequence[str], body: str) -> str:
    """The standard results-file block: a generated header (what ran, the
    scalar params, the swept axes, the command line) then the report."""
    grid = asdict(params)
    axes = {k: v for k, v in grid.items() if isinstance(v, (tuple, list))}
    lines = [f"# {spec.help} ({spec.name})", *(f"# {line}" for line in spec.header)]
    lines.append(
        "# params: " + " ".join(f"{k}={v}" for k, v in grid.items() if k not in axes)
    )
    if axes:
        lines.append("# axes: " + " ".join(f"{k}={list(v)}" for k, v in axes.items()))
    lines.append("# cli: " + " ".join(["python -m repro", *argv]))
    return "\n".join(lines) + "\n\n" + body + "\n"


def write_json(payload: Any, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write a machine-readable bench artifact (``BENCH_*.json``).

    Deterministic rendering (sorted keys, trailing newline) so re-running
    an unchanged bench produces a byte-identical artifact.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _jsonable(value: Any) -> Any:
    """Dataclasses to dicts, tuples to lists, NaN to None."""
    if is_dataclass(value) and not isinstance(value, type):
        value = asdict(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and value != value:
        return None
    return value


def json_payload(spec: BenchSpec, params: Any, points: List[Any], extra: Any) -> Dict[str, Any]:
    """The ``--json`` artifact: bench name, grid params, points, plus
    whatever the spec's ``payload`` adds."""
    out = {"bench": spec.name.removeprefix("bench-"), "grid": params, "points": points}
    if spec.payload is not None:
        out.update(spec.payload(params, points, extra))
    return _jsonable(out)


def run_bench(spec: BenchSpec, args: argparse.Namespace, argv: Sequence[str]) -> int:
    """Run ``spec`` for a parsed namespace (``argv``: the command line it
    came from, recorded in ``--out``); returns the process exit code."""
    params = resolve(spec, args)
    profile = getattr(args, "profile", None)
    profiler = None
    if profile is not None:
        from ..obs import PhaseProfiler

        profiler = PhaseProfiler()
    points = run_grid(spec, params, profiler)
    extra = spec.extra(params, points) if spec.extra is not None else None
    lines = [render(spec, params, points)]
    if spec.footer is not None:
        lines += spec.footer(params, points, extra)
    body = "\n".join(lines)
    print(body)
    if profiler is not None:
        if profile == "-":
            print()
            print(profiler.report())
        else:
            profiler.write(profile)
            print(f"\nwrote profile to {profile}")
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(results_block(spec, params, argv, body))
        print(f"\nwrote {args.out}")
    if getattr(args, "json", None):
        write_json(json_payload(spec, params, points, extra), args.json)
        print(f"wrote {args.json}")
    failures = spec.gates(params, points, extra) if spec.gates is not None else []
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- the registry -------------------------------------------------------------

#: Modules of this package exporting a ``BENCH`` spec, in ``repro --help``
#: order.  This tuple is the registry: adding a bench is one name here.
BENCH_MODULES = (
    "latency_table",
    "convoy",
    "figure7",
    "figure8",
    "ablation",
    "complexity",
    "batching",
    "elasticity",
    "net",
    "serving",
    "conflict",
)


def bench_specs() -> Dict[str, BenchSpec]:
    """Every registered bench, keyed by subcommand name."""
    specs = (import_module(f"{__package__}.{m}").BENCH for m in BENCH_MODULES)
    return {spec.name: spec for spec in specs}
