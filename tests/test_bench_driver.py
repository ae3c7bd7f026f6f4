"""The bench registry, the generic driver, and the frozen CLI surface.

``tests/golden/`` was recorded at the commit *before* the six hand-rolled
bench CLIs were replaced by :mod:`repro.bench.driver`:

* ``cli_flags.json`` — for every ``repro`` subcommand, each option's
  strings, default, choices and nargs (:func:`flag_inventory`);
* ``<name>.stdout`` — stdout of the deterministic simulator smokes CI
  runs (``SMOKES`` maps each file to its command line).

The refactored CLI must reproduce both byte for byte.
"""

import argparse
import dataclasses
import json
import pathlib

import pytest

from repro.bench.driver import (
    BenchSpec,
    NoParams,
    add_flags,
    bench_specs,
    default_params,
    option,
    resolve,
    run_bench,
)
from repro.bench.harness import run_workload
from repro.cli import _build_parser, main
from repro.config import BatchingOptions
from repro.obs import ObsOptions
from repro.protocols import WbCastProcess
from repro.reconfig.harness import run_elastic_workload
from repro.serving import run_serving_workload
from repro.sim.faults import FaultPlan, ReconfigPlan

GOLDEN = pathlib.Path(__file__).parent / "golden"

SMOKES = {
    "bench-batching-ftskeen-quick": ["bench-batching", "--protocol", "ftskeen", "--quick"],
    "bench-batching-wbcast-shards-quick": [
        "bench-batching", "--protocol", "wbcast", "--quick",
        "--shards", "2", "--ingress-batch", "8", "--client-window", "8",
    ],
    "bench-conflict-quick": ["bench-conflict", "--quick"],
    "bench-elasticity-quick": ["bench-elasticity", "--quick"],
    "convoy-wbcast-batched": [
        "convoy", "--protocol", "wbcast", "--batch-size", "8",
        "--batch-linger", "0.002",
    ],
    "bench-serving-quick-sim": ["bench-serving", "--quick", "--runtime", "sim"],
}


def flag_inventory(parser: argparse.ArgumentParser) -> dict:
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            a.option_strings[0]: {
                "strings": list(a.option_strings),
                "default": a.default,
                "choices": None if a.choices is None else list(a.choices),
                "nargs": a.nargs,
            }
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, p in sub.choices.items()
    }


class TestFrozenSurface:
    def test_flag_inventory_matches_golden(self):
        rendered = json.dumps(flag_inventory(_build_parser()), indent=1, sort_keys=True)
        assert rendered + "\n" == (GOLDEN / "cli_flags.json").read_text()

    @pytest.mark.parametrize("name", sorted(SMOKES))
    def test_smoke_stdout_matches_golden(self, name, capsys):
        assert main(SMOKES[name]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(bench_specs()))
    def test_every_bench_answers_help(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        assert name in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name",
        sorted(
            n for n, spec in bench_specs().items()
            if "quick" in spec.flags and not spec.needs_network
            # ... and a golden smoke above does not already run this exact command
            and [n, "--quick"] not in SMOKES.values()
        ),
    )
    def test_quick_of_every_simulator_bench_exits_zero(self, name, capsys):
        assert main([name, "--quick"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(bench_specs()))
    def test_no_flags_resolves_to_the_default_grid(self, name):
        """An ``option``'s argparse default must map to its field default:
        parsing an empty command line changes nothing."""
        spec = bench_specs()[name]
        parser = argparse.ArgumentParser()
        add_flags(parser, spec)
        assert resolve(spec, parser.parse_args([])) == default_params(spec)

    def test_cli_names_no_bench_module(self):
        import repro.cli

        source = pathlib.Path(repro.cli.__file__).read_text()
        for module in ("batching", "conflict", "convoy", "elasticity", "serving"):
            assert f"bench.{module}" not in source and f"bench import {module}" not in source


@dataclasses.dataclass(frozen=True)
class _ToyParams:
    sizes: tuple = option((1, 2, 3), "--sizes", type=int, convert=lambda v: (v,))
    scale: int = option(10, "--scale", type=int, default=10)
    base: int = 0


def _toy_spec(**overrides) -> BenchSpec:
    return BenchSpec(
        name="bench-toy",
        help="a toy bench",
        params=_ToyParams,
        quick=dict(sizes=(1,), base=5),
        flags=dict(quick="tiny grid", out="write the block", json="write json"),
        cells=lambda p: p.sizes,
        run_cell=lambda p, size: {"size": size, "value": p.base + size * p.scale},
        columns=(("size", lambda r: r["size"]), ("value", lambda r: r["value"])),
        title="Toy",
        headline=lambda rows: f"max {max(r['value'] for r in rows)}",
        **overrides,
    )


def _run(spec, argv):
    parser = argparse.ArgumentParser()
    add_flags(parser, spec)
    return run_bench(spec, parser.parse_args(argv), [spec.name, *argv])


class TestDriver:
    def test_table_headline_and_exit_code(self, capsys):
        assert _run(_toy_spec(), []) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Toy"
        assert out.rstrip().endswith("max 30")

    def test_quick_then_explicit_flags_win(self, capsys):
        spec = _toy_spec()
        assert _run(spec, ["--quick"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("max 15")
        assert _run(spec, ["--quick", "--sizes", "4"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("max 45")

    def test_gates_set_the_exit_code(self, capsys):
        spec = _toy_spec(gates=lambda p, rows, extra: ["too big"])
        assert _run(spec, []) == 1
        assert "error: too big" in capsys.readouterr().err

    def test_out_block_has_generated_header(self, tmp_path, capsys):
        out = tmp_path / "toy.txt"
        assert _run(_toy_spec(header=("a testbed note",)), ["--scale", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# a toy bench (bench-toy)" in text
        assert "# a testbed note" in text
        assert "# params: scale=2 base=0" in text
        assert "# axes: sizes=[1, 2, 3]" in text
        assert f"# cli: python -m repro bench-toy --scale 2 --out {out}" in text
        # The block's body is exactly what was printed.
        assert capsys.readouterr().out.startswith(text.split("\n\n", 1)[1].rstrip("\n"))

    def test_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "toy.json"
        spec = _toy_spec(payload=lambda p, rows, extra: {"note": float("nan")})
        assert _run(spec, ["--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["bench"] == "toy"
        assert data["grid"] == {"sizes": [1, 2, 3], "scale": 10, "base": 0}
        assert [r["value"] for r in data["points"]] == [10, 20, 30]
        assert data["note"] is None  # NaN is not JSON

    def test_spec_without_flags_takes_none(self):
        parser = argparse.ArgumentParser()
        add_flags(parser, BenchSpec(name="t", help="t", run_cell=lambda p, c: 0))
        assert parser.parse_args([]) == argparse.Namespace()
        assert dataclasses.fields(NoParams) == ()


class TestHarnessParity:
    """One cluster builder: every harness takes the same wiring knobs."""

    class _Probe:
        def __init__(self):
            self.bound = None
            self.deliveries = 0

        def bind_processes(self, members):
            self.bound = dict(members)

        def on_deliver(self, t, pid, m):
            self.deliveries += 1

    KNOBS = dict(
        seed=3,
        obs=ObsOptions(enabled=True),
        attach_fd=True,
        fault_plan=FaultPlan(crashes=[]),
        batching=BatchingOptions(max_batch=4, max_linger=0.001),
    )

    def _check(self, result, probe, config):
        assert set(config.all_members) <= set(probe.bound)
        assert probe.deliveries > 0
        assert result.telemetry is not None
        assert result.telemetry.spans.delivered_mids()
        assert all(c.ok for c in result.check()), [c.describe() for c in result.check()]

    def test_run_workload(self, config_2x3):
        probe = self._Probe()
        result = run_workload(
            WbCastProcess, config=config_2x3, monitors=[probe], **self.KNOBS
        )
        assert result.all_done
        self._check(result, probe, config_2x3)

    def test_run_elastic_workload_with_empty_plan(self, config_2x3):
        probe = self._Probe()
        result = run_elastic_workload(
            WbCastProcess, config_2x3, ReconfigPlan(), monitors=[probe], **self.KNOBS
        )
        assert result.all_done
        self._check(result, probe, config_2x3)

    def test_run_serving_workload_write_only(self, config_2x3):
        probe = self._Probe()
        result = run_serving_workload(
            WbCastProcess, config=config_2x3, read_ratio=0.0, ops_per_session=5,
            monitors=[probe], **self.KNOBS,
        )
        assert result.writes_completed == 10
        self._check(result, probe, config_2x3)
