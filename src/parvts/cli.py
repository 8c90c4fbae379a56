"""Command-line front end: run, cost, sweep, verify.

Exit codes: 0 success, 1 usage or validation error, 2 internal invariant violation
(including failed verify checks).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import traceback
import typing
from dataclasses import fields, replace

from .configfile import (
    ConfigError,
    cost_params_from,
    experiment_config_from,
    load_config,
)
from .cost import CSV_COLUMNS, CostParams, cost_report, csv_row, migration_depth_for
from .errors import InvalidArgumentError, InvalidMaskError, SaliencyFormatError
from .harness import run_experiment, serialize_report
from .verify import render_results, run_checks

# cost input name -> type, in CostParams field order
_COST_INPUTS = typing.get_type_hints(CostParams)


class _Parser(argparse.ArgumentParser):
    """Reports bad usage through main's `error:` line and exit code 1."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="parvts",
        description="Vision-token scheduling laboratory: prefill strategies, "
        "KV-cache pruning, and the analytic FLOPs model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write its report")
    run_p.add_argument("--config", help="config file (dotted key = value lines)")
    run_p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    run_p.add_argument("--out", default="report.txt", help="report output path")

    cost_p = sub.add_parser("cost", help="print the analytic cost report")
    cost_p.add_argument("--config", help="config file supplying cost.* defaults")
    cost_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    for name, kind in _COST_INPUTS.items():
        cost_p.add_argument(f"--{name}", type=kind)
    cost_p.add_argument("--L", type=int, help="optional; must equal L_text + L_img")
    cost_p.add_argument(
        "--preset", metavar="BACKBONE",
        help="use the published migration depth for e.g. LLaVA-1.5-7B",
    )

    sweep_p = sub.add_parser("sweep", help="write a CSV cost sweep over a grid")
    sweep_p.add_argument("--config", help="config file supplying cost.* base values")
    sweep_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sweep_p.add_argument("--out", default="sweep.csv", help="CSV output path")
    sweep_p.add_argument(
        "grid", nargs="*",
        help="axes like p=0:1:0.25 (inclusive range) or n=1,2,3 (list)",
    )

    sub.add_parser("verify", help="run the built-in invariant and oracle suite")
    return parser


def _cmd_run(args) -> int:
    resolved = load_config(args.config, args.set)
    report = run_experiment(experiment_config_from(resolved), config_echo=resolved)
    text = serialize_report(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    main_block = report.blocks[-1]
    print(
        f"{main_block.strategy}: kept {main_block.tokens_subject} visual tokens, "
        f"rho_prefill = {main_block.rho_prefill:.4f}, "
        f"max divergence vs vanilla = {main_block.max_divergence_vs_vanilla:.3e}"
    )
    return 0


def _cmd_cost(args) -> int:
    resolved = load_config(args.config, args.set)
    flags = {name: getattr(args, name) for name in _COST_INPUTS}
    if args.preset is not None:
        if flags["n"] is not None:
            raise ConfigError("--preset and --n both set the migration depth; pass one")
        flags["n"] = migration_depth_for(args.preset)
        if flags["n"] is None:
            raise ConfigError(f"unknown preset backbone {args.preset!r}")
    params = cost_params_from(resolved, **flags)
    if args.L is not None and args.L != params.L:
        raise ConfigError(f"L = {args.L} but L_text + L_img = {params.L}")
    report = cost_report(params)
    for f in fields(report):
        print(f"{f.name} = {getattr(report, f.name)!r}")
    return 0


def _parse_axis(spec: str) -> tuple[str, list]:
    if "=" not in spec:
        raise ConfigError(f"grid axis {spec!r} is not of the form param=values")
    name, _, body = spec.partition("=")
    name = name.strip()
    if name not in _COST_INPUTS:
        raise ConfigError(f"unknown sweep parameter {name!r}")
    body = body.strip()
    cast = _COST_INPUTS[name]
    try:
        if ":" in body:
            parts = body.split(":")
            if len(parts) != 3:
                raise ValueError("ranges are start:stop:step")
            start, stop, step = (float(x) for x in parts)
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            count = int((stop - start) / step + 1e-9) + 1
            values = [round(start + i * step, 12) for i in range(count)]
        else:
            values = [float(x) for x in body.split(",") if x.strip()]
        if not values:
            raise ValueError("no values")
        for value in values:
            if cast is int and not value.is_integer():
                raise ValueError(f"{name} = {value!r} is not an integer")
        typed = [cast(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"bad grid axis {spec!r}: {exc}") from exc
    return name, typed


def _cmd_sweep(args) -> int:
    if not args.grid:
        raise ConfigError("empty grid: pass at least one axis like p=0:1:0.1")
    resolved = load_config(args.config, args.set)
    base = cost_params_from(resolved)
    axes = [_parse_axis(spec) for spec in args.grid]
    names = [name for name, _ in axes]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"sweep axis {name!r} given more than once")
    points = [
        replace(base, **dict(zip(names, combo)))
        for combo in itertools.product(*(values for _, values in axes))
    ]
    rows = [csv_row(point) for point in points]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_verify() -> int:
    results = run_checks()
    sys.stdout.write(render_results(results))
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "cost":
            return _cmd_cost(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify()
    except (ConfigError, InvalidArgumentError, InvalidMaskError, SaliencyFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
