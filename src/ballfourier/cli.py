"""Command-line harness: `ballfourier run <scenario> [...]` and `ballfourier list`.

Exit codes: 0 when every check passes, 1 on check failure, 2 on usage or
configuration errors.  Numeric failures never crash the process; they are
recorded in results.json.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .config import _FIELD_TYPES, ConfigError, ScenarioConfig, parse_config, read_config_file
from .scenarios import check_keys_read, list_scenarios, run_scenario, scenario_base_config

# one flag per grid key of ScenarioConfig, typed by its field
_GRID_FLAGS = [
    (f"--{f.name.replace('_', '-')}", f.name, _FIELD_TYPES[f.name])
    for f in fields(ScenarioConfig)
    if f.name not in ("out_dir", "timing", "tolerances")
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballfourier",
        description="Theorem-verification suites for boundary-parametrized "
        "Fourier analysis on hyperbolic 2- and 3-space.",
    )
    sub = parser.add_subparsers(dest="command")
    base = ScenarioConfig()
    base_text = ", ".join(f"{k.replace('_', '-')}={v}" for k, v in base.__dict__.items())
    run = sub.add_parser(
        "run",
        help="run one scenario",
        description="Run a named scenario. Scenario-specific grid defaults are "
        "applied first, then --config file values, then flags. The resolved "
        "configuration is echoed into results.json.",
        epilog=f"base defaults (before the scenario profile): {base_text}",
    )
    run.add_argument("scenario", help="one of: " + ", ".join(list_scenarios()))
    run.add_argument("--config", metavar="PATH", help="flat key=value configuration file")
    run.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    run.add_argument(
        "--tol",
        metavar="KEY=VAL",
        action="append",
        default=[],
        help="override the tolerance of a named check (repeatable)",
    )
    run.add_argument("--timing", choices=["wall", "zero"],
                     help="zero: blank out runtimes for byte-reproducible results.json")
    for flag, dest, typ in _GRID_FLAGS:
        run.add_argument(flag, dest=dest, type=typ, default=None)
    sub.add_parser("list", help="list available scenarios")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "list":
        for name in list_scenarios():
            print(name)
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2
    name = args.scenario
    if name not in list_scenarios():
        print(f"error: unknown scenario {name!r}", file=sys.stderr)
        print("available scenarios: " + ", ".join(list_scenarios()), file=sys.stderr)
        return 2
    try:
        overrides = {}
        for _, dest, _typ in _GRID_FLAGS:
            value = getattr(args, dest)
            if value is not None:
                overrides[dest] = value
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.timing is not None:
            overrides["timing"] = args.timing
        tol_pairs = []
        for item in args.tol:
            if "=" not in item:
                raise ConfigError(f"--tol expects KEY=VAL, got {item!r}")
            key, raw = item.split("=", 1)
            try:
                tol_pairs.append((key.strip(), float(raw)))
            except ValueError:
                raise ConfigError(f"malformed --tol value for {key}: {raw!r}") from None
        # flags beat file values; the dimension decides the scenario grid profile
        given = read_config_file(args.config) if args.config else {}
        given.update(overrides)
        base = scenario_base_config(name, parse_config(given).dim)
        check_keys_read(name, base.dim, given)
        if tol_pairs:
            given["tolerances"] = tuple(tol_pairs)
        return run_scenario(name, parse_config(given, base=base))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
