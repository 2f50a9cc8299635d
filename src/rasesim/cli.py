"""Command-line front end.

Commands: run (full lifecycle + report files), solve (solver only, prints
outcomes), generate (materialize SFCRs to a file), report (re-aggregate an
existing report.json into CSV/histogram files), validate (check a config).
Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
Errors print a single line `error: <stage>: <message>` to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

from .catalog import to_json
from .errors import ConfigError, RaseSimError
from .experiment import (
    _report_chunks,
    generate_requests,
    histogram_csv,
    load_config,
    read_report,
    resolve_output_dir,
    run_experiment,
    run_solver,
    write_atomically,
    write_report,
)
from .seeding import derive_seed
from .solver import SfcRejection, acceptance_ratio
from .topology import build_network

OUTPUT_DIR_ENV = "RASE_SIM_OUTPUT"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the CLI contract wants exit 1."""

    def error(self, message):
        raise _UsageError(message)


def _bin_width(text: str) -> float:
    try:
        width = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < width < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return width


def _add_common(parser, *, config=True, seed=False, output_dir=False):
    if config:
        parser.add_argument("--config", required=True, help="experiment config file (JSON)")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="override the config's seed")
    if output_dir:
        parser.add_argument("--output-dir", default=None,
                            help=f"pin the output directory (else ${OUTPUT_DIR_ENV}, else a "
                                 "timestamped subdirectory of the config's output directory)")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rasesim", description="Deterministic SFC embedding simulator.")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = commands.add_parser("run", help="run the full experiment and write report files")
    _add_common(run, seed=True, output_dir=True)
    run.add_argument("--format", choices=("csv", "json", "both"), default=None,
                     help="override the config's output formats")
    run.set_defaults(handler=_cmd_run)

    solve = commands.add_parser("solve", help="run the solver only and print outcomes")
    _add_common(solve, seed=True)
    solve.set_defaults(handler=_cmd_solve)

    generate = commands.add_parser("generate", help="materialize SFCRs from templates to a file")
    _add_common(generate, seed=True, output_dir=True)
    generate.set_defaults(handler=_cmd_generate)

    report = commands.add_parser("report", help="re-aggregate an existing report.json into CSV files")
    report.add_argument("--report", required=True, help="path to an existing report.json")
    report.add_argument("--bin-width", type=_bin_width, default=50.0,
                        help="latency histogram bin width (ms), finite and > 0")
    report.add_argument("--output-dir", default=None, help="where to write the CSV files")
    report.add_argument("--quiet", action="store_true", help="suppress informational output")
    report.set_defaults(handler=_cmd_report)

    validate = commands.add_parser("validate", help="check a config file and exit")
    _add_common(validate)
    validate.set_defaults(handler=_cmd_validate)
    return parser


def _pinned_output_dir(args) -> str | None:
    return args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or None


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _cmd_run(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    report = run_experiment(cfg)
    if args.format is None:
        formats = cfg.output.formats
    elif args.format == "both":
        formats = ("json", "csv")
    else:
        formats = (args.format,)
    directory = resolve_output_dir(cfg, _pinned_output_dir(args))
    paths = write_report(report, directory, formats)
    if report.acceptance_ratio is not None:
        _say(args, f"acceptance_ratio={report.acceptance_ratio}")
    if report.mean_latency_ms is not None:
        _say(args, f"mean_latency_ms={report.mean_latency_ms}")
    _say(args, f"solve_seconds={report.solve_seconds:.6f}")
    for path in paths:
        _say(args, f"wrote {path}")
    return 0


def _cmd_solve(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    sfcrs = generate_requests(cfg)
    net = build_network(cfg.network)
    scheme, _trace, solve_seconds = run_solver(cfg, net, sfcrs)
    for outcome in scheme.outcomes:
        if isinstance(outcome, SfcRejection):
            _say(args, f"{outcome.sfcr_id} rejected {outcome.reason}")
        else:
            _say(args, f"{outcome.sfcr_id} accepted")
    if scheme.outcomes:
        print(f"acceptance_ratio={acceptance_ratio(scheme.accept_flags())}")
    _say(args, f"solve_seconds={solve_seconds:.6f}")
    return 0


def _cmd_generate(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    sfcrs = generate_requests(cfg)
    directory = resolve_output_dir(cfg, _pinned_output_dir(args))
    payload = {"seed": derive_seed(cfg.seed, "sfcrs"), "sfcrs": sfcrs}
    text = json.dumps(payload, indent=2, sort_keys=True, default=to_json) + "\n"
    for target in write_atomically(directory, [("sfcrs_generated.json", text)]):
        _say(args, f"wrote {target}")
    return 0


def _cmd_report(args) -> int:
    report_path = Path(args.report)
    report = read_report(report_path)
    directory = _pinned_output_dir(args) or report_path.parent
    histogram = ("histogram.csv", histogram_csv(report, args.bin_width))
    for target in write_atomically(directory, itertools.chain(_report_chunks(report, ("csv",)), [histogram])):
        _say(args, f"wrote {target}")
    return 0


def _cmd_validate(args) -> int:
    load_config(args.config)
    _say(args, "config ok")
    return 0


def _fail(stage: str, message, code: int) -> int:
    # a message may quote input text; line breaks in it must not split the one error line
    print(f"error: {stage}: {' '.join(str(message).splitlines())}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail("cli", exc, 1)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ConfigError as exc:
        return _fail(exc.stage, exc, 1)
    except RaseSimError as exc:
        return _fail(exc.stage, exc, 2)
    except OSError as exc:
        return _fail("io", exc, 2)
    except ValueError as exc:
        return _fail("run", exc, 2)


if __name__ == "__main__":
    sys.exit(main())
