"""Command-line front end.

One flag namespace is shared by every subcommand; a flat key=value config
file can preset any flag and explicit flags win. Exit codes: 0 success,
2 configuration problem, 3 data problem, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .errors import ConfigError, DataError, NumericError
from .pipeline import FIELD_PARSERS, STAGES, RunConfig, build_config, parse_config_file

_EXIT_CONFIG = 2
_EXIT_DATA = 3
_EXIT_NUMERIC = 4


def _add_flags(parser: argparse.ArgumentParser) -> None:
    """--config, then one --kebab-case flag per RunConfig field, parsed by
    the same per-type parser that reads config-file values."""
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for field in fields(RunConfig):
        default = field.default
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        # nargs="?" lets a bare boolean flag mean true; other types need a value
        bare = {"nargs": "?", "const": True} if field.type == "bool" else {}
        parser.add_argument("--" + field.name.replace("_", "-"), type=FIELD_PARSERS[field.name],
                            help=f"default: {default}", **bare)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkforge",
        description="Walk-forward daily close forecasting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "synth": "generate a deterministic synthetic daily series",
        "featurize": "clean the series and expand indicator features",
        "select": "rank features with a random forest and keep the top k",
        "plan": "write the walk-forward batch plan",
        "train": "fit the selected model(s) per batch",
        "evaluate": "score checkpoints and write per-batch metrics",
        "report": "aggregate metrics into report.json and a text table",
        "pipeline": "run every stage in order",
    }
    for name, help_text in descriptions.items():
        stage = sub.add_parser(name, help=help_text)
        _add_flags(stage)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    flag_values = {key: value for key, value in vars(args).items()
                   if key not in ("command", "config")}

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = build_config(file_values, flag_values)
        result = STAGES[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC

    if args.command in ("report", "pipeline"):
        with open(os.path.join(cfg.out, "report.txt")) as f:
            print(f.read())
    else:
        for path in result if isinstance(result, list) else [result]:
            print(path)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
