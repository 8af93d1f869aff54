"""Command line front end.

Subcommands
-----------
exponents --p <rational|inf>        print the exact (p, s, r) triple as JSON
spectrum  --rep <file>              print a spectral report for a stored rep
factorize --rep <file> --out <file> write the factorization pipeline as JSON
suite     --config <file> [--only trace|factorize|ladder] [--out DIR] [--seed N]

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 usage or
configuration error.  Diagnostics go to stderr; data goes to files or
stdout.

Rep and config files are parsed as strict JSON by orjson: ``NaN`` and
``Infinity`` literals, numbers that overflow a double, a byte order mark
and lone surrogates exit 2; integers past 64 bits parse as floats.  The
pipeline file is written by orjson (compact, shortest round-trip numbers)
straight from the stage arrays, with no Python float lists and no second
copy of its bytes; the stdout lines are written by the stdlib ``json``.
An unwritable output is found before any work: ``factorize`` checks that
``--out`` is not a directory and that its directory exists before it loads
the rep, and ``suite`` creates its output directory first.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import orjson

from .exponents import ParameterTriple
from .factorization import build_pipeline, pipeline_to_json
from .harness import (
    config_from_json,
    run_factorization_suite,
    run_ladder_suite,
    run_trace_suite,
)
from .nuclear import rep_from_json
from .spectra import spectral_report

USAGE_ERROR = 2
ASSERTION_ERROR = 1

_SUITES = {
    "trace": run_trace_suite,
    "factorize": run_factorization_suite,
    "ladder": run_ladder_suite,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage problem as a single ``error:`` line on stderr, exit 2."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nuctrace",
        description="nuclear representations, factorizations and spectral suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="exact (p, s, r) triple for an exponent")
    p_exp.add_argument("--p", required=True, help='exponent: "2", "7/3" or "inf"')
    p_exp.set_defaults(handler=_cmd_exponents)

    p_spec = sub.add_parser("spectrum", help="spectral report for a stored representation")
    p_spec.add_argument("--rep", required=True, help="representation JSON file")
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_fac = sub.add_parser("factorize", help="factor a stored representation")
    p_fac.add_argument("--rep", required=True, help="representation JSON file")
    p_fac.add_argument("--out", required=True, help="output pipeline JSON file")
    p_fac.set_defaults(handler=_cmd_factorize)

    p_suite = sub.add_parser("suite", help="run the verification suites")
    p_suite.add_argument("--config", required=True, help="experiment config JSON file")
    p_suite.add_argument("--only", choices=sorted(_SUITES), help="run a single suite")
    p_suite.add_argument("--out", help="override the config output directory")
    p_suite.add_argument("--seed", type=int, help="override the config seed")
    p_suite.set_defaults(handler=_cmd_suite)
    return parser


def _load_json(path: str) -> dict:
    try:
        return orjson.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_rep(path: str):
    return rep_from_json(_load_json(path))


def _cmd_exponents(args) -> int:
    triple = ParameterTriple(args.p)
    print(json.dumps(triple.as_dict()))
    return 0


def _cmd_spectrum(args) -> int:
    report = spectral_report(_load_rep(args.rep))
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0


def _cmd_factorize(args) -> int:
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ValueError(f"cannot write {out}: no directory {out.parent}")
    if out.is_dir():
        raise ValueError(f"cannot write {out}: it is a directory")
    pipe = build_pipeline(_load_rep(args.rep))
    options = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    out.write_bytes(orjson.dumps(pipeline_to_json(pipe), option=options))
    print(f"wrote pipeline for p={pipe.triple.p} to {args.out}", file=sys.stderr)
    return 0


def _cmd_suite(args) -> int:
    config = config_from_json(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    names = [args.only] if args.only else sorted(_SUITES)
    # checked here as well as in the ladder suite, so no suite writes first
    if "ladder" in names and len(config.ladder) < 3:
        raise ValueError("ladder suite needs at least three levels")
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in names:
        report = _SUITES[name](config)
        failed += report.failed
        print(
            f"suite {name}: {report.passed} passed, {report.failed} failed "
            f"({report.duration_seconds:.2f}s)",
            file=sys.stderr,
        )
    return ASSERTION_ERROR if failed else 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # usage problems are reported on stderr with exit 2 already
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ASSERTION_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
