"""Command line front end.

Three subcommands: ``estimate`` runs one estimator over numbers from a
file or stdin, ``simulate`` runs a JSON-described experiment, and
``paper-figures`` runs the full benchmark grid.  Exit codes: 0 success,
2 configuration error, 1 runtime failure, 141 (128 + SIGPIPE) when the
reader of stdout has closed it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .estimators import ESTIMATOR_FIELDS, EstimatorSpec, Sample, estimate
from .harness import (
    FIGURE_DEFAULT_REPLICATIONS,
    FIGURE_DEFAULT_SEED,
    JOBS_PROBLEM,
    ConfigError,
    emit_results,
    figure_grid_table,
    parse_config,
    run_experiment,
)

# the EstimatorSpec field each `estimate` flag sets; a kind accepts only the flags of its fields
_ESTIMATE_FLAGS = {"k": "--k", "p": "--p", "epsilon": "--epsilon", "contamination_bound": "--C"}
_CHUNK_CHARS = 1 << 16  # characters read at a time, then the rest of their last line
_COMMENT = re.compile("#[^\n]*")


def _raise_at_first(lines: list[str], first_lineno: int, finite: bool) -> None:
    """Raise the error that names the first line that is not a number, or, with ``finite``, not a finite one.

    ``lines`` have their comments removed already and hold such a line.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise RuntimeError(f"input line {lineno} is not a number: {text!r}") from None
        if finite and not math.isfinite(value):
            raise RuntimeError(f"input line {lineno} is not a finite number: {value!r}")


def _read_numbers(handle) -> np.ndarray:
    """Numbers one per line, ``#`` comments and blank lines skipped.

    Each chunk of whole lines goes through ``float`` in one pass, retried
    once with whitespace-only lines dropped; a chunk that fails both holds
    a line that is not a number, and only then are its lines read one by
    one to name it.  The first chunk holding a non-finite value is kept and
    read line by line only after the whole input has parsed, so a later
    line that is not a number takes precedence.
    """
    chunks = []
    non_finite = None  # the lines of the first chunk holding a non-finite value, and its first line number
    lineno = 1  # of the first line of the next chunk
    at_end = False
    while not at_end:
        text = handle.read(_CHUNK_CHARS)
        # a stream returns a short read or a line without its newline only at
        # its end; reading on would make a terminal wait for a second end-of-input
        at_end = len(text) < _CHUNK_CHARS
        if not at_end:
            tail = handle.readline()
            text += tail
            at_end = not tail.endswith("\n")
        if "#" in text:
            text = _COMMENT.sub("", text)
        lines = text.split("\n")
        try:
            values = np.array(list(map(float, filter(None, lines))))
        except ValueError:
            # ``float`` strips whitespace itself, so only a whitespace-only
            # line (an indented comment, a lone "\r") needs the strip
            try:
                values = np.array(list(map(float, filter(None, map(str.strip, lines)))))
            except ValueError:
                _raise_at_first(lines, lineno, finite=False)
        if non_finite is None and not np.isfinite(values).all():
            non_finite = (lines, lineno)
        chunks.append(values)
        lineno += len(lines) - 1
    numbers = np.concatenate(chunks)
    if not numbers.size:
        raise RuntimeError("no numbers in input")
    if non_finite is not None:
        _raise_at_first(*non_finite, finite=True)
    numbers.setflags(write=False)  # nothing else holds it, so Sample need not copy it
    return numbers


def _emit(table, args) -> None:
    emit_results(table, args.format, sys.stdout if args.out is None else args.out)


def _kinds_reading(field: str) -> str:
    return ", ".join(kind for kind, fields in ESTIMATOR_FIELDS.items() if field in fields)


def _cmd_estimate(args) -> None:
    fields = ESTIMATOR_FIELDS[args.estimator]
    given = {name: getattr(args, name) for name in _ESTIMATE_FLAGS if getattr(args, name) is not None}
    problems = [f"{_ESTIMATE_FLAGS[name]}: unknown flag for estimator {args.estimator!r}; read by {_kinds_reading(name)}"
                for name in given if name not in fields]
    if "k" in fields and "k" not in given:
        problems.append("k: required for the blockwise estimators")
    try:
        spec = EstimatorSpec(kind=args.estimator, **{name: given[name] for name in given if name in fields})
    except ValueError as exc:
        problems.append(str(exc))
    if problems:
        raise ConfigError(problems)
    if args.input is None:
        if sys.stdin is None:  # None when the process started with stdin closed
            raise RuntimeError("no input: stdin is closed")
        values = _read_numbers(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            values = _read_numbers(handle)
    print(format(estimate(Sample(values), spec), ".17g"))


def _check_table_options(args, problems: list[str]) -> None:
    """Raise ConfigError for ``--jobs`` below 1 and an ``--out`` with no file to write, then ``problems``, if any."""
    found = [JOBS_PROBLEM] if args.jobs < 1 else []
    if args.out is not None:
        out = Path(args.out)
        if out.is_dir():
            found.append(f"out: {out} is a directory")
        elif not out.parent.is_dir():
            found.append(f"out: no such directory: {out.parent}")
    if found + problems:
        raise ConfigError(found + problems)


def _cmd_simulate(args) -> None:
    spec, problems = None, []
    try:
        spec = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except ConfigError as exc:
        problems = exc.errors
    _check_table_options(args, problems)
    _emit(run_experiment(spec, args.jobs), args)


def _cmd_figures(args) -> None:
    _check_table_options(args, ["reps: must be at least 1"] if args.reps < 1 else [])
    _emit(figure_grid_table(replications=args.reps, base_seed=args.seed, jobs=args.jobs), args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared: callers parse with it and never change it."""
    parser = argparse.ArgumentParser(
        prog="robustmean",
        description="Blockwise robust mean estimation and its simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the mean of newline-delimited numbers")
    est.add_argument("input", nargs="?", default=None, help="input file; stdin when omitted. '#' starts a comment")
    est.add_argument("--estimator", required=True, choices=ESTIMATOR_FIELDS)
    est.add_argument("--k", type=int, default=None, help=f"block count ({_kinds_reading('k')})")
    est.add_argument("--p", type=float, default=None,
                     help=f"weight exponent, default {EstimatorSpec.p:g} ({_kinds_reading('p')})")
    est.add_argument("--epsilon", type=float, default=None,
                     help=f"assumed contamination fraction, default {EstimatorSpec.epsilon:g} ({_kinds_reading('epsilon')})")
    est.add_argument("--C", dest="contamination_bound", type=float, default=None,
                     help=f"assumed corrupted-block bound, default {EstimatorSpec.contamination_bound:g} "
                          f"({_kinds_reading('contamination_bound')})")
    est.set_defaults(run=_cmd_estimate)

    table = argparse.ArgumentParser(add_help=False)  # options of the commands that print a results table
    table.add_argument("--out", default=None, help="output path; stdout when omitted")
    table.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    table.add_argument("--jobs", type=int, default=1,
                       help="run the replications in up to this many worker processes, capped at the "
                            "replications and the CPUs; the output is byte-identical for every value")

    sim = sub.add_parser("simulate", parents=[table], help="run a JSON-configured experiment")
    sim.add_argument("--config", required=True, help="path to the JSON experiment description")
    sim.set_defaults(run=_cmd_simulate)

    fig = sub.add_parser("paper-figures", parents=[table], help="run the full benchmark grid")
    fig.add_argument("--reps", type=int, default=FIGURE_DEFAULT_REPLICATIONS)
    fig.add_argument("--seed", type=int, default=FIGURE_DEFAULT_SEED)
    fig.set_defaults(run=_cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        return int(exc.code or 0)
    try:
        args.run(args)
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
