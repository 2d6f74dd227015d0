"""Command-line surface.

Computation subcommands parse their operands in the textual grammar, run one
engine operation and print the result; ``verify`` runs claim suites and emits
reports.  Output is deterministic for a fixed (command, config, seed): JSON
reports omit wall-clock timing unless --timings is passed.

Exit codes: 0 success; 1 a verification failed or was unstable; 2 parse
error; 3 precondition violation; 4 budget exhausted; 141 (128 + SIGPIPE)
stdout was closed before the output was written, as by ``| head -1``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .diffeos import exp_field, log_diffeo
from .fields import BudgetExceededError
from .jets import field_to_jet_matrix, to_jet_matrix
from .lie import (
    DEFAULT_DEGREE_BUDGET,
    bracket_closure,
    central_series,
    derived_series,
    kappa_sequence,
    nilpotency_class,
    soluble_length,
)
from .matrices import jordan_chevalley
from .parsing import (
    ParseError,
    format_diffeo,
    format_field,
    format_scalar,
    parse_diffeo,
    parse_field,
    parse_fields,
    parse_matrix,
    parse_scalar,
)
from .verification import (
    reports_to_json,
    reports_to_text,
    run_all_verifications,
    verify_group_witness_fixture,
    verify_intro_nilpotency,
    verify_nilpotent_example,
    verify_solvable_family,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_BROKEN_PIPE = 141


def _add_common_options(parser: argparse.ArgumentParser, suppress: bool):
    """Global options; attached both before and after the subcommand.  The
    after-subcommand copies default to SUPPRESS so they never clobber values
    given up front."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--dim", type=int, default=default(1), help="ambient dimension n >= 1")
    parser.add_argument("--order", type=int, default=default(6), help="jet/truncation order k >= 1")
    parser.add_argument("--mode", choices=("exact", "jet"), default=default("exact"))
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json"),
        default=default("text"),
        help="output format",
    )
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--degree-budget", type=int, default=default(DEFAULT_DEGREE_BUDGET))
    parser.add_argument(
        "--timings",
        action="store_true",
        default=default(False),
        help="include wall-clock timings in JSON output",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser.

    Built once: a parser costs about 3 ms to build, and rebuilding it on
    every ``main`` call also raised the peak memory of a process that calls
    ``main`` hundreds of times by about 0.9 MB.
    """
    common = argparse.ArgumentParser(add_help=False)
    _add_common_options(common, suppress=True)
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="exact computations with formal diffeomorphism germs and vector fields",
    )
    _add_common_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("exp", help="exponential of a nilpotent field")
    p.add_argument("field")
    p.add_argument("--time", dest="time_scalar", default="1", help="scalar t in exp(tX)")

    p = add_parser("log", help="infinitesimal generator of a unipotent diffeo")
    p.add_argument("diffeo")

    p = add_parser("bracket", help="Lie bracket of two fields")
    p.add_argument("field_a")
    p.add_argument("field_b")

    p = add_parser("compose", help="composition a o b of two diffeos")
    p.add_argument("diffeo_a")
    p.add_argument("diffeo_b")

    p = add_parser("invert", help="inverse jet of a diffeo")
    p.add_argument("diffeo")

    p = add_parser("commutator", help="group commutator [a, b]")
    p.add_argument("diffeo_a")
    p.add_argument("diffeo_b")

    p = add_parser("jet-matrix", help="jet-action matrix of a diffeo or field")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--diffeo")
    src.add_argument("--field")

    p = add_parser("jordan-chevalley", help="semisimple/unipotent factorization")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="rows 'a,b;c,d' of scalar entries")
    src.add_argument("--diffeo", help="decompose the jet-action matrix of this diffeo")

    for name, help_text in (
        ("derived-series", "dimensions along the derived series"),
        ("central-series", "dimensions along the descending central series"),
        ("kappa", "generic ranks along the derived series"),
        ("soluble-length", "first vanishing derived term"),
        ("nilpotency-class", "first vanishing central term"),
    ):
        p = add_parser(name, help=help_text)
        p.add_argument("--gens", required=True, help="semicolon-separated vector fields")

    p = add_parser("verify", help="run verification claims")
    p.add_argument(
        "target", choices=("intro", "solvable", "nilpotent", "witness", "all")
    )
    p.add_argument("--n", type=int, default=None, help="dimension/family parameter")
    p.add_argument("--k-param", type=int, default=3, help="intro-family parameter")
    return parser


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{key}: {value}")


def _span_from_args(args) -> "object":
    """The Lie algebra generated by --gens: the series commands need a
    closed algebra, not just the span of the generators."""
    gens = parse_fields(args.gens, args.dim)
    order = args.order if args.mode == "jet" else None
    return bracket_closure(gens, order, args.degree_budget)


def _series_payload(levels) -> list[int]:
    return [level.dimension for level in levels]


def _run(args) -> int:
    if args.dim < 1 or args.order < 1:
        raise ValueError("dimension and order must be >= 1")
    cmd = args.command

    if cmd == "exp":
        X = parse_field(args.field, args.dim)
        t = parse_scalar(args.time_scalar)
        phi = exp_field(X, t, args.order)
        _emit({"result": format_diffeo(phi)}, args.fmt)
        return EXIT_OK
    if cmd == "log":
        phi = parse_diffeo(args.diffeo, args.dim, args.order)
        X = log_diffeo(phi)
        _emit({"result": format_field(X)}, args.fmt)
        return EXIT_OK
    if cmd == "bracket":
        a = parse_field(args.field_a, args.dim)
        b = parse_field(args.field_b, args.dim)
        _emit({"result": format_field(a.bracket(b))}, args.fmt)
        return EXIT_OK
    if cmd == "compose":
        a = parse_diffeo(args.diffeo_a, args.dim, args.order)
        b = parse_diffeo(args.diffeo_b, args.dim, args.order)
        _emit({"result": format_diffeo(a.compose(b))}, args.fmt)
        return EXIT_OK
    if cmd == "invert":
        phi = parse_diffeo(args.diffeo, args.dim, args.order)
        _emit({"result": format_diffeo(phi.invert())}, args.fmt)
        return EXIT_OK
    if cmd == "commutator":
        a = parse_diffeo(args.diffeo_a, args.dim, args.order)
        b = parse_diffeo(args.diffeo_b, args.dim, args.order)
        _emit({"result": format_diffeo(a.commutator(b))}, args.fmt)
        return EXIT_OK
    if cmd == "jet-matrix":
        if args.diffeo:
            m = to_jet_matrix(parse_diffeo(args.diffeo, args.dim, args.order))
        else:
            m = field_to_jet_matrix(parse_field(args.field, args.dim), args.order)
        _emit({"result": m.export_text().splitlines()}, args.fmt)
        return EXIT_OK
    if cmd == "jordan-chevalley":
        if args.matrix:
            m = parse_matrix(args.matrix)
        else:
            m = to_jet_matrix(parse_diffeo(args.diffeo, args.dim, args.order)).matrix
        s, u = jordan_chevalley(m)

        def rows(mat):
            return ["  ".join(format_scalar(x) for x in row) for row in mat]

        _emit({"semisimple": rows(s), "unipotent": rows(u)}, args.fmt)
        return EXIT_OK
    if cmd in ("derived-series", "central-series", "kappa", "soluble-length", "nilpotency-class"):
        span = _span_from_args(args)
        if cmd == "derived-series":
            _emit({"dimensions": _series_payload(derived_series(span))}, args.fmt)
        elif cmd == "central-series":
            _emit({"dimensions": _series_payload(central_series(span))}, args.fmt)
        elif cmd == "kappa":
            _emit({"kappa": list(kappa_sequence(span).values)}, args.fmt)
        elif cmd == "soluble-length":
            _emit({cmd: soluble_length(span)}, args.fmt)
        else:
            _emit({cmd: nilpotency_class(span)}, args.fmt)
        return EXIT_OK
    if cmd == "verify":
        reports = _run_verify(args)
        if args.fmt == "json":
            print(reports_to_json(reports, include_elapsed=args.timings))
        else:
            print(reports_to_text(reports))
        return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY_FAILED
    raise ValueError(f"unhandled command {cmd!r}")


def _run_verify(args):
    target = args.target
    if target == "all":
        return run_all_verifications(args.seed)
    if target == "intro":
        return [verify_intro_nilpotency(args.k_param, seed=args.seed)]
    if target == "solvable":
        n = args.n if args.n is not None else 2
        return [verify_solvable_family(n)]
    if target == "nilpotent":
        n = args.n if args.n is not None else 3
        return [verify_nilpotent_example(n)]
    if target == "witness":
        n = args.n if args.n is not None else 2
        return [verify_group_witness_fixture(n)]
    raise ValueError(f"unknown verify target {target!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone: the interpreter's flush at exit goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
