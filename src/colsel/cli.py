"""Command-line front end: CSV matrix ingestion and report output.

Subcommands: ``select`` (run the greedy algorithm), ``verify`` (check a
given subset against the bound), ``oracle`` (exhaustive enumeration
plus greedy comparison), and ``gamma`` (print the approximation
factor).  ``main`` parses the arguments and hands the argparse
namespace to the subcommand's handler; the library validates the
inputs.  ``select``, ``verify`` and ``oracle`` return one payload dict
(``select``'s is :class:`~colsel.selector.SelectionReport` as a dict),
which ``main`` renders as JSON or as ``key: value`` lines and writes to
stdout or ``--out``; ``gamma`` prints a bare number.  Exit codes: 0
success, 1 usage, input or validation error, 2 algorithm failure.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .errors import (
    AlgorithmFailure,
    DimensionMismatch,
    FormatError,
    InvalidInput,
    InvalidSubset,
    NotRealRooted,
    RankDeficient,
    TooLarge,
)
from .linalg import DenseMatrix
from .oracle import brute_force
from .selector import (
    DEFAULT_EPS,
    SelectionProblem,
    SelectionReport,
    gamma,
    greedy_select,
    verify_bound,
)

__all__ = [
    "parse_matrix_csv",
    "serialize_report",
    "main",
]

_INPUT_ERRORS = (
    FormatError,
    InvalidInput,
    InvalidSubset,
    DimensionMismatch,
    RankDeficient,
    TooLarge,
    OSError,
)
_ALGORITHM_ERRORS = (AlgorithmFailure, NotRealRooted)

# Unlike int() and float(), no digit-group underscores ("1_0") and no
# non-ASCII digits; unlike float(), no "inf" or "nan" either.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_matrix_csv(path: str) -> DenseMatrix:
    """Read a headerless CSV of decimal rows into a matrix.

    Rows must have equal length, and each cell is an ASCII decimal
    literal (sign, digits, optional point and exponent) with a finite
    value.  A UTF-8 byte order mark, as spreadsheet exports write, is
    skipped.  Errors carry the offending line number.
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            values = []
            for token in line.split(","):
                token = token.strip()
                if _DECIMAL.fullmatch(token) is None:
                    raise FormatError(f"line {lineno}: cannot parse {token!r} as a number")
                v = float(token)
                if not math.isfinite(v):
                    raise FormatError(f"line {lineno}: non-finite value {token!r}")
                values.append(v)
            if rows and len(values) != len(rows[0]):
                raise FormatError(
                    f"line {lineno}: expected {len(rows[0])} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise FormatError(f"{path}: empty matrix file")
    return DenseMatrix(rows)


def _report_dict(report: SelectionReport) -> dict:
    """``dataclasses.asdict(report)`` without its deep copy: the fields in
    order, each trace step as a dict of its own fields."""
    return dict(vars(report), trace=[dict(vars(step)) for step in report.trace])


def serialize_report(report: SelectionReport) -> str:
    """The report as indented JSON, keyed in :class:`SelectionReport` field order."""
    return json.dumps(_report_dict(report), indent=2)


def _render(payload: dict, fmt: str) -> str:
    """``payload`` as indented JSON or as ``key: value`` lines.

    In text, a list of numbers prints comma-joined and a list of records
    prints one ``key: field=value ...`` line per record.
    """
    if fmt == "json":
        return json.dumps(payload, indent=2)
    lines = []
    for key, value in payload.items():
        if not isinstance(value, (list, tuple)):
            lines.append(f"{key}: {value}")
        elif value and isinstance(value[0], dict):
            for item in value:
                lines.append(f"{key}: " + " ".join(f"{name}={v}" for name, v in item.items()))
        else:
            lines.append(f"{key}: " + ",".join(str(v) for v in value))
    return "\n".join(lines)


def _load_problem(args: argparse.Namespace, k: int) -> SelectionProblem:
    b = parse_matrix_csv(args.b)
    a = parse_matrix_csv(args.a) if args.a is not None else DenseMatrix.zeros(b.rows, 0)
    return SelectionProblem(a=a, b=b, k=k, eps=args.eps)


def _run_select(args: argparse.Namespace) -> dict:
    return _report_dict(greedy_select(_load_problem(args, args.k)))


def _run_verify(args: argparse.Namespace) -> dict:
    subset = _parse_subset(args.subset)
    if not subset:  # else SelectionProblem blames k = 0 on -k, a flag verify has not
        raise InvalidSubset(f"--subset names no column, got {args.subset!r}")
    prob = _load_problem(args, len(subset))
    holds, ratio_frob, ratio_spec = verify_bound(prob, subset)
    return {
        "subset": subset,
        "holds": holds,
        "ratio_frob": ratio_frob,
        "ratio_spec": ratio_spec,
        "gamma": prob.gamma,
    }


def _run_oracle(args: argparse.Namespace) -> dict:
    prob = _load_problem(args, args.k)
    enum = brute_force(prob)
    report = greedy_select(prob)
    return {
        "num_subsets": enum.num_subsets,
        "num_feasible": enum.num_feasible,
        "best_subset_frob": enum.best_subset_frob,
        "best_frob_sq": enum.best_frob_sq,
        "best_subset_spec": enum.best_subset_spec,
        "best_spec_sq": enum.best_spec_sq,
        "greedy_subset": report.subset,
        "greedy_frob_sq": report.frob_sq,
        "greedy_spec_sq": report.spec_sq,
        "bound_factor": report.bound_factor,
        "baseline_frob_sq": report.baseline_frob_sq,
        "baseline_spec_sq": report.baseline_spec_sq,
    }


def _run_gamma(args: argparse.Namespace) -> float:
    return gamma(args.m, args.n, args.k, args.r)


_HANDLERS = {
    "select": _run_select,
    "verify": _run_verify,
    "oracle": _run_oracle,
    "gamma": _run_gamma,
}


def _parse_int(text: str) -> int:
    """``text``, stripped of surrounding whitespace, as a base-10 integer of
    ASCII digits with an optional sign; the one parser of every integer
    argument."""
    if _INTEGER.fullmatch(text.strip()) is not None:
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_eps(text: str) -> float:
    """``text``, stripped of surrounding whitespace, as an ASCII decimal literal."""
    if _DECIMAL.fullmatch(text.strip()) is None:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(part) for part in text.split(",") if part.strip() != "")
    except argparse.ArgumentTypeError:
        raise InvalidInput(f"subset must be comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colsel",
        description="Column subset selection with a fixed block and provable "
        "pseudoinverse norm bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_matrix_args(p: argparse.ArgumentParser, with_k: bool) -> None:
        p.add_argument("--b", required=True, help="CSV file with the candidate matrix B")
        p.add_argument("--a", default=None, help="CSV file with the fixed block A")
        if with_k:
            p.add_argument("-k", type=_parse_int, required=True, help="number of columns to select")
        p.add_argument(
            "--eps", type=_parse_eps, default=DEFAULT_EPS, help="root approximation accuracy"
        )
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_select = sub.add_parser("select", help="run the greedy selection")
    add_matrix_args(p_select, with_k=True)

    p_verify = sub.add_parser("verify", help="check a subset against the bound")
    add_matrix_args(p_verify, with_k=False)
    p_verify.add_argument(
        "--subset", required=True, help="comma-separated 0-based column indices into B"
    )

    p_oracle = sub.add_parser("oracle", help="exhaustive enumeration plus greedy comparison")
    add_matrix_args(p_oracle, with_k=True)

    p_gamma = sub.add_parser("gamma", help="print the approximation factor")
    p_gamma.add_argument("-m", type=_parse_int, required=True)
    p_gamma.add_argument("-n", type=_parse_int, required=True)
    p_gamma.add_argument("-k", type=_parse_int, required=True)
    p_gamma.add_argument("-r", type=_parse_int, required=True)
    p_gamma.add_argument("--out", default=None)

    return parser


# built by the first main() call and reused: parse_args leaves the parser as it found it
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run the subcommand and write its result to stdout or
    ``--out``; return 0, or 1 for a usage or input error, 2 for an algorithm failure."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        result = _HANDLERS[args.subcommand](args)
        text = _render(result, args.format) if isinstance(result, dict) else str(result)
        if args.out is None:
            sys.stdout.write(text + "\n")
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except _ALGORITHM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
