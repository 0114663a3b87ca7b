"""Command-line front end: CSV matrix ingestion and JSON report output.

Subcommands: ``select`` (run the greedy algorithm), ``verify`` (check a
given subset against the bound), ``oracle`` (exhaustive enumeration
plus greedy comparison), and ``gamma`` (print the approximation
factor).  ``main`` parses the arguments and hands the argparse
namespace to the subcommand's handler; the library validates the
inputs.  Exit codes: 0 success, 1 input/validation error, 2 algorithm
failure.
"""
from __future__ import annotations

import argparse
import json
import math
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
    SelectionProblem,
    SelectionReport,
    TraceStep,
    gamma,
    greedy_select,
    verify_bound,
)

__all__ = [
    "parse_matrix_csv",
    "serialize_report",
    "parse_report",
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


def parse_matrix_csv(path: str) -> DenseMatrix:
    """Read a headerless CSV of decimal rows into a matrix.

    Rows must have equal length; NaN/Inf tokens, and the digit-group
    underscores ``float()`` would accept, are rejected.  A UTF-8
    byte order mark, as spreadsheet exports write, is skipped.  Errors
    carry the offending line number.
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
                try:
                    # float() also reads Python's digit-group underscores, as in "1_0"
                    if "_" in token:
                        raise ValueError(token)
                    v = float(token)
                except ValueError:
                    raise FormatError(
                        f"line {lineno}: cannot parse {token!r} as a number"
                    ) from None
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


def report_to_dict(report: SelectionReport) -> dict:
    return {
        "subset": list(report.subset),
        "frob_sq": report.frob_sq,
        "spec_sq": report.spec_sq,
        "baseline_frob_sq": report.baseline_frob_sq,
        "baseline_spec_sq": report.baseline_spec_sq,
        "gamma": report.gamma,
        "bound_factor": report.bound_factor,
        "eps": report.eps,
        "trace": [
            {"index": step.index, "lambda_min": step.lambda_min} for step in report.trace
        ],
    }


def report_from_dict(payload: dict) -> SelectionReport:
    return SelectionReport(
        subset=tuple(int(j) for j in payload["subset"]),
        frob_sq=float(payload["frob_sq"]),
        spec_sq=float(payload["spec_sq"]),
        baseline_frob_sq=float(payload["baseline_frob_sq"]),
        baseline_spec_sq=float(payload["baseline_spec_sq"]),
        gamma=float(payload["gamma"]),
        bound_factor=float(payload["bound_factor"]),
        eps=float(payload["eps"]),
        trace=tuple(
            TraceStep(index=int(t["index"]), lambda_min=float(t["lambda_min"]))
            for t in payload["trace"]
        ),
    )


def serialize_report(report: SelectionReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def parse_report(text: str) -> SelectionReport:
    return report_from_dict(json.loads(text))


def _report_as_text(report: SelectionReport) -> str:
    lines = [
        "subset: " + ",".join(str(j) for j in report.subset),
        f"frob_sq: {report.frob_sq!r}",
        f"spec_sq: {report.spec_sq!r}",
        f"baseline_frob_sq: {report.baseline_frob_sq!r}",
        f"baseline_spec_sq: {report.baseline_spec_sq!r}",
        f"gamma: {report.gamma!r}",
        f"bound_factor: {report.bound_factor!r}",
        f"eps: {report.eps!r}",
    ]
    for step in report.trace:
        lines.append(f"step: index={step.index} lambda_min={step.lambda_min!r}")
    return "\n".join(lines)


def _load_problem(args: argparse.Namespace, k: int) -> SelectionProblem:
    b = parse_matrix_csv(args.b)
    a = parse_matrix_csv(args.a) if args.a is not None else DenseMatrix.zeros(b.rows, 0)
    return SelectionProblem(a=a, b=b, k=k, eps=args.eps)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _emit_payload(payload: dict, args: argparse.Namespace) -> None:
    if args.format == "text":
        _emit("\n".join(f"{key}: {value}" for key, value in payload.items()), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)


def _run_select(args: argparse.Namespace) -> int:
    report = greedy_select(_load_problem(args, args.k))
    if args.format == "text":
        _emit(_report_as_text(report), args.out)
    else:
        _emit(serialize_report(report), args.out)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    subset = _parse_subset(args.subset)
    prob = _load_problem(args, len(subset))
    holds, ratio_frob, ratio_spec = verify_bound(prob, subset)
    _emit_payload(
        {
            "subset": list(subset),
            "holds": holds,
            "ratio_frob": ratio_frob,
            "ratio_spec": ratio_spec,
            "gamma": prob.gamma,
        },
        args,
    )
    return 0


def _run_oracle(args: argparse.Namespace) -> int:
    prob = _load_problem(args, args.k)
    enum = brute_force(prob)
    report = greedy_select(prob)
    _emit_payload(
        {
            "num_subsets": len(enum.all_values),
            "num_feasible": sum(math.isfinite(frob) for frob, _ in enum.all_values.values()),
            "best_subset_frob": list(enum.best_subset_frob),
            "best_frob_sq": enum.best_frob_sq,
            "best_subset_spec": list(enum.best_subset_spec),
            "best_spec_sq": enum.best_spec_sq,
            "greedy_subset": list(report.subset),
            "greedy_frob_sq": report.frob_sq,
            "greedy_spec_sq": report.spec_sq,
            "bound_factor": report.bound_factor,
            "baseline_frob_sq": report.baseline_frob_sq,
            "baseline_spec_sq": report.baseline_spec_sq,
        },
        args,
    )
    return 0


def _run_gamma(args: argparse.Namespace) -> int:
    _emit(str(gamma(args.m, args.n, args.k, args.r)), args.out)
    return 0


_HANDLERS = {
    "select": _run_select,
    "verify": _run_verify,
    "oracle": _run_oracle,
    "gamma": _run_gamma,
}


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
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
            p.add_argument("-k", type=int, required=True, help="number of columns to select")
        p.add_argument("--eps", type=float, default=1e-6, help="root approximation accuracy")
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
    p_gamma.add_argument("-m", type=int, required=True)
    p_gamma.add_argument("-n", type=int, required=True)
    p_gamma.add_argument("-k", type=int, required=True)
    p_gamma.add_argument("-r", type=int, required=True)
    p_gamma.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run the subcommand; map errors to exit codes 1 and 2."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except _ALGORITHM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
