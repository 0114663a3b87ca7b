"""CSV ingestion, subcommand dispatch, the report schema, output formats, exit codes."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from colsel import cli, oracle
from colsel.cli import main, parse_matrix_csv, serialize_report
from colsel.errors import AlgorithmFailure, FormatError
from colsel.linalg import DenseMatrix
from colsel.selector import SelectionProblem, SelectionReport, TraceStep, greedy_select
from conftest import random_problem

DOUBLED_IDENTITY_CSV = "1,0,1,0\n0,1,0,1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_matrix_csv_identity(tmp_path):
    path = write(tmp_path, "m.csv", "1,0\n0,1\n")
    assert parse_matrix_csv(path) == DenseMatrix.identity(2)


def test_parse_matrix_csv_skips_blank_lines(tmp_path):
    path = write(tmp_path, "m.csv", "1,0\n\n  \n0,1\n")
    assert parse_matrix_csv(path) == DenseMatrix.identity(2)


def test_empty_matrix_file_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "E.csv", "")
    assert main(["select", "--b", "E.csv", "-k", "2"]) == 1
    assert capsys.readouterr().err == "error: E.csv: empty matrix file\n"


def test_parse_matrix_csv_scientific_and_negative(tmp_path):
    path = write(tmp_path, "m.csv", "1e-3,2.5\n-1,0\n")
    assert parse_matrix_csv(path) == DenseMatrix([[0.001, 2.5], [-1.0, 0.0]])


def test_parse_matrix_csv_skips_utf8_bom(tmp_path):
    text = "1e-3,2.5\n-1,0\n"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_matrix_csv(str(bom)) == parse_matrix_csv(write(tmp_path, "plain.csv", text))


def test_parse_matrix_csv_ragged_row(tmp_path):
    path = write(tmp_path, "m.csv", "1,0\n0\n")
    with pytest.raises(FormatError) as err:
        parse_matrix_csv(path)
    assert "line 2" in str(err.value)


def test_parse_matrix_csv_rejects_nan_and_garbage(tmp_path):
    with pytest.raises(FormatError):
        parse_matrix_csv(write(tmp_path, "a.csv", "1,nan\n2,3\n"))
    with pytest.raises(FormatError):
        parse_matrix_csv(write(tmp_path, "b.csv", "1,inf\n2,3\n"))
    with pytest.raises(FormatError) as err:
        parse_matrix_csv(write(tmp_path, "c.csv", "1,x\n"))
    assert "line 1" in str(err.value)


def test_parse_matrix_csv_rejects_digit_group_underscores(tmp_path, capsys):
    # float("1_0") is 10.0; a CSV entry with an underscore is not a decimal
    path = write(tmp_path, "B.csv", "1_0,0,1,0\n0,1,0,1\n")
    with pytest.raises(FormatError) as err:
        parse_matrix_csv(path)
    assert "line 1" in str(err.value) and "'1_0'" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_matrix_csv(write(tmp_path, "c.csv", "1,0\n0,1e_1\n"))
    assert "line 2" in str(err.value)
    assert main(["select", "--b", path, "-k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "line 1" in captured.err


def test_report_json_keys_and_values_are_the_dataclass_fields():
    prob = SelectionProblem(
        a=DenseMatrix.zeros(2, 0),
        b=DenseMatrix([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
        k=2,
    )
    report = greedy_select(prob)
    payload = json.loads(serialize_report(report))
    assert list(payload) == [
        "subset",
        "frob_sq",
        "spec_sq",
        "baseline_frob_sq",
        "baseline_spec_sq",
        "gamma",
        "bound_factor",
        "eps",
        "trace",
    ]
    assert [list(step) for step in payload["trace"]] == [["index", "lambda_min"]] * 2
    rebuilt = SelectionReport(
        **{
            **payload,
            "subset": tuple(payload["subset"]),
            "trace": tuple(TraceStep(**step) for step in payload["trace"]),
        }
    )
    assert rebuilt == report


@pytest.mark.parametrize(
    "shape", [(6, 48, 3, 12), (4, 7, 0, 5), (2, 5, 1, 1)], ids=["wide", "no_fixed_block", "k_1"]
)
def test_report_bytes_are_those_of_asdict(shape):
    # serialize_report builds its dict from the fields without
    # dataclasses.asdict's deep copy; the JSON must not change by a byte.
    report = greedy_select(random_problem(np.random.default_rng(7), *shape))
    assert len(report.trace) == shape[3]
    assert serialize_report(report) == json.dumps(dataclasses.asdict(report), indent=2)


def test_select_subcommand(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["select", "--b", b, "-k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "subset",
        "frob_sq",
        "spec_sq",
        "baseline_frob_sq",
        "baseline_spec_sq",
        "gamma",
        "bound_factor",
        "eps",
        "trace",
    ]
    assert len(payload["subset"]) == 2
    assert payload["frob_sq"] == pytest.approx(2.0)
    assert len(payload["trace"]) == 2


def test_select_writes_identical_bytes(tmp_path):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["select", "--b", b, "-k", "2", "--out", out1]) == 0
    assert main(["select", "--b", b, "-k", "2", "--out", out2]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_select_text_format(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["select", "--b", b, "-k", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("subset: ")
    assert "frob_sq: 2.0" in out


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (
            ["select", "-k", "2"],
            ["subset: 2,3", "frob_sq: 2.0", "spec_sq: 1.0", "eps: 1e-06"],
        ),
        (["verify", "--subset", "2,3"], ["subset: 2,3", "holds: True"]),
        (
            ["oracle", "-k", "2"],
            ["num_subsets: 6", "num_feasible: 4", "best_subset_frob: 0,1", "greedy_subset: 2,3"],
        ),
    ],
    ids=["select", "verify", "oracle"],
)
def test_text_format_prints_a_line_per_key_and_per_trace_step(tmp_path, capsys, argv, pinned):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(argv + ["--b", b]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(argv + ["--b", b, "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    trace = payload.get("trace", [])
    keys = [key for key in payload if key != "trace"] + ["trace"] * len(trace)
    assert [line.split(": ", 1)[0] for line in lines] == keys
    assert set(pinned) <= set(lines)
    assert lines[len(lines) - len(trace):] == [
        f"trace: index={step['index']} lambda_min={step['lambda_min']!r}" for step in trace
    ]
    if trace:
        assert [line.split(" ")[1] for line in lines[-2:]] == ["index=2", "index=3"]


def test_select_with_fixed_block(tmp_path, capsys):
    a = write(tmp_path, "a.csv", "1\n0\n")
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["select", "--a", a, "--b", b, "-k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["subset"]) == 1


def test_select_invalid_eps_names_constraint(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["select", "--b", b, "-k", "2", "--eps", "0.9"]) == 1
    assert "1/(2k)" in capsys.readouterr().err


def test_select_eps_below_float_spacing_terminates(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["select", "--b", b, "-k", "2", "--eps", "1e-300"]) == 0
    assert json.loads(capsys.readouterr().out)["eps"] == 1e-300


def test_select_reports_the_problem_default_eps(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["select", "--b", b, "-k", "2"]) == 0
    default = SelectionProblem(a=DenseMatrix.zeros(2, 0), b=parse_matrix_csv(b), k=2).eps
    assert json.loads(capsys.readouterr().out)["eps"] == default


@pytest.mark.parametrize(
    "argv, code",
    [
        (["select", "--b", "B"], 1),
        (["select", "--b", "B", "-k", "x"], 1),
        (["select", "--b", "B", "-k", "2", "--eps", "abc"], 1),
        (["select", "--b", "B", "-k", "2", "--format", "xml"], 1),
        (["frobnicate", "--b", "B"], 1),
        (["--help"], 0),
        (["select", "--help"], 0),
    ],
    ids=["missing_k", "k_not_int", "eps_not_float", "unknown_format", "unknown_subcommand",
         "help", "subcommand_help"],
)
def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys, argv, code):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    select = ["select", "--b", b, "-k", "2"]
    assert main(select) == 0
    selected = capsys.readouterr()
    assert main([b if arg == "B" else arg for arg in argv]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.startswith("usage: colsel") and captured.err == ""
    else:
        assert captured.out == "" and captured.err.startswith("usage: colsel")
    # main builds its parser once: the same call prints the same bytes again,
    # and a call after a usage error or --help runs as before it
    assert main([b if arg == "B" else arg for arg in argv]) == code
    assert capsys.readouterr() == captured
    assert main(select) == 0
    assert capsys.readouterr() == selected


def test_select_missing_file(tmp_path, capsys):
    assert main(["select", "--b", str(tmp_path / "none.csv"), "-k", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_algorithm_failure_exits_2(tmp_path, capsys, monkeypatch):
    def planted(prob):
        raise AlgorithmFailure("planted failure")

    monkeypatch.setattr(cli, "greedy_select", planted)
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["select", "--b", b, "-k", "2"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: planted failure\n")


def test_gamma_subcommand(capsys):
    assert main(["gamma", "-m", "4", "-n", "2", "-k", "3", "-r", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2.0"


def test_gamma_subcommand_invalid(capsys):
    assert main(["gamma", "-m", "4", "-n", "2", "-k", "4", "-r", "0"]) == 1
    assert main(["gamma", "-m", "10", "-n", "2", "-k", "5", "-r", "-1"]) == 1
    assert "r >= 0" in capsys.readouterr().err
    assert main(["gamma", "-m", str(10**160), "-n", "2", "-k", "3", "-r", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gamma(m=") and err.count("\n") == 1


def test_verify_subcommand(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["verify", "--b", b, "--subset", "0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["ratio_frob"] == pytest.approx(2.0)
    assert payload["ratio_spec"] == pytest.approx(2.0)


def test_verify_rank_deficient_subset(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["verify", "--b", b, "--subset", "0,2"]) == 1
    assert "rank-deficient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "csv",
    [
        "1,0,0\n0,9e-13,9e-13\n",  # every 2-subset fails the rank rule
        "1e200,0,1e200\n0,1e200,1e200\n",  # baseline norms underflow to 0
        "1e-170,0,1e-170\n0,1e-170,1e-170\n",  # baseline norms overflow
    ],
    ids=["subsets_rank_deficient", "baseline_underflows", "baseline_overflows"],
)
def test_select_and_verify_fail_alike_at_the_edges(tmp_path, capsys, csv):
    b = write(tmp_path, "b.csv", csv)
    assert main(["select", "--b", b, "-k", "2"]) == 1
    selected = capsys.readouterr()
    assert main(["verify", "--b", b, "--subset", "0,1"]) == 1
    verified = capsys.readouterr()
    assert selected.out == verified.out == ""
    assert selected.err == verified.err
    assert selected.err.startswith("error: ") and "Traceback" not in selected.err


def test_select_verify_and_oracle_refuse_an_overflowing_bound_factor(tmp_path, capsys):
    # |A^+ B|_F^2 = 2e400: the bound factor is not a finite float
    a = write(tmp_path, "a.csv", "1e-200\n")
    b = write(tmp_path, "b.csv", "1,1\n")
    errors = []
    for argv in (["select", "-k", "1"], ["verify", "--subset", "0"], ["oracle", "-k", "1"]):
        assert main(argv + ["--a", a, "--b", b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0].startswith("error: ") and "bound factor" in errors[0]
    assert errors == [errors[0]] * 3


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# (A csv or None, B csv, k) at the edges of the rank rule and the float range
FLOAT_EDGE_INPUTS = {
    "subsets_rank_deficient": (None, "1,0,0\n0,9e-13,9e-13\n", 2),
    "baseline_underflows": (None, "1e200,0,1e200\n0,1e200,1e200\n", 2),
    "baseline_overflows": (None, "1e-170,0,1e-170\n0,1e-170,1e-170\n", 2),
    "bound_factor_overflows": ("1e-200\n", "1,1\n", 1),
    "subset_norm_overflows": (None, "1e-150,0,1e-150\n0,1e-155,1e-150\n", 2),
    "subset_sigma_min_sq_underflows": (None, "1,0,1e-163,0\n0,1,0,1e-163\n", 2),
    "subset_sigma_min_subnormal": (None, "1,0,1e-310,0\n0,1,0,1e-310\n", 2),
}


@pytest.mark.parametrize("name", sorted(FLOAT_EDGE_INPUTS))
def test_every_subcommand_prints_strict_json_or_exits_1(tmp_path, capsys, name):
    a_csv, b_csv, k = FLOAT_EDGE_INPUTS[name]
    files = ["--b", write(tmp_path, "b.csv", b_csv)]
    if a_csv is not None:
        files += ["--a", write(tmp_path, "a.csv", a_csv)]
    subset = ",".join(str(j) for j in range(k))
    for argv in (["select", "-k", str(k)], ["verify", "--subset", subset], ["oracle", "-k", str(k)]):
        code = main(argv + files)
        captured = capsys.readouterr()
        if code == 1:
            assert captured.out == "" and captured.err.startswith("error: "), argv
        else:
            assert code == 0, argv
            json.loads(captured.out, parse_constant=_refuse_constant)


def test_verify_malformed_subset(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["verify", "--b", b, "--subset", "0,x"]) == 1
    assert "'0,x'" in capsys.readouterr().err


@pytest.mark.parametrize("subset", ["", ","])
def test_verify_empty_subset_names_the_subset_flag(tmp_path, capsys, subset):
    # An empty subset is k = 0, but verify has no -k flag to blame.
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["verify", "--b", b, "--subset", subset]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --subset names no column, got {subset!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--b", "B", "--subset", "0_2,3"],
        ["verify", "--b", "B", "--subset", "\uff12,3"],  # a full-width 2
        ["select", "--b", "B", "-k", "0_2"],
        ["select", "--b", "B", "-k", "\uff12"],
        ["oracle", "--b", "B", "-k", "0_2"],
        ["gamma", "-m", "1_0", "-n", "2", "-k", "3", "-r", "0"],
        ["gamma", "-m", "4", "-n", "\u0662", "-k", "3", "-r", "0"],  # an Arabic-Indic 2
        ["gamma", "-m", "4", "-n", "2", "-k", "3_0", "-r", "0"],
        ["gamma", "-m", "4", "-n", "2", "-k", "3", "-r", "0_0"],
    ],
    ids=["subset_underscore", "subset_fullwidth", "select_k_underscore", "select_k_fullwidth",
         "oracle_k_underscore", "gamma_m_underscore", "gamma_n_arabic_indic",
         "gamma_k_underscore", "gamma_r_underscore"],
)
def test_integer_arguments_take_ascii_digits_only(tmp_path, capsys, argv):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main([b if arg == "B" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "int" in errors[0]


def test_integer_arguments_keep_sign_and_surrounding_spaces(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["verify", "--b", b, "--subset", " 2, +3,"]) == 0
    assert json.loads(capsys.readouterr().out)["subset"] == [2, 3]
    assert main(["select", "--b", b, "-k", " 2 "]) == 0
    assert json.loads(capsys.readouterr().out)["subset"] == [2, 3]
    assert main(["gamma", "-m", "+4", "-n", "2", "-k", "3", "-r", "0"]) == 0
    assert capsys.readouterr().out == "2.0\n"


@pytest.mark.parametrize(
    "argv, csv, token",
    [
        (["select", "--b", "B", "-k", "2", "--eps", "1_0e-7"], DOUBLED_IDENTITY_CSV, "1_0e-7"),
        # a full-width 1
        (["select", "--b", "B", "-k", "2", "--eps", "\uff11e-6"], DOUBLED_IDENTITY_CSV,
         "\uff11e-6"),
        # an Arabic-Indic 6
        (["verify", "--b", "B", "--subset", "2,3", "--eps", "1e-\u0666"], DOUBLED_IDENTITY_CSV,
         "1e-\u0666"),
        (["select", "--b", "B", "-k", "2"], "\uff11,0,1,0\n0,1,0,1\n", "\uff11"),
        (["oracle", "--b", "B", "-k", "2"], "1,0,1,0\n0,1,0,\u0661\n", "\u0661"),
        (["select", "--b", "B", "-k", "2"], "1,0,1,0\n0,1,0,1_0\n", "1_0"),
    ],
    ids=["eps_underscore", "eps_fullwidth", "eps_arabic_indic", "csv_fullwidth",
         "csv_arabic_indic", "csv_underscore"],
)
def test_decimal_arguments_and_cells_take_ascii_literals_only(tmp_path, capsys, argv, csv, token):
    (tmp_path / "B.csv").write_bytes(csv.encode("utf-8"))
    assert main([str(tmp_path / "B.csv") if arg == "B" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(token) in errors[0]


@pytest.mark.parametrize(
    "argv, csv",
    [
        (["select", "--b", "B", "-k", "2", "--eps", "nan"], DOUBLED_IDENTITY_CSV),
        (["select", "--b", "B", "-k", "2", "--eps", "inf"], DOUBLED_IDENTITY_CSV),
        (["select", "--b", "B", "-k", "2", "--eps", "1e999"], DOUBLED_IDENTITY_CSV),
        (["select", "--b", "B", "-k", "2"], "1,0,1,0\n0,1,0,nan\n"),
        (["select", "--b", "B", "-k", "2"], "1,0,1,0\n0,1,0,1e999\n"),
    ],
    ids=["eps_nan", "eps_inf", "eps_overflow", "csv_nan", "csv_overflow"],
)
def test_decimal_arguments_and_cells_reject_non_finite_values(tmp_path, capsys, argv, csv):
    b = write(tmp_path, "b.csv", csv)
    assert main([b if arg == "B" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


def test_decimal_arguments_and_cells_keep_sign_point_exponent_and_spaces(tmp_path, capsys):
    b = write(tmp_path, "b.csv", " +1.,0 ,.1e1,-0\n0, 1E+0,0.0,10e-1\n")
    assert parse_matrix_csv(b) == parse_matrix_csv(write(tmp_path, "i.csv", DOUBLED_IDENTITY_CSV))
    for eps in (" 1e-6 ", "+.000001", "1E-6", "1e-300"):
        assert main(["select", "--b", b, "-k", "2", "--eps", eps]) == 0
        assert json.loads(capsys.readouterr().out)["eps"] == float(eps)


def test_console_script_entry_point(tmp_path):
    import subprocess
    import sys

    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    proc = subprocess.run(
        [sys.executable, "-m", "colsel.cli", "select", "--b", b, "-k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["frob_sq"] == pytest.approx(2.0)


def test_oracle_subcommand(tmp_path, capsys):
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["oracle", "--b", b, "-k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_subsets"] == 6
    assert payload["num_feasible"] == 4
    assert payload["best_frob_sq"] == pytest.approx(2.0)
    assert payload["greedy_frob_sq"] >= payload["best_frob_sq"] - 1e-12


def test_oracle_reads_the_counts_not_the_table(tmp_path, capsys, monkeypatch):
    def unread(self):
        raise AssertionError("colsel oracle built the full table")

    monkeypatch.setattr(oracle.EnumerationResult, "all_values", property(unread))
    b = write(tmp_path, "b.csv", DOUBLED_IDENTITY_CSV)
    assert main(["oracle", "--b", b, "-k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["num_subsets"], payload["num_feasible"]) == (6, 4)
