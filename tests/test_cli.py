"""CSV ingestion, subcommand dispatch, JSON report round-trips, exit codes."""
from __future__ import annotations

import json

import pytest

from colsel.cli import (
    main,
    parse_matrix_csv,
    parse_report,
    report_from_dict,
    report_to_dict,
    serialize_report,
)
from colsel.errors import FormatError
from colsel.linalg import DenseMatrix
from colsel.selector import SelectionProblem, greedy_select

DOUBLED_IDENTITY_CSV = "1,0,1,0\n0,1,0,1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_matrix_csv_identity(tmp_path):
    path = write(tmp_path, "m.csv", "1,0\n0,1\n")
    assert parse_matrix_csv(path) == DenseMatrix.identity(2)


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


def test_report_round_trip():
    prob = SelectionProblem(
        a=DenseMatrix.zeros(2, 0),
        b=DenseMatrix([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
        k=2,
    )
    report = greedy_select(prob)
    assert parse_report(serialize_report(report)) == report
    assert report_from_dict(report_to_dict(report)) == report


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


def test_select_missing_file(tmp_path, capsys):
    assert main(["select", "--b", str(tmp_path / "none.csv"), "-k", "2"]) == 1
    assert "error:" in capsys.readouterr().err


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
