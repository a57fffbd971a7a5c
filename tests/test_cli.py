import json

import pytest

from slh2 import cli


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dmatrix_text(capsys):
    code, out = run(capsys, "dmatrix", "--twoj", "1", "--ring", "sl", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "D[1/2,1/2] = x",
        "D[1/2,-1/2] = u",
        "D[-1/2,1/2] = v",
        "D[-1/2,-1/2] = y",
    ]


def test_dmatrix_json_deterministic(capsys):
    code1, out1 = run(capsys, "dmatrix", "--twoj", "2", "--scheme", "jacobi")
    code2, out2 = run(capsys, "dmatrix", "--twoj", "2", "--scheme", "jacobi")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["twoj"] == 2 and len(obj["entries"]) == 3


def test_dmatrix_latex(capsys):
    code, out = run(capsys, "dmatrix", "--twoj", "1", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{pmatrix}")


def test_normalform(capsys):
    code, out = run(capsys, "normalform", "x*y - u*v - h*x*v", "--ring", "sl")
    assert code == 0
    assert out.strip() == "1"


def test_normalform_gl(capsys):
    code, out = run(capsys, "normalform", "v*x + h*v^2", "--ring", "gl")
    assert code == 0
    assert out.strip() == "h*v^2 + v*x"


def test_normalform_parse_error_exit_2(capsys):
    code = cli.run(["normalform", "x*)", "--ring", "sl"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        cli.run(["dmatrix"])  # missing required --twoj
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.run(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


def test_cgc_json(capsys):
    code, out = run(capsys, "cgc", "--twoj1", "1", "--twoj2", "1", "--twoj3", "0")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"twoj1", "twoj2", "twoj", "omega", "mho"}
    assert obj["omega"]


def _assert_usage_error(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cgc_triangle_error(capsys):
    _assert_usage_error(capsys, ["cgc", "--twoj1", "1", "--twoj2", "1", "--twoj3", "3"])


@pytest.mark.parametrize(
    "argv",
    [
        ["dmatrix", "--twoj", "2", "--scheme", "jacobi", "--ring", "gl"],
        ["dmatrix", "--twoj", "-1"],
        ["fmatrix", "--twoj1", "-2", "--twoj2", "1"],
        ["rmatrix", "--twoj1", "-1", "--twoj2", "1"],
        ["verify", "--suite", "fock", "--nmax", "-1"],
        ["verify", "--suite", "recurrence", "--max-twoj", "0"],
        ["verify", "--suite", "corep", "--max-twoj", "-1"],
        ["normalform", "1/0"],
        ["verify", "--suite", "wigner", "--ring", "gl"],
        ["verify", "--suite", "ortho", "--ring", "gl"],
    ],
    ids=[
        "jacobi-gl",
        "dmatrix-neg",
        "fmatrix-neg",
        "rmatrix-neg",
        "fock-neg",
        "no-recurrence",
        "no-corep",
        "zero-denominator",
        "wigner-gl",
        "ortho-gl",
    ],
)
def test_invalid_input_exit_2(capsys, argv):
    _assert_usage_error(capsys, argv)


def test_fmatrix_and_rmatrix(capsys):
    code, out = run(capsys, "fmatrix", "--twoj1", "1", "--twoj2", "1")
    assert code == 0
    blocks = json.loads(out)
    assert [b["matrix"] for b in blocks] == ["F", "Finv"]
    assert blocks[0]["basis"] == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    code, out = run(capsys, "rmatrix", "--twoj1", "1", "--twoj2", "1")
    obj = json.loads(out)
    assert obj["matrix"] == "R"
    # upper left corner is 1
    assert obj["entries"][0][0]["terms"][0]["poly"][0]["q"] == "1/1"


def test_verify_pass_exit_0(capsys):
    code, out = run(capsys, "verify", "--suite", "corep", "--max-twoj", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["failed"] == 0 and obj["passed"] > 0


def test_verify_text_format(capsys):
    code, out = run(capsys, "verify", "--suite", "ortho", "--max-twoj", "1", "--format", "text")
    assert code == 0
    assert "[pass]" in out and "failed=0" in out


def test_verify_rtt_includes_span_check(capsys):
    code, out = run(capsys, "verify", "--suite", "rtt", "--max-twoj", "1")
    assert code == 0
    obj = json.loads(out)
    directions = {
        c["params"].get("direction")
        for c in obj["cases"]
        if "direction" in c["params"]
    }
    assert "rank" in directions


def test_verify_fock_small(capsys):
    code, out = run(capsys, "verify", "--suite", "fock", "--nmax", "1", "--with-g")
    assert code == 0
    obj = json.loads(out)
    assert obj["failed"] == 0


def test_byte_identical_across_processes():
    import subprocess
    import sys

    cmd = [
        sys.executable,
        "-m",
        "slh2.cli",
        "dmatrix",
        "--twoj",
        "2",
        "--scheme",
        "ordered2",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = cli.run(["dmatrix", "--twoj", "1", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(target.read_text())
    assert obj["twoj"] == 1


def test_verify_failure_exit_1(capsys, monkeypatch):
    from slh2.report import Report

    failing = Report("stub")
    failing.add({"case": 1}, False, lhs="a", rhs="b")
    monkeypatch.setattr(cli, "_run_suite", lambda args: failing)
    code, out = run(capsys, "verify", "--suite", "corep")
    assert code == 1
    assert json.loads(out)["failed"] == 1
    code, out = run(capsys, "verify", "--suite", "corep", "--format", "text")
    assert code == 1
    assert "[FAIL]" in out and "lhs: a" in out


def test_empty_report_is_not_ok():
    from slh2.report import Report

    empty = Report("stub")
    assert empty.passed == empty.failed == 0
    assert not empty.ok
    empty.add({"case": 1}, True)
    assert empty.ok


def test_verify_recurrence_and_wigner_quick(capsys):
    code, _ = run(capsys, "verify", "--suite", "recurrence", "--max-twoj", "1")
    assert code == 0
    # GL runs the lowering recurrences only; v-viii need D = 1
    code, out = run(capsys, "verify", "--suite", "recurrence", "--ring", "gl", "--max-twoj", "1")
    assert code == 0
    assert {c["params"]["which"] for c in json.loads(out)["cases"]} == {"i", "ii", "iii", "iv"}
    code, _ = run(capsys, "verify", "--suite", "wigner", "--max-twoj", "1")
    assert code == 0
    code, _ = run(capsys, "verify", "--suite", "pbw")
    assert code == 0
