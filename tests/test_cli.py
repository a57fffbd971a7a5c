import hashlib
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
        ["verify", "--suite", "rtt", "--max-twoj", "-1"],
        ["verify", "--suite", "wigner", "--max-twoj", "-1"],
        ["verify", "--suite", "recurrence", "--max-twoj", "-1"],
        ["verify", "--suite", "ortho", "--max-twoj", "-1"],
        ["normalform", "1/0"],
        ["normalform", "g"],
        ["normalform", "h*g"],
        ["verify", "--suite", "wigner", "--ring", "gl"],
        ["verify", "--suite", "ortho", "--ring", "gl"],
        ["verify", "--suite", "wigner", "--scheme", "ordered2", "--max-twoj", "1"],
        ["verify", "--suite", "pbw", "--max-twoj", "0"],
        ["verify", "--suite", "fock", "--max-twoj", "2"],
        ["verify", "--suite", "ortho", "--max-twoj", "0", "--nmax", "9"],
        ["verify", "--suite", "corep", "--with-g"],
        ["verify", "--suite", "pbw", "--nmax", "4"],
        ["normalform", "v^99999999999999999999"],
        ["normalform", "h^256"],
        ["normalform", "v^200*u^100"],
        ["normalform", "sqrt(614889782588491410)*sqrt(53)"],
        ["normalform", "sqrt(18446744073709551616)"],
    ],
    ids=[
        "jacobi-gl",
        "dmatrix-neg",
        "fmatrix-neg",
        "rmatrix-neg",
        "fock-neg",
        "no-recurrence",
        "no-corep",
        "rtt-neg",
        "wigner-neg",
        "recurrence-neg",
        "ortho-neg",
        "zero-denominator",
        "symbol-g",
        "symbol-g-product",
        "wigner-gl",
        "ortho-gl",
        "scheme-not-corep",
        "max-twoj-pbw",
        "max-twoj-fock",
        "nmax-ortho",
        "with-g-corep",
        "nmax-pbw",
        "exponent-huge",
        "exponent-at-limit",
        "word-past-degree-field",
        "radicand-past-field",
        "sqrt-past-radicand-field",
    ],
)
def test_invalid_input_exit_2(capsys, argv):
    _assert_usage_error(capsys, argv)


# each option of `verify` that only some suites read, given explicitly
_SUITE_OPTION_ARGS = {
    "max_twoj": ["--max-twoj", "1"],
    "scheme": ["--scheme", "ordered2"],
    "nmax": ["--nmax", "2"],
    "with_g": ["--with-g"],
}


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_verify_refuses_each_option_its_suite_does_not_read(capsys, suite):
    reads, _ = cli.SUITES[suite]
    assert set(reads) <= set(_SUITE_OPTION_ARGS)
    for option, args in _SUITE_OPTION_ARGS.items():
        if option not in reads:
            _assert_usage_error(capsys, ["verify", "--suite", suite, *args])


def test_verify_reads_scheme_ordered1_as_not_given(capsys):
    code, out = run(capsys, "verify", "--suite", "wigner", "--scheme", "ordered1", "--max-twoj", "1")
    report = json.loads(out)
    assert code == 0 and report["suite"] == "wigner"
    assert report["failed"] == 0 and report["passed"] == len(report["cases"]) > 0


def test_out_unwritable_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    _assert_usage_error(capsys, ["dmatrix", "--twoj", "2", "--out", str(target)])
    assert not target.exists()


# exit code and sha256 of stdout: the README commands, JSON output whose
# scalars carry the "g": 0 field, D-matrices at larger spins, the suites,
# then F and R with twist series terms of order k >= 3 and R entries off
# the block diagonal
PINNED = [
    (["dmatrix", "--twoj", "2", "--ring", "sl", "--scheme", "ordered1", "--format", "text"],
     0, "90f7f06bf8990250ccde025566d1a08e3bcfd623195cc91b902031ef3960145f"),
    (["dmatrix", "--twoj", "2", "--scheme", "jacobi", "--format", "latex"],
     0, "26c5ed083a855e7fc0de669c2c9134eaac080fddf900a63e384838e700650b9c"),
    (["normalform", "x*y - u*v - h*x*v", "--ring", "sl"],
     0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["cgc", "--twoj1", "2", "--twoj2", "1", "--twoj3", "1"],
     0, "8d61cd76c52cfb19f350cc35582ae0f2cbf1f9a30cfba008632c49e7977d0e44"),
    (["fmatrix", "--twoj1", "1", "--twoj2", "1"],
     0, "e013cb73f13b77c7e8a931ed4ffca45873c3bfab099ffbc9cbc9ddc51a1af0bd"),
    (["rmatrix", "--twoj1", "1", "--twoj2", "1"],
     0, "e62668cf70e4bea8b868febeaf9013e5439fa65a105ef0130e1aaa6b21b84f32"),
    (["verify", "--suite", "rtt", "--max-twoj", "2"],
     0, "0eb254093e80562fc0ad2b3f18f38d83861f352372113ccc4a59d14f850d9cf9"),
    (["verify", "--suite", "fock", "--nmax", "4", "--with-g"],
     0, "dff50a5fe4a7fb083a611dae6f7ba566ee2a276ae6eb59cc6a27dc252ce90b37"),
    (["verify", "--suite", "pbw", "--format", "text"],
     0, "8d6fc25d098040bcfd175d1e34bcc0a655a43420b9de4a5ce9dfaeccbebf17d2"),
    (["dmatrix", "--twoj", "3", "--format", "json"],
     0, "e06d73234611cff669395c8d9dad4aa57918218805d14dee84558446bf24eb1d"),
    (["dmatrix", "--twoj", "3", "--format", "json", "--ring", "gl"],
     0, "f23e2c277451db43bd5a6cd239976a57d506238fd5218e1acf3d6b557c766538"),
    (["normalform", "sqrt(8)*h^2*x*v - 1/2*u", "--format", "json"],
     0, "0cafcb78e087f9820802f5aa16a8b2eeb8483f438530402df8d7ad799783c139"),
    (["dmatrix", "--twoj", "6"],
     0, "a87e968b9d5e2c75afded2f3263c2a4295d01dbb4cf354b38462e4560afd0a0e"),
    (["dmatrix", "--twoj", "6", "--scheme", "jacobi"],
     0, "59bc939d48d6a6ec15dd3e6bb38e2ad3b2e25bea7aaf561638d3e4a6a28e418e"),
    (["dmatrix", "--twoj", "5", "--scheme", "ordered2", "--ring", "gl"],
     0, "701ebbe03378a5fe1120e795206fd15b93d0b6b35e98de4fcc78802cc063c588"),
    (["verify", "--suite", "corep", "--max-twoj", "4", "--format", "text"],
     0, "a8c8f44b5f4df5e7c505d5c244768d0fee5e1f040e4d0537a17df5db4ec189ef"),
    (["verify", "--suite", "corep", "--ring", "gl", "--max-twoj", "3"],
     0, "b28e812d180f97e65155eaf2203d715b7444d62cd0bd6729f9964a11542e851c"),
    (["verify", "--suite", "wigner", "--max-twoj", "2", "--format", "text"],
     0, "909c49c649727ee3d5fe57448eedc389b576b912076c79d9daee8f8f5cea8308"),
    (["verify", "--suite", "ortho", "--max-twoj", "2"],
     0, "ac4dacc540460b01a6e3e2d35a5fc531dafdc53a620b9f77d9f155a15a320248"),
    (["verify", "--suite", "rtt", "--max-twoj", "3"],
     0, "5d2d09ae311f45ab0736d0d9ea0cf02cb3604aa395a6acfb53e6488b2a2802f5"),
    (["verify", "--suite", "wigner", "--max-twoj", "3"],
     0, "9bbeb8899b3c72106bcbefd340506a9e3e5e065f7a0efd06af2d69a372b99363"),
    (["verify", "--suite", "recurrence", "--max-twoj", "4"],
     0, "8a21305aba900a2576a4750b54625953b73c591f4ef710b403b17d95b0b375d1"),
    (["verify", "--suite", "recurrence", "--ring", "gl", "--max-twoj", "3"],
     0, "953d05b35858ae371676a2fb271db68c9a982486f008623115d757a887d8fe6d"),
    (["cgc", "--twoj1", "3", "--twoj2", "2", "--twoj3", "3"],
     0, "2e0332f14add1310f2eab85b955e5ad9bef0806b308936d5c125c6417f9268dd"),
    (["cgc", "--twoj1", "2", "--twoj2", "2", "--twoj3", "0"],
     0, "66e8a04719b23858ff64c2d3a6e54fc072ae99d387597427dc9b14ec50a658b7"),
    (["fmatrix", "--twoj1", "2", "--twoj2", "3"],
     0, "4d974fa579c0d12a5e9396bf20a61e66e279d646570904ef8ec501c46bb6773b"),
    (["rmatrix", "--twoj1", "2", "--twoj2", "1"],
     0, "cad755b247f01f2cb483c25668e76d2c1bf1b7fdf8a7f36c9fa2fc9150bc425c"),
    (["verify", "--suite", "recurrence", "--max-twoj", "6", "--format", "text"],
     0, "c94a548be363eb90478bf6e966ed021c9ca5addc12d8c35fb2020e861f421071"),
    (["verify", "--suite", "recurrence", "--ring", "gl", "--max-twoj", "6"],
     0, "a03a08600fa660ffe4b45f773b9f9118b51b33d95c43910c7eaf2962a7311def"),
    (["fmatrix", "--twoj1", "3", "--twoj2", "3"],
     0, "2643ba6d8ceca8e8fbfc667c82a9e23989b9920182f9b47d2b8ffdb50ffe78b8"),
    (["rmatrix", "--twoj1", "4", "--twoj2", "4"],
     0, "ed7e5b0be4ae83fc0b105bb698d2605b61f5d6b140b47adad7984d17b8849963"),
    (["verify", "--suite", "ortho", "--max-twoj", "4"],
     0, "be5f10b4aff9c7f34b443b3a122c5c22eb3a9c8c021d658b00a1bed8284a721d"),
    (["verify", "--suite", "wigner", "--max-twoj", "4"],
     0, "eabf2c395f49884f72038c7b366ec81b0f2fda1e63ebc9e0f80890f21750b52e"),
    (["verify", "--suite", "recurrence", "--max-twoj", "7", "--format", "text"],
     0, "d6c7a8a7e5b01d1031cfd8de9e0a64025002d8eff900f4909a435249682d77b1"),
    (["verify", "--suite", "ortho", "--max-twoj", "5"],
     0, "6dfd62e0b7549b781ec27202fee06705d5e806de590ae6ac83c378ddc552ee9c"),
    (["verify", "--suite", "rtt", "--max-twoj", "2", "--format", "text"],
     0, "3058b473c74e150c92048f7d7a94d6eebca8d7e85f2388dfad98eea9c394ecf8"),
    (["verify", "--suite", "corep", "--max-twoj", "5", "--format", "text"],
     0, "b4a3ad5f67ecaa0c82be56eed4d9fb861756995ca39fe812ef880b18f785f74f"),
    (["verify", "--suite", "corep", "--ring", "gl", "--max-twoj", "5", "--format", "text"],
     0, "b4a3ad5f67ecaa0c82be56eed4d9fb861756995ca39fe812ef880b18f785f74f"),
    # --max-twoj 0: no spin pair, the spin-1/2 FRT cases alone
    (["verify", "--suite", "rtt", "--max-twoj", "0"],
     0, "0a0efb548cb80e62cbc517cb6c4f0426f1544a3f4fcb602cfbc1083fa9f09a68"),
    # the classical scheme is not a corepresentation: the text of its
    # failing sides, both of them, is pinned
    (["verify", "--suite", "corep", "--scheme", "classical", "--max-twoj", "3", "--format", "text"],
     1, "8a2d71edc4d0ed61955954e418356541d78c3b0831c1ed088b914cde208a9490"),
    (["verify", "--suite", "wigner", "--max-twoj", "3", "--format", "text"],
     0, "7af49d8583b9e8912a337d401ef33445d755db63233a91cd8f37e687505ff2ea"),
]


def test_cli_output_is_pinned(capsys):
    got = []
    for argv, _, _ in PINNED:
        code, out = run(capsys, *argv)
        got.append((argv, code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == PINNED


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


def test_byte_identical_across_processes(child_env):
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
        subprocess.run(cmd, capture_output=True, text=True, env=child_env) for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_python_m_slh2_runs_the_cli(child_env):
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-m", "slh2", "normalform", "x*v"], capture_output=True, text=True, env=child_env
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "-h*v^2 + v*x\n", "")


def test_sqrt_of_the_largest_prime_below_2_64(child_env):
    import subprocess
    import sys

    # factoring the argument must not take the square root of it in steps
    done = subprocess.run(
        [sys.executable, "-m", "slh2", "normalform", "sqrt(18446744073709551557)"],
        capture_output=True, text=True, env=child_env, timeout=30,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "sqrt(18446744073709551557)\n", "")


def test_closed_stdout_ends_the_run_quietly(child_env):
    import os
    import subprocess
    import sys

    # the read end is closed before the child writes, as `| head -c 100`
    # does once it has its bytes: the write fails with EPIPE every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "slh2", "verify", "--suite", "rtt", "--max-twoj", "1", "--ring", "gl"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


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
