"""Command-line interface.

Subcommands construct objects (dmatrix, cgc, fmatrix, rmatrix, normalform)
or run verification suites (verify).  All output goes to stdout unless
--out is given; reports are machine-readable JSON by default.  Exit status
is 0 on success or all-pass, 1 on verification failure, 2 on usage errors
(bad arguments, an --out path that cannot be written, or any ValueError
the library raises on invalid input), and 141 when the reader of stdout
closes it early (`slh2 verify ... | head`), which ends the run quietly.
"""

import argparse
import json
import os
import sys

from . import dfun, exprio, fock, hopfcheck, ncalg, pbwcheck, rep
from .report import Report
from .scalar import ZERO


def _spin_pairs(max_twoj):
    return [
        (a, b) for a in range(1, max_twoj + 1) for b in range(a, max_twoj + 1)
    ]


# suite -> (the options it reads, its Reports for (args, k)), k the value
# of --max-twoj
SUITES = {
    "corep": (("max_twoj", "scheme"), lambda args, k: (
        hopfcheck.check_corep(twoj, args.scheme, args.ring) for twoj in range(k + 1))),
    "wigner": (("max_twoj",), lambda args, k: (
        hopfcheck.wigner_check(a, b, twoj, args.ring)
        for a, b in _spin_pairs(k) for twoj in rep.triangle(a, b))),
    "recurrence": (("max_twoj",), lambda args, k: (
        hopfcheck.recurrence_check(which, twoj, args.ring)
        for twoj in range(1, k + 1) for which in hopfcheck.RING_RECURRENCES[args.ring])),
    "ortho": (("max_twoj",), lambda args, k: (
        hopfcheck.ortho_like_check(twoj, args.ring) for twoj in range(k + 1))),
    "rtt": (("max_twoj",), lambda args, k: [
        *(hopfcheck.rtt_check(a, b, args.ring) for a, b in _spin_pairs(k)), hopfcheck.rtt_frt_check()]),
    "pbw": ((), lambda args, k: [pbwcheck.pbw_suite()]),
    "fock": (("nmax", "with_g"), lambda args, k: [
        fock.fock_suite(4 if args.nmax is None else args.nmax, bool(args.with_g))]),
}

# the options that only some suites read, with the value each holds when
# it is not given (--scheme reads ordered1 then, as every other suite does)
_UNSET = {"max_twoj": None, "scheme": dfun.ORDERED1, "nmax": None, "with_g": None}


def _run_suite(args) -> Report:
    """The report of the chosen suite.  An option given explicitly to a
    suite that does not read it is a usage error; the defaults of
    --max-twoj (2), --nmax (4) and --with-g (off) are set here."""
    reads, reports = SUITES[args.suite]
    for option, unset in _UNSET.items():
        if option not in reads and getattr(args, option) != unset:
            raise ValueError(f"--{option.replace('_', '-')} does not apply to --suite {args.suite}")
    if args.max_twoj is not None and args.max_twoj < 0:
        raise ValueError(f"--max-twoj must be non-negative, not {args.max_twoj}")
    out = Report(args.suite)
    for report in reports(args, 2 if args.max_twoj is None else args.max_twoj):
        out.extend(report)
    return out


def _report_text(report: Report) -> str:
    lines = []
    for case in report.cases:
        status = "pass" if case["pass"] else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in case["params"].items())
        lines.append(f"[{status}] {params}")
        if not case["pass"]:
            if "lhs" in case:
                lines.append(f"    lhs: {case['lhs']}")
            if "rhs" in case:
                lines.append(f"    rhs: {case['rhs']}")
    lines.append(
        f"suite={report.suite} passed={report.passed} failed={report.failed}"
    )
    return "\n".join(lines)


def _emit(text, args):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc
    else:
        print(text)


def _cmd_dmatrix(args):
    d = dfun.dmatrix(args.twoj, args.scheme, args.ring)
    if args.format == "json":
        _emit(json.dumps(d.to_json()), args)
    elif args.format == "latex":
        _emit(d.to_latex(), args)
    else:
        _emit(d.to_text(), args)
    return 0


def _cmd_cgc(args):
    spins = (args.twoj1, args.twoj2, args.twoj3)
    obj = {
        "twoj1": args.twoj1,
        "twoj2": args.twoj2,
        "twoj": args.twoj3,
        "omega": _cgc_json(rep.omega(*spins)),
        "mho": _cgc_json(rep.mho(*spins)),
    }
    _emit(json.dumps(obj), args)
    return 0


def _cgc_json(table):
    """A coupling table {((twom1, twom2), twom): c}, keys descending."""
    return [
        {"twom1": m1, "twom2": m2, "twom": m, "value": c.to_json()}
        for ((m1, m2), m), c in sorted(table.items(), reverse=True)
    ]


def _matrix_json(name, mat, twoj1, twoj2):
    """A product-basis matrix {(row, col): c} written dense, an absent
    entry as zero."""
    basis = rep.pair_basis(twoj1, twoj2)
    return {
        "matrix": name,
        "twoj1": twoj1,
        "twoj2": twoj2,
        "basis": basis,
        "entries": [[mat.get((r, c), ZERO).to_json() for c in basis] for r in basis],
    }


def _cmd_fmatrix(args):
    obj = [
        _matrix_json("F", rep.f_matrix(args.twoj1, args.twoj2), args.twoj1, args.twoj2),
        _matrix_json(
            "Finv", rep.f_inv_matrix(args.twoj1, args.twoj2), args.twoj1, args.twoj2
        ),
    ]
    _emit(json.dumps(obj), args)
    return 0


def _cmd_rmatrix(args):
    obj = _matrix_json(
        "R", rep.r_matrix(args.twoj1, args.twoj2), args.twoj1, args.twoj2
    )
    _emit(json.dumps(obj), args)
    return 0


def _cmd_normalform(args):
    p = exprio.parse(args.expr, args.ring)
    _emit(exprio.render(p, args.format), args)
    return 0


def _cmd_verify(args):
    report = _run_suite(args)
    if not report.cases:
        raise ValueError(f"suite {report.suite} has no cases for these arguments")
    if args.format == "text":
        _emit(_report_text(report), args)
    else:
        _emit(json.dumps(report.to_json()), args)
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slh2",
        description="Exact representation functions of the Jordanian "
        "quantum group SL_h(2)/GL_h(2) and their verified identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--ring", choices=ncalg.RINGS, default=ncalg.SL)
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("dmatrix", help="emit the D-function matrix of one spin")
    p.add_argument("--twoj", type=int, required=True)
    p.add_argument("--scheme", choices=dfun.SCHEMES, default=dfun.ORDERED1)
    p.add_argument("--format", choices=("json", "latex", "text"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_dmatrix)

    p = sub.add_parser("cgc", help="emit coupling and decoupling coefficients")
    p.add_argument("--twoj1", type=int, required=True)
    p.add_argument("--twoj2", type=int, required=True)
    p.add_argument("--twoj3", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cgc)

    p = sub.add_parser("fmatrix", help="emit the twist matrix F and its inverse")
    p.add_argument("--twoj1", type=int, required=True)
    p.add_argument("--twoj2", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fmatrix)

    p = sub.add_parser("rmatrix", help="emit the R-matrix of a spin pair")
    p.add_argument("--twoj1", type=int, required=True)
    p.add_argument("--twoj2", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rmatrix)

    p = sub.add_parser("normalform", help="normal-order an expression")
    p.add_argument("expr")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    add_common(p)
    p.set_defaults(func=_cmd_normalform)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(SUITES),
    )
    # None tells an explicit value from the default; see _run_suite
    p.add_argument("--max-twoj", type=int)
    p.add_argument("--nmax", type=int, help="fock grade cutoff")
    p.add_argument(
        "--with-g", action="store_true", default=None, help="include the two-parameter fock checks"
    )
    p.add_argument("--scheme", choices=dfun.SCHEMES, default=dfun.ORDERED1, help="corep only")
    p.add_argument("--format", choices=("json", "text"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # invalid input, including ParseError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # console entry point
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # end as a process that SIGPIPE ends (128 + 13), and point stdout at
        # devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    main()
