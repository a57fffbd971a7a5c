"""The correctness gate, applied to every op after the clock stops.

An op fails when it raised, or when its result does not hold up:

  entry    the entries of each matrix, rendered the way `slh2 dmatrix
           --format json` renders the matrix, must match the committed
           reference digest; in SL, ordered1, ordered2 and jacobi must
           agree entrywise and ordered1 at h = 0 must equal the
           classical matrix
  words    the engine's normal form of a sum of words must equal the sum
           of the naive rewriter's normal forms (pbwcheck, which shares
           no code with the engine), and the rendered text must parse
           back to the same polynomial
  report   the Report must have cases, none failed, and exactly the
           expected case parameters in the expected order
"""

import hashlib
import json
from pathlib import Path

from slh2 import dfun, exprio, ncalg, pbwcheck

from workloads import dmatrix_key, magnetics

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(report, params):
    """Problems with one suite Report; an empty list means it holds."""
    cases = report.cases
    if not cases:
        return ["report has zero cases"]
    problems = []
    if report.failed:
        problems.append(f"{report.failed} of {len(cases)} cases failed")
    got = [c["params"] for c in cases]
    if got != params:
        problems.append(f"case parameters differ: got {len(got)} cases, expected {len(params)}")
    return problems


def check_dmatrix(m, reference):
    key = dmatrix_key(m.twoj, m.scheme, m.ring)
    want = reference.get(key)
    if want is None:
        return [f"no reference digest for {key}"]
    if digest(json.dumps(m.to_json())) != want:
        return [f"digest of {key} differs from the reference"]
    return []


def naive_sum(words, ring):
    """Sum of the naive normal forms of the words, as a term dict."""
    out = {}
    for letters in words:
        for exps, c in pbwcheck.naive_normal_form(letters, ring).items():
            s = out.get(exps)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = s
    return out


def check_words(poly, text, words, ring):
    problems = []
    if poly.terms() != naive_sum(words, ring):
        problems.append("normal form differs from the naive rewriter")
    if exprio.parse(text, ring) != poly:
        problems.append("rendered text does not parse back to the normal form")
    return problems


def _cross_scheme(matrices):
    """Problems by dmatrix key from comparing the schemes of one spin."""
    problems = {}
    for (twoj, scheme, ring), m in matrices.items():
        if ring != ncalg.SL or scheme == dfun.ORDERED1:
            continue
        base = matrices.get((twoj, dfun.ORDERED1, ring))
        if base is None:
            continue
        if scheme == dfun.CLASSICAL:
            want = [[p.specialize(h_value=0) for p in row] for row in base.entries]
            what = "ordered1 at h=0"
        else:
            want = base.entries
            what = "ordered1"
        if m.entries != want:
            problems[(twoj, scheme, ring)] = [f"{scheme} differs from {what}"]
    return problems


def _matrices(ops, outcomes):
    """DFunctionMatrix per (twoj, scheme, ring) from the entry ops, and the
    indices of the ops that make each one; a matrix with an entry missing
    (an op that raised) is left out."""
    entries, members = {}, {}
    for i, (op, (status, value)) in enumerate(zip(ops, outcomes)):
        if op.kind == "entry":
            twoj, twomp, twom, scheme, ring = op.key
            members.setdefault((twoj, scheme, ring), []).append(i)
            if status == "ok":
                entries[op.key] = value[0]
    matrices = {}
    for twoj, scheme, ring in members:
        rows = [[entries.get((twoj, mp, m, scheme, ring)) for m in magnetics(twoj)] for mp in magnetics(twoj)]
        if all(p is not None for row in rows for p in row):
            matrices[(twoj, scheme, ring)] = dfun.DFunctionMatrix(twoj, ring, scheme, rows)
    return matrices, members


def gate(ops, outcomes, reference):
    """Failure reasons per op (an empty list when the op holds).

    outcomes[i] is ("ok", result) or ("error", message) for ops[i].  A
    matrix that fails its checks fails every one of its entry ops.
    """
    reasons = []
    for op, (status, value) in zip(ops, outcomes):
        if status != "ok":
            reasons.append([f"raised {value}"])
        elif op.kind == "entry":
            poly, text = value
            reasons.append([] if text == json.dumps(poly.to_json()) else ["rendering is not deterministic"])
        elif op.kind == "words":
            poly, text = value
            reasons.append(check_words(poly, text, *op.key))
        elif op.kind == "report":
            reasons.append(check_report(value, op.key))
        else:
            reasons.append([f"unknown op kind {op.kind!r}"])
    matrices, members = _matrices(ops, outcomes)
    cross = _cross_scheme(matrices)
    for key, m in matrices.items():
        problems = check_dmatrix(m, reference) + cross.get(key, [])
        for i in members[key]:
            reasons[i] += problems
    return reasons


def output_digest(op, status, value):
    """A digest of what an op returned, for comparing runs and passes."""
    if status != "ok":
        return digest("error: " + value)
    if op.kind in ("entry", "words"):
        return digest(value[1])
    return digest(json.dumps(value.to_json()))
