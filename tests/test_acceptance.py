"""Acceptance criteria, one test per criterion.

Every check is exact symbolic equality (zero tolerance).  Each test
prints a single line so the suite doubles as a human-readable scorecard:
run `pytest tests/test_acceptance.py -v -s`.
"""

import time
from math import comb

from slh2 import fock, hopfcheck, pbwcheck
from slh2._rat import Q
from slh2.dfun import JACOBI, ORDERED1, ORDERED2, dfunc, dmatrix
from slh2.exprio import parse
from slh2.ncalg import GL, SL, NCPoly, gen, quantum_determinant
from slh2.rep import (
    f_inv_matrix,
    f_matrix,
    magnetics,
    matmul,
    mho,
    omega,
    pair_basis,
    r_matrix,
)
from slh2.scalar import H, ONE, ZERO


def _report(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_generator_matrix():
    t0 = time.time()
    d = dmatrix(1, ORDERED1, SL)
    want = [["x", "u"], ["v", "y"]]
    ok = all(
        d.entries[i][j] == parse(want[i][j], SL) for i in range(2) for j in range(2)
    )
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0, f"spin-1/2 matrix is [[x,u],[v,y]] ({elapsed:.3f}s)")


def test_criterion_02_spin_one_regression():
    t0 = time.time()
    want = [
        ["x^2 + h*x*v", "sqrt(2)*(u*x + h*u*v)", "u^2 + h*(u*x + u*y + h*u*v)"],
        ["sqrt(2)*x*v", "1 + 2*u*v", "sqrt(2)*(u*y + h*u*v)"],
        ["v^2", "sqrt(2)*y*v", "y^2 + h*y*v"],
    ]
    d = dmatrix(2, ORDERED1, SL)
    ok = all(
        d.entries[i][j] == parse(want[i][j], SL) for i in range(3) for j in range(3)
    )
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 1.0, f"spin-1 matrix matches the closed display ({elapsed:.3f}s)")


def test_criterion_03_scheme_equivalence():
    ok = True
    for twoj in range(7):
        for ring in (SL, GL):
            if dmatrix(twoj, ORDERED1, ring).entries != dmatrix(twoj, ORDERED2, ring).entries:
                ok = False
    for twoj in range(9):
        if dmatrix(twoj, ORDERED1, SL).entries != dmatrix(twoj, JACOBI, SL).entries:
            ok = False
    _report(3, ok, "ordered1 = ordered2 for 2j<=6 and = jacobi form for 2j<=8")


def test_criterion_04_corepresentation():
    ok = True
    for twoj in range(5):
        for scheme in (ORDERED1, ORDERED2):
            if not hopfcheck.check_corep(twoj, scheme, SL).ok:
                ok = False
    _report(4, ok, "coproduct and counit laws for 2j<=4, both ordered schemes")


def test_criterion_05_recurrences():
    ok = True
    for twoj in range(1, 6):
        for which in hopfcheck.RECURRENCES:
            if not hopfcheck.recurrence_check(which, twoj, SL).ok:
                ok = False
    _report(5, ok, "all eight recurrence relations for 2j<=5")


def test_criterion_06_product_law():
    ok = True
    for a, b in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)):
        for twoj in range(abs(a - b), a + b + 2, 2):
            if not hopfcheck.wigner_check(a, b, twoj, SL).ok:
                ok = False
    _report(
        6, ok, "product law and corollaries for (2j1,2j2) in {(1,1),(1,2),(2,2),(1,3),(2,3),(3,3)}"
    )


def test_criterion_07_rtt():
    ok = True
    for a, b in ((1, 1), (1, 2), (2, 2)):
        if not hopfcheck.rtt_check(a, b, SL).ok:
            ok = False
    if not hopfcheck.rtt_frt_check().ok:
        ok = False
    _report(7, ok, "RTT relations; at (1/2,1/2) they span exactly the six defining relations")


def test_criterion_08_orthogonality_like():
    ok = True
    for twoj in range(4):
        if not hopfcheck.ortho_like_check(twoj, SL).ok:
            ok = False
    # h = 0 reduction: classical row orthogonality of the D-matrix
    for twoj in range(4):
        for twok1 in magnetics(twoj):
            for twok2 in magnetics(twoj):
                acc = NCPoly.zero(SL)
                for twom in magnetics(twoj):
                    sign = -1 if ((twok1 - twom) // 2) % 2 else 1
                    d1 = dfunc(twoj, twok1, twom, ORDERED1, SL)
                    d2 = dfunc(twoj, twok2, -twom, ORDERED1, SL)
                    acc = acc + (d1 * d2).scaled(ONE.scaled(Q(sign)))
                want = NCPoly.one(SL) if twok2 == -twok1 else NCPoly.zero(SL)
                if acc.specialize(h_value=0) != want:
                    ok = False
    _report(8, ok, "orthogonality-like relations for 2j<=3, classical at h=0")


def test_criterion_09_rewrite_engine():
    ok = pbwcheck.confluence_check(maxlen=4).ok
    rules = pbwcheck.int_rules(GL)
    for n in range(7):
        if pbwcheck.irreducible_count(n, rules) != comb(n + 3, 3):
            ok = False
    d = quantum_determinant(GL)
    for name in "vxyu":
        g = gen(name, GL)
        if not (d * g - g * d).is_zero():
            ok = False
    if quantum_determinant(SL) != NCPoly.one(SL):
        ok = False
    _report(9, ok, "confluence to length 4 (both rings), PBW counts, central determinant")


def test_criterion_10_fock_oracle():
    ok = fock.relations_check(4).ok
    ok = ok and fock.two_parameter_check(3).ok
    ok = ok and fock.determinant_check(4).ok
    ok = ok and fock.homomorphism_check(nmax=4, words=200, maxlen=4).ok
    ok = ok and fock.twisted_dop_check(2, 3).ok
    _report(10, ok, "boson oracle: relations, two-parameter ring, 200-word homomorphism, closed form")


def test_criterion_11_representation_layer():
    ok = True
    # the four closed-form lines of F^{j1,1/2} for 2j1 <= 4
    for twoj1 in range(5):
        F = f_matrix(twoj1, 1)
        Fi = f_inv_matrix(twoj1, 1)
        for twom1 in magnetics(twoj1):
            col_p, col_m = (twom1, 1), (twom1, -1)
            for twok1 in magnetics(twoj1):
                for twok2 in (1, -1):
                    row = (twok1, twok2)
                    if F.get((row, col_p), ZERO) != (ONE if row == col_p else ZERO):
                        ok = False
                    want = ZERO
                    if twok1 == twom1:
                        want = ONE if twok2 == -1 else -H.scaled(Q(twom1))
                    if F.get((row, col_m), ZERO) != want:
                        ok = False
                    want = ZERO
                    if twok1 == twom1:
                        want = ONE if twok2 == 1 else H.scaled(Q(twom1))
                    if Fi.get((col_p, row), ZERO) != want:
                        ok = False
                    if Fi.get((col_m, row), ZERO) != (ONE if row == col_m else ZERO):
                        ok = False
    # negation symmetry for 2j <= 3
    for twoj1 in range(4):
        for twoj2 in range(4):
            F = f_matrix(twoj1, twoj2)
            Fi = f_inv_matrix(twoj1, twoj2)
            basis = pair_basis(twoj1, twoj2)
            for m1, m2 in basis:
                for s1, s2 in basis:
                    if F.get(((-m1, -m2), (-s1, -s2)), ZERO) != Fi.get(((s1, s2), (m1, m2)), ZERO):
                        ok = False
    # R21 R = 1 and the Yang-Baxter equation at spin 1/2
    R = r_matrix(1, 1)
    R21 = {(r[::-1], c[::-1]): v for (r, c), v in R.items()}
    if matmul(R21, R) != {(b, b): ONE for b in pair_basis(1, 1)}:
        ok = False
    R12 = {((a, b, c), (d, e, c)): v for ((a, b), (d, e)), v in R.items() for c in (1, -1)}
    R23 = {((c, a, b), (c, d, e)): v for ((a, b), (d, e)), v in R.items() for c in (1, -1)}
    R13 = {((a, c, b), (d, c, e)): v for ((a, b), (d, e)), v in R.items() for c in (1, -1)}
    if matmul(matmul(R12, R13), R23) != matmul(matmul(R23, R13), R12):
        ok = False
    # CGC biorthogonality for 2j1, 2j2 <= 3
    for a in range(4):
        for b in range(4):
            spins = list(range(abs(a - b), a + b + 2, 2))
            for j1 in spins:
                for j2 in spins:
                    mht, omt = mho(a, b, j1), omega(a, b, j2)
                    for m in magnetics(j1):
                        for mp in magnetics(j2):
                            acc = ZERO
                            for pair in pair_basis(a, b):
                                acc = acc + mht.get((pair, m), ZERO) * omt.get((pair, mp), ZERO)
                            want = ONE if (j1 == j2 and m == mp) else ZERO
                            if acc != want:
                                ok = False
    _report(11, ok, "twist tables, F symmetry, R-matrix laws, CGC biorthogonality")
