import pytest

from slh2._rat import Q
from slh2.rep import (
    cgc_classical,
    f_inv_matrix,
    f_matrix,
    magnetics,
    matmul,
    mho,
    omega,
    pair_basis,
    power_one_minus,
    r_matrix,
    triangle,
    triangle_ok,
)
from slh2.scalar import H, ONE, ZERO, RadScalar, rational, sqrt_nat

TWO = RadScalar.from_rational(2)


# ---------------------------------------------------------------------
# oracles: the spin matrices, sigma, the nilpotent exponential and the
# Kronecker product from their definitions, on the dict format of rep
# {(row, col): c} with zeros left out
# ---------------------------------------------------------------------


def _clean(m):
    return {k: c for k, c in m.items() if c}


def _add(a, b):
    return _clean({k: a.get(k, ZERO) + b.get(k, ZERO) for k in a.keys() | b.keys()})


def _scaled(m, c):
    return _clean({k: c * a for k, a in m.items()})


def _identity(basis):
    return {(b, b): ONE for b in basis}


def _specialize(m, h_value):
    return _clean({k: a.specialize(h_value) for k, a in m.items()})


def _j_matrices(twoj):
    """(J0, J+, J-) of the spin-twoj/2 irrep, exact."""
    j0, jp, jm = {}, {}, {}
    for twom in magnetics(twoj):
        if twom:
            j0[(twom, twom)] = RadScalar.from_rational(twom)
        if twom < twoj:
            jp[(twom + 2, twom)] = sqrt_nat((twoj - twom) * (twoj + twom + 2) // 4)
        if twom > -twoj:
            jm[(twom - 2, twom)] = sqrt_nat((twoj + twom) * (twoj - twom + 2) // 4)
    return j0, jp, jm


def _sigma(twoj):
    """sigma = -ln(1 - 2h J+) = sum_{k>=1} (2h J+)^k / k, a finite sum."""
    step = _scaled(_j_matrices(twoj)[1], H + H)
    out, power = {}, step
    for k in range(1, twoj + 1):
        out = _add(out, _scaled(power, rational(1, k)))
        power = matmul(power, step)
    return out


def _exp(m, basis):
    """exp of a nilpotent matrix, summed until the power vanishes."""
    out, term = _identity(basis), _identity(basis)
    for k in range(1, len(basis) + 1):
        term = _scaled(matmul(term, m), rational(1, k))
        if not term:
            return out
        out = _add(out, term)
    raise ArithmeticError("matrix is not nilpotent")


def _kron(a, b):
    """a (x) b on the product basis, keys ((a row, b row), (a col, b col))."""
    return _clean({
        ((ra, rb), (ca, cb)): x * y
        for (ra, ca), x in a.items()
        for (rb, cb), y in b.items()
    })


def _dense(m, basis):
    return [[m.get((r, c), ZERO) for c in basis] for r in basis]


def _swapped(m):
    """M21: the two slots of a product-basis matrix exchanged."""
    return {(r[::-1], c[::-1]): a for (r, c), a in m.items()}


def test_j_matrices_half():
    j0, jp, jm = _j_matrices(1)
    basis = list(magnetics(1))
    assert _dense(j0, basis) == [[ONE, ZERO], [ZERO, -ONE]]
    assert _dense(jp, basis) == [[ZERO, ONE], [ZERO, ZERO]]
    assert _dense(jm, basis) == [[ZERO, ZERO], [ONE, ZERO]]


def test_j_matrices_spin_zero():
    assert _j_matrices(0) == ({}, {}, {})


@pytest.mark.parametrize("twoj", range(7))
def test_commutation_relations(twoj):
    j0, jp, jm = _j_matrices(twoj)

    def comm(a, b):
        return _add(matmul(a, b), _scaled(matmul(b, a), -ONE))

    assert comm(j0, jp) == _scaled(jp, TWO)
    assert comm(j0, jm) == _scaled(jm, -TWO)
    assert comm(jp, jm) == j0


def test_sigma_half_is_2h_jplus():
    assert _sigma(1) == _scaled(_j_matrices(1)[1], H + H)


def test_sigma_spin_zero():
    assert _sigma(0) == {}


def test_sigma_is_minus_log():
    # (1 - 2hJ+) exp(sigma) = 1 at j = 1
    basis = list(magnetics(2))
    assert matmul(power_one_minus(2, 1), _exp(_sigma(2), basis)) == _identity(basis)


def test_power_one_minus_basics():
    assert power_one_minus(3, 0) == _identity(magnetics(3))
    jp = _j_matrices(1)[1]
    assert power_one_minus(1, 1) == _add(_identity(magnetics(1)), _scaled(jp, -(H + H)))


@pytest.mark.parametrize("twoj", range(4))
def test_power_one_minus_square_root(twoj):
    half = power_one_minus(twoj, Q(-1, 2))
    lhs = matmul(matmul(half, half), power_one_minus(twoj, 1))
    assert lhs == _identity(magnetics(twoj))


def test_power_one_minus_equals_exp_of_sigma():
    for twoj in range(9):
        basis = list(magnetics(twoj))
        for e in (1, -1, Q(1, 2), Q(-3, 2), Q(-5, 2), 2, -3):
            series = _exp(_scaled(_sigma(twoj), RadScalar.from_rational(-Q(e))), basis)
            assert power_one_minus(twoj, e) == series


def test_f_matrix_against_direct_exponential():
    # F = exp(-1/2 J0 (x) sigma), recomputed here from the definition
    for twoj1, twoj2 in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3), (4, 2)):
        basis = pair_basis(twoj1, twoj2)
        arg = _scaled(_kron(_j_matrices(twoj1)[0], _sigma(twoj2)), rational(-1, 2))
        assert f_matrix(twoj1, twoj2) == _exp(arg, basis)
        assert f_inv_matrix(twoj1, twoj2) == _exp(_scaled(arg, -ONE), basis)


def test_f_half_table():
    # the four closed-form lines of F^{j1,1/2} and its inverse
    for twoj1 in range(5):
        F = f_matrix(twoj1, 1)
        Fi = f_inv_matrix(twoj1, 1)
        for twom1 in magnetics(twoj1):
            for twok1 in magnetics(twoj1):
                for twok2 in (1, -1):
                    got = F.get(((twok1, twok2), (twom1, 1)), ZERO)
                    assert got == (ONE if (twok1, twok2) == (twom1, 1) else ZERO)
                    got = F.get(((twok1, twok2), (twom1, -1)), ZERO)
                    if twok1 != twom1:
                        assert got == ZERO
                    else:
                        assert got == (ONE if twok2 == -1 else -H.scaled(Q(twom1)))
                    got = Fi.get(((twom1, 1), (twok1, twok2)), ZERO)
                    if twok1 != twom1:
                        assert got == ZERO
                    else:
                        assert got == (ONE if twok2 == 1 else H.scaled(Q(twom1)))
                    got = Fi.get(((twom1, -1), (twok1, twok2)), ZERO)
                    assert got == (ONE if (twok1, twok2) == (twom1, -1) else ZERO)


def test_f_at_h_zero_is_identity():
    for twoj1, twoj2 in ((1, 1), (2, 3), (3, 2)):
        basis = pair_basis(twoj1, twoj2)
        assert _specialize(f_matrix(twoj1, twoj2), 0) == _identity(basis)


@pytest.mark.parametrize("twoj1", range(5))
@pytest.mark.parametrize("twoj2", range(5))
def test_f_times_f_inverse(twoj1, twoj2):
    basis = pair_basis(twoj1, twoj2)
    assert matmul(f_matrix(twoj1, twoj2), f_inv_matrix(twoj1, twoj2)) == _identity(basis)


def test_f_negation_symmetry():
    # (F)^{-s1,-s2}_{-m1,-m2} = (F^{-1})^{m1,m2}_{s1,s2} for 2j <= 3
    for twoj1 in range(4):
        for twoj2 in range(4):
            F = f_matrix(twoj1, twoj2)
            Fi = f_inv_matrix(twoj1, twoj2)
            basis = pair_basis(twoj1, twoj2)
            for m1, m2 in basis:
                for s1, s2 in basis:
                    lhs = F.get(((-m1, -m2), (-s1, -s2)), ZERO)
                    rhs = Fi.get(((s1, s2), (m1, m2)), ZERO)
                    assert lhs == rhs


def test_r_matrix_half_half():
    R = r_matrix(1, 1)
    H2 = H * H
    assert _dense(R, pair_basis(1, 1)) == [
        [ONE, H, -H, H2],
        [ZERO, ONE, ZERO, H],
        [ZERO, ZERO, ONE, -H],
        [ZERO, ZERO, ZERO, ONE],
    ]


def test_r_at_h_zero():
    assert _specialize(r_matrix(2, 1), 0) == _identity(pair_basis(2, 1))


def test_r21_r_is_identity():
    R = r_matrix(1, 1)
    assert matmul(_swapped(R), R) == _identity(pair_basis(1, 1))


def test_quantum_yang_baxter():
    R = r_matrix(1, 1)
    halves = (1, -1)
    # R_ij acts on slots i and j of three spin-1/2 slots
    R12 = {((a, b, c), (d, e, c)): v for ((a, b), (d, e)), v in R.items() for c in halves}
    R23 = {((c, a, b), (c, d, e)): v for ((a, b), (d, e)), v in R.items() for c in halves}
    R13 = {((a, c, b), (d, c, e)): v for ((a, b), (d, e)), v in R.items() for c in halves}
    assert matmul(matmul(R12, R13), R23) == matmul(matmul(R23, R13), R12)


# ---------------------------------------------------------------------
# classical CGC: spot values plus the defining-property oracle
# ---------------------------------------------------------------------


def test_cgc_stretched():
    assert cgc_classical(1, 1, 2).get(((1, 1), 2), ZERO) == ONE


def test_cgc_singlet():
    t = cgc_classical(1, 1, 0)
    r = sqrt_nat(2).scaled(Q(1, 2))
    assert t.get(((1, -1), 0), ZERO) == r
    assert t.get(((-1, 1), 0), ZERO) == -r


def test_triangle_lists_the_coupled_spins():
    for twoj1 in range(4):
        for twoj2 in range(4):
            want = [twoj for twoj in range(9) if triangle_ok(twoj1, twoj2, twoj)]
            assert list(triangle(twoj1, twoj2)) == want


def test_cgc_triangle_violation():
    with pytest.raises(ValueError):
        cgc_classical(1, 1, 4)
    with pytest.raises(ValueError):
        cgc_classical(1, 1, 1)  # parity violation


def test_cgc_singlet_closed_form():
    # C^{j,j,0}_{s,-s,0} = (-1)^{j-s} / sqrt(2j+1), the input to the
    # orthogonality-like relations
    for twoj in range(4):
        t = cgc_classical(twoj, twoj, 0)
        root = sqrt_nat(twoj + 1).scaled(Q(1, twoj + 1))  # 1/sqrt(2j+1)
        for twos in magnetics(twoj):
            want = root if ((twoj - twos) // 2) % 2 == 0 else -root
            assert t.get(((twos, -twos), 0), ZERO) == want


def test_cgc_negation_symmetry():
    for (a, b, c) in ((1, 1, 2), (1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 2, 1)):
        t = cgc_classical(a, b, c)
        sign = -1 if ((a + b - c) // 2) % 2 else 1
        for ((m1, m2), m), val in t.items():
            assert t.get(((-m1, -m2), -m), ZERO) == (val if sign > 0 else -val)


def _coupled_vector(table, twom):
    """|(j1 j2) j m> as a vector {(m1, m2): c} over the product basis."""
    return {pair: c for (pair, m), c in table.items() if m == twom}


def _apply(mat, vec):
    out = {}
    for (row, col), a in mat.items():
        if col in vec:
            out[row] = out.get(row, ZERO) + a * vec[col]
    return _clean(out)


def test_cgc_defining_properties():
    """Highest weight, lowering consistency, orthonormality, CS phase.

    These four properties characterize the CGC uniquely, so together they
    are an independent oracle for the closed-form sum (they never consult
    it, only the product-representation matrices).
    """
    for twoj1, twoj2 in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        one1, one2 = _identity(magnetics(twoj1)), _identity(magnetics(twoj2))
        _, jp1, jm1 = _j_matrices(twoj1)
        _, jp2, jm2 = _j_matrices(twoj2)
        jp = _add(_kron(jp1, one2), _kron(one1, jp2))
        jm = _add(_kron(jm1, one2), _kron(one1, jm2))
        tables = {
            twoj: cgc_classical(twoj1, twoj2, twoj)
            for twoj in range(abs(twoj1 - twoj2), twoj1 + twoj2 + 2, 2)
        }
        for twoj, t in tables.items():
            top = _coupled_vector(t, twoj)
            # highest weight state is annihilated by J+
            assert _apply(jp, top) == {}
            # Condon-Shortley: the m1 = j1 component of the top state is > 0
            lead = t.get(((twoj1, twoj - twoj1), twoj), ZERO)
            terms = list(lead.terms())
            assert len(terms) == 1 and terms[0][2] > 0
            # lowering: J- |j m> = sqrt((j+m)(j-m+1)) |j m-1>
            for twom in magnetics(twoj):
                if twom == -twoj:
                    continue
                got = _apply(jm, _coupled_vector(t, twom))
                amp = sqrt_nat((twoj + twom) * (twoj - twom + 2) // 4)
                assert got == _scaled(_coupled_vector(t, twom - 2), amp)
        # orthonormality across all (j, m), (j', m')
        vecs = {
            (twoj, twom): _coupled_vector(tables[twoj], twom)
            for twoj in tables
            for twom in magnetics(twoj)
        }
        keys = sorted(vecs)
        for i, k1 in enumerate(keys):
            for k2 in keys[i:]:
                dot = sum(
                    (a * vecs[k2].get(pair, ZERO) for pair, a in vecs[k1].items()), ZERO
                )
                assert dot == (ONE if k1 == k2 else ZERO)


# ---------------------------------------------------------------------
# twisted CGC
# ---------------------------------------------------------------------


def test_omega_mho_classical_limit():
    for (a, b, c) in ((1, 1, 2), (1, 1, 0), (2, 1, 1), (2, 2, 2)):
        t = cgc_classical(a, b, c)
        om = omega(a, b, c)
        mh = mho(a, b, c)
        keys = set()
        for table in (t, om, mh):
            keys |= {k for k, _ in table.items()}
        for k in keys:
            cl = t.get(k, ZERO)
            assert om.get(k, ZERO).specialize(h_value=0) == cl
            assert mh.get(k, ZERO).specialize(h_value=0) == cl


def test_omega_stretched():
    assert omega(1, 1, 2).get(((1, 1), 2), ZERO) == ONE


def test_mho_is_omega_negated():
    # mho[(m1, m2), m] = (-1)^(j1+j2-j) omega[(-m1, -m2), -m] on every
    # triple with 2j1, 2j2 <= 8: the premise of the sigma-partner sums of
    # the product law's rel2 and rel3
    triples = [(a, b, c) for a in range(9) for b in range(9) for c in triangle(a, b)]
    assert len(triples) == 285
    for (a, b, c) in triples:
        om, mh = omega(a, b, c), mho(a, b, c)
        sign = -1 if ((a + b - c) // 2) % 2 else 1
        seen = {k for k, _ in om.items()} | {k for k, _ in mh.items()}
        for (m1, m2), m in seen:
            want = om.get(((-m1, -m2), -m), ZERO)
            assert mh.get(((m1, m2), m), ZERO) == (want if sign > 0 else -want)


def test_inverse_twist_diagonal_is_the_twist_diagonal_negated():
    # F^-1[(b1, -b1), (b1, b2)] = F[(-b1, -b2), (-b1, b1)] for 2j <= 8,
    # zeros included: the premise of the sigma-partner sums of ortho2
    for twoj in range(9):
        f, f_inv = f_matrix(twoj, twoj), f_inv_matrix(twoj, twoj)
        nonzero = 0
        for b1, b2 in pair_basis(twoj, twoj):
            want = f.get(((-b1, -b2), (-b1, b1)), ZERO)
            assert f_inv.get(((b1, -b1), (b1, b2)), ZERO) == want
            nonzero += not want.is_zero()
        # the 2j + 1 ones at b2 = -b1, and powers of h beyond them
        assert nonzero > twoj + 1 if twoj else nonzero == 1


def test_biorthogonality():
    # every pair up to (3/2, 3/2), (1/2, j2) for 2j2 = 4..9, and (j1, 1/2)
    # for 2j1 = 4..9, the pairs whose tables the recurrences read
    pairs = [(a, b) for a in range(4) for b in range(4)]
    pairs += [(1, b) for b in range(4, 10)] + [(b, 1) for b in range(4, 10)]
    for a, b in pairs:
        spins = list(range(abs(a - b), a + b + 2, 2))
        for j1 in spins:
            for j2 in spins:
                mh, om = mho(a, b, j1), omega(a, b, j2)
                for m in magnetics(j1):
                    for mp in magnetics(j2):
                        acc = ZERO
                        for pair in pair_basis(a, b):
                            acc = acc + mh.get((pair, m), ZERO) * om.get((pair, mp), ZERO)
                        want = ONE if (j1 == j2 and m == mp) else ZERO
                        assert acc == want


def test_omega_selection_rule():
    # the twist only raises the second slot, so entries need m1 + m2 >= m
    om = omega(2, 2, 2)
    for ((m1, m2), m), _ in om.items():
        assert m1 + m2 >= m


_TABLES = [
    (power_one_minus, (3, Q(1, 2)), magnetics(3), magnetics(3)),
    (f_matrix, (2, 3), pair_basis(2, 3), pair_basis(2, 3)),
    (f_inv_matrix, (2, 3), pair_basis(2, 3), pair_basis(2, 3)),
    (r_matrix, (2, 3), pair_basis(2, 3), pair_basis(2, 3)),
    (cgc_classical, (2, 3, 3), pair_basis(2, 3), magnetics(3)),
    (omega, (2, 3, 3), pair_basis(2, 3), magnetics(3)),
    (mho, (2, 3, 3), pair_basis(2, 3), magnetics(3)),
]


@pytest.mark.parametrize(
    "build, args, row_basis, col_basis", _TABLES, ids=[spec[0].__name__ for spec in _TABLES]
)
def test_every_table_is_a_sparse_matrix(build, args, row_basis, col_basis):
    # one format for every table: {(row, col): RadScalar}, zeros left out
    table = build(*args)
    assert table
    for (row, col), c in table.items():
        assert row in row_basis and col in col_basis
        assert type(c) is RadScalar and not c.is_zero()


@pytest.mark.parametrize("build", [f_matrix, f_inv_matrix, r_matrix])
def test_twist_and_r_reject_negative_spin(build):
    with pytest.raises(ValueError):
        build(-2, 1)
    with pytest.raises(ValueError):
        build(1, -1)
