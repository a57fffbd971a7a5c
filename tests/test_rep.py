import pytest

from slh2._rat import Q
from slh2.rep import (
    RepMatrix,
    cgc_classical,
    f_inv_matrix,
    f_matrix,
    j_matrices,
    kron,
    magnetics,
    mho,
    nilpotent_exp,
    omega,
    power_one_minus,
    prod_index,
    r_matrix,
    sigma_matrix,
)
from slh2.scalar import H, ONE, ZERO, RadScalar, rational, sqrt_nat

TWO = RadScalar.from_rational(2)


def test_j_matrices_half():
    j0, jp, jm = j_matrices(1)
    assert j0.rows == [[ONE, ZERO], [ZERO, -ONE]]
    assert jp.rows == [[ZERO, ONE], [ZERO, ZERO]]
    assert jm.rows == [[ZERO, ZERO], [ONE, ZERO]]


def test_j_matrices_spin_zero():
    j0, jp, jm = j_matrices(0)
    assert j0.is_zero() and jp.is_zero() and jm.is_zero()


@pytest.mark.parametrize("twoj", range(7))
def test_commutation_relations(twoj):
    j0, jp, jm = j_matrices(twoj)
    assert (j0 * jp - jp * j0) == jp.scaled(TWO)
    assert (j0 * jm - jm * j0) == jm.scaled(-TWO)
    assert (jp * jm - jm * jp) == j0


def test_sigma_half_is_2h_jplus():
    _, jp, _ = j_matrices(1)
    assert sigma_matrix(1) == jp.scaled(H + H)


def test_sigma_spin_zero():
    assert sigma_matrix(0).is_zero()


def test_sigma_is_minus_log():
    # (1 - 2hJ+) exp(sigma) = 1 at j = 1
    lhs = power_one_minus(2, 1) * nilpotent_exp(sigma_matrix(2))
    assert lhs == RepMatrix.identity(3)


def test_power_one_minus_basics():
    assert power_one_minus(3, 0) == RepMatrix.identity(4)
    _, jp, _ = j_matrices(1)
    assert power_one_minus(1, 1) == RepMatrix.identity(2) - jp.scaled(H + H)


@pytest.mark.parametrize("twoj", range(4))
def test_power_one_minus_square_root(twoj):
    half = power_one_minus(twoj, Q(-1, 2))
    lhs = half * half * power_one_minus(twoj, 1)
    assert lhs == RepMatrix.identity(twoj + 1)


def test_power_one_minus_equals_exp_of_sigma():
    for twoj in range(4):
        for e in (1, -1, Q(1, 2), Q(-3, 2)):
            series = nilpotent_exp(sigma_matrix(twoj).scaled(RadScalar.from_rational(-Q(e))))
            assert power_one_minus(twoj, e) == series


def test_f_matrix_against_direct_exponential():
    # F = exp(-1/2 J0 (x) sigma), recomputed here from the definition
    for twoj1, twoj2 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        j0 = j_matrices(twoj1)[0]
        sig = sigma_matrix(twoj2)
        arg = kron(j0, sig).scaled(rational(-1, 2))
        assert f_matrix(twoj1, twoj2) == nilpotent_exp(arg)
        assert f_inv_matrix(twoj1, twoj2) == nilpotent_exp(arg.scaled(-ONE))


def test_f_half_table():
    # the four closed-form lines of F^{j1,1/2} and its inverse
    for twoj1 in range(5):
        F = f_matrix(twoj1, 1)
        Fi = f_inv_matrix(twoj1, 1)
        for twom1 in magnetics(twoj1):
            for twok1 in magnetics(twoj1):
                for twok2 in (1, -1):
                    got = F.rows[prod_index(twoj1, 1, twok1, twok2)][
                        prod_index(twoj1, 1, twom1, 1)
                    ]
                    assert got == (ONE if (twok1, twok2) == (twom1, 1) else ZERO)
                    got = F.rows[prod_index(twoj1, 1, twok1, twok2)][
                        prod_index(twoj1, 1, twom1, -1)
                    ]
                    if twok1 != twom1:
                        assert got == ZERO
                    else:
                        assert got == (ONE if twok2 == -1 else -H.scaled(Q(twom1)))
                    got = Fi.rows[prod_index(twoj1, 1, twom1, 1)][
                        prod_index(twoj1, 1, twok1, twok2)
                    ]
                    if twok1 != twom1:
                        assert got == ZERO
                    else:
                        assert got == (ONE if twok2 == 1 else H.scaled(Q(twom1)))
                    got = Fi.rows[prod_index(twoj1, 1, twom1, -1)][
                        prod_index(twoj1, 1, twok1, twok2)
                    ]
                    assert got == (ONE if (twok1, twok2) == (twom1, -1) else ZERO)


def test_f_at_h_zero_is_identity():
    for twoj1, twoj2 in ((1, 1), (2, 3), (3, 2)):
        n = (twoj1 + 1) * (twoj2 + 1)
        assert f_matrix(twoj1, twoj2).specialize(h_value=0) == RepMatrix.identity(n)


@pytest.mark.parametrize("twoj1", range(5))
@pytest.mark.parametrize("twoj2", range(5))
def test_f_times_f_inverse(twoj1, twoj2):
    n = (twoj1 + 1) * (twoj2 + 1)
    assert f_matrix(twoj1, twoj2) * f_inv_matrix(twoj1, twoj2) == RepMatrix.identity(n)


def test_f_negation_symmetry():
    # (F)^{-s1,-s2}_{-m1,-m2} = (F^{-1})^{m1,m2}_{s1,s2} for 2j <= 3
    for twoj1 in range(4):
        for twoj2 in range(4):
            F = f_matrix(twoj1, twoj2)
            Fi = f_inv_matrix(twoj1, twoj2)
            for m1 in magnetics(twoj1):
                for m2 in magnetics(twoj2):
                    for s1 in magnetics(twoj1):
                        for s2 in magnetics(twoj2):
                            lhs = F.rows[prod_index(twoj1, twoj2, -m1, -m2)][
                                prod_index(twoj1, twoj2, -s1, -s2)
                            ]
                            rhs = Fi.rows[prod_index(twoj1, twoj2, s1, s2)][
                                prod_index(twoj1, twoj2, m1, m2)
                            ]
                            assert lhs == rhs


def test_r_matrix_half_half():
    R = r_matrix(1, 1)
    H2 = H * H
    assert R.rows == [
        [ONE, H, -H, H2],
        [ZERO, ONE, ZERO, H],
        [ZERO, ZERO, ONE, -H],
        [ZERO, ZERO, ZERO, ONE],
    ]


def test_r_at_h_zero():
    assert r_matrix(2, 1).specialize(h_value=0) == RepMatrix.identity(6)


def test_r21_r_is_identity():
    R = r_matrix(1, 1)
    flip = RepMatrix.zeros(4)
    perm = {0: 0, 1: 2, 2: 1, 3: 3}
    for i, j in perm.items():
        flip.rows[i][j] = ONE
    R21 = flip * R * flip
    assert R21 * R == RepMatrix.identity(4)


def test_quantum_yang_baxter():
    R = r_matrix(1, 1)
    I2 = RepMatrix.identity(2)
    swap = RepMatrix.zeros(4)
    for a in range(2):
        for b in range(2):
            swap.rows[a * 2 + b][b * 2 + a] = ONE
    R12 = kron(R, I2)
    R23 = kron(I2, R)
    P23 = kron(I2, swap)
    R13 = P23 * R12 * P23
    assert R12 * R13 * R23 == R23 * R13 * R12


# ---------------------------------------------------------------------
# classical CGC: spot values plus the defining-property oracle
# ---------------------------------------------------------------------


def test_cgc_stretched():
    assert cgc_classical(1, 1, 2).get((1, 1, 2), ZERO) == ONE


def test_cgc_singlet():
    t = cgc_classical(1, 1, 0)
    r = sqrt_nat(2).scaled(Q(1, 2))
    assert t.get((1, -1, 0), ZERO) == r
    assert t.get((-1, 1, 0), ZERO) == -r


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
            assert t.get((twos, -twos, 0), ZERO) == want


def test_cgc_negation_symmetry():
    for (a, b, c) in ((1, 1, 2), (1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 2, 1)):
        t = cgc_classical(a, b, c)
        sign = -1 if ((a + b - c) // 2) % 2 else 1
        for (m1, m2, m), val in t.items():
            assert t.get((-m1, -m2, -m), ZERO) == (val if sign > 0 else -val)


def _coupled_vector(table, twoj1, twoj2, twom):
    """|(j1 j2) j m> as a RadScalar vector over the product basis."""
    n = (twoj1 + 1) * (twoj2 + 1)
    vec = [ZERO] * n
    for m1 in magnetics(twoj1):
        for m2 in magnetics(twoj2):
            c = table.get((m1, m2, twom), ZERO)
            if not c.is_zero():
                vec[prod_index(twoj1, twoj2, m1, m2)] = c
    return vec


def _apply(mat, vec):
    return [
        sum((a * v for a, v in zip(row, vec) if not a.is_zero()), ZERO)
        for row in mat.rows
    ]


def test_cgc_defining_properties():
    """Highest weight, lowering consistency, orthonormality, CS phase.

    These four properties characterize the CGC uniquely, so together they
    are an independent oracle for the closed-form sum (they never consult
    it, only the product-representation matrices).
    """
    for twoj1, twoj2 in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        n2 = twoj2 + 1
        jp = kron(j_matrices(twoj1)[1], RepMatrix.identity(n2)) + kron(
            RepMatrix.identity(twoj1 + 1), j_matrices(twoj2)[1]
        )
        jm = kron(j_matrices(twoj1)[2], RepMatrix.identity(n2)) + kron(
            RepMatrix.identity(twoj1 + 1), j_matrices(twoj2)[2]
        )
        tables = {
            twoj: cgc_classical(twoj1, twoj2, twoj)
            for twoj in range(abs(twoj1 - twoj2), twoj1 + twoj2 + 2, 2)
        }
        for twoj, t in tables.items():
            top = _coupled_vector(t, twoj1, twoj2, twoj)
            # highest weight state is annihilated by J+
            assert all(c.is_zero() for c in _apply(jp, top))
            # Condon-Shortley: the m1 = j1 component of the top state is > 0
            lead = t.get((twoj1, twoj - twoj1, twoj), ZERO)
            terms = list(lead.terms())
            assert len(terms) == 1 and terms[0][2] > 0
            # lowering: J- |j m> = sqrt((j+m)(j-m+1)) |j m-1>
            for twom in magnetics(twoj):
                if twom == -twoj:
                    continue
                got = _apply(jm, _coupled_vector(t, twoj1, twoj2, twom))
                amp = sqrt_nat((twoj + twom) * (twoj - twom + 2) // 4)
                want = [
                    amp * c
                    for c in _coupled_vector(t, twoj1, twoj2, twom - 2)
                ]
                assert got == want
        # orthonormality across all (j, m), (j', m')
        vecs = {
            (twoj, twom): _coupled_vector(tables[twoj], twoj1, twoj2, twom)
            for twoj in tables
            for twom in magnetics(twoj)
        }
        keys = sorted(vecs)
        for i, k1 in enumerate(keys):
            for k2 in keys[i:]:
                dot = sum(
                    (a * b for a, b in zip(vecs[k1], vecs[k2])), ZERO
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
    assert omega(1, 1, 2).get((1, 1, 2), ZERO) == ONE


def test_mho_is_omega_negated():
    for (a, b, c) in ((1, 1, 0), (2, 1, 1)):
        om, mh = omega(a, b, c), mho(a, b, c)
        sign = -1 if ((a + b - c) // 2) % 2 else 1
        seen = {k for k, _ in om.items()} | {k for k, _ in mh.items()}
        for (m1, m2, m) in seen:
            want = om.get((-m1, -m2, -m), ZERO)
            assert mh.get((m1, m2, m), ZERO) == (want if sign > 0 else -want)


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
                        for m1 in magnetics(a):
                            for m2 in magnetics(b):
                                acc = acc + mh.get((m1, m2, m), ZERO) * om.get((m1, m2, mp), ZERO)
                        want = ONE if (j1 == j2 and m == mp) else ZERO
                        assert acc == want


def test_omega_selection_rule():
    # the twist only raises the second slot, so entries need m1 + m2 >= m
    om = omega(2, 2, 2)
    for (m1, m2, m), _ in om.items():
        assert m1 + m2 >= m


@pytest.mark.parametrize("build", [f_matrix, f_inv_matrix, r_matrix])
def test_twist_and_r_reject_negative_spin(build):
    with pytest.raises(ValueError):
        build(-2, 1)
    with pytest.raises(ValueError):
        build(1, -1)
