"""Acceptance suite: the release gate, one test per criterion.

Each test prints a single PASS line on success (pytest -s shows them); the
assertions are exact, with no numerical tolerances anywhere: every comparison
is between Laurent polynomials or integers.

These are the heavyweight exhaustive runs (total sites up to 8 for the
enumeration criteria and up to 10 for the eigenvector criterion); the
fine-grained unit tests live in the per-module files.
"""

from itertools import product

import pytest

from coidealbasis import ballot, hecke
from coidealbasis.basis import (
    build_diagram,
    hearts_into_spades,
    r_lower_hecke,
    r_upper_ballot,
    r_upper_hecke,
    r_upper_spade,
    spade_vectors,
    club_vectors,
    tensor_into_spades,
)
from coidealbasis.coideal import (
    bishop_sequence,
    closed_form_data,
    component_sum_at_one,
    pell_sum_value,
    psi_solve,
    spectrum,
    strip_blocks,
    sum_table,
    y_matrix,
    y_on_diagram,
)
from coidealbasis.laurent import (
    LaurentPoly,
    ONE,
    RationalFn,
    ZERO,
    quantum_int,
    telescoping_identity_one,
    telescoping_identity_two,
    two_cosh,
)
from coidealbasis.paths import Shape, all_shapes, compositions, eta, is_below, parse_path
from coidealbasis.quantum import TensorVector, act_y, psi_iota


def t_pows(*exps):
    out = LaurentPoly()
    for e in exps:
        out = out + LaurentPoly.t_power(e)
    return out


def test_criterion_1_reference_generating_functions():
    """The two displayed strip generating functions, exactly."""
    q1 = ballot.q_polynomial(parse_path("--++-+"), parse_path("++++++"), "I", "-")
    assert q1 == t_pows(-13, -11, -9, -9, -5)
    q2 = ballot.q_polynomial(
        parse_path("-+-+-+-+"), parse_path("++++++--"), "II", "-", Shape((2, 2, 2, 2))
    )
    assert q2 == t_pows(-3, -5)
    print("ACCEPT-01 PASS: reference strip generating functions reproduced exactly")


def test_criterion_2_inversion_exhaustive():
    """Rule I against Rule II inversion for every shape with <= 8 sites."""
    pairs = 0
    for shape in all_shapes(8):
        rep = ballot.verify_inversion(shape)
        assert rep.ok, (shape.m, rep.failures[:3])
        pairs += rep.pairs_checked
    print(f"ACCEPT-02 PASS: strip-rule inversion exact on {pairs} path pairs, <= 8 sites")


def test_criterion_3_transition_matrix_routes():
    """Ballot-route transition matrices equal the KL-oracle routes, <= 8 sites."""
    checked = 0
    for shape in all_shapes(8):
        idx = shape.indices()
        lower_kl = r_lower_hecke(shape)
        upper_ballot = r_upper_ballot(shape)
        upper_kl = r_upper_hecke(shape)
        mod = hecke.module(shape.total, "+")
        for r in idx:
            for c in idx:
                assert upper_ballot.entry(r, c) == upper_kl.entry(r, c), (shape.m, r, c)
                checked += 1
        # the lower matrix is the loose-rule generating function by transpose
        for r in idx:
            for c in idx:
                a, b = eta(r, shape), eta(c, shape)
                if a == b:
                    q = ONE
                elif is_below(b, a):  # a above b: comparable for the plus order
                    q = ballot.q_polynomial(a, b, "I", "+")
                else:
                    assert lower_kl.entry(r, c) == ZERO, (shape.m, r, c)
                    continue
                assert lower_kl.entry(r, c) == q.subs_neg(), (shape.m, r, c)
    print(f"ACCEPT-03 PASS: ballot and KL transition routes agree on {checked} entries")


def test_criterion_4_reference_expansion():
    """The eight-term two-block expansion, exactly."""
    from coidealbasis.basis import expand_diagram

    v = expand_diagram(build_diagram((-1, -1), Shape((3, 3))))
    expected = {
        (-1, -1): LaurentPoly({0: 1}),
        (1, -3): LaurentPoly({-2: -1}),
        (1, 1): LaurentPoly({-1: -1}),
        (-1, 1): LaurentPoly({-2: -1}),
        (3, -1): LaurentPoly({-3: 1}),
        (1, -1): LaurentPoly({-5: 1}),
        (1, 3): LaurentPoly({-2: 1}),
        (3, 1): LaurentPoly({-5: -1}),
    }
    assert v.terms == expected
    print("ACCEPT-04 PASS: reference dual-basis expansion reproduced exactly")


def test_criterion_5_involutions_fix_bases():
    """The twisted involutions fix their bases for every shape with <= 4 sites,
    with the intertwiner series solved from its defining operator identity."""
    count = 0
    for shape in all_shapes(4):
        for k, v in spade_vectors(shape.m).items():
            assert psi_iota(v, "-") == v, (shape.m, k)
            count += 1
        for k, v in club_vectors(shape.m).items():
            assert psi_iota(v, "+") == v, (shape.m, k)
            count += 1
    print(f"ACCEPT-05 PASS: twisted involutions fix all {count} basis vectors, <= 4 sites")


def test_criterion_6_positivity():
    """Decomposition coefficients lie in q^-1 N[q^-1] off the diagonal, for
    every shape with <= 6 sites and every two-part split."""
    checked = 0
    for shape in all_shapes(6):
        for l, row in hearts_into_spades(shape).items():
            for k, c in row.items():
                if k == l:
                    assert c.is_one()
                else:
                    assert c.in_negative_shell() and c.has_nonneg_coeffs(), (shape.m, l, k)
                checked += 1
    for total in range(2, 7):
        for comp in compositions(total):
            for cut in range(1, len(comp)):
                s1, s2 = Shape(comp[:cut]), Shape(comp[cut:])
                for (k, kp), row in tensor_into_spades(s1, s2).items():
                    for l, c in row.items():
                        if l == k + kp:
                            assert c.is_one()
                        else:
                            assert c.in_negative_shell() and c.has_nonneg_coeffs()
                        checked += 1
    print(f"ACCEPT-06 PASS: positivity of {checked} decomposition coefficients, <= 6 sites")


def test_criterion_7_action_consistency():
    """Diagram action equals the module action through the basis transition
    for every shape with <= 8 sites; all matrix entries are quantum integers."""
    vectors = 0
    for shape in all_shapes(8):
        spades = spade_vectors(shape.m)
        allowed = {quantum_int(i) for i in range(0, shape.total + 2)}
        for (r, c), entry in y_matrix(shape).items():
            assert entry in allowed, (shape.m, r, c, entry)
        for k, vec in spades.items():
            image = TensorVector.zero(shape.m, True)
            for coeff, d2 in y_on_diagram(build_diagram(k, shape)):
                image = image + spades[d2.index()].scale(coeff)
            assert image == act_y(vec), (shape.m, k)
            vectors += 1
    print(f"ACCEPT-07 PASS: diagram and module actions agree on {vectors} basis vectors, <= 8 sites")


def test_criterion_8_spectra():
    """Eigenvalue multiplicities at q0 = 2 for the named shapes, and the
    reference multiplicity table."""
    shapes = [Shape((1,) * L) for L in range(1, 7)] + [
        Shape((2, 2)),
        Shape((2, 2, 2)),
        Shape((3, 3)),
    ]
    for shape in shapes:
        rep = spectrum(shape)
        assert rep.verified, (shape.m, rep.detail, rep.multiplicities)
    rep = spectrum(Shape((2, 2)))
    assert rep.multiplicities == {5: 1, 3: 2, 1: 3, -1: 2, -3: 1}
    print("ACCEPT-08 PASS: spectra verified at q0 = 2 for all named shapes")


def test_criterion_9_eigenvector_routes():
    """Route agreement for the top eigenvector: unit shapes up to 10 sites and
    constant shapes (m)^n with m, n <= 3; positivity, bar symmetry, leading
    terms; the reference closed-form quantities."""
    shapes = [Shape((1,) * L) for L in range(1, 11)]
    shapes += [Shape((m,) * n) for m in (1, 2, 3) for n in (1, 2, 3)]
    for shape in shapes:
        rep = psi_solve(shape)
        assert rep.ok, (shape.m, rep.agreements, rep.eigen_ok)
        n = shape.total
        for k, v in rep.psi.components.items():
            assert v.has_nonneg_coeffs() and v.is_bar_symmetric(), (shape.m, k)
            kappa = build_diagram(k, shape).kappa()
            d_k = sum(n - i for i, step in enumerate(kappa) if step == 1)
            assert v.degree() == d_k and v.leading_coeff() == 1, (shape.m, k)

    kappa = (1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1)
    from coidealbasis.basis import diagram_from_string

    data = closed_form_data(diagram_from_string(kappa, Shape((1,) * 20)))
    qi = quantum_int
    assert data.n2 == 9
    assert data.piece_value("n5") == RationalFn(qi(19), qi(4))
    assert data.piece_value("n6") == RationalFn(qi(13), qi(14))
    assert data.piece_value("n7") == RationalFn(qi(4), qi(5) * qi(6))
    assert data.piece_value("n8") == RationalFn(ONE, qi(3))
    n9 = ONE
    for i in (1, 2, 4, 7, 8, 9, 10, 11):
        n9 = n9 * two_cosh(i)
    assert data.piece_value("n9") == RationalFn(n9, ONE)
    n10 = ONE
    for i in (3, 4, 6, 7, 8, 9, 10, 11):
        n10 = n10 * qi(i)
    assert data.piece_value("n10") == RationalFn(n10, ONE)
    print("ACCEPT-09 PASS: eigenvector route agreement and reference quantities")


def test_criterion_10_sum_rules():
    """The reference sum table, the Pell rule to m = 12 and the bishop
    sequence rule to L = 16."""
    assert sum_table(3, 3) == [[3, 10, 38], [8, 92, 1408], [21, 832, 52736]]
    for m in range(1, 13):
        assert component_sum_at_one(m, 1) == pell_sum_value(m), m
    for L in range(1, 17):
        assert component_sum_at_one(1, L) == bishop_sequence(L + 1), L
    print("ACCEPT-10 PASS: sum rules (table 3x3, Pell to m=12, sequence to L=16)")


def test_criterion_11_telescoping_identities():
    """The two quantum-integer telescoping identities for K <= 4, entries <= 3."""
    count = 0
    for K in range(1, 5):
        for ns in product(range(0, 4), repeat=K):
            for ms in product(range(1, 4), repeat=K):
                assert telescoping_identity_one(ns, ms), (ns, ms)
                count += 1
    for K in range(1, 5):
        for x in range(0, 4):
            for z in range(0, 4):
                for ms in product(range(1, 4), repeat=K):
                    assert telescoping_identity_two(x, z, ms), (x, z, ms)
                    count += 1
    print(f"ACCEPT-11 PASS: {count} telescoping identity instances verified exactly")
