"""Acceptance suite: the release gate, one test per criterion.

Each test prints a single PASS line on success (pytest -s shows them); the
assertions are exact, with no numerical tolerances anywhere: every comparison
is between Laurent polynomials or integers.

These are the heavyweight exhaustive runs (total sites up to 8 for the
enumeration criteria and up to 10 for the eigenvector criterion); the
fine-grained unit tests live in the per-module files.  The property checks
themselves live in `coidealbasis.checks`, which `coidealbasis verify` runs at
smaller bounds; the fixed reference values stay here.
"""

from math import prod

from coidealbasis import ballot, checks
from coidealbasis.basis import build_diagram, diagram_from_string, expand_diagram
from coidealbasis.coideal import closed_form_data, spectrum
from coidealbasis.laurent import LaurentPoly, ONE, RationalFn, quantum_int, two_cosh
from coidealbasis.paths import Shape, parse_path


def t_pows(*exps):
    return sum((LaurentPoly.t_power(e) for e in exps), LaurentPoly())


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
    rep = checks.inversion(8)
    assert rep.ok, rep.failures[:3]
    print(f"ACCEPT-02 PASS: strip-rule inversion exact on {rep.count} path pairs, <= 8 sites")


def test_criterion_3_transition_matrix_routes():
    """Ballot-route transition matrices equal the KL-oracle routes, <= 8 sites."""
    rep = checks.ballot_matches_kl(8)
    assert rep.ok, rep.failures[:3]
    print(f"ACCEPT-03 PASS: ballot and KL transition routes agree on {rep.count} entries")


def test_criterion_4_reference_expansion():
    """The eight-term two-block expansion, exactly."""
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
    rep = checks.involutions_fix_bases(4)
    assert rep.ok, rep.failures[:3]
    print(f"ACCEPT-05 PASS: twisted involutions fix all {rep.count} basis vectors, <= 4 sites")


def test_criterion_6_positivity():
    """Decomposition coefficients lie in q^-1 N[q^-1] off the diagonal, for
    every shape with <= 6 sites and every two-part split."""
    rep = checks.positivity(6)
    assert rep.ok, rep.failures[:3]
    print(f"ACCEPT-06 PASS: positivity of {rep.count} decomposition coefficients, <= 6 sites")


def test_criterion_7_action_consistency():
    """Diagram action equals the module action through the basis transition
    for every shape with <= 8 sites; all matrix entries are quantum integers."""
    rep = checks.action_consistency(8)
    assert rep.ok, rep.failures[:3]
    print(f"ACCEPT-07 PASS: diagram and module actions agree on {rep.count} basis vectors, <= 8 sites")


def test_criterion_8_spectra():
    """Eigenvalue multiplicities at q0 = 2 for the named shapes, and the
    reference multiplicity table."""
    shapes = [Shape((1,) * L) for L in range(1, 7)] + [Shape((2, 2)), Shape((2, 2, 2)), Shape((3, 3))]
    rep = checks.spectra(shapes)
    assert rep.ok, rep.failures[:3]
    assert spectrum(Shape((2, 2))).multiplicities == {5: 1, 3: 2, 1: 3, -1: 2, -3: 1}
    print("ACCEPT-08 PASS: spectra verified at q0 = 2 for all named shapes")


def test_criterion_9_eigenvector_routes():
    """Route agreement for the top eigenvector: unit shapes up to 10 sites and
    constant shapes (m)^n with m, n <= 3; positivity, bar symmetry, leading
    terms; the reference closed-form quantities."""
    shapes = [Shape((1,) * L) for L in range(1, 11)]
    shapes += [Shape((m,) * n) for m in (1, 2, 3) for n in (1, 2, 3)]
    rep = checks.eigenvector_routes(shapes)
    assert rep.ok, rep.failures[:3]

    kappa = (1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1)
    data = closed_form_data(diagram_from_string(kappa, Shape((1,) * 20)))
    qi = quantum_int
    assert data.n2 == 9
    assert data.piece_value("n5") == RationalFn(qi(19), qi(4))
    assert data.piece_value("n6") == RationalFn(qi(13), qi(14))
    assert data.piece_value("n7") == RationalFn(qi(4), qi(5) * qi(6))
    assert data.piece_value("n8") == RationalFn(ONE, qi(3))
    n9 = prod((two_cosh(i) for i in (1, 2, 4, 7, 8, 9, 10, 11)), start=ONE)
    assert data.piece_value("n9") == RationalFn(n9, ONE)
    n10 = prod((qi(i) for i in (3, 4, 6, 7, 8, 9, 10, 11)), start=ONE)
    assert data.piece_value("n10") == RationalFn(n10, ONE)
    print("ACCEPT-09 PASS: eigenvector route agreement and reference quantities")


def test_criterion_10_sum_rules():
    """The reference sum table, the Pell rule to m = 12 and the bishop
    sequence rule to L = 16."""
    for rep in (checks.sum_table(), checks.pell_rule(12), checks.bishop_rule(16)):
        assert rep.ok, rep.failures[:3]
    print("ACCEPT-10 PASS: sum rules (table 3x3, Pell to m=12, sequence to L=16)")


def test_criterion_11_telescoping_identities():
    """The two quantum-integer telescoping identities for K <= 4, entries <= 3."""
    one, two = checks.telescoping_one(4, 3, 3), checks.telescoping_two(4, 3, 3)
    assert one.ok and two.ok, (one.failures[:3], two.failures[:3])
    print(f"ACCEPT-11 PASS: {one.count + two.count} telescoping identity instances verified exactly")
