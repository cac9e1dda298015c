from itertools import product

import pytest

from coidealbasis import checks
from coidealbasis.basis import build_diagram, diagram_from_string
from coidealbasis.coideal import (
    bishop_sequence,
    case_number,
    closed_form_data,
    component_sum_at_one,
    pell,
    psi0_components,
    psi_by_closed_form,
    psi_by_graph,
    psi_solve,
    spectrum,
    strip_blocks,
    sum_table,
    y_matrix,
    y_on_diagram,
    y_on_standard,
)
from coidealbasis.laurent import (
    LaurentPoly,
    ONE,
    RationalFn,
    q_binomial,
    quantum_int,
    two_cosh,
)
from coidealbasis.paths import Shape
from coidealbasis.quantum import TensorVector, act_y


class TestStringAction:
    def test_one_site(self):
        up = TensorVector((1,), True, {(1,): ONE})
        down = TensorVector((1,), True, {(-1,): ONE})
        assert y_on_standard(up).terms == {(-1,): ONE, (1,): LaurentPoly.q_power(1)}
        assert y_on_standard(down).terms == {(1,): ONE, (-1,): LaurentPoly.q_power(-1)}

    def test_matches_comultiplication(self):
        for n in range(1, 7):
            for kappa in product((1, -1), repeat=n):
                v = TensorVector((1,) * n, True, {kappa: ONE})
                assert y_on_standard(v) == act_y(v)


class TestDiagramAction:
    def test_reference_example(self):
        d = build_diagram((1, 0, -2), Shape((3, 4, 4)))
        terms = y_on_diagram(d)
        assert len(terms) == 3  # the first ascent term vanishes in its block
        assert {str(c) for c, _ in terms} == {
            str(quantum_int(2)),
            str(quantum_int(3)),
            str(quantum_int(4)),
        }
        indices = {tuple(d2.index()) for _, d2 in terms}
        assert indices == {(-1, 0, -2), (1, -2, -2), (1, 2, -2)}

    def test_all_arcs_fixed(self):
        # no star: the diagram reproduces itself with the top coefficient
        d = diagram_from_string((-1, 1), Shape((1, 1)))
        terms = y_on_diagram(d)
        assert terms == [(quantum_int(1), d)]

    def test_star_no_unpaired_annihilated_when_no_ups(self):
        d = diagram_from_string((-1, -1, -1), Shape((1, 1, 1)))
        assert d.star == 3 and d.unpaired is None and not d.ups
        assert y_on_diagram(d) == []

    def test_star_with_unpaired_flips(self):
        d = diagram_from_string((-1, -1), Shape((1, 1)))
        terms = y_on_diagram(d)
        assert len(terms) == 1
        coeff, d2 = terms[0]
        assert coeff == ONE
        assert d2.kappa() == (1, -1)

    def test_consistency_with_module_action(self):
        rep = checks.action_consistency(5)
        assert rep.ok, rep.failures[:3]

    def test_entries_are_quantum_integers(self):
        shape = Shape((2, 2))
        allowed = {quantum_int(i) for i in range(0, shape.total + 2)}
        for entry in y_matrix(shape).values():
            assert entry in allowed


class TestSpectrum:
    def test_case_numbers(self):
        s = Shape((2, 2))
        assert case_number(build_diagram((2, -2), s)) == -3
        assert case_number(build_diagram((0, -2), s)) == 1

    def test_reference_multiplicities(self):
        rep = spectrum(Shape((2, 2)))
        assert rep.multiplicities == {5: 1, 3: 2, 1: 3, -1: 2, -3: 1}
        assert rep.verified

    @pytest.mark.parametrize("m", [(1,), (1, 1), (1, 1, 1), (2, 2), (3, 3)])
    def test_verified(self, m):
        rep = spectrum(Shape(m))
        assert rep.verified
        assert sum(rep.multiplicities.values()) == rep.dimension

    def test_top_multiplicity_one(self):
        for m in [(1, 1), (2, 2), (3, 1)]:
            rep = spectrum(Shape(m))
            assert rep.multiplicities[Shape(m).total + 1] == 1

    def test_evaluation_point_separates_quantum_integers(self):
        vals = {quantum_int(i).evaluate(2) for i in range(-25, 26)}
        assert len(vals) == 51


class TestPsiRoutes:
    @pytest.mark.parametrize("m", [(1,), (1, 1), (2,), (1, 1, 1), (2, 2), (2, 1, 2)])
    def test_full_agreement(self, m):
        rep = psi_solve(Shape(m))
        assert rep.ok, rep.agreements

    def test_normalisation(self):
        rep = psi_solve(Shape((2, 2)), routes=("graph",))
        assert rep.psi.components[(-2, -2)] == ONE

    def test_unit_chain_components(self):
        # components along the single-flip chain obey the two closed formulas
        N = 5
        psi = psi_by_closed_form(Shape((1,) * N)).components

        def expected(i):
            if i % 2 == 1:
                mm = (i - 1) // 2
                val = ONE
                for j in range(1, N - mm + 1):
                    val = val * two_cosh(j)
                val = val * q_binomial(N - mm, mm)
                for j in range(1, mm + 1):
                    val = val.exact_div(two_cosh(j))
                return val
            mm = i // 2
            val = ONE
            for j in range(1, N - mm + 1):
                val = val * two_cosh(j)
            val = val * quantum_int(N + 1) * q_binomial(N - mm, mm - 1)
            for j in range(1, mm + 1):
                val = val.exact_div(two_cosh(j))
            return val.exact_div(quantum_int(mm))

        for i in range(1, N + 2):
            k = (1,) * (N - i + 1) + (-1,) * (i - 1)
            assert psi[k] == expected(i)

    def test_all_plus_component(self):
        N = 6
        psi = psi_by_closed_form(Shape((1,) * N)).components
        val = ONE
        for j in range(1, N + 1):
            val = val * two_cosh(j)
        assert psi[(1,) * N] == val

    @pytest.mark.parametrize("m", [(1, 1, 1), (2, 2), (3, 2)])
    def test_positive_bar_symmetric_leading(self, m):
        rep = checks.eigenvector_routes([Shape(m)])
        assert rep.ok, rep.failures[:3]

    def test_projection_irrelevant(self):
        # a component equals the component of the block-stripped string
        for m in [(2, 2), (3, 1), (2, 1, 1)]:
            s = Shape(m)
            unit = Shape((1,) * s.total)
            big = psi_by_graph(s).components
            small = psi_by_graph(unit).components
            for k in s.indices():
                kappa = build_diagram(k, s).kappa()
                assert big[k] == small[kappa]

    def test_psi0_top_is_monomial(self):
        comps = psi0_components(Shape((2, 2)))
        assert comps[(2, 2)] == LaurentPoly.q_power(1 + 2 + 3 + 4)


class TestClosedFormExample:
    def setup_method(self):
        kappa = (1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1)
        self.data = closed_form_data(diagram_from_string(kappa, Shape((1,) * 20)))

    def test_counts(self):
        assert self.data.n2 == 9

    def test_pieces(self):
        qi = quantum_int
        R = RationalFn
        assert self.data.piece_value("n5") == R(qi(19), qi(4))
        assert self.data.piece_value("n6") == R(qi(13), qi(14))
        assert self.data.piece_value("n7") == R(qi(4), qi(5) * qi(6))
        assert self.data.piece_value("n8") == R(ONE, qi(3))
        n9 = ONE
        for i in (1, 2, 4, 7, 8, 9, 10, 11):
            n9 = n9 * two_cosh(i)
        assert self.data.piece_value("n9") == R(n9, ONE)
        n10 = ONE
        for i in (3, 4, 6, 7, 8, 9, 10, 11):
            n10 = n10 * quantum_int(i)
        assert self.data.piece_value("n10") == R(n10, ONE)

    def test_value_is_positive_polynomial(self):
        v = self.data.value()
        assert v.has_nonneg_coeffs() and v.is_bar_symmetric()


class TestSumRules:
    def test_reference_table(self):
        assert sum_table(3, 3) == [[3, 10, 38], [8, 92, 1408], [21, 832, 52736]]

    def test_larger_reference_entries(self):
        assert component_sum_at_one(1, 4) == 156
        assert component_sum_at_one(2, 4) == 26576
        assert component_sum_at_one(4, 2) == 7276

    def test_pell_seeds(self):
        assert [pell(n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]

    def test_length_one_rule(self):
        assert checks.pell_rule(10).ok

    def test_bishop_sequence_values(self):
        assert [bishop_sequence(n) for n in range(1, 8)] == [1, 3, 10, 38, 156, 692, 3256]

    def test_unit_shape_rule(self):
        assert checks.bishop_rule(8).ok

    def test_sum_equals_per_diagram_route(self):
        # the sum over sign strings against one weight-indexed diagram,
        # blocks stripped, per index of the shape
        for m, L in ((m, L) for m in range(1, 11) for L in range(1, 10 // m + 1)):
            s = Shape((m,) * L)
            expected = sum(closed_form_data(strip_blocks(build_diagram(k, s))).value_at_one() for k in s.indices())
            assert component_sum_at_one(m, L) == expected, (m, L)

    def test_closed_form_integral_at_one(self):
        s = Shape((3, 3))
        for k in s.indices():
            d = strip_blocks(build_diagram(k, s))
            v = closed_form_data(d)
            assert v.value_at_one() == v.value().evaluate(1)
