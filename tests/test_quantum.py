from itertools import count, product

import pytest
from hypothesis import example, given, settings, strategies as st

from coidealbasis.laurent import LaurentPoly, ONE, Q, QINV, ZERO, add_term, quantum_factorial, quantum_int
from coidealbasis.paths import Shape
from coidealbasis.quantum import (
    TensorVector,
    act,
    act_y,
    apply_upsilon,
    divided_powers,
    pairing,
    project,
    project_lower,
    psi_iota,
    psi_plain,
    psi_pm,
    theta,
    theta_chain,
    upsilon_coeffs,
)
from coidealbasis.quantum import _recurrence_coeffs


def basis(shape, idx, dual=False):
    return TensorVector.basis(shape, idx, dual)


@st.composite
def tensor_vectors(draw, max_factors):
    """A random vector on 1 to max_factors factors of sizes 1-3, in either
    standard basis."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_factors)))
    indices = list(product(*(range(-m, m + 1, 2) for m in shape)))
    coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-5, 5).filter(bool), min_size=1, max_size=3)
    terms = draw(st.dictionaries(st.sampled_from(indices), coeffs.map(LaurentPoly), max_size=4))
    return TensorVector(shape, draw(st.booleans()), terms)


@st.composite
def divided_power_cases(draw):
    """A random vector on 1-3 factors, a generator, a coproduct sign and a
    factor sub-range."""
    vec = draw(tensor_vectors(3))
    lo = draw(st.integers(0, len(vec.shape) - 1))
    hi = draw(st.integers(lo + 1, len(vec.shape)))
    return vec, draw(st.sampled_from("EF")), draw(st.sampled_from("+-")), lo, hi


@st.composite
def action_cases(draw):
    """A random vector on 1-6 factors, any generator, a coproduct sign and a
    factor range [lo, hi), empty ranges included."""
    vec = draw(tensor_vectors(6))
    lo = draw(st.integers(0, len(vec.shape)))
    hi = draw(st.integers(lo, len(vec.shape)))
    return vec, draw(st.sampled_from(["E", "F", "K", "Kinv"])), draw(st.sampled_from("+-")), lo, hi


# The per-factor route, the reference for act and act_y: a coproduct term is
# a list of (position, generator), every K and K^-1 of it a generator of its
# own, applied one factor at a time.


def _ref_factor(gen, dual, m, a):
    """List of (new_index, coefficient) for one generator on one factor."""
    if gen == "K":
        return [(a, LaurentPoly.q_power(a))]
    if gen == "Kinv":
        return [(a, LaurentPoly.q_power(-a))]
    if gen == "E":
        if a + 2 > m:
            return []
        c = quantum_int((m - a) // 2) if dual else quantum_int((m + a) // 2 + 1)
        return [(a + 2, c)] if not c.is_zero() else []
    if gen == "F":
        if a - 2 < -m:
            return []
        c = quantum_int((m + a) // 2) if dual else quantum_int((m - a) // 2 + 1)
        return [(a - 2, c)] if not c.is_zero() else []
    raise ValueError(f"unknown generator {gen!r}")


def _ref_positions(vec, pos_terms):
    """Apply a sum of terms; each term is a list of (position, generator)."""
    out = {}
    for k, coeff in vec.terms.items():
        for term in pos_terms:
            images = [(k, coeff)]
            for pos, g in term:
                nxt = []
                m = vec.shape[pos]
                for idx, c in images:
                    for a2, c2 in _ref_factor(g, vec.dual, m, idx[pos]):
                        nxt.append((idx[:pos] + (a2,) + idx[pos + 1 :], c * c2))
                images = nxt
                if not images:
                    break
            for idx, c in images:
                add_term(out, idx, c)
    return TensorVector(vec.shape, vec.dual, out)


def _ref_coproduct_terms(gen, cop, lo, hi):
    """Iterated comultiplication of a generator over factor range [lo, hi)."""
    if gen in ("K", "Kinv"):
        return [[(p, gen) for p in range(lo, hi)]]
    terms = []
    for i in range(lo, hi):
        if gen == "E":
            if cop == "+":
                term = [(p, "K") for p in range(lo, i)] + [(i, "E")]
            else:
                term = [(i, "E")] + [(p, "Kinv") for p in range(i + 1, hi)]
        else:  # F
            if cop == "+":
                term = [(i, "F")] + [(p, "Kinv") for p in range(i + 1, hi)]
            else:
                term = [(p, "K") for p in range(lo, i)] + [(i, "F")]
        terms.append(term)
    return terms


def _ref_act_y(vec):
    """Y = F + q^-1 KE + K: K's left of a local term, plus the grouplike tail."""
    n = len(vec.shape)
    ke_terms, other_terms = [], []
    for i in range(n):
        lefts = [(p, "K") for p in range(i)]
        ke_terms.append(lefts + [(i, "E"), (i, "K")])
        other_terms.append(lefts + [(i, "F")])
    other_terms.append([(p, "K") for p in range(n)])
    return _ref_positions(vec, ke_terms).scale(QINV) + _ref_positions(vec, other_terms)


def random_vector(shape, dual, seed=3):
    idx_sets = [range(-m, m + 1, 2) for m in shape]
    terms = {}
    c = seed
    for key in product(*idx_sets):
        c = (c * 31 + 7) % 23
        terms[key] = LaurentPoly({c % 5 - 2: c + 1, -(c % 3): 2})
    return TensorVector(tuple(shape), dual, terms)


class TestSingleFactor:
    def test_e_action_example(self):
        assert act("E", basis((2,), (0,)), "+") == basis((2,), (2,)).scale(quantum_int(2))

    def test_k_grouplike(self):
        v = basis((1, 1), (1, -1))
        assert act("K", v, "+") == v

    def test_commutator_relation(self):
        # [E, F] = (K - K^-1)/(q - q^-1) on every weight vector
        for n in range(1, 7):
            for m in range(-n, n + 1, 2):
                for dual in (False, True):
                    v = basis((n,), (m,), dual)
                    lhs = act("E", act("F", v, "+"), "+") - act("F", act("E", v, "+"), "+")
                    assert lhs == v.scale(quantum_int(m))

    def test_cartan_relations(self):
        # K E K^-1 = q^2 E and K F K^-1 = q^-2 F
        for n in range(1, 6):
            for m in range(-n, n + 1, 2):
                v = basis((n,), (m,))
                assert act("K", act("Kinv", v, "+"), "+") == v
                keki = act("K", act("E", act("Kinv", v, "+"), "+"), "+")
                assert keki == act("E", v, "+").scale(LaurentPoly.q_power(2))
                kfki = act("K", act("F", act("Kinv", v, "+"), "+"), "+")
                assert kfki == act("F", v, "+").scale(LaurentPoly.q_power(-2))

    def test_dual_action(self):
        # E v^a = [(m-a)/2] v^(a+2) on the dual basis
        v = basis((3,), (-1,), dual=True)
        assert act("E", v, "+") == basis((3,), (1,), dual=True).scale(quantum_int(2))


class TestCoproducts:
    @given(action_cases())
    @settings(max_examples=150, deadline=None)
    def test_act_matches_per_factor_route(self, case):
        vec, gen, cop, lo, hi = case
        assert act(gen, vec, cop, lo, hi) == _ref_positions(vec, _ref_coproduct_terms(gen, cop, lo, hi))

    @given(tensor_vectors(6))
    @settings(max_examples=150, deadline=None)
    def test_act_y_matches_per_factor_route(self, vec):
        assert act_y(vec) == _ref_act_y(vec)

    def test_unknown_generator_raises(self):
        with pytest.raises(ValueError, match="unknown generator"):
            act("H", basis((1,), (1,)), "+")

    @pytest.mark.parametrize("cop", ["+", "-"])
    def test_comultiplication_is_algebra_map(self, cop):
        # check [E, F] = (K - K^-1)/(q-q^-1) through the coproduct action
        shape = (1, 2)
        for idx in [(1, 0), (-1, 2), (1, -2)]:
            v = basis(shape, idx)
            lhs = act("E", act("F", v, cop), cop) - act("F", act("E", v, cop), cop)
            kk = act("K", v, cop) - act("Kinv", v, cop)
            rhs_terms = {k: c.exact_div(Q - QINV) for k, c in kk.terms.items()}
            assert lhs == TensorVector(shape, False, rhs_terms)

    @given(divided_power_cases())
    @example((basis((2, 2), (2, 2)), "F", "+", 0, 2))
    @settings(max_examples=150, deadline=None)
    def test_divided_powers(self, case):
        # each power from the previous one equals gen^k v / [k]! computed
        # from k plain actions, up to the first zero
        vec, gen, cop, lo, hi = case
        slow = []
        power = vec
        for k in count():
            term = power.exact_div(quantum_factorial(k))
            if term.is_zero():
                break
            slow.append(term)
            power = act(gen, power, cop, lo, hi)
        assert list(divided_powers(gen, vec, cop, lo, hi)) == slow


class TestTheta:
    def test_example_mixed(self):
        v = basis((1, 1), (1, -1))
        out = theta(v, "+", 1)
        expected = v + basis((1, 1), (-1, 1)).scale(-(Q - QINV))
        assert out == expected

    def test_example_lowest(self):
        v = basis((1, 1), (-1, -1))
        assert theta(v, "+", 1) == v

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_theta_inverse(self, sign):
        # Theta composed with its bar conjugate is the identity
        v = random_vector((1, 1), dual=False)
        w = theta(v, sign, 1)
        back = psi_plain(theta(psi_plain(w), sign, 1))
        assert back == v

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_intertwines_bar_coproducts(self, sign):
        # Theta . bar-Delta(x) = Delta(x) . Theta for the generators on
        # V_1 x V_1; conjugation by the bar involution sends K to K^-1
        def bar_delta(g, v):
            inner = {"E": "E", "F": "F", "K": "Kinv"}[g]
            return psi_plain(act(inner, psi_plain(v), sign))

        for g in ("E", "F", "K"):
            for idx in product((1, -1), repeat=2):
                v = basis((1, 1), idx)
                assert theta(bar_delta(g, v), sign, 1) == act(g, theta(v, sign, 1), sign)


class TestPsi:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_involution(self, sign):
        v = random_vector((1, 1, 1), dual=True)
        assert psi_pm(psi_pm(v, sign), sign) == v

    def test_split_independence(self):
        # the recursive definition does not depend on where the tensor is cut
        from coidealbasis.quantum import _theta_ranges

        v = random_vector((1, 1, 1), dual=True)
        via_left = theta_chain(psi_plain(v), "-")
        # split after the second factor: the inner series acts on factors 1-2
        inner = _theta_ranges(psi_plain(v), "-", 0, 1, 1, 2)
        via_right = theta(inner, "-", 2)
        assert via_left == via_right

    def test_fixes_lowest_string(self):
        v = basis((1, 1, 1), (-1, -1, -1), dual=True)
        assert psi_pm(v, "-") == v


class TestUpsilon:
    def test_normalisation(self):
        assert upsilon_coeffs(0)[0] == ONE

    def test_first_coefficient(self):
        assert upsilon_coeffs(1)[1] == QINV - Q

    def test_recurrence_match(self):
        assert upsilon_coeffs(6) == _recurrence_coeffs(6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_intertwiner_identity(self, n):
        # psi(iota(X)) Upsilon_+ = Upsilon_+ iota(X) on V_n
        for m in range(-n, n + 1, 2):
            v = basis((n,), (m,))
            ui = apply_upsilon(v, "+")
            lhs = act("E", ui, "+") + act("F", act("K", ui, "+"), "+").scale(QINV) + act("K", ui, "+")
            rhs_in = act("E", v, "+") + act("F", act("Kinv", v, "+"), "+").scale(Q) + act("Kinv", v, "+")
            assert lhs == apply_upsilon(rhs_in, "+")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dual_generator_identity(self, n):
        # Y Upsilon_- = Upsilon_- psi(Y) on V_n, with Y = F + q^-1 KE + K
        for m in range(-n, n + 1, 2):
            v = basis((n,), (m,))
            ui = apply_upsilon(v, "-")
            lhs = act("F", ui, "-") + act("K", act("E", ui, "-"), "-").scale(QINV) + act("K", ui, "-")
            rhs_in = act("F", v, "-") + act("Kinv", act("E", v, "-"), "-").scale(Q) + act("Kinv", v, "-")
            assert lhs == apply_upsilon(rhs_in, "-")


class TestPsiIota:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_involution(self, sign):
        for shape in [(1,), (1, 1), (1, 1, 1), (2,), (2, 1)]:
            v = random_vector(shape, dual=(sign == "-"))
            assert psi_iota(psi_iota(v, sign), sign) == v

    def test_fixes_extreme_weight_vectors(self):
        # the highest weight vector is fixed by the minus involution, the
        # lowest by the plus involution
        for n in (1, 2, 3):
            top = basis((n,), (n,), dual=True)
            assert psi_iota(top, "-") == top
            bottom = basis((n,), (-n,))
            assert psi_iota(bottom, "+") == bottom

    def test_fixes_one_site_starred_vector(self):
        star = TensorVector((1,), True, {(-1,): ONE, (1,): -QINV})
        assert psi_iota(star, "-") == star


class TestProjection:
    def test_examples(self):
        s = Shape((2,))
        assert project(basis((1, 1), (-1, 1), True), s) == basis((2,), (0,), True).scale(QINV)
        assert project(basis((1, 1), (1, -1), True), s) == basis((2,), (0,), True)

    def test_cup_vanishes_under_projection(self):
        cup = TensorVector((1, 1), True, {(-1, 1): ONE, (1, -1): -QINV})
        assert project(cup, Shape((2,))).is_zero()

    def test_commutes_with_module_action(self):
        # the minus-side projector is a module map for the minus coproduct
        s = Shape((2, 1))
        v = random_vector((1, 1, 1), dual=True)
        for g in ("E", "F", "K"):
            assert project(act(g, v, "-"), s) == act(g, project(v, s), "-")

    def test_lower_projection_exactness(self):
        # projecting the lowest string gives the lowest weight vector
        v = basis((1, 1), (-1, -1))
        assert project_lower(v, Shape((2,))) == basis((2,), (-2,))


class TestCoidealGenerator:
    def test_matches_string_formula(self):
        from coidealbasis.coideal import y_on_standard

        for n in (1, 2, 3):
            for kappa in product((1, -1), repeat=n):
                v = basis((1,) * n, kappa, dual=True)
                assert act_y(v) == y_on_standard(v)

    def test_commutes_with_projection(self):
        s = Shape((2, 2))
        v = random_vector((1, 1, 1, 1), dual=True)
        assert project(act_y(v), s) == act_y(project(v, s))


class TestPairing:
    def test_dual_bases(self):
        u = basis((2, 1), (0, 1))
        w = basis((2, 1), (0, 1), dual=True)
        w2 = basis((2, 1), (2, -1), dual=True)
        assert pairing(u, w) == ONE
        assert pairing(u, w2) == ZERO

    def test_mismatched_operands_raise(self):
        u = basis((2, 1), (0, 1))
        for other in (basis((1, 2), (1, 0)), basis((2, 1), (0, 1), dual=True)):
            with pytest.raises(ValueError):
                u + other
        with pytest.raises(ValueError):
            pairing(u, u)
