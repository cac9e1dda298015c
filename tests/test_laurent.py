from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from coidealbasis import checks
from coidealbasis.laurent import (
    CyclotomicProduct,
    DivisibilityError,
    LaurentPoly,
    ONE,
    Q,
    QINV,
    RationalFn,
    ZERO,
    _expand,
    _telescoping_one_terms,
    _telescoping_two_terms,
    cyclotomic,
    poly_gcd,
    q_binomial,
    quantum_factorial,
    quantum_int,
    quantum_int_factored,
    sums_equal,
    two_cosh,
    two_cosh_factored,
)


def lp(pairs):
    return LaurentPoly(dict(pairs))


polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)

nonzero_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-5, max_value=5).filter(bool),
    min_size=1,
    max_size=4,
).map(LaurentPoly)


class TestRing:
    @given(polys, polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_bar_is_ring_involution(self, a, b):
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()

    def test_str_and_json_round_trip(self):
        p = lp({2: 1, 0: -3, -1: 2})
        assert str(p) == "q^2 - 3 + 2*q^-1"
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_bar_example(self):
        assert (Q ** 2 - 3 * QINV).bar() == QINV ** 2 - 3 * Q


class TestQuantumNumbers:
    def test_quantum_int_three(self):
        assert quantum_int(3) == lp({2: 1, 0: 1, -2: 1})

    def test_quantum_int_zero_and_negative(self):
        assert quantum_int(0) == ZERO
        assert quantum_int(-4) == -quantum_int(4)

    def test_factorial_three(self):
        assert quantum_factorial(3) == quantum_int(2) * quantum_int(3)

    def test_factorial_negative_rejected(self):
        with pytest.raises(ValueError):
            quantum_factorial(-1)

    def test_quantum_int_bar_symmetric_positive(self):
        for n in range(0, 9):
            p = quantum_int(n)
            assert p.is_bar_symmetric()
            assert all(c > 0 for c in p.coeffs.values())

    def test_binomial_example(self):
        assert q_binomial(4, 2) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})

    def test_binomial_edges(self):
        for n in range(0, 7):
            assert q_binomial(n, 0) == ONE
        assert q_binomial(5, 7) == ZERO
        assert q_binomial(5, -1) == ZERO

    def test_binomial_against_recursion(self):
        # [n, m] = q^m [n-1, m] + q^(m-n) [n-1, m-1]
        for n in range(1, 11):
            for m in range(0, n + 1):
                rec = q_binomial(n - 1, m).shift(m) + q_binomial(n - 1, m - 1).shift(m - n)
                assert q_binomial(n, m) == rec


class TestDivision:
    def test_exact_quotient_verified_by_multiplication(self):
        q63 = quantum_int(6).exact_div(quantum_int(3))
        assert q63 * quantum_int(3) == quantum_int(6)
        assert q63 == lp({3: 1, -3: 1})

    def test_divide_by_one(self):
        p = lp({3: 2, -1: 5})
        assert p.exact_div(ONE) == p

    def test_inexact_division_raises(self):
        with pytest.raises(DivisibilityError):
            quantum_int(3).exact_div(quantum_int(2))

    @given(polys, polys)
    @settings(max_examples=100, deadline=None)
    def test_product_division_round_trip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a


class TestEvaluate:
    def test_quantum_int_at_one(self):
        for n in range(-5, 8):
            assert quantum_int(n).evaluate(1) == n

    def test_rational_point(self):
        assert (Q + QINV).evaluate(2) == Fraction(5, 2)

    def test_factorial_at_one(self):
        assert quantum_factorial(3).evaluate(1) == 6

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Q.evaluate(0)


class TestRationalFn:
    def test_cross_multiplication_equality(self):
        a = RationalFn(quantum_int(6), quantum_int(3))
        b = RationalFn(quantum_int(6) * quantum_int(2), quantum_int(3) * quantum_int(2))
        assert a == b

    def test_reduction(self):
        a = RationalFn(quantum_int(4) * quantum_int(3), quantum_int(2) * quantum_int(3))
        assert a.reduced() == RationalFn(quantum_int(4), quantum_int(2))
        assert a.reduced().as_poly() == quantum_int(4).exact_div(quantum_int(2))

    def test_field_ops(self):
        a = RationalFn(ONE, quantum_int(2))
        b = RationalFn(quantum_int(3), ONE)
        assert (a * b) / b == a
        assert a + b - b == a

    def test_gcd(self):
        g = poly_gcd(quantum_int(6), quantum_int(4))
        # both are divisible by [2]
        assert quantum_int(6).exact_div(g) is not None
        assert quantum_int(4).exact_div(g) is not None

    @given(nonzero_polys, nonzero_polys, nonzero_polys.filter(lambda g: g.int_content() == 1))
    @settings(max_examples=150, deadline=None)
    def test_gcd_divisible_by_common_factor(self, a, b, g):
        assert poly_gcd(ZERO, ZERO) == ZERO
        # a zero argument leaves the primitive, monomial-free part of the other
        for d in (poly_gcd(a * g, b * g), poly_gcd(ZERO, a * g), poly_gcd(b * g, ZERO)):
            d.exact_div(g)  # raises DivisibilityError on a remainder
            assert d.int_content() == 1
            assert d.valuation() == 0


# ((kind, n), divide): [n] or q^n + q^-n, as a factor or as a divisor
factors = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("qint"), st.integers(min_value=-12, max_value=12)),
            st.tuples(st.just("cosh"), st.integers(min_value=-12, max_value=12).filter(bool)),
        ),
        st.booleans(),
    ),
    max_size=8,
)


def _term(unit, shift, fs):
    """unit * q^shift times or divided by [n] and q^n + q^-n, skipping
    divisions by zero."""
    t = CyclotomicProduct(unit, shift)
    for (kind, n), divide in fs:
        f = quantum_int_factored(n) if kind == "qint" else two_cosh_factored(n)
        if not divide:
            t = t * f
        elif f.unit:
            t = t / f
    return t


terms = st.builds(_term, st.sampled_from((1, -1)), st.integers(min_value=-6, max_value=6), factors)


def _sums_equal_by_expansion(left, right):
    """The reference for sums_equal: divide out the common factor, then
    expand the cofactors as Laurent polynomials and add them."""
    terms = [t for t in left if t.unit] + [-t for t in right if t.unit]
    low = {d: min(t.exps.get(d, 0) for t in terms) for d in set().union(*(t.exps for t in terms))}
    total = ZERO
    for t in terms:
        total = total + _expand(t.unit, t.shift, {d: t.exps.get(d, 0) - e for d, e in low.items()})
    return total.is_zero()


class TestCyclotomicProduct:
    def test_cyclotomic_divisor_products(self):
        for d in range(1, 61):
            divisors = (cyclotomic(e) for e in range(1, d + 1) if d % e == 0)
            assert prod(divisors, start=ONE) == LaurentPoly({d: 1, 0: -1})
            # degree Euler's phi(d), constant term nonzero
            assert cyclotomic(d).degree() == sum(gcd(k, d) == 1 for k in range(1, d + 1))
            assert cyclotomic(d).valuation() == 0

    def test_exact_quotient(self):
        # [6] / [3] = q^3 + q^-3, while [3] / [2] is no Laurent polynomial
        qi = quantum_int_factored
        assert qi(6) / qi(3) == two_cosh_factored(3)
        assert (qi(6) / qi(3)).expand() == two_cosh(3)
        with pytest.raises(DivisibilityError):
            (qi(3) / qi(2)).expand()
        with pytest.raises(ZeroDivisionError):
            qi(3) / qi(0)

    @given(factors)
    @settings(max_examples=300, deadline=None)
    def test_matches_rational_route(self, fs):
        f, r = CyclotomicProduct(1), RationalFn.from_int(1)
        for (kind, n), divide in fs:
            fa = quantum_int_factored(n) if kind == "qint" else two_cosh_factored(n)
            ra = RationalFn.from_poly(quantum_int(n) if kind == "qint" else two_cosh(n))
            if not divide:
                f, r = f * fa, r * ra
            elif ra.is_zero():
                with pytest.raises(ZeroDivisionError):
                    f / fa
                return
            else:
                f, r = f / fa, r / ra
        try:
            expected = r.as_poly()
        except DivisibilityError:
            with pytest.raises(DivisibilityError):
                f.expand()
        else:
            assert f.expand() == expected

    def test_sums_equal(self):
        qi = quantum_int_factored
        # [2][3] = [4] + [2], and the zero [0] drops out of either side
        assert sums_equal([qi(2) * qi(3), qi(0)], [qi(4), qi(2)])
        assert not sums_equal([qi(2) * qi(3)], [qi(4)])
        assert sums_equal([qi(3) / qi(2), -(qi(3) / qi(2))], [])

    def test_root_adversaries(self):
        # q - 2 and q^3 - 8 vanish at q = 2, q^2 - 2q at q = 0 and q = 2: no
        # fixed evaluation point decides these, the point past the bound does
        one, q = CyclotomicProduct(1), CyclotomicProduct(1, 1)
        assert not sums_equal([q], [one, one])
        assert not sums_equal([CyclotomicProduct(1, 3)], [one] * 8)
        assert not sums_equal([CyclotomicProduct(1, 2)], [q, q])
        assert sums_equal([CyclotomicProduct(1, 2), q], [q, CyclotomicProduct(1, 2)])
        assert sums_equal([], [CyclotomicProduct(0)])

    @given(
        st.lists(terms, max_size=3),
        st.lists(terms, max_size=3),
        st.booleans(),
        st.lists(terms, max_size=2),
        terms,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_zero_test_matches_expansion(self, left, right, mirror, pairs, scale, n, m):
        # both sides carry scale * ([n][m] = [n+m-1] + [n+m-3] + ... + [|n-m|+1]);
        # mirror makes the random parts equal; each pair t cancels as t - t on
        # the left or as t on both sides
        qi = quantum_int_factored
        if mirror:
            right = left[::-1]
        left = left + [scale * qi(n) * qi(m)] + [t for p in pairs for t in (p, -p)] + pairs
        right = right + [scale * qi(n + m - 1 - 2 * k) for k in range(min(n, m))] + pairs
        assert sums_equal(left, right) == _sums_equal_by_expansion(left, right)
        if mirror:
            assert sums_equal(left, right)


class TestTelescoping:
    # the checks count their cases, so these also pin how many they cover
    def test_first_identity_small(self):
        rep = checks.telescoping_one(3, 2, 2)
        assert rep.ok and rep.count == 258, rep.failures[:3]

    def test_second_identity_small(self):
        rep = checks.telescoping_two(2, 2, 2)
        assert rep.ok and rep.count == 54, rep.failures[:3]

    def test_wrong_right_hand_sides_rejected(self):
        # the K <= 2 grid of criterion 11, with [M+1] for [M] and
        # [2 + 2z + 2M + 2] for [2 + 2z + 2M]
        qi, cases = quantum_int_factored, 0
        for ms in (ms for K in (1, 2) for ms in product(range(1, 4), repeat=K)):
            M = sum(ms)
            for ns in product(range(4), repeat=len(ms)):
                assert not sums_equal(_telescoping_one_terms(ns, ms), [qi(M + 1)]), (ns, ms)
                cases += 1
            for x, z in product(range(4), repeat=2):
                wrong = qi(2 + 2 * z + 2 * M + 2) / qi(1 + x)
                assert not sums_equal(_telescoping_two_terms(x, z, ms), [wrong]), (x, z, ms)
                cases += 1
        assert cases == 156 + 192

    def test_two_cosh(self):
        assert two_cosh(0) == LaurentPoly.from_int(2)
        assert two_cosh(3) == lp({3: 1, -3: 1})
