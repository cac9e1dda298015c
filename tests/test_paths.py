from itertools import product

import pytest

from coidealbasis.laurent import LaurentPoly, q_binomial
from coidealbasis.paths import (
    Shape,
    admissible_paths,
    area,
    eta,
    eta_inverse,
    heights,
    index_le,
    is_below,
    kappa_string,
    kappa_to_index,
    min_path,
    order_le,
    parse_path,
    path_str,
    paths_between,
    squares_above,
    zeta,
)


class TestShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            Shape(())
        with pytest.raises(ValueError):
            Shape((2, 0))

    def test_membership(self):
        s = Shape((2, 3))
        assert s.contains((0, 1))
        assert not s.contains((1, 1))  # parity
        assert not s.contains((0, 5))  # range
        assert len(s.indices()) == 3 * 4

    def test_indices_sorted(self):
        s = Shape((2, 2))
        assert s.indices() == sorted(s.indices())


class TestEncodings:
    def test_eta_examples(self):
        s = Shape((2, 2, 2, 2))
        assert path_str(eta((0, 0, 0, 0), s)) == "-+-+-+-+"
        assert path_str(eta((-2, -2, -2, 2), s)) == "++++++--"

    def test_zeta_block_definition(self):
        # each block front-loads its ascents: for index value v on a block of
        # size m there are (m-v)/2 ascents then (m+v)/2 descents
        assert path_str(zeta((0, -2), Shape((2, 2)))) == "+-++"
        assert path_str(zeta((0, 0, 0, 0), Shape((2, 2, 2, 2)))) == "+-+-+-+-"

    def test_zeta_above_eta(self):
        for m in [(2,), (3, 1), (2, 2), (3, 3)]:
            s = Shape(m)
            for k in s.indices():
                assert is_below(eta(k, s), zeta(k, s))

    def test_eta_inverse(self):
        s = Shape((2, 3))
        for k in s.indices():
            assert eta_inverse(eta(k, s), s) == k
        assert eta_inverse(parse_path("+-+-+"), s) is None

    def test_kappa_round_trip(self):
        s = Shape((3, 4, 4))
        for k in s.indices():
            assert kappa_to_index(kappa_string(k, s), s) == k


class TestOrders:
    def test_reflexive(self):
        p = parse_path("-+-+")
        assert order_le(p, p, "+") and order_le(p, p, "-")

    def test_minus_order_is_below(self):
        assert order_le(parse_path("--++"), parse_path("++--"), "-")
        assert order_le(parse_path("++--"), parse_path("--++"), "+")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            order_le(parse_path("++"), parse_path("+"), "-")

    def test_min_path_example(self):
        assert path_str(min_path(parse_path("+---+"), parse_path("-+++-"))) == "-+--+"

    def test_min_path_is_greatest_lower_bound(self):
        for a in product((1, -1), repeat=4):
            for b in product((1, -1), repeat=4):
                m = min_path(a, b)
                assert is_below(m, a) and is_below(m, b)
                for c in product((1, -1), repeat=4):
                    if is_below(c, a) and is_below(c, b):
                        assert is_below(c, m)

    def test_index_order_matches_path_order(self):
        for m in [(1, 1, 1), (2, 2), (2, 1, 1), (3, 2)]:
            s = Shape(m)
            for k in s.indices():
                for l in s.indices():
                    assert index_le(k, l, "-") == order_le(eta(k, s), eta(l, s), "-")
                    assert index_le(k, l, "+") == order_le(eta(k, s), eta(l, s), "+")


class TestArea:
    def test_all_plus_zero(self):
        assert area(parse_path("++")) == 0

    def test_all_minus(self):
        n = 6
        assert area((-1,) * n) == n * (n + 1) // 2

    def test_against_point_count(self):
        for p in product((1, -1), repeat=6):
            assert area(p) == len(squares_above(p))

    def test_monotone(self):
        for a in product((1, -1), repeat=5):
            for b in product((1, -1), repeat=5):
                if is_below(a, b):
                    assert area(a) >= area(b)


class TestAdmissible:
    def test_single_point(self):
        s = Shape((2, 2))
        a = eta((0, 0), s)
        assert admissible_paths(a, a, s) == [a]

    def test_unit_shape_everything_admissible(self):
        # the encoding flips signs: the all-plus index maps to the all-minus
        # path, so the index extremes bound the whole path interval
        s = Shape((1, 1, 1, 1))
        a = eta((1, 1, 1, 1), s)
        g = eta((-1, -1, -1, -1), s)
        assert set(admissible_paths(a, g, s)) == set(paths_between(a, g))

    def test_filtering(self):
        s = Shape((2, 2))
        alpha = eta((0, 0), s)
        gamma = eta((-2, -2), s)
        adm = admissible_paths(alpha, gamma, s)
        expected = [
            eta(k, s)
            for k in s.indices()
            if is_below(alpha, eta(k, s)) and is_below(eta(k, s), gamma)
        ]
        assert sorted(adm) == sorted(expected)

    def test_rejects_non_eta_endpoints(self):
        s = Shape((2, 2))
        with pytest.raises(ValueError):
            admissible_paths(parse_path("+-+-"), eta((2, 2), s), s)


class TestPathBinomialSum:
    def test_q_binomial_identity(self):
        # sum over paths between the two encodings of one index equals a
        # q-binomial coefficient after centring by the two areas
        for m in range(1, 9):
            s = Shape((m,))
            for (l,) in s.indices():
                alpha = eta((l,), s)
                alpha_p = zeta((l,), s)
                total = LaurentPoly()
                for gamma in paths_between(alpha, alpha_p):
                    e = 2 * area(gamma) - area(alpha) - area(alpha_p)
                    total = total + LaurentPoly.q_power(e)
                assert total == q_binomial(m, (m - l) // 2)

    def test_heights_cached_consistency(self):
        p = parse_path("+-+")
        assert heights(p) == (1, 0, 1)
