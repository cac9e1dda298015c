from itertools import product

import pytest

from coidealbasis import hecke
from coidealbasis.hecke import HeckeModule, T, TINV, T_MINUS_TINV, add_vectors, scale_vector
from coidealbasis.laurent import LaurentPoly, ONE, ZERO
from coidealbasis.paths import is_below


def basis_vec(path):
    return {tuple(path): ONE}


class TestAction:
    def test_swap_minus(self):
        mod = HeckeModule(2, "-")
        assert mod.t_action(1, basis_vec((-1, 1))) == {(1, -1): ONE}

    def test_equal_letters_minus(self):
        mod = HeckeModule(3, "-")
        out = mod.t_action(1, basis_vec((1, 1, -1)))
        assert out == {(1, 1, -1): -TINV}

    def test_equal_letters_plus(self):
        mod = HeckeModule(3, "+")
        out = mod.t_action(1, basis_vec((1, 1, -1)))
        assert out == {(1, 1, -1): T}

    def test_last_generator(self):
        mod = HeckeModule(2, "-")
        assert mod.t_action(2, basis_vec((1, -1))) == {(1, 1): ONE}
        out = mod.t_action(2, basis_vec((1, 1)))
        assert out == {(1, -1): ONE, (1, 1): T_MINUS_TINV}

    def test_quadratic_relation(self):
        # (T_i - t)(T_i + t^-1) kills every basis vector
        for eps in "+-":
            mod = HeckeModule(3, eps)
            for v in product((1, -1), repeat=3):
                for i in (1, 2, 3):
                    w = basis_vec(v)
                    first = add_vectors(mod.t_action(i, w), scale_vector(w, -T))
                    second = add_vectors(mod.t_action(i, first), scale_vector(first, TINV))
                    assert second == {}

    @pytest.mark.parametrize("eps", ["+", "-"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_braid_relations(self, eps, n):
        mod = HeckeModule(n, eps)

        def seq(v, gens):
            out = basis_vec(v)
            for g in gens:
                out = mod.t_action(g, out)
            return out

        for v in product((1, -1), repeat=n):
            for i in range(1, n - 1):
                assert seq(v, (i, i + 1, i)) == seq(v, (i + 1, i, i + 1))
            assert seq(v, (n - 1, n, n - 1, n)) == seq(v, (n, n - 1, n, n - 1))
            for i in range(1, n):
                for j in range(i + 2, n + 1):
                    if j < n or i < n - 1:
                        assert seq(v, (i, j)) == seq(v, (j, i))

    def test_index_range(self):
        mod = HeckeModule(2, "-")
        with pytest.raises(ValueError):
            mod.t_action(3, basis_vec((1, 1)))


class TestBar:
    def test_generator_fixed(self):
        for eps, gen in (("-", (-1, -1, -1)), ("+", (1, 1, 1))):
            mod = HeckeModule(3, eps)
            assert mod.bar_basis(gen) == basis_vec(gen)

    @pytest.mark.parametrize("eps", ["+", "-"])
    def test_involutive(self, eps):
        mod = HeckeModule(4, eps)
        for v in product((1, -1), repeat=4):
            twice = mod.bar_vector(mod.bar_basis(v))
            assert twice == basis_vec(v)

    def test_antilinear(self):
        mod = HeckeModule(2, "-")
        v = {(1, -1): T}
        assert mod.bar_vector(v) == scale_vector(mod.bar_basis((1, -1)), TINV)


class TestKLBasis:
    def test_diagonal_one(self):
        for eps in "+-":
            mod = HeckeModule(3, eps)
            for v in product((1, -1), repeat=3):
                assert mod.kl_poly(v, v) == ONE

    @pytest.mark.parametrize("eps", ["+", "-"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bar_invariant_and_triangular(self, eps, n):
        # these properties determine the basis uniquely
        mod = HeckeModule(n, eps)
        for beta in product((1, -1), repeat=n):
            c = mod.kl_basis(beta)
            assert mod.bar_vector(c) == c
            assert c[beta] == ONE
            for alpha, coeff in c.items():
                if alpha == beta:
                    continue
                # strictly negative powers of t off the diagonal
                assert coeff.in_negative_shell()
                # support respects the sign-dependent path order
                if eps == "-":
                    assert is_below(alpha, beta)
                else:
                    assert is_below(beta, alpha)

    def test_minus_coefficients_are_monomials(self):
        for n in range(1, 8):
            mod = hecke.module(n, "-")
            for beta in product((1, -1), repeat=n):
                for alpha, coeff in mod.kl_basis(beta).items():
                    assert len(coeff.coeffs) == 1

    def test_small_values(self):
        # N=1: the non-trivial coefficient is t^-1 = -q^-1
        assert hecke.kl_poly((-1,), (1,), "-") == LaurentPoly({-1: -1})
        assert hecke.kl_poly((1,), (-1,), "+") == LaurentPoly({-1: -1})
        # N=2, eps=-: the starred cup has no constant-string component
        mod = hecke.module(2, "-")
        assert mod.kl_poly((-1, -1), (1, 1)) == ZERO
        assert mod.kl_poly((1, -1), (1, 1)) == LaurentPoly({-1: -1})

    def test_incomparable_is_zero(self):
        mod = hecke.module(3, "-")
        assert mod.kl_poly((1, -1, -1), (-1, 1, 1)) == ZERO

    def test_matrix_dump(self):
        mod = HeckeModule(2, "-")
        mat = mod.kl_matrix()
        assert mat[((-1, -1), (-1, -1))] == ONE
        assert all(not c.is_zero() for c in mat.values())
