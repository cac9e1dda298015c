import pytest
from hypothesis import given, settings, strategies as st

from coidealbasis.basis import (
    build_diagram,
    club_vectors,
    diagram_from_string,
    diamond_vectors,
    expand_diagram,
    heart_vectors,
    heart_vectors_solved,
    hearts_into_spades,
    r_matrices,
    r_upper_ballot,
    r_upper_spade,
    spade_vectors,
    spade_vectors_solved,
    spades_into_hearts,
    tensor_into_spades,
)
from coidealbasis.laurent import LaurentPoly, ONE, ZERO, q_binomial
from coidealbasis.paths import Shape, eta_images, index_le, is_below
from coidealbasis.quantum import pairing, psi_iota, psi_pm


def _composition(cuts):
    """The block sizes of a row of sites cut after site i wherever cuts[i]."""
    sizes, run = [], 1
    for cut in cuts:
        if cut:
            sizes.append(run)
            run = 0
        run += 1
    return tuple(sizes + [run])


# random compositions of 1..6 sites
COMPOSITIONS = st.integers(0, 5).flatmap(lambda n: st.lists(st.booleans(), min_size=n, max_size=n)).map(_composition)

SMALL_SHAPES = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 2), (1, 1, 1), (2, 2), (1, 1, 1, 1)]


class TestDiagramConstruction:
    def test_single_up_then_downs(self):
        d = diagram_from_string((1, -1, -1, -1), Shape((1, 1, 1, 1)))
        assert d.ups == frozenset({1})
        assert d.dashed == frozenset({(2, 3)})
        assert d.star == 4
        assert d.unpaired is None

    def test_single_arc(self):
        d = diagram_from_string((-1, 1), Shape((1, 1)))
        assert d.arcs == frozenset({(1, 2)})
        assert d.star is None

    def test_reference_diagram(self):
        d = build_diagram((1, 0, -2), Shape((3, 4, 4)))
        assert d.ups == frozenset({1, 2, 5})
        assert d.arcs == frozenset({(3, 4), (7, 8)})
        assert d.dashed == frozenset({(9, 10)})
        assert d.star == 11
        assert d.unpaired == 6
        assert d.index() == (1, 0, -2)
        assert d.render() == "^^(|)^v(|){}*"

    def test_site_classes_partition(self):
        for m in SMALL_SHAPES:
            s = Shape(m)
            for k in s.indices():
                d = build_diagram(k, s)
                sites = sorted(d.ups) + [i for a in d.arcs for i in a]
                sites += [i for a in d.dashed for i in a]
                sites += [x for x in (d.star, d.unpaired) if x is not None]
                assert sorted(sites) == list(range(1, s.total + 1))

    def test_arcs_noncrossing(self):
        for m in SMALL_SHAPES:
            s = Shape(m)
            for k in s.indices():
                d = build_diagram(k, s)
                pairs = sorted(d.arcs | d.dashed)
                for (a, b) in pairs:
                    for (c, e) in pairs:
                        if a < c < b:
                            assert e < b, f"crossing pairs in {d.render()}"


class TestExpansion:
    def test_two_block_example(self):
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

    def test_all_up_is_pure_tensor(self):
        s = Shape((2, 3))
        v = expand_diagram(build_diagram((2, 3), s))
        assert v.terms == {(2, 3): ONE}

    def test_unitriangular(self):
        for m in SMALL_SHAPES:
            s = Shape(m)
            for k, v in spade_vectors(m).items():
                assert v.coeff(k) == ONE
                for l, c in v.terms.items():
                    if l != k:
                        assert index_le(l, k, "-")
                        assert c.in_negative_shell()


class TestSolvedBases:
    @pytest.mark.parametrize("m", SMALL_SHAPES + [(1, 1, 1, 1, 1), (2, 1, 2)])
    def test_spade_diagram_equals_solve(self, m):
        dv, sv = spade_vectors(m), spade_vectors_solved(m)
        assert all(dv[k] == sv[k] for k in dv)

    @pytest.mark.parametrize("m", SMALL_SHAPES + [(1, 1, 1, 1, 1), (2, 1, 2)])
    def test_heart_diagram_equals_solve(self, m):
        dv, sv = heart_vectors(m), heart_vectors_solved(m)
        assert all(dv[k] == sv[k] for k in dv)

    @pytest.mark.parametrize("m", [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)])
    def test_fixed_by_involutions(self, m):
        for k, v in spade_vectors(m).items():
            assert psi_iota(v, "-") == v
        for k, v in club_vectors(m).items():
            assert psi_iota(v, "+") == v
        for k, v in heart_vectors(m).items():
            assert psi_pm(v, "-") == v
        for k, v in diamond_vectors(m).items():
            assert psi_pm(v, "+") == v

    def test_club_triangular(self):
        for m in SMALL_SHAPES:
            for k, v in club_vectors(m).items():
                assert v.coeff(k) == ONE
                for l, c in v.terms.items():
                    if l != k:
                        assert index_le(l, k, "+")
                        assert c.in_negative_shell()

    def test_club_two_site_example(self):
        cv = club_vectors((1, 1))
        v = cv[(-1, 1)]
        assert v.coeff((-1, 1)) == ONE
        # the correction lies in the strictly-below lattice
        for l, c in v.terms.items():
            if l != (-1, 1):
                assert c.in_negative_shell()

    @pytest.mark.parametrize("m", SMALL_SHAPES)
    def test_duality(self, m):
        s = Shape(m)
        cv, sv = club_vectors(m), spade_vectors(m)
        for k in s.indices():
            for l in s.indices():
                expected = ONE if k == l else ZERO
                assert pairing(cv[k], sv[l]) == expected

    def test_club_from_projection(self):
        # the plus-side basis is also the blockwise projection of the basis
        # on unit blocks (cross-check of the solve)
        from coidealbasis.paths import kappa_string
        from coidealbasis.quantum import project_lower

        for m in [(2,), (2, 1), (3,), (2, 2)]:
            s = Shape(m)
            upstairs = club_vectors((1,) * s.total)
            for k, v in club_vectors(m).items():
                kappa = kappa_string(k, s)
                assert project_lower(upstairs[kappa], s) == v


class TestTransitionMatrices:
    @pytest.mark.parametrize("m", [(1, 1), (2,), (2, 1), (1, 1, 1), (2, 2), (3, 1)])
    def test_all_routes_and_inversion(self, m):
        rep = r_matrices(Shape(m), check_routes=True)
        assert rep.ok, (rep.route_failures[:3], rep.inversion_failures[:3])

    def test_corrupted_entries_reported_as_dense_loops(self, monkeypatch):
        # one wrong entry in the ballot route and one in the upper matrix:
        # the reports equal those of the dense idx x idx loops, order included
        from coidealbasis import basis

        s = Shape((2, 1))
        idx = s.indices()

        def corrupted(route, row, col):
            def wrapped(shape):
                mat = route(shape)
                mat.entries[(row, col)] = mat.entry(row, col) + ONE
                return mat

            return wrapped

        monkeypatch.setattr(basis, "r_upper_ballot", corrupted(basis.r_upper_ballot, (0, -1), (0, 1)))
        monkeypatch.setattr(basis, "r_upper_spade", corrupted(basis.r_upper_spade, (-2, 1), (2, -1)))
        rep = r_matrices(s, check_routes=True)
        routes = [
            ("lower/club-solve", rep.lower, basis.r_lower_club(s)),
            ("upper/ballot", rep.upper, basis.r_upper_ballot(s)),
            ("upper/projected-kl", rep.upper, basis.r_upper_hecke(s)),
        ]
        dense_routes = [
            (name, r, c)
            for name, ref, other in routes
            for r in idx
            for c in idx
            if ref.entry(r, c) != other.entry(r, c)
        ]
        dense_inversion = []
        for l in idx:
            for lp in idx:
                total = sum((rep.lower.entry(k, l) * rep.upper.entry(k, lp) for k in idx), ZERO)
                if total != (ONE if l == lp else ZERO):
                    dense_inversion.append((l, lp, total))
        assert len(rep.route_failures) == 3 and rep.inversion_failures
        assert rep.route_failures == dense_routes
        assert rep.inversion_failures == dense_inversion

    @settings(max_examples=40, deadline=None)
    @given(COMPOSITIONS)
    def test_ballot_route_equals_pairwise_rebuild(self, m):
        # the Rule II rows against one configuration enumeration per pair
        from coidealbasis.ballot import q_polynomial

        s = Shape(m)
        images = eta_images(s)
        rebuilt = {}
        for col, beta, _ in images:
            for row, alpha, _ in images:
                if is_below(alpha, beta):
                    val = q_polynomial(alpha, beta, "II", "-", s).subs_neg()
                    if val:
                        rebuilt[(row, col)] = val
        assert r_upper_ballot(s).entries == rebuilt

    def test_diagonal_ones(self):
        s = Shape((2, 2))
        rep = r_matrices(s, check_routes=False)
        for k in s.indices():
            assert rep.lower.entry(k, k) == ONE
            assert rep.upper.entry(k, k) == ONE

    def test_two_block_entries_from_expansion(self):
        # columns of the upper matrix are the expansions themselves
        m = (3, 3)
        s = Shape(m)
        upper = r_upper_spade(s)
        v = spade_vectors(m)[(-1, -1)]
        for k in s.indices():
            assert upper.entry(k, (-1, -1)) == v.coeff(k)

    def test_kl_factorisation_of_plus_polys(self):
        # summing the plus KL polynomials over the fibre between the two path
        # encodings of an index, weighted by the area shift, reproduces the
        # q-binomial multiple of the polynomial at the lower encoding
        from coidealbasis import hecke
        from coidealbasis.paths import area, eta, paths_between, zeta

        for m in [(2,), (1, 1), (2, 1), (3,), (2, 2), (3, 3), (2, 2, 2), (4, 1, 1)]:
            s = Shape(m)
            mod = hecke.module(s.total, "+")
            for l in s.indices():
                alpha, alpha_p = eta(l, s), zeta(l, s)
                binom = ONE
                for mi, li in zip(s.m, l):
                    binom = binom * q_binomial(mi, (mi - li) // 2)
                for k in s.indices():
                    beta = eta(k, s)
                    lhs = mod.kl_poly(alpha, beta).subs_neg()
                    total = ZERO
                    for gamma in paths_between(alpha, alpha_p):
                        term = mod.kl_poly(gamma, beta).subs_neg()
                        total = total + term.shift(area(gamma) - area(alpha_p))
                    assert total == lhs * binom


class TestDecompositions:
    @pytest.mark.parametrize("m", [(1, 1), (2,), (2, 1), (1, 1, 1), (2, 2)])
    def test_hearts_into_spades_positive(self, m):
        for l, row in hearts_into_spades(Shape(m)).items():
            assert row[l] == ONE
            for k, c in row.items():
                if k != l:
                    assert c.in_negative_shell() and c.has_nonneg_coeffs()

    def test_trivial_when_no_dashed_structure(self):
        # with at most one descent per expansion the two bases coincide
        s = Shape((1, 1))
        dec = hearts_into_spades(s)
        assert dec[(-1, 1)] == {(-1, 1): ONE}
        assert dec[(1, 1)] == {(1, 1): ONE}

    @pytest.mark.parametrize("m", [(1, 1), (2,), (1, 1, 1), (2, 1)])
    def test_round_trip(self, m):
        s = Shape(m)
        fwd = hearts_into_spades(s)
        back = spades_into_hearts(s)
        idx = s.indices()
        for a in idx:
            for b in idx:
                total = ZERO
                for mid, c in fwd[a].items():
                    c2 = back[mid].get(b)
                    if c2 is not None:
                        total = total + c * c2
                assert total == (ONE if a == b else ZERO)

    def test_tensor_positive(self):
        for m1, m2 in [((1,), (1,)), ((1, 1), (1,)), ((2,), (1,)), ((1,), (2, 1))]:
            for (k, kp), row in tensor_into_spades(Shape(m1), Shape(m2)).items():
                assert row[k + kp] == ONE
                for l, c in row.items():
                    if l != k + kp:
                        assert c.in_negative_shell() and c.has_nonneg_coeffs()
