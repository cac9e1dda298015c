import hashlib
from itertools import product

import pytest

from coidealbasis import ballot, checks, clear_caches, hecke
from coidealbasis.ballot import (
    StripConfig,
    enumerate_configs,
    q_polynomial,
    render_config,
    rule1_configs,
    rule2_configs,
    rule2_rows,
    rule2_tilings,
    rule2_weight_sum,
    skew_region,
    verify_inversion,
)
from coidealbasis.laurent import LaurentPoly, ONE, ZERO
from coidealbasis.paths import Shape, all_shapes, eta, eta_images, is_below, parse_path


def t_pows(*exps):
    out = LaurentPoly()
    for e in exps:
        out = out + LaurentPoly.t_power(e)
    return out


class TestRegions:
    def test_region_size_is_area_difference(self):
        from coidealbasis.paths import area

        for a in product((1, -1), repeat=5):
            for b in product((1, -1), repeat=5):
                if is_below(a, b):
                    assert len(skew_region(a, b)) == area(a) - area(b)

    def test_incomparable_rejected(self):
        with pytest.raises(ValueError):
            skew_region(parse_path("+-"), parse_path("-+"))


class TestLooseRule:
    def test_reference_example(self):
        a, b = parse_path("--++-+"), parse_path("++++++")
        configs = rule1_configs(a, b)
        assert len(configs) == 5
        assert q_polynomial(a, b, "I", "-") == t_pows(-13, -11, -9, -9, -5)

    def test_equal_paths(self):
        a = parse_path("-+-+")
        assert q_polynomial(a, a, "I", "-") == ONE
        assert enumerate_configs(a, a, "I", "-") == [StripConfig(strips=())]

    def test_incomparable_raises_on_every_call(self):
        # the check runs inside the memo, which does not store the exception
        ballot._q_polynomial_cached.cache_clear()
        a, b = parse_path("+--+"), parse_path("-++-")
        for eps in ("-", "-", "+", "+"):
            with pytest.raises(ValueError, match="not comparable"):
                q_polynomial(a, b, "I", eps)
        assert ballot._q_polynomial_cached.cache_info().currsize == 0

    def test_oracle_agreement(self):
        # loose stacking at eps=+ reproduces the plus parabolic KL polynomials
        for n in range(1, 6):
            mod = hecke.module(n, "+")
            for a in product((1, -1), repeat=n):
                for b in product((1, -1), repeat=n):
                    if is_below(b, a):
                        assert q_polynomial(a, b, "I", "+") == mod.kl_poly(a, b)


class TestTightRule:
    def test_reference_example(self):
        shape = Shape((2, 2, 2, 2))
        a, b = parse_path("-+-+-+-+"), parse_path("++++++--")
        configs = rule2_configs(a, b, shape)
        assert len(configs) == 2
        assert sorted(len(c.p_units) for c in configs) == [1, 3]
        assert q_polynomial(a, b, "II", "-", shape) == t_pows(-3, -5)

    def test_tiling_unique_per_projection_choice(self):
        shape = Shape((2, 2, 2, 2))
        a, b = parse_path("-+-+-+-+"), parse_path("++++++--")
        # exercised internally by rule2_configs; repeated here explicitly
        for g in [a]:
            assert len(rule2_tilings(g, b)) <= 1

    def test_non_unique_tiling_raises(self, monkeypatch):
        # an earlier test may have memoised this pair already
        ballot.rule2_tilings.cache_clear()
        monkeypatch.setattr(ballot._Search, "run", lambda self: [(), ()])
        with pytest.raises(ArithmeticError, match="not unique"):
            rule2_tilings(parse_path("--"), parse_path("++"))

    def test_oracle_agreement(self):
        # tiling weight equals the minus parabolic KL polynomial with its
        # argument negated, for every comparable pair
        for n in range(1, 6):
            mod = hecke.module(n, "-")
            for g in product((1, -1), repeat=n):
                for b in product((1, -1), repeat=n):
                    if is_below(g, b):
                        assert rule2_weight_sum(g, b) == mod.kl_poly(g, b).subs_neg()

    def test_no_projection_domain_for_unit_blocks(self):
        shape = Shape((1, 1, 1))
        a = eta((-1, -1, -1), shape)
        b = eta((1, 1, 1), shape)
        for c in rule2_configs(a, b, shape):
            assert not c.p_units

    def test_no_projection_domain_when_paths_agree(self):
        from coidealbasis.paths import zeta

        shape = Shape((2, 2))
        k = (2, 2)
        a = eta(k, shape)
        assert zeta(k, shape) == a  # extreme index: both encodings agree
        b = eta((0, 2), shape)
        for c in rule2_configs(a, b, shape):
            assert not c.p_units

    def test_rows_equal_configuration_route(self):
        # the product route against the per-pair enumeration it replaced,
        # on every comparable pair of eta images, zeros included
        for shape in all_shapes(5):
            rows = rule2_rows(shape)
            images = eta_images(shape)
            for _, a, _ in images:
                assert set(rows[a]) <= {c for _, c, _ in images if is_below(a, c)}
                for _, c, _ in images:
                    if is_below(a, c):
                        assert rows[a].get(c, ZERO) == q_polynomial(a, c, "II", "-", shape), (shape, a, c)

    def test_shape_required(self):
        with pytest.raises(ValueError):
            q_polynomial(parse_path("-+"), parse_path("+-"), "II", "-")


class TestSearch:
    def test_tilings_digest(self):
        # every tiling of every comparable pair of distinct paths of 1..6
        # steps under both rules, in search order, hashed as the copying
        # search that this one replaced produced them
        h, searches = hashlib.sha256(), 0
        for n in range(1, 7):
            paths = sorted(product((1, -1), repeat=n))
            for a in paths:
                for b in paths:
                    if a != b and is_below(a, b):
                        for rule in ("I", "II"):
                            tilings = ballot._Search(skew_region(a, b), n, rule).run()
                            h.update(repr((a, b, rule, [[s.boxes for s in t] for t in tilings])).encode())
                            searches += 1
        assert searches == 4452
        assert h.hexdigest() == "39094edc058c62d10dd7c05f59d515f7ac6f08c9a812ebc7c98b044a5aefe4fd"

    def test_run_undoes_its_state(self):
        for n in range(1, 5):
            paths = list(product((1, -1), repeat=n))
            for a in paths:
                for b in paths:
                    if a != b and is_below(a, b):
                        for rule in ("I", "II"):
                            search = ballot._Search(skew_region(a, b), n, rule)
                            search.run()
                            assert search.boxes == search.start == search.shadow == search.above == []
                            assert search.boxmap == {}

    def test_failed_contact_check_undoes_its_links(self, monkeypatch):
        # here a column check sets an above link and then fails; a link left
        # set would reject the one tiling, found in a sibling branch
        a, b = parse_path("-+-+-"), parse_path("+++--")
        failed_with_links = []
        original = ballot._Search._contacts_ok

        def recorded(self, x, log):
            ok = original(self, x, log)
            if not ok and log:
                failed_with_links.append(x)
            return ok

        monkeypatch.setattr(ballot._Search, "_contacts_ok", recorded)
        tilings = ballot._Search(skew_region(a, b), 5, "II").run()
        assert failed_with_links
        assert [[s.boxes for s in t] for t in tilings] == [[((1, 0), (2, 1), (3, 2), (4, 1), (5, 0)), ((3, 0),)]]


class TestTranspose:
    def test_transpose_symmetry(self):
        for n in range(1, 6):
            for a in product((1, -1), repeat=n):
                for b in product((1, -1), repeat=n):
                    if is_below(a, b):
                        assert q_polynomial(b, a, "I", "+") == q_polynomial(a, b, "I", "-")


class TestInversion:
    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 2)])
    def test_inversion(self, shape):
        rep = verify_inversion(Shape(shape))
        assert rep.ok, rep.failures

    @staticmethod
    def _bottom_top(shape):
        order = sorted(eta_images(shape), key=lambda t: sum(t[2]))
        return order[0][1], order[-1][1]

    def test_corrupted_entry_is_reported(self, monkeypatch):
        # one wrong Rule II entry: only the product entry (bottom, top)
        # changes, by the Rule I diagonal entry 1 times the added 1
        shape = Shape((2, 2))
        bottom, top = self._bottom_top(shape)
        original = ballot.rule2_rows

        def corrupted(shape):
            rows = original(shape)
            rows[bottom][top] = rows[bottom].get(top, ZERO) + ONE
            return rows

        monkeypatch.setattr(ballot, "rule2_rows", corrupted)
        rep = verify_inversion(shape)
        assert rep.pairs_checked == 43
        assert rep.failures == [(bottom, top, ONE)]

    def test_corrupted_rule1_entry_is_reported(self, monkeypatch):
        shape = Shape((2, 2))
        bottom, top = self._bottom_top(shape)
        original = ballot.q_polynomial

        def corrupted(alpha, beta, rule, eps, shape=None):
            value = original(alpha, beta, rule, eps, shape)
            return value + ONE if (alpha, beta, rule) == (bottom, top, "I") else value

        monkeypatch.setattr(ballot, "q_polynomial", corrupted)
        rep = verify_inversion(shape)
        assert rep.pairs_checked == 43
        assert rep.failures == [(bottom, top, ONE)]

    def test_process_pool_matches_serial(self):
        shape = Shape((2, 1, 1))
        serial, pooled = verify_inversion(shape), verify_inversion(shape, jobs=2)
        assert (pooled.pairs_checked, pooled.failures) == (serial.pairs_checked, serial.failures)

    def test_one_rule2_search_per_path_pair(self, monkeypatch):
        ballot._q_polynomial_cached.cache_clear()
        ballot.rule2_tilings.cache_clear()
        rules, pairs = [], set()
        search_init, tilings = ballot._Search.__init__, ballot.rule2_tilings

        def recorded_init(self, region, last_col, rule):
            rules.append(rule)
            search_init(self, region, last_col, rule)

        def recorded_tilings(gamma, beta):
            pairs.add((gamma, beta))
            return tilings(gamma, beta)

        monkeypatch.setattr(ballot._Search, "__init__", recorded_init)
        monkeypatch.setattr(ballot, "rule2_tilings", recorded_tilings)
        assert checks.inversion(5).ok
        assert 0 < rules.count("II") <= len(pairs)

    def test_diagonal_term(self):
        shape = Shape((2, 2))
        a = eta((0, 0), shape)
        assert q_polynomial(a, a, "I", "-", shape) * q_polynomial(a, a, "II", "-", shape) == ONE


class TestClearCaches:
    def test_memos_emptied_and_results_kept(self):
        shape = Shape((2, 1, 1))
        report = verify_inversion(shape)
        hecke.kl_poly(parse_path("-+"), parse_path("+-"), "-")
        sizes = clear_caches()
        assert {
            "ballot._q_polynomial_cached", "ballot.rule2_tilings", "basis.spade_vectors",
            "basis.spade_vectors_solved", "basis.club_vectors", "basis.heart_vectors",
            "basis.heart_vectors_solved", "basis.diamond_vectors", "hecke._MODULES",
            "paths.heights", "paths._eta_images", "laurent.cyclotomic",
            "laurent.quantum_int_factored", "laurent.two_cosh_factored",
        } <= set(sizes)
        for name in ("ballot._q_polynomial_cached", "ballot.rule2_tilings", "hecke._MODULES", "paths.heights"):
            assert sizes[name] > 0, name
        assert not any(clear_caches().values())
        assert ballot._q_polynomial_cached.cache_info().currsize == 0
        assert verify_inversion(shape) == report


class TestRendering:
    def test_render_covers_all_boxes(self):
        a, b = parse_path("--++-+"), parse_path("++++++")
        config = rule1_configs(a, b)[0]
        text = render_config(config, 6)
        assert sum(ch not in ". \n" for ch in text) == len(skew_region(a, b))

    def test_json(self):
        a, b = parse_path("--++-+"), parse_path("++++++")
        config = rule1_configs(a, b)[0]
        data = config.to_json()
        assert "strips" in data and "p_units" in data
