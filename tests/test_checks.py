"""At small bounds each check counts as many cases as the loop it replaced, so
no check can quietly cover fewer (test_laurent.py pins the telescoping ones)."""

from itertools import product

import pytest

from coidealbasis import ballot, basis, checks, coideal
from coidealbasis.basis import TransitionMatrix
from coidealbasis.laurent import ONE, ZERO
from coidealbasis.paths import Shape, all_shapes, eta, eta_images, is_below

COUNTS = [
    ("strip_rules_match_kl", (4,), 252),
    ("inversion", (4,), 577),
    ("transition_routes", (3,), 7),
    ("ballot_matches_kl", (4,), 1103),
    ("involutions_fix_bases", (3,), 66),
    ("positivity", (4,), 748),
    ("action_consistency", (4,), 115),
    ("spectra", ([Shape((1, 1, 1)), Shape((2, 2))],), 2),
    ("eigenvector_routes", ([Shape((1, 1)), Shape((2, 1))],), 10),
    ("sum_table", (), 1),
    ("pell_rule", (12,), 12),
    ("bishop_rule", (5,), 5),
]


@pytest.mark.parametrize("name, args, count", COUNTS, ids=[name for name, _, _ in COUNTS])
def test_count(name, args, count):
    rep = getattr(checks, name)(*args)
    assert rep.ok and rep.count == count, (rep.count, rep.failures[:3])


def test_failures_are_kept(monkeypatch):
    monkeypatch.setattr(coideal, "bishop_sequence", lambda n: 0)
    rep = checks.bishop_rule(3)
    assert rep.count == 3 and rep.failures == [1, 2, 3]


def _dense_ballot_failures(max_sites):
    """The failures of checks.ballot_matches_kl read from every (r, c)
    entry of the three matrices, zeros included, in loop order."""
    failures = []
    for shape in all_shapes(max_sites):
        lower_kl = basis.r_lower_hecke(shape)
        upper_ballot, upper_kl = basis.r_upper_ballot(shape), basis.r_upper_hecke(shape)
        for (r, a, _), (c, b, _) in product(eta_images(shape), repeat=2):
            if upper_ballot.entry(r, c) != upper_kl.entry(r, c):
                failures.append(("upper", shape.m, r, c))
            if a == b:
                lower = ONE
            elif is_below(b, a):
                lower = ballot.q_polynomial(b, a, "I", "-").subs_neg()
            else:
                lower = ZERO
            if lower_kl.entry(r, c) != lower:
                failures.append(("lower", shape.m, r, c))
    return failures


def _corrupt(monkeypatch, name, shape, changes):
    """Wrap basis.<name> so that on the shape the given entries are set,
    or removed where the value is None."""
    original = getattr(basis, name)

    def corrupted(s):
        matrix = original(s)
        if s.m != shape:
            return matrix
        entries = dict(matrix.entries)
        for key, value in changes.items():
            if value is None:
                del entries[key]
            else:
                entries[key] = value
        return TransitionMatrix(indices=matrix.indices, entries=entries)

    monkeypatch.setattr(basis, name, corrupted)


class TestBallotMatchesKl:
    SHAPE = (1, 2)
    # an incomparable pair: eta(r) lies neither above nor below eta(c)
    R, C = (-1, 2), (1, -2)

    def test_unstored_upper_entry_reported(self, monkeypatch):
        shape = Shape(self.SHAPE)
        a, b = eta(self.R, shape), eta(self.C, shape)
        assert not is_below(a, b) and not is_below(b, a)
        for name in ("r_lower_hecke", "r_upper_ballot", "r_upper_hecke"):
            assert (self.R, self.C) not in getattr(basis, name)(shape).entries
        _corrupt(monkeypatch, "r_upper_ballot", self.SHAPE, {(self.R, self.C): ONE})
        rep = checks.ballot_matches_kl(3)
        assert rep.count == 181 and rep.failures == [("upper", self.SHAPE, self.R, self.C)]

    def test_stored_zeros_are_zeros(self, monkeypatch):
        _corrupt(monkeypatch, "r_upper_hecke", self.SHAPE, {(self.R, self.C): ZERO})
        _corrupt(monkeypatch, "r_lower_hecke", self.SHAPE, {(self.R, self.C): ZERO})
        assert checks.ballot_matches_kl(3).failures == []

    def test_failures_in_dense_loop_order(self, monkeypatch):
        shape = Shape(self.SHAPE)
        upper = basis.r_upper_ballot(shape).entries
        lower = basis.r_lower_hecke(shape).entries
        stored_upper, stored_lower = sorted(upper)[-1], sorted(k for k in lower if k[0] != k[1])[0]
        _corrupt(monkeypatch, "r_upper_ballot", self.SHAPE,
                 {(self.R, self.C): ONE, (self.C, self.R): -ONE, stored_upper: upper[stored_upper] + ONE})
        _corrupt(monkeypatch, "r_lower_hecke", self.SHAPE,
                 {(self.R, self.C): ONE, (self.C, self.C): None, stored_lower: None})
        rep = checks.ballot_matches_kl(3)
        assert len(rep.failures) == 6 and rep.failures == _dense_ballot_failures(3)
