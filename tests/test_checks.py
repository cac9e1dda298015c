"""At small bounds each check counts as many cases as the loop it replaced, so
no check can quietly cover fewer (test_laurent.py pins the telescoping ones)."""

import pytest

from coidealbasis import checks, coideal
from coidealbasis.paths import Shape

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
