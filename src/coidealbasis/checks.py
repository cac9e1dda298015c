"""The paper's properties as checks, one function per property.

Each function checks every case within its bounds exactly and returns a
CheckReport: the number of cases counted and the failed ones.  `coidealbasis
verify` runs them at small bounds, the acceptance suite at the release bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import ge

from . import ballot, basis, coideal, hecke
from .laurent import ONE, quantum_int, telescoping_identity_one, telescoping_identity_two
from .paths import Shape, all_shapes, eta_images, is_below
from .quantum import TensorVector, act_y, psi_iota


@dataclass
class CheckReport:
    count: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, case) -> None:
        self.count += 1
        if not ok:
            self.failures.append(case)


def telescoping_one(max_k: int, max_n: int, max_m: int) -> CheckReport:
    """The first telescoping identity, K <= max_k, n_i <= max_n, m_i <= max_m."""
    rep = CheckReport()
    for K in range(1, max_k + 1):
        for ns in product(range(0, max_n + 1), repeat=K):
            for ms in product(range(1, max_m + 1), repeat=K):
                rep.record(telescoping_identity_one(ns, ms), (ns, ms))
    return rep


def telescoping_two(max_k: int, max_xz: int, max_m: int) -> CheckReport:
    """The second telescoping identity, K <= max_k, x, z <= max_xz, m_i <= max_m."""
    rep = CheckReport()
    for K in range(1, max_k + 1):
        for x, z in product(range(0, max_xz + 1), repeat=2):
            for ms in product(range(1, max_m + 1), repeat=K):
                rep.record(telescoping_identity_two(x, z, ms), (x, z, ms))
    return rep


def strip_rules_match_kl(n: int) -> CheckReport:
    """Rule I and Rule II against the +/- parabolic KL oracle, n-step paths."""
    rep = CheckReport()
    modp, modm = hecke.module(n, "+"), hecke.module(n, "-")
    for a, b in product(product((1, -1), repeat=n), repeat=2):
        if is_below(b, a):
            rep.record(ballot.q_polynomial(a, b, "I", "+") == modp.kl_poly(a, b), ("I", a, b))
        if is_below(a, b):
            rep.record(ballot.rule2_weight_sum(a, b) == modm.kl_poly(a, b).subs_neg(), ("II", a, b))
    return rep


def inversion(max_sites: int, jobs: int = 1) -> CheckReport:
    """Rule I against Rule II inversion per shape; counts the path pairs."""
    rep = CheckReport()
    for shape in all_shapes(max_sites):
        inv = ballot.verify_inversion(shape, jobs=jobs)
        rep.count += inv.pairs_checked
        rep.failures += [(shape.m, f) for f in inv.failures]
    return rep


def transition_routes(max_sites: int) -> CheckReport:
    """Every transition-matrix route and the bilinear inversion; counts the shapes."""
    rep = CheckReport()
    for shape in all_shapes(max_sites):
        r = basis.r_matrices(shape, check_routes=True)
        rep.record(r.ok, (shape.m, r.route_failures[:3], r.inversion_failures[:3]))
    return rep


def ballot_matches_kl(max_sites: int) -> CheckReport:
    """The ballot upper matrix equals the projected KL one entry by entry
    (counted), and the KL lower one is the loose-rule function transposed."""
    rep = CheckReport()
    for shape in all_shapes(max_sites):
        images = eta_images(shape)
        lower_kl = basis.r_lower_hecke(shape)
        upper_ballot, upper_kl = basis.r_upper_ballot(shape), basis.r_upper_hecke(shape)
        rep.count += len(images) ** 2
        # (r, c, 0) for an upper failure and (r, c, 1) for a lower one sort
        # as the dense loop over all (r, c) pairs would report them; an
        # entry missing from a matrix is zero there
        bad = {(r, c, 0) for r, c in upper_ballot.entries.keys() | upper_kl.entries.keys()
               if upper_ballot.entry(r, c) != upper_kl.entry(r, c)}
        comparable = set()
        for (r, a, ha), (c, b, hb) in product(images, repeat=2):
            if all(map(ge, ha, hb)):  # a above b: comparable for the plus order
                comparable.add((r, c))
                # the plus-order function of (a, b) is by definition the
                # minus-order one of (b, a); asking for the latter shares
                # the strip memo with the inversion check
                lower = ONE if a == b else ballot.q_polynomial(b, a, "I", "-").subs_neg()
                if lower_kl.entry(r, c) != lower:
                    bad.add((r, c, 1))
        bad |= {(r, c, 1) for (r, c), v in lower_kl.entries.items() if (r, c) not in comparable and v}
        rep.failures += [(("upper", "lower")[kind], shape.m, r, c) for r, c, kind in sorted(bad)]
    return rep


def involutions_fix_bases(max_sites: int) -> CheckReport:
    """The twisted involutions fix the spade and club bases; counts the vectors."""
    rep = CheckReport()
    for shape in all_shapes(max_sites):
        for sign, vectors in (("-", basis.spade_vectors), ("+", basis.club_vectors)):
            for k, v in vectors(shape.m).items():
                rep.record(psi_iota(v, sign) == v, (sign, shape.m, k))
    return rep


def positivity(max_sites: int) -> CheckReport:
    """Hearts into spades and every two-part tensor split into spades: 1 on
    the diagonal, q^-1 N[q^-1] off it; counts the coefficients."""
    rep = CheckReport()
    for shape in all_shapes(max_sites):
        rows = [(l, row, shape.m) for l, row in basis.hearts_into_spades(shape).items()]
        for cut in range(1, len(shape.m)):
            s1, s2 = Shape(shape.m[:cut]), Shape(shape.m[cut:])
            tensor = basis.tensor_into_spades(s1, s2)
            rows += [(k + kp, row, (s1.m, s2.m)) for (k, kp), row in tensor.items()]
        for diagonal, row, case in rows:
            for k, c in row.items():
                ok = c.is_one() if k == diagonal else c.in_negative_shell() and c.has_nonneg_coeffs()
                rep.record(ok, (case, diagonal, k))
    return rep


def action_consistency(max_sites: int) -> CheckReport:
    """The Y-matrix entries are quantum integers, and the diagram action
    equals the module action through the spade basis; counts the vectors."""
    rep = CheckReport()
    for shape in all_shapes(max_sites):
        allowed = {quantum_int(i) for i in range(0, shape.total + 2)}
        y = coideal.y_matrix(shape)
        rep.failures += [(shape.m, rc, y[rc]) for rc in y if y[rc] not in allowed]
        spades = basis.spade_vectors(shape.m)
        for k, vec in spades.items():
            image = TensorVector.zero(shape.m, True)
            for coeff, d2 in coideal.y_on_diagram(basis.build_diagram(k, shape)):
                image = image + spades[d2.index()].scale(coeff)
            rep.record(image == act_y(vec), (shape.m, k))
    return rep


def spectra(shapes) -> CheckReport:
    """Eigenvalue multiplicities verified at q0 = 2; counts the shapes."""
    rep = CheckReport()
    for shape in shapes:
        spec = coideal.spectrum(shape)
        rep.record(spec.verified, (shape.m, spec.detail, spec.multiplicities))
    return rep


def eigenvector_routes(shapes) -> CheckReport:
    """Route agreement and the eigenvalue equation for the top eigenvector;
    counts its components, each positive, bar-symmetric, of degree d_k and
    leading coefficient 1."""
    rep = CheckReport()
    for shape in shapes:
        psi = coideal.psi_solve(shape)
        if not psi.ok:
            rep.failures.append((shape.m, psi.agreements, psi.eigen_ok))
        for k, v in psi.psi.components.items():
            kappa = basis.build_diagram(k, shape).kappa()
            d_k = sum(shape.total - i for i, step in enumerate(kappa) if step == 1)
            ok = v.has_nonneg_coeffs() and v.is_bar_symmetric()
            rep.record(ok and v.degree() == d_k and v.leading_coeff() == 1, (shape.m, k))
    return rep


def sum_table() -> CheckReport:
    """The reference table of q = 1 sums for m, L <= 3."""
    rep = CheckReport()
    table = coideal.sum_table(3, 3)
    rep.record(table == [[3, 10, 38], [8, 92, 1408], [21, 832, 52736]], table)
    return rep


def pell_rule(max_m: int) -> CheckReport:
    """The length-one sums are Pell(m+2) - 2^m for m <= max_m."""
    rep = CheckReport()
    for m in range(1, max_m + 1):
        rep.record(coideal.component_sum_at_one(m, 1) == coideal.pell_sum_value(m), m)
    return rep


def bishop_rule(max_length: int) -> CheckReport:
    """The unit-shape sums follow the bishop sequence for L <= max_length."""
    rep = CheckReport()
    for L in range(1, max_length + 1):
        rep.record(coideal.component_sum_at_one(1, L) == coideal.bishop_sequence(L + 1), L)
    return rep
