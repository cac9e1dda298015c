"""Arc diagrams and the four distinguished bases of tensor products.

A weight index k for a shape expands to a sign string; its diagram is built
by bracket-matching descending sites against later ascending sites (arcs),
starring the rightmost leftover descending site, pairing the remaining
leftover descents right-to-left into dashed arcs, and leaving at most one
unpaired descent.  Expanding the building blocks

    arc        ->  v^-1 v^+1  -  q^-1 v^+1 v^-1
    dashed arc ->  v^-1 v^-1  -  q^-1 v^+1 v^+1
    starred    ->  v^-1       -  q^-1 v^+1
    ascent     ->  v^+1          (descent left plain: v^-1)

and projecting blockwise yields the dual basis fixed by the minus-twisted
coideal involution; `spade_diagram_vector` is the production route for it and
the triangular bar-invariance solves are the independent oracles.  The plus
side (`club_vectors`) has no diagram calculus and is produced by the solve.

Transition matrices to the standard bases are computed along three
independent routes (pairings/diagrams, parabolic Kazhdan-Lusztig polynomials,
strip generating functions), which the tests and the verification suite
compare entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPoly, ONE, ZERO, add_term
from .paths import Shape, eta, eta_images, kappa_string, kappa_to_index
from .quantum import TensorVector, project, psi_iota, psi_pm
from . import hecke


@dataclass(frozen=True)
class Diagram:
    """The arc data of a dual canonical basis element.

    Sites are numbered from 1.  The five site classes (arc endpoints, dashed
    endpoints, the starred site, the unpaired descent, free ascents)
    partition the sites.
    """

    shape: tuple
    ups: frozenset
    arcs: frozenset  # pairs (i, j), i < j: descent at i arcs to ascent at j
    dashed: frozenset  # pairs (i, j), i < j, both descents
    star: int | None
    unpaired: int | None

    @property
    def n_sites(self) -> int:
        return sum(self.shape)

    def kappa(self):
        """The underlying sign string."""
        kappa = [1] * self.n_sites
        for i, j in self.arcs:
            kappa[i - 1] = -1
        for i, j in self.dashed:
            kappa[i - 1] = -1
            kappa[j - 1] = -1
        if self.star is not None:
            kappa[self.star - 1] = -1
        if self.unpaired is not None:
            kappa[self.unpaired - 1] = -1
        return tuple(kappa)

    def index(self):
        """Blockwise sums of the sign string: the weight index."""
        return kappa_to_index(self.kappa(), Shape(self.shape))

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "ups": sorted(self.ups),
            "arcs": sorted([list(a) for a in self.arcs]),
            "dashed": sorted([list(a) for a in self.dashed]),
            "star": self.star,
            "unpaired": self.unpaired,
        }

    def render(self) -> str:
        """One character per site: ( ) for arcs, { } for dashed arcs, * for
        the starred descent, v for the unpaired descent, ^ for ascents;
        block boundaries are marked with |."""
        chars = {}
        for i in self.ups:
            chars[i] = "^"
        for i, j in self.arcs:
            chars[i], chars[j] = "(", ")"
        for i, j in self.dashed:
            chars[i], chars[j] = "{", "}"
        if self.star is not None:
            chars[self.star] = "*"
        if self.unpaired is not None:
            chars[self.unpaired] = "v"
        out = []
        pos = 1
        for m in self.shape:
            out.append("".join(chars[pos + t] for t in range(m)))
            pos += m
        return "|".join(out)


def diagram_from_string(kappa, shape: Shape) -> Diagram:
    """Apply the matching rules to a sign string."""
    kappa = tuple(kappa)
    if len(kappa) != shape.total:
        raise ValueError("string length does not match shape")
    arcs = []
    stack = []
    ups = []
    for pos, s in enumerate(kappa, start=1):
        if s == -1:
            stack.append(pos)
        else:
            if stack:
                arcs.append((stack.pop(), pos))
            else:
                ups.append(pos)
    downs = sorted(stack)
    star = downs[-1] if downs else None
    rest = downs[:-1]
    dashed = []
    while len(rest) >= 2:
        a = rest.pop()
        b = rest.pop()
        dashed.append((b, a))
    unpaired = rest[0] if rest else None
    return Diagram(
        shape=shape.m,
        ups=frozenset(ups),
        arcs=frozenset(arcs),
        dashed=frozenset(dashed),
        star=star,
        unpaired=unpaired,
    )


def build_diagram(k, shape: Shape) -> Diagram:
    """The diagram of the dual canonical basis element labelled by k."""
    return diagram_from_string(kappa_string(k, shape), shape)


def _expand_blocks(n_sites, pieces) -> TensorVector:
    """Tensor together local building blocks: each piece assigns signs to its
    sites through a list of (sign assignment, coefficient) alternatives; the
    pieces must cover every site exactly once."""
    covered = sorted(s for sites, _ in pieces for s in sites)
    if covered != list(range(1, n_sites + 1)):
        raise ArithmeticError("pieces must tile the sites")
    results = {}

    def rec(i, acc, coeff):
        if i == len(pieces):
            add_term(results, tuple(acc), coeff)
            return
        sites, alternatives = pieces[i]
        for assignment, c in alternatives:
            for s, val in zip(sites, assignment):
                acc[s - 1] = val
            rec(i + 1, acc, coeff * c)

    rec(0, [0] * n_sites, ONE)
    return TensorVector((1,) * n_sites, True, results)


MINUS_QINV = -LaurentPoly.q_power(-1)


def _arc_pieces(d: Diagram):
    """The building blocks of the free ascents and the arcs of a diagram."""
    pieces = [((i,), [((1,), ONE)]) for i in sorted(d.ups)]
    for i, j in sorted(d.arcs):
        pieces.append(((i, j), [((-1, 1), ONE), ((1, -1), MINUS_QINV)]))
    return pieces


def expand_diagram(d: Diagram) -> TensorVector:
    """Expand a diagram into the dual standard basis of its shape."""
    pieces = _arc_pieces(d)
    for i, j in sorted(d.dashed):
        pieces.append(((i, j), [((-1, -1), ONE), ((1, 1), MINUS_QINV)]))
    if d.star is not None:
        pieces.append(((d.star,), [((-1,), ONE), ((1,), MINUS_QINV)]))
    if d.unpaired is not None:
        pieces.append(((d.unpaired,), [((-1,), ONE)]))
    upstairs = _expand_blocks(d.n_sites, pieces)
    return project(upstairs, Shape(d.shape))


def heart_vector(k, shape: Shape) -> TensorVector:
    """Dual canonical element of the full quantum group, by diagram: the arcs
    and ascents of the coideal diagram, every other site a plain descent."""
    d = build_diagram(k, shape)
    pieces = _arc_pieces(d)
    covered = set(d.ups).union(*d.arcs)
    for i in range(1, d.n_sites + 1):
        if i not in covered:
            pieces.append(((i,), [((-1,), ONE)]))
    upstairs = _expand_blocks(d.n_sites, pieces)
    return project(upstairs, shape)


def spade_diagram_vector(k, shape: Shape) -> TensorVector:
    """Dual canonical element of the coideal, by diagram (production route)."""
    return expand_diagram(build_diagram(k, shape))


# ---------------------------------------------------------------------------
# triangular bar-invariance solves
# ---------------------------------------------------------------------------


def _linear_key(k):
    """A linear extension of the partial-sum order: the tuple of prefix sums."""
    out = []
    s = 0
    for x in k:
        s += x
        out.append(s)
    return tuple(out)


def solve_fixed_basis(shape: Shape, involution, dual: bool, direction: str):
    """The unique involution-fixed unitriangular basis.

    For direction '+' corrections run toward indices below in the partial-sum
    order (ascending prefix-sum keys are processed first); for '-' the order
    is reversed.  Returns a dict index -> TensorVector.
    """
    idx = shape.indices()
    sign = 1 if direction == "+" else -1
    order = sorted(idx, key=lambda k: tuple(sign * t for t in _linear_key(k)))
    basis = {}
    rank = {k: i for i, k in enumerate(order)}
    for k in order:
        current = TensorVector.basis(shape.m, k, dual)
        # defect = involution(current) - current.  The involution is
        # antilinear and fixes every finished element, so adding
        # corr * basis[t] to current changes the defect by
        # -(corr - bar(corr)) * basis[t]; the image is formed once.
        defect = involution(current) - current
        while not defect.is_zero():
            target = max(defect.terms, key=rank.__getitem__)
            if rank[target] >= rank[k]:
                raise ArithmeticError("defect escaped the triangular block")
            r = defect.terms[target]
            corr = r.negative_part()
            if corr - corr.bar() != r:
                raise ArithmeticError("defect coefficient is not bar-antisymmetric")
            current = current + basis[target].scale(corr)
            defect = defect + basis[target].scale(-r)
        basis[k] = current
    return basis


@lru_cache(maxsize=None)
def spade_vectors(shape_m) -> dict:
    """All minus-side coideal dual canonical elements, via diagrams."""
    shape = Shape(shape_m)
    return {k: spade_diagram_vector(k, shape) for k in shape.indices()}


@lru_cache(maxsize=None)
def spade_vectors_solved(shape_m) -> dict:
    """The same basis from the bar-invariance characterisation (oracle)."""
    shape = Shape(shape_m)
    return solve_fixed_basis(shape, lambda v: psi_iota(v, "-"), dual=True, direction="-")


@lru_cache(maxsize=None)
def club_vectors(shape_m) -> dict:
    """Plus-side coideal canonical basis, in the lower standard basis."""
    shape = Shape(shape_m)
    return solve_fixed_basis(shape, lambda v: psi_iota(v, "+"), dual=False, direction="+")


@lru_cache(maxsize=None)
def heart_vectors(shape_m) -> dict:
    shape = Shape(shape_m)
    return {k: heart_vector(k, shape) for k in shape.indices()}


@lru_cache(maxsize=None)
def heart_vectors_solved(shape_m) -> dict:
    shape = Shape(shape_m)
    return solve_fixed_basis(shape, lambda v: psi_pm(v, "-"), dual=True, direction="-")


@lru_cache(maxsize=None)
def diamond_vectors(shape_m) -> dict:
    """Lower canonical basis of the full quantum group (plus-twisted solve)."""
    shape = Shape(shape_m)
    return solve_fixed_basis(shape, lambda v: psi_pm(v, "+"), dual=False, direction="+")


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


@dataclass
class TransitionMatrix:
    """Square array of coefficients indexed by weight tuples in lex order."""

    indices: tuple
    entries: dict  # (row, col) -> LaurentPoly

    def entry(self, row, col) -> LaurentPoly:
        return self.entries.get((tuple(row), tuple(col)), ZERO)

    def to_json(self) -> dict:
        return {
            "indices": [list(k) for k in self.indices],
            "entries": [
                {"row": list(r), "col": list(c), "value": v.to_json()}
                for (r, c), v in sorted(self.entries.items())
            ],
        }

    def csv_rows(self):
        head = [""] + [" ".join(map(str, c)) for c in self.indices]
        yield head
        for r in self.indices:
            yield [" ".join(map(str, r))] + [str(self.entry(r, c)) for c in self.indices]


def _matrix_from_vectors(shape: Shape, vectors: dict) -> TransitionMatrix:
    idx = tuple(shape.indices())
    entries = {}
    for col, vec in vectors.items():
        for row, c in vec.terms.items():
            entries[(row, col)] = c
    return TransitionMatrix(indices=idx, entries=entries)


def r_lower_hecke(shape: Shape) -> TransitionMatrix:
    """Expansion of the plus-side basis over the lower standard basis, from
    the parabolic Kazhdan-Lusztig oracle evaluated at plain q^-1."""
    images = eta_images(shape)
    index_of = {path: k for k, path, _ in images}
    mod = hecke.module(shape.total, "+")
    entries = {}
    for col, beta, _ in images:
        for alpha, p in mod.kl_basis(beta).items():
            row = index_of.get(alpha)
            if row is not None and not p.is_zero():
                entries[(row, col)] = p.subs_neg()
    return TransitionMatrix(indices=tuple(shape.indices()), entries=entries)


def r_lower_club(shape: Shape) -> TransitionMatrix:
    """The same matrix from the plus-side solve (pairing route)."""
    return _matrix_from_vectors(shape, club_vectors(shape.m))


def r_upper_spade(shape: Shape) -> TransitionMatrix:
    """Expansion of the minus-side basis over the dual standard basis, from
    the diagram route."""
    return _matrix_from_vectors(shape, spade_vectors(shape.m))


def r_upper_ballot(shape: Shape) -> TransitionMatrix:
    """The same matrix from strip generating functions (tight stacking rule),
    evaluated at plain q^-1."""
    from .ballot import rule2_rows

    index_of = {path: k for k, path, _ in eta_images(shape)}
    entries = {
        (index_of[alpha], index_of[beta]): v.subs_neg()
        for alpha, row in rule2_rows(shape).items()
        for beta, v in row.items()
    }
    return TransitionMatrix(indices=tuple(shape.indices()), entries=entries)


def r_upper_hecke(shape: Shape) -> TransitionMatrix:
    """The same matrix via Kazhdan-Lusztig expansion of the length-N string
    basis followed by blockwise projection (independent of both the diagram
    and the strip routes)."""
    idx = tuple(shape.indices())
    mod = hecke.module(shape.total, "-")
    one_shape = Shape((1,) * shape.total)
    entries = {}
    for col in idx:
        kappa = kappa_string(col, shape)
        expansion = mod.kl_basis(eta(kappa, one_shape))
        vec_terms = {}
        for gamma, coeff in expansion.items():
            # gamma is the eta image of the sign string it came from; the
            # stored coefficient (with t = -q) is already the polynomial
            # value the string expansion requires
            kappa_row = tuple(-s for s in gamma)
            vec_terms[kappa_row] = coeff
        upstairs = TensorVector((1,) * shape.total, True, vec_terms)
        downstairs = project(upstairs, shape)
        for row, c in downstairs.terms.items():
            entries[(row, col)] = c
    return TransitionMatrix(indices=idx, entries=entries)


@dataclass
class RMatrixReport:
    shape: tuple
    lower: TransitionMatrix
    upper: TransitionMatrix
    route_failures: list
    inversion_failures: list

    @property
    def ok(self):
        return not self.route_failures and not self.inversion_failures


def _columns(mat: TransitionMatrix) -> dict:
    """The matrix as sparse columns: col -> {row: entry}."""
    cols = {}
    for (row, col), v in mat.entries.items():
        cols.setdefault(col, {})[row] = v
    return cols


def r_matrices(shape: Shape, check_routes: bool = True) -> RMatrixReport:
    """Both transition matrices with cross-route and inversion checks.

    The lower matrix defaults to the Kazhdan-Lusztig route and the upper one
    to the diagram route; with check_routes the ballot, solve and projected
    KL routes are compared against them, and the bilinear inversion
    sum_k lower[k, l] upper[k, l'] = delta is verified.
    """
    idx = tuple(shape.indices())
    lower = r_lower_hecke(shape)
    upper = r_upper_spade(shape)
    route_failures = []
    if check_routes:
        for name, ref, other in (
            ("lower/club-solve", lower, r_lower_club(shape)),
            ("upper/ballot", upper, r_upper_ballot(shape)),
            ("upper/projected-kl", upper, r_upper_hecke(shape)),
        ):
            # an entry missing from both matrices is zero in both
            for r, c in sorted(ref.entries.keys() | other.entries.keys()):
                if ref.entry(r, c) != other.entry(r, c):
                    route_failures.append((name, r, c))
    lower_cols, upper_cols = _columns(lower), _columns(upper)
    inversion_failures = []
    for l in idx:
        lower_col = lower_cols.get(l, {})
        for lp in idx:
            upper_col = upper_cols.get(lp, {})
            total = ZERO
            for k, a in lower_col.items():
                b = upper_col.get(k)
                if b is not None:
                    total = total + a * b
            expected = ONE if l == lp else ZERO
            if total != expected:
                inversion_failures.append((l, lp, total))
    return RMatrixReport(
        shape=shape.m,
        lower=lower,
        upper=upper,
        route_failures=route_failures,
        inversion_failures=inversion_failures,
    )


# ---------------------------------------------------------------------------
# decompositions between the bases
# ---------------------------------------------------------------------------


def _decompose_over(vec: TensorVector, target_basis: dict, order_sign: int) -> dict:
    """Coefficients of vec over a unitriangular target basis, by elimination
    along the prefix-sum order."""
    remaining = vec
    coeffs = {}
    while not remaining.is_zero():
        pick = max(
            remaining.terms,
            key=lambda t: tuple(order_sign * u for u in _linear_key(t)),
        )
        c = remaining.terms[pick]
        coeffs[pick] = c
        remaining = remaining - target_basis[pick].scale(c)
    return coeffs


def hearts_into_spades(shape: Shape) -> dict:
    """Coefficients of each full-group dual canonical element over the
    coideal ones: map l -> {k: coefficient}."""
    spades = spade_vectors(shape.m)
    out = {}
    for l, hv in heart_vectors(shape.m).items():
        out[l] = _decompose_over(hv, spades, order_sign=-1)
    return out


def spades_into_hearts(shape: Shape) -> dict:
    hearts = heart_vectors(shape.m)
    out = {}
    for l, sv in spade_vectors(shape.m).items():
        out[l] = _decompose_over(sv, hearts, order_sign=-1)
    return out


def tensor_into_spades(shape1: Shape, shape2: Shape) -> dict:
    """Decompose (full-group dual canonical) x (coideal dual canonical) over
    the coideal basis of the combined shape: (k, k') -> {(l, l'): coeff}."""
    combined = Shape(shape1.m + shape2.m)
    spades = spade_vectors(combined.m)
    n1 = len(shape1.m)
    out = {}
    for k, hv in heart_vectors(shape1.m).items():
        for kp, sv in spade_vectors(shape2.m).items():
            terms = {}
            for i1, c1 in hv.terms.items():
                for i2, c2 in sv.terms.items():
                    terms[i1 + i2] = c1 * c2
            vec = TensorVector(combined.m, True, terms)
            out[(k, kp)] = _decompose_over(vec, spades, order_sign=-1)
    return out
