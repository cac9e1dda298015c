"""The coideal generator on dual canonical bases and its eigensystem.

The generator Y = F + q^-1 KE + K acts on a diagram by arcing consecutive
free ascents, flipping the last ascent into the descent structure, and
flipping the unpaired descent back up, with quantum-integer coefficients.
The resulting matrix has eigenvalue [j] with multiplicity given by counting
diagrams by their case type, and the top eigenvector (eigenvalue [L+1] for L
total sites) has polynomial components with positive bar-symmetric
coefficients.  Those components are computed along four independent routes:

  * the diagram action formula solved as a linear system (ordered sparse
    elimination over the rational-function field),
  * the proof's induction along the action graph (explicit one- and
    two-dimensional steps),
  * the transition matrix applied to the explicit standard-basis
    eigenvector, and
  * a closed product formula over the diagram's arcs, dashed arcs, star and
    ascents.

Route agreement, positivity and the evaluation at q = 1 (the sum rules
against Pell-type integer sequences) are what the acceptance suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import prod

from .laurent import (
    CyclotomicProduct,
    LaurentPoly,
    RationalFn,
    ZERO,
    add_term,
    quantum_int,
    quantum_int_factored,
    two_cosh_factored,
)
from .paths import Shape
from .basis import Diagram, build_diagram, diagram_from_string, r_lower_hecke
from .quantum import TensorVector, project

# ---------------------------------------------------------------------------
# Y on standard bases
# ---------------------------------------------------------------------------


def y_on_standard(vec: TensorVector) -> TensorVector:
    """The sign-string action formula: on a dual basis vector of V_1 factors,
    Y flips each letter with weight q^(partial sum before it) and adds the
    diagonal term weighted by the full sum."""
    if vec.shape != (1,) * len(vec.shape) or not vec.dual:
        raise ValueError("the string formula acts on dual vectors of V_1 factors")
    out: dict = {}
    for kappa, coeff in vec.terms.items():
        d = 0
        for i, s in enumerate(kappa):
            flipped = kappa[:i] + (-s,) + kappa[i + 1 :]
            add_term(out, flipped, coeff.shift(d))
            d += s
        add_term(out, kappa, coeff.shift(d))
    return TensorVector(vec.shape, True, out)


# ---------------------------------------------------------------------------
# Y on diagrams
# ---------------------------------------------------------------------------


def _has_intra_block_arc(d: Diagram) -> bool:
    bounds = []
    pos = 0
    for m in d.shape:
        bounds.append((pos + 1, pos + m))
        pos += m
    for i, j in d.arcs:
        for a, b in bounds:
            if a <= i and j <= b:
                return True
    return False


def y_on_diagram(d: Diagram):
    """Y applied to a dual canonical basis diagram: list of (coefficient,
    diagram) pairs.  Terms whose rebuilt diagram closes an arc inside one
    projector block vanish and are omitted."""
    shape = Shape(d.shape)
    kappa = d.kappa()
    ups = sorted(d.ups)
    terms = []

    def flipped(site):
        i = site - 1
        return kappa[:i] + (-kappa[i],) + kappa[i + 1 :]

    for i, site in enumerate(ups, start=1):
        d2 = diagram_from_string(flipped(site), shape)
        if not _has_intra_block_arc(d2):
            terms.append((quantum_int(i), d2))
    n_up = len(ups)
    if d.star is None:
        terms.append((quantum_int(n_up + 1), d))
    elif d.unpaired is not None:
        d2 = diagram_from_string(flipped(d.unpaired), shape)
        if _has_intra_block_arc(d2):
            raise ArithmeticError("flipping the unpaired descent closed an arc inside a block")
        terms.append((quantum_int(n_up + 1), d2))
    return terms


def case_number(d: Diagram) -> int:
    """The signed integer classifying a diagram's eigenvalue: ascents+1 when
    there is no star, ascents when starred without an unpaired descent, and
    minus (ascents+1) when both star and unpaired descent are present."""
    n_up = len(d.ups)
    if d.star is None:
        return n_up + 1
    if d.unpaired is None:
        return n_up
    return -(n_up + 1)


def y_matrix(shape: Shape):
    """Matrix of Y on the dual canonical basis: dict (row, col) -> entry."""
    entries = {}
    for k in shape.indices():
        for coeff, d2 in y_on_diagram(build_diagram(k, shape)):
            row = d2.index()
            key = (row, k)
            entries[key] = entries.get(key, ZERO) + coeff
    return entries


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


@dataclass
class EigenReport:
    shape: tuple
    dimension: int
    multiplicities: dict  # j -> M_j
    q0: Fraction
    verified: bool
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "shape": list(self.shape),
            "dimension": self.dimension,
            "multiplicities": {str(j): m for j, m in sorted(self.multiplicities.items())},
            "q0": str(self.q0),
            "verified": self.verified,
            "kernel_dims": {str(j): m for j, m in sorted(self.detail.items())},
        }


def _check_generic_point(q0: Fraction, bound: int = 25):
    """The evaluation point must separate quantum integers up to the bound."""
    vals = {}
    for i in range(-bound, bound + 1):
        v = quantum_int(i).evaluate(q0)
        if v in vals and vals[v] != i:
            raise ValueError(f"evaluation point {q0} collides [{vals[v]}] with [{i}]")
        vals[v] = i


def _kernel_dimension(rows, n):
    """Rank-nullity over exact rationals; rows are dense Fraction lists."""
    mat = [row[:] for row in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    while col < n and rank < nrows:
        piv = None
        for r in range(rank, nrows):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        for r in range(rank + 1, nrows):
            if mat[r][col] != 0:
                f = mat[r][col] / inv
                row = mat[r]
                prow = mat[rank]
                for c in range(col, n):
                    row[c] -= f * prow[c]
        rank += 1
        col += 1
    return n - rank


def spectrum(shape: Shape, q0=Fraction(2)) -> EigenReport:
    """Case-count multiplicities, verified against exact kernel dimensions of
    the evaluated matrix at a collision-free rational point."""
    q0 = Fraction(q0)
    _check_generic_point(q0, bound=max(25, shape.total + 2))
    idx = shape.indices()
    mult = {}
    for k in idx:
        j = case_number(build_diagram(k, shape))
        mult[j] = mult.get(j, 0) + 1
    entries = y_matrix(shape)
    pos = {k: i for i, k in enumerate(idx)}
    n = len(idx)
    base = [[Fraction(0)] * n for _ in range(n)]
    for (r, c), v in entries.items():
        base[pos[r]][pos[c]] += v.evaluate(q0)
    detail = {}
    ok = sum(mult.values()) == n
    for j, m in sorted(mult.items()):
        lam = quantum_int(j).evaluate(q0)
        rows = [row[:] for row in base]
        for i in range(n):
            rows[i][i] -= lam
        dim = _kernel_dimension(rows, n)
        detail[j] = dim
        if dim != m:
            ok = False
    if sum(detail.values()) != n:
        ok = False
    return EigenReport(
        shape=shape.m,
        dimension=n,
        multiplicities=mult,
        q0=q0,
        verified=ok,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# the top eigenvector: four routes
# ---------------------------------------------------------------------------


@dataclass
class PsiVector:
    shape: tuple
    components: dict  # index -> LaurentPoly

    def to_json(self):
        return {
            "shape": list(self.shape),
            "components": [
                {"index": list(k), "value": v.to_json()}
                for k, v in sorted(self.components.items())
            ],
        }


def _rows_for_eigenproblem(shape: Shape):
    entries = y_matrix(shape)
    idx = shape.indices()
    lam = quantum_int(shape.total + 1)
    rows = {k: {} for k in idx}
    for (r, c), v in entries.items():
        rows[r][c] = rows[r].get(c, ZERO) + v
    for k in idx:
        rows[k][k] = rows[k].get(k, ZERO) - lam
        rows[k] = {c: v for c, v in rows[k].items() if not v.is_zero()}
    return rows


def _normalise(shape: Shape, values: dict) -> PsiVector:
    bottom = tuple(-m for m in shape.m)
    scale = values[bottom]
    if scale.is_zero():
        raise ArithmeticError("bottom component vanished; not the top eigenvector")
    comps = {}
    for k, v in values.items():
        comps[k] = (v / scale).reduced().as_poly()
    return PsiVector(shape=shape.m, components=comps)


def psi_by_elimination(shape: Shape) -> PsiVector:
    """Nullspace of (Y - [L+1]) by sparse Gaussian elimination over the
    rational-function field, eliminating variables in descending
    lexicographic order."""
    rows = _rows_for_eigenproblem(shape)
    order = sorted(shape.indices(), reverse=True)
    work = {
        k: {c: RationalFn.from_poly(v) for c, v in row.items()}
        for k, row in rows.items()
    }
    rows_list = list(work.values())
    solved_value = {}
    for var in order[:-1]:
        pivot = None
        best = None
        for row in rows_list:
            coeff = row.get(var)
            if coeff is not None and coeff:
                if best is None or len(row) < best:
                    pivot, best = row, len(row)
        if pivot is None:
            continue
        rows_list.remove(pivot)
        pc = pivot[var]
        reduced_pivot = {c: (v / pc).reduced() for c, v in pivot.items() if c != var}
        solved_value[var] = reduced_pivot  # var = -sum(reduced_pivot * others)
        for row in rows_list:
            coeff = row.pop(var, None)
            if coeff is None or not coeff:
                continue
            for c, v in reduced_pivot.items():
                cur = row.get(c, RationalFn.from_int(0)) - (coeff * v)
                cur = cur.reduced()
                if cur:
                    row[c] = cur
                else:
                    row.pop(c, None)
    free = order[-1]
    values = {free: RationalFn.from_int(1)}
    for var in reversed(order[:-1]):
        expr = solved_value.get(var)
        if expr is None:
            values[var] = RationalFn.from_int(0)
            continue
        total = RationalFn.from_int(0)
        for c, v in expr.items():
            total = total - v * values[c]
        values[var] = total.reduced()
    return _normalise(shape, values)


def psi_by_graph(shape: Shape) -> PsiVector:
    """The proof's induction: resolve components from the lexicographic top
    down, one vertex at a time when its inflow is known, or jointly with the
    star-pairing partner when the two components feed each other."""
    rows = _rows_for_eigenproblem(shape)
    idx = shape.indices()
    top = tuple(shape.m)
    lam = quantum_int(shape.total + 1)
    values = {top: RationalFn.from_int(1)}
    unresolved = set(idx) - {top}
    while unresolved:
        progress = False
        for k in sorted(unresolved, reverse=True):
            row = rows[k]
            missing = [c for c in row if c != k and c not in values]
            if not missing:
                inflow = RationalFn.from_int(0)
                for c, v in row.items():
                    if c != k:
                        inflow = inflow + RationalFn.from_poly(v) * values[c]
                diag = row.get(k, -lam)  # includes the -[L+1] shift
                values[k] = (-(inflow) / RationalFn.from_poly(diag)).reduced()
                unresolved.discard(k)
                progress = True
            elif len(missing) == 1:
                p = missing[0]
                if p not in unresolved:
                    continue
                prow = rows[p]
                pmissing = [c for c in prow if c != p and c not in values and c != k]
                if pmissing:
                    continue
                # two mutually feeding components: solve the 2x2 block
                a_kk = RationalFn.from_poly(row.get(k, -lam))
                a_kp = RationalFn.from_poly(row.get(p, ZERO))
                a_pp = RationalFn.from_poly(prow.get(p, -lam))
                a_pk = RationalFn.from_poly(prow.get(k, ZERO))
                in_k = RationalFn.from_int(0)
                for c, v in row.items():
                    if c not in (k, p):
                        in_k = in_k + RationalFn.from_poly(v) * values[c]
                in_p = RationalFn.from_int(0)
                for c, v in prow.items():
                    if c not in (k, p):
                        in_p = in_p + RationalFn.from_poly(v) * values[c]
                det = a_kk * a_pp - a_kp * a_pk
                if not det:
                    continue
                values[k] = ((a_kp * in_p - a_pp * in_k) / det).reduced()
                values[p] = ((a_pk * in_k - a_kk * in_p) / det).reduced()
                unresolved.discard(k)
                unresolved.discard(p)
                progress = True
        if not progress:
            raise RuntimeError("action graph did not resolve; structure violated")
    return _normalise(shape, values)


def psi0_components(shape: Shape) -> dict:
    """The explicit standard-basis eigenvector pushed through the projection:
    on a sign string each ascent at site i contributes q^(N+1-i)."""
    n = shape.total
    terms = {}
    for kappa in product((1, -1), repeat=n):
        e = sum(n + 1 - (i + 1) for i, s in enumerate(kappa) if s == 1)
        terms[kappa] = LaurentPoly.q_power(e)
    upstairs = TensorVector((1,) * n, True, terms)
    return dict(project(upstairs, shape).terms)


def psi_by_transition(shape: Shape) -> PsiVector:
    """The top eigenvector as (transition matrix)^T applied to the projected
    standard-basis eigenvector; no reference to the action of Y."""
    psi0 = psi0_components(shape)
    rmat = r_lower_hecke(shape)
    comps = {}
    for j in shape.indices():
        total = ZERO
        for k in shape.indices():
            c = rmat.entry(k, j)
            if not c.is_zero():
                total = total + c * psi0.get(k, ZERO)
        comps[j] = total
    return PsiVector(shape=shape.m, components=comps)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


@dataclass
class ClosedFormData:
    """The ingredients of the product formula for one diagram.

    pieces maps each named piece of the formula, in formula order, to its
    (numerator, denominator) lists of symbolic factors, each ("qint", n) or
    ("cosh", i) standing for the quantum integer [n] or q^i + q^-i; the named
    quantities record the intermediate counts for inspection.
    """

    n2: int
    n3: int
    n4: int
    pieces: dict

    @property
    def numerator(self) -> list:
        return [f for num, _ in self.pieces.values() for f in num]

    @property
    def denominator(self) -> list:
        return [f for _, den in self.pieces.values() for f in den]

    def value(self) -> LaurentPoly:
        return (_factored(self.numerator) / _factored(self.denominator)).expand()

    def value_at_one(self) -> int:
        # [n] is n at q = 1 and q^i + q^-i is 2
        num = den = 1
        for nums, dens in self.pieces.values():
            for kind, n in nums:
                num *= n if kind == "qint" else 2
            for kind, n in dens:
                den *= n if kind == "qint" else 2
        quot, rem = divmod(num, den)
        if rem:
            raise ArithmeticError("closed form is not integral at q = 1")
        return quot

    def piece_value(self, name: str) -> RationalFn:
        num, den = self.pieces[name]
        return RationalFn(_factored(num).expand(), _factored(den).expand())


def _factored(factors) -> CyclotomicProduct:
    """The product of symbolic factors, ("qint", n) = [n] and ("cosh", i) = q^i + q^-i."""
    return prod(
        (quantum_int_factored(n) if kind == "qint" else two_cosh_factored(n) for kind, n in factors),
        start=CyclotomicProduct(1),
    )


def closed_form_data(d: Diagram) -> ClosedFormData:
    """Assemble the product formula for a diagram on unit blocks."""
    if d.shape != (1,) * len(d.shape):
        raise ValueError("the closed form applies to diagrams on unit blocks; "
                         "strip the projector blocks first")
    n = d.n_sites
    arcs = sorted(d.arcs)
    dashed = sorted(d.dashed)
    star = d.star
    unpaired = d.unpaired
    n1 = 1 if unpaired is not None else 0

    def size(pair):
        return (pair[1] - pair[0] + 1) // 2

    # the three arc zones, defined only when a star is present
    if star is not None:
        s_r = [a for a in arcs if a[0] > star]
        rest = [a for a in arcs if a not in s_r]
        if n1:
            ref = unpaired
        else:
            ref = min((k for k, _ in dashed), default=None)
        s_m = [a for a in rest if ref is not None and a[0] > ref]
        rest2 = [a for a in rest if a not in s_m]
        if d.ups:
            rightmost_up = max(d.ups)
            s_l = [a for a in rest2 if a[0] > rightmost_up]
        else:
            s_l = rest2
    else:
        s_r, s_m, s_l = [], [], []

    def outer(a):
        return not any(b[0] < a[0] and a[1] < b[1] for b in arcs + dashed if b != a)

    s_r_plus = [a for a in s_r if outer(a)]
    s_m_plus = [a for a in s_m if outer(a)]
    s_l_plus = [a for a in s_l if outer(a)]

    n2 = len(arcs) if star is None else len(arcs) + len(dashed) + 1
    n3 = len(s_m) + len(dashed)
    n4 = n - len(arcs) + len(s_r) + len(s_m) + len(s_l) + 1

    pieces = {}  # name -> (numerator, denominator), in formula order

    # overall arc-size prefactor
    pieces["prefactor"] = ([], [("qint", size(a)) for a in arcs])

    # starred ratio (only without an unpaired descent)
    if star is not None and n1 == 0:
        pieces["n5"] = ([("qint", n4)], [("qint", n3 + 1)])
    else:
        pieces["n5"] = ([], [])

    # boundary ratio over the outer arcs of the middle and left zones
    zone = s_m_plus if n1 else (s_l_plus + s_m_plus)
    ln, ld = [], []
    for a in zone:
        m_a = size(a)
        d1 = n - a[1]
        ln.append(("qint", 1 + m_a + d1))
        ld.append(("qint", 1 + 2 * m_a + d1))
    pieces["n6"] = (ln, ld)

    # right-zone ratio; the counts c_b depend only on the middle zone
    c_bs = [
        1
        + sum(1 for a2 in s_m if a2 != b and a2[0] > b[1])
        + sum(1 for a2 in s_m if a2 != b and a2[0] < b[0] and b[1] < a2[1])
        + sum(1 for t in dashed if t[0] > b[1])
        for b in s_m
    ]
    ln, ld = [], []
    for a in s_r_plus:
        m_a = size(a)
        d2 = (a[0] - star + 1) // 2
        for i in range(n3 + 1):
            ln.append(("qint", d2 + i))
            ld.append(("qint", d2 + m_a + i))
        for c_b in c_bs:
            ln.append(("qint", d2 + m_a + c_b))
            ld.append(("qint", d2 + c_b))
    pieces["n7"] = (ln, ld)

    # dashed-arc ratio
    tlist = dashed if n1 else dashed[1:]
    ld = []
    for a in tlist:
        d3 = (star - a[1] + 1) // 2
        ld.append(("qint", d3 + size(a)))
    pieces["n8"] = ([], ld)

    # symmetric-factor ratio
    ln = [("cosh", i) for i in range(1, n - n2 + 1)]
    ld = []
    if star is not None:
        ld.append(("cosh", 1 + (n - star) // 2))
        for a in dashed:
            ld.append(("cosh", 1 + (n - a[0]) // 2))
    pieces["n9"] = (ln, ld)

    # the left-to-right object numbering
    objects = []
    for i in sorted(d.ups):
        objects.append(("up", i))
    if unpaired is not None:
        objects.append(("unpaired", unpaired))
    for a in arcs:
        objects.append(("arc", a[0], a))
    for a in dashed:
        objects.append(("dashed", a[0], a))
    objects.sort(key=lambda o: o[1])
    ln = []
    for number, obj in enumerate(objects, start=1):
        if obj[0] in ("arc", "dashed"):
            ln.append(("qint", number))
        elif obj[0] == "unpaired":
            ln.append(("qint", number))
    pieces["n10"] = (ln, [])

    return ClosedFormData(n2=n2, n3=n3, n4=n4, pieces=pieces)


def strip_blocks(d: Diagram) -> Diagram:
    """The same arrow structure on unit blocks (projectors removed)."""
    if d.shape == (1,) * d.n_sites:
        return d
    return Diagram(
        shape=(1,) * d.n_sites,
        ups=d.ups,
        arcs=d.arcs,
        dashed=d.dashed,
        star=d.star,
        unpaired=d.unpaired,
    )


def psi_closed_form(d: Diagram) -> LaurentPoly:
    """The component of the top eigenvector attached to a diagram, by the
    product formula (projector blocks are irrelevant and removed)."""
    return closed_form_data(strip_blocks(d)).value()


def psi_by_closed_form(shape: Shape) -> PsiVector:
    comps = {}
    for k in shape.indices():
        comps[k] = psi_closed_form(build_diagram(k, shape))
    return PsiVector(shape=shape.m, components=comps)


@dataclass
class PsiReport:
    shape: tuple
    psi: PsiVector
    routes: dict
    agreements: dict
    eigen_ok: bool

    @property
    def ok(self):
        return self.eigen_ok and all(self.agreements.values())


def psi_solve(shape: Shape, routes=("elimination", "graph", "transition", "closed")) -> PsiReport:
    """Compute the normalised top eigenvector along the requested routes,
    compare them componentwise, and verify the eigenvalue equation."""
    computed = {}
    for name in routes:
        if name == "elimination":
            computed[name] = psi_by_elimination(shape)
        elif name == "graph":
            computed[name] = psi_by_graph(shape)
        elif name == "transition":
            computed[name] = psi_by_transition(shape)
        elif name == "closed":
            computed[name] = psi_by_closed_form(shape)
        else:
            raise ValueError(f"unknown route {name!r}")
    names = list(computed)
    ref = computed[names[0]]
    agreements = {}
    for name in names[1:]:
        agreements[f"{names[0]}=={name}"] = (
            computed[name].components == ref.components
        )
    # the eigenvalue equation, symbolically
    entries = y_matrix(shape)
    lam = quantum_int(shape.total + 1)
    image = {}
    for (r, c), v in entries.items():
        if c in ref.components:
            image[r] = image.get(r, ZERO) + v * ref.components[c]
    eigen_ok = all(
        image.get(k, ZERO) == lam * ref.components[k] for k in shape.indices()
    )
    return PsiReport(
        shape=shape.m, psi=ref, routes=computed, agreements=agreements, eigen_ok=eigen_ok
    )


# ---------------------------------------------------------------------------
# sum rules
# ---------------------------------------------------------------------------


def component_sum_at_one(m: int, length: int) -> int:
    """Sum of all top-eigenvector components at q = 1 for the constant shape
    (m, ..., m) of the given length, via the closed form.

    The diagrams are built on unit blocks straight from the sign strings:
    block i of the string of the weight index k is (m + k_i) / 2 copies of
    +1 followed by the rest as -1, for each of the (m + 1)^length indices."""
    unit = Shape((1,) * (m * length))
    blocks = [(1,) * up + (-1,) * (m - up) for up in range(m + 1)]
    return sum(
        closed_form_data(diagram_from_string(chain.from_iterable(kappa), unit)).value_at_one()
        for kappa in product(blocks, repeat=length)
    )


def pell(n: int) -> int:
    """Pell numbers with the standard seeds P_0 = 0, P_1 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def pell_sum_value(m: int) -> int:
    """The length-one sum rule: Pell(m+2) - 2^m."""
    return pell(m + 2) - 2 ** m


def bishop_sequence(n: int) -> int:
    """The integer sequence with a(1) = 1, a(2) = 3 and
    a(n) = 2 a(n-1) + (2n-2) a(n-2), conjecturally counting symmetric bishop
    arrangements; the unit sum rule matches its shifted values."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    vals = [None, 1, 3]
    for i in range(3, n + 1):
        vals.append(2 * vals[i - 1] + (2 * i - 2) * vals[i - 2])
    return vals[n]


def sum_table(max_m: int, max_length: int):
    """Rows m = 1..max_m, columns L = 1..max_length of the q = 1 sums."""
    return [
        [component_sum_at_one(m, L) for L in range(1, max_length + 1)]
        for m in range(1, max_m + 1)
    ]
