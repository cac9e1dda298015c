"""Representation calculus for quantum sl2 and its coideal subalgebra.

Tensor products of the irreducible modules V_m carry two standard bases: the
weight basis v_k ("lower") and its dual v^k with respect to the symmetric
pairing normalised at the highest weight.  On V_1 the two coincide, which is
why all heavy constructions are done in V_1 tensor powers and pushed through
the projections to general shapes.

The module provides the generator actions for both comultiplications, the
quasi-R-matrix, the plain and twisted bar involutions, and the intertwiner
series that corrects the bar involution on modules restricted to the coideal
subalgebra generated by X = E + qFK^-1 + K^-1 (dually Y = F + q^-1 KE + K).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .laurent import (
    LaurentPoly,
    ONE,
    Q,
    QINV,
    ZERO,
    add_term,
    quantum_factorial,
    quantum_int,
)
from .paths import Shape

Q_MINUS_QINV = Q - QINV


@dataclass
class TensorVector:
    """A finitely supported vector in a tensor product of irreducibles.

    terms maps a weight-index tuple (k_1, ..., k_n), with |k_i| <= m_i and
    k_i = m_i mod 2, to its coefficient.  dual selects which standard basis
    the indices refer to.
    """

    shape: tuple
    dual: bool
    terms: dict

    def __post_init__(self):
        self.terms = {k: c for k, c in self.terms.items() if not c.is_zero()}

    @staticmethod
    def basis(shape, index, dual: bool) -> "TensorVector":
        return TensorVector(tuple(shape), dual, {tuple(index): ONE})

    @staticmethod
    def zero(shape, dual: bool) -> "TensorVector":
        return TensorVector(tuple(shape), dual, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.shape != other.shape or self.dual != other.dual:
            raise ValueError("cannot add vectors of different shapes or bases")
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return TensorVector(self.shape, self.dual, out)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.from_int(-1))

    def scale(self, c) -> "TensorVector":
        if isinstance(c, int):
            c = LaurentPoly.from_int(c)
        if c.is_zero():
            return TensorVector(self.shape, self.dual, {})
        return TensorVector(self.shape, self.dual, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, TensorVector)
            and self.shape == other.shape
            and self.dual == other.dual
            and self.terms == other.terms
        )

    def coeff(self, index) -> LaurentPoly:
        return self.terms.get(tuple(index), ZERO)

    def bar_coeffs(self) -> "TensorVector":
        return TensorVector(self.shape, self.dual, {k: c.bar() for k, c in self.terms.items()})

    def map_coeffs(self, fn) -> "TensorVector":
        return TensorVector(self.shape, self.dual, {k: fn(c) for k, c in self.terms.items()})

    def exact_div(self, d: LaurentPoly) -> "TensorVector":
        return self.map_coeffs(lambda c: c.exact_div(d))

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "basis": "dual" if self.dual else "lower",
            "terms": [
                {"index": list(k), "coeff": c.to_json()}
                for k, c in sorted(self.terms.items())
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        marker = "^" if self.dual else "_"
        parts = []
        for k in sorted(self.terms, reverse=True):
            parts.append(f"({self.terms[k]}) v{marker}{list(k)}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# generator actions through the comultiplication
# ---------------------------------------------------------------------------


def _act_factor(gen: str, dual: bool, m: int, a: int):
    """E or F on the basis vector of weight a in V_m: (new weight, [n]), or
    None when the image is zero."""
    if gen == "E":
        if a + 2 > m:
            return None
        return a + 2, quantum_int((m - a) // 2 if dual else (m + a) // 2 + 1)
    if a - 2 < -m:
        return None
    return a - 2, quantum_int((m + a) // 2 if dual else (m - a) // 2 + 1)


def act(gen: str, vec: TensorVector, cop: str, lo: int = 0, hi: int = None) -> TensorVector:
    """Act by a generator through the iterated comultiplication Delta_cop on
    the factor range [lo, hi).

    K and K^-1 are grouplike: they multiply each coefficient by q^w and
    q^-w, w the weight of the range.  E and F act on one factor i per term,
    times K's on the factors [lo, i) for (E, '+') and (F, '-'), or K^-1's on
    (i, hi) for (E, '-') and (F, '+'); those K's see weights the E or F
    leaves alone, so a term is one image times one q-shift."""
    if gen not in ("E", "F", "K", "Kinv"):
        raise ValueError(f"unknown generator {gen!r}")
    if hi is None:
        hi = len(vec.shape)
    if gen in ("K", "Kinv"):
        sign = 1 if gen == "K" else -1
        terms = {k: c.shift(sign * sum(k[lo:hi])) for k, c in vec.terms.items()}
        return TensorVector(vec.shape, vec.dual, terms)
    out: dict = {}
    left = (gen == "E") == (cop == "+")
    for k, c in vec.terms.items():
        total = sum(k[lo:hi])
        w = 0  # weight of the factors [lo, i)
        for i in range(lo, hi):
            a = k[i]
            image = _act_factor(gen, vec.dual, vec.shape[i], a)
            if image is not None:
                shift = w if left else w + a - total
                add_term(out, k[:i] + (image[0],) + k[i + 1 :], (c * image[1]).shift(shift))
            w += a
    return TensorVector(vec.shape, vec.dual, out)


def divided_powers(gen: str, vec: TensorVector, cop: str, lo: int = 0, hi: int = None):
    """Yield gen^(0) vec, gen^(1) vec, ... for the divided powers
    gen^(k) = gen^k / [k]! through the comultiplication, stopping at the
    first zero.  Each power is the previous one acted on once and divided by
    [k]; the division is exact on the integral form, and exact_div raises if
    it is not."""
    k = 0
    while not vec.is_zero():
        yield vec
        k += 1
        vec = act(gen, vec, cop, lo, hi).exact_div(quantum_int(k))


# ---------------------------------------------------------------------------
# quasi-R-matrix
# ---------------------------------------------------------------------------


def _theta_ranges(vec, sign, f_lo, f_hi, e_lo, e_hi) -> TensorVector:
    """One quasi-R-matrix factor: the series of paired divided powers acting
    on two disjoint factor ranges."""
    total = vec
    left_gen, right_gen = ("F", "E") if sign == "+" else ("E", "F")
    lefts = islice(divided_powers(left_gen, vec, sign, f_lo, f_hi), 1, None)
    for k, term in enumerate(lefts, start=1):
        term = next(islice(divided_powers(right_gen, term, sign, e_lo, e_hi), k, None), None)
        if term is None:
            break
        # (-1)^k q^{-k(k-1)/2} (q - q^-1)^k / [k]!  acting via F^k x E^k,
        # rewritten through divided powers (one factorial survives)
        fact = quantum_factorial(k) * (Q_MINUS_QINV ** k)
        tri = k * (k - 1) // 2
        if sign == "+":
            fact = fact.shift(-tri)
            if k % 2:
                fact = -fact
        else:
            fact = fact.shift(tri)
        total = total + term.scale(fact)
    return total


def theta(vec: TensorVector, sign: str, split: int) -> TensorVector:
    """The quasi-R-matrix across the cut after `split` factors.

    For sign '+' the series applies F-powers left of the cut and E-powers to
    the right with coefficients (-1)^k q^{-k(k-1)/2} (q - q^-1)^k / [k]!; for
    sign '-' the roles of E and F are exchanged and the coefficients are the
    bar conjugates.  On finite-dimensional vectors the series terminates.
    """
    n = len(vec.shape)
    if not 0 < split < n:
        raise ValueError("split must cut between factors")
    return _theta_ranges(vec, sign, 0, split, split, n)


def theta_chain(vec: TensorVector, sign: str) -> TensorVector:
    """The iterated quasi-R-matrix on all factors.

    Built by peeling single factors from the left: the step at position p
    applies the series with the lone factor p on one side and the iterated
    comultiplication over the factors right of p on the other, innermost
    step first.
    """
    n = len(vec.shape)
    out = vec
    for p in range(n - 1, 0, -1):
        out = _theta_ranges(out, sign, p - 1, p, p, n)
    return out


# ---------------------------------------------------------------------------
# bar involutions
# ---------------------------------------------------------------------------


def psi_plain(vec: TensorVector) -> TensorVector:
    """The factorwise bar involution: fixes both standard bases, conjugates
    scalars (the dual basis is fixed because the pairing normalisation is
    bar-symmetric)."""
    return vec.bar_coeffs()


def psi_pm(vec: TensorVector, sign: str) -> TensorVector:
    """The tensor-product bar involution twisted by the quasi-R-matrix."""
    return theta_chain(psi_plain(vec), sign)


# ---------------------------------------------------------------------------
# the intertwiner series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def upsilon_coeffs(n_max: int):
    """Coefficients c_0..c_{n_max} of the intertwiner series solved from the
    operator identity psi(iota(X)) Upsilon = Upsilon iota(X) on V_{n_max},
    with iota(X) = E + qFK^-1 + K^-1 and the normalisation c_0 = 1.

    The identity as printed with the bar on the other side selects the
    opposite sign family, which is incompatible with the duality between the
    two canonical bases; the convention here is the one under which the
    twisted involutions fix the diagram bases (verified by the test suite).
    """
    n = n_max + 1  # work one module higher so every division is regular
    shape = (n,)

    def x_image(v):  # iota(X) = E + q F K^-1 + K^-1
        return (
            act("E", v, "+")
            + act("F", act("Kinv", v, "+"), "+").scale(Q)
            + act("Kinv", v, "+")
        )

    def x_image_bar(v):  # psi(iota(X)) = E + q^-1 F K + K
        return (
            act("E", v, "+")
            + act("F", act("K", v, "+"), "+").scale(QINV)
            + act("K", v, "+")
        )

    top = TensorVector.basis(shape, (n,), dual=False)
    xtop = x_image(top)
    # F^(k) top and F^(k) iota(X) top are nonzero for every k <= n
    fdiv = list(divided_powers("F", top, "+"))
    xdiv = list(divided_powers("F", xtop, "+"))
    coeffs = [ONE]
    for j in range(1, n_max + 1):
        # defect of psi(iota(X)) Upsilon - Upsilon iota(X) on the highest
        # weight vector, with the series truncated below degree j
        lhs = TensorVector.zero(shape, False)
        rhs = TensorVector.zero(shape, False)
        for k, ck in enumerate(coeffs):
            lhs = lhs + fdiv[k].scale(ck)
            rhs = rhs + xdiv[k].scale(ck)
        defect = x_image_bar(lhs) - rhs
        # the weight-(n - 2(j-1)) component is the first one the degree-j
        # term reaches (through its E-part), so it determines c_j
        target = n - 2 * (j - 1)
        num = defect.coeff((target,))
        dep = x_image_bar(fdiv[j]) - xdiv[j]
        den = dep.coeff((target,))
        if den.is_zero():
            raise ArithmeticError("series coefficient is not determined")
        cj = (-num).exact_div(den) if not num.is_zero() else ZERO
        coeffs.append(cj)
    return tuple(coeffs)


def _recurrence_coeffs(n_max: int):
    """The closed recurrence c_n = -q^-(n-1) (q-q^-1) (q [n-1] c_{n-2} + c_{n-1})
    with c_0 = 1; cross-check companion of upsilon_coeffs."""
    cs = [ONE]
    for n in range(1, n_max + 1):
        prev2 = cs[n - 2] if n >= 2 else ZERO
        val = quantum_int(n - 1) * prev2
        val = val.shift(1) + cs[n - 1]
        val = (Q_MINUS_QINV * val).shift(-(n - 1))
        cs.append(-val)
    return tuple(cs)


def apply_upsilon(vec: TensorVector, sign: str) -> TensorVector:
    """The intertwiner series through the iterated comultiplication.

    Upsilon_+ uses divided F powers with coefficients c_k; Upsilon_- uses
    divided E powers with the bar-conjugate coefficients.
    """
    cs = upsilon_coeffs(sum(vec.shape))
    gen = "F" if sign == "+" else "E"
    total = TensorVector.zero(vec.shape, vec.dual)
    # a power beyond the total weight range is zero, so the series ends
    # within the len(cs) coefficients
    for ck, term in zip(cs, divided_powers(gen, vec, sign)):
        total = total + term.scale(ck if sign == "+" else ck.bar())
    return total


def psi_iota(vec: TensorVector, sign: str) -> TensorVector:
    """The coideal bar involution on a tensor product: the intertwiner series
    composed with the quasi-R-matrix chain and the factorwise involution."""
    out = psi_plain(vec)
    if len(vec.shape) > 1:
        out = theta_chain(out, sign)
    return apply_upsilon(out, sign)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _block_inversions(kappa, side: str) -> int:
    """Inversions inside one block: pairs i < j with the descent first for
    side '+', with the ascent first for side '-'."""
    inv = 0
    seen = 0
    if side == "-":
        for s in kappa:
            if s == -1:
                seen += 1
            else:
                inv += seen
    else:
        for s in kappa:
            if s == 1:
                seen += 1
            else:
                inv += seen
    return inv


def _project_counted(vec: TensorVector, target: Shape, side: str) -> TensorVector:
    blocks = target.blocks()
    sign = -1 if side == "-" else 1
    out: dict = {}
    for kappa, coeff in vec.terms.items():
        shiftv = 0
        idx = []
        for a, b in blocks:
            block = kappa[a:b]
            shiftv += sign * _block_inversions(block, side)
            idx.append(sum(block))
        add_term(out, tuple(idx), coeff.shift(shiftv))
    return TensorVector(target.m, True, out)


def project(vec: TensorVector, target: Shape) -> TensorVector:
    """Blockwise projection of a dual-basis vector on V_1 factors down to the
    dual standard basis of the target shape: each block string contributes
    q^-(ascent-first inversions) and maps to its step sum.  This is the
    projector adapted to the minus-side bar conventions."""
    if not vec.dual:
        raise ValueError("project acts on dual-basis vectors")
    if vec.shape != (1,) * target.total:
        raise ValueError("vector must live on V_1 factors matching the shape")
    return _project_counted(vec, target, "-")


def project_lower(vec: TensorVector, target: Shape) -> TensorVector:
    """The plus-side projection read in the lower bases on both sides.

    Each block contributes q^(descent-first inversions), equivalently the
    area difference between the two path encodings of the block string; the
    conversion to the lower target basis divides by a q-binomial per factor,
    which must come out exact on the vectors this is applied to."""
    from .laurent import q_binomial

    upstairs = TensorVector(vec.shape, True, dict(vec.terms))
    down = _project_counted(upstairs, target, "+")
    out: dict = {}
    for idx, c in down.terms.items():
        denom = ONE
        for m, k in zip(target.m, idx):
            denom = denom * q_binomial(m, (m - k) // 2)
        out[idx] = c.exact_div(denom)
    return TensorVector(target.m, False, out)


# ---------------------------------------------------------------------------
# the coideal generator through the comultiplication
# ---------------------------------------------------------------------------


def act_y(vec: TensorVector) -> TensorVector:
    """Y = F + q^-1 K E + K acting through its left-coideal comultiplication:
    K's left of a local term (q^-1 KE + F), plus the grouplike tail.

    With w the weight left of factor i, the F image takes q^w; the K at i
    acts after E, on the weight a + 2, so the q^-1 KE image takes q^(w+a+1);
    the tail takes q^(total weight)."""
    out: dict = {}
    for k, c in vec.terms.items():
        w = 0
        for i, (m, a) in enumerate(zip(vec.shape, k)):
            for gen, shift in (("F", w), ("E", w + a + 1)):
                image = _act_factor(gen, vec.dual, m, a)
                if image is not None:
                    add_term(out, k[:i] + (image[0],) + k[i + 1 :], (c * image[1]).shift(shift))
            w += a
        add_term(out, k, c.shift(w))
    return TensorVector(vec.shape, vec.dual, out)


def pairing(lower: TensorVector, dual: TensorVector) -> LaurentPoly:
    """The bilinear pairing: the two standard bases are dual to each other."""
    if lower.shape != dual.shape or lower.dual or not dual.dual:
        raise ValueError("pairing takes a lower and a dual vector of one shape")
    total = ZERO
    small, big = (lower.terms, dual.terms) if len(lower.terms) < len(dual.terms) else (dual.terms, lower.terms)
    for k, c in small.items():
        other = big.get(k)
        if other is not None:
            total = total + c * other
    return total
