"""Exact arithmetic in the ring Z[q, q^-1] of integer Laurent polynomials.

Everything downstream (Hecke modules, strip generating functions, canonical
bases, eigenvectors) is linear algebra over this ring or over its fraction
field.  Coefficients are Python ints, so there is no overflow anywhere; the
second variable t used by the Hecke-algebra conventions is represented as
t = -q throughout, never as a separate symbol.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod


class DivisibilityError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class LaurentPoly:
    """A Laurent polynomial with integer coefficients, stored sparsely.

    The representation is a dict mapping exponent -> nonzero coefficient.
    Instances are treated as immutable values; all arithmetic returns new
    objects, so they are safe to share between threads and to memoize.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.coeffs = {}
        else:
            self.coeffs = {e: c for e, c in coeffs.items() if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def from_int(n: int) -> "LaurentPoly":
        return LaurentPoly({0: n})

    @staticmethod
    def q_power(exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: 1})

    @staticmethod
    def t_power(exp: int) -> "LaurentPoly":
        """(-q)^exp, the image of t^exp under the substitution t = -q."""
        return LaurentPoly({exp: -1 if exp % 2 else 1})

    # -- ring structure -----------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            res = LaurentPoly.__new__(LaurentPoly)
            res.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return res
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only defined for monomials; invert explicitly")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return res

    # -- involutions and substitutions ---------------------------------

    def bar(self) -> "LaurentPoly":
        """The bar involution q -> q^-1 (negate every exponent)."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {-e: c for e, c in self.coeffs.items()}
        return res

    def subs_neg(self) -> "LaurentPoly":
        """Substitute q -> -q."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e: (-c if e % 2 else c) for e, c in self.coeffs.items()}
        return res

    def is_bar_symmetric(self) -> bool:
        return all(self.coeffs.get(-e, 0) == c for e, c in self.coeffs.items())

    # -- inspection ----------------------------------------------------

    def degree(self):
        """Largest exponent, or None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def valuation(self):
        """Smallest exponent, or None for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def leading_coeff(self) -> int:
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

    def has_nonneg_coeffs(self) -> bool:
        return all(c > 0 for c in self.coeffs.values())

    def in_negative_shell(self) -> bool:
        """True when every exponent is strictly negative (member of q^-1 Z[q^-1])."""
        return all(e < 0 for e in self.coeffs)

    def negative_part(self) -> "LaurentPoly":
        """The sum of the terms with strictly negative exponent."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e: c for e, c in self.coeffs.items() if e < 0}
        return res

    def int_content(self) -> int:
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(c))
        return g

    # -- division ------------------------------------------------------

    def divmod_poly(self, d: "LaurentPoly"):
        """Quotient and remainder of self by d, dividing from the top degree.

        Division is performed over Q and may fail with DivisibilityError if a
        leading-coefficient division is not exact; it is intended for exact
        quotients and for remainder tests.
        """
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.coeffs)
        quot = {}
        d_deg = d.degree()
        d_lead = d.coeffs[d_deg]
        while rem:
            r_deg = max(rem)
            if r_deg - d_deg < (min(rem) - d.valuation()):
                break
            c = rem[r_deg]
            if c % d_lead:
                # leading term does not divide: not an exact quotient
                break
            f = c // d_lead
            e = r_deg - d_deg
            quot[e] = f
            for de, dc in d.coeffs.items():
                ee = de + e
                s = rem.get(ee, 0) - dc * f
                if s:
                    rem[ee] = s
                else:
                    rem.pop(ee, None)
        return LaurentPoly(quot), LaurentPoly(rem)

    def exact_div(self, d: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / d; raises DivisibilityError on a remainder.

        A divisibility failure is a meaningful signal: the identities this
        library checks assert that certain ratios of quantum integers are
        polynomial, so the error surfaces a falsified identity rather than a
        numerical problem.
        """
        if isinstance(d, int):
            d = LaurentPoly.from_int(d)
        q, r = self.divmod_poly(d)
        if not r.is_zero():
            raise DivisibilityError(f"({self}) is not divisible by ({d})")
        return q

    # -- evaluation ------------------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at a nonzero rational point q0."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * q0 ** e
        return total

    # -- presentation ----------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if abs(c) == 1 else f"{abs(c)}*{qp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_json(self) -> dict:
        return {"q_coeffs": {str(e): str(c) for e, c in sorted(self.coeffs.items())}}

    @staticmethod
    def from_json(data: dict) -> "LaurentPoly":
        return LaurentPoly({int(e): int(c) for e, c in data["q_coeffs"].items()})


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)


def add_term(terms: dict, key, coeff: LaurentPoly) -> None:
    """Add coeff at key in a sparse dict of Laurent polynomials, dropping the
    entry when it cancels; the accumulator of every vector layer."""
    cur = terms.get(key)
    if cur is None:
        if not coeff.is_zero():
            terms[key] = coeff
        return
    s = cur + coeff
    if s.is_zero():
        del terms[key]
    else:
        terms[key] = s


@lru_cache(maxsize=None)
def quantum_int(n: int) -> LaurentPoly:
    """The quantum integer [n] = (q^n - q^-n) / (q - q^-1).

    [0] = 0 and [-n] = -[n]; for n > 0 this is q^{n-1} + q^{n-3} + ... + q^{1-n}.
    """
    if n == 0:
        return ZERO
    if n < 0:
        return -quantum_int(-n)
    return LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)})


@lru_cache(maxsize=None)
def quantum_factorial(n: int) -> LaurentPoly:
    """[n]! = [1][2]...[n], defined for n >= 0."""
    if n < 0:
        raise ValueError("quantum factorial requires n >= 0")
    if n == 0:
        return ONE
    return quantum_factorial(n - 1) * quantum_int(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, m: int) -> LaurentPoly:
    """The q-binomial coefficient [n]! / ([m]! [n-m]!); zero outside 0 <= m <= n."""
    if n < 0:
        raise ValueError("q_binomial requires n >= 0")
    if m < 0 or m > n:
        return ZERO
    num = quantum_factorial(n)
    return num.exact_div(quantum_factorial(m)).exact_div(quantum_factorial(n - m))


def two_cosh(i: int) -> LaurentPoly:
    """q^i + q^-i, the recurring symmetric factor of eigenvector components."""
    if i == 0:
        return LaurentPoly.from_int(2)
    return LaurentPoly({i: 1, -i: 1})


# ---------------------------------------------------------------------------
# Fraction field
# ---------------------------------------------------------------------------


def _to_dense(p: LaurentPoly):
    """(valuation, list of coefficients from the valuation up)."""
    v = p.valuation()
    d = p.degree()
    return v, [p.coeffs.get(e, 0) for e in range(v, d + 1)]


def _primitive(cs):
    """The coefficient list divided by its (positive) integer content."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _dense_prem(a, b):
    """Pseudo-remainder of dense integer polynomial a by b (deg a >= deg b)."""
    a = list(a)
    lb = b[-1]
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        da = len(a) - 1
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_gcd(p: LaurentPoly, r: LaurentPoly) -> LaurentPoly:
    """A gcd of two Laurent polynomials, primitive and defined up to a monomial.

    The result is normalised to valuation 0; with one argument zero it is the
    primitive part of the other, and gcd(0, 0) = 0.
    """
    if p.is_zero():
        p, r = r, p
    if p.is_zero():
        return ZERO
    a = _primitive(_to_dense(p)[1])
    b = [] if r.is_zero() else _primitive(_to_dense(r)[1])
    if len(a) < len(b):
        a, b = b, a
    while any(b):
        a, b = b, _primitive(_dense_prem(a, b))
    poly = LaurentPoly(dict(enumerate(a)))
    # strip the monomial factor q^k so gcds stay canonical
    v = poly.valuation()
    return poly.shift(-v) if v else poly


class RationalFn:
    """A quotient of Laurent polynomials, the scalar field for linear solves.

    Normalization keeps the denominator with valuation 0, positive leading
    coefficient and integer content 1; full gcd reduction is applied through
    reduced(), which the elimination routines call to control growth.
    Equality is decided by cross-multiplication, so unreduced values compare
    correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        shift = -den.valuation()
        num = num.shift(shift)
        den = den.shift(shift)
        g = gcd(num.int_content(), den.int_content())
        if den.coeffs[den.degree()] < 0:
            g = -g
        if g != 1:
            num = LaurentPoly({e: c // g for e, c in num.coeffs.items()})
            den = LaurentPoly({e: c // g for e, c in den.coeffs.items()})
        self.num, self.den = num, den

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFn":
        return RationalFn(p, ONE)

    @staticmethod
    def from_int(n: int) -> "RationalFn":
        return RationalFn(LaurentPoly.from_int(n), ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RationalFn.__new__(RationalFn)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __mul__(self, other):
        other = _coerce(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = _coerce(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        r = self.reduced()
        return hash((r.num, r.den))

    def reduced(self) -> "RationalFn":
        if self.num.is_zero() or self.den.is_one():
            return self
        g = poly_gcd(self.num, self.den)
        if g.degree() == 0 and abs(g.coeffs.get(0, 0)) == 1:
            return self
        return RationalFn(self.num.exact_div(g), self.den.exact_div(g))

    def as_poly(self) -> LaurentPoly:
        """Exact conversion to a Laurent polynomial; raises if not polynomial."""
        return self.num.exact_div(self.den)

    def bar(self) -> "RationalFn":
        return RationalFn(self.num.bar(), self.den.bar())

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFn({self})"


def _coerce(x) -> RationalFn:
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFn.from_poly(x)
    if isinstance(x, int):
        return RationalFn.from_int(x)
    raise TypeError(f"cannot coerce {type(x)} into RationalFn")


# ---------------------------------------------------------------------------
# Cyclotomic-factored scalars
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentPoly:
    """The cyclotomic polynomial Phi_d(q), from q^d - 1 = prod of Phi_e over e | d."""
    if d < 1:
        raise ValueError("cyclotomic polynomials are indexed by d >= 1")
    proper = prod((cyclotomic(e) for e in range(1, d) if d % e == 0), start=ONE)
    return LaurentPoly({d: 1, 0: -1}).exact_div(proper)


class CyclotomicProduct:
    """unit * q^shift * prod_d Phi_d(q)^exps[d], with unit 1 or -1, or 0 for zero.

    Products and quotients of quantum integers and of q^i + q^-i stay in this
    form, where * and / only add or subtract exponents.  The factorisation is
    unique (the Phi_d are the distinct irreducible factors of q^n - 1), so
    equality compares the fields, and the value is a Laurent polynomial
    exactly when no exponent is negative.  Instances are immutable values.
    """

    __slots__ = ("unit", "shift", "exps")

    def __init__(self, unit: int, shift: int = 0, exps=None):
        if unit not in (-1, 0, 1):
            raise ValueError(f"unit must be -1, 0 or 1, got {unit!r}")
        self.unit = unit
        self.shift = shift if unit else 0
        self.exps = {d: e for d, e in exps.items() if e} if unit and exps else {}

    def _combine(self, other, sign):
        exps = dict(self.exps)
        for d, e in other.exps.items():
            s = exps.get(d, 0) + sign * e
            if s:
                exps[d] = s
            else:
                del exps[d]
        res = CyclotomicProduct.__new__(CyclotomicProduct)
        res.unit, res.shift, res.exps = self.unit * other.unit, self.shift + sign * other.shift, exps
        return res

    def __mul__(self, other):
        if not (self.unit and other.unit):
            return CyclotomicProduct(0)
        return self._combine(other, 1)

    def __truediv__(self, other):
        if not other.unit:
            raise ZeroDivisionError("division by a zero cyclotomic product")
        if not self.unit:
            return self
        return self._combine(other, -1)

    def __neg__(self):
        return CyclotomicProduct(-self.unit, self.shift, self.exps)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicProduct):
            return NotImplemented
        return (self.unit, self.shift, self.exps) == (other.unit, other.shift, other.exps)

    def expand(self) -> LaurentPoly:
        """The value as a Laurent polynomial; DivisibilityError if it is none."""
        if any(e < 0 for e in self.exps.values()):
            raise DivisibilityError(f"{self!r} is not a Laurent polynomial")
        return _expand(self.unit, self.shift, self.exps)

    def __repr__(self):
        factors = "".join(f" * Phi_{d}^{e}" for d, e in sorted(self.exps.items()))
        return f"CyclotomicProduct({self.unit} * q^{self.shift}{factors})"


def _expand(unit, shift, exps) -> LaurentPoly:
    """unit * q^shift * prod_d Phi_d(q)^exps[d], for exponents >= 0."""
    p = LaurentPoly({shift: unit})
    for d, e in sorted(exps.items()):
        for _ in range(e):
            p = p * cyclotomic(d)
    return p


@lru_cache(maxsize=None)
def quantum_int_factored(n: int) -> CyclotomicProduct:
    """[n] = q^(1-n) prod Phi_d(q) over d | 2n with d > 2; [0] = 0, [-n] = -[n]."""
    if n == 0:
        return CyclotomicProduct(0)
    if n < 0:
        return -quantum_int_factored(-n)
    return CyclotomicProduct(1, 1 - n, {d: 1 for d in range(3, 2 * n + 1) if 2 * n % d == 0})


@lru_cache(maxsize=None)
def two_cosh_factored(i: int) -> CyclotomicProduct:
    """q^i + q^-i = q^-|i| prod Phi_d(q) over d | 4i with d not dividing 2i, for i != 0."""
    if i == 0:
        raise ValueError("q^0 + q^0 = 2 is not a product of cyclotomic polynomials")
    i = abs(i)
    return CyclotomicProduct(1, -i, {d: 1 for d in range(1, 4 * i + 1) if 4 * i % d == 0 and 2 * i % d})


def sums_equal(left, right) -> bool:
    """Whether two sums of CyclotomicProducts have the same value.

    The common factor of all nonzero terms takes the least exponent of each
    Phi_d and of q among them, so every cofactor is a polynomial
    +-q^s prod_d Phi_d(q)^e with s, e >= 0.  Their sum P is decided by its
    value at the single integer point x = 2^B, with no expansion, gcd or
    division.

    The test is exact.  The 1-norm is submultiplicative, so every
    coefficient of P is at most C = sum over the cofactors of
    prod_d |Phi_d|_1^e in absolute value.  If P != 0 has leading term a x^n,
    the other terms add up to at most C (x^n - 1) / (x - 1) < x^n <= |a x^n|
    in absolute value for any x >= C + 1, so P(x) != 0.  B is one bit past
    C, so x = 2^B >= 2C + 2, and P = 0 exactly when P(2^B) = 0.  Each Phi_d(x)
    is its coefficients shifted into B-bit slots, and each cofactor is a
    product of big integers."""
    terms = [t for t in left if t.unit] + [-t for t in right if t.unit]
    low = {d: min(t.exps.get(d, 0) for t in terms) for d in set().union(*(t.exps for t in terms))}
    low_shift = min((t.shift for t in terms), default=0)
    cofactors = [(t, {d: t.exps.get(d, 0) - e for d, e in low.items()}) for t in terms]
    norm = {d: sum(map(abs, cyclotomic(d).coeffs.values())) for d in low}
    bound = sum(prod(norm[d] ** e for d, e in exps.items()) for _, exps in cofactors)
    bits = bound.bit_length() + 1
    at_x = {d: sum(c << (bits * k) for k, c in cyclotomic(d).coeffs.items()) for d in low}
    total = 0
    for t, exps in cofactors:
        value = prod(at_x[d] ** e for d, e in exps.items() if e) << (bits * (t.shift - low_shift))
        total += value if t.unit > 0 else -value
    return total == 0


# ---------------------------------------------------------------------------
# Telescoping quantum-integer identities used by the eigenvector recursion
# ---------------------------------------------------------------------------


def _telescoping_one_terms(ns, ms) -> list:
    """The left-hand terms of the first identity, for i = 1..K:
    [1 + n_1+..+n_i][m_i] * prod_{j>i}[1 + s_j + t_j] / prod_{j>=i}[1 + s_j + t_{j-1}],
    where s_j, t_j are the partial sums of the n's and m's."""
    K = len(ms)
    if len(ns) != K:
        raise ValueError("ns and ms must have the same length")
    qi = quantum_int_factored
    sn = [sum(ns[:j]) for j in range(K + 1)]
    sm = [sum(ms[:j]) for j in range(K + 1)]
    terms = []
    for i in range(1, K + 1):
        term = qi(1 + sn[i]) * qi(ms[i - 1])
        for j in range(i + 1, K + 1):
            term = term * qi(1 + sn[j] + sm[j])
        for j in range(i, K + 1):
            term = term / qi(1 + sn[j] + sm[j - 1])
        terms.append(term)
    return terms


def telescoping_identity_one(ns, ms) -> bool:
    """Check the first telescoping sum identity for given integer tuples.

    sum_i [1 + n_1+..+n_i][m_i] * prod_{j>i}[1 + s_j + t_j] / prod_{j>=i}[1 + s_j + t_{j-1}]
    equals [m_1 + ... + m_K], where s_j, t_j are the partial sums of the n's
    and m's.  Verified as an exact identity of cyclotomic products.
    """
    return sums_equal(_telescoping_one_terms(ns, ms), [quantum_int_factored(sum(ms))])


def _telescoping_two_terms(x: int, z: int, ms) -> list:
    """The left-hand terms of the second identity: I_i J_i for i = 1..K,
    then [2z+2]/[x+1+M] * I_K."""
    K = len(ms)
    qi = quantum_int_factored
    sm = [sum(ms[:j]) for j in range(K + 1)]
    M = sm[K]

    def tail(j):
        # sum of m_k for k > j (1-indexed j)
        return M - sm[j]

    def I(i):
        term = CyclotomicProduct(1)
        for j in range(1, i + 1):
            term = term * qi(2 + 2 * ms[j - 1] + 2 * z + 2 * tail(j))
            term = term / qi(2 + ms[j - 1] + 2 * z + 2 * tail(j))
        return term

    def J(i):
        num = qi(ms[i - 1]) * qi(x + 3 + sm[i] + 2 * tail(i) + 2 * z)
        return num / (qi(1 + x + sm[i - 1]) * qi(1 + x + sm[i]))

    return [I(i) * J(i) for i in range(1, K + 1)] + [qi(2 * z + 2) / qi(x + 1 + M) * I(K)]


def telescoping_identity_two(x: int, z: int, ms) -> bool:
    """Check the second telescoping identity (with shifts x and z).

    sum_i I_i J_i + [2z+2]/[x+1+M] * I_K == [2 + 2z + 2M] / [1+x],
    with M the total of ms and I_i, J_i products of quantum-integer ratios.
    """
    qi = quantum_int_factored
    rhs = qi(2 + 2 * z + 2 * sum(ms)) / qi(1 + x)
    return sums_equal(_telescoping_two_terms(x, z, ms), [rhs])
