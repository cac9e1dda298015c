"""The two maximal parabolic modules of the type-B Hecke algebra.

Basis vectors are indexed by sign strings of length N (equivalently lattice
paths); the generators T_1 .. T_N act by the sign-dependent tables, with T_N
the special generator acting on the last letter.  The bar involution fixes
the generating vector (the constant string of the module sign) and conjugates
scalars through t -> t^-1.  The bar-invariant (parabolic Kazhdan-Lusztig)
basis is built by the C_s recursion of Kazhdan-Lusztig and Deodhar, with
C_i = T_i + t^-1; it is the independent oracle for the strip generating
functions and for the transition matrices of the canonical bases.

All scalars live in Z[q, q^-1] via the substitution t = -q.
"""

from __future__ import annotations

from .laurent import LaurentPoly, ZERO, ONE, add_term

# t and t - t^-1 under t = -q
T = LaurentPoly.t_power(1)
TINV = LaurentPoly.t_power(-1)
T_MINUS_TINV = T - TINV

ModuleVector = dict  # path tuple -> LaurentPoly


def add_vectors(a: ModuleVector, b: ModuleVector) -> ModuleVector:
    out = dict(a)
    for p, c in b.items():
        add_term(out, p, c)
    return out


def scale_vector(vec: ModuleVector, c) -> ModuleVector:
    if isinstance(c, int):
        c = LaurentPoly.from_int(c)
    if c.is_zero():
        return {}
    return {p: c * v for p, v in vec.items()}


class HeckeModule:
    """One of the two parabolic modules, determined by (N, eps).

    kl_basis builds each bar-invariant basis element from a shorter one by
    the C_s recursion: apply C_i = T_i + t^-1, then subtract the elements
    whose coefficient kept a constant term.  No bar image is formed on that
    path; bar_basis and bar_vector give the involution itself, and the tests
    check with them that every basis element is bar-invariant.

    Instances memoize bar images and bar-invariant basis elements without a
    lock.  The package itself runs in parallel only through processes
    (COIDEALBASIS_THREADS starts a process pool, each worker with its own
    instances), so the memo tables are never shared; a caller that uses one
    instance from several threads must confine it to one of them.  Distinct
    instances are independent.
    """

    def __init__(self, n: int, eps: str):
        if eps not in ("+", "-"):
            raise ValueError("eps must be '+' or '-'")
        if n < 1:
            raise ValueError("N must be positive")
        self.n = n
        self.eps = eps
        self.generator_path = ((1,) if eps == "+" else (-1,)) * n
        self._bar_cache = {self.generator_path: {self.generator_path: ONE}}
        self._kl_cache = {}

    # -- generator action ------------------------------------------------

    def t_action(self, i: int, vec: ModuleVector) -> ModuleVector:
        """Act by the generator T_i, 1 <= i <= N."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        out: ModuleVector = {}
        for path, coeff in vec.items():
            for p2, c2 in self._t_on_basis(i, path):
                add_term(out, p2, coeff if c2 is ONE else coeff * c2)
        return out

    def _t_on_basis(self, i, path):
        if i == self.n:
            last = path[-1]
            flipped = path[:-1] + (-last,)
            if self.eps == "+":
                if last == 1:
                    return [(flipped, ONE)]
                return [(flipped, ONE), (path, T_MINUS_TINV)]
            if last == -1:
                return [(flipped, ONE)]
            return [(flipped, ONE), (path, T_MINUS_TINV)]
        a, b = path[i - 1], path[i]
        swapped = path[: i - 1] + (b, a) + path[i + 1 :]
        if a == b:
            return [(path, T if self.eps == "+" else -TINV)]
        if self.eps == "+":
            if (a, b) == (1, -1):
                return [(swapped, ONE)]
            return [(path, T_MINUS_TINV), (swapped, ONE)]
        if (a, b) == (-1, 1):
            return [(swapped, ONE)]
        return [(path, T_MINUS_TINV), (swapped, ONE)]

    def t_inverse_action(self, i: int, vec: ModuleVector) -> ModuleVector:
        """T_i^-1 = T_i - (t - t^-1), from the quadratic relation."""
        out = self.t_action(i, vec)
        return add_vectors(out, scale_vector(vec, -T_MINUS_TINV))

    # -- combinatorics of the basis ---------------------------------------

    def _descent_move(self, path):
        """A pair (i, lower_path) with T_i lower = path and smaller length.

        Every path other than the generating one has such a move."""
        away = 1 if self.eps == "-" else -1
        if path[-1] == away:
            return self.n, path[:-1] + (-away,)
        for i in range(self.n - 1, 0, -1):
            if path[i - 1] == away and path[i] == -away:
                return i, path[: i - 1] + (-away, away) + path[i + 1 :]
        raise ArithmeticError(f"path {path} has no descent (N={self.n}, eps={self.eps})")

    # -- bar involution ----------------------------------------------------

    def bar_basis(self, path) -> ModuleVector:
        """Bar image of a basis vector, by induction from the generator."""
        cached = self._bar_cache.get(path)
        if cached is not None:
            return cached
        i, lower = self._descent_move(path)
        result = self.t_inverse_action(i, self.bar_basis(lower))
        self._bar_cache[path] = result
        return result

    def bar_vector(self, vec: ModuleVector) -> ModuleVector:
        out: ModuleVector = {}
        for path, coeff in vec.items():
            for p2, c2 in self.bar_basis(path).items():
                add_term(out, p2, coeff.bar() * c2)
        return out

    # -- bar-invariant basis -------------------------------------------------

    def kl_basis(self, beta) -> ModuleVector:
        """The unique bar-invariant element equal to the basis vector at beta
        modulo strictly negative powers of t on the other coefficients."""
        cached = self._kl_cache.get(beta)
        if cached is not None:
            return cached
        if beta == self.generator_path:
            current = {beta: ONE}
        else:
            # x = C_i C_lower is bar-invariant with coefficient 1 at beta; its
            # other coefficients have degree <= 0, since those of C_lower lie
            # in t^-1 Z[t^-1] and T_i raises the degree by at most one.
            i, lower = self._descent_move(beta)
            below = self.kl_basis(lower)
            current = self.t_action(i, below)
            for path, coeff in below.items():
                add_term(current, path, TINV * coeff)
            # Removing mu * C_gamma clears the constant term mu at gamma and
            # touches no other constant term, because the off-diagonal
            # coefficients of C_gamma lie in t^-1 Z[t^-1].
            mus = [(g, c.coeff(0)) for g, c in current.items() if g != beta and c.coeff(0)]
            for gamma, mu in mus:
                for path, coeff in self.kl_basis(gamma).items():
                    add_term(current, path, coeff * -mu)
            if current.get(beta) != ONE:
                raise ArithmeticError(
                    f"C_s recursion gave coefficient {current.get(beta)} at {beta}, not 1"
                )
        self._kl_cache[beta] = current
        return current

    def kl_poly(self, alpha, beta) -> LaurentPoly:
        """Coefficient of the basis vector at alpha inside kl_basis(beta)."""
        return self.kl_basis(beta).get(tuple(alpha), ZERO)

    def kl_matrix(self) -> dict:
        """All coefficients, keyed by (alpha, beta) with nonzero entries only."""
        from itertools import product

        out = {}
        for beta in product((1, -1), repeat=self.n):
            for alpha, c in self.kl_basis(beta).items():
                out[(alpha, beta)] = c
        return out


_MODULES: dict = {}


def module(n: int, eps: str) -> HeckeModule:
    """Shared per-(N, eps) module instance (memo tables included)."""
    key = (n, eps)
    mod = _MODULES.get(key)
    if mod is None:
        mod = _MODULES[key] = HeckeModule(n, eps)
    return mod


def kl_poly(alpha, beta, eps: str) -> LaurentPoly:
    """P^eps_{alpha,beta} as an element of Z[q,q^-1] under t = -q."""
    alpha, beta = tuple(alpha), tuple(beta)
    if len(alpha) != len(beta):
        raise ValueError("paths must have equal length")
    return module(len(beta), eps).kl_poly(alpha, beta)
