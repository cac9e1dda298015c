"""Binary lattice paths, weight-index encodings and path orders.

A path of length N is a tuple of +1/-1 steps, read as a walk from the origin
with i-th step (1, step_i).  Weight-index tuples k attached to a shape
(m_1, ..., m_n) embed into paths two ways (the maps eta and zeta below), and
the Bruhat-compatible orders on indices become the geometric below/above
orders on paths.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

Path = tuple  # tuple of +1/-1 steps


class Shape:
    """A tuple of positive block sizes (m_1, ..., m_n)."""

    __slots__ = ("m",)

    def __init__(self, m):
        m = tuple(int(x) for x in m)
        if not m or any(x < 1 for x in m):
            raise ValueError(f"shape entries must be positive: {m}")
        self.m = m

    @property
    def total(self) -> int:
        return sum(self.m)

    def __len__(self):
        return len(self.m)

    def __iter__(self):
        return iter(self.m)

    def __getitem__(self, i):
        return self.m[i]

    def __eq__(self, other):
        return isinstance(other, Shape) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"Shape{self.m}"

    def contains(self, k) -> bool:
        """Membership of an index tuple: |k_i| <= m_i and k_i = m_i (mod 2)."""
        return len(k) == len(self.m) and all(
            -m <= ki <= m and (ki - m) % 2 == 0 for ki, m in zip(k, self.m)
        )

    def check(self, k):
        if not self.contains(k):
            raise ValueError(f"{k} is not a weight index for shape {self.m}")
        return tuple(k)

    def indices(self):
        """All weight indices for this shape, in ascending lexicographic order."""
        ranges = [range(-m, m + 1, 2) for m in self.m]
        return [tuple(t) for t in product(*ranges)]

    def blocks(self):
        """Half-open site ranges (a, b) occupied by each tensor factor."""
        out = []
        pos = 0
        for m in self.m:
            out.append((pos, pos + m))
            pos += m
        return out


def compositions(total):
    """All ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def all_shapes(max_sites):
    """Every shape with at most max_sites sites, by total."""
    for total in range(1, max_sites + 1):
        for comp in compositions(total):
            yield Shape(comp)


def parse_path(text: str) -> Path:
    steps = []
    for ch in text:
        if ch == "+":
            steps.append(1)
        elif ch == "-":
            steps.append(-1)
        else:
            raise ValueError(f"invalid path character {ch!r}")
    return tuple(steps)


def path_str(path: Path) -> str:
    return "".join("+" if s > 0 else "-" for s in path)


@lru_cache(maxsize=None)
def heights(path: Path):
    """Partial-sum profile (h_1, ..., h_N) of a path."""
    out = []
    h = 0
    for s in path:
        h += s
        out.append(h)
    return tuple(out)


def is_below(a: Path, b: Path) -> bool:
    """Pointwise comparison of height profiles; paths must have equal length."""
    if len(a) != len(b):
        raise ValueError("paths of different lengths are incomparable")
    return all(x <= y for x, y in zip(heights(a), heights(b)))


def order_le(a: Path, b: Path, eps: str) -> bool:
    """The sign-dependent path order: a <= b iff a is below b for eps='-',
    above b for eps='+'."""
    if eps == "-":
        return is_below(a, b)
    if eps == "+":
        return is_below(b, a)
    raise ValueError(f"eps must be '+' or '-', got {eps!r}")


def min_path(a: Path, b: Path) -> Path:
    """The highest path lying below both a and b (pointwise height minimum)."""
    if len(a) != len(b):
        raise ValueError("paths of different lengths have no common minimum")
    ha, hb = heights(a), heights(b)
    hm = [min(x, y) for x, y in zip(ha, hb)]
    prev = 0
    steps = []
    for h in hm:
        steps.append(h - prev)
        prev = h
    if any(s not in (1, -1) for s in steps):
        raise ArithmeticError("the height minimum is not a lattice path")
    return tuple(steps)


def area(path: Path) -> int:
    """Number of lattice squares above the path inside the cone |j| < i.

    Column i contributes (i - h_i) / 2 squares, so the all-minus path of
    length N has area N(N+1)/2 and the all-plus path has area 0.
    """
    return sum((i + 1 - h) // 2 for i, h in enumerate(heights(path)))


def squares_above(path: Path):
    """The set of square centers (i, j) above the path: j > h_i, |j| < i,
    i + j odd.  Brute-force companion of area()."""
    out = set()
    hs = heights(path)
    N = len(path)
    for i in range(1, N + 1):
        for j in range(-i + 1, i):
            if (i + j) % 2 == 1 and j > hs[i - 1]:
                out.add((i, j))
    return out


def _eta_block(m: int, v: int) -> Path:
    k = (m - v) // 2
    return (-1,) * (m - k) + (1,) * k


def _zeta_block(m: int, v: int) -> Path:
    l = (m - v) // 2
    return (1,) * l + (-1,) * (m - l)


def eta(k, shape: Shape) -> Path:
    """Blockwise path encoding with the minus steps leading in each block."""
    k = shape.check(k)
    out = []
    for m, v in zip(shape.m, k):
        out.extend(_eta_block(m, v))
    return tuple(out)


def zeta(k, shape: Shape) -> Path:
    """Blockwise path encoding with the plus steps leading in each block."""
    k = shape.check(k)
    out = []
    for m, v in zip(shape.m, k):
        out.extend(_zeta_block(m, v))
    return tuple(out)


def kappa_string(k, shape: Shape) -> Path:
    """The sign string of a weight index: each block is (m+k)/2 copies of +1
    followed by (m-k)/2 copies of -1.  This is the string whose diagram gives
    the dual canonical basis element labelled by k."""
    k = shape.check(k)
    out = []
    for m, v in zip(shape.m, k):
        up = (m + v) // 2
        out.extend((1,) * up + (-1,) * (m - up))
    return tuple(out)


def kappa_to_index(kappa: Path, shape: Shape):
    """Blockwise step sums, the inverse of kappa_string on its image."""
    if len(kappa) != shape.total:
        raise ValueError("string length does not match shape")
    return tuple(sum(kappa[a:b]) for a, b in shape.blocks())


def eta_inverse(path: Path, shape: Shape):
    """Recover k with eta(k) = path, or None if path is not an eta image."""
    if len(path) != shape.total:
        return None
    k = []
    for a, b in shape.blocks():
        block = path[a:b]
        m = b - a
        v = -sum(block)
        if block != _eta_block(m, v):
            return None
        k.append(v)
    k = tuple(k)
    return k if shape.contains(k) else None


def index_le(k, l, eps: str) -> bool:
    """Partial-sum order on weight indices; k <=_+ l iff every partial sum of
    k is at most that of l, and <=_- is the reverse."""
    sk = sl = 0
    for a, b in zip(k, l):
        sk += a
        sl += b
        if eps == "+" and sk > sl:
            return False
        if eps == "-" and sk < sl:
            return False
    return True


def paths_between(lo: Path, hi: Path):
    """All paths lying between lo and hi in the below-order."""
    if not is_below(lo, hi):
        return []
    hlo, hhi = heights(lo), heights(hi)
    N = len(lo)
    results = []

    def extend(i, h, steps):
        if i == N:
            results.append(tuple(steps))
            return
        for s in (1, -1):
            h2 = h + s
            if hlo[i] <= h2 <= hhi[i] and abs(h2) <= N:
                steps.append(s)
                extend(i + 1, h2, steps)
                steps.pop()

    extend(0, 0, [])
    return results


@lru_cache(maxsize=None)
def _eta_images(shape_m):
    shape = Shape(shape_m)
    return tuple((k, eta(k, shape), heights(eta(k, shape))) for k in shape.indices())


def eta_images(shape: Shape):
    """All (index, path, height profile) triples for the shape, cached."""
    return _eta_images(shape.m)


def admissible_paths(alpha: Path, gamma: Path, shape: Shape):
    """The eta-images lying between alpha and gamma in the below-order.

    Both endpoints must themselves be eta-images for the shape."""
    if eta_inverse(alpha, shape) is None or eta_inverse(gamma, shape) is None:
        raise ValueError("endpoints must be eta images for the shape")
    if not is_below(alpha, gamma):
        raise ValueError("lower endpoint must lie below the upper endpoint")
    ha, hg = heights(alpha), heights(gamma)
    out = []
    for _, p, hp in eta_images(shape):
        if all(a <= x <= g for a, x, g in zip(ha, hp, hg)):
            out.append(p)
    return out
