"""Ballot-strip tilings of skew path regions and their generating functions.

The region between two comparable paths is a 45-degree rotated skew diagram
of unit squares, one square per (column, height) pair.  A strip occupies one
square in each of a run of consecutive columns, moving up or down by one
height unit per column, never dipping below its starting height, and ending
l' levels above where it started.  A strip with a rising tail (l' >= 1) must
end in the last column.  A strip with l down-steps has type (l, l'); a unit
square is the type (0, 0) strip.

Two different stacking disciplines give two families of generating functions:

* Rule I ("loose" stacking): whenever a strip touches another from directly
  above, its full vertical shadow must lie inside the strip below; strips
  with odd rising tails occur an even number of times per type, and strips
  with positive even tails are forbidden.

* Rule II ("tight" stacking): a strip touched from above (vertically or
  diagonally) is touched by exactly one strip, and together they must cover
  every position above the lower strip, except past the last column; rising
  tails come in towers (odd tail below, tail+1 above).  Rule II additionally
  allows a projection sub-region hugging the lower path to be set aside and
  filled with specially weighted unit squares.

Weights, written via t = -q: Rule I gives t^-1 per even-tail strip and 1 per
odd-tail strip; Rule II gives -t^-1 = q^-1 per even-tail strip, 1 per
odd-tail strip and t^-1 per projection unit square.  The resulting sums match
the parabolic Kazhdan-Lusztig polynomials computed independently in hecke.py,
which is how the acceptance suite pins the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import le

from .laurent import LaurentPoly, ONE, ZERO
from .paths import (
    Shape,
    area,
    eta_images,
    eta_inverse,
    heights,
    is_below,
    min_path,
    paths_between,
    zeta,
)


def skew_region(alpha, beta):
    """Squares above alpha and not above beta; alpha must lie below beta."""
    if not is_below(alpha, beta):
        raise ValueError("lower path must lie below upper path")
    ha, hb = heights(alpha), heights(beta)
    boxes = set()
    for x in range(1, len(alpha) + 1):
        y = ha[x - 1] + 1
        while y <= hb[x - 1]:
            boxes.add((x, y))
            y += 2
    return boxes


@dataclass(frozen=True)
class Strip:
    """A placed strip: its squares in column order."""

    boxes: tuple

    @property
    def tail(self) -> int:
        """l' = height climbed from first to last square."""
        return _tail(self.boxes)


def _tail(boxes) -> int:
    """l' of a strip given as its squares in column order."""
    return boxes[-1][1] - boxes[0][1]


def _down_steps(boxes) -> int:
    """l = number of descending steps of a strip given as its squares."""
    return (len(boxes) - 1 - _tail(boxes)) // 2


def even_tails(strips) -> int:
    """The number e of even-tail strips: a tiling weighs t^-e under Rule I
    and q^-e under Rule II."""
    return sum(1 for s in strips if s.tail % 2 == 0)


@dataclass(frozen=True)
class StripConfig:
    """One configuration: the strips plus any projection-domain unit squares."""

    strips: tuple
    p_units: frozenset = frozenset()

    def weight(self, rule: str) -> LaurentPoly:
        """t^-e under Rule I and q^-e t^-p under Rule II, for e even-tail
        strips and p projection unit squares."""
        e = even_tails(self.strips)
        if rule == "I":
            return LaurentPoly.t_power(-e)
        return LaurentPoly.q_power(-e) * LaurentPoly.t_power(-len(self.p_units))

    def to_json(self) -> dict:
        return {
            "strips": [[list(b) for b in s.boxes] for s in self.strips],
            "p_units": sorted([list(b) for b in self.p_units]),
        }


def _upper_positions(box):
    x, y = box
    return ((x, y + 2), (x - 1, y + 1), (x + 1, y + 1))


class _Search:
    """Column-by-column backtracking enumeration of strip tilings.

    The search changes one state in place and undoes each change when it
    backtracks.  Strips are numbered in order of creation, and per strip it
    keeps the squares placed so far (`boxes`), the starting height (`start`),
    under Rule I the owner of the square below its first square, None on the
    floor (`shadow`), and under Rule II the strip touching it from above once
    one is seen (`above`).  `boxmap` maps each placed square to its strip.  A
    column is filled bottom to top before the next one starts, so the strips
    open at column x are the owners of the squares of column x, and every
    check reads only the squares of the columns x and x-1."""

    def __init__(self, region, last_col, rule):
        self.region = frozenset(region)
        self.N = last_col
        self.rule = rule
        self.by_col = {}
        for x, y in region:
            self.by_col.setdefault(x, []).append(y)
        for ys in self.by_col.values():
            ys.sort()
        self.boxes, self.start, self.shadow, self.above = [], [], [], []
        self.boxmap = {}
        self.results = []

    def run(self):
        if not self.region:
            return [()]
        self.last = max(self.by_col)
        self._column(min(self.by_col))
        return self.results

    def _column(self, x):
        if x > self.last:
            self._finish()
        else:
            self._assign(x, 0)

    def _assign(self, x, yi):
        """Place the squares of column x from the yi-th one up, each as the
        next square of an open strip or as a new strip, then go on."""
        ys = self.by_col.get(x, ())
        if yi == len(ys):
            self._after_column(x)
            return
        y = ys[yi]
        box = (x, y)
        boxes, boxmap = self.boxes, self.boxmap
        # extend a strip of column x-1 that has no square in column x yet
        for prev in ((x - 1, y - 1), (x - 1, y + 1)):
            sid = boxmap.get(prev)
            if sid is None:
                continue
            squares = boxes[sid]
            if squares[-1][0] == x:
                continue
            if y < self.start[sid]:
                continue  # would dip below the starting height
            # Rule I: the square below, placed already when it lies in the
            # region, has the owner of the square below the strip's first one
            if self.rule == "I" and boxmap.get((x, y - 2)) != self.shadow[sid]:
                continue
            squares.append(box)
            boxmap[box] = sid
            self._assign(x, yi + 1)
            squares.pop()
        # start a new strip here; the squares below it in this column are
        # placed already, so the owner of its shadow is known
        sid = len(boxes)
        boxes.append([box])
        self.start.append(y)
        self.shadow.append(boxmap.get((x, y - 2)))
        self.above.append(None)
        boxmap[box] = sid
        self._assign(x, yi + 1)
        boxes.pop()
        self.start.pop()
        self.shadow.pop()
        self.above.pop()
        del boxmap[box]  # set by every branch

    def _after_column(self, x):
        boxes, boxmap = self.boxes, self.boxmap
        # strips of column x-1 that were not extended close there
        for y in self.by_col.get(x - 1, ()):
            sid = boxmap[(x - 1, y)]
            if boxes[sid][-1][0] != x and not self._close_ok(sid, final_col=x - 1):
                return
        log = []  # the strips whose Rule II above link this column sets
        if self.rule == "I" or self._contacts_ok(x, log):
            self._column(x + 1)
        for sid in log:
            self.above[sid] = None

    def _close_ok(self, sid, final_col):
        squares = self.boxes[sid]
        tail = _tail(squares)
        if tail >= 1:
            if final_col != self.N:
                return False  # rising tails must end on the last column
            if self.rule == "I" and tail % 2 == 0:
                return False
        above = self.above[sid]
        return above is None or all(self._covered(b, sid, above) for b in squares)

    # -- Rule II contact bookkeeping ------------------------------------

    def _contacts_ok(self, x, log):
        """Register the above-relations created by column x, logging each
        link set, and check the packing of column x-1, whose neighbourhood
        is now decided."""
        boxmap = self.boxmap
        for y in self.by_col.get(x, ()):
            sid = boxmap[(x, y)]
            # vertical within the column
            lower = boxmap.get((x, y - 2))
            if lower is not None and lower != sid:
                if not self._set_above(lower, sid, x, log):
                    return False
            # this box sits NE of (x-1, y-1)
            sw = boxmap.get((x - 1, y - 1))
            if sw is not None and sw != sid:
                if not self._set_above(sw, sid, x, log):
                    return False
            # this box sits SE below (x-1, y+1)
            nw = boxmap.get((x - 1, y + 1))
            if nw is not None and nw != sid:
                if not self._set_above(sid, nw, x, log):
                    return False
        for y in self.by_col.get(x - 1, ()):
            box = (x - 1, y)
            sid = boxmap[box]
            above = self.above[sid]
            if above is not None and not self._covered(box, sid, above):
                return False
        return True

    def _set_above(self, lower, upper, col, log):
        current = self.above[lower]
        if current is not None:
            return current == upper
        self.above[lower] = upper
        log.append(lower)
        # retro-check the squares whose whole neighbourhood is already
        # assigned (everything up to the column being processed)
        return all(self._covered(b, lower, upper) for b in self.boxes[lower] if b[0] < col)

    def _covered(self, box, sid, above):
        boxmap = self.boxmap
        for p in _upper_positions(box):
            if p[0] <= self.N and boxmap.get(p) not in (sid, above):
                return False
        return True

    # -- final validation -------------------------------------------------

    def _finish(self):
        last, boxmap = self.last, self.boxmap
        for y in self.by_col[last]:
            if not self._close_ok(boxmap[(last, y)], final_col=last):
                return
        if self._final_rule1() if self.rule == "I" else self._final_rule2():
            self.results.append(tuple(Strip(tuple(b)) for b in self.boxes))

    def _final_rule1(self):
        region, boxmap = self.region, self.boxmap
        counts = {}
        for squares in self.boxes:
            tail = _tail(squares)
            if tail >= 1:
                if tail % 2 == 0 or squares[-1][0] != self.N:
                    return False
                key = (_down_steps(squares), tail)
                counts[key] = counts.get(key, 0) + 1
            # full-shadow rule, re-verified on the complete assignment
            shadow = [(x, y - 2) for x, y in squares]
            owners = {boxmap.get(b) for b in shadow if b in region}
            if owners:
                if len(owners) != 1 or any(b not in region for b in shadow):
                    return False
        return all(c % 2 == 0 for c in counts.values())

    def _final_rule2(self):
        boxes, boxmap = self.boxes, self.boxmap
        touchers = [set() for _ in boxes]
        for box, sid in boxmap.items():
            for p in _upper_positions(box):
                o = boxmap.get(p)
                if o is not None and o != sid:
                    touchers[sid].add(o)
        for sid, ts in enumerate(touchers):
            if len(ts) > 1:
                return False
            if ts:
                above = next(iter(ts))
                if not all(self._covered(b, sid, above) for b in boxes[sid]):
                    return False
        for sid, squares in enumerate(boxes):
            tail = _tail(squares)
            if tail < 1:
                continue
            if squares[-1][0] != self.N:
                return False
            down = _down_steps(squares)
            if tail % 2 == 1:
                ts = touchers[sid]
                if not ts:
                    return False
                a = boxes[next(iter(ts))]
                if _tail(a) != tail + 1 or _down_steps(a) < down:
                    return False
            elif not any(
                touchers[s] == {sid} and _tail(b) == tail - 1 and _down_steps(b) <= down
                for s, b in enumerate(boxes)
            ):
                return False
        return True


def rule1_configs(alpha, beta):
    """All Rule I configurations on the region between alpha and beta."""
    region = skew_region(alpha, beta)
    tilings = _Search(region, len(alpha), "I").run()
    return [StripConfig(strips=t) for t in tilings]


@lru_cache(maxsize=None)
def rule2_tilings(gamma, beta):
    """Rule II tilings of the region between gamma and beta, no projection
    domain, memoised per path pair.  There is at most one; the tuple is empty
    when the packing rules cannot be met."""
    region = skew_region(gamma, beta)
    tilings = _Search(region, len(gamma), "II").run()
    if len(tilings) > 1:
        raise ArithmeticError(
            f"rule II tiling is not unique for {gamma}/{beta}: {len(tilings)} found"
        )
    return tuple(tilings)


def rule2_configs(alpha, beta, shape: Shape):
    """All Rule II configurations, one per viable projection-domain choice.

    The lower path must be an eta image for the shape; the projection domain
    for a choice gamma (between alpha and min(zeta(k), beta)) is the region
    between alpha and gamma, filled with unit squares."""
    k = eta_inverse(alpha, shape)
    if k is None:
        raise ValueError("lower path must be an eta image for the shape")
    top = min_path(zeta(k, shape), beta)
    configs = []
    for gamma in paths_between(alpha, top):
        p_boxes = skew_region(alpha, gamma)
        for strips in rule2_tilings(gamma, beta):
            configs.append(StripConfig(strips=strips, p_units=frozenset(p_boxes)))
    return configs


def enumerate_configs(alpha, beta, rule: str, eps: str, shape: Shape = None):
    """The full configuration set for either rule and either sign.

    For eps='+' the roles of the paths are exchanged (the order reverses), so
    the enumeration runs on (beta, alpha).  Distinct paths that are not
    comparable in that order raise ValueError."""
    if eps == "+":
        return enumerate_configs(beta, alpha, rule, "-", shape)
    if rule not in ("I", "II"):
        raise ValueError(f"rule must be 'I' or 'II', got {rule!r}")
    if rule == "II":
        if shape is None:
            raise ValueError("rule II requires the shape (projection domains)")
        if eta_inverse(alpha, shape) is None:
            raise ValueError("lower path must be an eta image for the shape")
    if alpha == beta:
        return [StripConfig(strips=())]
    if not is_below(alpha, beta):
        raise ValueError("paths are not comparable in the requested order")
    if rule == "I":
        return rule1_configs(alpha, beta)
    return rule2_configs(alpha, beta, shape)


def weight_sum(configs, rule: str) -> LaurentPoly:
    """The generating function of a configuration list under the rule."""
    total = ZERO
    for c in configs:
        total = total + c.weight(rule)
    return total


@lru_cache(maxsize=None)
def _q_polynomial_cached(alpha, beta, rule, eps, shape_m):
    # the comparability check runs on a miss only: a raised ValueError is
    # not cached, so every call on an incomparable pair raises
    shape = Shape(shape_m) if shape_m is not None else None
    return weight_sum(enumerate_configs(alpha, beta, rule, eps, shape), rule)


def q_polynomial(alpha, beta, rule: str, eps: str, shape: Shape = None) -> LaurentPoly:
    """The generating function of configurations, in Z[q,q^-1] via t = -q.

    Defined when the paths coincide (value 1) or are comparable in the order
    attached to eps; incomparable paths raise ValueError."""
    alpha, beta = tuple(alpha), tuple(beta)
    shape_m = shape.m if (shape is not None and rule == "II") else None
    return _q_polynomial_cached(alpha, beta, rule, eps, shape_m)


def rule2_exponent(gamma, beta):
    """The exponent e of the Rule II tiling weight q^-e from gamma up to
    beta, or None when no tiling exists; gamma must lie below beta."""
    if gamma == beta:
        return 0
    tilings = rule2_tilings(gamma, beta)
    return even_tails(tilings[0]) if tilings else None


def rule2_weight_sum(gamma, beta) -> LaurentPoly:
    """Weight of the unique Rule II tiling between two paths, or 0 if none.

    This is the quantity that matches the eps='-' parabolic Kazhdan-Lusztig
    polynomial evaluated at minus its argument."""
    e = rule2_exponent(gamma, beta) if is_below(gamma, beta) else None
    return ZERO if e is None else LaurentPoly.q_power(-e)


def rule2_rows(shape: Shape) -> dict:
    """Rule II over the eta images of the shape, as sparse rows
    {alpha: {beta: entry}} holding the nonzero entries.

    A configuration from alpha = eta(k) to beta is a projection domain, the
    region between alpha and a path gamma below both zeta(k) and beta, with
    t^-1 per square, plus the tiling from gamma to beta.  So row alpha is the
    sum over gamma of t^-area(alpha, gamma) times the tiling weights
    q^-e(gamma, beta): each gamma is listed once per row, not once per entry.
    Entry by entry this equals q_polynomial(alpha, beta, "II", "-", shape)."""
    images = eta_images(shape)
    rows = {}
    for k, alpha, ha in images:
        above = [(beta, hb) for _, beta, hb in images if all(map(le, ha, hb))]
        base = area(alpha)
        coeffs = {}  # beta -> {exponent: integer coefficient}
        for gamma in paths_between(alpha, zeta(k, shape)):
            p = base - area(gamma)  # projection squares: t^-p = (-1)^p q^-p
            sign = -1 if p % 2 else 1
            hg = heights(gamma)
            for beta, hb in above:
                if all(map(le, hg, hb)):  # gamma below beta
                    e = rule2_exponent(gamma, beta)
                    if e is not None:
                        c = coeffs.setdefault(beta, {})
                        c[-e - p] = c.get(-e - p, 0) + sign
        rows[alpha] = {beta: v for beta, c in coeffs.items() if (v := LaurentPoly(c))}
    return rows


@dataclass
class InversionReport:
    shape: tuple
    pairs_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_inversion(shape: Shape, jobs: int = 1) -> InversionReport:
    """Check that Rule I and Rule II generating functions are inverse to each
    other over admissible intermediate paths, for every comparable pair of
    eta images of the shape: each row of R_I R_II must be the unit row."""
    images = eta_images(shape)
    up = {a: [c for _, c, hc in images if all(map(le, ha, hc))] for _, a, ha in images}
    row = partial(_inversion_row, up=up, rule2=rule2_rows(shape))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # each chunk of rows pickles the Rule II rows once
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(row, up, chunksize=max(1, len(up) // (4 * jobs))))
    else:
        rows = [row(a) for a in up]
    failures = [f for r in rows for f in r]
    return InversionReport(shape=shape.m, pairs_checked=sum(map(len, up.values())), failures=failures)


def _inversion_row(a, up, rule2):
    """Row a of R_I R_II over the images up[a] above a, as the failures
    (a, c, entry) where the entry is not that of the unit matrix.  Only the
    nonzero Rule I entries are multiplied, each by a sparse Rule II row, and
    the products are summed as integer coefficients per exponent."""
    sums = {}  # c -> {exponent: integer coefficient}
    for b in up[a]:
        q1 = q_polynomial(a, b, "I", "-").coeffs.items()
        if q1:
            for c, q2 in rule2[b].items():
                s = sums.setdefault(c, {})
                for e2, c2 in q2.coeffs.items():
                    for e1, c1 in q1:
                        s[e1 + e2] = s.get(e1 + e2, 0) + c1 * c2
    row = {c: LaurentPoly(s) for c, s in sums.items()}
    return [(a, c, row.get(c, ZERO)) for c in up[a] if row.get(c, ZERO) != (ONE if c == a else ZERO)]


def render_config(config: StripConfig, n_cols: int) -> str:
    """ASCII picture: one character per square, strips labelled a, b, c, ...
    and projection unit squares shown as '#'."""
    cells = {}
    for i, s in enumerate(config.strips):
        label = chr(ord("a") + (i % 26))
        for b in s.boxes:
            cells[b] = label
    for b in config.p_units:
        cells[b] = "#"
    if not cells:
        return "(empty)"
    ys = [y for _, y in cells]
    lines = []
    for y in range(max(ys), min(ys) - 1, -1):
        row = []
        for x in range(1, n_cols + 1):
            row.append(cells.get((x, y), "."))
        lines.append(" ".join(row))
    return "\n".join(lines)
