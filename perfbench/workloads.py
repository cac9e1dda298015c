"""The four benchmark workloads: fixed inputs, the calls into the package's
public functions, and the checks on their outputs.

A workload has three parts:

* `operations(size)` lists the calls of one round as (label, thunk) pairs.
  Each thunk is one public entry point; `round.py` times the thunks and
  nothing else.
* `collect(results, size, seed)` turns the outputs into plain data
  (dicts, lists, ints), after the timed region.  The strip workload also
  reads the sampled strip polynomials here; `seed` picks that sample.
* `check(data, size)` returns a list of error strings, empty when every
  output is right.  It uses only plain data and its own arithmetic, so a
  test can corrupt one value and see the check fail.  Operations that
  raised are counted as failed by the caller and left out of the checks.

`size` is "full" for the benchmark and "tiny" for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import product
from math import prod

from coidealbasis import ballot, basis, cli, coideal, laurent
from coidealbasis.paths import Shape, eta_images, parse_path

# The q = 1 sum table of acceptance criterion 10: TABLE[m-1][L-1] is the sum
# of the top-eigenvector components of the shape (m,) * L.
TABLE = [[3, 10, 38], [8, 92, 1408], [21, 832, 52736]]


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def weight_indices(m):
    return sorted(product(*[range(-x, x + 1, 2) for x in m]))


def bishop(n):
    """a(1) = 1, a(2) = 3, a(n) = 2 a(n-1) + (2n-2) a(n-2)."""
    a, b = 1, 3
    if n == 1:
        return a
    for i in range(3, n + 1):
        a, b = b, 2 * b + (2 * i - 2) * a
    return b


def pell_sum(m):
    """Pell(m+2) - 2^m, with Pell(0) = 0, Pell(1) = 1."""
    a, b = 0, 1
    for _ in range(m + 2):
        a, b = b, 2 * b + a
    return a - 2 ** m


def coeffs(poly):
    """Plain {exponent: coefficient} copy of a LaurentPoly."""
    return dict(poly.coeffs)


def at_two(cs):
    """Exact value at q = 2 of a {exponent: coefficient} dict."""
    return sum(Fraction(c) * Fraction(2) ** e for e, c in cs.items())


# ---------------------------------------------------------------------------
# psi-routes: the top eigenvector along all four routes, through the CLI
# ---------------------------------------------------------------------------


class PsiRoutes:
    name = "psi-routes"
    # the unit shape first, then a constant shape with other Hecke modules
    SHAPES = {"full": [(1,) * 7, (2, 2, 2)], "tiny": [(1,) * 4, (2, 2)]}

    def operations(self, size):
        return [(f"psi {m}", lambda m=m: self._psi(m)) for m in self.SHAPES[size]]

    @staticmethod
    def _psi(m):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["psi", "--shape", ",".join(map(str, m)), "--format", "json"])
        if code != 0:
            raise RuntimeError(f"coidealbasis psi --shape {m} exited with {code}")
        return out.getvalue()

    def collect(self, results, size, seed):
        return [(m, json.loads(text)) for m, (_, text) in zip(self.SHAPES[size], results) if text is not None]

    def check(self, data, size):
        errors = []
        for m, payload in data:
            if payload["routes"] != ["elimination", "graph", "transition", "closed"]:
                errors.append(f"{m}: routes {payload['routes']}")
            if len(payload["agreements"]) != 3 or not all(payload["agreements"].values()):
                errors.append(f"{m}: route agreements {payload['agreements']}")
            if payload["eigen_ok"] is not True:
                errors.append(f"{m}: eigenvalue equation fails")
            comps = {
                tuple(c["index"]): {int(e): int(v) for e, v in c["value"]["q_coeffs"].items()}
                for c in payload["psi"]["components"]
            }
            if len(comps) != prod(x + 1 for x in m) or sorted(comps) != weight_indices(m):
                errors.append(f"{m}: {len(comps)} components")
            for k, cs in comps.items():
                if any(v <= 0 for v in cs.values()):
                    errors.append(f"{m}: component {k} has a coefficient <= 0")
                if any(cs.get(-e) != v for e, v in cs.items()):
                    errors.append(f"{m}: component {k} is not bar-symmetric")
            if comps.get(tuple(-x for x in m)) != {0: 1}:
                errors.append(f"{m}: bottom component is not 1")
            total = sum(sum(cs.values()) for cs in comps.values())
            expected = None
            if set(m) == {1}:
                expected = bishop(len(m) + 1)
            elif len(set(m)) == 1 and m[0] <= 3 and len(m) <= 3:
                expected = TABLE[m[0] - 1][len(m) - 1]
            if expected is None or total != expected:
                errors.append(f"{m}: components sum to {total} at q = 1, expected {expected}")
        return errors


# ---------------------------------------------------------------------------
# strip-inversion: Rule I against Rule II over every shape of one size
# ---------------------------------------------------------------------------


class StripInversion:
    name = "strip-inversion"
    SITES = {"full": 5, "tiny": 4}
    SAMPLE = {"full": 64, "tiny": 16}
    # acceptance criterion 1, with t = -q: t^-13 + t^-11 + 2 t^-9 + t^-5 and
    # t^-3 + t^-5
    REFERENCE = (
        (("--++-+", "++++++", "I", None), {-13: -1, -11: -1, -9: -2, -5: -1}),
        (("-+-+-+-+", "++++++--", "II", (2, 2, 2, 2)), {-3: -1, -5: -1}),
    )

    def shapes(self, size):
        return list(compositions(self.SITES[size]))

    def operations(self, size):
        return [
            (f"verify_inversion {m}", lambda m=m: ballot.verify_inversion(Shape(m), jobs=1))
            for m in self.shapes(size)
        ]

    def collect(self, results, size, seed):
        shapes = self.shapes(size)
        reports = [
            {"shape": m, "pairs": rep.pairs_checked, "failures": len(rep.failures)}
            for m, (_, rep) in zip(shapes, results)
            if rep is not None
        ]
        # every comparable pair (a, c) of eta images, over all shapes
        pairs = []
        for m in shapes:
            images = eta_images(Shape(m))
            for _, a, ha in images:
                for _, c, hc in images:
                    if all(x <= y for x, y in zip(ha, hc)):
                        pairs.append((m, a, ha, c, hc))
        sample = []
        for m, a, ha, c, hc in random.Random(seed).sample(pairs, self.SAMPLE[size]):
            shape = Shape(m)
            terms = [
                (coeffs(ballot.q_polynomial(a, b, "I", "-", shape)),
                 coeffs(ballot.q_polynomial(b, c, "II", "-", shape)))
                for _, b, hb in eta_images(shape)
                if all(x <= y <= z for x, y, z in zip(ha, hb, hc))
            ]
            sample.append({"shape": m, "a": a, "c": c, "terms": terms})
        reference = [
            coeffs(ballot.q_polynomial(parse_path(a), parse_path(b), rule, "-", Shape(s) if s else None))
            for (a, b, rule, s), _ in self.REFERENCE
        ]
        return {"reports": reports, "sample": sample, "reference": reference}

    def check(self, data, size):
        errors = []
        for r in data["reports"]:
            if r["failures"]:
                errors.append(f"{r['shape']}: {r['failures']} inversion failures")
            if r["pairs"] < prod(x + 1 for x in r["shape"]):
                errors.append(f"{r['shape']}: only {r['pairs']} pairs checked")
        for s in data["sample"]:
            total = sum(at_two(q1) * at_two(q2) for q1, q2 in s["terms"])
            if total != (1 if s["a"] == s["c"] else 0):
                errors.append(f"{s['shape']} {s['a']} {s['c']}: sum of Q_I Q_II at q = 2 is {total}")
        if len(data["sample"]) != self.SAMPLE[size]:
            errors.append(f"{len(data['sample'])} sampled pairs")
        for got, (args, want) in zip(data["reference"], self.REFERENCE):
            if got != want:
                errors.append(f"reference generating function {args}: {got}")
        return errors


# ---------------------------------------------------------------------------
# rmatrix-routes: transition matrices along every route
# ---------------------------------------------------------------------------


class RMatrixRoutes:
    name = "rmatrix-routes"
    # every shape of one size; the unit shape among them has the largest
    # triangular solve
    SITES = {"full": 5, "tiny": 3}

    def shapes(self, size):
        return list(compositions(self.SITES[size]))

    def operations(self, size):
        return [
            (f"r_matrices {m}", lambda m=m: basis.r_matrices(Shape(m), check_routes=True))
            for m in self.shapes(size)
        ]

    def collect(self, results, size, seed):
        out = []
        for m, (_, rep) in zip(self.shapes(size), results):
            if rep is None:
                continue
            out.append({
                "shape": m,
                "ok": rep.ok,
                "indices": list(rep.lower.indices),
                "lower": {rc: coeffs(v) for rc, v in rep.lower.entries.items() if v},
                "upper": {rc: coeffs(v) for rc, v in rep.upper.entries.items() if v},
            })
        return out

    def check(self, data, size):
        errors = []
        for d in data:
            m = d["shape"]
            if not d["ok"]:
                errors.append(f"{m}: report not ok")
            idx = weight_indices(m)
            if d["indices"] != idx:
                errors.append(f"{m}: index set differs")
            for name in ("lower", "upper"):
                mat = d[name]
                for k in idx:
                    if mat.get((k, k)) != {0: 1}:
                        errors.append(f"{m} {name}: diagonal entry at {k} is not 1")
                for (r, c), cs in mat.items():
                    if r != c and any(e >= 0 for e in cs):
                        errors.append(f"{m} {name}: entry {r},{c} not in q^-1 Z[q^-1]")
            for (r, c), cs in d["lower"].items():
                if any(v < 0 for v in cs.values()):
                    errors.append(f"{m} lower: entry {r},{c} has a negative coefficient")
            # sum_k lower[k, l] upper[k, l'] = delta, evaluated at q = 2
            lower_cols, upper_cols = {}, {}
            for cols, mat in ((lower_cols, d["lower"]), (upper_cols, d["upper"])):
                for (r, c), cs in mat.items():
                    cols.setdefault(c, {})[r] = at_two(cs)
            for l in idx:
                col_l = lower_cols.get(l, {})
                for lp in idx:
                    col_lp = upper_cols.get(lp, {})
                    total = sum(v * col_lp[k] for k, v in col_l.items() if k in col_lp)
                    if total != (1 if l == lp else 0):
                        errors.append(f"{m}: inversion at q = 2 fails at {l},{lp}")
        return errors


# ---------------------------------------------------------------------------
# scalar-identities: telescoping identities and the q = 1 sum rules
# ---------------------------------------------------------------------------


class ScalarIdentities:
    name = "scalar-identities"
    # largest K of the full criterion-11 grid (entries 0..3 and 1..3)
    K_MAX = {"full": 2, "tiny": 2}
    # part of K = 4, where the products are largest: the first identity for
    # n_i in {0, 1}, m_i in {1, 2}; the second for x = 0..3, z = 0, m_i in {1, 2}
    K4_SLICE = {"full": True, "tiny": False}
    BISHOP_L = {"full": 12, "tiny": 6}
    PELL_M = 12

    def grid(self, size):
        one, two = [], []
        for K in range(1, self.K_MAX[size] + 1):
            one += [(ns, ms) for ns in product(range(4), repeat=K) for ms in product(range(1, 4), repeat=K)]
            two += [(x, z, ms) for x in range(4) for z in range(4) for ms in product(range(1, 4), repeat=K)]
        if self.K4_SLICE[size]:
            one += [(ns, ms) for ns in product(range(2), repeat=4) for ms in product(range(1, 3), repeat=4)]
            two += [(x, 0, ms) for x in range(4) for ms in product(range(1, 3), repeat=4)]
        return one, two

    def grid_size(self, size):
        k = self.K_MAX[size]
        return sum(12 ** K + 16 * 3 ** K for K in range(1, k + 1)) + (256 + 64 if self.K4_SLICE[size] else 0)

    def operations(self, size):
        one, two = self.grid(size)
        ops = [(("one", a), lambda a=a: laurent.telescoping_identity_one(*a)) for a in one]
        ops += [(("two", a), lambda a=a: laurent.telescoping_identity_two(*a)) for a in two]
        ops += [(("bishop", L), lambda L=L: coideal.component_sum_at_one(1, L))
                for L in range(1, self.BISHOP_L[size] + 1)]
        ops += [(("pell", m), lambda m=m: coideal.component_sum_at_one(m, 1))
                for m in range(1, self.PELL_M + 1)]
        ops.append((("table",), lambda: coideal.sum_table(3, 3)))
        return ops

    def collect(self, results, size, seed):
        data = {"identities": [], "bishop": {}, "pell": {}, "table": None}
        for label, value in results:
            if label[0] in ("one", "two"):
                data["identities"].append(value)  # None if the call raised
            elif value is None:
                continue
            elif label[0] == "table":
                data["table"] = value
            else:
                data[label[0]][label[1]] = value
        return data

    def check(self, data, size):
        errors = []
        ids = data["identities"]
        if len(ids) != self.grid_size(size):
            errors.append(f"{len(ids)} identity instances, grid has {self.grid_size(size)}")
        false = sum(v is not True for v in ids if v is not None)
        if false:
            errors.append(f"{false} identity instances not True")
        want = {L: bishop(L + 1) for L in range(1, self.BISHOP_L[size] + 1)}
        if any(data["bishop"].get(L, v) != v for L, v in want.items()):
            errors.append(f"bishop rule: {data['bishop']} != {want}")
        want = {m: pell_sum(m) for m in range(1, self.PELL_M + 1)}
        if any(data["pell"].get(m, v) != v for m, v in want.items()):
            errors.append(f"Pell rule: {data['pell']} != {want}")
        if data["table"] not in (None, TABLE):
            errors.append(f"sum table {data['table']}")
        return errors


WORKLOADS = {w.name: w for w in (PsiRoutes(), StripInversion(), RMatrixRoutes(), ScalarIdentities())}
