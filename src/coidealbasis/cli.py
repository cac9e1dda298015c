"""Command-line front end.

Subcommands expose the main computations (Kazhdan-Lusztig tables, strip
generating functions, basis expansions, transition matrices, diagrams, the
coideal action, the eigensystem, the top eigenvector and the sum rules) and
a `verify` subcommand running the property suites at configurable bounds.

Outputs are deterministic: indices are emitted in ascending lexicographic
order and polynomial coefficients in ascending exponent order.  Progress for
long enumerations goes to stderr; stdout stays machine-parsable.  The
environment variable COIDEALBASIS_THREADS sets the process count used by the
embarrassingly parallel verification loops.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from itertools import product as iproduct

from . import ballot, basis, coideal, hecke
from .laurent import telescoping_identity_one, telescoping_identity_two
from .paths import Shape, all_shapes, is_below, parse_path, path_str


class CheckFailure(Exception):
    pass


def _parse_shape(text: str) -> Shape:
    try:
        return Shape(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}")


def _parse_index(text: str):
    return tuple(int(x) for x in text.split(","))


def _parse_q0(text: str) -> Fraction:
    q0 = Fraction(text)
    if q0 == 0:
        raise argparse.ArgumentTypeError("q0 must be nonzero")
    return q0


def _jobs() -> int:
    try:
        return max(1, int(os.environ.get("COIDEALBASIS_THREADS", "1")))
    except ValueError:
        return 1


def _emit(args, payload_json, payload_text):
    """Write either JSON or preformatted text to stdout or the output path."""
    if args.format == "json":
        text = json.dumps(payload_json, indent=2, sort_keys=True) + "\n"
    else:
        text = payload_text
        if not text.endswith("\n"):
            text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_klpoly(args):
    n, eps = args.n, args.eps
    mod = hecke.module(n, eps)
    table = {}
    for beta in sorted(iproduct((1, -1), repeat=n)):
        row = {}
        for alpha, c in sorted(mod.kl_basis(beta).items()):
            row[path_str(alpha)] = str(c) if args.format != "json" else c.to_json()
        table[path_str(beta)] = row
    if args.format == "csv":
        paths = [path_str(p) for p in sorted(iproduct((1, -1), repeat=n))]
        rows = [[""] + paths]
        for b in paths:
            rows.append([b] + [table[b].get(a, "0") for a in paths])
        _emit(args, None, _csv_text(rows))
    else:
        lines = [f"{b}: " + ", ".join(f"{a}: {c}" for a, c in row.items()) for b, row in table.items()]
        _emit(args, {"n": n, "eps": eps, "basis": table}, "\n".join(lines))
    return 0


def cmd_qpoly(args):
    alpha, beta = parse_path(args.alpha), parse_path(args.beta)
    shape = args.shape
    p = ballot.q_polynomial(alpha, beta, args.rule, args.eps, shape)
    configs = ballot.enumerate_configs(alpha, beta, args.rule, args.eps, shape)
    spot = str(p.evaluate(args.q0)) if args.q0 is not None else None
    if args.format == "ascii":
        pieces = [f"Q = {p}"]
        if spot is not None:
            pieces.append(f"Q({args.q0}) = {spot}")
        pieces.append("")
        for i, c in enumerate(configs):
            pieces.append(f"configuration {i + 1} (weight {c.weight(args.rule)}):")
            pieces.append(ballot.render_config(c, len(alpha)))
            pieces.append("")
        _emit(args, None, "\n".join(pieces))
    else:
        payload = {
            "alpha": path_str(alpha),
            "beta": path_str(beta),
            "rule": args.rule,
            "eps": args.eps,
            "value": p.to_json(),
            "configurations": [c.to_json() for c in configs],
        }
        if spot is not None:
            payload["value_at_q0"] = spot
        _emit(args, payload, str(p))
    return 0


def cmd_dualbasis(args):
    shape = args.shape
    kind = args.kind
    ks = [shape.check(args.k)] if args.k else sorted(shape.indices())
    vectors = {
        "spade": basis.spade_vectors,
        "club": basis.club_vectors,
        "heart": basis.heart_vectors,
    }[kind](shape.m)
    payload = {}
    lines = []
    for k in ks:
        vec = vectors[k]
        payload[" ".join(map(str, k))] = vec.to_json()
        lines.append(f"{list(k)}: {vec}")
    _emit(args, {"shape": list(shape.m), "kind": kind, "vectors": payload}, "\n".join(lines))
    return 0


def cmd_rmatrix(args):
    shape = args.shape
    rep = basis.r_matrices(shape, check_routes=args.check)
    if args.format == "csv":
        rows = [["# lower"]] + list(rep.lower.csv_rows()) + [["# upper"]] + list(rep.upper.csv_rows())
        _emit(args, None, _csv_text(rows))
    else:
        _emit(
            args,
            {
                "shape": list(shape.m),
                "lower": rep.lower.to_json(),
                "upper": rep.upper.to_json(),
                "route_failures": [str(f) for f in rep.route_failures],
                "inversion_failures": [str(f) for f in rep.inversion_failures],
                "ok": rep.ok,
            },
            f"routes ok: {not rep.route_failures}; inversion ok: {not rep.inversion_failures}",
        )
    if not rep.ok:
        raise CheckFailure(f"transition-matrix checks failed for shape {shape.m}")
    return 0


def cmd_diagram(args):
    shape = args.shape
    ks = [args.k] if args.k else sorted(shape.indices())
    payload = []
    lines = []
    for k in ks:
        d = basis.build_diagram(k, shape)
        payload.append(d.to_json())
        lines.append(f"{list(k)}: {d.render()}")
    _emit(args, {"shape": list(shape.m), "diagrams": payload}, "\n".join(lines))
    return 0


def cmd_yact(args):
    shape = args.shape
    d = basis.build_diagram(args.k, shape)
    terms = coideal.y_on_diagram(d)
    payload = {
        "shape": list(shape.m),
        "k": list(args.k),
        "terms": [
            {"coeff": c.to_json(), "diagram": d2.to_json(), "index": list(d2.index())}
            for c, d2 in terms
        ],
    }
    lines = [f"Y({d.render()}) ="]
    for c, d2 in terms:
        lines.append(f"  ({c}) * {d2.render()}   [index {list(d2.index())}]")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_eigen(args):
    rep = coideal.spectrum(args.shape, args.q0)
    text = ", ".join(f"M_{j}={m}" for j, m in sorted(rep.multiplicities.items(), reverse=True))
    _emit(args, rep.to_json(), f"{text}\nverified at q0={rep.q0}: {rep.verified}")
    if not rep.verified:
        raise CheckFailure(f"spectral multiplicities not verified for {args.shape.m}")
    return 0


def cmd_psi(args):
    routes = tuple(args.routes.split(","))
    rep = coideal.psi_solve(args.shape, routes=routes)
    payload = {
        "shape": list(args.shape.m),
        "routes": list(routes),
        "agreements": rep.agreements,
        "eigen_ok": rep.eigen_ok,
        "psi": rep.psi.to_json(),
    }
    lines = [f"{list(k)}: {v}" for k, v in sorted(rep.psi.components.items())]
    if args.q0 is not None:
        payload["components_at_q0"] = {
            " ".join(map(str, k)): str(v.evaluate(args.q0))
            for k, v in sorted(rep.psi.components.items())
        }
        lines.append(
            f"at q0={args.q0}: "
            + ", ".join(
                f"{list(k)}={v.evaluate(args.q0)}"
                for k, v in sorted(rep.psi.components.items())
            )
        )
    lines.append(f"agreements: {rep.agreements}")
    lines.append(f"eigenvalue equation: {rep.eigen_ok}")
    _emit(args, payload, "\n".join(lines))
    if not rep.ok:
        raise CheckFailure("eigenvector routes disagree")
    return 0


def cmd_sumrule(args):
    if args.mode == "table":
        table = coideal.sum_table(args.m, args.length)
        rows = [["m\\L"] + [str(L) for L in range(1, args.length + 1)]]
        for m, row in enumerate(table, start=1):
            rows.append([str(m)] + [str(v) for v in row])
        _emit(args, {"table": table}, _csv_text(rows))
        return 0
    if args.mode == "pell":
        ok = True
        rows = [["m", "sum", "pell_value", "match"]]
        for m in range(1, args.m + 1):
            s = coideal.component_sum_at_one(m, 1)
            p = coideal.pell_sum_value(m)
            ok = ok and s == p
            rows.append([str(m), str(s), str(p), str(s == p)])
        _emit(args, {"ok": ok, "rows": rows[1:]}, _csv_text(rows))
        if not ok:
            raise CheckFailure("length-one sum rule failed")
        return 0
    if args.mode == "a000902":
        ok = True
        rows = [["L", "sum", "sequence_value", "match"]]
        for L in range(1, args.length + 1):
            _progress(f"summing unit-shape eigenvector components, L={L}")
            s = coideal.component_sum_at_one(1, L)
            c = coideal.bishop_sequence(L + 1)
            ok = ok and s == c
            rows.append([str(L), str(s), str(c), str(s == c)])
        _emit(args, {"ok": ok, "rows": rows[1:]}, _csv_text(rows))
        if not ok:
            raise CheckFailure("unit-shape sum rule failed")
        return 0
    # plain value
    value = coideal.component_sum_at_one(args.m, args.length)
    _emit(args, {"m": args.m, "L": args.length, "sum": value}, str(value))
    return 0


def cmd_verify(args):
    failures = []
    max_sites = args.max_sites
    jobs = _jobs()

    def check(name, ok):
        _progress(f"[{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    # scalar identities
    ok = True
    for K in range(1, 4):
        for ns in iproduct(range(0, 3), repeat=K):
            for ms in iproduct(range(1, 3), repeat=K):
                ok = ok and telescoping_identity_one(ns, ms)
    check("telescoping identity (first)", ok)
    ok = True
    for K in range(1, 3):
        for x in range(0, 3):
            for z in range(0, 3):
                for ms in iproduct(range(1, 3), repeat=K):
                    ok = ok and telescoping_identity_two(x, z, ms)
    check("telescoping identity (second)", ok)

    # strip generating functions against the parabolic KL oracle
    nmax = min(max_sites, 6)
    ok = True
    modp = hecke.module(nmax, "+")
    modm = hecke.module(nmax, "-")
    for a in iproduct((1, -1), repeat=nmax):
        for b in iproduct((1, -1), repeat=nmax):
            if is_below(b, a) and ballot.q_polynomial(a, b, "I", "+") != modp.kl_poly(a, b):
                ok = False
            if is_below(a, b) and ballot.rule2_weight_sum(a, b) != modm.kl_poly(a, b).subs_neg():
                ok = False
    check(f"strip rules match KL oracle (N={nmax})", ok)

    # inversion of the two strip rules
    ok = True
    for shape in all_shapes(min(max_sites, 6)):
        rep = ballot.verify_inversion(shape, jobs=jobs)
        ok = ok and rep.ok
    check(f"strip-rule inversion (sites <= {min(max_sites, 6)})", ok)

    # transition matrices: all routes and the bilinear inversion
    ok = True
    for shape in all_shapes(min(max_sites, 5)):
        rep = basis.r_matrices(shape, check_routes=True)
        ok = ok and rep.ok
    check(f"transition-matrix routes (sites <= {min(max_sites, 5)})", ok)

    # twisted involutions fix the canonical bases
    ok = True
    from .quantum import psi_iota

    for shape in all_shapes(min(max_sites, 4)):
        for k, v in basis.spade_vectors(shape.m).items():
            ok = ok and psi_iota(v, "-") == v
        for k, v in basis.club_vectors(shape.m).items():
            ok = ok and psi_iota(v, "+") == v
    check(f"twisted involutions fix the bases (sites <= {min(max_sites, 4)})", ok)

    # positivity of decompositions
    ok = True
    for shape in all_shapes(min(max_sites, 5)):
        for l, row in basis.hearts_into_spades(shape).items():
            for k, c in row.items():
                if k == l:
                    ok = ok and c.is_one()
                else:
                    ok = ok and c.in_negative_shell() and c.has_nonneg_coeffs()
    check(f"decomposition positivity (sites <= {min(max_sites, 5)})", ok)

    # the coideal action: diagrams against the string formula
    from .quantum import TensorVector, act_y

    ok = True
    for shape in all_shapes(min(max_sites, 6)):
        spades = basis.spade_vectors(shape.m)
        for k, vec in spades.items():
            image = TensorVector.zero(shape.m, True)
            for coeff, d2 in coideal.y_on_diagram(basis.build_diagram(k, shape)):
                image = image + spades[d2.index()].scale(coeff)
            ok = ok and image == act_y(vec)
    check(f"diagram action matches module action (sites <= {min(max_sites, 6)})", ok)

    # spectra
    ok = True
    for shape in [Shape((1,) * L) for L in range(1, min(max_sites, 6) + 1)] + [
        Shape((2, 2)),
        Shape((3, 3)),
    ]:
        if shape.total <= max_sites:
            rep = coideal.spectrum(shape)
            ok = ok and rep.verified
    check("spectral multiplicities", ok)

    # the top eigenvector, all routes
    ok = True
    for shape in [Shape((1,) * L) for L in range(1, min(max_sites, 6) + 1)] + [
        Shape((2, 2)),
        Shape((3, 2)),
    ]:
        if shape.total <= max_sites:
            rep = coideal.psi_solve(shape)
            ok = ok and rep.ok
            for v in rep.psi.components.values():
                ok = ok and v.has_nonneg_coeffs() and v.is_bar_symmetric()
    check("top eigenvector routes and positivity", ok)

    # sum rules
    table = coideal.sum_table(3, 3)
    check("sum table", table == [[3, 10, 38], [8, 92, 1408], [21, 832, 52736]])
    check(
        "length-one sums are Pell values",
        all(coideal.component_sum_at_one(m, 1) == coideal.pell_sum_value(m) for m in range(1, 13)),
    )
    check(
        "unit sums follow the bishop sequence",
        all(
            coideal.component_sum_at_one(1, L) == coideal.bishop_sequence(L + 1)
            for L in range(1, min(max_sites + 2, 12))
        ),
    )

    payload = {"max_sites": max_sites, "failures": failures, "ok": not failures}
    _emit(args, payload, "all checks passed" if not failures else f"FAILED: {failures}")
    if failures:
        raise CheckFailure(f"verification failures: {failures}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coidealbasis",
        description="Canonical bases, Kazhdan-Lusztig and ballot-strip polynomials, "
        "and the coideal eigensystem for tensor representations of quantum sl2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "ascii"), default="ascii")
        p.add_argument("--out", help="output path (stdout when omitted)")
        return p

    p = common(sub.add_parser("klpoly", help="dump a parabolic KL coefficient table"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", choices=("+", "-"), required=True)
    p.set_defaults(func=cmd_klpoly)

    p = common(sub.add_parser("qpoly", help="strip generating function of a path pair"))
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--rule", choices=("I", "II"), required=True)
    p.add_argument("--eps", choices=("+", "-"), default="-")
    p.add_argument("--shape", type=_parse_shape, help="needed for rule II projection domains")
    p.add_argument("--q0", type=_parse_q0, help="also report the exact value at this point")
    p.set_defaults(func=cmd_qpoly)

    p = common(sub.add_parser("dualbasis", help="expansions of the canonical bases"))
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--kind", choices=("spade", "club", "heart"), default="spade")
    p.add_argument("--k", type=_parse_index)
    p.set_defaults(func=cmd_dualbasis)

    p = common(sub.add_parser("rmatrix", help="transition matrices and inversion check"))
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--check", action="store_true", help="compare all routes")
    p.set_defaults(func=cmd_rmatrix)

    p = common(sub.add_parser("diagram", help="render diagrams"))
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--k", type=_parse_index)
    p.set_defaults(func=cmd_diagram)

    p = common(sub.add_parser("yact", help="the coideal generator on a diagram"))
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--k", type=_parse_index, required=True)
    p.set_defaults(func=cmd_yact)

    p = common(sub.add_parser("eigen", help="eigenvalue multiplicities"))
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--q0", type=_parse_q0, default=Fraction(2))
    p.set_defaults(func=cmd_eigen)

    p = common(sub.add_parser("psi", help="the top eigenvector along several routes"))
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument(
        "--routes",
        default="elimination,graph,transition,closed",
        help="comma list from elimination,graph,transition,closed",
    )
    p.add_argument("--q0", type=_parse_q0, help="also report exact component values at this point")
    p.set_defaults(func=cmd_psi)

    p = common(sub.add_parser("sumrule", help="q=1 component sums and sequences"))
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--L", dest="length", type=int, default=1)
    p.add_argument("--mode", choices=("value", "table", "pell", "a000902"), default="value")
    p.set_defaults(func=cmd_sumrule)

    p = common(sub.add_parser("verify", help="run the property suites"))
    p.add_argument("--max-sites", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # invalid mathematical input (incomparable paths, bad indices, ...)
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
