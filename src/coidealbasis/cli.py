"""Command-line front end.

Subcommands expose the main computations (Kazhdan-Lusztig tables, strip
generating functions, basis expansions, transition matrices, diagrams, the
coideal action, the eigensystem, the top eigenvector and the sum rules) and
a `verify` subcommand running the checks of `checks` at small bounds.

Outputs are deterministic: indices are emitted in ascending lexicographic
order and polynomial coefficients in ascending exponent order.  Progress for
long enumerations goes to stderr; stdout stays machine-parsable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import product as iproduct

from . import ballot, basis, coideal, hecke
from .paths import Shape, parse_path, path_str


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
    try:
        q0 = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: zero denominator")
    if q0 == 0:
        raise argparse.ArgumentTypeError("q0 must be nonzero")
    return q0


class _Value(argparse.Action):
    """Stores an option's value; the action of every value-taking option.

    Python 3.11's argparse removes a literal "--" from an option's value, so
    --opt=-- arrives as [] with neither the type nor the choices applied; no
    other value does.  On the path options --alpha and --beta [] is the path
    "--"; on any other option it is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            if self.dest not in ("alpha", "beta"):
                raise argparse.ArgumentError(self, "expected one argument, got '--'")
            values = "--"
        setattr(namespace, self.dest, values)


def _parse_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _emit(args, payload_json, payload_text):
    """Write either JSON or preformatted text to stdout or the output path."""
    if args.format == "json":
        text = json.dumps(payload_json, indent=2, sort_keys=True) + "\n"
    else:
        text = payload_text
        if not text.endswith("\n"):
            text += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
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
    configs = ballot.enumerate_configs(alpha, beta, args.rule, args.eps, args.shape)
    p = ballot.weight_sum(configs, args.rule)
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
    components = sorted(rep.psi.components.items())
    lines = [f"{list(k)}: {v}" for k, v in components]
    if args.q0 is not None:
        values = [(k, v.evaluate(args.q0)) for k, v in components]
        payload["components_at_q0"] = {" ".join(map(str, k)): str(x) for k, x in values}
        lines.append(f"at q0={args.q0}: " + ", ".join(f"{list(k)}={x}" for k, x in values))
    lines.append(f"agreements: {rep.agreements}")
    lines.append(f"eigenvalue equation: {rep.eigen_ok}")
    _emit(args, payload, "\n".join(lines))
    if not rep.ok:
        raise CheckFailure("eigenvector routes disagree")
    return 0


# The most work one sumrule call may do, counted in sites times weight
# indices: the sum for (m, L) runs over the (m+1)^L indices of the shape
# (m,)*L, and each index costs in proportion to its m*L sites.
SUMRULE_MAX_COST = 2 ** 26


def _sumrule_sizes(args):
    """The (m, L) pairs whose sums a sumrule call computes."""
    if args.mode == "table":
        return ((m, L) for m in range(1, args.m + 1) for L in range(1, args.length + 1))
    if args.mode == "pell":
        return ((m, 1) for m in range(1, args.m + 1))
    if args.mode == "a000902":
        return ((1, L) for L in range(1, args.length + 1))
    return [(args.m, args.length)]


def cmd_sumrule(args):
    cost = 0
    for m, length in _sumrule_sizes(args):
        # (m+1)^L exceeds the limit once L > 26, so the power stays small
        cost += (m + 1) ** min(length, 27) * m * length
        if cost > SUMRULE_MAX_COST:
            raise ValueError(f"sumrule would exceed {SUMRULE_MAX_COST} site-index steps (weight indices times their sites)")
    if args.mode == "table":
        table = coideal.sum_table(args.m, args.length)
        rows = [["m\\L"] + [str(L) for L in range(1, args.length + 1)]]
        for m, row in enumerate(table, start=1):
            rows.append([str(m)] + [str(v) for v in row])
        _emit(args, {"table": table}, _csv_text(rows))
        return 0
    if args.mode in ("pell", "a000902"):
        pell = args.mode == "pell"
        rows = [["m", "sum", "pell_value", "match"] if pell else ["L", "sum", "sequence_value", "match"]]
        for i in range(1, (args.m if pell else args.length) + 1):
            if pell:
                s, ref = coideal.component_sum_at_one(i, 1), coideal.pell_sum_value(i)
            else:
                _progress(f"summing unit-shape eigenvector components, L={i}")
                s, ref = coideal.component_sum_at_one(1, i), coideal.bishop_sequence(i + 1)
            rows.append([str(i), str(s), str(ref), str(s == ref)])
        ok = all(row[3] == "True" for row in rows[1:])
        _emit(args, {"ok": ok, "rows": rows[1:]}, _csv_text(rows))
        if not ok:
            raise CheckFailure("length-one sum rule failed" if pell else "unit-shape sum rule failed")
        return 0
    # plain value
    value = coideal.component_sum_at_one(args.m, args.length)
    _emit(args, {"m": args.m, "L": args.length, "sum": value}, str(value))
    return 0


def cmd_verify(args):
    from . import checks

    n = args.max_sites
    n4, n5, n6 = min(n, 4), min(n, 5), min(n, 6)
    units = [Shape((1,) * L) for L in range(1, n6 + 1)]
    spectra_shapes = [s for s in units + [Shape((2, 2)), Shape((3, 3))] if s.total <= n]
    psi_shapes = [s for s in units + [Shape((2, 2)), Shape((3, 2))] if s.total <= n]
    # (progress name, its checks); the acceptance suite runs the same checks
    # at the release bounds
    table = [
        ("telescoping identity (first)", lambda: checks.telescoping_one(3, 2, 2)),
        ("telescoping identity (second)", lambda: checks.telescoping_two(2, 2, 2)),
        (f"strip rules match KL oracle (N={n6})", lambda: checks.strip_rules_match_kl(n6)),
        (f"strip-rule inversion (sites <= {n6})", lambda: checks.inversion(n6)),
        (f"transition-matrix routes (sites <= {n5})",
         lambda: checks.transition_routes(n5), lambda: checks.ballot_matches_kl(n5)),
        (f"twisted involutions fix the bases (sites <= {n4})", lambda: checks.involutions_fix_bases(n4)),
        (f"decomposition positivity (sites <= {n5})", lambda: checks.positivity(n5)),
        (f"diagram action matches module action (sites <= {n6})", lambda: checks.action_consistency(n6)),
        ("spectral multiplicities", lambda: checks.spectra(spectra_shapes)),
        ("top eigenvector routes and positivity", lambda: checks.eigenvector_routes(psi_shapes)),
        ("sum table", lambda: checks.sum_table()),
        ("length-one sums are Pell values", lambda: checks.pell_rule(12)),
        ("unit sums follow the bishop sequence", lambda: checks.bishop_rule(min(n + 1, 11))),
    ]
    failures = []
    for name, *calls in table:
        ok = all(call().ok for call in calls)
        _progress(f"[{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    payload = {"max_sites": n, "failures": failures, "ok": not failures}
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
        p.register("action", None, _Value)
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
    p.add_argument("--m", type=_parse_count, default=1)
    p.add_argument("--L", dest="length", type=_parse_count, default=1)
    p.add_argument("--mode", choices=("value", "table", "pell", "a000902"), default="value")
    p.set_defaults(func=cmd_sumrule)

    p = common(sub.add_parser("verify", help="run the property suites"))
    p.add_argument("--max-sites", type=_parse_count, default=6)
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
    except (ValueError, OverflowError) as exc:
        # invalid input (incomparable paths, bad indices, sizes too large to
        # index, an unwritable --out path, ...)
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
