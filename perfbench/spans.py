"""Outside-in layer tracing for the benchmark.

`Tracer.install()` replaces public functions and methods of the
`coidealbasis` modules with wrappers that record spans and counters;
`uninstall()` puts the originals back.  Nothing inside the package changes:
the wrappers sit at the module and class attributes through which the
layers call each other, so the package code reaches them by its ordinary
name lookups.

A span is (id, parent id, name, start ns, end ns).  Spans are kept in memory
and written out by `write()`.  The self time of a span is its duration
minus the durations of its direct child spans; `metrics()` sums it per name.
Counters are plain call counts, taken without a span so that hot arithmetic
(Laurent products and sums) costs as little as possible.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

from coidealbasis import ballot, basis, coideal, hecke, laurent, quantum
from coidealbasis.laurent import LaurentPoly
from coidealbasis.quantum import TensorVector

# (module, function name, span name, call counter or None): every call
# becomes a span.
SPANNED_FUNCTIONS = (
    (laurent, "poly_gcd", "laurent.gcd", "laurent.gcd_calls"),
    (laurent, "telescoping_identity_one", "laurent.telescoping", None),
    (laurent, "telescoping_identity_two", "laurent.telescoping", None),
    (ballot, "verify_inversion", "ballot.verify_inversion", None),
    (quantum, "psi_iota", "quantum.psi_iota", None),
    (quantum, "project", "quantum.project", None),
    (basis, "solve_fixed_basis", "basis.solve_fixed_basis", None),
    (coideal, "psi_by_elimination", "coideal.elimination", None),
    (coideal, "psi_by_graph", "coideal.graph", None),
    (coideal, "psi_by_transition", "coideal.transition", None),
    (coideal, "psi_by_closed_form", "coideal.closed", None),
    (coideal, "y_matrix", "coideal.y_matrix", None),
    (coideal, "closed_form_data", "coideal.closed_form", None),
)

# (class, method names, counter name): every call is counted, no span.
COUNTED_METHODS = (
    (LaurentPoly, ("__mul__", "__rmul__"), "laurent.mul_calls"),
    (LaurentPoly, ("__add__", "__radd__"), "laurent.add_calls"),
    (LaurentPoly, ("exact_div",), "laurent.exact_div_calls"),
    (TensorVector, ("__add__",), "quantum.vector_add_calls"),
)

SPAN_NAMES = sorted({span for _, _, span, _ in SPANNED_FUNCTIONS} | {"hecke.kl_basis"})
COUNTER_NAMES = sorted(
    {c for _, _, _, c in SPANNED_FUNCTIONS if c}
    | {c for _, _, c in COUNTED_METHODS}
    | {"hecke.kl_columns", "ballot.configs"}
)


def _package_modules():
    return [m for n, m in sys.modules.items() if n == "coidealbasis" or n.startswith("coidealbasis.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        # open spans: [id, name, start ns, ns covered by direct children]
        self._stack = []
        self._next_id = 0
        self._restore = []
        self._q_cache_start = None

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def _exit(self):
        end = time.perf_counter_ns()
        sid, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - covered
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, name, start, end))

    def _span_wrapper(self, fn, name, counter):
        enter, exit_ = self._enter, self._exit
        counts = self.counts

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every package-module global that refers to `original`
        (the defining module and each `from ... import` of it)."""
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def _set_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        counts = self.counts
        self._q_cache_start = ballot._q_polynomial_cached.cache_info()
        for mod, attr, name, counter in SPANNED_FUNCTIONS:
            original = getattr(mod, attr)
            self._replace_everywhere(original, self._span_wrapper(original, name, counter))

        for cls, attrs, counter in COUNTED_METHODS:
            original = cls.__dict__[attrs[0]]

            def counted(self_, other, _f=original, _c=counter):
                counts[_c] += 1
                return _f(self_, other)

            for attr in attrs:
                self._set_method(cls, attr, counted)

        # The KL solve recurses through the method: span the outermost call
        # only, and count the columns actually solved (memo misses).
        kl_basis = hecke.HeckeModule.kl_basis
        enter, exit_ = self._enter, self._exit
        depth = [0]

        def traced_kl_basis(module, beta):
            if beta not in module._kl_cache:
                counts["hecke.kl_columns"] += 1
            if depth[0]:
                return kl_basis(module, beta)
            depth[0] += 1
            enter("hecke.kl_basis")
            try:
                return kl_basis(module, beta)
            finally:
                exit_()
                depth[0] -= 1

        self._set_method(hecke.HeckeModule, "kl_basis", traced_kl_basis)

        # enumerate_configs recurses once for eps='+': count the outermost
        # result only.
        enumerate_configs = ballot.enumerate_configs
        config_depth = [0]

        def counted_enumerate(*args, **kwargs):
            config_depth[0] += 1
            try:
                out = enumerate_configs(*args, **kwargs)
            finally:
                config_depth[0] -= 1
            if not config_depth[0]:
                counts["ballot.configs"] += len(out)
            return out

        self._replace_everywhere(enumerate_configs, counted_enumerate)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures since install(): counters, self seconds per span
        name (as `<span>_s`) and the strip memo's calls and hit ratio."""
        out = dict(self.counts)
        out.update({name + "_s": ns / 1e9 for name, ns in self.self_ns.items()})
        now = ballot._q_polynomial_cached.cache_info()
        hits = now.hits - self._q_cache_start.hits
        calls = hits + now.misses - self._q_cache_start.misses
        out["ballot.q_polynomial_calls"] = calls
        out["ballot.q_polynomial_hit_ratio"] = hits / calls if calls else 0.0
        return out

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
