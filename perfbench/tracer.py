"""Per-layer tracing installed from outside the package.

Every traced function is replaced by a wrapper in each qpknot module whose
namespace holds it, so calls are caught where the name is looked up
(``_kernel.mono_mul`` read at call time, ``exact_div`` bound by
``from ... import`` in qpnumbers, skein, exprparse, ...).  The kernel's
own module is left alone: its internal calls (millions of mono_mul inside
one poly_mul) stay untraced on purpose.

Kernel calls are leaves: they add their count and duration to per-name
totals and to the enclosing span, but are not stored one by one.  Every
other call becomes a span (id, parent id, request id, name, start, end)
kept in memory and written out when the pass ends.  A span's self time is
its duration minus the time covered by its children.
"""

import json
import sys
from time import perf_counter

_KERNEL_NAMED = ("mono_mul", "mono_cmp", "poly_mul", "poly_add", "poly_accum_term_mul")
_KERNEL_OTHER = ("mono_pow", "mono_deg", "poly_neg", "poly_term_mul")
_UNTRACED_MODULES = ("qpknot._pykernel", "qpknot._ckernel")


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "count", "failed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.count = 0  # work measured in the layer's own unit
        self.failed = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.request = 0
        # Each frame is [time covered by children, span id].
        self._stack = [[0.0, 0]]
        self._next_id = 1
        self._undo = []  # (namespace, key, original), for uninstall()

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrappers --------------------------------------------------------

    def leaf(self, fn, name, count=None):
        st = self.stat(name)
        stack = self._stack

        if count is None:

            def wrapper(*args):
                t0 = perf_counter()
                r = fn(*args)
                d = perf_counter() - t0
                st.calls += 1
                st.self_s += d
                stack[-1][0] += d
                return r

        else:

            def wrapper(*args):
                t0 = perf_counter()
                r = fn(*args)
                d = perf_counter() - t0
                st.calls += 1
                st.self_s += d
                st.count += count(args)
                stack[-1][0] += d
                return r

        return wrapper

    def span(self, fn, name, count=None, fails=()):
        st = self.stat(name)
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                r = fn(*args, **kwargs)
            except fails:
                st.failed += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                st.calls += 1
                st.self_s += d - frame[0]
                st.total_s += d
                stack[-1][0] += d
                spans.append((sid, parent, tracer.request, name, t0, t1))
            if count is not None:
                st.count += count(r)
            return r

        return wrapper

    # -- the timed region ------------------------------------------------

    def begin(self):
        """Start a timed region; returns its start time."""
        self._stack[:] = [[0.0, 0]]
        return perf_counter()

    def summary(self):
        return {
            name: {
                "calls": st.calls,
                "self_s": st.self_s,
                "total_s": st.total_s,
                "count": st.count,
                "failed": st.failed,
            }
            for name, st in self.stats.items()
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, req, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, req, name, t0, t1]) + "\n")


    def patch(self, namespace, key, wrapper):
        """Replace ``namespace[key]``; a class or module is patched by attribute."""
        if isinstance(namespace, dict):
            self._undo.append((namespace, key, namespace[key]))
            namespace[key] = wrapper
        else:
            self._undo.append((namespace, key, getattr(namespace, key)))
            setattr(namespace, key, wrapper)

    def patch_everywhere(self, original, wrapper):
        """Rebind every qpknot module-level name that refers to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "qpknot" or modname.startswith("qpknot.")):
                continue
            if mod is None or modname in _UNTRACED_MODULES:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, wrapper)


def uninstall(tracer):
    """Put back every original that install() replaced."""
    while tracer._undo:
        namespace, key, original = tracer._undo.pop()
        if isinstance(namespace, dict):
            namespace[key] = original
        else:
            setattr(namespace, key, original)


def install(tracer):
    """Wrap the public functions of every qpknot layer."""
    from qpknot import _kernel, cli, errors, exprparse, laurent, qpnumbers, skein, substitutions, verify

    for name in _KERNEL_NAMED:
        count = None
        if name == "poly_mul":
            count = lambda args: len(args[0]) * len(args[1])
        elif name == "poly_accum_term_mul":
            count = lambda args: len(args[1])
        fn = getattr(_kernel, name)
        tracer.patch_everywhere(fn, tracer.leaf(fn, f"kernel.{name}", count))
    for name in _KERNEL_OTHER:
        fn = getattr(_kernel, name)
        tracer.patch_everywhere(fn, tracer.leaf(fn, "kernel.other"))

    def entries(series):
        return len(series.entries)

    def terms(poly):
        return poly.term_count()

    spans = [
        (laurent.exact_div, "laurent.exact_div", terms, (errors.NotDivisibleError,)),
        (laurent.exact_sqrt, "laurent.exact_sqrt", None, ()),
        (laurent.canonical_text, "laurent.canonical_text", len, ()),
        (qpnumbers.qp_number, "qpnumbers.qp_number", None, ()),
        (qpnumbers.qp_number_division, "qpnumbers.qp_number_division", None, ()),
        (qpnumbers.qp_number_recurrence, "qpnumbers.qp_number_recurrence", None, ()),
        (qpnumbers.homfly_alexander_multiplier, "qpnumbers.multiplier", None, ()),
        (qpnumbers.homfly_jones_multiplier, "qpnumbers.multiplier", None, ()),
        (skein.knot_series, "skein.series", entries, ()),
        (skein.link_series, "skein.series", entries, ()),
        (skein.to_az_form, "skein.to_az_form", None, ()),
        (skein.from_az_form, "skein.from_az_form", None, ()),
        (skein.specialize_homfly, "skein.specialize_homfly", None, ()),
        (substitutions.h1_to_h, "substitutions.route", None, ()),
        (substitutions.h2_to_h, "substitutions.route", None, ()),
        (exprparse.parse_expression, "exprparse.parse", None, ()),
        (exprparse.eval_expression, "exprparse.eval", None, ()),
        (cli.build_parser, "cli.build_parser", None, ()),
        (cli.main, "cli.main", None, ()),
        (cli._emit_series, "cli.render", None, ()),
        (cli._csv_rows, "cli.render", None, ()),
        (cli._print_report, "cli.render", None, ()),
        (cli.latex_poly, "cli.render", None, ()),
    ]
    for fn, name, count, fails in spans:
        tracer.patch_everywhere(fn, tracer.span(fn, name, count, fails))

    # Methods are looked up on the class, dispatch tables by key.
    poly = laurent.LaurentPoly
    tracer.patch(poly, "substitute", tracer.span(poly.substitute, "laurent.substitute"))
    tracer.patch(poly, "to_json_dict", tracer.span(poly.to_json_dict, "laurent.json"))
    for key, fn in list(cli._DISPATCH.items()):
        tracer.patch(cli._DISPATCH, key, tracer.span(fn, "cli.render"))
    for key, fn in list(verify.CHECKS.items()):
        tracer.patch(verify.CHECKS, key, tracer.span(fn, f"verify.{key}"))
