"""One benchmark pass in a fresh interpreter.

Reads a JSON request on stdin ({"root", "workload", "inputs", "trace",
"spans_path"}), imports qpknot from ``<root>/src``, warms up on inputs
the pass never times, runs the timed phase and writes one JSON object to
stdout: per-operation latency, exit code and output, pass wall time, the
time of the first timed call, peak resident memory and, when traced, the
per-layer totals.  Outputs are rendered to text only after the timed
phase; checking them is the parent's job.
"""

import io
import json
import os
import resource
import sys
from time import perf_counter

import reference


def _import_qpknot(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qpknot

    if not os.path.abspath(qpknot.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qpknot imported from {qpknot.__file__}, not from {src}")
    return qpknot


def _cli_warmup(cli, workload):
    # Argument vectors the generators never produce (n = 0, max = 0, ...),
    # so no timed request is served from anything the warm-up computed.
    if workload == "verify-suite":
        argvs = [["verify", "--check", "trefoil", "--n-max", "1"]]
    else:
        argvs = [["qp-num", "--family", "bmq", "--n", "0", "--format", f] for f in ("text", "json", "csv", "latex")]
        argvs += [
            ["series", "--invariant", "jones", "--knots", "--max", "0"],
            ["table", "--invariant", "alexander", "--max", "0", "--az"],
            ["eval", "t - t"],
            ["eval", "t +"],
        ]
    for argv in argvs:
        cli.main(argv, out=io.StringIO())


def _run_cli(cli, inputs, tracer):
    ops = []
    start = tracer.begin() if tracer else perf_counter()
    for i, req in enumerate(inputs):
        if tracer:
            tracer.request = i
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            code = cli.main(req["argv"], out=buf)
            err = None
        except Exception as exc:  # an exception is a failed operation, not a crash
            code, err = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        ops.append({"lat": t1 - t0, "code": code, "out": buf.getvalue(), "err": err})
    end = perf_counter()
    return start, end, ops


def _large_warmup():
    from qpknot import laurent, qpnumbers, skein

    s = skein.knot_series(skein.InvariantKind.HOMFLY, 3)
    skein.link_series(skein.InvariantKind.HOMFLY, 4)
    skein.from_az_form(skein.to_az_form(s.knot(3)))
    laurent.exact_div(laurent.mul(s.knot(2), s.knot(1)), s.knot(1))
    laurent.exact_sqrt(laurent.mul(s.knot(2), s.knot(2)))
    qpnumbers.qp_number_recurrence(qpnumbers.family_spec(qpnumbers.Family.H2), 5)


def _run_large(inputs, tracer):
    """The heavy library calls; each op may use results of earlier ones."""
    from qpknot import laurent, qpnumbers, skein

    series = {}
    az = {}
    products = {}
    results = []

    def call(op):
        name = op["op"]
        if name == "knot_series":
            r = series["knot"] = skein.knot_series(skein.InvariantKind(op["kind"]), op["m"])
        elif name == "link_series":
            r = skein.link_series(skein.InvariantKind(op["kind"]), op["n"])
        elif name == "to_az_form":
            r = az[op["m"]] = skein.to_az_form(series["knot"].knot(op["m"]))
        elif name == "from_az_form":
            r = skein.from_az_form(az[op["m"]])
        elif name == "mul":
            knot = series["knot"]
            r = products[op["m"], op["m2"]] = laurent.mul(knot.knot(op["m"]), knot.knot(op["m2"]))
        elif name == "exact_div":
            r = laurent.exact_div(products[op["m"], op["m2"]], series["knot"].knot(op["m2"]))
        elif name == "exact_sqrt":
            r = laurent.exact_sqrt(products[op["m"], op["m"]])
        elif name == "qp_number_recurrence":
            spec = qpnumbers.family_spec(qpnumbers.Family(op["family"]))
            r = qpnumbers.qp_number_recurrence(spec, op["n"])
        else:
            raise ValueError(f"unknown op {name}")
        return r

    start = tracer.begin() if tracer else perf_counter()
    for i, op in enumerate(inputs):
        if tracer:
            tracer.request = i
        t0 = perf_counter()
        try:
            r, err = call(op), None
        except Exception as exc:  # an exception is a failed operation, not a crash
            r, err = None, f"{type(exc).__name__}: {exc}"
        results.append((r, perf_counter() - t0, err))
    end = perf_counter()
    return start, end, results


def _render_large(results):
    """Results as canonical text, after the timed phase."""
    ops = []
    for r, lat, err in results:
        if err is not None:
            out = None
        elif hasattr(r, "entries"):
            out = {str(n): str(p) for n, p in r.entries.items()}
        else:
            out = str(getattr(r, "poly", r))
        ops.append({"lat": lat, "code": None, "out": out, "err": err})
    return ops


def main():
    ref_s = reference.run()  # before the program is imported
    req = json.load(sys.stdin)
    qpknot = _import_qpknot(req["root"])
    from qpknot import cli

    workload = req["workload"]
    if workload == "large-index":
        _large_warmup()
    else:
        _cli_warmup(cli, workload)

    tracer = None
    if req["trace"]:
        import tracer as tracing  # perfbench/ is sys.path[0]

        tracer = tracing.Tracer()
        tracing.install(tracer)

    real_stderr = sys.stderr
    sys.stderr = io.StringIO()  # the CLI reports expected failures there
    try:
        if workload == "large-index":
            start, end, ops = _run_large(req["inputs"], tracer)
        else:
            start, end, ops = _run_cli(cli, req["inputs"], tracer)
    finally:
        sys.stderr = real_stderr
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "backend": qpknot.KERNEL_BACKEND,
        "python": sys.version.split()[0],
        "ref_s": ref_s,
        "t_first": start,
        "wall_s": end - start,
        "rss_kb": rss_kb,
    }
    if tracer:
        result["layers"] = tracer.summary()
        tracing.uninstall(tracer)
        if req.get("spans_path"):
            tracer.write_spans(req["spans_path"])
    result["ops"] = _render_large(ops) if workload == "large-index" else ops
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
