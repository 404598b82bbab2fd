"""qpknot benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload request-mix --seed 1 --seconds 30 --trace 0

Runs passes of the workload, each in a fresh single-threaded interpreter
(worker.py), one after another (closed loop, one client) until
``--seconds`` have passed, then checks every answer with the independent
oracle and prints every metric by name with its unit.  The last line of
stdout is the JSON result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  A traced run alternates untraced
and traced passes, so it also reports the tracing overhead.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.  Results and
spans are written under ``.perfbench/`` in the checkout.  Exit code 1
means a wrong answer, a failed operation or a crashed pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

BLOCK = 4  # consecutive passes per block; metrics are medians over blocks
MIN_BLOCKS = 3
MIN_TRACED_PASSES = 2
MIN_REQUESTS = 1000  # per block in request-mix: p99 then has 10 samples beyond it
MAX_PASSES = 400
PASS_TIMEOUT_S = 150

# About the yardstick's time on an uncontended core of the 2-vCPU virtual machine
# the benchmark was defined on; see speed_scale().
REFERENCE_NOMINAL_S = 0.040

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
)


def _layer_metrics():
    """(metric, traced name, field, unit) for every per-layer metric."""
    out = []
    for fn in ("mono_mul", "mono_cmp", "poly_mul", "poly_add", "poly_accum_term_mul"):
        out += [(f"kernel.{fn}.calls", f"kernel.{fn}", "calls", "count"), (f"kernel.{fn}.self_s", f"kernel.{fn}", "self_s", "s")]
    out += [
        ("kernel.poly_mul.term_pairs", "kernel.poly_mul", "count", "count"),
        ("kernel.poly_accum_term_mul.terms", "kernel.poly_accum_term_mul", "count", "count"),
        ("kernel.other.self_s", "kernel.other", "self_s", "s"),
    ]
    for fn in ("exact_div", "exact_sqrt", "substitute", "canonical_text"):
        out += [(f"laurent.{fn}.calls", f"laurent.{fn}", "calls", "count"), (f"laurent.{fn}.self_s", f"laurent.{fn}", "self_s", "s")]
    out += [
        ("laurent.exact_div.quot_terms", "laurent.exact_div", "count", "count"),
        ("laurent.exact_div.failed", "laurent.exact_div", "failed", "count"),
        ("laurent.canonical_text.chars", "laurent.canonical_text", "count", "count"),
        ("laurent.json.self_s", "laurent.json", "self_s", "s"),
        ("qpnumbers.qp_number.calls", "qpnumbers.qp_number", "calls", "count"),
    ]
    for fn in ("qp_number", "qp_number_division", "qp_number_recurrence", "multiplier"):
        out.append((f"qpnumbers.{fn}.self_s", f"qpnumbers.{fn}", "self_s", "s"))
    out += [
        ("skein.series.self_s", "skein.series", "self_s", "s"),
        ("skein.series.entries", "skein.series", "count", "count"),
    ]
    for fn in ("to_az_form", "from_az_form"):
        out += [(f"skein.{fn}.calls", f"skein.{fn}", "calls", "count"), (f"skein.{fn}.self_s", f"skein.{fn}", "self_s", "s")]
    out += [
        ("skein.specialize_homfly.self_s", "skein.specialize_homfly", "self_s", "s"),
        ("substitutions.route.self_s", "substitutions.route", "self_s", "s"),
    ]
    out += [(f"verify.{name}.s", f"verify.{name}", "total_s", "s") for name in oracle.VERIFY_CHECKS]
    for name in ("exprparse.parse", "exprparse.eval", "cli.build_parser", "cli.render", "cli.main"):
        out.append((f"{name}.self_s", name, "self_s", "s"))
    return out


LAYER_METRICS = _layer_metrics()
TRACE_METRICS = (("trace_overhead", "ratio"), ("trace.attributed_share", "ratio"))


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


# -- passes --------------------------------------------------------------------


def run_worker(workload, inputs, traced, spans_path):
    payload = json.dumps(
        {
            "root": str(ROOT),
            "workload": workload,
            "inputs": inputs,
            "trace": traced,
            "spans_path": str(spans_path) if spans_path else None,
        }
    )
    # A fixed hash seed keeps dict and set layouts, and so timings, alike
    # from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=PASS_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out)


def run_passes(workload, seed, seconds, trace):
    generate = workloads.PASS_INPUTS[workload]
    passes = []
    started = time.perf_counter()
    while len(passes) < MAX_PASSES:
        index = len(passes)
        traced = bool(trace) and index % 2 == 1
        spans_path = None
        if traced:
            spans_path = OUT_DIR / "spans" / f"{workload}-seed{seed}-pass{index}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        inputs = generate(seed, index)
        res = run_worker(workload, inputs, traced, spans_path)
        # perf_counter is system-wide, so the worker's clock reads on ours.
        # The yardstick is the benchmark's own work, not set-up.
        res["setup_s"] = res["t_first"] - t0 - res["ref_s"]
        res["inputs"] = inputs
        res["traced"] = traced
        passes.append(res)
        if time.perf_counter() - started >= seconds and _enough(workload, passes, trace):
            break
    return passes


def _enough(workload, passes, trace):
    plain = [p for p in passes if not p["traced"]]
    if trace:
        return min(len(plain), len(passes) - len(plain)) >= MIN_TRACED_PASSES
    if len(plain) < MIN_BLOCKS * BLOCK or len(plain) % BLOCK:
        return False
    return workload != "request-mix" or sum(len(p["ops"]) for p in plain[:BLOCK]) >= MIN_REQUESTS


# -- checking ----------------------------------------------------------------------


def check(workload, passes):
    """Oracle verdict for every operation: list of (pass, op, reason)."""
    failures = []
    verified = set()
    for pi, res in enumerate(passes):
        for oi, (inp, op) in enumerate(zip(res["inputs"], res["ops"])):
            if op["err"] is not None:
                reason = f"exception {op['err']}"
            elif workload == "large-index":
                reason = oracle.check_large(inp, op["out"], verified)
            else:
                reason = oracle.check_request(inp["argv"], inp["expect"], op["code"], op["out"])
            if reason is not None:
                failures.append((pi, oi, reason))
        if len(res["ops"]) != len(res["inputs"]):
            failures.append((pi, len(res["ops"]), "operations missing"))
    return failures


def repeat_share(passes):
    """Share of operations whose input already appeared earlier in the
    same process, i.e. that an in-process cache could serve."""
    repeats = total = 0
    for res in passes:
        seen = set()
        for inp in res["inputs"]:
            key = json.dumps(inp, sort_keys=True)
            repeats += key in seen
            seen.add(key)
            total += 1
    return repeats / total


# -- metrics -------------------------------------------------------------------------


def speed_scale(passes):
    """Factor that puts the run's times on a core of nominal speed: one
    that runs the yardstick (reference.py) in REFERENCE_NOMINAL_S.

    The yardstick is short, so each reading catches the core in its fast
    or its slow mode; the mean over the run's passes follows the share of
    time spent in each, as the passes' own times do, where a median would
    jump between the modes."""
    return REFERENCE_NOMINAL_S / statistics.fmean(p["ref_s"] for p in passes)


def end_to_end(passes):
    """Each block of BLOCK consecutive passes gives one value of every
    metric; the run reports the median over its blocks.  Within a block
    the core's fast and slow spells average out; the median then discards
    a block that was slow throughout."""
    k = speed_scale(passes)
    per_block = []
    for i in range(0, len(passes) - BLOCK + 1, BLOCK):
        block = passes[i : i + BLOCK]
        busy = sum(p["wall_s"] for p in block)
        lat_ms = [op["lat"] * 1000.0 * k for p in block for op in p["ops"]]
        per_block.append(
            {
                "wall_s": busy / BLOCK * k,
                "setup_s": statistics.fmean(p["setup_s"] for p in block) * k,
                "throughput_rps": len(lat_ms) / busy / k,
                "latency_p50_ms": statistics.median(lat_ms),
                "latency_p99_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[98],
            }
        )
    values = {name: statistics.median(b[name] for b in per_block) for name in per_block[0]}
    values["peak_rss_mb"] = statistics.median(p["rss_kb"] for p in passes) / 1024.0
    return values


def per_layer(plain, traced):
    """Means per traced pass; times at nominal speed, as in end_to_end()."""
    k = speed_scale(plain + traced)
    values = {}
    for metric, name, field, unit in LAYER_METRICS:
        mean = statistics.fmean(p["layers"].get(name, {}).get(field, 0) for p in traced)
        values[metric] = mean * k if unit == "s" else mean
    values["trace_overhead"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    values["trace.attributed_share"] = statistics.fmean(
        sum(s["self_s"] for s in p["layers"].values()) / p["wall_s"] for p in traced
    )
    return values


def environment(passes, seed):
    backends = {p["backend"] for p in passes}
    if len(backends) != 1:
        raise BenchError(f"passes ran on different kernel backends: {sorted(backends)}")
    return {
        "kernel_backend": backends.pop(),
        "python": passes[0]["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- main ------------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PASS_INPUTS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qpknot" / "__init__.py").is_file():
        print(f"error: no qpknot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
        env = environment(passes, args.seed)
    except (BenchError, json.JSONDecodeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = check(args.workload, passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["inputs"]) for p in passes)
    extras = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": sum(len(p["ops"]) for p in plain),
        "failed_share": len(failures) / attempted,
        "repeat_share": repeat_share(passes),
    }
    if args.trace:
        values = per_layer(plain, traced)
        units = {m: u for m, _, _, u in LAYER_METRICS}
        units.update(TRACE_METRICS)
    else:
        values = end_to_end(plain)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"qpknot benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in extras.items()))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for pi, oi, reason in failures[:20]:
        print(f"FAILED pass {pi} op {oi}: {reason}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "extras": extras,
        "metrics": metrics,
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_setup_s": [p["setup_s"] for p in plain],
        "pass_reference_s": [p["ref_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
