"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files written by run.py (``.perfbench/results``
of a checkout).  For every workload and metric both sides get a median
and quartiles over their runs; the change of the head median against the
base median is judged against the bound in BENCHMARK.json.  Where the
base's own spread (quartile distance over median) exceeds the bound the
verdict is "unresolved".  Result sets measured on different kernel
backends are not comparable: the script refuses them and exits 2.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def backends(runs):
    return {rec["env"]["kernel_backend"] for recs in runs.values() for rec in recs}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    kinds = backends(base) | backends(head)
    if len(kinds) != 1:
        print(f"refusing to compare: kernel backends differ ({', '.join(sorted(kinds))})", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    for key in sorted(set(base) & set(head)):
        workload, trace = key
        print(f"\n{workload} (trace={trace}): {len(base[key])} base runs, {len(head[key])} head runs")
        for name in base[key][0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in base[key]]
            h = [r["metrics"][name]["value"] for r in head[key]]
            bq1, bmed, bq3 = summary(b)
            hq1, hmed, hq3 = summary(h)
            unit = base[key][0]["metrics"][name]["unit"]
            line = f"  {name:<36} base {bmed:.5g} [{bq1:.5g}, {bq3:.5g}]  head {hmed:.5g} [{hq1:.5g}, {hq3:.5g}] {unit}"
            if name in bounds and bmed:
                m = bounds[name]
                worse = (hmed - bmed) / bmed if m["better"] == "lower" else (bmed - hmed) / bmed
                spread = (bq3 - bq1) / bmed
                if spread > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict = "WORSE beyond bound"
                else:
                    verdict = "within bound"
                line += f"  worse by {worse:+.1%} (bound {m['bound']:.0%}): {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
