"""Run-to-run spread of the benchmark, and repeatability of the traced counts.

    python3 perfbench/spread.py --workload surject-full --seeds 1-10 [--out FILE]
    python3 perfbench/spread.py --workload surject-full --seeds 3 --repeat-counts

The first form runs the benchmark once per seed, one run at a time, and
prints for each end-to-end metric the median and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json; ``--out`` merges that summary into a JSON file
under the workload's name.  The second runs the traced benchmark twice with
one seed, reports every count-valued per-layer metric that differs, and
with ``--out`` records the first run's per-layer metrics.
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "bytes", "flop", "ratio")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--repeat-counts", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    if args.repeat_counts:
        seed = seeds(args.seeds)[0]
        (info, first), (_, second) = (run(args.workload, seed, seconds, 1) for _ in range(2))
        a, b = first["metrics"], second["metrics"]
        counts = [n for n, m in a.items() if m["unit"] in COUNT_UNITS]
        differ = [n for n in counts if a[n]["value"] != b.get(n, {}).get("value")]
        print(f"{len(counts)} count metrics, {len(differ)} differ: {differ}")
        if args.out:
            merge(args.out, args.workload, "traced", {
                "seed": seed, "run_seconds": seconds, "counts_repeat_exactly": not differ,
                "untraced_item_p50_s": info["untraced_item_p50_s"],
                "traced_item_p50_s": info["traced_item_p50_s"],
                "metrics": {n: m["value"] for n, m in a.items()}})
        sys.exit(1 if differ else 0)

    values = {}
    for seed in seeds(args.seeds):
        info, result = run(args.workload, seed, seconds, 0)
        print(json.dumps({"seed": seed, **{n: m["value"] for n, m in
                                           result["metrics"].items()}}), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": args.seeds, "run_seconds": seconds, "metrics": {}}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        print(f"{name:14s} median {med:.6g}  iqr/median {spread:.4f}  "
              f"bound {bounds.get(name)}")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "iqr_over_median": spread, "values": vs}
    if args.out:
        merge(args.out, args.workload, "end_to_end", summary)


def merge(path, workload, key, value):
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault(workload, {})[key] = value
    path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
