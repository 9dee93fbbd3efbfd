"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload audit --seeds 1-10 [--seconds 40] [--trace 0]

For every metric: the median over seeds, the first and third quartiles
(statistics.quantiles, n=4) and their distance as a share of the median.
Each run's result line is appended to .bench_out/spread-<workload>.jsonl.
With --record FILE the set of runs, with every run's values, is added to
FILE under the key <workload>/trace<n>, as in bench/baseline.json; an entry
of another commit or run length is replaced.  Once an entry holds two sets,
every end-to-end metric's change from the first set's median to the last
one's is compared with its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpu": model, "cpus": os.cpu_count(), "os": platform.platform(),
            "python": platform.python_version(), "commit": commit}


def summary_of(values, units):
    out = {}
    for name, vals in values.items():
        out[name] = {"unit": units[name], "median": statistics.median(vals),
                     "min": min(vals), "max": max(vals)}
        if len(vals) >= 2 and out[name]["median"]:
            _, out[name]["q1"], out[name]["q3"], out[name]["iqr_share"] = spread(vals)
    return out


def agreement(first, last):
    """Per bounded metric: how much worse the last set's median is than the first's."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    out = {}
    for m in declared:
        if m["name"] not in first:
            continue
        a, b = first[m["name"]]["median"], last[m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out[m["name"]] = {"bound": m["bound"], "worse_by": worse, "within": worse <= m["bound"]}
    return out


def record(path, key, seeds, runs, values, seconds):
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    here = {**machine(), "seconds": seconds}
    entry = doc.get(key, {})
    if any(entry.get(k) != here[k] for k in ("commit", "seconds")):
        entry = {**here, "sets": []}
    units = {name: metric["unit"] for name, metric in runs[0]["metrics"].items()}
    entry["sets"].append({
        "measured": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
        "seeds": seeds,
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "runs": [{"seed": seed, **{name: r["metrics"][name]["value"] for name in units}}
                 for seed, r in zip(seeds_of(seeds), runs)],
        "metrics": summary_of(values, units),
    })
    if len(entry["sets"]) >= 2:
        entry["agreement"] = agreement(entry["sets"][0]["metrics"], entry["sets"][-1]["metrics"])
    doc[key] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--record", help="add the set of runs to this JSON file")
    args = parser.parse_args(argv)
    log = os.path.join(ROOT, ".bench_out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values, runs = {}, []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace], cwd=ROOT, capture_output=True, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/median':>10s}")
    for key, vals in values.items():
        if len(vals) >= 2 and statistics.median(vals):
            med, q1, q3, rel = spread(vals)
            print(f"{key:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:10.4f}")
    if args.record:
        entry = record(args.record, f"{args.workload}/trace{args.trace}", args.seeds, runs,
                       values, float(args.seconds))
        for key, row in entry.get("agreement", {}).items():
            print(f"{key:40s} worse by {row['worse_by']:+.4f} (bound {row['bound']}) "
                  f"{'within' if row['within'] else 'OUTSIDE'} its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
