"""The nonlift benchmark: seeded CLI workloads, checked outputs, layer traces.

    python3 bench/run.py --workload audit --seed 1 --seconds 40 --trace 0

Run from the root of a source tree.  One client runs a closed loop of
`nonlift` command lines, one operation at a time.  Every pass is a fresh
child process (bench/child.py) that imports nonlift from `src/` and calls
`nonlift.cli.main(argv)` for each operation, so module-level caches start
cold on every pass, as they do for a CLI user.  Passes repeat until
`--seconds` is spent, and at least until 100 operation latencies are
pooled, so the 90th percentile has ten samples beyond it.

With `--trace 0` the result holds the end-to-end metrics: medians over
passes, latency percentiles over the pooled operations.  With `--trace 1`
untraced and traced passes alternate; the result holds the per-layer
metrics of the traced passes (medians) and `trace_overhead`, and the
spans are written to .bench_out/.

Outputs of the first pass of each kind are checked against facts the
benchmark derives itself (bench/oracle.py); later passes must reproduce
the same stdout digests.  A mismatch, an unexpected exit code, a crash or
a changed digest counts the operation as failed.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8  # import-only children per run, on top of one per pass
MIN_SAMPLES = 100  # pooled latencies needed for ten beyond the 90th percentile
OVERRUN = 1.25  # at most this share of --seconds is spent reaching MIN_SAMPLES
HARD_STOP = 100  # seconds after which no further pass starts
CHILD_TIMEOUT = 60  # seconds; a full pass takes under 10 here

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _declared = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _declared["end_to_end"] + _declared["per_layer"]}


def spawn(args, timeout=CHILD_TIMEOUT):
    """Run one child; returns (parsed result, set-up seconds)."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), ROOT, *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(ROOT, "src", "nonlift")
    if os.path.realpath(result["source"]) != os.path.realpath(expected):
        raise RuntimeError(f"child imported nonlift from {result['source']}, not {expected}")
    return result, result["imported"] - started


def check_pass(ops, result, keep_dir, digests):
    """Failure messages per op id for one pass, verifying outputs in keep_dir."""
    failures = {}
    for op, rec in zip(ops, result["ops"]):
        errs = []
        if rec["error"] is not None:
            errs.append(f"raised {rec['error']}")
        elif keep_dir is not None:
            with open(os.path.join(keep_dir, f"{op['id']}.out"), encoding="utf-8") as fh:
                errs += oracle.check(op, fh.read(), rec["code"])
        if digests.setdefault(op["id"], rec["digest"]) != rec["digest"]:
            errs.append("stdout differs from the first pass")
        if errs and rec["stderr"]:
            errs.append(f"stderr: {rec['stderr']}")
        if errs:
            failures[op["id"]] = errs
    return failures


def percentile(samples, q):
    """The q-th percentile (0 < q < 100) by the exclusive quantile method."""
    return statistics.quantiles(samples, n=100)[q - 1]


def measure(name, seed, seconds, trace, size="full", ops=None):
    """Run passes of one workload; returns the summary dict."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nonlift", "cli.py")):
        raise FileNotFoundError(f"no nonlift source tree under {ROOT}/src")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT_DIR)
    try:
        if ops is None:
            ops = workloads.build(name, seed, size, os.path.relpath(workdir, ROOT))
        plan = os.path.join(workdir, "plan.json")
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump([{"id": op["id"], "argv": op["argv"]} for op in ops], fh)
        return _passes(name, seed, seconds, trace, size, ops, plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _passes(name, seed, seconds, trace, size, ops, plan, workdir):
    start = time.monotonic()
    setups = [spawn(["--setup-only"])[1] for _ in range(SETUP_PROBES if size == "full" else 1)]
    passes = {False: [], True: []}  # traced? -> child results
    failures, digests = {}, {}
    # a short run keeps going for the percentile's samples, but not for long
    want = MIN_SAMPLES if size == "full" and not trace else 0
    deadline = min(seconds * OVERRUN, HARD_STOP)
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        # the first pass of each kind writes its outputs for checking
        keep = None if passes[traced] else os.path.join(workdir, f"out-{int(traced)}")
        args = [plan, *(["--trace"] if traced else []), *(["--keep", keep] if keep else [])]
        if keep:
            os.makedirs(keep)
        began = time.monotonic()
        result, setup = spawn(args)
        took = time.monotonic() - began
        setups.append(setup)
        passes[traced].append(result)
        for op_id, errs in check_pass(ops, result, keep, digests).items():
            failures.setdefault(op_id, []).append(errs)
        if trace and not passes[True]:
            continue
        if size != "full":
            break
        projected = time.monotonic() - start + took
        samples = sum(len(r["ops"]) for r in passes[False])
        if projected > deadline or (projected > seconds and samples >= want):
            break
    return summarize(name, seed, seconds, trace, ops, passes, setups, failures,
                     time.monotonic() - start)


def summarize(name, seed, seconds, trace, ops, passes, setups, failures, elapsed):
    plain = passes[False]
    latencies = [rec["latency_s"] for r in plain for rec in r["ops"]]
    attempted = sum(len(r["ops"]) for group in passes.values() for r in group)
    failed = sum(len(v) for v in failures.values())
    wall = statistics.median(r["wall_s"] for r in plain)
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "elapsed_s": elapsed,
        "passes": len(plain), "traced_passes": len(passes[True]), "ops_per_pass": len(ops),
        "samples": len(latencies), "setup_samples": len(setups),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "pass_wall_s": [round(r["wall_s"], 4) for r in plain],
    }
    if not trace:
        cut = percentile(latencies, 90) if len(latencies) >= 2 else latencies[0]
        summary["beyond_p90"] = sum(1 for x in latencies if x > cut)
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": cut * 1e3,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        summary["units"] = {key: UNITS[key] for key in summary["metrics"]}
        return summary
    per_pass = [tracer.layer_metrics(r["trace"], sum(rec["bytes"] for rec in r["ops"]))
                for r in passes[True]]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace_overhead"] = statistics.median(r["wall_s"] for r in passes[True]) / wall
    summary["metrics"] = metrics
    summary["units"] = {key: UNITS[key] for key in metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "ops": [{"id": op["id"], "argv": op["argv"]} for op in ops],
                   "passes": [r["spans"] for r in passes[True]]}, fh)
    summary["spans_file"] = os.path.relpath(spans_path, ROOT)
    return summary


def report(summary):
    """Human-readable lines, then the one JSON result line."""
    lines = [f"workload {summary['workload']} seed {summary['seed']}: "
             f"{summary['passes']} passes ({summary['traced_passes']} traced) of "
             f"{summary['ops_per_pass']} operations, {summary['samples']} latency samples, "
             f"{summary['setup_samples']} set-ups, {summary['elapsed_s']:.1f} s",
             f"  pass wall_s: {summary['pass_wall_s']}"]
    for key, value in summary["metrics"].items():
        lines.append(f"  {key:40s} {value:16.6f} {summary['units'][key]}")
    lines.append(f"  {'error_rate':40s} {summary['error_rate']:16.6f} ratio "
                 f"({summary['failed']} of {summary['attempted']} operations failed)")
    if "beyond_p90" in summary:
        lines.append(f"  {summary['beyond_p90']} samples beyond op_p90_ms")
    for op_id, errs in summary["failures"].items():
        lines.append(f"  FAILED op {op_id}: {errs}")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {key: {"value": value, "unit": summary["units"][key]}
                    for key, value in summary["metrics"].items()},
    }
    return "\n".join(lines + [json.dumps(result)])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at the smallest size class (for tests)")
    parser.add_argument("--describe", action="store_true",
                        help="print the workload records as JSON and exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(workloads.WORKLOADS, indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          "smoke" if args.smoke else "full")
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(report(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
