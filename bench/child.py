"""One benchmark pass in a fresh process: import nonlift, run every operation.

Usage: child.py ROOT PLAN [--trace] [--keep DIR] | child.py ROOT --setup-only

Nothing but `sys`, `os` and `time` is imported before nonlift, so the
reported import instant marks the end of the set-up a CLI user pays.  Each
operation calls `nonlift.cli.main(argv)` with stdout and stderr captured,
so parsing, computing and rendering are all inside the timed region.  With
`--keep DIR` each operation's output is also written to DIR for checking,
after its timing.  The result is one JSON line on the real stdout.
"""

import os
import sys
import time

ROOT = os.path.abspath(sys.argv[1])
sys.path.insert(0, os.path.join(ROOT, "src"))
import nonlift.cli  # noqa: E402  (the set-up being measured ends here)

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402


def _cpu_and_rss():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def main(argv):
    source = os.path.dirname(os.path.abspath(nonlift.cli.__file__))
    result = {"imported": IMPORTED, "source": source}
    if "--setup-only" in argv:
        return result
    with open(argv[1], encoding="utf-8") as fh:
        ops = json.load(fh)
    keep = argv[argv.index("--keep") + 1] if "--keep" in argv else None
    spans = None
    run = nonlift.cli.main
    if "--trace" in argv:
        spans = tracer.Tracer()
        spans.install()
        run = lambda args: spans.op(" ".join(args[:2]), nonlift.cli.main, args)  # noqa: E731
    records = []
    cpu_before, _ = _cpu_and_rss()
    first = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, error = run(op["argv"]), None
        except Exception as exc:  # a crash is a failed operation, not a failed pass
            code, error = None, repr(exc)
        latency = time.perf_counter() - start
        data = out.getvalue().encode("utf-8")
        if keep is not None:
            with open(os.path.join(keep, f"{op['id']}.out"), "wb") as fh:
                fh.write(data)
        records.append({"id": op["id"], "latency_s": latency, "code": code, "error": error,
                        "bytes": len(data), "digest": hashlib.sha256(data).hexdigest(),
                        "stderr": err.getvalue()[-500:]})
    result["wall_s"] = time.perf_counter() - first
    cpu_after, rss_kb = _cpu_and_rss()
    result["cpu_s"] = cpu_after - cpu_before
    result["rss_mb"] = rss_kb / 1024
    result["ops"] = records
    if spans is not None:
        result["trace"] = spans.snapshot()
        result["spans"] = spans.spans
    result["boundaries"] = tracer.installed_boundaries()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])), file=sys.__stdout__, flush=True)
