"""One benchmark process: import cdknlab, build the inputs, run units.

Started by run.py with the thread variables already in its environment, so
they are in place before numpy is imported.  Prints one JSON object on its
last stdout line.  Not meant to be run by hand; see run.py.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def run_units(wl, workloads, args, out):
    """Closed loop: each unit starts when the previous one has returned.

    Unit i runs input i mod wl.INPUTS, so the run cycles through a fixed set
    of inputs.  With --every-input it ends on time only after every input has
    run once."""
    t_start = time.perf_counter()
    i = 0
    while True:
        k = i % wl.INPUTS
        job = wl.prepare(workloads.unit_seed(args.seed, k))
        unit = {"input": k, "items": 0, "problems": [], "notes": [],
                "report_bytes": 0}
        t0 = time.perf_counter()
        try:
            raw = wl.run(job)
            unit["seconds"] = time.perf_counter() - t0
            oc = wl.check(raw)
        except Exception:  # a unit that raises is a failed unit
            unit.setdefault("seconds", time.perf_counter() - t0)
            unit["problems"].append(traceback.format_exc(limit=3))
        else:
            unit.update(items=oc.items, problems=oc.problems,
                        notes=oc.notes, report_bytes=oc.report_bytes)
            if i == 0:
                out["first"] = {"values": oc.values, "sha256": oc.digest}
        out["units"].append(unit)
        out["threads"] = max(out["threads"], _threads())
        i += 1
        if args.units:
            if i >= args.units:
                return
        elif ((i >= wl.INPUTS or not args.every_input)
              and time.perf_counter() - t_start >= args.seconds):
            return


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="run units until this much time has passed")
    p.add_argument("--units", type=int, default=0,
                   help="run exactly this many units")
    p.add_argument("--every-input", action="store_true",
                   help="with --seconds: end only after every input has run")
    p.add_argument("--probe", action="store_true", help="set up, then exit")
    p.add_argument("--trace", default=None, help="trace and write spans here")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    sys.path.insert(0, HERE)
    import numpy
    import scipy
    import cdknlab
    import workloads

    src = os.path.realpath(os.path.dirname(cdknlab.__file__))
    if not src.startswith(os.path.realpath(args.root) + os.sep):
        raise SystemExit(f"cdknlab imported from {src}, not from the checkout")

    scratch = os.path.join(args.root, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="w-", dir=scratch)
    try:
        wl = workloads.WORKLOADS[args.workload](tmp, args.size)
        out = {"ready": _monotonic(), "units": [], "threads": _threads(),
               "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                            "python": sys.version.split()[0]}}
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
            run_units(wl, workloads, args, out)
            tracer.uninstall()
            out["layers"] = tracer.layer_totals()
            out["counts"] = dict(tracer.counts)
            tracer.write(args.trace)
        elif not args.probe:
            run_units(wl, workloads, args, out)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
