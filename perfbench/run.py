"""cdknlab benchmark: time to a certified/refuted verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {certify,converge,omega} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

One caller in a closed loop: every unit of work waits for the previous one,
and every benchmark process runs with BLAS/OpenMP pinned to one thread.  The
parent imports nothing from cdknlab; it starts fresh worker processes
(perfbench/worker.py) that import the library from the checkout's `src/`.

--trace 0  prints the end-to-end metrics.  Five set-up-only processes and the
           measuring process each time import plus input construction;
           `setup_s` is their median.  The measuring process cycles through
           the workload's inputs for --seconds; `verdict_s` is the mean over
           the inputs of each input's best unit time.
--trace 1  prints the per-layer metrics, each per unit (mean over the units
           run).  An untraced process runs units for half of --seconds, then
           a traced process runs the same units; `trace.overhead_s` is the
           difference of their mean unit times.  Spans go to
           .perfbench_out/spans-<workload>-<seed>.json.gz.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it records the environment.  `failed` counts units
that raised, exited with code 1 (or 2 where a verdict of "passed" is the
invariant) or failed the oracle in perfbench/workloads.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 0
REFERENCE = os.path.join(HERE, "reference.json")
REF_RTOL = 1e-9  # a faithful rewrite may change the 12th digit
REF_ATOL = 1e-9  # certify's deficits are ~1e-11, i.e. rounding noise
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every worker of one run must have ended by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "HIGHS_NUM_THREADS")

END_TO_END = {  # name -> unit
    "verdict_s": "s", "items_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}
# layer -> the metrics reported for it
LAYER_METRICS = {
    "geodesics1d.blocks_cdf": ("calls", "self_s", "segments", "points"),
    "geodesics1d.bin_blocks": ("calls", "self_s"),
    "distortion.tau_KN_vec": ("calls", "self_s", "elems"),
    "cdcheck.t_functional": ("calls", "self_s"),
    "measure.entropy_from_masses": ("calls", "self_s"),
    "transport.optimal_coupling_lp": ("calls", "self_s", "lp_vars"),
    "transport.wc_distance": ("calls", "self_s"),
    "mmspace.k_cut": ("calls", "self_s"),
    "ikrw.ikrw_fm": ("calls", "self_s"),
    "transport.monotone_map": ("calls", "self_s", "segments"),
    "cdcheck.mass_in_intervals": ("calls", "self_s"),
    "cdcheck.estimate_omega": ("calls", "self_s"),
    "measure.renyi_entropy": ("calls", "self_s"),
    "measure.measure_from_dict": ("calls", "self_s"),
    "cdcheck.sample_pair_specs": ("calls", "self_s"),
    "cdcheck.verify_cd": ("calls", "self_s"),
    "mmspace.build_model_space": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "segments": "count", "points": "count",
         "elems": "count", "lp_vars": "count"}
DERIVED = {  # per-layer metrics that are not a layer's own counter
    "cdcheck.sampler_accept_frac": "frac", "cdcheck.rows": "count",
    "cdcheck.rows_compared_frac": "frac", "cli.report_bytes": "B",
    "trace.verdict_s": "s", "trace.overhead_s": "s",
}


def per_layer_names() -> dict:
    out = {f"{layer}.{c}": UNITS[c]
           for layer, cs in LAYER_METRICS.items() for c in cs}
    out.update(DERIVED)
    return out


def _git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    """Thread pools pinned to one thread, set before the worker imports numpy."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, env, extra):
    """Run one worker to completion; (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--size", args.size,
           "--seed", str(args.seed)] + extra
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, args.deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def check_reference(args, res) -> dict:
    """Unit 0 of the default seed against the recorded numbers.

    A value off by more than REF_ATOL + REF_RTOL * |reference| fails unit 0;
    byte-identity of the report is reported on its own and fails nothing.
    """
    if args.size != "full" or args.seed != DEFAULT_SEED:
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)[args.workload]
    first = res.get("first", {"values": {}, "sha256": None})
    vals, rvals = first["values"], ref["values"]
    problems = [] if set(vals) == set(rvals) else ["reference keys differ"]
    for key in sorted(set(vals) & set(rvals)):
        v, r = vals[key], rvals[key]
        if v != r and not abs(v - r) <= REF_ATOL + REF_RTOL * abs(r):
            problems.append(f"{key}: {v!r} vs reference {r!r}")
    res["units"][0]["problems"] += problems
    return {"reference_problems": problems,
            "reference_identical": first["sha256"] == ref["sha256"]}


def _failed(units) -> int:
    return sum(1 for u in units if u["problems"])


def end_to_end(args, env):
    setups = []
    for _ in range(SETUP_PROBES):
        t0, res = _spawn(args, env, ["--probe"])
        setups.append(res["ready"] - t0)
    t0, res = _spawn(args, env, ["--seconds", str(args.seconds), "--every-input"])
    setups.append(res["ready"] - t0)
    res["reference"] = check_reference(args, res)
    units = res["units"]
    # best of an input's repeats: on a shared host a run mixes fast and slow
    # phases of several seconds, and only the fastest repeat is free of them
    best = {}
    for u in units:
        if u["input"] not in best or u["seconds"] < best[u["input"]]["seconds"]:
            best[u["input"]] = u
    times = [u["seconds"] for u in best.values()]
    metrics = {
        "verdict_s": statistics.fmean(times),
        "items_per_s": sum(u["items"] for u in best.values()) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - _failed(units) / len(units),
    }
    return res, units, metrics


def per_layer(args, env):
    _, plain = _spawn(args, env, ["--seconds", str(args.seconds / 2.0)])
    plain["reference"] = check_reference(args, plain)
    n = len(plain["units"])
    spans = os.path.join(ROOT, ".perfbench_out",
                         f"spans-{args.workload}-{args.seed}.json.gz")
    _, traced = _spawn(args, env, ["--units", str(n), "--trace", spans])
    layers, counts = traced["layers"], traced["counts"]
    metrics = {}
    for layer, cs in LAYER_METRICS.items():
        for c in cs:
            v = layers[layer][c] if c in ("calls", "self_s") else counts.get(f"{layer}.{c}", 0)
            metrics[f"{layer}.{c}"] = v / n
    attempts = layers["cdcheck._one_spec"]["attempted_pairs"]
    accepted = (counts.get("cdcheck.sample_pair_specs.accepted", 0)
                + counts.get("cdcheck.estimate_omega.accepted", 0))
    rows = counts.get("cdcheck.verify_cd.rows", 0)
    mean = lambda us: sum(u["seconds"] for u in us) / len(us)
    metrics.update({
        "cdcheck.sampler_accept_frac": accepted / attempts if attempts else 0.0,
        "cdcheck.rows": rows / n,
        "cdcheck.rows_compared_frac":
            counts.get("cdcheck.verify_cd.rows_compared", 0) / rows if rows else 0.0,
        "cli.report_bytes": sum(u["report_bytes"] for u in traced["units"]) / n,
        "trace.verdict_s": mean(traced["units"]),
        "trace.overhead_s": mean(traced["units"]) - mean(plain["units"]),
    })
    return plain, plain["units"] + traced["units"], metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "converge", "omega"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the self-test")
    args = p.parse_args()
    args.deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "cdknlab", "__init__.py")):
        sys.stderr.write(f"no cdknlab sources under {ROOT}/src\n")
        return 2
    env = worker_env()

    measure = per_layer if args.trace else end_to_end
    first, units, values = measure(args, env)
    names = per_layer_names() if args.trace else END_TO_END
    failed = _failed(units)
    print("env " + json.dumps(dict({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "threads_env": {v: env[v] for v in THREAD_VARS},
        "threads_seen": first["threads"], "versions": first["versions"],
        "units": len(first["units"]),
        "problems": [pr for u in units for pr in u["problems"]][:5],
        "notes": [n for u in units for n in u["notes"]],
    }, **first["reference"]), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
