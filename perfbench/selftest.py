"""Self-test of the benchmark at tiny sizes (about half a minute on 2 cores).

    python3 perfbench/selftest.py

Checks, for every workload, that
  * every metric named in BENCHMARK.json is printed, with its unit, and
    nothing else; the run is correct and nothing failed;
  * each wrapped function records at least one call on the workloads listed
    for it below, so a renamed function cannot silently zero a layer;
  * the per-layer self times sum to no more than the traced verdict time;
and that the benchmark exits non-zero, printing no result, in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# wrapped function -> workloads on which it must be called
CALLED_ON = {
    "geodesics1d.blocks_cdf": ("certify", "omega"),
    "geodesics1d.bin_blocks": ("certify", "converge"),
    "distortion.tau_KN_vec": ("certify",),
    "cdcheck.t_functional": ("certify",),
    "measure.entropy_from_masses": ("certify",),
    "transport.optimal_coupling_lp": ("converge",),
    "transport.wc_distance": ("converge",),
    "mmspace.k_cut": ("converge",),
    "ikrw.ikrw_fm": ("converge",),
    "transport.monotone_map": ("certify", "omega"),
    "cdcheck.mass_in_intervals": ("omega",),
    "cdcheck.estimate_omega": ("omega",),
    "measure.renyi_entropy": ("certify", "omega"),
    "measure.measure_from_dict": ("certify", "omega"),
    "cdcheck.sample_pair_specs": ("certify",),
    "cdcheck.verify_cd": ("certify",),
    "mmspace.build_model_space": ("certify", "converge", "omega"),
    "cli.main": ("converge", "omega"),
}


def bench(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    return res["metrics"]


def check_names(metrics, declared, what):
    got = {k: v["unit"] for k, v in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{what}: printed {got} but declared {want}"
    for k, v in metrics.items():
        assert isinstance(v["value"], (int, float)), (k, v)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        workload = w["name"]
        check_names(result(workload, 0), spec["end_to_end"], workload)
        m = result(workload, 1)
        check_names(m, spec["per_layer"], f"{workload} --trace 1")
        for layer, workloads in CALLED_ON.items():
            if workload in workloads:
                assert m[f"{layer}.calls"]["value"] >= 1, f"{layer} not called on {workload}"
        self_sum = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        verdict = m["trace.verdict_s"]["value"]
        assert self_sum <= verdict, f"{workload}: self times {self_sum} > {verdict}"
        print(f"{workload}: ok (self times {self_sum:.3f} s of {verdict:.3f} s)")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", "omega", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("bare directory: exits non-zero without a result")


if __name__ == "__main__":
    main()
